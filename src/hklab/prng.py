"""Counter-based uniform random streams.

Every random draw in this package is a pure function of
(base_seed, run_index, t, position).  Draws come from the Philox
counter-based generator: the per-run key is derived from
(base_seed, run_index) by splitmix64, and the 256-bit counter addresses
any offset of the run's stream directly (Salmon et al., SC'11).  Nothing is
sequential, so draws are bit-identical no matter how runs are batched,
chunked, or split across worker processes.  One Philox bit generator
serves a whole block of runs: it is rekeyed for each run by setting its
key, counter and buffer position, which is the stream a fresh
Philox(key, counter) would produce.

Stream layout: each run owns one stream of doubles, that of a fresh
Generator(Philox(key=k)); its counter block c holds doubles
[4c, 4c + 4).  A step t that needs `count` uniforms reads doubles
[t * count, (t + 1) * count), so steps are packed and no double is
generated only to be discarded.  Step 0 is reserved for
initial-condition draws, noise starts at t = 1.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x):
    """SplitMix64 mixing function, vectorized over uint64 arrays."""
    # uint64 wraparound is the point; silence the overflow warning.
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + _SM_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM_M1
        z = (z ^ (z >> np.uint64(27))) * _SM_M2
        return z ^ (z >> np.uint64(31))


def run_keys(base_seed: int, run_indices) -> np.ndarray:
    """64-bit Philox key for each run of an ensemble.

    Distinct run indices give distinct keys (splitmix64 is a bijection).
    """
    base = splitmix64(np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF))
    runs = np.asarray(run_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return splitmix64(base + runs)


def uniforms_at(keys, ts, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles for a block of runs and steps.

    Parameters
    ----------
    keys : (A,) uint64
        Per-run keys from run_keys().
    ts : (B,) ints, consecutive ascending
        Step indices.  The draw block for step t depends only on t,
        never on which other steps are generated alongside it.
    count : int
        Uniforms per (run, step) block.

    Returns
    -------
    (A, B, count) C-contiguous float64 in [0, 1).

    One Philox generator is built per call and rekeyed for each run;
    run a's row holds doubles [ts[0] * count, (ts[-1] + 1) * count) of
    the stream of a fresh Generator(Philox(key=keys[a])).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    ts = np.asarray(ts, dtype=np.uint64)
    nruns, nsteps = keys.shape[0], ts.shape[0]
    if nsteps == 0 or count <= 0:
        return np.empty((nruns, nsteps, max(count, 0)), dtype=np.float64)
    if not np.all(ts[1:] == ts[:-1] + np.uint64(1)):
        raise ValueError("ts must be consecutive ascending steps")
    block, skip = divmod(int(ts[0]) * count, 4)
    bitgen = Philox(key=0, counter=block)
    gen = Generator(bitgen)
    # Philox(key=k, counter=block) starts from this state with its first
    # key word set to k: the counter is set and the buffer empty.  Its
    # words become plain ints, which the state setter reads far faster
    # than numpy arrays.
    state = bitgen.state
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    # Each run's generated doubles begin `skip` doubles before its first
    # step.  Runs are filled last to first, so those leading doubles land
    # in the tail of the previous run's rows, which is written after
    # them; the first run's land in `skip` spare doubles before the result.
    per_run = nsteps * count
    flat = np.empty(skip + nruns * per_run, dtype=np.float64)
    for a, k in zip(range(nruns - 1, -1, -1), reversed(keys.tolist())):
        key[0] = k
        bitgen.state = state
        gen.random(out=flat[a * per_run : (a + 1) * per_run + skip])
    return flat[skip:].reshape(nruns, nsteps, count)


def uniforms_for_step(key: int, t: int, count: int) -> np.ndarray:
    """Uniform block for a single (run key, step), shape (count,)."""
    return uniforms_at(np.asarray([key], dtype=np.uint64), [t], count)[0, 0]
