"""Counter-based uniform random streams.

Every random draw in this package is a pure function of
(base_seed, run_index, t, position).  Draws come from the Philox
counter-based generator: the per-run key is derived from
(base_seed, run_index) by splitmix64, and the 256-bit counter encodes
the step t and the block offset inside the step.  Nothing is
sequential, so draws are bit-identical no matter how runs are batched,
chunked, or split across worker processes.  One Philox bit generator
serves a whole block of runs: it is rekeyed for each run by setting its
key, counter and buffer position, which is the stream a fresh
Philox(key, counter) would produce.

Stream layout: a step that needs `count` uniforms owns the counter
blocks [t * bps, (t + 1) * bps) with bps = ceil(count / 4), four
doubles per block; the trailing pad doubles of the last block are
discarded.  Step 0 is reserved for initial-condition draws, noise
starts at t = 1.
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


# Doubles in one block of runs: small enough for a padded block to stay
# in cache between its fill and its copy into the result.
_PAD_BLOCK = 1 << 15


def blocks_per_step(count: int) -> int:
    """Counter blocks a step of `count` uniforms occupies."""
    return (count + 3) // 4


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
    (A, B, count) float64 in [0, 1).

    One Philox generator is built per call and rekeyed for each run;
    every double equals the one a fresh Generator(Philox(key=k,
    counter=ts[0] * bps)) would return at that position.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    ts = np.asarray(ts, dtype=np.uint64)
    nruns, nsteps = keys.shape[0], ts.shape[0]
    if nsteps == 0 or count <= 0:
        return np.empty((nruns, nsteps, max(count, 0)), dtype=np.float64)
    if not np.all(ts[1:] == ts[:-1] + np.uint64(1)):
        raise ValueError("ts must be consecutive ascending steps")
    bps = blocks_per_step(count)
    width = 4 * bps
    out = np.empty((nruns, nsteps, count), dtype=np.float64)
    bitgen = Philox(key=0, counter=int(ts[0]) * bps)
    gen = Generator(bitgen)
    # Philox(key=k, counter=t0 * bps) starts from this state with its
    # first key word set to k: the counter is set and the buffer empty.
    # Its words become plain ints, which the state setter reads far
    # faster than numpy arrays.
    state = bitgen.state
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    keys = keys.tolist()
    # Each run fills its rows of a cache-sized block of runs: the result
    # itself when no step ends in pad doubles, else a padded block that
    # is copied into the result without them.
    per = max(1, _PAD_BLOCK // (nsteps * width))
    pad = None if width == count else np.empty((min(per, nruns), nsteps, width))
    for lo in range(0, nruns, per):
        rows = out[lo : lo + per] if pad is None else pad[: min(per, nruns - lo)]
        for k, row in zip(keys[lo : lo + per], rows):
            key[0] = k
            bitgen.state = state
            gen.random(out=row)
        if pad is not None:
            out[lo : lo + per] = rows[:, :, :count]
    return out


def uniforms_for_step(key: int, t: int, count: int) -> np.ndarray:
    """Uniform block for a single (run key, step), shape (count,)."""
    return uniforms_at(np.asarray([key], dtype=np.uint64), [t], count)[0, 0]
