"""Counter-based random streams, read as uniforms or as bits.

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

Stream layout: each run owns one stream of 64-bit outputs, that of a
fresh Philox(key=k); its counter block c holds outputs [4c, 4c + 4).
The stream has two views, and a request reads one of them:

* uniforms_at: output j is the double j of a fresh
  Generator(Philox(key=k)) (its top 53 bits).  A step t that needs
  `count` uniforms reads doubles [t * count, (t + 1) * count).
* bits_at: bit b is bit b % 64 of output b // 64, least significant
  first.  A step t that needs `count` bits reads bits
  [t * count, (t + 1) * count).

Either way steps are packed, and no output is generated only to be
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


def _first_output(ts, count: int) -> int | None:
    """Index of the first stream unit a request reads; None if it reads none."""
    ts = np.asarray(ts, dtype=np.uint64)
    if ts.shape[0] == 0 or count <= 0:
        return None
    if not np.all(ts[1:] == ts[:-1] + np.uint64(1)):
        raise ValueError("ts must be consecutive ascending steps")
    return int(ts[0]) * count


def _each_run(bitgen: Philox, keys):
    """Rekey bitgen to each run in turn, last run first, yielding its index.

    bitgen is a Philox(counter=block) not yet drawn from.  After each
    rekey its next 64-bit output is output 4 * block of run a's stream,
    as from a fresh Philox(key=keys[a], counter=block).
    """
    # Philox(key=k, counter=block) starts from this state with its first
    # key word set to k: the counter is set and the buffer empty.  Its
    # words become plain ints, which the state setter reads far faster
    # than numpy arrays.
    state = bitgen.state
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    keys = np.asarray(keys, dtype=np.uint64)
    for a, k in zip(range(keys.shape[0] - 1, -1, -1), reversed(keys.tolist())):
        key[0] = k
        bitgen.state = state
        yield a


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
    nruns, nsteps = len(keys), len(ts)
    first = _first_output(ts, count)
    if first is None:
        return np.empty((nruns, nsteps, max(count, 0)), dtype=np.float64)
    # Each run's generated doubles begin `skip` doubles before its first
    # step.  Runs are filled last to first, so those leading doubles land
    # in the tail of the previous run's rows, which is written after
    # them; the first run's land in `skip` spare doubles before the result.
    bitgen = Philox(key=0, counter=first // 4)
    fill = Generator(bitgen).random
    skip = first % 4
    per_run = nsteps * count
    flat = np.empty(skip + nruns * per_run, dtype=np.float64)
    for a in _each_run(bitgen, keys):
        fill(out=flat[a * per_run : (a + 1) * per_run + skip])
    return flat[skip:].reshape(nruns, nsteps, count)


def bits_at(keys, ts, count: int) -> np.ndarray:
    """Random bits for a block of runs and steps, as 0/1 bytes.

    keys and ts are as for uniforms_at.  Returns an (A, B, count)
    C-contiguous uint8 array of 0s and 1s: run a's row holds bits
    [ts[0] * count, (ts[-1] + 1) * count) of the 64-bit outputs of a
    fresh Philox(key=keys[a]), bit b being bit b % 64 of output b // 64.
    """
    nruns, nsteps = len(keys), len(ts)
    first = _first_output(ts, count)
    if first is None:
        return np.empty((nruns, nsteps, max(count, 0)), dtype=np.uint8)
    word, lead = divmod(first, 64)
    nbits = nsteps * count
    nwords = -(-(lead + nbits) // 64)
    bitgen = Philox(key=0, counter=word // 4)
    raw = bitgen.random_raw
    # Each run's row starts with the `skip` outputs before output `word`.
    skip = word % 4
    words = np.empty((nruns, skip + nwords), dtype=np.uint64)
    for a in _each_run(bitgen, keys):
        words[a] = raw(skip + nwords)
    words = words[:, skip:]
    if lead:
        # Shift each run's bits down by `lead`, so they start at bit 0 and
        # unpack straight into a contiguous block.
        shifted = words >> np.uint64(lead)
        shifted[:, :-1] |= words[:, 1:] << np.uint64(64 - lead)
        words = shifted
    # Little-endian bytes put bit b % 64 of an output at unpacked place b.
    octets = words.astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(octets, axis=1, count=nbits, bitorder="little")
    return bits.reshape(nruns, nsteps, count)


def uniforms_for_step(key: int, t: int, count: int) -> np.ndarray:
    """Uniform block for a single (run key, step), shape (count,)."""
    return uniforms_at(np.asarray([key], dtype=np.uint64), [t], count)[0, 0]
