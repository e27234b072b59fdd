"""Counter-based random streams, read as uniforms or as bits.

Every random draw in this package is a pure function of
(base_seed, run_index, t, position).  Draws come from the Philox
counter-based generator: the per-run key is derived from
(base_seed, run_index) by splitmix64, and the 256-bit counter addresses
any offset of the run's stream directly (Salmon et al., SC'11).  Nothing is
sequential, so draws are bit-identical no matter how runs are batched,
chunked, or split across worker processes.

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

A request reads the same outputs by one of two routes.  A short one
(at most _VECTOR_BLOCKS counter blocks per run, over at least
_VECTOR_RUNS runs) computes every run's blocks at once with
philox_blocks, a numpy Philox4x64-10 that follows numpy's schedule:
block c of key k is the bijection of counter c + 1 under the key
(k, 0).  A longer one rekeys a single Philox bit generator for each
run, which costs about 2 us a run but generates its outputs at C
speed.
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


# Philox4x64-10 multipliers and key increments, as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = 0xFFFFFFFFFFFFFFFF
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

# Routing of a request, from the measured crossover (2-vCPU x86-64,
# numpy 2.4): the rekey loop costs 2-3 us per run for a few blocks,
# philox_blocks 0.2-0.3 us per block of a run after about 0.6 ms per
# call.  They break even near 256 runs; from 512 runs philox_blocks
# takes at most 0.66 of the loop's time at up to 6 blocks per run.
_VECTOR_BLOCKS = 6
_VECTOR_RUNS = 512

# Counter blocks per slice of philox_blocks: its temporaries stay in cache.
_PHILOX_SLICE = 8192


def _mulhilo(m: int, x: np.ndarray):
    """(high, low) 64-bit words of the 128-bit products m * x, from 32-bit halves.

    Each partial product of halves fits 64 bits, and so does the middle
    sum of three 32-bit values, so no carry is lost.  x is not modified.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    lo = x * np.uint64(m)
    x_lo = x & _LO32
    hi = x >> _S32
    hl = x_lo * m_hi
    mid = np.multiply(x_lo, m_lo, out=x_lo)
    mid >>= _S32
    lh = np.multiply(hi, m_lo)
    hi *= m_hi
    for part in (hl, lh):
        hi += part >> _S32
        part &= _LO32
        mid += part
    mid >>= _S32
    hi += mid
    return hi, lo


def _bijection(ctr: np.ndarray, key: np.ndarray):
    """Philox4x64-10 of the counters (ctr, 0, 0, 0) under the keys (key, 0).

    Returns the four output words, each shaped like ctr.  Ten rounds,
    the key bumped by _PHILOX_W between rounds; the first round's zero
    counter and key words are folded in.
    """
    hi, lo = _mulhilo(_PHILOX_M[0], ctr)
    x0, x1, x2, x3 = key.copy(), np.zeros_like(ctr), hi, lo
    k0, k1 = key, 0
    for _ in range(9):
        k0 = k0 + np.uint64(_PHILOX_W[0])
        k1 = (k1 + _PHILOX_W[1]) & _U64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 ^= x1
        hi1 ^= k0
        hi0 ^= x3
        hi0 ^= np.uint64(k1)
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    return x0, x1, x2, x3


def philox_blocks(keys, first: int, nblocks: int) -> np.ndarray:
    """Counter blocks [first, first + nblocks) of each run's stream at once.

    Returns (A, 4 * nblocks) uint64: run a's row holds outputs
    [4 * first, 4 * (first + nblocks)) of a fresh Philox(key=keys[a]),
    computed for every (run, block) pair together in slices of
    _PHILOX_SLICE blocks.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    size = keys.shape[0] * nblocks
    ctr = np.tile(np.arange(first + 1, first + nblocks + 1, dtype=np.uint64), keys.shape[0])
    key = np.repeat(keys, nblocks)
    out = np.empty((size, 4), dtype=np.uint64)
    # uint64 wraparound is the point; silence the overflow warning.
    with np.errstate(over="ignore"):
        for lo in range(0, size, _PHILOX_SLICE):
            part = slice(lo, lo + _PHILOX_SLICE)
            for word, value in enumerate(_bijection(ctr[part], key[part])):
                out[part, word] = value
    return out.reshape(keys.shape[0], 4 * nblocks)


def _vectorized(nruns: int, first: int, size: int) -> bool:
    """Whether outputs [first, first + size) of nruns streams go through philox_blocks."""
    nblocks = (first + size - 1) // 4 - first // 4 + 1
    return nblocks <= _VECTOR_BLOCKS and nruns >= _VECTOR_RUNS


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


def _outputs(keys, first: int, size: int) -> np.ndarray:
    """Outputs [first, first + size) of each run's stream, (A, size) uint64."""
    block, skip = divmod(first, 4)
    if _vectorized(len(keys), first, size):
        nblocks = (skip + size + 3) // 4
        return philox_blocks(keys, block, nblocks)[:, skip : skip + size]
    bitgen = Philox(key=0, counter=block)
    raw = bitgen.random_raw
    # Each run's row starts with the `skip` outputs before output `first`.
    out = np.empty((len(keys), skip + size), dtype=np.uint64)
    for a in _each_run(bitgen, keys):
        out[a] = raw(skip + size)
    return out[:, skip:]


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

    Run a's row holds doubles [ts[0] * count, (ts[-1] + 1) * count) of
    the stream of a fresh Generator(Philox(key=keys[a])), whose double
    j is (output j >> 11) * 2^-53.  A short request maps philox_blocks
    outputs so; a long one fills the rows from one Philox generator
    rekeyed for each run.
    """
    nruns, nsteps = len(keys), len(ts)
    first = _first_output(ts, count)
    if first is None:
        return np.empty((nruns, nsteps, max(count, 0)), dtype=np.float64)
    per_run = nsteps * count
    if _vectorized(nruns, first, per_run):
        raw = _outputs(keys, first, per_run)
        return np.multiply(raw >> np.uint64(11), 2.0**-53).reshape(nruns, nsteps, count)
    # Each run's generated doubles begin `skip` doubles before its first
    # step.  Runs are filled last to first, so those leading doubles land
    # in the tail of the previous run's rows, which is written after
    # them; the first run's land in `skip` spare doubles before the result.
    bitgen = Philox(key=0, counter=first // 4)
    fill = Generator(bitgen).random
    skip = first % 4
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
    words = _outputs(keys, word, -(-(lead + nbits) // 64))
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
