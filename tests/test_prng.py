"""Counter-based stream tests.

The golden arrays below were generated once from this implementation and
frozen.  They guard against accidental changes to the key schedule or the
stream layout: any edit that shifts which uniform lands at (run, step, slot)
breaks reproducibility of every published result, so these tests must never
be regenerated casually.  They were last re-frozen when steps were packed
into the stream (step t of `count` uniforms reads doubles
[t * count, (t + 1) * count)); step 0's draws kept their values.
"""

import numpy as np
import pytest
from numpy.random import Generator, Philox

import hklab.prng as prng
from hklab.prng import (
    bits_at,
    philox_blocks,
    run_keys,
    splitmix64,
    uniforms_at,
)

# Known answers, frozen.  See module docstring.
KEYS_BASE0 = [0xA706DD2F4D197E6F, 0x2A98F501AF37E97F, 0x82876E1C4F0B438C]
KEY_12345_RUN7 = 0xFBDF4C68FA8AFDEC

UNIFORMS_KEY0_T012_C5 = np.array(
    [
        [0.8535001692919197, 0.6193152283162884, 0.6815260578407656, 0.7488928857690932, 0.007675642011268247],
        [0.03077062341775294, 0.44111347139100476, 0.38122391521422627, 0.871440452208476, 0.25446192160747916],
        [0.36233544803321516, 0.2499019966358096, 0.29226411658614315, 0.26349127763997593, 0.9562403767659627],
    ]
)

UNIFORMS_12345_RUN7_T3_C4 = np.array(
    [0.22930584753588235, 0.18729232489991987, 0.8030129754170938, 0.6429591565751033]
)


def test_splitmix64_reference_values():
    # Standard splitmix64 outputs for inputs 0 and 1.
    assert int(splitmix64(np.uint64(0))) == 0xE220A8397B1DCDAF
    assert int(splitmix64(np.uint64(1))) == 0x910A2DEC89025CC1


def test_run_keys_golden():
    keys = run_keys(0, [0, 1, 2])
    assert keys.dtype == np.uint64
    assert [int(k) for k in keys] == KEYS_BASE0
    assert int(run_keys(12345, [7])[0]) == KEY_12345_RUN7


def test_run_keys_distinct_for_nearby_runs():
    keys = run_keys(99, np.arange(512))
    assert len(np.unique(keys)) == 512


def test_run_keys_distinct_for_nearby_seeds():
    a = run_keys(7, [0])[0]
    b = run_keys(8, [0])[0]
    assert a != b


def test_uniforms_golden():
    got = uniforms_at(run_keys(0, [0]), [0, 1, 2], 5)[0]
    np.testing.assert_array_equal(got, UNIFORMS_KEY0_T012_C5)


def test_uniforms_golden_offset_start():
    got = uniforms_at(run_keys(12345, [7]), [3], 4)[0, 0]
    np.testing.assert_array_equal(got, UNIFORMS_12345_RUN7_T3_C4)


def test_uniforms_shape_and_range():
    u = uniforms_at(run_keys(3, [0, 1]), np.arange(4, 9), 7)
    assert u.shape == (2, 5, 7)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_chunk_split_invariance():
    # Reading steps 5..20 in one call must equal reading 5..12 then 13..20.
    keys = run_keys(42, [0, 3])
    whole = uniforms_at(keys, np.arange(5, 21), 6)
    first = uniforms_at(keys, np.arange(5, 13), 6)
    second = uniforms_at(keys, np.arange(13, 21), 6)
    np.testing.assert_array_equal(whole, np.concatenate([first, second], axis=1))


def test_per_run_streams_independent_of_batching():
    keys = run_keys(42, [0, 1, 2, 3])
    together = uniforms_at(keys, [10, 11], 3)
    for i in range(4):
        alone = uniforms_at(keys[i : i + 1], [10, 11], 3)
        np.testing.assert_array_equal(alone[0], together[i])


def test_count_prefix_consistency():
    # Step 0 starts every count at the stream's first double, so a draw of
    # k uniforms there is a prefix of a draw of k' > k.  Later steps start
    # at t * count: step 1 of 3 uniforms reads doubles 3-5, of 4 reads 4-7.
    keys = run_keys(5, [0])
    u3 = uniforms_at(keys, [0, 1], 3)
    u4 = uniforms_at(keys, [0, 1], 4)
    np.testing.assert_array_equal(u3[:, 0], u4[:, 0, :3])
    stream = uniforms_at(keys, [0], 8)[0, 0]
    np.testing.assert_array_equal(u3[0, 1], stream[3:6])
    np.testing.assert_array_equal(u4[0, 1], stream[4:8])


def test_nonconsecutive_steps_rejected():
    keys = run_keys(0, [0])
    with pytest.raises(ValueError, match="consecutive ascending"):
        uniforms_at(keys, [0, 2], 3)
    with pytest.raises(ValueError, match="consecutive ascending"):
        uniforms_at(keys, [3, 2], 3)


def test_empty_requests():
    keys = run_keys(0, [0, 1])
    u = uniforms_at(keys, [], 3)
    assert u.shape == (2, 0, 3)
    u = uniforms_at(keys, [0, 1], 0)
    assert u.shape == (2, 2, 0)


def _fresh_stream(key, size):
    """The first `size` doubles of a freshly seeded Philox for one run."""
    return Generator(Philox(key=int(key))).random(size)


def test_uniforms_match_fresh_philox_per_run():
    # Step t of `count` uniforms is the slice [t * count, (t + 1) * count)
    # of the run's fresh stream.  Keys at and above 2^63 as well as below;
    # starts t0 at every residue mod 4, so every count starts at each
    # offset it can have inside a 4-double counter block.  Calls run back
    # to back, and each run follows another run's rekeyed state, so
    # leaked state would show.
    keys = np.concatenate(
        [
            run_keys(2024, np.arange(6)),
            np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64),
        ]
    )
    assert (keys >= np.uint64(2**63)).any() and (keys < np.uint64(2**63)).any()
    starts = ((0, 1), (1, 3), (2, 2), (3, 5), (37, 17), (123_458, 5))
    assert {t0 % 4 for t0, _ in starts} == {0, 1, 2, 3}
    for count in (1, 2, 3, 5, 7, 10):
        size = max(t0 + nsteps for t0, nsteps in starts) * count
        streams = {int(key): _fresh_stream(key, size) for key in keys}
        for t0, nsteps in starts:
            ts = np.arange(t0, t0 + nsteps)
            for order in (keys, keys[::-1]):
                got = uniforms_at(order, ts, count)
                assert got.shape == (order.size, nsteps, count) and got.flags.c_contiguous
                for a, key in enumerate(order):
                    want = streams[int(key)][t0 * count : (t0 + nsteps) * count]
                    np.testing.assert_array_equal(got[a], want.reshape(nsteps, count))


# (_VECTOR_RUNS, _VECTOR_BLOCKS) that send every request down one route:
# the per-run rekey loop, or philox_blocks.
ROUTES = {"loop": (2**62, 0), "vector": (0, 2**62)}


def _route(monkeypatch, name):
    runs, blocks = ROUTES[name]
    monkeypatch.setattr(prng, "_VECTOR_RUNS", runs)
    monkeypatch.setattr(prng, "_VECTOR_BLOCKS", blocks)


def test_uniforms_invariant_to_run_batches_and_step_chunks(monkeypatch):
    # Odd starts and odd chunk lengths put step boundaries at every offset
    # inside a counter block; any split of runs and steps reads the same
    # doubles as one call over all of them, on either route.
    keys = run_keys(31, np.arange(7))
    for route in ROUTES:
        _route(monkeypatch, route)
        for count in (1, 2, 3, 5):
            for t0 in (1, 3, 5, 7):
                ts = np.arange(t0, t0 + 23)
                whole = uniforms_at(keys, ts, count)
                for runs in (slice(0, 1), slice(1, 4), slice(4, 7), slice(6, 7)):
                    chunks = ((0, 1), (1, 8), (8, 23))
                    parts = [uniforms_at(keys[runs], ts[lo:hi], count) for lo, hi in chunks]
                    np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole[runs])


# ---------------------------------------------------------------------------
# The bit view of the stream
# ---------------------------------------------------------------------------


def _fresh_bits(key, size):
    """The first `size` bits of a fresh Philox's 64-bit outputs, low bit first."""
    words = Philox(key=int(key)).random_raw(-(-size // 64))
    b = np.arange(size, dtype=np.uint64)
    return ((words[b // np.uint64(64)] >> (b % np.uint64(64))) & np.uint64(1)).astype(np.uint8)


def test_bits_match_fresh_philox_per_run():
    # Step t of `count` bits is the slice [t * count, (t + 1) * count) of
    # the run's fresh bit stream.  Counts that do not divide 64 and starts
    # at every output of a counter block put steps across 64-bit words and
    # counter blocks; keys as in the uniform test above.
    keys = np.concatenate(
        [run_keys(2024, np.arange(4)), np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)]
    )
    starts = ((0, 1), (1, 40), (21, 7), (43, 64), (85, 3), (9_999, 9))
    for count in (1, 3, 5, 7, 64, 100):
        size = max(t0 + nsteps for t0, nsteps in starts) * count
        streams = {int(key): _fresh_bits(key, size) for key in keys}
        for t0, nsteps in starts:
            got = bits_at(keys, np.arange(t0, t0 + nsteps), count)
            assert got.shape == (keys.size, nsteps, count) and got.dtype == np.uint8
            for a, key in enumerate(keys):
                want = streams[int(key)][t0 * count : (t0 + nsteps) * count]
                np.testing.assert_array_equal(got[a], want.reshape(nsteps, count))


def test_bits_invariant_to_run_batches_and_step_chunks(monkeypatch):
    # With 3 or 5 bits per step a step straddles a 64-bit word every few
    # steps; any split of runs and steps reads the same bits as one call,
    # on either route.
    keys = run_keys(31, np.arange(7))
    for route in ROUTES:
        _route(monkeypatch, route)
        for count in (1, 3, 5, 13):
            for t0 in (1, 20, 21, 64):
                ts = np.arange(t0, t0 + 61)
                whole = bits_at(keys, ts, count)
                for runs in (slice(0, 1), slice(1, 4), slice(4, 7)):
                    chunks = ((0, 1), (1, 22), (22, 61))
                    parts = [bits_at(keys[runs], ts[lo:hi], count) for lo, hi in chunks]
                    np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole[runs])


def test_bits_balanced_per_position_and_pair():
    # 65536 whole outputs: each of the 64 bit positions is set about half
    # the time, and the four values of adjacent bit pairs along a run's
    # stream each come up about a quarter of the time, within 5 binomial
    # standard errors.
    bits = bits_at(run_keys(8, np.arange(256)), np.arange(1, 257), 64)
    per_position = bits.reshape(-1, 64).mean(axis=0)
    assert np.all(np.abs(per_position - 0.5) < 5 * 0.5 / 256)
    stream = bits.reshape(256, -1).astype(np.int64)
    pairs = (2 * stream[:, :-1] + stream[:, 1:]).ravel()
    freq = np.bincount(pairs, minlength=4) / pairs.size
    assert np.all(np.abs(freq - 0.25) < 5 * np.sqrt(0.25 * 0.75 / pairs.size))


def test_bits_empty_requests_and_step_order():
    keys = run_keys(0, [0, 1])
    assert bits_at(keys, [], 3).shape == (2, 0, 3)
    assert bits_at(keys, [0, 1], 0).shape == (2, 2, 0)
    with pytest.raises(ValueError, match="consecutive ascending"):
        bits_at(keys, [1, 3], 3)


# ---------------------------------------------------------------------------
# The vectorized Philox block function and the routing of requests
# ---------------------------------------------------------------------------

_EDGE_KEYS = np.concatenate(
    [run_keys(2024, np.arange(5)), np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)]
)


@pytest.mark.parametrize("first", [0, 1, 3, 1000, 2**40 + 7])
def test_philox_blocks_match_numpy_philox(monkeypatch, first):
    # Block c of key k is numpy's Philox(key=k) block c, for keys at and
    # above 2^63 and any starting block.  Slices of 3 blocks cut through
    # runs, so a slice boundary inside a run's row would show.
    monkeypatch.setattr(prng, "_PHILOX_SLICE", 3)
    got = philox_blocks(_EDGE_KEYS, first, 5)
    assert got.shape == (_EDGE_KEYS.size, 20) and got.dtype == np.uint64
    for a, key in enumerate(_EDGE_KEYS):
        if first <= 1000:
            want = Philox(key=int(key)).random_raw(4 * (first + 5))[4 * first :]
        else:
            # Philox(counter=c) draws its next block from counter c + 1,
            # which is block c of the fresh stream.
            want = Philox(key=int(key), counter=first).random_raw(20)
        np.testing.assert_array_equal(got[a], want)


def test_routes_agree_at_every_offset(monkeypatch):
    # Both routes return identical arrays for every count and start: steps
    # at each skip-double offset of a 4-output counter block, and sign
    # steps at many lead-bit offsets inside a 64-bit output.
    starts = [(t0, nsteps) for t0 in (0, 1, 2, 3, 5, 21, 43, 64, 9_999) for nsteps in (1, 3, 17)]
    for count in (1, 2, 3, 5, 7, 64, 100):
        for t0, nsteps in starts:
            ts = np.arange(t0, t0 + nsteps)
            for fn in (uniforms_at, bits_at):
                out = {}
                for route in ROUTES:
                    _route(monkeypatch, route)
                    out[route] = fn(_EDGE_KEYS, ts, count)
                    assert out[route].flags.c_contiguous
                assert out["loop"].dtype == out["vector"].dtype
                np.testing.assert_array_equal(out["vector"], out["loop"])
    assert {(t0 * c) % 4 for t0, _ in starts for c in (1, 3)} == {0, 1, 2, 3}
    assert len({(t0 * c) % 64 for t0, _ in starts for c in (3, 5, 7)}) >= 15


def test_threshold_requests_read_the_fresh_stream():
    # Under the default thresholds: _VECTOR_RUNS runs reading _VECTOR_BLOCKS
    # blocks go through philox_blocks, one run fewer or one output more
    # through the loop.  All read each run's fresh stream.
    many = run_keys(3, np.arange(prng._VECTOR_RUNS))
    count = 4 * prng._VECTOR_BLOCKS
    cases = [(many, count, True), (many[1:], count, False), (many, count + 1, False)]
    for keys, count, vectorized in cases:
        assert prng._vectorized(keys.size, 0, count) == vectorized
        got = uniforms_at(keys, [0], count)
        bits = bits_at(keys, [0], 64 * count)
        for a in (0, keys.size // 2, keys.size - 1):
            np.testing.assert_array_equal(got[a, 0], _fresh_stream(keys[a], count))
            np.testing.assert_array_equal(bits[a, 0], _fresh_bits(keys[a], 64 * count))
