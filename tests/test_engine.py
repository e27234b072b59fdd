"""Batched stopping-time engine: determinism, batching invariance, audits.

The lockstep batch path and the per-run indexed path add each agent's
neighbors in the same order, so they agree bit for bit on any states:
on the dyadic configs below, which keep every float operation exact,
and on the non-dyadic bounded ones.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hklab.engine as engine
import hklab.ensemble as ensemble
from hklab import walks
from hklab.engine import BatchResult, run_batch
from hklab.ensemble import run_ensemble
from hklab.model import InitialCondition, ModelConfig, hk_step, max_pairwise_distance
from hklab.neighbors import resolve_mode
from hklab.noise import NoiseSpec, noise_block
from hklab.presets import preset
from hklab.prng import run_keys


def _dyadic_cfg(space_mode="unbounded"):
    # Two isolated agents one unit apart; rademacher noise in d=1 keeps
    # every state a dyadic rational, so arithmetic is exact.
    return ModelConfig(
        n=2,
        d=1,
        epsilon=0.25,
        space_mode=space_mode,
        noise=NoiseSpec("rademacher_axes", 0.125),
        initial=InitialCondition("explicit", values=((-0.5,), (0.5,))),
    )


def _bounded_cfg(n=4, d=1, seed=3):
    return ModelConfig(
        n=n,
        d=d,
        epsilon=0.5,
        space_mode="bounded",
        noise=NoiseSpec("uniform_ball", 0.25),
        initial=InitialCondition("uniform_box", seed=seed),
    )


def _sample_tuple(s):
    return (s.run_index, s.hit, s.t_hit, s.horizon, s.end_value, s.base_seed)


def _first_run(cfg, base_seed, horizon, accept, runs=32, **kw):
    """Sample of the first of `runs` runs for which accept(sample, absorb_ok) holds.

    Tests that need a run with some property (a hit after a given step,
    a censored end) search for one instead of fixing its index, so a
    change to the noise streams cannot silently void their precondition.
    """
    res = run_batch(cfg, base_seed, np.arange(runs), horizon, **kw)
    absorb = [None] * runs if res.absorb_ok is None else res.absorb_ok.tolist()
    for sample, ok in zip(res.samples, absorb):
        if accept(sample, ok):
            return sample
    raise AssertionError(f"none of {runs} runs meets the test's precondition")


def test_hit_at_time_zero():
    cfg = ModelConfig(
        n=3,
        d=2,
        epsilon=0.5,
        space_mode="bounded",
        noise=NoiseSpec("uniform_ball", 0.25),
        initial=InitialCondition("explicit", values=((0.0, 0.0), (0.1, 0.0), (0.0, 0.1))),
    )
    res = run_batch(cfg, 0, [0], horizon=10)
    s = res.samples[0]
    assert s.hit and s.t_hit == 0 and s.t_end == 0
    assert s.end_value == pytest.approx(0.1 * np.sqrt(2.0))


def test_t_end_property():
    cfg = _bounded_cfg()
    s = run_batch(cfg, 0, [0], horizon=200_00).samples[0]
    if s.hit:
        assert s.t_end == s.t_hit
    else:
        assert s.t_end == s.horizon
    # A censored HK run carries t_hit = horizon, as the oracles' runs do.
    censored = _first_run(_dyadic_cfg(), 801, 100, lambda s, ok: not s.hit)
    assert censored.t_hit == censored.t_end == censored.horizon == 100


def test_batch_matches_solo_runs_bitwise():
    # Per-run noise streams are keyed by run index, so batching must not
    # change any outcome.  With n = 10 a neighbor sum has enough terms for
    # numpy's pairwise summation to differ from ascending order, so a
    # kernel whose order depended on the run count would split batch from
    # solo there.
    # The large-delta config's audits leave synchronization, so runs of
    # one batch switch between the all-neighbors total and the general
    # sums at different steps.
    horizon = 2000
    loose = replace(_bounded_cfg(n=6, d=2), noise=NoiseSpec("uniform_ball", 0.45), allow_large_delta=True)
    for cfg in (_bounded_cfg(), _bounded_cfg(n=10, d=1), _bounded_cfg(n=10, d=3), loose):
        batch = run_batch(cfg, 7, np.arange(8), horizon, extra_after_hit=20)
        for i in range(8):
            solo = run_batch(cfg, 7, [i], horizon, extra_after_hit=20)
            assert _sample_tuple(solo.samples[0]) == _sample_tuple(batch.samples[i])
            assert solo.absorb_ok[0] == batch.absorb_ok[i]


def test_run_slicing_invariance(monkeypatch):
    # run_ensemble cuts the runs into batches of at most
    # walks._CHUNK_ELEMS // n^2 runs.  A budget of 3 n^2 makes four
    # serial batches of 4-agent runs; their samples and audits must
    # equal one batch of all ten bit for bit.
    cfg = _bounded_cfg()
    whole = run_batch(cfg, 11, np.arange(10), 500, extra_after_hit=50)
    batches = []

    def counting(*args, **kwargs):
        batches.append(len(args[2]))
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(walks, "_CHUNK_ELEMS", 3 * cfg.n**2)
    monkeypatch.setattr(ensemble, "run_batch", counting)
    sliced = run_ensemble(cfg, 10, 500, 11, workers=1, extra_after_hit=50)
    assert len(batches) >= 3 and max(batches) <= 3
    assert [_sample_tuple(s) for s in sliced.samples] == [_sample_tuple(s) for s in whole.samples]
    np.testing.assert_array_equal(sliced.absorb_ok, whole.absorb_ok)


def test_chunk_boundary_invariance(monkeypatch):
    # Shrinking the step chunk forces frequent compaction; outcomes must
    # not move.
    cfg = _bounded_cfg()
    whole = run_batch(cfg, 13, np.arange(6), 800)
    monkeypatch.setattr(engine, "_CHUNK_STEPS", 7)
    chunked = run_batch(cfg, 13, np.arange(6), 800)
    assert [_sample_tuple(s) for s in chunked.samples] == [_sample_tuple(s) for s in whole.samples]


def test_horizon_extension_consistency():
    # A run's trajectory is a fixed function of its stream: raising the
    # horizon never changes a hit time, it only resolves censored runs.
    cfg = _dyadic_cfg()
    short = run_batch(cfg, 5, np.arange(40), 60)
    long = run_batch(cfg, 5, np.arange(40), 240)
    hits_short = sum(s.hit for s in short.samples)
    assert 0 < hits_short < 40
    for s, l in zip(short.samples, long.samples):
        if s.hit:
            assert l.hit and l.t_hit == s.t_hit
        elif l.hit:
            assert l.t_hit > 60
        else:
            assert l.end_value > cfg.epsilon


def test_indexed_path_matches_lockstep_bitwise(monkeypatch):
    # Forcing the per-run indexed path reproduces the lockstep results,
    # end distances and audits included: on the exact dyadic config and
    # on non-dyadic bounded configs whose index takes grid mode (3^d < n)
    # and brute mode (3^d >= n).
    cases = [(_dyadic_cfg(), 9, 15), (_bounded_cfg(), 5, 30), (_bounded_cfg(n=8, d=2), 5, 95)]
    assert [resolve_mode("auto", cfg.n, cfg.d) for cfg, _, _ in cases] == ["brute", "grid", "brute"]
    lockstep = [run_batch(cfg, b, np.arange(40), h, extra_after_hit=5) for cfg, b, h in cases]
    monkeypatch.setattr(engine, "_LOCKSTEP_MAX_N", 1)
    for (cfg, b, h), lock in zip(cases, lockstep):
        indexed = run_batch(cfg, b, np.arange(40), h, extra_after_hit=5)
        assert [_sample_tuple(s) for s in indexed.samples] == [_sample_tuple(s) for s in lock.samples]
        np.testing.assert_array_equal(indexed.absorb_ok, lock.absorb_ok)


def test_indexed_batch_matches_solo_runs_bitwise(monkeypatch):
    # The indexed kernel steps each run of a batch on its own copy of its
    # states, so on non-dyadic states a batch equals solo runs bit for
    # bit: in grid mode (3^d < n) and brute mode (3^d >= n), with hits,
    # audits past the horizon and censored runs.
    monkeypatch.setattr(engine, "_LOCKSTEP_MAX_N", 1)
    modes = []

    class RecordingIndex(engine.NeighborIndex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            modes.append(self.mode)

    monkeypatch.setattr(engine, "NeighborIndex", RecordingIndex)
    cases = [(_bounded_cfg(), 30, "grid"), (_bounded_cfg(n=8, d=2), 95, "brute")]
    for cfg, horizon, mode in cases:
        modes.clear()
        batch = run_batch(cfg, 5, np.arange(12), horizon, extra_after_hit=6)
        assert set(modes) == {mode}
        hit = [s.hit for s in batch.samples]
        assert 0 < sum(hit) < 12
        for i in range(12):
            solo = run_batch(cfg, 5, [i], horizon, extra_after_hit=6)
            assert _sample_tuple(solo.samples[0]) == _sample_tuple(batch.samples[i])
            assert solo.absorb_ok[0] == batch.absorb_ok[i]


def test_indexed_path_steps_each_run_to_its_deadline(monkeypatch):
    # Every run on the indexed path builds one grid index per step.  A run
    # steps to its deadline and no further: t_end, plus the audit window
    # once it hit (some audits here run past the horizon).
    builds = []

    class CountingIndex(engine.NeighborIndex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            builds.append(self.mode)

    monkeypatch.setattr(engine, "_LOCKSTEP_MAX_N", 1)
    monkeypatch.setattr(engine, "NeighborIndex", CountingIndex)
    extra = 6
    res = run_batch(_bounded_cfg(), 5, np.arange(12), 30, extra_after_hit=extra)
    hit = [s.hit for s in res.samples]
    assert 0 < sum(hit) < 12
    assert any(s.hit and s.t_hit + extra > 30 for s in res.samples)
    assert res.absorb_ok is not None
    assert set(builds) == {"grid"}
    assert len(builds) == sum(s.t_end + (extra if s.hit else 0) for s in res.samples)


def test_indexed_trajectory_replays_lockstep_snapshots(monkeypatch):
    # The indexed kernel reproduces the lockstep snapshots bit for bit:
    # at a hit, through the audit, and at a censored horizon, on the
    # exact dyadic config and on non-dyadic bounded configs in grid and
    # brute mode.
    kw = dict(extra_after_hit=5, snapshot_stride=1)
    cases = []
    for cfg, horizon in ((_dyadic_cfg(), 100), (_bounded_cfg(), 30), (_bounded_cfg(n=8, d=2), 95)):
        for base, hit in ((9, True), (801, False)):
            found = _first_run(cfg, base, horizon, lambda s, ok: s.hit == hit, extra_after_hit=5)
            cases.append((cfg, base, found.run_index, horizon))

    def trajectories():
        runs = [run_batch(cfg, b, [r], h, **kw) for cfg, b, r, h in cases]
        return [(res.samples[0], res.record) for res in runs]

    lockstep = trajectories()
    monkeypatch.setattr(engine, "_LOCKSTEP_MAX_N", 1)
    indexed = trajectories()
    assert [s.hit for s, _ in lockstep] == [True, False] * 3
    for (s_lock, rec_lock), (s_ind, rec_ind) in zip(lockstep, indexed):
        assert _sample_tuple(s_ind) == _sample_tuple(s_lock)
        np.testing.assert_array_equal(rec_ind.snapshots, rec_lock.snapshots)
        np.testing.assert_array_equal(rec_ind.times, rec_lock.times)


def test_hk_step_replays_lockstep_snapshots_bitwise(monkeypatch):
    # Non-dyadic states in d = 3 and in d = 1 with ten agents (where
    # matmul would have summed by BLAS gemv): the lockstep batch and
    # hk_step share one distance expression and one neighbor-sum order,
    # so replaying the run's own noise draws through hk_step reproduces
    # every snapshot.  The replays also run through audit windows
    # (extra_after_hit > 0), whose steps from a synchronized state take
    # the engine's all-neighbors total.  The large-delta config leaves
    # synchronization during its audit, so its window mixes both kinds
    # of step; seven-step chunks carry the synchronized flag across
    # chunk boundaries.
    monkeypatch.setattr(engine, "_CHUNK_STEPS", 7)
    d3 = ModelConfig(
        n=8,
        d=3,
        epsilon=0.8,
        space_mode="bounded",
        noise=NoiseSpec("uniform_ball", 0.4),
        initial=InitialCondition("uniform_box", seed=4),
    )
    d1 = _bounded_cfg(n=10, d=1)
    loose = replace(d3, noise=NoiseSpec("uniform_ball", 0.6), allow_large_delta=True)
    cases = ((d3, 100, 0), (d1, 50, 0), (d3, 100, 60), (d1, 50, 60), (loose, 100, 60))
    for cfg, min_steps, extra in cases:
        # A run that hits after min_steps; with an audit, one that stays
        # synchronized through it, except on the loose config.
        found = _first_run(
            cfg,
            17,
            1000,
            lambda s, ok: s.hit and s.t_end > min_steps and ok in (None, cfg is not loose),
            extra_after_hit=extra,
        )
        run_index = found.run_index
        res = run_batch(cfg, 17, [run_index], 1000, extra_after_hit=extra, snapshot_stride=1)
        sample, rec = res.samples[0], res.record
        assert _sample_tuple(sample) == _sample_tuple(found)
        if extra:
            assert bool(res.absorb_ok[0]) == (cfg is not loose)
        steps = sample.t_end + extra
        np.testing.assert_array_equal(rec.times, np.arange(steps + 1))
        keys = run_keys(17, [run_index])
        xi = noise_block(cfg.noise, keys, np.arange(1, steps + 1), cfg.n, cfg.d)[0]
        x = cfg.initial.build(cfg.n, cfg.d, cfg.epsilon)
        np.testing.assert_array_equal(rec.snapshots[0], x)
        for t in range(1, steps + 1):
            x = hk_step(x, xi[t - 1], cfg.epsilon, cfg.space_mode)
            np.testing.assert_array_equal(rec.snapshots[t], x)


def test_batch_holds_one_noise_chunk_at_a_time(monkeypatch):
    # Each chunk's draws are freed before the next chunk's are drawn, so
    # the traced peak of a batch of many chunks is one chunk of uniforms
    # plus the uniform_ball transform's planar scratch (as in
    # tests/test_noise.py) and an allowance for states and interpreter
    # objects; two chunks alive at once would exceed it.
    monkeypatch.setattr(walks, "_CHUNK_ELEMS", 200_000)
    cfg = ModelConfig(
        n=4,
        d=3,
        epsilon=0.5,
        space_mode="unbounded",
        noise=NoiseSpec("uniform_ball", 0.25),
        initial=InitialCondition("two_cluster", separation_eps=10.0, sizes=(2, 2)),
    )
    run_batch(cfg, 3, np.arange(100), 2000)
    tracemalloc.start()
    try:
        run_batch(cfg, 3, np.arange(100), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk, scratch = 200_000 * 8, (3 + 2 * 3 + 2) * 8192 * 8
    assert peak <= chunk + scratch + (64 << 10)


def _segment_spy(monkeypatch):
    """Record (steps, truncated) for every lockstep segment run_batch takes.

    A segment is truncated when a running run leaves synchronization
    before its last step.
    """
    calls = []
    real = engine._Lockstep.segment

    def spy(self, states, noise, running, bounded):
        seg, dv2 = real(self, states, noise, running, bounded)
        left = (running & (dv2 > self.epsilon**2)).any(axis=1)
        calls.append((noise.shape[0], bool(left[:-1].any())))
        return seg, dv2

    monkeypatch.setattr(engine._Lockstep, "segment", spy)
    return calls


def test_audit_segments_match_dense_steps_and_solo_runs(monkeypatch):
    # Once every running run of a batch is synchronized, run_batch takes
    # the audit tail in segments.  With 23-step chunks the audits cross
    # many chunk boundaries, and so do the segments' ends.  The batch
    # equals its solo runs and the dense loop (segments off) bit for bit,
    # in samples and in absorb_ok.  The loose config (delta > epsilon/2,
    # but near enough that its batch synchronizes as a whole) leaves
    # synchronization inside segments; its solo runs' states at every
    # step equal the dense loop's too.  The micro config (AC-1's shape:
    # two agents in d = 1 with sign noise) takes one-step segments, as
    # a batch too wide for longer ones does; its solo runs (d * A = 1)
    # take none.
    monkeypatch.setattr(engine, "_CHUNK_STEPS", 23)
    calls = _segment_spy(monkeypatch)
    loose = replace(
        _bounded_cfg(n=6, d=2), noise=NoiseSpec("uniform_ball", 0.3), allow_large_delta=True
    )
    micro = ModelConfig(
        n=2,
        d=1,
        epsilon=1.0,
        space_mode="bounded",
        noise=NoiseSpec("rademacher_axes", 0.5),
        initial=InitialCondition("explicit", values=((-1.0,), (1.0,))),
    )
    share = engine._SEGMENT_SHARE
    for cfg in (_bounded_cfg(), _bounded_cfg(n=10, d=3), loose, micro):
        # A budget of one double per segment leaves every segment one step.
        monkeypatch.setattr(engine, "_SEGMENT_SHARE", walks._CHUNK_ELEMS if cfg is micro else share)
        calls.clear()
        batch = run_batch(cfg, 7, np.arange(8), 600, extra_after_hit=200)
        assert len(calls) > 3 and (max(steps for steps, _ in calls) > 1) == (cfg is not micro)
        assert any(truncated for _, truncated in calls) == (cfg is loose)
        assert (cfg is loose) == (not batch.absorb_ok.all())
        # The loose config's solo runs record every step's state.
        stride = int(cfg is loose)

        def solo_runs():
            return [run_batch(cfg, 7, [i], 600, 200, snapshot_stride=stride) for i in range(8)]

        solos = solo_runs()
        for i, solo in enumerate(solos):
            assert _sample_tuple(solo.samples[0]) == _sample_tuple(batch.samples[i])
            assert solo.absorb_ok[0] == batch.absorb_ok[i]
        with monkeypatch.context() as m:
            m.setattr(engine._Lockstep, "segment_steps", lambda self, states: 0)
            dense = run_batch(cfg, 7, np.arange(8), 600, extra_after_hit=200)
            dense_solos = solo_runs() if stride else []
        assert list(map(_sample_tuple, dense.samples)) == list(map(_sample_tuple, batch.samples))
        np.testing.assert_array_equal(dense.absorb_ok, batch.absorb_ok)
        # Samples and absorb_ok cannot show a segment kept past a leave, or
        # a stale distance buffer after one; every state of a solo run can.
        for solo, ref in zip(solos, dense_solos):
            np.testing.assert_array_equal(solo.record.times, ref.record.times)
            np.testing.assert_array_equal(solo.record.snapshots, ref.record.snapshots)


def test_audit_tail_segments_stay_within_the_noise_budget(monkeypatch):
    # The audit tail of a bounded batch runs in segments whose buffers
    # hold at most 1/_SEGMENT_SHARE of the noise budget, kept beside one
    # noise chunk and the uniform_ball scratch (as in
    # test_batch_holds_one_noise_chunk_at_a_time).  Segments as long as a
    # chunk would exceed the bound.
    monkeypatch.setattr(walks, "_CHUNK_ELEMS", 200_000)
    calls = _segment_spy(monkeypatch)
    cfg = _bounded_cfg(n=4, d=3)
    run_batch(cfg, 3, np.arange(100), 2000, extra_after_hit=2000)
    assert sum(steps for steps, _ in calls) > 1000
    tracemalloc.start()
    try:
        run_batch(cfg, 3, np.arange(100), 2000, extra_after_hit=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk, scratch = 200_000 * 8, (3 + 2 * 3 + 2) * 8192 * 8
    segment = 200_000 // engine._SEGMENT_SHARE * 8
    assert peak <= chunk + segment + scratch + (64 << 10)


def test_translated_start_gives_same_stopping_times():
    # T depends only on differences between agents, so shifting an
    # unbounded start by c must leave every run's (hit, t_end) unchanged.
    cfg = preset("thm2a_d1")
    model = cfg.model
    x0 = model.initial.build(model.n, model.d, model.epsilon)

    def outcomes(c):
        start = InitialCondition("explicit", values=tuple(map(tuple, x0 + c)))
        res = run_batch(replace(model, initial=start), cfg.ensemble.base_seed, np.arange(200), 5000)
        return [(s.hit, s.t_end) for s in res.samples]

    ref = outcomes(0.0)
    assert 0 < sum(hit for hit, _ in ref) < 200
    for c in (1e3, 1e6, 1e8):
        assert outcomes(c) == ref, f"shift {c:g}"


def test_absorbing_audit_bounded_small_delta():
    # delta <= epsilon/2: once inside the epsilon ball the group stays.
    cfg = _bounded_cfg()
    res = run_batch(cfg, 21, np.arange(12), 20_000, extra_after_hit=300)
    assert all(s.hit for s in res.samples)
    assert res.absorb_ok is not None and res.absorb_ok.all()
    for s in res.samples:
        assert s.end_value <= cfg.epsilon


def test_absorb_ok_none_without_extension():
    res = run_batch(_bounded_cfg(), 21, [0], 100)
    assert res.absorb_ok is None


def test_magnitude_guard_trips(monkeypatch):
    monkeypatch.setattr(engine, "MAGNITUDE_GUARD", 1.0)
    cfg = ModelConfig(
        n=4,
        d=1,
        epsilon=0.5,
        space_mode="unbounded",
        noise=NoiseSpec("uniform_cube", 0.25),
        initial=InitialCondition("two_cluster", separation_eps=10.0, sizes=(2, 2)),
    )
    with pytest.raises(RuntimeError, match="exceeded guard"):
        run_batch(cfg, 0, [0], 100)


def test_magnitude_guard_trips_indexed_path(monkeypatch):
    monkeypatch.setattr(engine, "_LOCKSTEP_MAX_N", 1)
    monkeypatch.setattr(engine, "MAGNITUDE_GUARD", 1.0)
    cfg = ModelConfig(
        n=4,
        d=1,
        epsilon=0.5,
        space_mode="unbounded",
        noise=NoiseSpec("uniform_cube", 0.25),
        initial=InitialCondition("two_cluster", separation_eps=10.0, sizes=(2, 2)),
    )
    with pytest.raises(RuntimeError, match="exceeded guard"):
        run_batch(cfg, 0, [0], 100)


def test_trajectory_recorder_strides():
    cfg = _dyadic_cfg()
    run_index = _first_run(cfg, 801, 100, lambda s, ok: not s.hit).run_index
    res = run_batch(cfg, 801, [run_index], 100, snapshot_stride=7)
    sample, rec = res.samples[0], res.record
    assert not sample.hit
    assert rec.times[0] == 0 and rec.times[-1] == 100
    interior = rec.times[:-1]
    assert np.all(interior % 7 == 0)
    d_v = np.array([max_pairwise_distance(x) for x in rec.snapshots])
    assert d_v.shape == rec.times.shape
    assert np.all(d_v > 0)
    assert d_v[-1] == pytest.approx(sample.end_value)


def test_trajectory_snapshots_and_gap():
    cfg = ModelConfig(
        n=4,
        d=2,
        epsilon=0.5,
        space_mode="unbounded",
        noise=NoiseSpec("uniform_cube", 0.25),
        initial=InitialCondition("two_cluster", separation_eps=6.0, sizes=(2, 2)),
    )
    res = run_batch(cfg, 1, [0], 50, snapshot_stride=25)
    sample, rec = res.samples[0], res.record
    # The distance between the two groups' centroids.
    x = rec.snapshots
    gap = np.linalg.norm(x[:, :2].mean(axis=1) - x[:, 2:].mean(axis=1), axis=1)
    assert gap.shape == rec.times.shape
    assert gap[0] == pytest.approx(6.0 * 0.5)
    assert rec.snapshots.shape[1:] == (4, 2)
    assert rec.times[0] == 0
    assert rec.times[-1] == sample.t_end
    assert np.all(rec.times[:-1] % 25 == 0)


def test_recording_strides_need_one_run():
    with pytest.raises(ValueError, match="got 3 runs"):
        run_batch(_dyadic_cfg(), 0, np.arange(3), 10, snapshot_stride=5)


def test_empty_batch_and_bad_horizon():
    cfg = _bounded_cfg()
    res = run_batch(cfg, 0, [], 10)
    assert isinstance(res, BatchResult) and res.samples == []
    with pytest.raises(ValueError, match="horizon"):
        run_batch(cfg, 0, [0], 0)


def test_base_seed_changes_outcomes():
    cfg = _bounded_cfg()
    a = run_batch(cfg, 1, np.arange(6), 3000)
    b = run_batch(cfg, 2, np.arange(6), 3000)
    assert [s.t_end for s in a.samples] != [s.t_end for s in b.samples]
