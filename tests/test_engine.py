"""Batched stopping-time engine: determinism, batching invariance, audits.

The dyadic configs below keep every float operation exact (all states
are small dyadic rationals), so the lockstep batch path and the
per-run indexed path must agree bit for bit over short horizons.
"""

from dataclasses import replace

import numpy as np
import pytest

import hklab.engine as engine
from hklab.engine import (
    BatchResult,
    check_absorbing,
    cluster_gap,
    run_batch,
    run_trajectory,
)
from hklab.model import InitialCondition, ModelConfig, hk_step
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
    censored = run_batch(_dyadic_cfg(), 801, [0], horizon=100).samples[0]
    assert not censored.hit
    assert censored.t_hit == censored.t_end == censored.horizon == 100


def test_batch_matches_solo_runs_bitwise():
    # Per-run noise streams are keyed by run index, so batching must not
    # change any outcome.  With n = 10 a neighbor sum has enough terms for
    # numpy's pairwise summation to differ from ascending order, so a
    # kernel whose order depended on the run count would split batch from
    # solo there.
    horizon = 2000
    for cfg in (_bounded_cfg(), _bounded_cfg(n=10, d=1), _bounded_cfg(n=10, d=3)):
        batch = run_batch(cfg, 7, np.arange(8), horizon, extra_after_hit=20)
        for i in range(8):
            solo = run_batch(cfg, 7, [i], horizon, extra_after_hit=20)
            assert _sample_tuple(solo.samples[0]) == _sample_tuple(batch.samples[i])
            assert solo.absorb_ok[0] == batch.absorb_ok[i]


def test_run_slicing_invariance(monkeypatch):
    cfg = _bounded_cfg()
    whole = run_batch(cfg, 11, np.arange(10), 500, extra_after_hit=50)
    monkeypatch.setattr(engine, "_RUN_SLICE", 3)
    sliced = run_batch(cfg, 11, np.arange(10), 500, extra_after_hit=50)
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
    # Forcing the per-run indexed path on an exact dyadic config must
    # reproduce the lockstep results including end distances.
    cfg = _dyadic_cfg()
    lockstep = run_batch(cfg, 9, np.arange(40), 15, extra_after_hit=5)
    monkeypatch.setattr(engine, "_LOCKSTEP_MAX_N", 1)
    indexed = run_batch(cfg, 9, np.arange(40), 15, extra_after_hit=5)
    assert [_sample_tuple(s) for s in indexed.samples] == [_sample_tuple(s) for s in lockstep.samples]
    np.testing.assert_array_equal(indexed.absorb_ok, lockstep.absorb_ok)


def test_hk_step_replays_lockstep_snapshots_bitwise():
    # Non-dyadic states in d = 3 and in d = 1 with ten agents (where
    # matmul would have summed by BLAS gemv): the lockstep batch and
    # hk_step share one distance expression and one neighbor-sum order,
    # so replaying the run's own noise draws through hk_step reproduces
    # every snapshot.
    d3 = ModelConfig(
        n=8,
        d=3,
        epsilon=0.8,
        space_mode="bounded",
        noise=NoiseSpec("uniform_ball", 0.4),
        initial=InitialCondition("uniform_box", seed=4),
    )
    for cfg, run_index, min_steps in ((d3, 1, 100), (_bounded_cfg(n=10, d=1), 2, 50)):
        sample, rec = run_trajectory(
            cfg, horizon=1000, base_seed=17, run_index=run_index, snapshot_stride=1
        )
        steps = sample.t_end
        assert sample.hit and steps > min_steps
        np.testing.assert_array_equal(rec.snapshot_times, np.arange(steps + 1))
        keys = run_keys(17, [run_index])
        xi = noise_block(cfg.noise, keys, np.arange(1, steps + 1), cfg.n, cfg.d)[0]
        x = cfg.initial.build(cfg.n, cfg.d, cfg.epsilon)
        np.testing.assert_array_equal(rec.snapshots[0], x)
        for t in range(1, steps + 1):
            x = hk_step(x, xi[t - 1], cfg.epsilon, cfg.space_mode)
            np.testing.assert_array_equal(rec.snapshots[t], x)


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


def test_check_absorbing_roundtrip():
    cfg = _bounded_cfg()
    s = run_batch(cfg, 21, [4], 20_000).samples[0]
    assert s.hit
    assert check_absorbing(cfg, 21, 4, s.t_hit, extra_steps=200)
    with pytest.raises(ValueError, match="not at claimed"):
        check_absorbing(cfg, 21, 4, s.t_hit + 1, extra_steps=10)


def test_check_absorbing_refuses_large_delta():
    cfg = ModelConfig(
        n=2,
        d=1,
        epsilon=0.25,
        space_mode="bounded",
        noise=NoiseSpec("uniform_ball", 0.2),
        initial=InitialCondition("uniform_box", seed=0),
        allow_large_delta=True,
    )
    bad = ModelConfig(**{**cfg.__dict__, "allow_large_delta": False})
    with pytest.raises(ValueError, match="delta > epsilon/2"):
        check_absorbing(bad, 0, 0, 1)


def test_magnitude_guard_trips():
    cfg = ModelConfig(
        n=4,
        d=1,
        epsilon=0.5,
        space_mode="unbounded",
        noise=NoiseSpec("uniform_cube", 0.25),
        initial=InitialCondition("two_cluster", separation_eps=10.0, sizes=(2, 2)),
    )
    with pytest.raises(RuntimeError, match="exceeded guard"):
        run_batch(cfg, 0, [0], 100, guard=1.0)


def test_magnitude_guard_trips_indexed_path(monkeypatch):
    monkeypatch.setattr(engine, "_LOCKSTEP_MAX_N", 1)
    cfg = ModelConfig(
        n=4,
        d=1,
        epsilon=0.5,
        space_mode="unbounded",
        noise=NoiseSpec("uniform_cube", 0.25),
        initial=InitialCondition("two_cluster", separation_eps=10.0, sizes=(2, 2)),
    )
    with pytest.raises(RuntimeError, match="exceeded guard"):
        run_batch(cfg, 0, [0], 100, guard=1.0)


def test_trajectory_recorder_strides():
    cfg = _dyadic_cfg()
    sample, rec = run_trajectory(cfg, horizon=100, base_seed=801, record_stride=7)
    assert not sample.hit
    assert rec.times[0] == 0 and rec.times[-1] == 100
    interior = rec.times[:-1]
    assert np.all(interior % 7 == 0)
    assert rec.d_v.shape == rec.times.shape
    assert np.all(rec.d_v > 0)
    assert rec.d_v[-1] == pytest.approx(sample.end_value)


def test_trajectory_snapshots_and_gap():
    cfg = ModelConfig(
        n=4,
        d=2,
        epsilon=0.5,
        space_mode="unbounded",
        noise=NoiseSpec("uniform_cube", 0.25, requires_symmetry=True),
        initial=InitialCondition("two_cluster", separation_eps=6.0, sizes=(2, 2)),
    )
    sample, rec = run_trajectory(
        cfg, horizon=50, base_seed=1, record_stride=10, snapshot_stride=25
    )
    assert rec.cluster_gap is not None
    assert rec.cluster_gap.shape == rec.times.shape
    assert rec.cluster_gap[0] == pytest.approx(6.0 * 0.5)
    assert rec.snapshots.shape[1:] == (4, 2)
    assert rec.snapshot_times[0] == 0
    assert rec.snapshot_times[-1] == sample.t_end
    assert np.all(rec.snapshot_times[:-1] % 25 == 0)


def test_cluster_gap_geometry_and_validation():
    states = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert cluster_gap(states, 2) == pytest.approx(np.sqrt(4.0 + 16.0))
    with pytest.raises(ValueError, match="empty side"):
        cluster_gap(states, 0)
    with pytest.raises(ValueError, match="empty side"):
        cluster_gap(states, 3)


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
