"""Survival estimation, tail fits, and the multiprocess ensemble driver."""

import math
from dataclasses import replace

import numpy as np
import pytest

import hklab.ensemble as ensemble
from hklab import engine, walks
from hklab.engine import BatchResult
from hklab.ensemble import (
    MIN_FIT_POINTS,
    EnsembleError,
    SurvivalCurve,
    auto_tail_window,
    censored_mean,
    censored_mean_growth,
    events_from_samples,
    fit_tail,
    hit_fraction,
    run_ensemble,
    summarize,
    survival_from_events,
    survival_grid,
)
from hklab.model import InitialCondition, ModelConfig
from hklab.noise import NoiseSpec, uniforms_per_draw


def _samples(t_hits, horizon):
    """Runs 0, 1, ... hitting at t_hits; None is a run censored at the horizon."""
    hit = [t is not None for t in t_hits]
    return walks._samples(
        range(len(t_hits)),
        hit,
        [t if t is not None else horizon for t in t_hits],
        [0.1 if h else 2.0 for h in hit],
        horizon,
        0,
    )


def _curve(times, values):
    times = np.asarray(times, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    return SurvivalCurve(
        times=times,
        values=values,
        n_at_risk=(values * 1000).astype(np.int64),
        runs=1000,
        horizon=int(times[-1]),
        censored=0,
    )


def test_survival_grid_shape():
    g = survival_grid(100)
    assert g[0] == 0 and g[-1] == 100
    assert np.all(np.diff(g) > 0)
    # Geometric spacing: ratios of consecutive interior points stay near 1.2.
    assert {1, 2, 3, 4, 5, 6} <= set(g.tolist())
    assert 96 in g  # ceil(1.2^25)
    big = survival_grid(10**6)
    assert big.size < 100


def test_survival_estimator_counts():
    samples = _samples([3, 3, 50, None], 100)
    curve = survival_from_events(*events_from_samples(samples), 100)
    assert curve.values[curve.times == 0][0] == 1.0
    # S(3) counts runs with min(T, horizon) >= 3: all four.
    assert curve.values[curve.times == 3][0] == 1.0
    assert curve.values[curve.times == 4][0] == 0.5
    assert curve.values[curve.times == 47][0] == 0.5
    assert curve.values[curve.times == 56][0] == 0.25
    assert curve.values[curve.times == 100][0] == 0.25
    assert curve.censored == 1
    assert np.all(np.diff(curve.values) <= 0)
    np.testing.assert_array_equal(curve.n_at_risk, (curve.values * 4).astype(np.int64))


def test_events_reclassify_at_smaller_horizon():
    samples = _samples([5, 80, None], 100)
    t_end, hit = events_from_samples(samples, 50)
    np.testing.assert_array_equal(t_end, [5, 50, 50])
    np.testing.assert_array_equal(hit, [True, False, False])
    with pytest.raises(ValueError, match="exceeds sampled horizon"):
        events_from_samples(samples, 200)
    with pytest.raises(ValueError, match="negative"):
        events_from_samples(samples, -5)
    # Horizon 0 is a horizon, not a missing one: every run is censored at 0.
    curve = survival_from_events(*events_from_samples(samples, 0), 0)
    assert curve.horizon == 0 and curve.censored == 3
    np.testing.assert_array_equal(curve.times, [0])
    np.testing.assert_array_equal(curve.values, [1.0])


def test_empty_sample_list_rejected():
    empty = _samples([], 10)
    for call in (
        lambda: events_from_samples(empty),
        lambda: events_from_samples(empty, 10),
        lambda: summarize(empty, 10, 0),
        lambda: censored_mean_growth(empty, [5, 10]),
    ):
        with pytest.raises(ValueError, match="empty sample list"):
            call()


def test_censored_mean_and_hit_fraction():
    assert censored_mean([2, 4, 6]) == 4.0
    assert hit_fraction([True, False, True, False]) == 0.5


def test_geometric_tail_prefers_semilog():
    times = survival_grid(200)[1:]
    curve = _curve(times, 0.9**times)
    fit = fit_tail(curve, (1, 200))
    assert fit.semilog_slope == pytest.approx(np.log(0.9), rel=1e-9)
    assert fit.semilog_r2 == pytest.approx(1.0)
    assert fit.semilog_r2 > fit.loglog_r2
    assert fit.hint == "geometric-like"


def test_power_tail_prefers_loglog():
    times = survival_grid(10**6)[1:]
    curve = _curve(times, times.astype(float) ** -0.5)
    fit = fit_tail(curve, (1, 10**6))
    assert fit.loglog_slope == pytest.approx(-0.5, rel=1e-9)
    assert fit.loglog_r2 == pytest.approx(1.0)
    assert fit.loglog_r2 > fit.semilog_r2
    assert fit.hint == "heavy-tail"


def test_degenerate_tail():
    times = survival_grid(200)[1:]
    curve = _curve(times, np.full(times.size, 0.4))
    fit = fit_tail(curve, (1, 200))
    assert fit.degenerate and fit.hint == "degenerate"


def test_fit_requires_enough_points():
    times = survival_grid(8)[1:]
    curve = _curve(times, 0.9**times)
    with pytest.raises(ValueError, match=f">= {MIN_FIT_POINTS}"):
        fit_tail(curve, (1, 8))


def test_auto_window_median_crossing():
    times = survival_grid(10**5)[1:]
    values = 0.999**times
    curve = _curve(times, values)
    lo, hi = auto_tail_window(curve)
    # Median crossing of 0.999^t is near t = 693.
    assert values[times < lo].min() > 0.5 >= values[times >= lo].max()
    assert hi == times[-1]
    fit = fit_tail(curve, (lo, hi))
    assert fit.hint == "geometric-like"


def test_auto_window_none_when_sparse():
    curve = _curve([1, 2, 3], [1.0, 0.5, 0.25])
    assert auto_tail_window(curve) is None


def _tiny_cfg():
    return ModelConfig(
        n=4,
        d=1,
        epsilon=0.5,
        space_mode="bounded",
        noise=NoiseSpec("uniform_ball", 0.25),
        initial=InitialCondition("uniform_box", seed=3),
    )


def test_ensemble_worker_count_invariance():
    cfg = _tiny_cfg()
    horizon = 3000
    one = run_ensemble(cfg, 12, horizon, base_seed=5, workers=1, extra_after_hit=20)
    four = run_ensemble(cfg, 12, horizon, base_seed=5, workers=4, extra_after_hit=20)
    assert [(s.run_index, s.t_hit, s.end_value) for s in one.samples] == [
        (s.run_index, s.t_hit, s.end_value) for s in four.samples
    ]
    np.testing.assert_array_equal(one.absorb_ok, four.absorb_ok)
    assert one.summary.hit_fraction == four.summary.hit_fraction
    assert one.summary.censored_mean == four.summary.censored_mean


def test_ensemble_summary_fields():
    cfg = _tiny_cfg()
    res = run_ensemble(cfg, 10, 5000, base_seed=5)
    s = res.summary
    assert s.runs == 10 and s.horizon == 5000 and s.base_seed == 5
    assert 0.0 <= s.hit_fraction <= 1.0
    assert 0.0 < s.censored_mean <= 5000
    assert s.survival.values[0] == 1.0
    assert not s.incomplete
    assert res.absorb_ok is None


def test_failed_chunk_keeps_completed_runs(monkeypatch):
    # The chunk holding run 7 raises: the other chunk's runs come back as
    # an incomplete partial result and the message names the lost runs.
    cfg = _tiny_cfg()
    real = ensemble.run_batch

    def failing(cfg, base_seed, idxs, horizon, **kwargs):
        if 7 in idxs:
            raise RuntimeError("chunk failed")
        return real(cfg, base_seed, idxs, horizon, **kwargs)

    monkeypatch.setattr(ensemble, "run_batch", failing)
    with pytest.raises(EnsembleError, match="runs 6-11 missing: chunk failed") as info:
        run_ensemble(cfg, 12, 300, base_seed=5, workers=2)
    partial = info.value.partial
    assert [s.run_index for s in partial.samples] == list(range(6))
    assert partial.summary.incomplete and partial.summary.runs == 6
    with pytest.raises(EnsembleError, match="runs 0-11 missing") as info:
        run_ensemble(cfg, 12, 300, base_seed=5, workers=1)
    assert info.value.partial is None


def test_serial_failed_batch_keeps_other_batches(monkeypatch):
    # A budget of 4 n^2 cuts 12 runs into three serial batches; the middle
    # one raises.  The other two come back as the partial result, and the
    # message names only the failing batch's runs.
    cfg = _tiny_cfg()
    full = run_ensemble(cfg, 12, 300, base_seed=5)
    real = ensemble.run_batch
    batches = []

    def failing(cfg, base_seed, idxs, horizon, **kwargs):
        batches.append(list(idxs))
        if 5 in idxs:
            raise RuntimeError("batch failed")
        return real(cfg, base_seed, idxs, horizon, **kwargs)

    monkeypatch.setattr(walks, "_CHUNK_ELEMS", 4 * cfg.n**2)
    monkeypatch.setattr(ensemble, "run_batch", failing)
    with pytest.raises(EnsembleError, match="runs 4-7 missing: batch failed$") as info:
        run_ensemble(cfg, 12, 300, base_seed=5, workers=1)
    assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    partial = info.value.partial
    kept = [0, 1, 2, 3, 8, 9, 10, 11]
    assert partial.samples == [full.samples[i] for i in kept]
    assert partial.summary.incomplete and partial.summary.runs == 8


def _batch_sizes(monkeypatch, budget):
    """The run count of every run_batch call, which returns fake samples."""
    batches = []

    def fake(cfg, base_seed, idxs, horizon, **kwargs):
        batches.append(len(idxs))
        ones = np.ones(len(idxs))
        samples = walks._samples(idxs, ones, ones, np.zeros(len(idxs)), horizon, base_seed)
        return BatchResult(samples, absorb_ok=ones.astype(bool))

    monkeypatch.setattr(walks, "_CHUNK_ELEMS", budget)
    monkeypatch.setattr(ensemble, "run_batch", fake)
    return batches


@pytest.mark.parametrize("n", [2, 10, 128, 300])
def test_batches_never_exceed_width(monkeypatch, n):
    # Each batch holds at most max(1, budget // n^2) runs: 10000, 400, 2
    # and 1 (the indexed path) under a budget of 40 000.  The horizon
    # draws more than engine._RUN_CHUNK_UNITS units a run, so no batch is
    # cut to one chunk's budget.
    budget = 40_000
    width = max(1, budget // n**2)
    batches = _batch_sizes(monkeypatch, budget)
    cfg = replace(_tiny_cfg(), n=n)
    res = run_ensemble(cfg, 2 * width + 1, 10_000, base_seed=0, workers=1)
    assert [s.run_index for s in res.samples] == list(range(2 * width + 1))
    assert len(batches) == 3 and max(batches) <= width


@pytest.mark.parametrize("n", [2, 10])
def test_short_span_batches_fit_one_chunk_budget(monkeypatch, n):
    # Runs that step at most horizon + extra_after_hit steps, drawing at
    # most engine._RUN_CHUNK_UNITS units each, take one noise chunk per
    # batch; each batch is cut so that chunk holds at most
    # budget // _SEGMENT_SHARE units.  One step more than that floor keeps
    # the n^2 width.
    budget = 40_000
    cfg = replace(_tiny_cfg(), n=n)
    unit = n * uniforms_per_draw(cfg.noise.family, cfg.d)
    chunk = budget // engine._SEGMENT_SHARE
    floor = engine._RUN_CHUNK_UNITS // unit
    for horizon, extra in ((3, 10), (floor - 20, 20)):
        span = horizon + extra
        batches = _batch_sizes(monkeypatch, budget)
        run_ensemble(cfg, 1000, horizon, base_seed=0, workers=1, extra_after_hit=extra)
        assert sum(batches) == 1000 and max(batches) * span * unit <= chunk
        assert len(batches) == math.ceil(1000 / (chunk // (span * unit)))
    batches = _batch_sizes(monkeypatch, budget)
    run_ensemble(cfg, 1000, floor + 1, base_seed=0, workers=1)
    assert len(batches) == math.ceil(1000 / (budget // n**2))


def test_ensemble_rejects_zero_runs():
    with pytest.raises(ValueError, match="at least one run"):
        run_ensemble(_tiny_cfg(), 0, 10, 0)


def test_growth_points_match_fresh_short_run():
    # Statistics at a smaller horizon must be recovered exactly from the
    # long pass, because each run extends rather than resamples.
    cfg = _tiny_cfg()
    long = run_ensemble(cfg, 15, 600, base_seed=9)
    short = run_ensemble(cfg, 15, 150, base_seed=9)
    points = censored_mean_growth(long.samples, [150, 600])
    assert points[0].horizon == 150
    assert points[0].censored_mean == short.summary.censored_mean
    assert points[0].hit_fraction == short.summary.hit_fraction
    assert points[1].censored_mean >= points[0].censored_mean
    assert points[1].hit_fraction >= points[0].hit_fraction


def test_summarize_incomplete_flag():
    samples = _samples([3, None], 100)
    s = summarize(samples, 100, base_seed=0, incomplete=True)
    assert s.incomplete
    assert s.hit_fraction == 0.5


def test_survival_from_events_validates():
    with pytest.raises(ValueError, match="at least one run"):
        survival_from_events(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), 10)
