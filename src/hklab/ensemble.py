"""Monte Carlo ensembles and censoring-aware stopping-time statistics.

Runs are indexed 0..M-1 and each run's trajectory is a pure function of
(config, base_seed, run_index), so results are independent of worker
count and of how runs are chunked.  run_ensemble is the one place that
partitions runs, into engine batches small enough that a lockstep
batch's (n, n, A) buffers stay within the budget that bounds every
noise chunk; a failing batch loses only its own runs.  Extending the
horizon extends each run's own noise stream; statistics at a smaller
horizon are therefore recoverable exactly from a single long pass, and
hit fractions are monotone in the horizon by construction.

Survival curves use the empirical estimator S(t) = #{min(T, horizon)
>= t} / M evaluated on the geometric grid t_k = ceil(1.2^k), with the
number of censored runs reported alongside.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import walks
from .engine import BatchResult, run_batch
from .model import ModelConfig

_GRID_FACTOR = 1.2

# Least points for a meaningful straight-line tail fit.
MIN_FIT_POINTS = 10


class EnsembleError(RuntimeError):
    """Ensemble aborted; .partial carries whatever completed."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# Survival estimation
# ---------------------------------------------------------------------------


def survival_grid(horizon: int) -> np.ndarray:
    """{0} plus ceil(1.2^k) values up to and including the horizon."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    pts = {0, horizon}
    k = 0
    while True:
        t = math.ceil(_GRID_FACTOR**k)
        if t > horizon:
            break
        pts.add(t)
        k += 1
    return np.asarray(sorted(pts), dtype=np.int64)


@dataclass(frozen=True)
class SurvivalCurve:
    """Empirical P{T >= t} on a time grid, with censoring bookkeeping."""

    times: np.ndarray
    values: np.ndarray
    n_at_risk: np.ndarray
    runs: int
    horizon: int
    censored: int


def events_from_samples(samples: walks.Samples, horizon: int | None = None):
    """(t_end, hit) arrays for any horizon up to the sampled one.

    Evaluating at a smaller horizon reclassifies late hits as censored,
    exactly as if the ensemble had been run with that horizon.
    """
    if len(samples) == 0:
        raise ValueError("empty sample list: no runs to evaluate")
    full = samples.horizon
    if horizon is None:
        horizon = full
    if horizon < 0:
        raise ValueError(f"horizon {horizon} is negative")
    if horizon > full:
        raise ValueError(f"horizon {horizon} exceeds sampled horizon {full}")
    hit = samples.hit & (samples.t_hit <= horizon)
    return np.where(hit, samples.t_hit, horizon), hit


def survival_from_events(t_end, hit, horizon: int, grid=None) -> SurvivalCurve:
    t_end = np.asarray(t_end, dtype=np.int64)
    hit = np.asarray(hit, dtype=bool)
    runs = t_end.shape[0]
    if runs == 0:
        raise ValueError("need at least one run")
    if grid is None:
        grid = survival_grid(horizon)
    # min(T, horizon) >= t counts censored runs as alive through the horizon.
    sorted_ends = np.sort(t_end)
    at_risk = runs - np.searchsorted(sorted_ends, grid, side="left")
    return SurvivalCurve(
        times=grid,
        values=at_risk / runs,
        n_at_risk=at_risk.astype(np.int64),
        runs=runs,
        horizon=horizon,
        censored=int((~hit).sum()),
    )


def censored_mean(t_end) -> float:
    """Mean of min(T, horizon); finite by construction."""
    return float(np.mean(np.asarray(t_end, dtype=np.float64)))


def hit_fraction(hit) -> float:
    return float(np.mean(np.asarray(hit, dtype=np.float64)))


# ---------------------------------------------------------------------------
# Tail fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailFit:
    """Straight-line fits of the survival tail in two coordinate systems.

    semilog (log S vs t) linear means a geometric-like, integrable
    tail; loglog (log S vs log t) linear with slope in (-1, 0) means a
    heavy tail whose stopping time has infinite mean.
    """

    window: tuple[int, int]
    n_points: int
    semilog_slope: float
    semilog_r2: float
    loglog_slope: float
    loglog_r2: float
    degenerate: bool

    @property
    def hint(self) -> str:
        if self.degenerate:
            return "degenerate"
        if self.semilog_r2 >= 0.9 and self.semilog_r2 >= self.loglog_r2:
            return "geometric-like"
        if self.loglog_r2 >= 0.9 and -1.0 < self.loglog_slope < 0.0:
            return "heavy-tail"
        return "inconclusive"


def _line_fit(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return float(slope), r2


def _fit_points(curve: SurvivalCurve, lo: int, hi: int) -> np.ndarray:
    """Mask of the grid points a fit over [lo, hi] uses: t > 0 and S(t) > 0."""
    return (curve.times >= lo) & (curve.times <= hi) & (curve.values > 0.0) & (curve.times > 0)


def fit_tail(curve: SurvivalCurve, window: tuple[int, int]) -> TailFit:
    """Fit the survival curve over grid points inside [window[0], window[1]].

    Only strictly positive survival values participate; fewer than
    MIN_FIT_POINTS usable points is a diagnostic error.
    """
    lo, hi = window
    mask = _fit_points(curve, lo, hi)
    t = curve.times[mask].astype(np.float64)
    s = curve.values[mask]
    if t.size < MIN_FIT_POINTS:
        raise ValueError(
            f"tail fit needs >= {MIN_FIT_POINTS} positive points in window {window}, got {t.size}"
        )
    logs = np.log(s)
    if np.all(s == s[0]):
        return TailFit(
            window=(int(lo), int(hi)),
            n_points=int(t.size),
            semilog_slope=0.0,
            semilog_r2=0.0,
            loglog_slope=0.0,
            loglog_r2=0.0,
            degenerate=True,
        )
    semi_slope, semi_r2 = _line_fit(t, logs)
    log_slope, log_r2 = _line_fit(np.log(t), logs)
    return TailFit(
        window=(int(lo), int(hi)),
        n_points=int(t.size),
        semilog_slope=semi_slope,
        semilog_r2=semi_r2,
        loglog_slope=log_slope,
        loglog_r2=log_r2,
        degenerate=False,
    )


def auto_tail_window(curve: SurvivalCurve) -> tuple[int, int] | None:
    """Default fit window: from the survival median crossing to the last
    positive point; None when that leaves too few grid points."""
    pos = curve.times[(curve.values > 0.0) & (curve.times > 0)]
    if pos.size == 0:
        return None
    below = curve.times[(curve.values <= 0.5) & (curve.times > 0)]
    lo = int(below[0]) if below.size else int(pos[0])
    hi = int(pos[-1])
    if int(_fit_points(curve, lo, hi).sum()) < MIN_FIT_POINTS:
        lo = int(pos[0])
        if int(_fit_points(curve, lo, hi).sum()) < MIN_FIT_POINTS:
            return None
    return lo, hi


# ---------------------------------------------------------------------------
# Ensemble driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleSummary:
    runs: int
    horizon: int
    base_seed: int
    hit_fraction: float
    censored_mean: float
    survival: SurvivalCurve
    tail_fit: TailFit | None
    incomplete: bool = False


@dataclass
class EnsembleResult:
    samples: walks.Samples
    summary: EnsembleSummary
    absorb_ok: np.ndarray | None = None


def summarize(samples, horizon: int, base_seed: int, incomplete: bool = False) -> EnsembleSummary:
    t_end, hit = events_from_samples(samples, horizon)
    curve = survival_from_events(t_end, hit, horizon)
    window = auto_tail_window(curve)
    fit = fit_tail(curve, window) if window else None
    return EnsembleSummary(
        runs=len(samples),
        horizon=horizon,
        base_seed=base_seed,
        hit_fraction=hit_fraction(hit),
        censored_mean=censored_mean(t_end),
        survival=curve,
        tail_fit=fit,
        incomplete=incomplete,
    )


def _ensemble_worker(args) -> BatchResult:
    cfg, base_seed, idxs, horizon, extra = args
    return run_batch(cfg, base_seed, idxs, horizon, extra_after_hit=extra)


def _settle(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as err:  # reported per chunk by run_ensemble
        return err


def _assemble(results, horizon, base_seed, extra_after_hit, incomplete=False) -> EnsembleResult:
    samples = walks.Samples.concat([r.samples for r in results])
    absorb = None
    if extra_after_hit:
        absorb = np.concatenate([r.absorb_ok for r in results])
    return EnsembleResult(
        samples=samples,
        summary=summarize(samples, horizon, base_seed, incomplete=incomplete),
        absorb_ok=absorb,
    )


def run_ensemble(
    cfg: ModelConfig,
    runs: int,
    horizon: int,
    base_seed: int,
    workers: int = 1,
    extra_after_hit: int = 0,
) -> EnsembleResult:
    """M independent runs, distributable over worker processes.

    The runs are split into max(workers, ceil(runs / width)) chunks of
    at most width = max(1, walks._CHUNK_ELEMS // n^2) runs, each one
    run_batch call.  The per-run noise streams are counter-based, so
    the samples are bit-identical for every worker count and chunking.
    When a chunk raises, EnsembleError names its runs and carries the
    chunks that completed as ``partial`` (None when none did).
    """
    if runs < 1:
        raise ValueError("need at least one run")
    indices = np.arange(runs, dtype=np.int64)
    width = max(1, walks._CHUNK_ELEMS // cfg.n**2)
    parts = max(1, workers, math.ceil(runs / width))
    chunks = [c for c in np.array_split(indices, parts) if c.size]
    jobs = [(cfg, base_seed, c, horizon, extra_after_hit) for c in chunks]
    if workers <= 1 or len(jobs) == 1:
        outcomes = [_settle(_ensemble_worker, job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_ensemble_worker, job) for job in jobs]
            outcomes = [_settle(f.result) for f in futures]
    done = [r for r in outcomes if isinstance(r, BatchResult)]
    if len(done) == len(outcomes):
        return _assemble(done, horizon, base_seed, extra_after_hit)
    partial = _assemble(done, horizon, base_seed, extra_after_hit, incomplete=True) if done else None
    failed = [(c, r) for c, r in zip(chunks, outcomes) if not isinstance(r, BatchResult)]
    missing = ", ".join(f"{c[0]}-{c[-1]}" for c, _ in failed)
    err = failed[0][1]
    raise EnsembleError(f"ensemble aborted, runs {missing} missing: {err}", partial=partial) from err


@dataclass(frozen=True)
class GrowthPoint:
    horizon: int
    censored_mean: float
    hit_fraction: float


def censored_mean_growth(samples, horizons) -> list[GrowthPoint]:
    """Censored means at several horizons from one long ensemble.

    The samples must come from a run at max(horizons); smaller-horizon
    statistics are exact because runs extend rather than resample.
    """
    out = []
    for h in sorted(horizons):
        t_end, hit = events_from_samples(samples, h)
        out.append(GrowthPoint(int(h), censored_mean(t_end), hit_fraction(hit)))
    return out
