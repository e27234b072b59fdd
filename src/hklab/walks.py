"""Random-walk reductions used as oracles for the two-cluster regime.

Three families live here:

* plain first passage of a one-dimensional walk below a level,
* the stretched walk S(1) = xi(1), S(t+1) = g(S(t)) + h(xi(t+1)) with
  expanding g and bounded h,
* the cluster-gap walk: with two internally cohesive, mutually blind
  groups of sizes n1 and n2, the inter-group gap evolves as
  gap(t) = gap(0) + Z(t) with Z(t) the cumulative difference of
  group-mean noises, and the closest cross pair at step t sits at
  Q_min(t) = gap(0) + Z(t-1) + min_{i in group 1} xi_i(t)
  - max_{j in group 2} xi_j(t) (scalar case, group 1 above group 2).

Walks draw from the same counter-based streams as the simulation
engine, so a cluster-gap walk with matching sizes, dimension, noise
family, and (base_seed, run_index) consumes bit-identical noise to the
corresponding two-cluster simulation run.  That is what makes coupled
sample-by-sample comparisons meaningful.

Every censored hitting time in hklab is reported as a HittingSample,
the HK runs of the engine included.  The oracles here and the
projected recursion's T_D share one chunked loop, _censored_hitting:
each supplies only its per-chunk step math, and the loop owns the
keys, the chunking, the compaction of stopped runs and the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import sq_norm_last
from .noise import NoiseSpec, noise_block, uniforms_per_draw, validate_noise_spec
from .prng import run_keys

# Uniforms in one pre-generated noise chunk for every chunked loop: the
# engine, the walks and the projected recursion.  2M uniforms (16 MB)
# bound a chunk's transient memory.
_CHUNK_ELEMS = 2_000_000

# d=1 steps of exactly +-1: the axis-sign family scales by delta/sqrt(d) = 1.
SIMPLE_STEP = NoiseSpec(family="rademacher_axes", delta=1.0)


@dataclass(frozen=True, slots=True)
class HittingSample:
    """One run of a hitting-time experiment, censored at the horizon.

    A censored run has hit False and t_hit = horizon.  end_value is the
    triggering statistic at the hitting step, or its value at the
    horizon for censored runs: d_V for HK runs, the oracle's statistic
    otherwise (inf when a stretched walk escaped past its point of no
    return).
    """

    run_index: int
    hit: bool
    t_hit: int
    horizon: int
    end_value: float
    base_seed: int

    @property
    def t_end(self) -> int:
        return self.t_hit if self.hit else self.horizon

    @property
    def d_v_at_end(self) -> float:
        """end_value under its former HK name.

        Exists only because hkbench/workloads.py reads this name on HK
        samples; read end_value instead.
        """
        return self.end_value


def _samples(run_indices, hit, t_hit, end_value, horizon: int, base_seed: int):
    """One HittingSample per run from per-run arrays of equal length."""
    columns = zip(
        np.asarray(run_indices, dtype=np.int64).tolist(),
        np.asarray(hit, dtype=bool).tolist(),
        np.asarray(t_hit, dtype=np.int64).tolist(),
        np.asarray(end_value, dtype=np.float64).tolist(),
    )
    return [HittingSample(r, h, t, horizon, v, base_seed) for r, h, t, v in columns]


@dataclass(frozen=True)
class WalkSpec:
    """U(t) = start + sum of i.i.d. steps drawn from `step`."""

    dim: int
    step: NoiseSpec = SIMPLE_STEP
    start: tuple = ()

    def start_point(self) -> np.ndarray:
        if not self.start:
            return np.zeros(self.dim)
        return np.asarray(self.start, dtype=np.float64)


@dataclass(frozen=True)
class StretchedWalkSpec:
    """Scalar walk with g(x) = beta*x and h(x) = x clipped to [-M, M]."""

    beta: float
    bound_m: float
    step: NoiseSpec = SIMPLE_STEP


@dataclass(frozen=True)
class ClusterWalkSpec:
    """Group sizes and per-agent noise for the gap walk."""

    n1: int
    n2: int
    noise: NoiseSpec
    dim: int


def validate_walk_spec(spec) -> list[str]:
    out = []
    if isinstance(spec, WalkSpec):
        if spec.dim < 1:
            out.append("dim must be >= 1")
        if spec.start and len(spec.start) != spec.dim:
            out.append(f"start has {len(spec.start)} coordinates, dim is {spec.dim}")
        out.extend(validate_noise_spec(spec.step))
    elif isinstance(spec, StretchedWalkSpec):
        if spec.beta <= 0.0:
            out.append("beta must be positive (sign-preserving stretch)")
        if spec.bound_m <= 0.0:
            out.append("bound_m must be positive")
        out.extend(validate_noise_spec(spec.step))
    elif isinstance(spec, ClusterWalkSpec):
        if spec.n1 < 1 or spec.n2 < 1:
            out.append("group sizes must be >= 1")
        if spec.dim < 1:
            out.append("dim must be >= 1")
        out.extend(validate_noise_spec(spec.noise))
    else:
        out.append(f"unknown spec type {type(spec).__name__}")
    return out


def _require_valid(spec) -> None:
    bad = validate_walk_spec(spec)
    if bad:
        raise ValueError("; ".join(bad))


def _chunk_steps(active: int, n: int, w: int, remaining: int) -> int:
    per_step = max(1, active) * n * w
    return max(1, min(remaining, _CHUNK_ELEMS // per_step or 1))


def _steps_block(step: NoiseSpec, keys, t0: int, nsteps: int, n: int, d: int):
    ts = np.arange(t0 + 1, t0 + nsteps + 1, dtype=np.uint64)
    return noise_block(step, keys, ts, n, d)


def _first_hit(hits: np.ndarray, stat: np.ndarray):
    """(stop, hit, stat at stop) per row of an (A, B) hit mask; stop is -1 without a hit."""
    got = hits.any(axis=1)
    first = np.argmax(hits, axis=1)
    return np.where(got, first, -1), got, stat[np.arange(first.size), first]


def _step_each(state, xi, t0, step, stops):
    """Stop step and end state of a recursion advanced one step at a time.

    step(state, xi[:, k], t) gives the states at step t = t0 + k + 1,
    and stops(state) flags the rows that stop there.  A stopped row
    keeps its state at the stop; the stop is -1 for rows still going.
    """
    stop = np.full(state.shape[0], -1)
    running = np.ones(state.shape[0], dtype=bool)
    for k in range(xi.shape[1]):
        new = step(state, xi[:, k], t0 + k + 1)
        state = np.where(running.reshape((-1,) + (1,) * (state.ndim - 1)), new, state)
        done = running & stops(state)
        if done.any():
            stop[done] = k
            running &= ~done
            if not running.any():
                break
    return stop, state


def _censored_hitting(noise, n, dim, start, advance, end_stat, base_seed, run_indices, horizon):
    """Hitting samples of runs that all start from the state start.

    Runs advance in chunks of steps.  advance(state, xi, t0) receives
    the states of the runs still going and their noise xi, shape
    (A, B, n, dim), for steps t0+1..t0+B.  Per row it returns the
    chunk index of the step the run stopped at (-1 if it did not), a
    hit flag, the statistic at the stop, and the state at the chunk
    end.  A run that stopped without a hit escaped: it is censored with
    end_value inf.  Runs still going at the horizon end with
    end_stat(state).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    run_indices = np.asarray(run_indices, dtype=np.int64)
    runs = run_indices.shape[0]
    keys = run_keys(base_seed, run_indices)
    w = uniforms_per_draw(noise.family, dim)

    hit = np.zeros(runs, dtype=bool)
    t_hit = np.full(runs, horizon, dtype=np.int64)
    end_value = np.zeros(runs, dtype=np.float64)
    alive = np.arange(runs, dtype=np.int64)
    state = np.broadcast_to(start, (runs,) + np.shape(start)).copy()
    t0 = 0
    while alive.size and t0 < horizon:
        nsteps = _chunk_steps(alive.size, n, w, horizon - t0)
        xi = _steps_block(noise, keys[alive], t0, nsteps, n, dim)
        stop, got, value, state = advance(state, xi, t0)
        stopped = stop >= 0
        hit[alive[got]] = True
        t_hit[alive[got]] = t0 + stop[got] + 1
        end_value[alive[stopped]] = np.where(got, value, np.inf)[stopped]
        alive = alive[~stopped]
        state = state[~stopped]
        t0 += nsteps
    if alive.size:
        end_value[alive] = end_stat(state)
    return _samples(run_indices, hit, t_hit, end_value, horizon, base_seed)


# ---------------------------------------------------------------------------
# First passage below a level (scalar walk)
# ---------------------------------------------------------------------------


def first_passage_below(
    spec: WalkSpec,
    b: float,
    base_seed: int,
    run_indices,
    horizon: int,
) -> list[HittingSample]:
    """T = inf{t >= 1 : U(t) <= b}, censored at the horizon.

    For a zero-mean nondegenerate step the stopping time is almost
    surely finite but has infinite mean; the survival tail decays like
    t^(-1/2), which is what the censored-mean diagnostics lean on.
    """
    _require_valid(spec)
    if spec.dim != 1:
        raise ValueError("first_passage_below is defined for dim 1")
    if b > 0.0:
        raise ValueError("level b must be <= 0")

    def advance(u, xi, t0):
        path = u[:, None] + np.cumsum(xi[:, :, 0, 0], axis=1)
        return (*_first_hit(path <= b, path), path[:, -1])

    start = float(spec.start_point()[0])
    return _censored_hitting(
        spec.step, 1, 1, start, advance, lambda u: u, base_seed, run_indices, horizon
    )


# ---------------------------------------------------------------------------
# Stretched walk
# ---------------------------------------------------------------------------


def stretched_first_passage(
    spec: StretchedWalkSpec,
    base_seed: int,
    run_indices,
    horizon: int,
) -> list[HittingSample]:
    """T1 = inf{t >= 1 : S(t) <= 0} for S(1) = xi(1), S(t+1) = beta*S(t) + clip(xi, +-M).

    The first value is the raw noise draw; clipping applies from the
    second step on.  When beta > 1 a run with S*(beta - 1) > M can
    never come back below zero, so it is censored immediately with
    end_value = inf instead of iterating out an astronomically large
    float to the horizon.
    """
    _require_valid(spec)
    beta = float(spec.beta)
    m = float(spec.bound_m)

    def step(s, xi, t):
        return xi[:, 0, 0] if t == 1 else beta * s + np.clip(xi[:, 0, 0], -m, m)

    def stops(s):
        # A hit, or an escape: once S*(beta - 1) > M (possible only for
        # beta > 1), S never comes back below zero.
        return (s <= 0.0) | (s * (beta - 1.0) > m)

    def advance(s, xi, t0):
        stop, s = _step_each(s, xi, t0, step, stops)
        # A stopped run sits at its stop: a hit at or below 0, an escape above.
        return stop, (stop >= 0) & (s <= 0.0), s, s

    return _censored_hitting(
        spec.step, 1, 1, 0.0, advance, lambda s: s, base_seed, run_indices, horizon
    )


# ---------------------------------------------------------------------------
# Recurrence profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceProfile:
    """Visit counts to the ball of radius ball_radius, per horizon.

    All horizons come from one pass, so longer-horizon counts extend
    the shorter ones run by run; mean_visits is nondecreasing by
    construction.  scaled_end_norm is mean ||U(h)|| / sqrt(h).
    """

    horizons: np.ndarray
    ball_radius: float
    runs: int
    visits: np.ndarray  # (runs, len(horizons)) counts including t=0
    mean_visits: np.ndarray
    scaled_end_norm: np.ndarray


def recurrence_profile(
    spec: WalkSpec,
    ball_radius: float,
    horizons,
    base_seed: int,
    run_indices,
) -> RecurrenceProfile:
    _require_valid(spec)
    if ball_radius < 0.0:
        raise ValueError("ball_radius must be nonnegative")
    horizons = np.asarray(sorted(set(int(h) for h in horizons)), dtype=np.int64)
    if horizons.size == 0 or horizons[0] < 0:
        raise ValueError("need nonnegative horizons")
    run_indices = np.asarray(run_indices, dtype=np.int64)
    runs = run_indices.shape[0]
    keys = run_keys(base_seed, run_indices)
    d = spec.dim
    w = uniforms_per_draw(spec.step.family, d)
    r2 = ball_radius * ball_radius

    u = np.broadcast_to(spec.start_point(), (runs, d)).copy()
    counts = np.zeros(runs, dtype=np.int64)
    counts += sq_norm_last(u) <= r2  # t=0 visit
    visits = np.zeros((runs, horizons.size), dtype=np.int64)
    end_norm = np.zeros(horizons.size, dtype=np.float64)

    t0 = 0
    for hk, h in enumerate(horizons):
        while t0 < h:
            nsteps = _chunk_steps(runs, 1, w, int(h) - t0)
            xi = _steps_block(spec.step, keys, t0, nsteps, 1, d)[:, :, 0, :]
            path = u[:, None, :] + np.cumsum(xi, axis=1)
            counts += (sq_norm_last(path) <= r2).sum(axis=1)
            u = path[:, -1, :]
            t0 += nsteps
        visits[:, hk] = counts
        end_norm[hk] = (
            float(np.mean(np.sqrt(sq_norm_last(u)))) / np.sqrt(h) if h > 0 else np.nan
        )
    return RecurrenceProfile(
        horizons=horizons,
        ball_radius=float(ball_radius),
        runs=runs,
        visits=visits,
        mean_visits=visits.mean(axis=0),
        scaled_end_norm=end_norm,
    )


# ---------------------------------------------------------------------------
# Cluster-gap walk
# ---------------------------------------------------------------------------


def _cluster_y(noise: np.ndarray, n1: int) -> np.ndarray:
    """Difference of group-mean noises; norm is at most 2*delta."""
    return noise[..., :n1, :].mean(axis=-2) - noise[..., n1:, :].mean(axis=-2)


def cluster_gap_walk(
    spec: ClusterWalkSpec,
    gap0,
    base_seed: int,
    run_indices,
    horizon: int,
    threshold: float = 0.0,
    radius: float | None = None,
) -> list[HittingSample]:
    """Hitting time of the inter-group gap walk.

    Scalar variant (dim 1, radius None): T_Q = first t >= 1 with
    Q_min(t) = gap0 + Z(t-1) + min(group-1 noises) - max(group-2
    noises) <= threshold.  The default threshold 0 is the crossing used
    in the infinite-mean argument; threshold = epsilon gives the
    first-contact bound that the simulated quasi-synchronization time
    dominates sample by sample on shared streams.

    Ball variant (radius given, any dim): first t >= 1 with
    ||gap0 + Z(t)|| <= radius, the transience diagnostic for d >= 3.
    """
    _require_valid(spec)
    gap0 = np.atleast_1d(np.asarray(gap0, dtype=np.float64))
    if gap0.shape != (spec.dim,):
        raise ValueError(f"gap0 must have {spec.dim} coordinates")
    if radius is None and spec.dim != 1:
        raise ValueError("the Q_min variant is scalar; pass radius for dim >= 2")
    n1 = spec.n1
    r2 = None if radius is None else float(radius) * float(radius)

    def advance(z, xi, t0):
        zpath = z[:, None, :] + np.cumsum(_cluster_y(xi, n1), axis=1)
        if radius is None:
            zprev = np.concatenate([z[:, None, :], zpath[:, :-1, :]], axis=1)
            qmin = (
                gap0[0]
                + zprev[:, :, 0]
                + xi[:, :, :n1, 0].min(axis=2)
                - xi[:, :, n1:, 0].max(axis=2)
            )
            return (*_first_hit(qmin <= threshold, qmin), zpath[:, -1, :])
        d2 = sq_norm_last(gap0 + zpath)
        stop, got, d2_stop = _first_hit(d2 <= r2, d2)
        return stop, got, np.sqrt(d2_stop), zpath[:, -1, :]

    return _censored_hitting(
        spec.noise,
        spec.n1 + spec.n2,
        spec.dim,
        np.zeros(spec.dim),
        advance,
        lambda z: np.sqrt(sq_norm_last(gap0 + z)),
        base_seed,
        run_indices,
        horizon,
    )


def cluster_gap_path(
    spec: ClusterWalkSpec,
    base_seed: int,
    run_index: int,
    horizon: int,
):
    """(y, Z) for one run: y has shape (horizon, dim), Z has Z[0] = 0."""
    _require_valid(spec)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    keys = run_keys(base_seed, np.asarray([run_index], dtype=np.int64))
    n = spec.n1 + spec.n2
    y = np.zeros((horizon, spec.dim), dtype=np.float64)
    w = uniforms_per_draw(spec.noise.family, spec.dim)
    t0 = 0
    while t0 < horizon:
        nsteps = _chunk_steps(1, n, w, horizon - t0)
        xi = _steps_block(spec.noise, keys, t0, nsteps, n, spec.dim)
        y[t0 : t0 + nsteps] = _cluster_y(xi, spec.n1)[0]
        t0 += nsteps
    z = np.vstack([np.zeros((1, spec.dim)), np.cumsum(y, axis=0)])
    return y, z


def cluster_gap_endpoints(
    spec: ClusterWalkSpec,
    t: int,
    base_seed: int,
    run_indices,
) -> np.ndarray:
    """Z(t) across runs, shape (runs, dim); for distribution checks."""
    _require_valid(spec)
    if t < 0:
        raise ValueError("t must be >= 0")
    run_indices = np.asarray(run_indices, dtype=np.int64)
    keys = run_keys(base_seed, run_indices)
    n = spec.n1 + spec.n2
    w = uniforms_per_draw(spec.noise.family, spec.dim)
    z = np.zeros((run_indices.shape[0], spec.dim), dtype=np.float64)
    t0 = 0
    while t0 < t:
        nsteps = _chunk_steps(run_indices.shape[0], n, w, t - t0)
        xi = _steps_block(spec.noise, keys, t0, nsteps, n, spec.dim)
        z += _cluster_y(xi, spec.n1).sum(axis=1)
        t0 += nsteps
    return z
