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

Every censored hitting time in hklab, the HK runs of the engine
included, is reported in Samples: a column per run field plus the
shared horizon and base_seed, read as a sequence of HittingSample
rows.  The oracles here and the projected recursion's T_D share one
chunked loop, _censored_hitting: each supplies only its per-chunk step
math, and the loop owns the keys, the chunking, the compaction of
stopped runs and the bookkeeping.
Its chunks double from one step, so a run stopping at step T has noise
drawn through step 2T - 1 at most.  Loops over a fixed set of runs
(recurrence profiles, projected trajectories) take full-budget chunks.
The hitting loop and the recurrence profile draw and advance a chunk
one tile of runs at a time (_advance_tiles), a tile holding about
_TILE_ELEMS stream units, so a walk holds one tile of draws, not one
chunk; the recursions that step one at a time (stretched walk,
projected T_D) take each chunk as one tile.  Walks carry their sum
across chunks (_walk_from), so no sample depends on chunk lengths, on
tile sizes or on which runs share a call.

first_passage_below, recurrence_profile and the config loader all check
validate_walk_run, so a walk config that loads is one that runs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import sq_norm_last
from .noise import NoiseSpec, noise_block, uniforms_per_draw, validate_noise_spec
from .prng import run_keys

# Stream units (uniforms, or bits for sign noise) in one noise chunk of
# every chunked loop: the engine, the walks and the projected recursion.
# 2M units bound the engine's chunk to 16 MB of uniforms, or of sign
# draws beside their 2 MB of bits; the walks draw a chunk by tiles.
_CHUNK_ELEMS = 2_000_000

# Stream units in one tile of a walk chunk: 512 KB of uniforms, so a
# tile's draws and the walk's passes over them stay in a 2 MB L2 cache.
_TILE_ELEMS = 1 << 16

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


@dataclass(frozen=True, eq=False)
class Samples(Sequence):
    """Hitting samples of many runs, held as one column per field.

    run_index, hit, t_hit and end_value are equal-length int64, bool,
    int64 and float64 arrays; horizon and base_seed are shared.  It
    reads as a sequence of HittingSample rows: indexing, iteration and
    == against any sequence of rows build them on demand, while
    ensemble and output read the columns.
    """

    run_index: np.ndarray
    hit: np.ndarray
    t_hit: np.ndarray
    end_value: np.ndarray
    horizon: int
    base_seed: int

    @classmethod
    def concat(cls, parts) -> "Samples":
        """The rows of a non-empty list of Samples, in order."""
        return cls(
            *(np.concatenate([getattr(p, name) for p in parts]) for name in _COLUMNS),
            parts[0].horizon,
            parts[0].base_seed,
        )

    def __len__(self) -> int:
        return self.run_index.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            columns = (getattr(self, name)[i] for name in _COLUMNS)
            return Samples(*columns, self.horizon, self.base_seed)
        return HittingSample(
            int(self.run_index[i]),
            bool(self.hit[i]),
            int(self.t_hit[i]),
            self.horizon,
            float(self.end_value[i]),
            self.base_seed,
        )

    def __iter__(self):
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        for r, h, t, v in zip(*columns):
            yield HittingSample(r, h, t, self.horizon, v, self.base_seed)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


_COLUMNS = ("run_index", "hit", "t_hit", "end_value")


def _samples(run_indices, hit, t_hit, end_value, horizon: int, base_seed: int) -> Samples:
    """Samples from per-run arrays of equal length."""
    return Samples(
        np.asarray(run_indices, dtype=np.int64),
        np.asarray(hit, dtype=bool),
        np.asarray(t_hit, dtype=np.int64),
        np.asarray(end_value, dtype=np.float64),
        horizon,
        base_seed,
    )


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


def validate_walk_run(kind: str, spec, threshold: float = 0.0, ball_radius: float = 1.0):
    """validate_walk_spec's problems plus those of the kind's run: a first
    passage needs dim 1 and threshold <= 0, a recurrence ball_radius >= 0."""
    out = validate_walk_spec(spec)
    if kind == "first_passage":
        if spec.dim > 1:
            out.append(f"dim is {spec.dim}; a first passage is defined for dim 1")
        if threshold > 0.0:
            out.append(f"threshold b must be <= 0 for a first passage, got {threshold}")
    if kind == "recurrence" and ball_radius < 0.0:
        out.append(f"ball_radius must be >= 0, got {ball_radius}")
    return out


def _require(problems: list[str]) -> None:
    """Raise one ValueError listing every problem, if there are any."""
    if problems:
        raise ValueError("; ".join(problems))


def _chunk_steps(active: int, n: int, w: int, remaining: int) -> int:
    per_step = max(1, active) * n * w
    return max(1, min(remaining, _CHUNK_ELEMS // per_step or 1))


def _steps_block(step: NoiseSpec, keys, t0: int, nsteps: int, n: int, d: int):
    ts = np.arange(t0 + 1, t0 + nsteps + 1, dtype=np.uint64)
    return noise_block(step, keys, ts, n, d)


def _tile_runs(nsteps: int, n: int, w: int) -> int:
    """Runs in one tile of a chunk of nsteps steps: about _TILE_ELEMS units."""
    return max(1, _TILE_ELEMS // (nsteps * n * w))


def _advance_tiles(noise: NoiseSpec, keys, t0, nsteps, n, d, state, advance, per: int):
    """advance(state, xi, t0) over one chunk, drawn per tile of per runs.

    Each tile of consecutive runs gets the noise xi of steps
    t0+1..t0+nsteps, shape (tile, nsteps, n, d), and the rows of state
    for those runs.  Every output of advance has one row per run; the
    rows of all tiles are joined into new arrays, so no tile's draws
    outlive its advance.
    """
    runs = keys.shape[0]
    joined = None
    for lo in range(0, runs, per):
        xi = _steps_block(noise, keys[lo : lo + per], t0, nsteps, n, d)
        parts = advance(state[lo : lo + per], xi, t0)
        if joined is None:
            joined = [np.empty((runs,) + p.shape[1:], p.dtype) for p in parts]
        for out, part in zip(joined, parts):
            out[lo : lo + per] = part
        del xi, parts
    return joined


def _walk_from(start, steps):
    """start + steps[:, 0] + ... + steps[:, k] for every k, in place of steps.

    Added left to right from start, not start + cumsum(steps), so every
    partial sum is that of one long walk wherever a chunk begins.
    """
    steps[:, 0] += start
    return np.cumsum(steps, axis=1, out=steps)


def _sq_norm_into(x: np.ndarray) -> np.ndarray:
    """sq_norm_last(x), bit for bit, computed in x's memory; x is consumed.

    Returns a view of x[..., 0].  Spares a walk chunk's norms their own
    array where the walk itself is not read again.
    """
    np.square(x, out=x)
    for k in range(1, x.shape[-1]):
        x[..., 0] += x[..., k]
    return x[..., 0]


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


def _censored_hitting(
    noise, n, dim, start, advance, end_stat, base_seed, run_indices, horizon, tiled=True
):
    """Hitting samples of runs that all start from the state start.

    Runs advance in chunks of steps: one step first, then each chunk at
    most one step longer than all before it together (1, 2, 4, 8, ...),
    until the noise budget of _chunk_steps caps it.  A run that stops
    at step T is drawn through step 2T - 1 at most.  advance must not
    depend on the chunk boundaries or on which runs share a call: a
    walk carries its sum with _walk_from, a recursion steps with
    _step_each.  A chunk is drawn and advanced by tiles of _tile_runs
    runs; untiled, as one tile, for a recursion, whose per-step Python
    loop each tile would repeat.

    advance(state, xi, t0) receives the states of the runs still going
    and their noise xi, shape (A, B, n, dim), for steps t0+1..t0+B.  Per
    row it returns the chunk index of the step the run stopped at (-1
    if it did not), a hit flag, the statistic at the stop, and the state
    at the chunk end.  A run that stopped without a hit escaped: it is
    censored with end_value inf.  Runs still going at the horizon end
    with end_stat(state).
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
        nsteps = min(t0 + 1, _chunk_steps(alive.size, n, w, horizon - t0))
        per = _tile_runs(nsteps, n, w) if tiled else alive.size
        stop, got, value, state = _advance_tiles(
            noise, keys[alive], t0, nsteps, n, dim, state, advance, per
        )
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
) -> Samples:
    """T = inf{t >= 1 : U(t) <= b}, censored at the horizon.

    For a zero-mean nondegenerate step the stopping time is almost
    surely finite but has infinite mean; the survival tail decays like
    t^(-1/2), which is what the censored-mean diagnostics lean on.
    """
    _require(validate_walk_run("first_passage", spec, threshold=b))

    def advance(u, xi, t0):
        path = _walk_from(u, xi[:, :, 0, 0])
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
) -> Samples:
    """T1 = inf{t >= 1 : S(t) <= 0} for S(1) = xi(1), S(t+1) = beta*S(t) + clip(xi, +-M).

    The first value is the raw noise draw; clipping applies from the
    second step on.  When beta > 1 a run with S*(beta - 1) > M can
    never come back below zero, so it is censored immediately with
    end_value = inf instead of iterating out an astronomically large
    float to the horizon.
    """
    _require(validate_walk_spec(spec))
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
        spec.step, 1, 1, 0.0, advance, lambda s: s, base_seed, run_indices, horizon, tiled=False
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
    _require(validate_walk_run("recurrence", spec, ball_radius=ball_radius))
    horizons = np.asarray(sorted(set(int(h) for h in horizons)), dtype=np.int64)
    if horizons.size == 0 or horizons[0] < 0:
        raise ValueError("need nonnegative horizons")
    run_indices = np.asarray(run_indices, dtype=np.int64)
    runs = run_indices.shape[0]
    keys = run_keys(base_seed, run_indices)
    d = spec.dim
    w = uniforms_per_draw(spec.step.family, d)
    r2 = ball_radius * ball_radius

    def advance(u, xi, t0):
        path = _walk_from(u, xi[:, :, 0, :])
        # A copy: the norms overwrite the path.
        u_end = path[:, -1, :].copy()
        return u_end, (_sq_norm_into(path) <= r2).sum(axis=1)

    u = np.broadcast_to(spec.start_point(), (runs, d)).copy()
    counts = np.zeros(runs, dtype=np.int64)
    counts += sq_norm_last(u) <= r2  # t=0 visit
    visits = np.zeros((runs, horizons.size), dtype=np.int64)
    end_norm = np.zeros(horizons.size, dtype=np.float64)

    t0 = 0
    for hk, h in enumerate(horizons):
        while t0 < h:
            nsteps = _chunk_steps(runs, 1, w, int(h) - t0)
            u, inside = _advance_tiles(
                spec.step, keys, t0, nsteps, 1, d, u, advance, _tile_runs(nsteps, 1, w)
            )
            counts += inside
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


def _over_agents(ufunc, noise: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """ufunc folded over agents lo..hi-1 of noise (..., n, d) in ascending order.

    One agent slice at a time, which is far cheaper than numpy's strided
    reduction over the agent axis.
    """
    total = noise[..., lo, :].copy()
    for i in range(lo + 1, hi):
        ufunc(total, noise[..., i, :], out=total)
    return total


def _group_mean(noise: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Mean of agents lo..hi-1 of noise (..., n, d), added in ascending order.

    Equals noise[..., lo:hi, :].mean(axis=-2) bit for bit wherever numpy
    adds in that order too: groups of up to 16 agents at d = 2 and 3, and
    of up to 7 at d = 1, where numpy adds 8 or more contiguous terms
    pairwise.
    """
    total = _over_agents(np.add, noise, lo, hi)
    total /= hi - lo
    return total


def _cluster_y(noise: np.ndarray, n1: int) -> np.ndarray:
    """Difference of group-mean noises; norm is at most 2*delta."""
    y = _group_mean(noise, 0, n1)
    y -= _group_mean(noise, n1, noise.shape[-2])
    return y


def cluster_gap_walk(
    spec: ClusterWalkSpec,
    gap0,
    base_seed: int,
    run_indices,
    horizon: int,
    threshold: float = 0.0,
    radius: float | None = None,
) -> Samples:
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
    _require(validate_walk_spec(spec))
    gap0 = np.atleast_1d(np.asarray(gap0, dtype=np.float64))
    if gap0.shape != (spec.dim,):
        raise ValueError(f"gap0 must have {spec.dim} coordinates")
    if radius is None and spec.dim != 1:
        raise ValueError("the Q_min variant is scalar; pass radius for dim >= 2")
    n1 = spec.n1
    r2 = None if radius is None else float(radius) * float(radius)

    def advance(z, xi, t0):
        zpath = _walk_from(z, _cluster_y(xi, n1))
        if radius is None:
            zprev = np.concatenate([z[:, None, :], zpath[:, :-1, :]], axis=1)
            # Min and max are exact, so slices give numpy's reductions.
            qmin = gap0[0] + zprev[:, :, 0]
            qmin += _over_agents(np.minimum, xi, 0, n1)[:, :, 0]
            qmin -= _over_agents(np.maximum, xi, n1, xi.shape[2])[:, :, 0]
            return (*_first_hit(qmin <= threshold, qmin), zpath[:, -1, :])
        z_end = zpath[:, -1, :].copy()
        zpath += gap0
        d2 = _sq_norm_into(zpath)
        stop, got, d2_stop = _first_hit(d2 <= r2, d2)
        return stop, got, np.sqrt(d2_stop), z_end

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
