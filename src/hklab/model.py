"""Synchronous bounded-confidence averaging with additive bounded noise.

States are (n, d) float64 arrays, one row per agent.  Two agents are
neighbors when their Euclidean distance is at most epsilon (non-strict,
so each agent is its own neighbor).  One step replaces every row by the
mean of its neighbor rows plus a noise row; in bounded mode the result
is clamped coordinatewise to [-1, 1] after the noise is added.

The distance is one expression on every path: per coordinate subtract
and square, then add the coordinates in order (sq_norm_last adds in the
same order).  It depends only on differences, so translated states
reach the same threshold decisions, and all paths reach bit-identical
accept/reject decisions.

The lockstep kernel (pairwise_sq_dists on runs-last views, then
runs_last_sums) serves the engine's lockstep batches, hk_step (one run),
the projected hk_mean map and, with blocks of agents in place of runs,
neighbors.NeighborIndex.  It holds runs on the last axis, (n, d, A),
and adds each agent's neighbor rows in ascending agent order, whatever
BLAS numpy is linked against, so a run's sums do not depend on how
many runs share the batch or on which path steps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseSpec, validate_noise_spec
from .prng import run_keys, uniforms_at

BOX_LO = -1.0
BOX_HI = 1.0

SPACE_MODES = ("bounded", "unbounded")

INITIAL_KINDS = ("explicit", "uniform_box", "two_cluster")

# Minimum centroid separation (in epsilon units, minus the 2*delta slack)
# for the separated-subgroup construction to start truly split.
_SQRT2 = np.sqrt(2.0)


def sq_norm_last(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm along the last axis, coordinates added in order."""
    out = np.square(v[..., 0])
    for k in range(1, v.shape[-1]):
        out += np.square(v[..., k])
    return out


def pairwise_sq_dists(
    x: np.ndarray,
    y: np.ndarray | None = None,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """Squared distances between rows: (..., p, d) x (..., q, d) -> (..., p, q).

    y defaults to x.  Per coordinate the rows are subtracted and the
    difference squared; the coordinates are added in order into ``out``
    when given.  Entry [i, j] therefore equals sq_norm_last(x[i] - y[j])
    bit for bit, for every d and every memory layout.

    ``tmp`` is a scratch buffer of the result's shape for d >= 2.  A
    given buffer is filled with x[i] across j and y[j] subtracted in
    place: on the cache-sized runs-last buffers of the lockstep batch
    and of the neighbor index's chunks numpy runs that pair faster than
    one broadcasting subtraction.  Without a buffer the subtraction
    allocates it.
    """
    xs = x[..., :, None, :]
    ys = (x if y is None else y)[..., None, :, :]

    def sq_diff(k, buf):
        if buf is None:
            buf = np.subtract(xs[..., k], ys[..., k])
        else:
            np.copyto(buf, xs[..., k])
            buf -= ys[..., k]
        return np.square(buf, out=buf)

    out = sq_diff(0, out)
    for k in range(1, x.shape[-1]):
        tmp = sq_diff(k, tmp)
        out += tmp
    return out


def runs_last_sums(x: np.ndarray, d2: np.ndarray, epsilon: float, out=None, prod=None, deg=None):
    """Neighbor sums (K, d, A) and counts (K, A) of runs-last states.

    d2 (C, K, A) holds the squared distances between x's C rows (C, d,
    A) and K agents, from pairwise_sq_dists, and is overwritten by the
    0/1 adjacency d2 <= epsilon^2.  sums[i, c, a] is the reduce over
    the outermost axis j of adj[j, i, a] * x[j, c, a].  numpy reduces
    an outer axis one slice at a time, which adds the terms in
    ascending j when K A > 1; over a lone contiguous axis it would add
    pairwise from length 8 on.  A non-neighbor adds an exact zero, so
    rows that hold agent i's neighbors in ascending order give the sum
    over all n.  Counts are exact.  ``prod``, one C-contiguous (C, K,
    A) buffer, is reused for each coordinate, filled with x[j] across
    i and multiplied in place; a step's mean is sums / deg[:, None].
    """
    adj = np.less_equal(d2, epsilon * epsilon, out=d2)
    deg = np.add.reduce(adj, axis=0, out=deg)
    if out is None:
        out = np.empty((adj.shape[1],) + x.shape[1:])
    if prod is None:
        prod = np.empty(adj.shape)
    for c in range(x.shape[1]):
        np.copyto(prod, x[:, None, c])
        prod *= adj
        np.add.reduce(prod, axis=0, out=out[:, c])
    return out, deg


def neighbor_set(states: np.ndarray, i: int, epsilon: float) -> np.ndarray:
    """Indices j with ||x_j - x_i|| <= epsilon, ascending; always contains i."""
    d2 = pairwise_sq_dists(states[i : i + 1], states)[0]
    return np.flatnonzero(d2 <= epsilon * epsilon)


def max_pairwise_distance(states: np.ndarray) -> float:
    """Largest pairwise distance d_V; 0.0 for a single agent."""
    n = states.shape[0]
    if n < 2:
        return 0.0
    return float(np.sqrt(pairwise_sq_dists(states).max()))


def is_quasi_synchronized(states: np.ndarray, epsilon: float) -> bool:
    """True when every pairwise distance is <= epsilon (non-strict)."""
    n = states.shape[0]
    if n < 2:
        return True
    return bool(pairwise_sq_dists(states).max() <= epsilon * epsilon)


def hk_step(
    states: np.ndarray,
    noise: np.ndarray,
    epsilon: float,
    space_mode: str = "bounded",
) -> np.ndarray:
    """One synchronous update: neighbor means, plus noise, then clamp.

    The neighbor mean is formed by summing neighbor rows and dividing
    once by the neighbor count.  The sums come from the lockstep kernel
    with one run, so the step replays a lockstep run bit for bit.
    """
    states = np.asarray(states, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if states.shape != noise.shape:
        raise ValueError(f"noise shape {noise.shape} != states shape {states.shape}")
    if space_mode not in SPACE_MODES:
        raise ValueError(f"unknown space_mode: {space_mode!r}")
    d2 = pairwise_sq_dists(states)[:, :, None]
    sums, deg = runs_last_sums(states[:, :, None], d2, epsilon)
    out = sums[:, :, 0] / deg[:, 0, None] + noise
    if space_mode == "bounded":
        out = np.clip(out, BOX_LO, BOX_HI)
    return out


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitialCondition:
    """Initial states: explicit rows, seeded uniform box, or two clusters.

    * explicit: ``values`` holds the (n, d) rows.
    * uniform_box: one matrix drawn uniformly in [-1, 1]^(n x d) from
      ``seed``; every run of an ensemble shares it, because stopping
      times are studied conditionally on a fixed initial state.
    * two_cluster: centroids at +-separation_eps*epsilon/2 along the
      first axis, sizes (n1, n2), all members placed at their centroid.
      The first n1 agents form the upper cluster.
    """

    kind: str
    values: tuple = ()
    seed: int = 0
    separation_eps: float = 0.0
    sizes: tuple[int, int] = (0, 0)

    def build(self, n: int, d: int, epsilon: float) -> np.ndarray:
        if self.kind == "explicit":
            x = np.asarray(self.values, dtype=np.float64)
            if x.shape != (n, d):
                raise ValueError(f"explicit initial state has shape {x.shape}, want {(n, d)}")
            return x.copy()
        if self.kind == "uniform_box":
            key = run_keys(self.seed, [0])
            u = uniforms_at(key, [0], n * d)[0, 0]
            return (2.0 * u - 1.0).reshape(n, d)
        if self.kind == "two_cluster":
            n1, n2 = self.sizes
            if n1 + n2 != n or n1 < 1 or n2 < 1:
                raise ValueError(f"two_cluster sizes {self.sizes} incompatible with n={n}")
            x = np.zeros((n, d), dtype=np.float64)
            half = self.separation_eps * epsilon / 2.0
            x[:n1, 0] = half
            x[n1:, 0] = -half
            return x
        raise ValueError(f"unknown initial kind: {self.kind!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Full description of one dynamics instance.

    delta lives on the noise spec; the ``delta`` property is the single
    source of truth used in validation.
    """

    n: int
    d: int
    epsilon: float
    space_mode: str
    noise: NoiseSpec
    initial: InitialCondition
    allow_large_delta: bool = False

    @property
    def delta(self) -> float:
        return self.noise.delta


def validate_model_config(cfg: ModelConfig) -> list[str]:
    """Collect violations; empty list means the config is runnable."""
    problems: list[str] = []
    if cfg.n < 2:
        problems.append(f"need at least 2 agents, got n={cfg.n}")
    if cfg.d < 1:
        problems.append(f"dimension must be >= 1, got d={cfg.d}")
    if cfg.space_mode not in SPACE_MODES:
        problems.append(f"unknown space_mode: {cfg.space_mode!r}")
    if not np.isfinite(cfg.epsilon) or cfg.epsilon <= 0.0:
        problems.append(f"epsilon must be positive, got {cfg.epsilon}")
    elif cfg.space_mode == "bounded" and cfg.d >= 1:
        limit = 2.0 * np.sqrt(cfg.d)
        if cfg.epsilon > limit:
            problems.append(
                f"epsilon exceeds 2*sqrt(d) = {limit} (got {cfg.epsilon}); no pair "
                "could ever disconnect in bounded mode"
            )
    problems += validate_noise_spec(cfg.noise, cfg.epsilon, cfg.allow_large_delta)
    init = cfg.initial
    if init.kind not in INITIAL_KINDS:
        problems.append(f"unknown initial kind: {init.kind!r}")
    elif init.kind == "explicit":
        try:
            x = init.build(cfg.n, cfg.d, cfg.epsilon)
        except ValueError as err:
            problems.append(str(err))
        else:
            if cfg.space_mode == "bounded" and (x.min() < BOX_LO or x.max() > BOX_HI):
                problems.append("explicit initial states fall outside [-1, 1] in bounded mode")
    elif init.kind == "two_cluster":
        n1, n2 = init.sizes
        if n1 + n2 != cfg.n or n1 < 1 or n2 < 1:
            problems.append(f"two_cluster sizes {init.sizes} incompatible with n={cfg.n}")
        sep = init.separation_eps * cfg.epsilon
        need = _SQRT2 * cfg.epsilon + 2.0 * cfg.noise.delta
        if not sep > need:
            problems.append(
                f"two_cluster separation {sep} must exceed sqrt(2)*epsilon + 2*delta = {need}"
            )
        if cfg.space_mode == "bounded" and sep / 2.0 > BOX_HI:
            problems.append("two_cluster centroids fall outside [-1, 1] in bounded mode")
    return problems
