"""Projected recursions on a ball and the target-ball hitting time.

The state obeys S(t+1) = P_{B(r)}(f(S(t)) + xi(t+1)) where P projects
onto the centered ball of radius r and f is a pluggable map.  The
quantity of interest is T_D = inf{t >= 1 : ||S(t)|| <= r0}, the first
entry into the target ball D = B(r0).  Note the t >= 1: the initial
state is not inspected, unlike the quasi-synchronization time of the
opinion model which may stop at t = 0.

Map families and their distance-shrinking coefficients, meaning the
smallest a with dist(f(x), D) <= a*dist(x, D) for all x outside D:

* identity: coefficient 1.
* linear_scale(alpha): f(x) = alpha*x, taken literally.  For
  alpha <= 1 the coefficient is alpha.  For alpha > 1 no finite
  coefficient exists: points just outside D map to distance about
  (alpha-1)*r0 while their own distance tends to 0, so the ratio
  blows up.  declared_coefficient reports inf in that case.
* target_stretch(alpha): f(x) = P_D(x) + alpha*(x - P_D(x)), which
  stretches the distance to D by exactly alpha and leaves D pointwise
  fixed.  This is the clean way to realize a coefficient of
  alpha > 1, and it is what the expanding-map experiments use.
* hk_mean(epsilon, n, d): the opinion-averaging map applied to an
  ambient point read as an n-by-d state.  Averaging empirically keeps
  the coefficient at 1; sampled_audit checks that claim rather than
  assuming it.

hitting_time_td runs on the walks' censored-hitting driver; trajectory,
a plain step loop over the same noise, is what the tests check it by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import pairwise_sq_dists, runs_last_sums, sq_norm_last
from . import walks
from .noise import NoiseSpec, noise_block, uniforms_per_draw, validate_noise_spec
from .prng import run_keys
from .walks import Samples, _censored_hitting, _chunk_steps, _require, _step_each

MAP_FAMILIES = ("identity", "linear_scale", "target_stretch", "hk_mean")


@dataclass(frozen=True)
class MapSpec:
    """One of MAP_FAMILIES plus its parameters.

    alpha is the scale parameter of linear_scale / target_stretch.
    epsilon, n, d configure hk_mean; the ambient dimension must then
    be n*d.
    """

    family: str
    alpha: float = 1.0
    epsilon: float = 0.0
    n: int = 0
    d: int = 0


@dataclass(frozen=True)
class ProjectedSystemSpec:
    dim: int
    r: float
    r0: float
    map: MapSpec
    noise: NoiseSpec
    start: tuple = ()

    def start_point(self) -> np.ndarray:
        if not self.start:
            out = np.zeros(self.dim)
            out[0] = self.r
            return out
        return np.asarray(self.start, dtype=np.float64)


def validate_projected_spec(spec: ProjectedSystemSpec) -> list[str]:
    out = []
    if spec.dim < 1:
        out.append("dim must be >= 1")
    if not (0.0 < spec.r0 < spec.r):
        out.append(f"need 0 < r0 < r, got r0={spec.r0}, r={spec.r}")
    if spec.map.family not in MAP_FAMILIES:
        out.append(f"unknown map family {spec.map.family!r}")
    if spec.map.family in ("linear_scale", "target_stretch") and spec.map.alpha < 0.0:
        out.append("alpha must be nonnegative")
    if spec.map.family == "hk_mean":
        if spec.map.n < 2 or spec.map.d < 1:
            out.append("hk_mean needs n >= 2 and d >= 1")
        elif spec.map.n * spec.map.d != spec.dim:
            out.append(
                f"hk_mean reads the ambient point as {spec.map.n}x{spec.map.d}, "
                f"which needs dim {spec.map.n * spec.map.d}, got {spec.dim}"
            )
        if spec.map.epsilon <= 0.0:
            out.append("hk_mean needs epsilon > 0")
    out.extend(validate_noise_spec(spec.noise))
    if spec.start:
        if len(spec.start) != spec.dim:
            out.append(f"start has {len(spec.start)} coordinates, dim is {spec.dim}")
        elif float(sq_norm_last(np.asarray(spec.start, dtype=np.float64))) > spec.r * spec.r:
            out.append("start must lie in the outer ball")
    return out


# ---------------------------------------------------------------------------
# Projection and maps
# ---------------------------------------------------------------------------


def project_to_ball(x: np.ndarray, r: float) -> np.ndarray:
    """Nearest point of B(r): x itself inside, radial rescale outside.

    Points inside the ball pass through bitwise unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    sq = sq_norm_last(x)
    outside = sq > r * r
    if not np.any(outside):
        return x.copy()
    scale = np.ones_like(sq)
    norms = np.sqrt(sq, where=outside, out=np.ones_like(sq))
    np.divide(r, norms, where=outside, out=scale)
    out = x * scale[..., None]
    # The rescale can overshoot the boundary by an ulp; pull those rows
    # back so ||out|| <= r holds exactly and projecting twice is a no-op.
    sq2 = sq_norm_last(out)
    over = sq2 > r * r
    while np.any(over):
        fac = np.where(over, r / np.sqrt(np.where(over, sq2, 1.0)), 1.0)
        fac = np.where(over, np.nextafter(fac, 0.0), fac)
        out = out * fac[..., None]
        sq2 = sq_norm_last(out)
        over = sq2 > r * r
    return out


def apply_map(spec: MapSpec, x: np.ndarray, r0: float) -> np.ndarray:
    """f(x) for a batch of ambient points, shape (..., dim)."""
    x = np.asarray(x, dtype=np.float64)
    if spec.family == "identity":
        return x.copy()
    if spec.family == "linear_scale":
        return spec.alpha * x
    if spec.family == "target_stretch":
        anchor = project_to_ball(x, r0)
        return anchor + spec.alpha * (x - anchor)
    if spec.family == "hk_mean":
        lead = x.shape[:-1]
        pts = x.reshape(-1, spec.n, spec.d)
        d2 = np.empty((spec.n, spec.n, pts.shape[0]))
        pairwise_sq_dists(pts, out=d2.transpose(2, 0, 1))
        sums, deg = runs_last_sums(np.moveaxis(pts, 0, -1), d2, spec.epsilon)
        sums /= deg[:, None]
        return np.moveaxis(sums, -1, 0).reshape(*lead, spec.n * spec.d)
    raise ValueError(f"unknown map family {spec.family!r}")


def declared_coefficient(spec: MapSpec) -> float:
    """The distance-shrinking coefficient each family claims.

    inf means no finite coefficient holds on any neighborhood of the
    target boundary, so the sampled audit is vacuous for that map.
    """
    if spec.family == "identity":
        return 1.0
    if spec.family == "linear_scale":
        return spec.alpha if spec.alpha <= 1.0 else np.inf
    if spec.family == "target_stretch":
        return spec.alpha
    if spec.family == "hk_mean":
        return 1.0
    raise ValueError(f"unknown map family {spec.family!r}")


def projected_step(s: np.ndarray, spec: ProjectedSystemSpec, xi: np.ndarray) -> np.ndarray:
    """One update P_{B(r)}(f(s) + xi); output norm is at most r."""
    return project_to_ball(apply_map(spec.map, s, spec.r0) + xi, spec.r)


# ---------------------------------------------------------------------------
# Hitting time
# ---------------------------------------------------------------------------


def hitting_time_td(
    spec: ProjectedSystemSpec,
    base_seed: int,
    run_indices,
    horizon: int,
) -> Samples:
    """T_D over independent runs, censored at the horizon.

    All runs share the configured start; randomness enters through the
    per-run noise streams.  end_value is ||S|| at the hitting step or
    at the horizon.
    """
    _require(validate_projected_spec(spec))
    r0sq = spec.r0 * spec.r0

    def norm(s):
        return np.sqrt(sq_norm_last(s))

    def step(s, xi, t):
        return projected_step(s, spec, xi[:, 0, :])

    def advance(s, xi, t0):
        stop, s = _step_each(s, xi, t0, step, lambda s: sq_norm_last(s) <= r0sq)
        # A stopped run keeps its state at the stop.
        return stop, stop >= 0, norm(s), s

    return _censored_hitting(
        spec.noise,
        1,
        spec.dim,
        spec.start_point(),
        advance,
        norm,
        base_seed,
        run_indices,
        horizon,
        tiled=False,
    )


def trajectory(
    spec: ProjectedSystemSpec,
    base_seed: int,
    run_index: int,
    horizon: int,
) -> np.ndarray:
    """The path S(0..horizon), shape (horizon+1, dim), by a plain step loop."""
    _require(validate_projected_spec(spec))
    keys = run_keys(base_seed, np.asarray([run_index], dtype=np.int64))
    w = uniforms_per_draw(spec.noise.family, spec.dim)
    out = np.empty((horizon + 1, spec.dim), dtype=np.float64)
    out[0] = spec.start_point()
    s = out[0][None, :].copy()
    t0 = 0
    while t0 < horizon:
        nsteps = _chunk_steps(1, 1, w, horizon - t0)
        xi = walks._steps_block(spec.noise, keys, t0, nsteps, 1, spec.dim)
        for k in range(nsteps):
            s = projected_step(s, spec, xi[0, k])
            out[t0 + k + 1] = s[0]
        # Freed before the next chunk is drawn.
        del xi
        t0 += nsteps
    return out


# ---------------------------------------------------------------------------
# Coefficient audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditResult:
    checked: int
    violations: int
    coefficient: float
    max_ratio: float
    worst_distance: float


def _annulus_points(dim: int, r_in: float, r_out: float, count: int, key) -> np.ndarray:
    """Volume-uniform sample of the annulus r_in < ||x|| <= r_out.

    A unit-ball draw has norm u^(1/dim), u uniform; it keeps its
    direction and moves to the radius that encloses a share u of the
    annulus' volume.
    """
    v = noise_block(NoiseSpec("uniform_ball", 1.0), [key], [1], count, dim)[0, 0]
    norm = np.sqrt(sq_norm_last(v))
    shell = (r_in**dim + norm**dim * (r_out**dim - r_in**dim)) ** (1.0 / dim)
    norm[norm == 0.0] = 1.0
    return v * (shell / norm)[:, None]


def sampled_audit(
    spec: ProjectedSystemSpec,
    points: int = 100_000,
    base_seed: int = 0,
    rel_tol: float = 1e-9,
) -> AuditResult:
    """Check dist(f(x), D) <= coefficient * dist(x, D) on sampled x.

    Points are drawn volume-uniformly from B(r) minus D.  A map whose
    declared coefficient is inf cannot be audited; the result then
    reports the observed worst ratio with violations = 0 checked = 0.
    """
    _require(validate_projected_spec(spec))
    coeff = declared_coefficient(spec.map)
    key = run_keys(base_seed, np.asarray([0], dtype=np.int64))[0]
    x = _annulus_points(spec.dim, spec.r0, spec.r, points, key)
    dist_x = np.sqrt(sq_norm_last(x - project_to_ball(x, spec.r0)))
    fx = apply_map(spec.map, x, spec.r0)
    dist_fx = np.sqrt(sq_norm_last(fx - project_to_ball(fx, spec.r0)))
    keep = dist_x > 0.0
    ratio = dist_fx[keep] / dist_x[keep]
    max_ratio = float(ratio.max()) if ratio.size else 0.0
    worst = float(dist_x[keep][np.argmax(ratio)]) if ratio.size else 0.0
    if not np.isfinite(coeff):
        return AuditResult(0, 0, coeff, max_ratio, worst)
    viol = int((dist_fx[keep] > coeff * dist_x[keep] * (1.0 + rel_tol)).sum())
    return AuditResult(int(keep.sum()), viol, coeff, max_ratio, worst)
