"""Bounded zero-mean noise families and their deterministic seeding.

Three families are built in, all symmetric about the origin and bounded
in Euclidean norm by delta:

* ``uniform_ball``   uniform density on {v : ||v|| <= delta}
* ``uniform_cube``   independent coordinates uniform on [-delta/sqrt(d), delta/sqrt(d)]
* ``rademacher_axes`` independent coordinate signs, each +-delta/sqrt(d)

Draws are keyed by (base_seed, run_index, t, agent): agent i at step t
reads the slice [i*W, (i+1)*W) of the step's stream units, where W =
uniforms_per_draw.  A unit is a uniform double of the run's Philox
stream, or for rademacher_axes one bit of it (prng.bits_at): bit 1
gives the coordinate +delta/sqrt(d), bit 0 gives -delta/sqrt(d).
Regenerating the step therefore reproduces any single agent's draw
bit-identically, regardless of batching or execution order.

uniform_ball draws a radius delta * u^(1/d) and an independent uniform
direction.  For d <= 3 the direction comes from exact low-dimensional
formulas: a sign for d = 1, an angle for d = 2, and for d = 3 a height
z = 1 - 2u and an angle around the z axis (by Archimedes, the height of
a uniform point on the unit sphere is uniform on [-1, 1]).  For d >= 4
it is a normalized vector of Box-Muller Gaussians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prng import bits_at, uniforms_at

FAMILIES = ("uniform_ball", "uniform_cube", "rademacher_axes")

_TWO_PI = 2.0 * np.pi

# Draws per block of the uniform_ball transform, which works on planar
# (coordinate-major) copies of a block small enough to stay in cache.
_BALL_BLOCK = 8192


@dataclass(frozen=True)
class NoiseSpec:
    """Choice of noise family and magnitude bound."""

    family: str
    delta: float


def uniforms_per_draw(family: str, d: int) -> int:
    """Stream units consumed per agent draw: bits for rademacher_axes, else uniforms."""
    if family == "uniform_ball":
        # Direction uniforms plus one radius uniform: a sign (d = 1), an
        # angle (d = 2), a height and an angle (d = 3), else Box-Muller pairs.
        return {1: 1, 2: 1, 3: 2}.get(d, 2 * ((d + 1) // 2)) + 1
    if family in ("uniform_cube", "rademacher_axes"):
        return d
    raise ValueError(f"unknown noise family: {family}")


def _stream_units(spec: NoiseSpec, keys, ts, count: int) -> np.ndarray:
    """The (A, B, count) stream units of a draw block: bits or uniforms."""
    units_at = bits_at if spec.family == "rademacher_axes" else uniforms_at
    return units_at(keys, ts, count)


def _uniforms_to_noise(spec: NoiseSpec, u: np.ndarray, d: int) -> np.ndarray:
    """Map stream-unit blocks (..., W) to noise vectors (..., d), consuming u.

    u holds uniforms, or for rademacher_axes 0/1 bits.  Every family but
    rademacher_axes writes its result into u's memory and returns a view
    of it, so callers hand over freshly generated buffers and never
    reread them; signs fill a new float64 array, eight times the size of
    their bit block.
    """
    if spec.family == "rademacher_axes":
        # 2c * b - c: exactly c for bit 1 and -c for bit 0.
        c = spec.delta / np.sqrt(d)
        signs = np.empty(u.shape, dtype=np.float64)
        np.multiply(u, 2.0 * c, out=signs)
        signs -= c
        return signs
    if spec.family == "uniform_cube":
        c = spec.delta / np.sqrt(d)
        u *= 2.0 * c
        u -= c
        return u
    if spec.family == "uniform_ball":
        w = u.shape[-1]
        flat = u.reshape(-1)
        flat_u = flat.reshape(-1, w)
        m = flat_u.shape[0]
        for lo in range(0, m, _BALL_BLOCK):
            hi = min(lo + _BALL_BLOCK, m)
            up = np.ascontiguousarray(flat_u[lo:hi].T)
            # The block's draws fill doubles [lo * d, hi * d) of the
            # buffer; d <= w, so those held uniforms of rows below hi,
            # all copied into up already.
            flat[lo * d : hi * d].reshape(-1, d)[:] = _ball_planar(up, d, spec.delta).T
        return flat[: m * d].reshape(u.shape[:-1] + (d,))
    raise ValueError(f"unknown noise family: {spec.family}")


def _even_odd_sq_norm(c: np.ndarray) -> np.ndarray:
    """Squared norms of planar vectors c (d, m): even rows, then odd rows.

    Each parity is added in ascending coordinate order and the two sums
    are added last, so the result does not depend on how numpy
    vectorizes a reduction.
    """
    sq = np.square(c)
    total = sq[0]
    for k in range(2, len(sq), 2):
        total += sq[k]
    if len(sq) > 1:
        odd = sq[1]
        for k in range(3, len(sq), 2):
            odd += sq[k]
        total += odd
    return total


def _ascending_sq_norm(c: np.ndarray) -> np.ndarray:
    """Squared norms of planar vectors c (d, m), added in coordinate order."""
    total = np.square(c[0])
    for row in c[1:]:
        total += np.square(row)
    return total


def _ball_planar(up: np.ndarray, d: int, delta: float) -> np.ndarray:
    """uniform_ball draws (d, m) from planar uniforms up (W, m), consumed.

    The last row of up gives the radius, the rows before it the direction.
    """
    c = np.empty((d, up.shape[1]))
    radius = up[-1]
    if d == 1:
        # A sign times a radius delta * u.
        radius *= delta
        sign = up[0]
        sign -= 0.5
        np.copysign(radius, sign, out=c[0])
    elif d <= 3:
        # An angle, and for d = 3 (Archimedes) a height z = 1 - 2 u0,
        # uniform on [-1, 1], whose circle has radius sqrt(1 - z^2) =
        # 2 sqrt(u0 (1 - u0)), which keeps its precision near the poles.
        # The angle lies in [-pi, pi), where numpy's cos and sin take
        # about a tenth less time per draw than on [0, 2 pi).
        theta = up[d - 2]
        theta -= 0.5
        theta *= _TWO_PI
        np.cos(theta, out=c[0])
        np.sin(theta, out=c[1])
        if d == 3:
            u0 = up[0]
            ring = np.subtract(1.0, u0)
            ring *= u0
            np.sqrt(ring, out=ring)
            ring *= 2.0
            c[:2] *= ring
            np.multiply(u0, -2.0, out=c[2])
            c[2] += 1.0
        (np.sqrt if d == 2 else np.cbrt)(radius, out=radius)
        radius *= delta
        c *= radius
    else:
        _box_muller_ball(up, c, delta)
    # Rounding in the direction and scale can overshoot the bound by an
    # ulp.  Such a draw is scaled by delta / ||v||, and if rounding leaves
    # it over again, by a margin that doubles from 2^-50 each round, so
    # ||v|| <= delta holds exactly.  Squares add in ascending coordinate
    # order, except on the Box-Muller path.
    sq_norm = _even_odd_sq_norm if d > 3 else _ascending_sq_norm
    s2 = sq_norm(c)
    over = np.flatnonzero(s2 > delta * delta)
    shrink = 0.0
    while over.size:
        c[:, over] *= delta / np.sqrt(s2[over]) * (1.0 - shrink)
        s2[over] = sq_norm(c[:, over])
        over = over[s2[over] > delta * delta]
        shrink = max(2.0 * shrink, 2.0**-50)
    return c


def _box_muller_ball(up: np.ndarray, c: np.ndarray, delta: float) -> None:
    """Fill c (d, m) with ball draws: normalized Box-Muller Gaussians."""
    d = c.shape[0]
    npairs = (d + 1) // 2
    half = d // 2
    # Box-Muller: pair k gives coordinates 2k (cos) and 2k+1 (sin); the
    # sin of the last pair is unused when d is odd.
    theta = up[1 : 2 * npairs : 2]
    theta *= _TWO_PI
    # log1p(-u1) is finite for u1 in [0, 1).
    rad = up[0 : 2 * npairs : 2]
    np.negative(rad, out=rad)
    np.log1p(rad, out=rad)
    rad *= -2.0
    np.sqrt(rad, out=rad)
    cos, sin = c[0::2], c[1::2]
    np.cos(theta, out=cos)
    cos *= rad
    np.sin(theta[:half], out=sin)
    sin *= rad[:half]
    nrm = _even_odd_sq_norm(c)
    np.sqrt(nrm, out=nrm)
    nrm[nrm == 0.0] = 1.0
    radius = up[2 * npairs]
    radius **= 1.0 / d
    radius *= delta
    radius /= nrm
    c *= radius


def noise_block(spec: NoiseSpec, keys, ts, n: int, d: int) -> np.ndarray:
    """Noise for runs x steps x agents: shape (A, B, n, d).

    keys is the (A,) array of run keys and ts the (B,) consecutive step
    indices, from t = 1: step 0 holds the initial conditions.  Row i of
    each (n, d) block is agent i's draw, a pure function of its run's
    key, t and i, whichever runs and steps share the block.
    """
    w = uniforms_per_draw(spec.family, d)
    keys = np.asarray(keys, dtype=np.uint64)
    ts = np.asarray(ts)
    if ts.size and ts[0] < 1:
        raise ValueError("noise steps are indexed from t = 1")
    u = _stream_units(spec, keys, ts, n * w)
    u = u.reshape(keys.shape[0], ts.shape[0], n, w)
    return _uniforms_to_noise(spec, u, d)


def validate_noise_spec(
    spec: NoiseSpec,
    epsilon: float | None = None,
    allow_large_delta: bool = False,
) -> list[str]:
    """Return a list of violation messages (empty means valid).

    With an epsilon context the absorbing-regime constraint
    delta <= epsilon / 2 is enforced unless explicitly overridden.
    """
    problems: list[str] = []
    if spec.family not in FAMILIES:
        problems.append(f"unknown noise family: {spec.family!r}")
    if not (spec.delta > 0.0) or not np.isfinite(spec.delta):
        problems.append(f"noise delta must be positive and finite, got {spec.delta}")
    if epsilon is not None and spec.delta > epsilon / 2.0 and not allow_large_delta:
        problems.append(
            f"delta exceeds epsilon/2 ({spec.delta} > {epsilon / 2.0}); quasi-"
            "synchronization is then not absorbing (set allow_large_delta to override)"
        )
    return problems
