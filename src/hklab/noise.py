"""Bounded zero-mean noise families and their deterministic seeding.

Three families are built in, all symmetric about the origin and bounded
in Euclidean norm by delta:

* ``uniform_ball``   uniform density on {v : ||v|| <= delta}
* ``uniform_cube``   independent coordinates uniform on [-delta/sqrt(d), delta/sqrt(d)]
* ``rademacher_axes`` independent coordinate signs, each +-delta/sqrt(d)

Draws are keyed by (base_seed, run_index, t, agent): agent i at step t
reads the slice [i*W, (i+1)*W) of the step's uniform stream, where W =
uniforms_per_draw.  Regenerating the step therefore reproduces any
single agent's draw bit-identically, regardless of batching or
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prng import run_keys, uniforms_at

FAMILIES = ("uniform_ball", "uniform_cube", "rademacher_axes")

# All built-in families are symmetric: xi and -xi are identically distributed.
SYMMETRIC_FAMILIES = frozenset(FAMILIES)

_TWO_PI = 2.0 * np.pi

# Draws per block of the uniform_ball transform, which works on planar
# (coordinate-major) copies of a block small enough to stay in cache.
_BALL_BLOCK = 8192


@dataclass(frozen=True)
class NoiseSpec:
    """Choice of noise family and magnitude bound.

    requires_symmetry marks specs used in scenarios whose conclusions
    need a symmetric law; validate_noise_spec enforces it structurally.
    """

    family: str
    delta: float
    requires_symmetry: bool = False


def uniforms_per_draw(family: str, d: int) -> int:
    """Uniforms consumed per agent draw."""
    if family == "uniform_ball":
        # Box-Muller pairs for the direction plus one radius uniform.
        return 2 * ((d + 1) // 2) + 1
    if family in ("uniform_cube", "rademacher_axes"):
        return d
    raise ValueError(f"unknown noise family: {family}")


def _uniforms_to_noise(spec: NoiseSpec, u: np.ndarray, d: int) -> np.ndarray:
    """Map uniform blocks (..., W) to noise vectors (..., d).

    For uniform_cube the conversion runs in place, so the result aliases
    u; callers hand over freshly generated buffers and never reread them.
    """
    if spec.family == "rademacher_axes":
        c = spec.delta / np.sqrt(d)
        return np.where(u[..., :d] < 0.5, -c, c)
    if spec.family == "uniform_cube":
        c = spec.delta / np.sqrt(d)
        out = u[..., :d]
        out *= 2.0 * c
        out -= c
        return out
    if spec.family == "uniform_ball":
        v = np.empty(u.shape[:-1] + (d,), dtype=np.float64)
        flat_u, flat_v = u.reshape(-1, u.shape[-1]), v.reshape(-1, d)
        for lo in range(0, flat_v.shape[0], _BALL_BLOCK):
            hi = lo + _BALL_BLOCK
            up = np.ascontiguousarray(flat_u[lo:hi].T)
            flat_v[lo:hi] = _ball_planar(up, d, spec.delta).T
        return v
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


def _ball_planar(up: np.ndarray, d: int, delta: float) -> np.ndarray:
    """uniform_ball draws (d, m) from planar uniforms up (W, m), consumed."""
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
    c = np.empty((d, up.shape[1]))
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
    # Rounding in normalize-and-scale can overshoot the bound by an ulp;
    # rescale those draws so ||v|| <= delta holds exactly.
    s2 = _even_odd_sq_norm(c)
    over = s2 > delta * delta
    if over.any():
        c[:, over] *= delta / np.sqrt(s2[over])
    return c


def noise_block(spec: NoiseSpec, keys, ts, n: int, d: int) -> np.ndarray:
    """Noise for runs x steps x agents: shape (A, B, n, d).

    keys is the (A,) array of run keys and ts the (B,) consecutive step
    indices.  Row i of each (n, d) block is exactly
    sample_noise(spec, base_seed, run_index, t, i, n, d) for the run
    whose key it is.
    """
    w = uniforms_per_draw(spec.family, d)
    keys = np.asarray(keys, dtype=np.uint64)
    ts = np.asarray(ts)
    u = uniforms_at(keys, ts, n * w)
    u = u.reshape(keys.shape[0], ts.shape[0], n, w)
    return _uniforms_to_noise(spec, u, d)


def sample_noise(
    spec: NoiseSpec, base_seed: int, run_index: int, t: int, i: int, n: int, d: int
) -> np.ndarray:
    """Single draw for agent i at step t of run run_index, shape (d,).

    Regenerates the step's uniform stream and reads agent i's slice, so
    the result does not depend on which draws were produced before it
    or on how the surrounding ensemble was batched.
    """
    if t < 1:
        raise ValueError("noise steps are indexed from t = 1")
    if not 0 <= i < n:
        raise ValueError("agent index out of range")
    w = uniforms_per_draw(spec.family, d)
    u = uniforms_at(run_keys(base_seed, [run_index]), [t], n * w)
    return _uniforms_to_noise(spec, u[:, :, i * w : (i + 1) * w], d)[0, 0]


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
    if spec.requires_symmetry and spec.family not in SYMMETRIC_FAMILIES:
        problems.append(f"family {spec.family!r} does not guarantee a symmetric law")
    if epsilon is not None and spec.delta > epsilon / 2.0 and not allow_large_delta:
        problems.append(
            f"delta exceeds epsilon/2 ({spec.delta} > {epsilon / 2.0}); quasi-"
            "synchronization is then not absorbing (set allow_large_delta to override)"
        )
    return problems
