"""Exact stopping-time law by exhausting axis-sign noise outcomes.

With rademacher_axes noise each step has exactly 2^(n*d) equally likely
sign patterns, so for micro-instances the full law of min(T, horizon)
can be computed by breadth-first search over the outcome tree, with
exact rational probabilities.  The stepping here is deliberately plain
Python (no numpy, no shared engine code) so it can serve as an
independent oracle for the Monte Carlo path; float arithmetic still
matches the engine because both reduce sums in ascending order.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .model import ModelConfig

# Enumerating more than 2^24 leaf outcomes is refused.
MAX_OUTCOME_BITS = 24


class EnumerationTooLarge(ValueError):
    """Raised when the outcome tree exceeds the 2^24 leaf budget."""


def outcome_bits(n: int, d: int, horizon: int) -> int:
    return n * d * horizon


def _sq_dist(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        t = x - y
        s += t * t
    return s


def _max_pair_sq(states) -> float:
    worst = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            s = _sq_dist(states[i], states[j])
            if s > worst:
                worst = s
    return worst


def _step(states, pattern, eps2: float, bounded: bool):
    n = len(states)
    d = len(states[0])
    out = []
    for i in range(n):
        sums = [0.0] * d
        count = 0
        for j in range(n):
            if _sq_dist(states[i], states[j]) <= eps2:
                for k in range(d):
                    sums[k] += states[j][k]
                count += 1
        row = []
        for k in range(d):
            v = sums[k] / count + pattern[i * d + k]
            if bounded:
                v = min(1.0, max(-1.0, v))
            row.append(v)
        out.append(tuple(row))
    return tuple(out)


def exact_stopping_law(cfg: ModelConfig, horizon: int):
    """Exact pmf of the stopping time, truncated at the horizon.

    Returns (pmf, censored): pmf maps t -> Fraction P{T = t} for
    t = 0..horizon, censored is the Fraction P{T > horizon}.  Raises
    EnumerationTooLarge past the 2^24 outcome budget and ValueError
    for non-rademacher noise.
    """
    if cfg.noise.family != "rademacher_axes":
        raise ValueError("exact enumeration needs rademacher_axes noise")
    bits = outcome_bits(cfg.n, cfg.d, horizon)
    if bits > MAX_OUTCOME_BITS:
        raise EnumerationTooLarge(
            f"2^(n*d*horizon) = 2^{bits} outcomes exceed the 2^{MAX_OUTCOME_BITS} budget"
        )
    n, d = cfg.n, cfg.d
    eps2 = cfg.epsilon * cfg.epsilon
    bounded = cfg.space_mode == "bounded"
    c = cfg.noise.delta / math.sqrt(d)
    patterns = [
        tuple(s * c for s in signs)
        for signs in itertools.product((-1.0, 1.0), repeat=n * d)
    ]
    branch_p = Fraction(1, len(patterns))

    x0 = tuple(tuple(float(v) for v in row) for row in cfg.initial.build(n, d, cfg.epsilon))
    pmf = {t: Fraction(0) for t in range(horizon + 1)}
    if _max_pair_sq(x0) <= eps2:
        pmf[0] = Fraction(1)
        return pmf, Fraction(0)

    frontier = {x0: Fraction(1)}
    for t in range(1, horizon + 1):
        nxt: dict[tuple, Fraction] = {}
        for states, prob in frontier.items():
            share = prob * branch_p
            for pattern in patterns:
                new = _step(states, pattern, eps2, bounded)
                if _max_pair_sq(new) <= eps2:
                    pmf[t] += share
                else:
                    nxt[new] = nxt.get(new, Fraction(0)) + share
        frontier = nxt
        if not frontier:
            break
    censored = sum(frontier.values(), Fraction(0))
    return pmf, censored


def survival_points(pmf: dict, censored: Fraction, times) -> list[Fraction]:
    """P{T >= t} for each t, where mass past the horizon counts as alive."""
    out = []
    for t in times:
        alive = censored + sum(p for u, p in pmf.items() if u >= t)
        out.append(alive)
    return out
