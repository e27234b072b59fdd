"""Acceptance suite: one test per headline criterion, AC-1 through AC-8.

Each test prints a single "AC-k ...: PASS/FAIL" line (bypassing capture
so the report is visible under any pytest invocation) and then asserts,
so the module doubles as a written acceptance report.  The expensive
ensembles live in module fixtures shared across criteria; the absorbing
audit of AC-3 folds into the AC-1/2/4 runs by extending every hit run
1000 steps, so nothing is simulated twice.

Single-core budget is roughly 20-25 minutes, dominated by the two
unbounded cluster ensembles at horizon 10^6.
"""

from fractions import Fraction

import numpy as np
import pytest

from hklab.ensemble import (
    censored_mean,
    events_from_samples,
    fit_tail,
    run_ensemble,
    summarize,
    survival_from_events,
)
from hklab.enumeration import exact_stopping_law, survival_points
from hklab.model import InitialCondition, ModelConfig
from hklab.neighbors import NeighborIndex
from hklab.noise import NoiseSpec
from hklab.presets import preset, scaled_preset
from hklab.projected import hitting_time_td, sampled_audit
from hklab.walks import (
    ClusterWalkSpec,
    StretchedWalkSpec,
    cluster_gap_walk,
    first_passage_below,
    recurrence_profile,
    stretched_first_passage,
)

AUDIT_STEPS = 1000  # post-hit steps checked by the absorbing criterion
HORIZON_LADDER = (1_000, 10_000, 100_000, 1_000_000)


def _verdict(capsys, name, checks, detail=""):
    """Print one PASS/FAIL line for a criterion, then assert it."""
    failed = [k for k, ok in checks.items() if not ok]
    status = "PASS" if not failed else "FAIL <- " + ", ".join(failed)
    with capsys.disabled():
        print(f"\n{name}: {status}" + (f"  [{detail}]" if detail else ""))
    assert not failed, f"{name}: {failed} ({detail})"


def _dense_tail_fit(t_end, hit, horizon):
    """Semilog/loglog fit over [median, max] on a 40-point geometric grid.

    The default reporting grid spaces times by factors of 1.2, which
    leaves too few points inside a short geometric tail.  The survival
    estimator is exact at any time, so evaluate it where the data is.
    """
    lo = max(int(np.median(t_end)), 1)
    hi = int(t_end.max())
    grid = np.unique(np.round(np.geomspace(lo, hi, 40)).astype(np.int64))
    curve = survival_from_events(t_end, hit, horizon, grid=grid)
    return fit_tail(curve, (lo, hi))


def _micro_cfg():
    # Two agents one unit apart in the bounded box: small enough that the
    # stopping law to horizon 3 enumerates exactly (12 noise bits).
    return ModelConfig(
        n=2,
        d=1,
        epsilon=1.0,
        space_mode="bounded",
        noise=NoiseSpec("rademacher_axes", 0.5),
        initial=InitialCondition("explicit", values=((-1.0,), (1.0,))),
    )


@pytest.fixture(scope="module")
def ac1_run():
    return run_ensemble(
        _micro_cfg(), runs=100_000, horizon=3, base_seed=1, extra_after_hit=AUDIT_STEPS
    )


@pytest.fixture(scope="module")
def ac2_runs():
    out = {}
    for d in (1, 2, 3):
        cfg = preset("thm1_bounded", f"d{d}")
        out[d] = run_ensemble(
            cfg.model,
            cfg.ensemble.runs,
            max(cfg.ensemble.horizons),
            cfg.ensemble.base_seed,
            extra_after_hit=AUDIT_STEPS,
        )
    return out


@pytest.fixture(scope="module")
def ac4_runs():
    out = {}
    for d, name in ((1, "thm2a_d1"), (2, "thm2a_d2")):
        cfg = preset(name)
        out[d] = (
            cfg,
            run_ensemble(
                cfg.model,
                cfg.ensemble.runs,
                max(cfg.ensemble.horizons),
                cfg.ensemble.base_seed,
                extra_after_hit=AUDIT_STEPS,
            ),
        )
    return out


@pytest.fixture(scope="module")
def ac5_run():
    cfg = preset("thm2b_d3")
    return run_ensemble(
        cfg.model, cfg.ensemble.runs, max(cfg.ensemble.horizons), cfg.ensemble.base_seed
    )


def test_ac1_exact_law_vs_monte_carlo(ac1_run, capsys):
    pmf, censored = exact_stopping_law(_micro_cfg(), horizon=3)
    law_ok = (
        pmf[0] == 0
        and pmf[1] == Fraction(1, 4)
        and pmf[2] == Fraction(5, 16)
        and pmf[3] == Fraction(11, 64)
        and censored == Fraction(17, 64)
    )

    t_end, _ = events_from_samples(ac1_run.samples)
    m = t_end.size
    times = [0, 1, 2, 3]
    exact = survival_points(pmf, censored, times)
    worst = 0.0
    mc_ok = True
    for t, frac in zip(times, exact):
        p = float(frac)
        s_hat = float(np.mean(t_end >= t))
        se = (p * (1.0 - p) / m) ** 0.5
        if se == 0.0:
            # Degenerate survival points must match exactly.
            mc_ok = mc_ok and s_hat == p
        else:
            worst = max(worst, abs(s_hat - p) / se)
            mc_ok = mc_ok and abs(s_hat - p) <= 3.0 * se
    _verdict(
        capsys,
        "AC-1 exact enumeration vs Monte Carlo",
        {"enumerated law (P{T=1} = 1/4)": law_ok, "every survival point within 3 SE": mc_ok},
        f"M={m}, worst |dS|/SE = {worst:.2f}",
    )


def test_ac2_bounded_space_integrable_time(ac2_runs, capsys):
    checks, notes = {}, []
    for d, res in sorted(ac2_runs.items()):
        t_end_1, hit_1 = events_from_samples(res.samples, 100_000)
        t_end_2, _ = events_from_samples(res.samples, 200_000)
        cm1, cm2 = censored_mean(t_end_1), censored_mean(t_end_2)
        fit = _dense_tail_fit(t_end_1, hit_1, 100_000)
        checks[f"d={d} every run hits by 1e5"] = bool(hit_1.all())
        checks[f"d={d} geometric tail r2 >= 0.9"] = fit.semilog_slope < 0 and fit.semilog_r2 >= 0.9
        checks[f"d={d} censored means 1e5 vs 2e5 within 5%"] = abs(cm2 - cm1) <= 0.05 * cm1
        notes.append(f"d{d}: mean T = {cm1:.0f}, r2 = {fit.semilog_r2:.3f}")
    _verdict(capsys, "AC-2 bounded box, integrable stopping time", checks, "; ".join(notes))


def test_ac3_hit_state_is_absorbing(ac1_run, ac2_runs, ac4_runs, capsys):
    ensembles = [ac1_run, *ac2_runs.values(), *(res for _, res in ac4_runs.values())]
    audited = sum(sum(1 for s in res.samples if s.hit) for res in ensembles)
    violations = sum(int(np.count_nonzero(~res.absorb_ok)) for res in ensembles)
    _verdict(
        capsys,
        "AC-3 quasi-sync absorbing after the hit",
        {"zero violations": violations == 0},
        f"{audited} hit runs x {AUDIT_STEPS} extra steps, violations = {violations}",
    )


def _gap_walk_samples(cfg, dim, horizon, base_seed):
    """Cluster-gap walk matched to a two-cluster preset's pins."""
    model = cfg.model
    n1, n2 = model.initial.sizes
    spec = ClusterWalkSpec(n1=n1, n2=n2, noise=model.noise, dim=dim)
    gap = model.initial.separation_eps * model.epsilon
    runs = range(cfg.ensemble.runs)
    if dim == 1:
        return cluster_gap_walk(spec, gap, base_seed, runs, horizon, threshold=model.epsilon)
    gap0 = np.zeros(dim)
    gap0[0] = gap
    return cluster_gap_walk(spec, gap0, base_seed, runs, horizon, radius=model.epsilon)


def test_ac4_unbounded_low_dim_heavy_tail(ac4_runs, capsys):
    checks, notes = {}, []
    horizon = HORIZON_LADDER[-1]
    for d, (cfg, res) in sorted(ac4_runs.items()):
        fracs = [float(events_from_samples(res.samples, h)[1].mean()) for h in HORIZON_LADDER]
        checks[f"d={d} hit fraction strictly increases 1e3..1e6"] = all(
            b > a for a, b in zip(fracs, fracs[1:])
        )
        if d == 1:
            checks["d=1 hit fraction >= 0.95 at 1e6"] = fracs[-1] >= 0.95

        cm4 = censored_mean(events_from_samples(res.samples, 10_000)[0])
        cm6 = censored_mean(events_from_samples(res.samples, horizon)[0])
        checks[f"d={d} censored mean at 1e6 >= 2x at 1e4"] = cm6 >= 2.0 * cm4

        sim_fit = summarize(res.samples, horizon, cfg.ensemble.base_seed).tail_fit
        walk = _gap_walk_samples(cfg, d, horizon, 4000 + d)
        walk_fit = summarize(walk, horizon, 4000 + d).tail_fit
        if d == 1:
            # The absolute window brackets the 1-d first-passage power law
            # (slope near -1/2).  The d=2 gap walk is only logarithmically
            # recurrent, so its survival decays slower than any power and
            # the measured slope sits near -0.1 by construction; there the
            # walk-consistency bound below is the meaningful check.
            checks["d=1 loglog slope in [-0.8, -0.3]"] = -0.8 <= sim_fit.loglog_slope <= -0.3
        checks[f"d={d} slope within 0.15 of gap-walk oracle"] = (
            abs(sim_fit.loglog_slope - walk_fit.loglog_slope) <= 0.15
        )
        notes.append(
            f"d{d}: hits {fracs[0]:.3f}->{fracs[-1]:.3f}, cm x{cm6 / cm4:.1f}, "
            f"slope {sim_fit.loglog_slope:.2f} vs walk {walk_fit.loglog_slope:.2f}"
        )
    _verdict(capsys, "AC-4 unbounded d<=2, finite but non-integrable", checks, "; ".join(notes))


def test_ac5_unbounded_d3_defective_law(ac5_run, capsys):
    _, hit4 = events_from_samples(ac5_run.samples, 10_000)
    _, hit5 = events_from_samples(ac5_run.samples, 100_000)
    non4 = 1.0 - float(hit4.mean())
    non5 = 1.0 - float(hit5.mean())
    _verdict(
        capsys,
        "AC-5 unbounded d=3, non-hitting fraction plateaus",
        {
            "non-hit fraction at 1e5 > 0.2": non5 > 0.2,
            "plateau: |non-hit(1e4) - non-hit(1e5)| < 0.05": abs(non4 - non5) < 0.05,
        },
        f"non-hit {non4:.3f} -> {non5:.3f} on the same runs",
    )


def test_ac6_projected_map_hits_target_ball(capsys):
    checks, notes = {}, []
    for name in ("lemma1_alpha_gt1", "corollary1"):
        cfg = preset(name)
        horizon = max(cfg.ensemble.horizons)
        samples = hitting_time_td(
            cfg.projected, cfg.ensemble.base_seed, range(cfg.ensemble.runs), horizon
        )
        t_end, hit = events_from_samples(samples)
        fit = _dense_tail_fit(t_end, hit, horizon)
        audit = sampled_audit(cfg.projected, points=20_000, base_seed=9)
        checks[f"{name}: every run hits within 1e4"] = bool(hit.all())
        checks[f"{name}: geometric tail r2 >= 0.9"] = fit.semilog_slope < 0 and fit.semilog_r2 >= 0.9
        checks[f"{name}: map coefficient audit clean"] = audit.violations == 0
        notes.append(f"{name}: max T = {int(t_end.max())}, r2 = {fit.semilog_r2:.3f}")
    _verdict(capsys, "AC-6 projected recursions hit the target ball", checks, "; ".join(notes))


def test_ac7_walk_oracles(capsys):
    checks = {}

    # (i) simple +-1 first passage: censored mean keeps growing.
    cfg = preset("lemma2_walk")
    fp = first_passage_below(
        cfg.walk, cfg.threshold, cfg.ensemble.base_seed,
        range(cfg.ensemble.runs), max(cfg.ensemble.horizons),
    )
    cm4 = censored_mean(events_from_samples(fp, 10_000)[0])
    cm6 = censored_mean(events_from_samples(fp, 1_000_000)[0])
    checks["simple walk: censored mean >= 2x from 1e4 to 1e6"] = cm6 >= 2.0 * cm4

    # (ii) stretched increments with beta=2 sit in the same regime.
    st = stretched_first_passage(
        StretchedWalkSpec(beta=2.0, bound_m=1.0), 77, range(1000), 1_000_000
    )
    scm4 = censored_mean(events_from_samples(st, 10_000)[0])
    scm6 = censored_mean(events_from_samples(st, 1_000_000)[0])
    checks["stretched walk beta=2: censored mean >= 2x"] = scm6 >= 2.0 * scm4

    # (iii) ball-visit counts: unbounded growth in d=1, plateau in d=3.
    profiles = {}
    for var in ("d1", "d3"):
        cfg = preset("lemma4_recurrence", var)
        profiles[var] = recurrence_profile(
            cfg.walk, cfg.ball_radius, cfg.ensemble.horizons,
            cfg.ensemble.base_seed, range(cfg.ensemble.runs),
        )
    mv1 = profiles["d1"].mean_visits
    mv3 = profiles["d3"].mean_visits
    checks["d=1 visits grow with horizon"] = all(b > 1.5 * a for a, b in zip(mv1, mv1[1:]))
    checks["d=3 visits stabilize within 10%"] = abs(mv3[-1] - mv3[-2]) <= 0.10 * mv3[-2]

    _verdict(
        capsys,
        "AC-7 first-passage and recurrence oracles",
        checks,
        f"walk cm x{cm6 / cm4:.1f}, stretched cm x{scm6 / scm4:.1f}, "
        f"d1 visits {mv1[-1]:.0f} @1e5, d3 visits {mv3[-1]:.2f}",
    )


def _step_time(points, eps, mode):
    import time

    t0 = time.perf_counter()
    idx = NeighborIndex(points, eps, mode=mode)
    idx.neighbor_sums()
    return time.perf_counter() - t0


def test_ac8_engineering(capsys):
    checks = {}

    # (a) grid and brute force agree on random configurations.
    rng = np.random.default_rng(2024)
    mismatched = 0
    for _ in range(1000):
        n = int(rng.integers(2, 49))
        d = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.05, 1.0))
        pts = rng.uniform(-1.0, 1.0, size=(n, d))
        brute = NeighborIndex(pts, eps, mode="brute")
        grid = NeighborIndex(pts, eps, mode="grid")
        same = all(
            np.array_equal(np.sort(brute.query(i)), np.sort(grid.query(i)))
            for i in range(n)
        )
        mismatched += 0 if same else 1
    checks["grid == brute on 1000 random configs"] = mismatched == 0

    # (b) one grid step at n=1e4, d=2, eps=0.05 beats brute force 10x.
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(10_000, 2))
    # Both best of 3, so the heap state earlier tests left favours neither.
    t_brute = min(_step_time(pts, 0.05, "brute") for _ in range(3))
    t_grid = min(_step_time(pts, 0.05, "grid") for _ in range(3))
    checks["grid step >= 10x faster at n=1e4"] = t_brute >= 10.0 * t_grid

    # (c) ensembles are bit-identical across worker counts.
    cfg = scaled_preset(preset("thm1_bounded", "d2"), runs=64, horizon=5_000)
    runs, horizon = cfg.ensemble.runs, max(cfg.ensemble.horizons)
    one = run_ensemble(cfg.model, runs, horizon, cfg.ensemble.base_seed,
                       workers=1, extra_after_hit=50)
    eight = run_ensemble(cfg.model, runs, horizon, cfg.ensemble.base_seed,
                         workers=8, extra_after_hit=50)

    def key(s):
        return (s.run_index, s.hit, s.t_hit, s.horizon, s.end_value, s.base_seed)

    checks["bit-identical across workers 1 and 8"] = all(
        key(a) == key(b) for a, b in zip(one.samples, eight.samples)
    ) and np.array_equal(one.absorb_ok, eight.absorb_ok)

    _verdict(
        capsys,
        "AC-8 neighbor index and determinism engineering",
        checks,
        f"mismatches = {mismatched}, brute {t_brute:.2f}s vs grid {t_grid:.4f}s "
        f"({t_brute / t_grid:.0f}x)",
    )
