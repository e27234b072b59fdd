"""The benchmark's workloads: which hklab calls each one makes, and checks.

A workload is a fixed list of operations.  An operation is one ensemble
or oracle call through hklab's public API, its ``summarize``, and its
artifacts written through ``hklab.output``.  Every call goes through a
module attribute (``ensemble.run_ensemble``, not a local import), so a
traced pass sees the same calls as an untraced one.

The workload seed is the base seed of every operation; without one,
each operation keeps its preset's ``base_seed``.  Why each workload was
chosen, and which roadmap item it should move, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from hklab import config, ensemble, enumeration, model, neighbors, output, presets, walks
from hklab import noise as noise_mod
from hklab import projected as projected_mod

WORKLOADS = ("simulator", "oracles")

# Post-hit steps of the absorbing audit, as in the acceptance suite.
AUDIT_STEPS = 1000

# Statistical checks allow this many standard errors.  Whoever runs the
# benchmark picks the seed, and a run makes about 40 comparisons: at
# 3 SE each fails 0.3% of seeds by chance, at 5 SE about 6e-7.
Z_CHECK = 5.0

# Agents of the large_n operation's start whose grid and brute neighbor
# sets are compared.
MEMBERSHIP_SAMPLE = 1000

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Outcome:
    """What one operation produced."""

    samples: list | None = None
    summary: ensemble.EnsembleSummary | None = None
    absorb_ok: np.ndarray | None = None
    profile: walks.RecurrenceProfile | None = None


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    call(op, workers) runs the hklab call and returns its Outcome;
    checks are functions (op, outcome) -> list of failure messages.
    workers is its pool size in an untraced pass; a traced pass runs
    every operation with one worker.
    """

    name: str
    cfg: config.ExperimentConfig
    fingerprint: str
    call: Callable
    checks: tuple = ()
    layer: str = "engine"  # where the call's steps run: engine, walks or projected
    workers: int = 1

    @property
    def runs(self) -> int:
        return self.cfg.ensemble.runs

    @property
    def horizon(self) -> int:
        return self.cfg.ensemble.horizon

    @property
    def base_seed(self) -> int:
        return self.cfg.ensemble.base_seed


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


def _ensemble_call(op: Op, workers: int) -> Outcome:
    ens = op.cfg.ensemble
    res = ensemble.run_ensemble(
        op.cfg.model,
        ens.runs,
        ens.horizon,
        ens.base_seed,
        workers=workers,
        extra_after_hit=ens.extra_after_hit,
    )
    return Outcome(samples=res.samples, summary=res.summary, absorb_ok=res.absorb_ok)


def _hitting(fn):
    """Call for an oracle that returns samples; summarized like the CLI does."""

    def call(op: Op, workers: int) -> Outcome:
        samples = fn(op)
        return Outcome(
            samples=samples, summary=ensemble.summarize(samples, op.horizon, op.base_seed)
        )

    return call


def _gap_spec(cfg: config.ExperimentConfig, dim: int):
    m = cfg.model
    n1, n2 = m.initial.sizes
    spec = walks.ClusterWalkSpec(n1=n1, n2=n2, noise=m.noise, dim=dim)
    gap0 = np.zeros(dim)
    gap0[0] = m.initial.separation_eps * m.epsilon
    return spec, gap0


def _gap_threshold(op: Op):
    spec, gap0 = _gap_spec(op.cfg, 1)
    return walks.cluster_gap_walk(
        spec, gap0, op.base_seed, range(op.runs), op.horizon, threshold=op.cfg.model.epsilon
    )


def _gap_radius(op: Op):
    spec, gap0 = _gap_spec(op.cfg, 2)
    return walks.cluster_gap_walk(
        spec, gap0, op.base_seed, range(op.runs), op.horizon, radius=op.cfg.model.epsilon
    )


def _first_passage(op: Op):
    return walks.first_passage_below(
        op.cfg.walk, op.cfg.threshold, op.base_seed, range(op.runs), op.horizon
    )


def _stretched(op: Op):
    return walks.stretched_first_passage(op.cfg.walk, op.base_seed, range(op.runs), op.horizon)


def _hitting_td(op: Op):
    return projected_mod.hitting_time_td(op.cfg.projected, op.base_seed, range(op.runs), op.horizon)


def _recurrence_call(op: Op, workers: int) -> Outcome:
    ens = op.cfg.ensemble
    profile = walks.recurrence_profile(
        op.cfg.walk, op.cfg.ball_radius, ens.horizons, ens.base_seed, range(ens.runs)
    )
    return Outcome(profile=profile)


# ---------------------------------------------------------------------------
# Checks (run outside the timed region)
# ---------------------------------------------------------------------------


def check_hits_within_epsilon(op: Op, out: Outcome) -> list[str]:
    eps = op.cfg.model.epsilon
    bad = sum(1 for s in out.samples if s.hit and not s.d_v_at_end <= eps)
    return [f"{bad} hits end with d_V > epsilon"] if bad else []


def check_absorbing(op: Op, out: Outcome) -> list[str]:
    bad = int(np.count_nonzero(~out.absorb_ok))
    return [f"{bad} absorbing-audit violations"] if bad else []


def check_exact_law(op: Op, out: Outcome) -> list[str]:
    """Monte Carlo survival against the enumerated law of the micro instance."""
    pmf, censored = enumeration.exact_stopping_law(op.cfg.model, op.horizon)
    t_end, _ = ensemble.events_from_samples(out.samples)
    times = list(range(op.horizon + 1))
    fails = []
    for t, frac in zip(times, enumeration.survival_points(pmf, censored, times)):
        p = float(frac)
        s_hat = float(np.mean(t_end >= t))
        se = math.sqrt(p * (1.0 - p) / t_end.size)
        if abs(s_hat - p) > Z_CHECK * se:
            fails.append(f"S({t}) = {s_hat:.5f}, exact {p:.5f} (SE {se:.5f})")
    return fails


def check_dominates_gap_walk(op: Op, out: Outcome) -> list[str]:
    """T_sim >= T_Q on shared streams: a run cannot sync before first contact."""
    walk = _gap_threshold(op)
    bad = sum(
        1 for s, w in zip(out.samples, walk) if s.hit and (not w.hit or w.t_hit > s.t_hit)
    )
    return [f"{bad} runs synchronize before the gap walk's first contact"] if bad else []


def check_grid_membership(op: Op, out: Outcome) -> list[str]:
    """Grid and brute neighbor sets agree on sampled agents of the start."""
    m = op.cfg.model
    x0 = m.initial.build(m.n, m.d, m.epsilon)
    grid = neighbors.NeighborIndex(x0, m.epsilon, mode="grid")
    brute = neighbors.NeighborIndex(x0, m.epsilon, mode="brute")
    _, deg = grid.neighbor_sums()
    agents = np.random.default_rng(op.base_seed).choice(m.n, MEMBERSHIP_SAMPLE, replace=False)
    bad = 0
    for i in agents:
        members = brute.query(int(i))
        if not np.array_equal(grid.query(int(i)), members) or deg[i] != members.size:
            bad += 1
    return [f"grid != brute membership for {bad} of {agents.size} agents"] if bad else []


def _end_within(limit: Callable[[Op], float]):
    def check(op: Op, out: Outcome) -> list[str]:
        lim = limit(op)
        bad = sum(1 for s in out.samples if s.hit and not s.end_value <= lim)
        return [f"{bad} hits end above the level {lim}"] if bad else []

    return check


# ---------------------------------------------------------------------------
# Run-steps, statistics and digests
# ---------------------------------------------------------------------------


def run_steps(op: Op, out: Outcome) -> int:
    """Runs advanced one step: t_hit plus the audit for hits, horizon if censored.

    A stretched-walk run that escaped (end value inf) was stopped at a
    step the sample does not record, so it counts zero.
    """
    if out.profile is not None:
        return out.profile.runs * int(out.profile.horizons[-1])
    extra = op.cfg.ensemble.extra_after_hit if op.layer == "engine" else 0
    total = 0
    for s in out.samples:
        if s.hit:
            total += s.t_end + extra
        elif op.layer == "engine" or math.isfinite(s.end_value):
            total += s.horizon
    return total


def statistics(out: Outcome) -> dict:
    """Summary statistics compared against the recorded reference."""
    if out.profile is not None:
        last = out.profile.visits[:, -1].astype(np.float64)
        return {"runs": int(last.size), "mean": float(last.mean()), "std": float(last.std())}
    t_end, hit = ensemble.events_from_samples(out.samples)
    return {
        "runs": int(t_end.size),
        "hit_fraction": float(hit.mean()),
        "mean": float(t_end.mean()),
        "std": float(t_end.std()),
    }


def compare_statistics(name: str, got: dict, ref: dict | None) -> list[str]:
    """Differences beyond Z_CHECK standard errors of two independent estimates."""
    if ref is None:
        return [f"no reference statistics recorded for {name}"]
    m = got["runs"]
    fails = []
    if "hit_fraction" in got:
        p = 0.5 * (got["hit_fraction"] + ref["hit_fraction"])
        se = math.sqrt(2.0 * max(p * (1.0 - p), 1.0 / m) / m)
        if abs(got["hit_fraction"] - ref["hit_fraction"]) > Z_CHECK * se:
            fails.append(f"hit fraction {got['hit_fraction']:.4f} vs {ref['hit_fraction']:.4f}")
    se = math.sqrt((got["std"] ** 2 + ref["std"] ** 2) / m)
    if abs(got["mean"] - ref["mean"]) > Z_CHECK * se:
        fails.append(f"mean {got['mean']:.4g} vs reference {ref['mean']:.4g}")
    return fails


def digest(out: Outcome) -> str:
    """sha256 over every sample (and audit flag, or visit count) of an outcome."""
    h = hashlib.sha256()
    if out.profile is not None:
        h.update(out.profile.visits.tobytes())
        h.update(repr(out.profile.scaled_end_norm.tolist()).encode())
        return h.hexdigest()
    for s in out.samples:
        end = s.d_v_at_end if hasattr(s, "d_v_at_end") else s.end_value
        h.update(f"{s.run_index},{int(s.hit)},{s.t_end},{end!r}\n".encode())
    if out.absorb_ok is not None:
        h.update(out.absorb_ok.tobytes())
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def write_artifacts(op: Op, out: Outcome, directory: Path) -> None:
    """samples.csv, survival.csv and summary.json, as ``hklab run`` writes them."""
    payload = {
        "tool": "hklab",
        "config_fingerprint": op.fingerprint,
        "label": op.cfg.label,
        "runs": op.runs,
        "base_seed": op.base_seed,
    }
    if out.profile is not None:
        payload["mean_visits"] = [float(v) for v in out.profile.mean_visits]
    else:
        summary = out.summary
        output.write_samples(directory / f"{op.name}.samples.csv", out.samples, op.fingerprint)
        output.write_survival(directory / f"{op.name}.survival.csv", summary.survival, op.fingerprint)
        payload.update(
            horizon=summary.horizon,
            hit_fraction=summary.hit_fraction,
            censored_mean=summary.censored_mean,
        )
        if out.absorb_ok is not None:
            payload["absorb_violations"] = int(np.count_nonzero(~out.absorb_ok))
    output.write_summary(directory / f"{op.name}.summary.json", payload)


# ---------------------------------------------------------------------------
# Workload definitions (set-up: build and validate every config)
# ---------------------------------------------------------------------------


def _scaled(cfg, runs: int, horizons: tuple, seed: int | None, extra: int | None = None):
    ens = cfg.ensemble
    return replace(
        cfg,
        ensemble=replace(
            ens,
            runs=runs,
            horizons=horizons,
            base_seed=ens.base_seed if seed is None else seed,
            extra_after_hit=ens.extra_after_hit if extra is None else extra,
        ),
    )


def _validated(
    name: str, cfg: config.ExperimentConfig, call, checks=(), layer="engine", workers=1
) -> Op:
    """The Op, after the config survives the same YAML round trip as ``hklab run``."""
    again = config.loads_config(config.dump_config(cfg), source=name)
    if again != cfg:
        raise config.ConfigError(f"{name}: config does not round-trip through YAML")
    return Op(name, cfg, config.config_fingerprint(cfg), call, tuple(checks), layer, workers)


def _two_cluster(seed):
    hk_checks = (check_hits_within_epsilon,)
    audited = hk_checks + (check_absorbing,)
    return [
        _validated(
            "thm2a_d1",
            _scaled(presets.preset("thm2a_d1"), 500, (1_000, 2_000), seed, AUDIT_STEPS),
            _ensemble_call,
            audited + (check_dominates_gap_walk,),
            workers=2,
        ),
        _validated(
            "thm2a_d2",
            _scaled(presets.preset("thm2a_d2"), 500, (1_000, 2_000), seed, AUDIT_STEPS),
            _ensemble_call,
            audited,
            workers=2,
        ),
        _validated(
            "thm2b_d3",
            _scaled(presets.preset("thm2b_d3"), 500, (1_000, 2_000), seed),
            _ensemble_call,
            hk_checks,
            workers=2,
        ),
    ]


def _micro_config(seed):
    # AC-1: two agents one unit apart in the bounded box, sign noise;
    # its law to horizon 3 enumerates exactly (12 noise bits).
    micro = model.ModelConfig(
        n=2,
        d=1,
        epsilon=1.0,
        space_mode="bounded",
        noise=noise_mod.NoiseSpec("rademacher_axes", 0.5),
        initial=model.InitialCondition("explicit", values=((-1.0,), (1.0,))),
    )
    return config.ExperimentConfig(
        scenario="hk",
        ensemble=config.EnsembleSettings(
            runs=50_000, horizons=(3,), base_seed=1 if seed is None else seed, extra_after_hit=10
        ),
        model=micro,
        label="ac1_micro",
    )


def _bounded_box(seed):
    checks = (check_hits_within_epsilon, check_absorbing)
    ops = [_validated("ac1_micro", _micro_config(seed), _ensemble_call, checks + (check_exact_law,))]
    # A run's audit keeps the whole batch stepping, so the slowest hit sets
    # the loop length.  Censoring at 300 steps (about 2 mean hitting times
    # of d2) bounds it near horizon + audit for every seed.
    for d in (1, 2, 3):
        cfg = _scaled(presets.preset("thm1_bounded", f"d{d}"), 100, (300,), seed, AUDIT_STEPS)
        ops.append(_validated(f"thm1_bounded_d{d}", cfg, _ensemble_call, checks))
    return ops + [_large_n(seed)]


def _epsilon(op: Op) -> float:
    return op.cfg.model.epsilon


def _oracles(seed):
    stretched = config.ExperimentConfig(
        scenario="walk",
        ensemble=config.EnsembleSettings(runs=1000, horizons=(100_000,), base_seed=77),
        walk=walks.StretchedWalkSpec(beta=2.0, bound_m=1.0),
        walk_kind="stretched",
        label="stretched_beta2",
    )
    ops = [
        _validated(
            "gap_walk_d1",
            _scaled(presets.preset("thm2a_d1"), 500, (10_000,), seed),
            _hitting(_gap_threshold),
            (_end_within(_epsilon),),
            "walks",
        ),
        _validated(
            "gap_walk_d2",
            _scaled(presets.preset("thm2a_d2"), 500, (5_000,), seed),
            _hitting(_gap_radius),
            (_end_within(_epsilon),),
            "walks",
        ),
        _validated(
            "first_passage",
            _scaled(presets.preset("lemma2_walk"), 1000, (100_000,), seed),
            _hitting(_first_passage),
            (_end_within(lambda op: op.cfg.threshold),),
            "walks",
        ),
        _validated(
            "stretched",
            _scaled(stretched, 1000, (100_000,), seed),
            _hitting(_stretched),
            (_end_within(lambda op: 0.0),),
            "walks",
        ),
    ]
    for var in ("d1", "d3"):
        cfg = _scaled(presets.preset("lemma4_recurrence", var), 500, (100, 1_000, 10_000), seed)
        ops.append(_validated(f"recurrence_{var}", cfg, _recurrence_call, (), "walks"))
    for name in ("lemma1_alpha_gt1", "corollary1"):
        cfg = _scaled(presets.preset(name), 1000, (10_000,), seed)
        r0 = (_end_within(lambda op: op.cfg.projected.r0),)
        ops.append(_validated(f"td_{name}", cfg, _hitting(_hitting_td), r0, "projected"))
    return ops


def _large_n(seed):
    # AC-8(b) shape: n = 10^4 agents uniform in the box, d = 2, eps = 0.05,
    # the only operation on the grid-indexed path.  50 steps keep per-step
    # grid neighbor sums, not the one-time O(n^2) scan of a censored run at
    # its horizon, the larger share of the time.
    seed = 7 if seed is None else seed
    big = model.ModelConfig(
        n=10_000,
        d=2,
        epsilon=0.05,
        space_mode="bounded",
        noise=noise_mod.NoiseSpec("uniform_ball", 0.025),
        initial=model.InitialCondition("uniform_box", seed=seed),
    )
    cfg = config.ExperimentConfig(
        scenario="hk",
        ensemble=config.EnsembleSettings(runs=1, horizons=(50,), base_seed=seed),
        model=big,
        label="large_n",
    )
    checks = (check_hits_within_epsilon, check_grid_membership)
    return _validated("large_n", cfg, _ensemble_call, checks)


def _simulator(seed):
    # The two-cluster ensembles at two workers, then the bounded-box ones
    # (large_n last) at one.
    return _two_cluster(seed) + _bounded_box(seed)


_BUILDERS = {"simulator": _simulator, "oracles": _oracles}


def build(workload: str, seed: int | None) -> list[Op]:
    """The operations of a workload; validates every config."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; options are {WORKLOADS}")
    return _BUILDERS[workload](seed)


def execute(op: Op, directory: Path, serial: bool = False) -> Outcome:
    """One timed operation: the call, its summary, and its artifacts.

    serial runs it with one worker whatever op.workers says.
    """
    out = op.call(op, 1 if serial else op.workers)
    write_artifacts(op, out, directory)
    return out


def check(op: Op, out: Outcome, reference: dict | None) -> list[str]:
    """Every output check of an operation, the reference statistics included."""
    fails = []
    for fn in op.checks:
        fails += fn(op, out)
    return fails + compare_statistics(op.name, statistics(out), reference)
