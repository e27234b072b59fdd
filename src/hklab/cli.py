"""Command line experiment runner.

Subcommands:
  validate <config>              parse + validate, report every problem
  run <config> [--out DIR]      execute and emit samples/survival/summary
  preset <name> [--emit-config]  named desk-scale configurations
  enumerate <config>             exact stopping law for sign-noise micro-instances

Exit codes: 0 success, 2 parse error (config or command line), 3
validation error, 4 runtime error, 5 resource refusal.  The
HKLAB_WORKERS environment variable overrides the config worker count;
an explicit --workers flag beats both.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    config_fingerprint,
    dump_config,
    load_config,
)
from .ensemble import (
    EnsembleError,
    censored_mean_growth,
    run_ensemble,
    summarize,
)
from .enumeration import EnumerationTooLarge, exact_stopping_law, outcome_bits
from .output import write_samples, write_summary, write_survival
from .presets import PRESET_NAMES, preset, preset_variants
from .projected import hitting_time_td
from .walks import first_passage_below, recurrence_profile, stretched_first_passage

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4
EXIT_RESOURCE = 5

ENV_WORKERS = "HKLAB_WORKERS"


def _positive_int(text: str) -> int:
    """A worker count from --workers or HKLAB_WORKERS: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _resolve_workers(cfg: ExperimentConfig, flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get(ENV_WORKERS)
    if env is not None:
        try:
            return _positive_int(env)
        except argparse.ArgumentTypeError as err:
            raise ConfigError(f"{ENV_WORKERS}={err}", kind="parse") from None
    return cfg.ensemble.workers


def _plateau(points) -> bool | None:
    """Hit fractions at the last two horizons within 0.05 of each other."""
    if len(points) < 2:
        return None
    return bool(abs(points[-1].hit_fraction - points[-2].hit_fraction) < 0.05)


def _sanitize(value):
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def _header(cfg: ExperimentConfig, fingerprint: str) -> dict:
    """The provenance fields every summary.json starts with."""
    return {
        "tool": "hklab",
        "tool_version": __version__,
        "config_fingerprint": fingerprint,
        "label": cfg.label,
        "scenario": cfg.scenario,
    }


def _run_hitting(cfg: ExperimentConfig, workers: int, out: Path) -> int:
    ens = cfg.ensemble
    horizon = ens.horizon
    incomplete = False
    absorb = None
    if cfg.scenario == "hk":
        try:
            result = run_ensemble(
                cfg.model,
                ens.runs,
                horizon,
                ens.base_seed,
                workers=workers,
                extra_after_hit=ens.extra_after_hit,
            )
            samples, summary, absorb = result.samples, result.summary, result.absorb_ok
        except EnsembleError as err:
            if err.partial is None:
                raise
            print(f"runtime error: {err}", file=sys.stderr)
            samples, summary = err.partial.samples, err.partial.summary
            incomplete = True
    else:
        runs = np.arange(ens.runs)
        if cfg.scenario == "projected":
            samples = hitting_time_td(cfg.projected, ens.base_seed, runs, horizon)
        elif cfg.walk_kind == "first_passage":
            samples = first_passage_below(cfg.walk, cfg.threshold, ens.base_seed, runs, horizon)
        else:
            samples = stretched_first_passage(cfg.walk, ens.base_seed, runs, horizon)
        summary = summarize(samples, horizon, ens.base_seed)

    fingerprint = config_fingerprint(cfg)
    growth = censored_mean_growth(samples, ens.horizons)
    fit = summary.tail_fit
    payload = {
        **_header(cfg, fingerprint),
        "runs": summary.runs,
        "horizon": summary.horizon,
        "base_seed": summary.base_seed,
        "hit_fraction": summary.hit_fraction,
        "censored_mean": summary.censored_mean,
        "tail_fit": None if fit is None else {**asdict(fit), "hint": fit.hint},
        "horizons": [
            {
                "horizon": g.horizon,
                "hit_fraction": g.hit_fraction,
                "censored_mean": g.censored_mean,
            }
            for g in growth
        ],
        "plateau": _plateau(growth),
        "incomplete": incomplete,
    }
    if absorb is not None:
        payload["absorb_violations"] = int(np.count_nonzero(~absorb))
    write_samples(out / "samples.csv", samples, fingerprint)
    write_survival(out / "survival.csv", summary.survival, fingerprint)
    write_summary(out / "summary.json", payload)

    slopes = ""
    if fit is not None:
        slopes = f" semilog_slope={fit.semilog_slope:.3g} loglog_slope={fit.loglog_slope:.3g}"
    flag = " plateau" if payload["plateau"] else ""
    state = " INCOMPLETE" if incomplete else ""
    print(
        f"{cfg.label or cfg.scenario}: hit_fraction={summary.hit_fraction:.4f} "
        f"censored_mean={summary.censored_mean:.2f}{slopes}{flag}{state}"
    )
    return EXIT_RUNTIME if incomplete else EXIT_OK


def _run_recurrence(cfg: ExperimentConfig, out: Path) -> int:
    ens = cfg.ensemble
    profile = recurrence_profile(
        cfg.walk, cfg.ball_radius, ens.horizons, ens.base_seed, np.arange(ens.runs)
    )
    payload = {
        **_header(cfg, config_fingerprint(cfg)),
        "kind": "recurrence",
        "runs": profile.runs,
        "ball_radius": profile.ball_radius,
        "base_seed": ens.base_seed,
        "profile": {
            "horizons": [int(h) for h in profile.horizons],
            "mean_visits": [float(v) for v in profile.mean_visits],
            "scaled_end_norm": [_sanitize(float(v)) for v in profile.scaled_end_norm],
        },
        "incomplete": False,
    }
    write_summary(out / "summary.json", payload)
    pairs = ", ".join(
        f"{int(h)}:{v:.2f}" for h, v in zip(profile.horizons, profile.mean_visits)
    )
    print(f"{cfg.label or 'recurrence'}: mean_visits {pairs}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(
        f"OK scenario={cfg.scenario} label={cfg.label or '-'} "
        f"fingerprint={config_fingerprint(cfg)[:16]}"
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    workers = _resolve_workers(cfg, args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.scenario == "walk" and cfg.walk_kind == "recurrence":
        return _run_recurrence(cfg, out)
    return _run_hitting(cfg, workers, out)


def _cmd_preset(args) -> int:
    try:
        cfg = preset(args.name, args.variant)
    except KeyError as err:
        print(err.args[0], file=sys.stderr)
        return EXIT_VALIDATION
    if args.emit_config:
        sys.stdout.write(dump_config(cfg))
        return EXIT_OK
    names = ", ".join(v or "(single)" for v in preset_variants(args.name))
    print(f"{cfg.label}: scenario={cfg.scenario} variants=[{names}]")
    print(
        f"  runs={cfg.ensemble.runs} horizons={list(cfg.ensemble.horizons)} "
        f"base_seed={cfg.ensemble.base_seed} fingerprint={config_fingerprint(cfg)[:16]}"
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    cfg = load_config(args.config)
    if cfg.scenario != "hk":
        raise ConfigError(
            "enumeration needs an hk scenario", problems=["scenario: must be hk"]
        )
    model = cfg.model
    horizon = cfg.ensemble.horizon
    pmf, censored = exact_stopping_law(model, horizon)
    bits = outcome_bits(model.n, model.d, horizon)
    print(f"exact law of min(T, {horizon}) over 2^{bits} outcomes:")
    for t in sorted(pmf):
        frac = pmf[t]
        if frac == 0:
            continue
        print(f"  P(T = {t:>3d}) = {str(frac):>12s} = {float(frac):.6f}")
    print(f"  P(T > {horizon:>3d}) = {str(censored):>12s} = {float(censored):.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hklab",
        description="Quasi-synchronization stopping times for noisy bounded-confidence dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"hklab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run an experiment and write outputs")
    p.add_argument("config")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--workers", type=_positive_int, default=None, help="override worker count")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("preset", help="show or emit a named configuration")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--variant", default=None, help="variant key for multi-shape presets")
    p.add_argument(
        "--emit-config", action="store_true", help="print the config as YAML to stdout"
    )
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("enumerate", help="exact stopping law by exhaustive sign-noise enumeration")
    p.add_argument("config")
    p.set_defaults(func=_cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(err.report(), file=sys.stderr)
        return EXIT_PARSE if err.kind == "parse" else EXIT_VALIDATION
    except EnumerationTooLarge as err:
        print(str(err), file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("out of memory; reduce runs or horizon", file=sys.stderr)
        return EXIT_RESOURCE
    except (EnsembleError, RuntimeError, ValueError, OSError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
