"""Workload process of the benchmark; run.py starts it with BLAS pinned.

    python3 hkbench/measure.py setup  --workload W [--seed N]
    python3 hkbench/measure.py run    --workload W [--seed N] --seconds S --trace 0|1
    python3 hkbench/measure.py record

``setup`` imports hklab, builds and validates every config of the
workload, prints ``ready`` and exits; run.py times it from spawn to that
line.  ``run`` repeats the workload's operation list until ``--seconds``
have passed, checks the outputs outside the timed region, and prints
one JSON line.  ``record`` rewrites reference.json from the default
seeds; do that only when a change is meant to move the statistics, and
say so.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".hkbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hklab  # noqa: E402

if not Path(hklab.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"hklab imported from {hklab.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Larger of SELF and CHILDREN ru_maxrss (KiB on Linux), in MB."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


class Rep:
    """One pass over a workload's operations; serial runs each with one worker."""

    def __init__(self, ops, directory: Path, serial: bool = False):
        self.outcomes = {}
        self.errors = {}
        self.op_wall_s, self.op_cpu_s = {}, {}
        cpu0, wall0 = _cpu_seconds(), perf_counter()
        for op in ops:
            op_cpu0, op_wall0 = _cpu_seconds(), perf_counter()
            try:
                self.outcomes[op.name] = workloads.execute(op, directory, serial)
            except Exception:  # a failed operation is counted, the run goes on
                self.errors[op.name] = traceback.format_exc()
                print(self.errors[op.name], file=sys.stderr)
            self.op_wall_s[op.name] = perf_counter() - op_wall0
            self.op_cpu_s[op.name] = _cpu_seconds() - op_cpu0
        self.wall_s = perf_counter() - wall0
        self.cpu_s = _cpu_seconds() - cpu0
        self.digests = {name: workloads.digest(out) for name, out in self.outcomes.items()}
        self.run_steps = sum(
            workloads.run_steps(op, self.outcomes[op.name]) for op in ops if op.name in self.outcomes
        )


def _median(values):
    return float(statistics.median(values))


def _pool_use(ops, reps) -> tuple[float, float]:
    """(efficiency, idle seconds) of the pooled operations, medians over reps.

    Efficiency is CPU seconds over workers x wall seconds, summed over the
    operations that run with more than one worker (all of them, if none
    does); idle is the difference of the two sums.
    """
    pooled = [op for op in ops if op.workers > 1] or ops
    busy = [sum(r.op_cpu_s[op.name] for op in pooled) for r in reps]
    slots = [sum(op.workers * r.op_wall_s[op.name] for op in pooled) for r in reps]
    return _median(busy) / _median(slots), _median(slots) - _median(busy)


def _environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                index / "size"
            ).read_text().strip()
        except OSError:
            continue
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "git_commit": commit,
    }


def _check(ops, rep: Rep, reps, reference: dict) -> dict:
    """Failure messages per operation; empty lists mean the operation passed."""
    failures = {}
    for op in ops:
        if op.name in rep.errors:
            failures[op.name] = ["raised: " + rep.errors[op.name].strip().splitlines()[-1]]
            continue
        fails = workloads.check(op, rep.outcomes[op.name], reference.get(op.name))
        if len({r.digests.get(op.name) for r in reps}) != 1:
            fails.append("samples differ between repetitions (traced or not, any workers)")
        failures[op.name] = fails
    return failures


def _layer_metrics(tracer: tracing.Tracer, ops, rep: Rep) -> dict:
    own = tracer.self_times()
    counts = tracer.counts
    steps = {"engine": 0, "walks": 0, "projected": 0}
    for op in ops:
        if op.name in rep.outcomes:
            steps[op.layer] += workloads.run_steps(op, rep.outcomes[op.name])

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m = {
        "prng.self_s": own.get("prng", 0.0),
        "prng.uniforms": counts["prng.uniforms"],
        "prng.uniforms_per_s": per(counts["prng.uniforms"], own.get("prng", 0.0)),
        "prng.run_blocks": counts["prng.run_blocks"],
        "noise.self_s": own.get("noise", 0.0),
        "noise.draws": counts["noise.draws"],
        "noise.draws_per_s": per(counts["noise.draws"], own.get("noise", 0.0)),
        "noise.max_block_mb": tracer.maxima.get("noise.max_block_mb", 0.0),
    }
    for family in ("uniform_ball", "uniform_cube", "rademacher_axes"):
        m[f"noise.{family}.self_s"] = own.get(f"noise.{family}", 0.0)
    build_s, sums_s = own.get("neighbors.build", 0.0), own.get("neighbors.sums", 0.0)
    m.update(
        {
            "engine.self_s": own.get("engine", 0.0),
            "engine.run_steps": steps["engine"],
            "engine.run_steps_drawn": counts["engine.steps_drawn"],
            "engine.useful_step_ratio": per(steps["engine"], counts["engine.steps_drawn"]),
            "engine.ns_per_run_step": per(own.get("engine", 0.0), steps["engine"], 1e9),
            "neighbors.build_s": build_s,
            "neighbors.sums_s": sums_s,
            "neighbors.agent_queries": counts["neighbors.agent_queries"],
            "neighbors.ns_per_agent": per(build_s + sums_s, counts["neighbors.agent_queries"], 1e9),
            "ensemble.self_s": own.get("ensemble", 0.0),
            "ensemble.summarize_s": tracer.total_time("ensemble", "summarize"),
            "ensemble.samples": counts["ensemble.samples"],
            "walks.self_s": own.get("walks", 0.0),
            "walks.walk_steps": steps["walks"],
            "walks.walk_steps_drawn": counts["walks.steps_drawn"],
            "walks.useful_step_ratio": per(steps["walks"], counts["walks.steps_drawn"]),
            "projected.self_s": own.get("projected", 0.0),
            "projected.run_steps": steps["projected"],
            "projected.ns_per_run_step": per(own.get("projected", 0.0), steps["projected"], 1e9),
            "output.self_s": own.get("output", 0.0),
            "output.rows": counts["output.rows"],
            "model.calls": counts["model.calls"],
            "model.self_s": own.get("model", 0.0),
        }
    )
    return m


def _run(args) -> dict:
    ops = workloads.build(args.workload, args.seed)
    reference = workloads.load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="artifacts-", dir=OUT_DIR))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "workers": {op.name: op.workers for op in ops},
    }
    try:
        start = perf_counter()
        reps, extra = [], []
        if not args.trace:
            while not reps or perf_counter() - start < args.seconds:
                reps.append(Rep(ops, directory))
            last = reps[-1]
        else:
            # Spans are only seen in this process, so both passes of the
            # overhead pair run with workers=1.  A separate pass at the
            # operations' own worker counts gives the parallel efficiency.
            pooled = any(op.workers > 1 for op in ops)
            parallel = Rep(ops, directory) if pooled else None
            traced_reps, layer = [], []
            while not traced_reps or perf_counter() - start < args.seconds:
                reps.append(Rep(ops, directory, serial=True))
                tracer = tracing.Tracer()
                with tracing.traced(tracer):
                    traced_reps.append(Rep(ops, directory, serial=True))
                layer.append(_layer_metrics(tracer, ops, traced_reps[-1]))
            last = traced_reps[-1]
            extra = traced_reps + ([parallel] if parallel else [])
            metrics = {k: _median([m[k] for m in layer]) for k in layer[0]}
            efficiency, idle = _pool_use(ops, [parallel] if parallel else reps)
            metrics["ensemble.parallel_efficiency"] = efficiency
            metrics["ensemble.worker_idle_s"] = idle
            metrics["trace.overhead_frac"] = (
                _median([r.wall_s for r in traced_reps]) / _median([r.wall_s for r in reps]) - 1.0
            )
            result["layer_metrics"] = metrics
            tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        executions = len(reps) + len(extra)
        failures = _check(ops, last, reps + extra, reference)
        result.update(
            reps=len(reps),
            rep_wall_s=[r.wall_s for r in reps],
            rep_cpu_s=[r.cpu_s for r in reps],
            op_wall_s={op.name: _median([r.op_wall_s[op.name] for r in reps]) for op in ops},
            run_steps=last.run_steps,
            peak_rss_mb=_peak_rss_mb(),
            ops_attempted=len(ops) * executions,
            ops_failed=sum(bool(f) for f in failures.values()) * executions,
            failures=failures,
            digests=last.digests,
            reference_digests_match={
                op.name: reference.get(op.name, {}).get("digest") == last.digests.get(op.name)
                for op in ops
            },
            environment=_environment(),
        )
        return result
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _record() -> None:
    """Statistics and digests of every operation at the default seeds."""
    OUT_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="record-", dir=OUT_DIR))
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            ops = workloads.build(name, None)
            rep = Rep(ops, directory, serial=True)
            if rep.errors:
                sys.exit(f"{name}: {sorted(rep.errors)} raised")
            for op in ops:
                stats = workloads.statistics(rep.outcomes[op.name])
                reference[op.name] = {**stats, "digest": rep.digests[op.name]}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "record"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "record":
        _record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.mode == "setup":
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    print(json.dumps(_run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
