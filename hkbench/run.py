"""hklab benchmark: one workload, end-to-end or per-layer metrics.

    python3 hkbench/run.py --workload simulator --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; hklab is imported from ./src.
With --trace 0 it prints the end-to-end metrics (wall_s, cpu_s,
run_steps_per_s, peak_rss_mb, setup_s, ops_ok_frac); with --trace 1 the
per-layer metrics of a traced pass.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics; the line before it carries the environment, sample digests
and check failures.  README.md lists every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulator", "oracles")

# Fresh interpreters timed for setup_s, half before and half after the
# workload process so that both ends of the run are sampled; the median
# is reported.
SETUP_PROBES = 8

# Every process this benchmark starts must end within this budget.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "run_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ops_ok_frac": "frac",
}

LAYER_UNITS = {
    "prng.self_s": "s",
    "prng.uniforms": "count",
    "prng.uniforms_per_s": "1/s",
    "prng.run_blocks": "count",
    "noise.self_s": "s",
    "noise.draws": "count",
    "noise.draws_per_s": "1/s",
    "noise.uniform_ball.self_s": "s",
    "noise.uniform_cube.self_s": "s",
    "noise.rademacher_axes.self_s": "s",
    "noise.max_block_mb": "MB",
    "engine.self_s": "s",
    "engine.run_steps": "count",
    "engine.run_steps_drawn": "count",
    "engine.useful_step_ratio": "frac",
    "engine.ns_per_run_step": "ns",
    "neighbors.build_s": "s",
    "neighbors.sums_s": "s",
    "neighbors.agent_queries": "count",
    "neighbors.ns_per_agent": "ns",
    "ensemble.self_s": "s",
    "ensemble.summarize_s": "s",
    "ensemble.samples": "count",
    "ensemble.parallel_efficiency": "frac",
    "ensemble.worker_idle_s": "s",
    "walks.self_s": "s",
    "walks.walk_steps": "count",
    "walks.walk_steps_drawn": "count",
    "walks.useful_step_ratio": "frac",
    "projected.self_s": "s",
    "projected.run_steps": "count",
    "projected.ns_per_run_step": "ns",
    "output.self_s": "s",
    "output.rows": "count",
    "model.calls": "count",
    "model.self_s": "s",
    "trace.overhead_frac": "frac",
}


def _env() -> dict:
    """BLAS pinned to one thread, so workers x threads <= cores."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
        cwd=ROOT,
        start_new_session=True,
    )


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Remaining stdout of proc; kills its whole process group past the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{proc.args[2:]} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"{proc.args[2:]} exited with code {proc.returncode}")
    return out


def _setup_seconds(workload: str, seed_args: list[str], deadline: float, probes: int) -> list[float]:
    """Spawn-to-ready time of fresh interpreters that build the workload's configs."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        proc = _spawn(["setup", "--workload", workload, *seed_args])
        line = proc.stdout.readline()
        times.append(perf_counter() - t0)
        _finish(proc, deadline)
        if line.strip() != "ready":
            raise SystemExit(f"setup probe for {workload} did not report ready")
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="default: the presets' base seeds")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "hklab" / "__init__.py").is_file():
        print(f"no hklab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    seed_args = [] if args.seed is None else ["--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = _setup_seconds(args.workload, seed_args, deadline, probes)
    proc = _spawn(
        ["run", "--workload", args.workload, *seed_args,
         "--seconds", str(args.seconds), "--trace", str(args.trace)]
    )
    res = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    setup += _setup_seconds(args.workload, seed_args, deadline, probes)

    attempted, failed = res["ops_attempted"], res["ops_failed"]
    if args.trace:
        metrics = {k: _metric(res["layer_metrics"][k], u) for k, u in LAYER_UNITS.items()}
    else:
        wall = statistics.median(res["rep_wall_s"])
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(res["rep_cpu_s"]),
            "run_steps_per_s": res["run_steps"] / wall,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: _metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    detail = {k: v for k, v in res.items() if k != "layer_metrics"}
    detail["setup_probe_s"] = setup
    print(json.dumps(detail))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
