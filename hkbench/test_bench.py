"""The benchmark's own test: tracing never changes a sample, checks pass.

    python -m pytest hkbench/test_bench.py

Each workload runs untraced at its operations' own worker counts and
traced at workers=1, on the default seed and on one other seed.  The digests must
be equal, every output check must pass, and every rebound hklab name
must be restored afterwards.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hklab.engine  # noqa: E402
import hklab.noise  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OTHER_SEED = 11


@pytest.mark.parametrize("seed", [None, OTHER_SEED])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_keeps_samples_and_checks_pass(workload, seed, tmp_path):
    ops = workloads.build(workload, seed)
    reference = workloads.load_reference()
    untraced = {op.name: workloads.execute(op, tmp_path) for op in ops}
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert hklab.engine.noise_block is not hklab.noise.noise_block
        traced = {op.name: workloads.execute(op, tmp_path, serial=True) for op in ops}
    assert hklab.engine.noise_block is hklab.noise.noise_block

    assert {k: workloads.digest(v) for k, v in traced.items()} == {
        k: workloads.digest(v) for k, v in untraced.items()
    }
    assert {layer for layer, *_ in tracer.spans} >= {"prng", "noise", "ensemble", "output"}
    for op in ops:
        assert workloads.check(op, untraced[op.name], reference.get(op.name)) == [], op.name
