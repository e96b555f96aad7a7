"""The traced benchmark run, ``bench/run.py --trace 1``, of each workload
at seed 1 exits cleanly and ends in a well-formed result: its last line of
standard output is strict JSON, its outputs match their oracles, and it
holds every per-layer metric that ``BENCHMARK.json`` declares, each finite
and non-zero.  A binding of the tracer that no longer runs drops or zeroes
its metric, and fails here.  The step, switch-step and source-sample counts
are pinned as well.

The tracer counts source samples as calls of the waveforms' ``__call__``.
The engine calls each time-varying drive once per residual batch of up to
4,096 steps, on all of that batch's sample times, so ``edge_stream`` counts
32 calls (16 transients of 3,201 samples, two pulse trains each), not one
call per drive and step (102,432).  The count being non-zero is what shows
that the samples still pass through ``__call__``."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# engine.steps, device.ots_step_calls, waveforms.source_evals
COUNTS = {
    "edge_stream": (51200, 942, 32),
    "logic_tables": (80000, 26144, 168),
    "osc_long": (120000, 363, 4),
}


def _reject(constant: str):
    raise ValueError(f"non-finite JSON number {constant}")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    metrics = result["metrics"]
    for name in (m["name"] for m in SPEC["per_layer"]):
        assert name in metrics, f"{name} missing"
        value = metrics[name]["value"]
        assert math.isfinite(value) and value != 0, f"{name} = {value!r}"
    names = ("engine.steps", "device.ots_step_calls", "waveforms.source_evals")
    assert tuple(metrics[name]["value"] for name in names) == COUNTS[workload]
