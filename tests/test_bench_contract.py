"""The benchmark's result line: bench/run.py must end with one JSON object
whose metric names are the ones BENCHMARK.json declares, in its order.

A run that exits 0 but whose last line is not that object counts as
malformed output, so this pins the contract on every workload (one
repetition, --seconds 0): on cohomology-large at both trace settings, and
traced on the other two, where a layer whose return value lost its shape
would drop its per-layer metrics from the line.  A traced cohomology-large
run at another seed for two seconds checks that the line survives several
traced repetitions too.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def check_result_line(workload, trace, kind, seed=0, seconds=0):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert list(result["metrics"]) == [m["name"] for m in declared]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_the_declared_metrics(trace, kind):
    check_result_line("cohomology-large", trace, kind)


@pytest.mark.parametrize("workload", ["deformation", "interactive"])
def test_traced_result_line_matches_the_declared_metrics(workload):
    check_result_line(workload, 1, "per_layer")


def test_traced_result_line_after_several_repetitions():
    check_result_line("cohomology-large", 1, "per_layer", seed=1, seconds=2)
