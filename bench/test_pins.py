"""Checks of the benchmark's own answers and gates.

    python3 -m pytest -q bench/test_pins.py

The pinned H dimensions are recomputed from sympy ranks of the coboundary
matrices, and again in seeded bases, where they must not change.  The
gates must reject a report that disagrees with a pin, and the deformation
oracle must agree with the library on a known trivial deformation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from superleibniz.algebra import adjoint_module, zero_module  # noqa: E402
from superleibniz.cli import main  # noqa: E402
from superleibniz.cohomology import cohomology_table, delta_matrix  # noqa: E402
from superleibniz.fileio import save_algebra, save_deformation  # noqa: E402

PINS = workloads.load_pins()
SMALL = ("nonlie3", "abelian(1,1)", "abelian(2,1)", "free(V0,2)", "free(V1,3)", "m11")


def _module(alg, which):
    return adjoint_module(alg) if which == "self" else zero_module(alg)


def _sympy_rank(mat) -> int:
    if mat.rows == 0 or mat.cols == 0:
        return 0
    return sympy.Matrix(mat.rows, mat.cols,
                        lambda i, j: sympy.Rational(mat.entries[i][j].numerator,
                                                    mat.entries[i][j].denominator)).rank()


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("which", ("self", "zero"))
def test_pinned_h_matches_sympy_rank(name, which):
    alg = inputs.standard_algebra(name)
    mod = _module(alg, which)
    max_n = 2
    for parity in (0, 1):
        prev_rank = 0
        for n in range(max_n + 1):
            mat = delta_matrix(alg, mod, n, parity)
            r = _sympy_rank(mat)
            dim_c = workloads.cochain_dim(list(alg.space.parities),
                                          list(mod.space.parities), n, parity)
            assert mat.cols == dim_c
            assert dim_c - r - prev_rank == PINS["cohomology"][f"{name}|{which}"][n][parity]
            prev_rank = r


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", SMALL)
def test_pinned_h_invariant_under_seeded_basis(name, seed):
    alg, _ = inputs.seeded_algebra(name, seed)
    tab = cohomology_table(alg, adjoint_module(alg), 2)
    assert [[tab.dim_h(n, 0), tab.dim_h(n, 1)] for n in range(3)] == \
        PINS["cohomology"][f"{name}|self"][:3]


def _cohomology_report(tmp_path, name, which, max_n):
    alg, _ = inputs.seeded_algebra(name, 3)
    path = tmp_path / "alg.json"
    save_algebra(alg, str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cohomology", str(path), "--module", which, "--max-n", str(max_n),
                     "--format", "json"])
    return alg, code, out.getvalue()


def test_gate_rejects_a_corrupted_pin(tmp_path):
    alg, code, out = _cohomology_report(tmp_path, "m11", "self", 2)
    parities = list(alg.space.parities)
    pinned = PINS["cohomology"]["m11|self"]
    good = workloads.gate_cohomology(parities, "self", 2, pinned, False)
    assert good(code, out, None) == []
    corrupted = json.loads(json.dumps(pinned))
    corrupted[2][0] += 1
    bad = workloads.gate_cohomology(parities, "self", 2, corrupted, False)
    assert any("dim_h(2,even)" in p for p in bad(code, out, None))


def test_gate_rejects_a_broken_identity(tmp_path):
    alg, code, out = _cohomology_report(tmp_path, "nonlie3", "zero", 2)
    rep = json.loads(out)
    row = rep["table"][2]
    row["dim_z"] += 1
    row["dim_b"] += 1
    gate = workloads.gate_cohomology(list(alg.space.parities), "zero", 2,
                                     PINS["cohomology"]["nonlie3|zero"], False)
    assert gate(code, json.dumps(rep), None) != []


def test_oracle_agrees_with_the_library(tmp_path):
    from superleibniz.deformation import check_deformation
    alg, _ = inputs.seeded_algebra("m11", 4)
    rng = random.Random(0)
    trivial, zero = inputs.trivial_deformation(alg, 3, rng)
    save_algebra(alg, str(tmp_path / "a.json"))
    save_deformation(trivial, str(tmp_path / "d.json"))
    data = oracle.AlgebraData(str(tmp_path / "a.json"))
    bad = oracle.failing_orders(data, oracle.deformation_series(data, str(tmp_path / "d.json")), 6)
    strict = check_deformation(trivial)
    assert strict.ok == (not bad)
    if bad:
        assert strict.violations[0]["order"] == bad[0]
    assert all(r > 3 for r in bad)  # valid as a jet mod t**4
    # the undeformed bracket is not carried to a nonzero trivial deformation
    # by the identity
    assert not oracle.maps_zero_to(data, oracle.deformation_series(
        data, str(tmp_path / "d.json")), {})


def test_benchmark_json_lists_what_the_runs_report():
    import run
    from spans import PER_LAYER
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    fake = {"walls": {False: [1.0]}, "job_medians": [0.1, 0.2]}
    e2e = run.end_to_end_metrics(fake, [0.5])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in e2e.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
