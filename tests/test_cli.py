import io
import contextlib
import json
import pathlib

import pytest

from superleibniz.cli import main, render_text
from superleibniz.fileio import canonical_json, load_algebra

GOLDEN = pathlib.Path(__file__).parent / "golden"

ALG = str(GOLDEN / "nonlie3.json")
ABELIAN = str(GOLDEN / "abelian11.json")
COCYCLE = str(GOLDEN / "cocycle_h.json")
NONCOCYCLE = str(GOLDEN / "noncocycle.json")
DEFORM_BAD = str(GOLDEN / "deform_zz_to_x.json")
DEFORM_ZERO = str(GOLDEN / "deform_zero2.json")
DEFORM_TRIVIAL = str(GOLDEN / "deform_trivial2.json")


def run(args):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(args)
    return code, buf.getvalue(), err.getvalue()


GOLDEN_CASES = [
    ("validate_nonlie3", ["validate", ALG], 0),
    ("cohomology_nonlie3", ["cohomology", ALG, "--max-n", "2"], 0),
    ("cohomology_abelian11",
     ["cohomology", ABELIAN, "--max-n", "1", "--module", "zero"], 0),
    ("derivations_nonlie3", ["derivations", ALG], 0),
    ("extend_cocycle", ["extend", ALG, "--cocycle", COCYCLE], 0),
    ("deform_check_zz",
     ["deform", "check", ALG, "--deformation", DEFORM_BAD], 1),
    ("deform_extend_zero",
     ["deform", "extend", ALG, "--deformation", DEFORM_ZERO, "--order", "1"], 0),
    ("deform_equiv_trivial",
     ["deform", "equiv", ALG, "--deformation", DEFORM_ZERO,
      "--deformation", DEFORM_TRIVIAL], 0),
]


@pytest.mark.parametrize("name,args,expect_code", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs(name, args, expect_code):
    code, out, _ = run(args + ["--format", "text"])
    assert code == expect_code
    assert out == (GOLDEN / f"out_{name}.txt").read_text()
    code, out, _ = run(args + ["--format", "json"])
    assert code == expect_code
    assert out == (GOLDEN / f"out_{name}.json").read_text()


@pytest.mark.parametrize("name,args,expect_code", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_text_and_json_carry_identical_data(name, args, expect_code):
    _, text, _ = run(args + ["--format", "text"])
    _, js, _ = run(args + ["--format", "json"])
    assert render_text(json.loads(js)) == text


def test_validate_reports_is_lie():
    _, out, _ = run(["validate", ABELIAN, "--format", "json"])
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["is_lie"] is True


def test_validate_counterexample_and_exit_code(tmp_path):
    doc = json.loads(pathlib.Path(ALG).read_text())
    doc["brackets"].append({"left": "z", "right": "z",
                            "value": [{"label": "z", "coeff": "1"}]})
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_json(doc))
    code, out, _ = run(["validate", str(bad), "--format", "json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fail"
    assert rep["grading"]["violations"][0]["pair"] == ["z", "z"]


def test_parse_error_exit_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{")
    code, out, err = run(["validate", str(p)])
    assert code == 2 and "error:" in err


def test_missing_file_exit_2():
    code, _, err = run(["validate", "/nonexistent/algebra.json"])
    assert code == 2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["cohomology"])    # missing positional
    assert exc.value.code == 2


def test_arity_cap_message():
    code, _, err = run(["cohomology", ALG, "--max-n", "5"])
    assert code == 2
    assert "3 * 3^6" in err


def test_dimension_cap_message(tmp_path):
    from superleibniz.algebra import abelian
    from superleibniz.fileio import save_algebra
    p = tmp_path / "big.json"
    save_algebra(abelian(13, 0), str(p))
    code, _, err = run(["validate", str(p)])
    # D_3: C^3 -> C^4 with coefficients in L, 13 * 13^4 rows, 13 * 13^3 columns
    assert code == 2 and "exceeds the cap 12" in err
    assert "371293 x 28561 matrix (10604499373 entries)" in err
    code, _, _ = run(["validate", str(p), "--max-dim", "13"])
    assert code == 0


def test_dimension_cap_message_states_the_largest_matrix():
    code, out, err = run(["validate", ALG, "--max-dim", "-1"])
    assert code == 2 and out == ""
    assert "C^3 -> C^4" in err and "243 x 81 matrix (19683 entries)" in err
    assert "MB" not in err
    code, _, err = run(["validate", ALG, "--max-dim", "-1", "--max-arity", "2"])
    assert code == 2 and "C^1 -> C^2" in err and "27 x 9 matrix (243 entries)" in err


def test_cohomology_bases_flag():
    code, out, _ = run(["cohomology", ALG, "--max-n", "1", "--bases",
                        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    rows = {(b["n"], b["parity"]): b for b in doc["bases"]}
    assert len(rows[(1, "even")]["cocycles"]) == 2
    assert len(rows[(1, "even")]["representatives"]) == 1


def test_invalid_module_file_rejected(tmp_path):
    # negated left action breaks the module axioms: usage error, exit 2
    from superleibniz.algebra import adjoint_module
    from superleibniz.fileio import module_to_doc
    alg = load_algebra(ALG)
    mod = adjoint_module(alg)
    mod.left = [[[-c for c in v] for v in row] for row in mod.left]
    p = tmp_path / "badmod.json"
    p.write_text(canonical_json(module_to_doc(mod)))
    code, _, err = run(["cohomology", ALG, "--module", str(p)])
    assert code == 2 and "module axioms" in err


def test_deform_check_rejects_two_files():
    code, _, err = run(["deform", "check", ALG,
                        "--deformation", DEFORM_ZERO,
                        "--deformation", DEFORM_TRIVIAL])
    assert code == 2 and "exactly one" in err


def test_cohomology_module_file(tmp_path):
    # adjoint module written to a file must give the same table as --module self
    from superleibniz.algebra import adjoint_module
    from superleibniz.fileio import module_to_doc
    alg = load_algebra(ALG)
    p = tmp_path / "adj.json"
    p.write_text(canonical_json(module_to_doc(adjoint_module(alg))))
    _, out1, _ = run(["cohomology", ALG, "--module", str(p), "--format", "json"])
    _, out2, _ = run(["cohomology", ALG, "--module", "self", "--format", "json"])
    assert json.loads(out1)["table"] == json.loads(out2)["table"]


def test_extend_writes_round_trippable_algebra(tmp_path):
    out_path = tmp_path / "total.json"
    code, out, _ = run(["extend", ALG, "--cocycle", COCYCLE,
                        "--out", str(out_path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["cocycle"] is True
    code2, out2, _ = run(["validate", str(out_path), "--format", "json"])
    assert code2 == 0
    rep = json.loads(out2)
    assert rep["status"] == "pass" and rep["dim"] == 6
    # canonical round trip: re-serializing the parsed file is byte-identical
    alg = load_algebra(str(out_path))
    from superleibniz.fileio import algebra_to_doc
    assert canonical_json(algebra_to_doc(alg)) == out_path.read_text()


def test_extend_rejects_non_cocycle(tmp_path):
    out_path = tmp_path / "nope.json"
    code, out, _ = run(["extend", ALG, "--cocycle", NONCOCYCLE,
                        "--out", str(out_path), "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail" and doc["cocycle"] is False
    assert doc["extension_check"]["violations"]
    assert not out_path.exists()


def test_deform_check_zero_passes():
    code, out, _ = run(["deform", "check", ALG, "--deformation", DEFORM_ZERO,
                        "--format", "json"])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_deform_check_modes():
    code, out, _ = run(["deform", "check", ALG, "--deformation", DEFORM_TRIVIAL,
                        "--format", "json"])
    strict = json.loads(out)
    code2, out2, _ = run(["deform", "check", ALG, "--deformation", DEFORM_TRIVIAL,
                          "--mod-order", "--format", "json"])
    jet = json.loads(out2)
    assert code2 == 0 and jet["status"] == "pass"
    assert jet["checked_orders"] == "1..2"
    assert strict["checked_orders"] == "1..4"


def test_deform_check_reports_failing_triple():
    code, out, _ = run(["deform", "check", ALG, "--deformation", DEFORM_BAD,
                        "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    v = doc["violations"][0]
    assert v["order"] == 1 and v["triple"] == ["y", "z", "z"]
    assert v["defect"] == "-1*x"


def test_deform_extend_solves_and_writes(tmp_path):
    out_path = tmp_path / "ext.json"
    code, out, _ = run(["deform", "extend", ALG,
                        "--deformation", DEFORM_ZERO, "--order", "1",
                        "--out", str(out_path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["solvable"] is True
    assert out_path.exists()


def test_deform_equiv_round_trip():
    code, out, _ = run(["deform", "equiv", ALG,
                        "--deformation", DEFORM_ZERO,
                        "--deformation", DEFORM_TRIVIAL,
                        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["infinitesimal_relation"] is True
    assert "1" in doc["isomorphism"]


def test_deform_equiv_needs_two_files():
    code, _, err = run(["deform", "equiv", ALG, "--deformation", DEFORM_ZERO])
    assert code == 2


def test_deform_equiv_negative_order_is_a_usage_error():
    code, out, err = run(["deform", "equiv", ALG, "--deformation", DEFORM_ZERO,
                          "--deformation", DEFORM_TRIVIAL, "--order", "-1"])
    assert code == 2 and out == ""
    assert "--order" in err and "-1" in err


_BASIS = [{"label": "x", "parity": "even"}, {"label": "y", "parity": "even"},
          {"label": "z", "parity": "odd"}]

MALFORMED = [
    ("module_left_entry_not_object", "--module", {"basis": _BASIS, "left": ["x"]}),
    ("module_left_not_list", "--module", {"basis": _BASIS, "left": 5}),
    ("cochain_entry_not_object", "--cocycle",
     {"arity": 2, "degree": "even", "entries": ["x"]}),
    ("deformation_term_not_object", "--deformation",
     {"order": 1, "terms": {"1": 5}}),
    ("deformation_entries_not_list", "--deformation",
     {"order": 1, "terms": {"1": {"entries": "zz"}}}),
    ("module_parity_list", "--module",
     {"basis": [{"label": "m", "parity": ["even"]}]}),
    ("cochain_degree_list", "--cocycle",
     {"arity": 2, "degree": ["even"], "entries": []}),
]


@pytest.mark.parametrize("name,flag,doc", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_documents_are_usage_errors(tmp_path, name, flag, doc):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    verb = {"--module": ["cohomology"], "--cocycle": ["extend"],
            "--deformation": ["deform", "check"]}[flag]
    code, out, err = run(verb + [ALG, flag, str(p)])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_algebra_file_rejected_as_module():
    code, out, err = run(["cohomology", ALG, "--module", ALG])
    assert code == 2 and out == ""
    assert "unknown key" in err and "'brackets'" in err


def test_negative_max_n_is_a_usage_error():
    code, out, err = run(["cohomology", ALG, "--max-n", "-1"])
    assert code == 2
    assert out == ""
    assert "--max-n" in err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_internal_error_has_its_own_exit_code(monkeypatch):
    import superleibniz.cli as cli

    def broken(*args, **kwargs):
        raise AssertionError("order-by-order solution failed to match; "
                             "sign conventions broken")

    monkeypatch.setattr(cli, "equivalent_deformations", broken)
    code, out, err = run(["deform", "equiv", ALG, "--deformation", DEFORM_ZERO,
                          "--deformation", DEFORM_TRIVIAL])
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err.startswith("internal error: ")
    assert "sign conventions broken" in err and "Traceback" in err
