import io
import contextlib
import json
import pathlib
import time

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


def _ungraded_copy(tmp_path):
    """The golden algebra with [z, z] = z, which breaks the grading."""
    doc = json.loads(pathlib.Path(ALG).read_text())
    doc["brackets"].append({"left": "z", "right": "z",
                            "value": [{"label": "z", "coeff": "1"}]})
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_json(doc))
    return str(bad)


def test_validate_counterexample_and_exit_code(tmp_path):
    code, out, _ = run(["validate", _ungraded_copy(tmp_path), "--format", "json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fail"
    assert rep["grading"]["violations"][0]["pair"] == ["z", "z"]


# name -> (basis, brackets, the first violation): x, y even with [x,x] = y
# and [y,x] = x breaks the Leibniz identity on (x, x, x); x even, z odd
# with [x,x] = z breaks the grading
INVALID_ALGEBRAS = {
    "nonleibniz": ([("x", "even"), ("y", "even")], [("x", "x", "y"), ("y", "x", "x")],
                   "the Leibniz identity: {'triple': ('x', 'x', 'x'), 'defect': '1*x'}"),
    "ungraded": ([("x", "even"), ("z", "odd")], [("x", "x", "z")],
                 "grading: {'pair': ('x', 'x'), 'component': 'z', 'coeff': '1'}"),
}

REFUSING_VERBS = {
    "cohomology": ["cohomology", "{alg}"],
    "derivations": ["derivations", "{alg}"],
    "extend": ["extend", "{alg}", "--cocycle", "{d}/h.json"],
    "deform_check": ["deform", "check", "{alg}", "--deformation", "{d}/zero.json"],
    "deform_extend": ["deform", "extend", "{alg}", "--deformation", "{d}/zero.json"],
    "deform_equiv": ["deform", "equiv", "{alg}", "--deformation", "{d}/zero.json",
                     "--deformation", "{d}/zero.json"],
}


def _invalid_algebra(tmp_path, name: str) -> str:
    basis, brackets, _ = INVALID_ALGEBRAS[name]
    doc = {"name": name,
           "basis": [{"label": label, "parity": p} for label, p in basis],
           "brackets": [{"left": a, "right": b, "value": [{"label": c, "coeff": "1"}]}
                        for a, b, c in brackets]}
    p = tmp_path / f"{name}.json"
    p.write_text(canonical_json(doc))
    (tmp_path / "h.json").write_text('{"arity": 2, "degree": "even", "entries": []}')
    (tmp_path / "zero.json").write_text('{"order": 1, "terms": {}}')
    return str(p)


@pytest.mark.parametrize("verb", REFUSING_VERBS)
@pytest.mark.parametrize("name", INVALID_ALGEBRAS)
def test_every_verb_but_validate_refuses_an_invalid_algebra(tmp_path, name, verb):
    # the non-Leibniz algebra gave negative dim_h and a passing zero
    # deformation; the ungraded one gave delta = 0 on its cross-parity bracket
    alg = _invalid_algebra(tmp_path, name)
    code, out, err = run([a.format(alg=alg, d=tmp_path) for a in REFUSING_VERBS[verb]])
    assert code == 2 and out == ""
    assert err == f"error: algebra file {alg!r} violates {INVALID_ALGEBRAS[name][2]}\n"


@pytest.mark.parametrize("name", INVALID_ALGEBRAS)
def test_validate_reports_an_invalid_algebra(tmp_path, name):
    code, out, err = run(["validate", _invalid_algebra(tmp_path, name), "--format", "json"])
    rep = json.loads(out)
    assert code == 1 and err == "" and rep["status"] == "fail"
    assert rep["grading"]["ok"] is (name != "ungraded")
    assert rep["leibniz"]["ok"] is (name != "nonleibniz")


def test_parse_error_exit_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{")
    code, out, err = run(["validate", str(p)])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("coeff", ["\u0663", "1\n"])
def test_non_ascii_or_newline_coefficient_exit_2(tmp_path, coeff):
    # an Arabic-Indic digit three, or a trailing newline, is not a rational
    doc = json.loads((GOLDEN / "nonlie3.json").read_text())
    doc["brackets"][0]["value"][0]["coeff"] = coeff
    p = tmp_path / "odd_digit.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(p)])
    assert code == 2 and out == "" and "exact rational" in err


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


def test_size_messages_never_write_out_huge_powers(tmp_path):
    # 6**6001 has 4670 digits, past the interpreter's limit for int -> str
    from superleibniz.algebra import SuperSpace, free_truncated
    from superleibniz.fileio import save_algebra
    p = tmp_path / "F6.json"
    save_algebra(free_truncated(SuperSpace("V", ("a", "b"), (0, 1)), 2), str(p))
    code, out, err = run(["cohomology", str(p), "--max-n", "6000"])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "arity 6001 exceeds the cap 4" in err and "= 6 * 6^6001 (raise" in err
    code, out, err = run(["validate", str(p), "--max-dim", "2", "--max-arity", "3000"])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "C^2999 -> C^3000" in err and "a 6^3001 x 6^3000 matrix; pass --max-dim 6" in err
    from superleibniz.cohomology import bounded_power
    assert bounded_power(13, 9) == 10604499373 and bounded_power(6, 6001) is None


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


def test_deform_extend_past_a_failing_order_is_a_math_failure(tmp_path):
    # order 1 of deform_zz_to_x fails, so order 2 is undefined: exit 1 and
    # the order-1 violations, as deform check --mod-order reports them
    out_path = tmp_path / "ext.json"
    args = ["deform", "extend", ALG, "--deformation", DEFORM_BAD,
            "--order", "2", "--out", str(out_path)]
    code, out, err = run(args + ["--format", "json"])
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["status"] == "fail" and doc["target_order"] == 2
    assert doc["solvable"] is None and doc["term"] is None
    assert doc["output"] is None and not out_path.exists()
    _, check, _ = run(["deform", "check", ALG, "--deformation", DEFORM_BAD,
                       "--mod-order", "--format", "json"])
    assert doc["violations"] == json.loads(check)["violations"]
    assert {v["order"] for v in doc["violations"]} == {1}
    code, text, _ = run(args + ["--format", "text"])
    assert code == 1 and text == render_text(doc)


def test_deform_extend_target_beyond_the_next_order_is_a_usage_error():
    code, out, err = run(["deform", "extend", ALG, "--deformation", DEFORM_BAD,
                          "--order", "3"])
    assert code == 2 and out == ""
    assert "provides orders up to 1, cannot target order 3" in err


def test_deform_extend_of_a_zero_residual_keeps_the_arity_cap():
    # a zero residual needs no coboundary matrix, but D_2's arity is still
    # checked against the cap before anything is solved
    code, out, err = run(["deform", "extend", ALG, "--deformation", DEFORM_ZERO,
                          "--max-arity", "2"])
    assert code == 2 and out == ""
    assert err == ("error: arity 3 exceeds the cap 2; the cochain space has dimension "
                   "dim M * (dim L)^n = 3 * 3^3 = 81 (raise the cap to proceed)\n")


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


def test_deform_equiv_at_order_0_reports_no_infinitesimal_relation():
    # the order-0 search never looks at the order-1 terms, so it cannot
    # say whether mu_1 - nu_1 = delta(psi_1)
    code, out, _ = run(["deform", "equiv", ALG, "--deformation", DEFORM_ZERO,
                        "--deformation", DEFORM_TRIVIAL, "--order", "0",
                        "--format", "json"])
    doc = json.loads(out)
    assert code == 0 and doc["equivalent"] is True
    assert doc["infinitesimal_relation"] is None


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


@pytest.mark.parametrize("args,message", [
    (["cohomology", "{alg}", "--max-n", "-1"], "--max-n must be nonnegative, got -1"),
    (["deform", "equiv", "{alg}", "--deformation", DEFORM_ZERO],
     "deform equiv needs exactly two --deformation files"),
], ids=["max-n", "equiv-one-file"])
def test_the_algebra_file_is_read_before_the_verb_checks_its_options(tmp_path, args,
                                                                     message):
    # main loads the algebra before it calls the verb: a missing file is
    # the error, and a valid one leaves the verb's own message
    missing = str(tmp_path / "missing.json")
    code, out, err = run([a.format(alg=missing) for a in args])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "missing.json" in err and message not in err
    code, out, err = run([a.format(alg=ALG) for a in args])
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def test_library_value_error_is_an_internal_error(monkeypatch):
    # only ParseError, ArityCapError and OSError are usage errors; any other
    # ValueError from the library is a bug, not a property of the input
    import superleibniz.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("a broken library invariant")

    monkeypatch.setattr(cli, "check_deformation", broken)
    code, out, err = run(["deform", "check", ALG, "--deformation", DEFORM_BAD])
    assert code == cli.EXIT_INTERNAL == 3 and out == ""
    assert err.startswith("internal error: ValueError: a broken library invariant")


def test_non_utf8_file_is_a_usage_error(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"name": "café", "basis": []}'.encode("latin-1"))
    code, out, err = run(["validate", str(p)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "latin1.json" in err


@pytest.mark.parametrize("order", ["0", "-1"])
def test_deform_extend_order_below_one_is_a_usage_error(order):
    code, out, err = run(["deform", "extend", ALG, "--deformation", DEFORM_BAD,
                          "--order", order])
    assert code == 2 and out == ""
    assert f"--order {order} is outside 1..2" in err


def test_deform_equiv_of_unequal_orders_is_a_usage_error():
    code, out, err = run(["deform", "equiv", ALG, "--deformation", DEFORM_BAD,
                          "--deformation", DEFORM_ZERO])
    assert code == 2 and out == ""
    assert "orders 1 and 2" in err


def test_deform_check_rejects_a_zero_padded_term_key(tmp_path):
    # keyed "01" the failing term used to be read as zero: exit 0, "pass"
    doc = json.loads(pathlib.Path(DEFORM_BAD).read_text())
    doc["terms"] = {"01": doc["terms"]["1"]}
    p = tmp_path / "padded.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(["deform", "check", ALG, "--deformation", str(p)])
    assert code == 2 and out == ""
    assert "term key '01'" in err


def test_deform_check_rejects_a_duplicate_term_key(tmp_path):
    # with the last duplicate winning, the zero term hid the failing one
    term = json.dumps(json.loads(pathlib.Path(DEFORM_BAD).read_text())["terms"]["1"])
    p = tmp_path / "dup.json"
    p.write_text('{"order": 1, "terms": {"1": ' + term + ', "1": {"entries": []}}}')
    code, out, err = run(["deform", "check", ALG, "--deformation", str(p)])
    assert code == 2 and out == ""
    assert "duplicate key '1'" in err


def test_module_axiom_message_is_the_first_violation(tmp_path):
    from oracles import dense_check_axioms
    from superleibniz.algebra import adjoint_module
    from superleibniz.fileio import module_to_doc
    alg = load_algebra(ALG)
    mod = adjoint_module(alg)
    mod.left = [[[-c for c in v] for v in row] for row in mod.left]
    p = tmp_path / "badmod.json"
    p.write_text(canonical_json(module_to_doc(mod)))
    code, _, err = run(["cohomology", ALG, "--module", str(p)])
    first = dense_check_axioms(mod).violations[0]
    assert code == 2
    assert err == f"error: module file {str(p)!r} violates the module axioms: {first}\n"


def test_module_grading_message_writes_its_coefficient_as_text(tmp_path):
    # [z, x] = x/2 in the module, z odd and x even: the refusal writes the
    # coefficient as validate would, not as a Fraction's repr
    from fractions import Fraction
    from superleibniz.algebra import zero_module
    from superleibniz.fileio import module_to_doc
    mod = zero_module(load_algebra(ALG))
    mod.left[2][0][0] = Fraction(1, 2)
    p = tmp_path / "ungraded_module.json"
    p.write_text(canonical_json(module_to_doc(mod)))
    code, out, err = run(["cohomology", ALG, "--module", str(p)])
    assert code == 2 and out == ""
    assert err == (f"error: module file {str(p)!r} violates grading: {{'action': 'left', "
                   f"'pair': ('z', 'x'), 'component': 'x', 'coeff': '1/2'}}\n")


def test_extend_refuses_a_wide_cocycle_before_building_its_table(tmp_path, monkeypatch):
    # the arity sizes the table: 3**40 vectors for this 50-byte file
    from superleibniz.cochain import Cochain
    built = []
    zero = Cochain.zero.__func__

    def spy(cls, alg, mod, arity, degree):
        built.append(arity)
        if arity != 2:
            raise AssertionError(f"allocated an arity-{arity} table")
        return zero(cls, alg, mod, arity, degree)

    monkeypatch.setattr(Cochain, "zero", classmethod(spy))
    p = tmp_path / "wide.json"
    p.write_text('{"arity": 40, "degree": "even", "entries": []}')
    code, out, err = run(["extend", ALG, "--cocycle", str(p)])
    assert code == 2 and out == ""
    assert err == "error: the twisting cochain must be an even 2-cochain\n"
    assert all(n == 2 for n in built)


def test_dimension_cap_refuses_before_the_bracket_table_is_built(tmp_path, monkeypatch):
    import superleibniz.fileio as fileio
    calls = []

    def spy(n):
        calls.append(n)
        raise AssertionError("allocated a table vector")

    monkeypatch.setattr(fileio, "zeros", spy)
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"basis": [{"label": f"e{i}", "parity": "even"}
                                       for i in range(200)]}))
    code, out, err = run(["validate", str(p)])
    assert code == 2 and out == ""
    assert "algebra dimension 200 exceeds the cap 12" in err
    assert "pass --max-dim 200 to proceed" in err
    assert calls == []


def test_dimension_cap_refuses_a_module_before_its_action_tables(tmp_path, monkeypatch):
    import superleibniz.fileio as fileio
    zeros = fileio.zeros
    calls = []

    def spy(n):
        calls.append(n)
        if n != 3:
            raise AssertionError("allocated a module table vector")
        return zeros(n)

    def module_file(dim):
        p = tmp_path / f"wide{dim}.json"
        p.write_text(json.dumps({"basis": [{"label": f"m{i}", "parity": "even"}
                                           for i in range(dim)]}))
        return str(p)

    monkeypatch.setattr(fileio, "zeros", spy)
    wide = module_file(200)
    code, out, err = run(["cohomology", ALG, "--module", wide, "--max-n", "0"])
    assert code == 2 and out == ""
    assert err == (f"error: module file {wide!r}: module dimension 200 exceeds "
                   "the cap 12; pass --max-dim 200 to proceed\n")
    assert calls and all(n == 3 for n in calls)   # the algebra's table only
    monkeypatch.setattr(fileio, "zeros", zeros)
    narrow = module_file(13)
    assert run(["cohomology", ALG, "--module", narrow, "--max-n", "0"])[0] == 2
    assert run(["cohomology", ALG, "--module", narrow, "--max-n", "0",
                "--max-dim", "13"])[0] == 0


def _order_2_copy(tmp_path, path):
    doc = json.loads(pathlib.Path(path).read_text())
    doc["order"] = 2
    p = tmp_path / "order2.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_deform_equiv_reports_the_order_it_searched(tmp_path):
    # the order-1 terms differ, so the 2-jets are not equivalent; the 0-jets
    # are, and the report must say that only order 0 was compared
    bad2 = _order_2_copy(tmp_path, DEFORM_BAD)
    args = ["deform", "equiv", ALG, "--deformation", DEFORM_ZERO,
            "--deformation", bad2, "--format", "json"]
    code, out, _ = run(args)
    assert code == 1 and "searched_order" not in json.loads(out)
    code, out, _ = run(args + ["--order", "0"])
    doc = json.loads(out)
    assert code == 0 and doc["equivalent"] is True
    assert doc["order"] == 2 and doc["searched_order"] == 0


# the golden cases and the failing runs above, each as its argv made from
# the test's tmp_path
STATUS_RUNS = [(name, lambda tmp_path, args=args: args)
               for name, args, _ in GOLDEN_CASES] + [
    ("deform_extend_past_a_failing_order", lambda tmp_path: [
        "deform", "extend", ALG, "--deformation", DEFORM_BAD, "--order", "2"]),
    ("deform_equiv_false", lambda tmp_path: [
        "deform", "equiv", ALG, "--deformation", DEFORM_ZERO,
        "--deformation", _order_2_copy(tmp_path, DEFORM_BAD)]),
    ("extend_non_cocycle", lambda tmp_path: ["extend", ALG, "--cocycle", NONCOCYCLE]),
    ("validate_ungraded", lambda tmp_path: ["validate", _ungraded_copy(tmp_path)]),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name,argv", STATUS_RUNS, ids=[c[0] for c in STATUS_RUNS])
def test_exit_code_is_the_report_status(tmp_path, name, argv, fmt):
    code, out, err = run(argv(tmp_path) + ["--format", fmt])
    if fmt == "json":
        status = json.loads(out)["status"]
    else:
        (status,) = [line[len("status: "):] for line in out.splitlines()
                     if line.startswith("status: ")]
    assert err == "" and code == {"pass": 0, "fail": 1}[status]


def test_deform_equiv_order_beyond_the_files_is_a_usage_error(tmp_path):
    bad2 = _order_2_copy(tmp_path, DEFORM_BAD)
    code, out, err = run(["deform", "equiv", ALG, "--deformation", DEFORM_ZERO,
                          "--deformation", bad2, "--order", "3"])
    assert code == 2 and out == ""
    assert "--order 3 is outside 0..2" in err


def test_main_builds_one_parser_tree_per_process(monkeypatch):
    import argparse
    init = argparse.ArgumentParser.__init__
    built = []

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert run(["validate", ALG])[0] == 0
    assert run(["derivations", ALG, "--format", "json"])[0] == 0
    assert run(["deform", "check", ALG, "--deformation", DEFORM_ZERO])[0] == 0
    # one tree is the top-level parser, the shared flags and eight verbs
    assert len(built) <= 10


def test_repeated_calls_carry_no_state_between_them(monkeypatch):
    import os
    import subprocess
    import sys
    equiv = ["deform", "equiv", ALG, "--deformation", DEFORM_ZERO,
             "--deformation", DEFORM_TRIVIAL]
    assert run(equiv) == (0, (GOLDEN / "out_deform_equiv_trivial.txt").read_text(), "")
    # the --deformation list starts empty again: one file, not three
    assert run(["deform", "check", ALG, "--deformation", DEFORM_BAD]) == (
        1, (GOLDEN / "out_deform_check_zz.txt").read_text(), "")
    # usage text wraps at the terminal width, so fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    fresh = subprocess.run([sys.executable, "-m", "superleibniz", "cohomology"],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["cohomology"])
    assert exc.value.code == fresh.returncode == 2
    assert err.getvalue() == fresh.stderr
    cohomology = ["cohomology", ALG, "--max-n", "2"]
    assert run(cohomology + ["--format", "json"]) == (
        0, (GOLDEN / "out_cohomology_nonlie3.json").read_text(), "")
    # --format falls back to its default, text
    assert run(cohomology) == (
        0, (GOLDEN / "out_cohomology_nonlie3.txt").read_text(), "")


_TWICE = [{"label": "x", "coeff": "1"}, {"label": "x", "coeff": "-1"}]

REPEATED_LABEL = [
    ("bracket", ["validate"], None,
     {"name": "twice", "basis": _BASIS,
      "brackets": [{"left": "y", "right": "x", "value": _TWICE}]},
     "bracket (y,x): duplicate value term for label 'x'"),
    ("module_action", ["cohomology", ALG], "--module",
     {"basis": _BASIS, "left": [{"left": "y", "right": "x", "value": _TWICE}]},
     "left action (y,x): duplicate value term for label 'x'"),
    ("deformation_term", ["deform", "check", ALG], "--deformation",
     {"order": 1, "terms": {"1": {"entries": [{"args": ["z", "z"], "value": _TWICE}]}}},
     "term 1: cochain entry ['z', 'z']: duplicate value term for label 'x'"),
]


@pytest.mark.parametrize("name,verb,flag,doc,message", REPEATED_LABEL,
                         ids=[c[0] for c in REPEATED_LABEL])
def test_a_value_that_repeats_a_label_is_a_usage_error(tmp_path, name, verb, flag,
                                                       doc, message):
    # summed, the two terms read as zero and the file was accepted
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(verb + ([flag, str(p)] if flag else [str(p)]))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("verb,order", [("equiv", 2000), ("check", 20000)])
def test_empty_series_cost_follows_their_nonzero_terms(tmp_path, verb, order):
    # an order-N file without terms holds no term; equiv of two such files
    # and the 2N strict orders of a check each cost a constant per order
    # (two order-500 files took 5 s through equiv, an order-20000 check 1.5 s)
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"order": order, "terms": {}}))
    files = ["--deformation", str(p)] * (2 if verb == "equiv" else 1)
    start = time.perf_counter()
    code, out, err = run(["deform", verb, ALG, *files])
    assert time.perf_counter() - start < 10
    assert code == 0 and err == ""
    assert "equivalent: true" in out if verb == "equiv" else "status: pass" in out


BAD_COEFF = [
    ("bracket", ["validate"], None,
     {"name": "n", "basis": _BASIS,
      "brackets": [{"left": "y", "right": "x",
                    "value": [{"label": "x", "coeff": "1.5"}]}]},
     "bracket (y,x): label 'x': cannot parse '1.5' as an exact rational"),
    ("module_action", ["cohomology", ALG], "--module",
     {"basis": _BASIS, "right": [{"left": "z", "right": "y",
                                  "value": [{"label": "z", "coeff": [1]}]}]},
     "right action (z,y): label 'z': not a rational coefficient: [1]"),
    ("cochain_file", ["extend", ALG], "--cocycle",
     {"arity": 2, "degree": "even",
      "entries": [{"args": ["y", "z"], "value": [{"label": "z", "coeff": "1/0"}]}]},
     "cochain entry ['y', 'z']: label 'z': zero denominator in '1/0'"),
    ("deformation_term", ["deform", "check", ALG], "--deformation",
     {"order": 1, "terms": {"1": {"entries": [
         {"args": ["z", "z"], "value": [{"label": "x", "coeff": [1]}]}]}}},
     "term 1: cochain entry ['z', 'z']: label 'x': not a rational coefficient: [1]"),
    ("float_in_bracket", ["validate"], None,
     {"name": "n", "basis": _BASIS,
      "brackets": [{"left": "y", "right": "y",
                    "value": [{"label": "x", "coeff": 0.5}]}]},
     "bracket (y,y): label 'x': floating-point coefficient 0.5 rejected; "
     "write an exact rational like \"-1/2\""),
]


@pytest.mark.parametrize("name,verb,flag,doc,message", BAD_COEFF,
                         ids=[c[0] for c in BAD_COEFF])
def test_a_malformed_coefficient_names_its_entry_and_label(tmp_path, name, verb, flag,
                                                           doc, message):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(verb + ([flag, str(p)] if flag else [str(p)]))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_an_integer_coefficient_past_the_digit_limit_keeps_its_message(tmp_path):
    # integer strings are read directly; past the interpreter's digit limit
    # they take the rational path and its message
    doc = {"name": "n", "basis": _BASIS,
           "brackets": [{"left": "y", "right": "x",
                         "value": [{"label": "x", "coeff": "7" * 5000}]}]}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(p)])
    assert code == 2 and out == ""
    assert err.startswith("error: bracket (y,x): label 'x': coefficient "
                          "'77777777777777777777'...: Exceeds the limit")


def _label_at(where, lab):
    """A document with the label lab at where, the verb that reads it, and
    the message its refusal prints."""
    r = repr(lab)
    bracket = {"name": "n", "basis": _BASIS}
    if where == "value_term":
        return (["validate"], None,
                {**bracket, "brackets": [{"left": "y", "right": "x",
                                          "value": [{"label": lab, "coeff": "1"}]}]},
                f"bracket (y,x): unknown label {r}")
    if where == "deformation_value_term":
        return (["deform", "check", ALG], "--deformation",
                {"order": 1, "terms": {"1": {"entries": [
                    {"args": ["z", "z"], "value": [{"label": lab, "coeff": "1"}]}]}}},
                f"term 1: cochain entry ['z', 'z']: unknown label {r}")
    if where == "cochain_args":
        return (["extend", ALG], "--cocycle",
                {"arity": 2, "degree": "even", "entries": [{"args": ["y", lab], "value": []}]},
                f"cochain entry: no basis element labelled {r} in space 'nonlie3'")
    if where == "deformation_args":
        return (["deform", "check", ALG], "--deformation",
                {"order": 1, "terms": {"1": {"entries": [{"args": [lab, "z"], "value": []}]}}},
                f"term 1: cochain entry: no basis element labelled {r} in space 'nonlie3'")
    if where == "bracket_left":
        return (["validate"], None,
                {**bracket, "brackets": [{"left": lab, "right": "x", "value": []}]},
                f"bracket entry ({r}, 'x'): no basis element labelled {r} in space 'n'")
    return (["validate"], None,
            {**bracket, "brackets": [{"left": "y", "right": lab, "value": []}]},
            f"bracket entry ('y', {r}): no basis element labelled {r} in space 'n'")


@pytest.mark.parametrize("lab", [None, 1, [1], {"a": 1}],
                         ids=["null", "int", "list", "object"])
@pytest.mark.parametrize("where", ["value_term", "deformation_value_term", "cochain_args",
                                   "deformation_args", "bracket_left", "bracket_right"])
def test_a_label_that_is_not_a_string_is_a_usage_error(tmp_path, where, lab):
    # labels resolve by a dict lookup; an unhashable one is still an
    # unknown label (exit 2), never a TypeError (exit 3)
    verb, flag, doc, message = _label_at(where, lab)
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(verb + ([flag, str(p)] if flag else [str(p)]))
    assert (code, out, err) == (2, "", f"error: {message}\n")
