"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is zero: all assertions are exact equalities
of rational coefficient tables or integer dimensions.
"""

import itertools
import json
import pathlib
import random
from fractions import Fraction

from helpers import (modules_for, random_cochain,
                     random_homogeneous_vector, standard_fixtures)
from oracles import (act_left, act_right, annihilator, basis_cochain, bracket_vec,
                     bruteforce_deformation_failures, cochain_from_coords, curry,
                     d_op, dense_terms, enumerate_basis, extensions_equivalent,
                     restrict, scale, sparse, sympy_rank, uncurry_value)
from superleibniz.algebra import (abelian, adjoint_module, koszul,
                                  nonlie_example, zero_module)
from superleibniz.cochain import Cochain, all_tuples, delta, tuple_index
from superleibniz.cohomology import (cohomology_table, delta_matrix, derivations,
                                     inner_derivations)
from superleibniz.deformation import (FormalIsomorphism, TruncatedDeformation,
                                      check_deformation, deformation_residual,
                                      equivalent_deformations,
                                      infinitesimal_relation, transform)
from superleibniz.extension import build_extension, check_extension
from superleibniz.linalg import (F0, F1, basis_vec, kernel_basis, rank,
                                 zeros)

F = Fraction
GOLDEN = pathlib.Path(__file__).parent / "golden"


def ok(n, msg):
    print(f"\nACCEPTANCE {n:2d} PASS  {msg}")


def nonlie_setup():
    L = nonlie_example()
    return L, adjoint_module(L)


def mu_zz_x(L, M):
    mu = Cochain.zero(L, M, 2, 0)
    mu.coeffs[tuple_index((2, 2), L.dim)] = basis_vec(L.dim, 0)
    return mu


def random_psi(L, M, rng):
    enum = enumerate_basis(L, M, 1, 0)
    return cochain_from_coords(L, M, 1, 0,
                               sparse([F(rng.randint(-2, 2)) for _ in enum]), enum)


def occurring_parities(space):
    return sorted(set(space.parities))


def test_criterion_01_fixture_validity():
    L = nonlie_example()
    rep = L.check_grading()
    assert rep.ok and rep.violations == []
    rep = L.check_leibniz()
    assert rep.ok and rep.violations == []
    # the checker is exhaustive over all 27 basis triples by construction
    assert L.dim ** 3 == 27
    assert L.is_lie() is False
    ok(1, "nonlie3 passes grading + Leibniz on all 27 triples; not Lie")


def test_criterion_02_complex_property():
    rng = random.Random(20251)
    fixtures = standard_fixtures()
    checked = 0
    for L in fixtures:
        for M in modules_for(L):
            for n in (0, 1, 2):
                for t in all_tuples(L.dim, n):
                    for k in range(M.dim):
                        f = basis_cochain(L, M, t, k)
                        assert delta(delta(f)).is_zero()
                        checked += 1
                for parity in (0, 1):
                    for _ in range(25):   # 25 per module = 50 per (fixture,n,parity)
                        f = random_cochain(L, M, n, parity, rng)
                        assert delta(delta(f)).is_zero()
                        checked += 1
    assert checked >= 6 * 2 * 3 * (2 * 25)
    ok(2, f"delta.delta = 0 exactly on {checked} cochains "
          f"({len(fixtures)} fixtures x 2 modules x n in 0..2)")


def test_criterion_03_lemma_suite():
    rng = random.Random(20252)
    fixtures = standard_fixtures()
    counts = {"L32i": 0, "L32ii": 0, "L33i": 0, "L33ii": 0,
              "curry": 0, "module": 0}
    for L in fixtures:
        M = adjoint_module(L)
        pars = occurring_parities(L.space)
        for _ in range(18):
            n = rng.choice((1, 2))
            f = random_cochain(L, M, n, rng.choice((0, 1)), rng)
            px, py = rng.choice(pars), rng.choice(pars)
            x = random_homogeneous_vector(L.space, px, rng)
            y = random_homogeneous_vector(L.space, py, rng)
            xy = bracket_vec(L, x, y)
            # Lemma: (d_x f)_y = d_x(f_y) - (-1)**(xf) f_[x,y]
            lhs = restrict(d_op(x, f), y)
            rhs = d_op(x, restrict(f, y))
            if any(xy):
                rhs = rhs - scale(restrict(f, xy), koszul(px, f.degree))
            assert lhs.coeffs == rhs.coeffs
            counts["L32i"] += 1
            # Lemma: (delta f)_x = (-1)**(xf) d_x f - delta(f_x)
            lhs = restrict(delta(f), x)
            rhs = scale(d_op(x, f), koszul(px, f.degree)) - delta(restrict(f, x))
            assert lhs.coeffs == rhs.coeffs
            counts["L32ii"] += 1
            # Lemma: d_x d_y f - (-1)**(xy) d_y d_x f = d_[x,y] f
            lhs = d_op(x, d_op(y, f)) - scale(d_op(y, d_op(x, f)), koszul(px, py))
            if any(xy):
                assert lhs.coeffs == d_op(xy, f).coeffs
            else:
                assert lhs.is_zero()
            counts["L33i"] += 1
            # Lemma: delta d_x f = d_x delta f
            assert delta(d_op(x, f)).coeffs == d_op(x, delta(f)).coeffs
            counts["L33ii"] += 1
    # currying lemma on the 3-dimensional fixtures
    curry_fixtures = [nonlie_example(), standard_fixtures()[4]]
    for L in curry_fixtures:
        M = adjoint_module(L)
        for _ in range(51):
            f = random_cochain(L, M, 2, rng.choice((0, 1)), rng)
            j = rng.choice((0, 1))
            fj, dfc, fj1 = curry(f, j), curry(delta(f), j + 1), curry(f, j + 1)
            dfj = delta(fj)
            sgn = -F1 if j & 1 else F1
            for T in all_tuples(L.dim, j + 1):
                lhs = uncurry_value(dfj.module, dfj.value(T))
                rhs = uncurry_value(dfc.module, dfc.value(T))
                d_inner = delta(uncurry_value(fj1.module, fj1.value(T)))
                expected = [[a + sgn * b for a, b in zip(u, v)]
                            for u, v in zip(rhs.coeffs, d_inner.coeffs)]
                assert lhs.coeffs == expected
            counts["curry"] += 1
    # cochain spaces are modules: the three axioms on random homogeneous triples
    for L in fixtures:
        M = adjoint_module(L)
        pars = occurring_parities(L.space)
        for _ in range(17):
            n = rng.choice((1, 2))
            f = random_cochain(L, M, n, rng.choice((0, 1)), rng)
            pa, pb = rng.choice(pars), rng.choice(pars)
            a = random_homogeneous_vector(L.space, pa, rng)
            b = random_homogeneous_vector(L.space, pb, rng)
            ab = bracket_vec(L, a, b)
            pf = f.degree
            zero = Cochain.zero(L, M, n, (pa + pb + pf) & 1)
            ab_act = act_left(ab, f) if any(ab) else zero
            ab_ract = act_right(f, ab) if any(ab) else zero
            # axiom 1
            lhs = ab_act
            rhs = act_left(a, act_left(b, f)) - \
                scale(act_left(b, act_left(a, f)), koszul(pa, pb))
            assert lhs.coeffs == rhs.coeffs
            # axiom 2
            lhs = act_right(act_left(a, f), b)
            rhs = act_left(a, act_right(f, b)) - scale(ab_ract, koszul(pa, pf))
            assert lhs.coeffs == rhs.coeffs
            # axiom 3
            lhs = act_right(act_right(f, a), b)
            rhs = ab_ract - scale(act_left(a, act_right(f, b)), koszul(pf, pa))
            assert lhs.coeffs == rhs.coeffs
            counts["module"] += 1
    assert all(v >= 100 for v in counts.values()), counts
    ok(3, "operator lemmas, currying lemma, and module axioms hold exactly "
          f"({counts})")


def test_criterion_04_low_degree_interpretations():
    L, M = nonlie_setup()
    ann = annihilator(L, M)
    assert ann == [[F1, F0, F0]]                      # exactly span{x}
    ker = kernel_basis(delta_matrix(L, M, 0, 0))
    assert ker == [{0: F1}]                           # same line in M_0 coords
    for fixture in standard_fixtures():
        for mod in modules_for(fixture):
            tab = cohomology_table(fixture, mod, 1)
            der = derivations(fixture, mod, 0)
            inner = inner_derivations(fixture, mod)
            assert tab.dim_h(1, 0) == len(der) - len(inner)
    ok(4, "annihilator = span{x} = ker(delta0, even); dim H1_even agrees "
          "between matrix ranks and Der/InnDer on all fixtures")


def test_criterion_05_abelian_closed_form():
    for p, q in ((1, 1), (2, 1), (2, 2)):
        A = abelian(p, q)
        Z = zero_module(A)
        for n in (0, 1, 2):
            for parity in (0, 1):
                assert not any(delta_matrix(A, Z, n, parity).sparse_rows)
        tab = cohomology_table(A, Z, 2)
        for e in tab.entries.values():
            assert e.dim_h == e.dim_c and e.dim_b == 0
        assert tab.dim_h(1, 0) == p * p + q * q
        assert tab.dim_h(1, 1) == 2 * p * q
    ok(5, "abelian(p,q)/zero module: all delta matrices vanish, "
          "H1 counts p^2+q^2 and 2pq for (1,1),(2,1),(2,2)")


def test_criterion_06_extension_theorem():
    L, M = nonlie_setup()
    golden = json.loads((GOLDEN / "nonlie3_cohomology.json").read_text())
    gold = {(r["n"], r["parity"]): r for r in golden["table"]}
    # golden H^2 dims hold for the library and for the independent rank oracle
    for parity, word in ((0, "even"), (1, "odd")):
        row = gold[(2, word)]
        m2 = delta_matrix(L, M, 2, parity)
        m1 = delta_matrix(L, M, 1, parity)
        assert rank(m2) == sympy_rank(m2)
        assert rank(m1) == sympy_rank(m1)
        dim_z = m2.cols - sympy_rank(m2)
        dim_b = sympy_rank(m1)
        assert dim_z == row["dim_z"] and dim_b == row["dim_b"]
        assert dim_z - dim_b == row["dim_h"]
    # every basis cocycle builds a valid extension
    enum = enumerate_basis(L, M, 2, 0)
    for v in kernel_basis(delta_matrix(L, M, 2, 0)):
        h = cochain_from_coords(L, M, 2, 0, v, enum)
        assert check_extension(build_extension(L, M, h)).ok
    # every non-cocycle basis 2-cochain fails with a witness
    non_cocycles = 0
    for t, k in enum:
        h = basis_cochain(L, M, t, k)
        if delta(h).is_zero():
            continue
        rep = check_extension(build_extension(L, M, h))
        assert not rep.ok
        assert any(v["kind"] == "leibniz" and v["triple"] for v in rep.violations)
        non_cocycles += 1
    assert non_cocycles > 0
    # 20 random coboundaries are equivalent to the split extension,
    # with the induced map verified multiplicative on all basis pairs
    rng = random.Random(20253)
    e0 = build_extension(L, M, Cochain.zero(L, M, 2, 0))
    for _ in range(20):
        f0 = random_psi(L, M, rng)
        h = delta(f0)
        e_h = build_extension(L, M, h)
        f = extensions_equivalent(e_h, e0)   # internally verifies psi
        assert f is not None
        assert delta(f).coeffs == h.coeffs
        dl = L.dim
        psi_cols = [basis_vec(6, c) for c in range(6)]
        for i in range(dl):
            for k, c in enumerate(f.coeffs[i]):
                psi_cols[i][dl + k] += c
        for i, j in itertools.product(range(6), repeat=2):
            lhs = zeros(6)
            for t, c in enumerate(e_h.total.bracket(i, j)):
                if c:
                    lhs = [a + c * b for a, b in zip(lhs, psi_cols[t])]
            rhs = bracket_vec(e0.total, psi_cols[i], psi_cols[j])
            assert lhs == rhs
    # distinct golden classes stay inequivalent
    reps = [build_extension(L, M, h) for h in
            cohomology_table(L, M, 2, with_bases=True).entry(2, 0).basis_h]
    assert len(reps) == gold[(2, "even")]["dim_h"] == 2
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            assert extensions_equivalent(reps[a], reps[b]) is None
    ok(6, "extensions: cocycle basis valid, non-cocycles rejected with "
          "witnesses, 20 coboundaries equivalent to split, golden H2 classes "
          "(2 even / 2 odd) inequivalent; sympy rank oracle agrees")


def test_criterion_07_deformation_checker_vs_oracle():
    L, M = nonlie_setup()
    rng = random.Random(20254)
    # zero deformation: both pass at every horizon
    z = TruncatedDeformation.zero(L, 2)
    assert check_deformation(z).ok
    assert bruteforce_deformation_failures(z, 4) == []
    # 20 random trivial deformations: pass as jets (the transform contract);
    # checker and oracle agree at both horizons
    for _ in range(20):
        iso = FormalIsomorphism(L, [random_psi(L, M, rng) for _ in range(2)], M)
        t = transform(z, iso)
        assert check_deformation(t, mod_order=True).ok
        assert bruteforce_deformation_failures(t, 2) == []
        strict = check_deformation(t)
        strict_oracle = bruteforce_deformation_failures(t, 4)
        assert strict.ok == (not strict_oracle)
    # 20 random order-1 jets with non-cocycle mu_1: both fail at r = 1
    made = 0
    while made < 20:
        mu1 = random_cochain(L, M, 2, 0, rng)
        if delta(mu1).is_zero():
            continue
        d = TruncatedDeformation(L, [mu1], M)
        rep = check_deformation(d)
        failures = bruteforce_deformation_failures(d, 2)
        assert not rep.ok and rep.violations[0]["order"] == 1
        assert failures and min(failures)[0] == 1
        made += 1
    # the bundled example mu_1(z,z) = x: both paths agree on FAIL at order 1
    # on triple (y,z,z) with defect -[y,x] = -x (see README for the note)
    d = TruncatedDeformation(L, [mu_zz_x(L, M)], M)
    rep = check_deformation(d)
    failures = bruteforce_deformation_failures(d, 2)
    assert not rep.ok
    assert rep.violations[0]["order"] == 1
    assert ("y", "z", "z") in {tuple(v["triple"]) for v in rep.violations}
    first = {v["triple"]: v["defect"] for v in rep.violations}
    assert first[("y", "z", "z")] == "-1*x"
    assert (1, (1, 2, 2)) in failures
    res = deformation_residual(d, 1)
    assert res.value((1, 2, 2)) == [-c for c in bracket_vec(
        L, basis_vec(3, 1), basis_vec(3, 0))]          # -[y,x]
    ok(7, "checker == brute-force oracle on zero, 20 trivial (jet pass), "
          "20 non-cocycle jets (fail at r=1), and the bundled (z,z)->x "
          "example (fail at r=1 on (y,z,z), defect -[y,x])")


def test_criterion_08_equivalence_theorem():
    L, M = nonlie_setup()
    rng = random.Random(20255)
    for _ in range(50):
        d1 = transform(TruncatedDeformation.zero(L, 2),
                       FormalIsomorphism(L, [random_psi(L, M, rng)
                                             for _ in range(2)], M))
        assert check_deformation(d1, mod_order=True).ok
        iso = FormalIsomorphism(L, [random_psi(L, M, rng) for _ in range(2)], M)
        d2 = transform(d1, iso)
        assert check_deformation(d2, mod_order=True).ok
        rel = infinitesimal_relation(d1, d2, iso)
        assert rel.ok
        mu1, nu1, psi1 = (dense_terms(s)[0] for s in (d1, d2, iso))
        assert (mu1 - nu1).coeffs == delta(psi1).coeffs
        found = equivalent_deformations(d1, d2)
        assert found is not None
        assert transform(d1, found) == d2
    ok(8, "50 random pairs: transforms stay valid, mu1 - nu1 = delta(psi1) "
          "exactly, and the search recovers a verified isomorphism")


def test_criterion_09_order1_equivalence():
    rng = random.Random(20256)
    for L in standard_fixtures():
        M = adjoint_module(L)
        cocycles = non_cocycles = 0
        for i in range(100):
            if i % 2 == 0:
                mu1 = random_cochain(L, M, 2, 0, rng)
            else:
                # guarantee a supply of genuine cocycles via coboundaries
                mu1 = delta(random_psi(L, M, rng))
            d = TruncatedDeformation(L, [mu1], M)
            r1_zero = deformation_residual(d, 1).is_zero()
            c_zero = delta(mu1).is_zero()
            assert r1_zero == c_zero
            cocycles += c_zero
            non_cocycles += not c_zero
        assert cocycles >= 1, L.space.name
    ok(9, "order-1 deformation equation <=> cocycle condition, 100 random "
          "mu1 per fixture (cocycles and non-cocycles both exercised)")


def test_criterion_10_cli_contract():
    import contextlib
    import io

    from superleibniz.cli import main, render_text
    from superleibniz.fileio import (algebra_to_doc, canonical_json,
                                     load_algebra)

    def run(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        return code, out.getvalue()

    alg = str(GOLDEN / "nonlie3.json")
    cases = {
        "validate_nonlie3": (["validate", alg], 0),
        "cohomology_nonlie3": (["cohomology", alg, "--max-n", "2"], 0),
        "cohomology_abelian11": (["cohomology", str(GOLDEN / "abelian11.json"),
                                  "--max-n", "1", "--module", "zero"], 0),
        "derivations_nonlie3": (["derivations", alg], 0),
        "extend_cocycle": (["extend", alg, "--cocycle",
                            str(GOLDEN / "cocycle_h.json")], 0),
        "deform_check_zz": (["deform", "check", alg, "--deformation",
                             str(GOLDEN / "deform_zz_to_x.json")], 1),
        "deform_extend_zero": (["deform", "extend", alg, "--deformation",
                                str(GOLDEN / "deform_zero2.json"),
                                "--order", "1"], 0),
        "deform_equiv_trivial": (["deform", "equiv", alg,
                                  "--deformation", str(GOLDEN / "deform_zero2.json"),
                                  "--deformation",
                                  str(GOLDEN / "deform_trivial2.json")], 0),
    }
    for name, (args, expect) in cases.items():
        code, text = run(args + ["--format", "text"])
        assert code == expect
        assert text == (GOLDEN / f"out_{name}.txt").read_text()
        code, js = run(args + ["--format", "json"])
        assert code == expect
        assert js == (GOLDEN / f"out_{name}.json").read_text()
        assert render_text(json.loads(js)) == text    # identical data
    # extend verb: golden cocycle accepted, output round-trips byte-exactly
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        out_path = pathlib.Path(tmp) / "total.json"
        code, _ = run(["extend", alg, "--cocycle", str(GOLDEN / "cocycle_h.json"),
                       "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert canonical_json(algebra_to_doc(load_algebra(str(out_path)))) == text
        code, _ = run(["validate", str(out_path)])
        assert code == 0
        code, _ = run(["extend", alg,
                       "--cocycle", str(GOLDEN / "noncocycle.json")])
        assert code == 1
        # deform extend and equiv verbs
        ext_path = pathlib.Path(tmp) / "deform.json"
        code, _ = run(["deform", "extend", alg, "--deformation",
                       str(GOLDEN / "deform_zero2.json"), "--order", "1",
                       "--out", str(ext_path)])
        assert code == 0 and ext_path.exists()
        code, _ = run(["deform", "equiv", alg,
                       "--deformation", str(GOLDEN / "deform_zero2.json"),
                       "--deformation", str(GOLDEN / "deform_trivial2.json")])
        assert code == 0
    # exit code 2 for parse errors
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        fh.write("{ not json")
        fh.flush()
        code, _ = run(["validate", fh.name])
        assert code == 2
    ok(10, "golden files for every verb, text == rendered JSON, byte-exact "
           "round trips, exit codes 0/1/2 honored")
