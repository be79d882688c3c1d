import itertools
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_cochain, standard_fixtures
from oracles import (bruteforce_deformation_failures, cochain_coords, cochain_eval,
                     cochain_from_coords, cochain_preimage, dense_deformation_from_doc,
                     dense_mu_ints, dense_solve, dense_terms, enumerate_basis,
                     fraction_delta_matrix, fraction_describe,
                     fraction_intertwining_defect, fraction_residual, fraction_solve,
                     fraction_transform, inverse, iso_matrix, scale, sparse)
from test_cli import run
from test_cohomology import _denominator_algebra
from superleibniz.algebra import abelian, adjoint_module, nonlie_example, zero_module
from superleibniz.cochain import Cochain, all_tuples, delta, tuple_index
from superleibniz.cohomology import cohomology_table, delta_matrix
from superleibniz.deformation import (ExtensionUndefined, FormalIsomorphism,
                                      TruncatedDeformation, check_deformation,
                                      deformation_residual, equivalent_deformations,
                                      extend_deformation, infinitesimal_relation,
                                      transform)
from superleibniz.fileio import (cochain_to_doc, deformation_from_doc, load_deformation,
                                 save_algebra, save_deformation, series_to_doc)
from superleibniz.linalg import F0, F1, basis_vec, bilinear, scale_to_ints

F = Fraction
GOLDEN = pathlib.Path(__file__).parent / "golden"


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


def random_iso(L, M, order, rng):
    return FormalIsomorphism(L, [random_psi(L, M, rng) for _ in range(order)], M)


# -- residuals -------------------------------------------------------------

def test_residual_zero_terms_is_leibniz_defect():
    L, M = nonlie_setup()
    d = TruncatedDeformation.zero(L, 2)
    for r in (1, 2, 3, 4):
        assert deformation_residual(d, r).is_zero()


def test_residual_order1_is_minus_delta():
    rng = random.Random(0)
    for L in standard_fixtures():
        M = adjoint_module(L)
        for _ in range(5):
            mu1 = random_cochain(L, M, 2, 0, rng)
            d = TruncatedDeformation(L, [mu1], M)
            res = deformation_residual(d, 1)
            assert res.coeffs == scale(delta(mu1), F(-1)).coeffs


def test_residual_order1_vanishes_iff_cocycle():
    rng = random.Random(1)
    for L in standard_fixtures():
        M = adjoint_module(L)
        for _ in range(10):
            mu1 = random_cochain(L, M, 2, 0, rng)
            d = TruncatedDeformation(L, [mu1], M)
            assert deformation_residual(d, 1).is_zero() == delta(mu1).is_zero()


def test_residual_of_example_fails_on_the_expected_triples():
    L, M = nonlie_setup()
    d = TruncatedDeformation(L, [mu_zz_x(L, M)], M)
    res = deformation_residual(d, 1)
    # -delta(mu1): the defect at (y,z,z) is -[y,x] = -x, at (z,y,z) it is +x
    assert res.value((1, 2, 2)) == [-F1, F0, F0]
    assert res.value((2, 1, 2)) == [F1, F0, F0]
    others = [t for t in all_tuples(3, 3) if t not in ((1, 2, 2), (2, 1, 2))]
    assert all(not any(res.value(t)) for t in others)


def test_residual_range_errors():
    L, M = nonlie_setup()
    d = TruncatedDeformation(L, [mu_zz_x(L, M)], M)
    with pytest.raises(ValueError):
        deformation_residual(d, 0)
    with pytest.raises(ValueError):
        deformation_residual(d, 3)


def test_terms_must_be_even_2_cochains():
    L, M = nonlie_setup()
    with pytest.raises(ValueError):
        TruncatedDeformation(L, [Cochain.zero(L, M, 1, 0)], M)
    with pytest.raises(ValueError):
        TruncatedDeformation(L, [Cochain.zero(L, M, 2, 1)], M)


# -- fraction-free kernels vs the Fraction references -----------------------

# pairwise coprime, so the common denominator of a family is their product
DENOMS = (2, 3, 7, 10007)
HUGE = 2 ** 64 + 1


def fractional_coords(n: int, rng) -> list:
    """n coordinates cycling through DENOMS, one numerator above 2**64."""
    coords = [F(rng.randint(-5, 5), DENOMS[s % len(DENOMS)]) for s in range(n)]
    coords[rng.randrange(n)] = F(rng.choice((HUGE, -HUGE)), rng.choice(DENOMS))
    return coords


def fractional_cochain(L, M, arity, rng):
    enum = enumerate_basis(L, M, arity, 0)
    return cochain_from_coords(L, M, arity, 0, sparse(fractional_coords(len(enum), rng)),
                               enum)


def fractional_deformation(L, M, order, rng):
    return TruncatedDeformation(
        L, [fractional_cochain(L, M, 2, rng) for _ in range(order)], M)


def fractional_iso(L, M, order, rng):
    return FormalIsomorphism(
        L, [fractional_cochain(L, M, 1, rng) for _ in range(order)], M)


def test_fractional_coefficients_cover_the_denominators():
    rng = random.Random(11)
    L, M = nonlie_setup()
    d = fractional_deformation(L, M, 3, rng)
    entries = [x for f in dense_terms(d) for v in f.coeffs for x in v if x]
    assert {x.denominator for x in entries} >= set(DENOMS)
    assert max(abs(x.numerator) for x in entries) > 2 ** 64


@pytest.mark.parametrize("L", standard_fixtures(), ids=lambda L: L.space.name)
def test_residual_matches_fraction_reference_on_fractional_jets(L):
    rng = random.Random(12)
    M = adjoint_module(L)
    d = fractional_deformation(L, M, 3, rng)
    for r in range(1, 2 * d.order + 1):
        assert deformation_residual(d, r) == fraction_residual(d, r)


@pytest.mark.parametrize("L", standard_fixtures(), ids=lambda L: L.space.name)
def test_transform_matches_fraction_reference_on_fractional_isomorphisms(L):
    rng = random.Random(13)
    M = adjoint_module(L)
    d = fractional_deformation(L, M, 3, rng)
    iso = fractional_iso(L, M, 3, rng)
    assert dense_terms(transform(d, iso)) == fraction_transform(d, iso)
    zero = TruncatedDeformation.zero(L, 3, M)
    assert dense_terms(transform(zero, iso)) == fraction_transform(zero, iso)
    # order 6 walks the index bounds; a zero gap (mu_2 = 0 between nonzero
    # mu_1 and mu_3) exercises the skip of zero terms
    d6, iso6 = fractional_deformation(L, M, 6, rng), fractional_iso(L, M, 6, rng)
    assert dense_terms(transform(d6, iso6)) == fraction_transform(d6, iso6)
    mu1, _, mu3 = dense_terms(d)
    gap = TruncatedDeformation(L, [mu1, Cochain.zero(L, M, 2, 0), mu3], M)
    assert dense_terms(transform(gap, iso)) == fraction_transform(gap, iso)


# -- checker vs brute-force oracle ------------------------------------------

def test_checker_agrees_with_oracle_on_zero_deformation():
    L, M = nonlie_setup()
    d = TruncatedDeformation.zero(L, 2)
    assert check_deformation(d).ok
    assert bruteforce_deformation_failures(d, 4) == []


def test_checker_agrees_with_oracle_on_example():
    L, M = nonlie_setup()
    d = TruncatedDeformation(L, [mu_zz_x(L, M)], M)
    rep = check_deformation(d)
    failures = bruteforce_deformation_failures(d, 2)
    assert not rep.ok
    assert failures
    # both identify order 1 and triple (y,z,z)
    assert rep.violations[0]["order"] == 1
    assert min(failures)[0] == 1
    assert (1, (1, 2, 2)) in failures
    assert ("y", "z", "z") in {tuple(v["triple"]) for v in rep.violations}


def test_checker_agrees_with_oracle_on_random_jets():
    rng = random.Random(2)
    L, M = nonlie_setup()
    agree = 0
    for _ in range(20):
        mu1 = random_cochain(L, M, 2, 0, rng)
        d = TruncatedDeformation(L, [mu1], M)
        lib = check_deformation(d)
        oracle = bruteforce_deformation_failures(d, 2)
        assert lib.ok == (not oracle)
        if not lib.ok:
            assert lib.violations[0]["order"] == min(oracle)[0]
        agree += 1
    assert agree == 20


def test_strict_checker_agrees_with_oracle_on_fractional_jets():
    # a random fractional jet fails at order 1; the transform of the zero
    # deformation by a fractional isomorphism holds as a jet and fails
    # strictly past the order: both must fail exactly where the expansion does
    rng = random.Random(14)
    L, M = nonlie_setup()
    zero = TruncatedDeformation.zero(L, 3, M)
    for d in (fractional_deformation(L, M, 3, rng),
              transform(zero, fractional_iso(L, M, 3, rng))):
        strict = check_deformation(d)
        oracle = bruteforce_deformation_failures(d, 2 * d.order)
        assert not strict.ok and oracle
        first = min(oracle)[0]
        assert {v["order"] for v in strict.violations} == {first}
        labels = L.space.labels
        assert ({tuple(v["triple"]) for v in strict.violations}
                == {tuple(labels[i] for i in t) for r, t in oracle if r == first})
    assert check_deformation(d, mod_order=True).ok and first > d.order


def test_terms_are_scaled_once_when_the_series_is_built(monkeypatch):
    # the terms are scaled to ints together, once, as the series is built,
    # and the unit is the algebra's integral form; a check, whether it runs
    # all 2N orders or stops at the first failing one, rescales nothing
    import superleibniz.deformation as deformation
    calls = []
    original = deformation.scale_to_ints

    def counted(tables):
        calls.append(len(tables))
        return original(tables)

    monkeypatch.setattr(deformation, "scale_to_ints", counted)
    L, M = nonlie_setup()
    failing = TruncatedDeformation(L, [Cochain.zero(L, M, 2, 0), mu_zz_x(L, M)], M)
    assert calls == [2]   # one call holds both terms
    assert failing.tables[0] is L.integral[1]
    for d, ok in ((TruncatedDeformation.zero(L, 3, M), True), (failing, False)):
        calls.clear()
        rep = check_deformation(d)
        assert rep.ok is ok and calls == []
    assert {v["order"] for v in rep.violations} == {2}


def test_strict_check_skips_the_products_of_zero_terms(monkeypatch):
    # a product with a zero factor adds nothing to a residual; summing them
    # made a check of an order-N zero deformation quadratic in N
    import superleibniz.deformation as deformation
    pairs = []
    original = deformation.leibniz_defect

    def spy(prs, parities):
        pairs.extend(prs)
        return original(prs, parities)

    monkeypatch.setattr(deformation, "leibniz_defect", spy)
    L, M = nonlie_setup()
    assert check_deformation(TruncatedDeformation.zero(L, 50, M)).ok
    assert pairs == []


def test_check_and_extend_visit_no_order_past_twice_the_highest_term(monkeypatch,
                                                                     tmp_path):
    # no product mu_i mu_(r-i) remains past twice the highest stored power;
    # visiting every order up to the declared one made a 35-byte file
    # declaring order 10**9 run for hours
    import superleibniz.deformation as deformation
    visited = []
    residual = deformation._residual_ints

    def counted(d, r):
        visited.append(r)
        if len(visited) > 100:
            raise AssertionError(f"visited order {r}")
        return residual(d, r)

    monkeypatch.setattr(deformation, "_residual_ints", counted)
    L, M = nonlie_setup()
    # mu_t = (1 + t) mu_0 satisfies every order
    mu1 = Cochain(L, M, 2, 0, [list(v) for row in L.table for v in row])
    d = TruncatedDeformation(L, [mu1], M, order=10 ** 6)
    for mod_order in (False, True):
        visited.clear()
        assert check_deformation(d, mod_order=mod_order).ok and visited == [1, 2]
    visited.clear()
    assert extend_deformation(d, 10 ** 6 + 1) is not None
    assert visited == [1, 2, 10 ** 6 + 1]
    # the report still names every order the equations were checked at
    alg, src = tmp_path / "alg.json", tmp_path / "d.json"
    save_algebra(L, str(alg))
    save_deformation(d, str(src))
    code, out, _ = run(["deform", "check", str(alg), "--deformation", str(src),
                        "--format", "json"])
    assert code == 0 and json.loads(out)["checked_orders"] == "1..2000000"


def test_a_deformation_job_scales_the_structure_once(monkeypatch, tmp_path):
    # the algebra keeps its integral bracket table: the loaded series, the
    # zero and identity series, the transform's nu and the adjoint
    # Coboundary all read it, so one job makes one scale_to_ints call
    import sys
    import superleibniz.linalg as linalg
    calls = []
    original = linalg.scale_to_ints

    def counted(tables):
        calls.append(len(tables))
        return original(tables)

    for name, module in list(sys.modules.items()):
        if name.startswith("superleibniz") and hasattr(module, "scale_to_ints"):
            monkeypatch.setattr(module, "scale_to_ints", counted)
    alg, zero, trivial = (str(GOLDEN / f) for f in (
        "nonlie3.json", "deform_zero2.json", "deform_trivial2.json"))
    jobs = [["deform", "equiv", alg, "--deformation", zero, "--deformation", trivial],
            ["deform", "extend", alg, "--deformation", zero, "--out",
             str(tmp_path / "jet.json")]]
    for argv in jobs:
        calls.clear()
        code, _, err = run(argv)
        assert code == 0 and calls == [1], (argv[1], err, calls)


def test_equiv_and_transform_visit_no_order_past_the_last_nonzero_one(monkeypatch,
                                                                      tmp_path):
    # past P + 2Q no summand of the defect survives (P, Q the highest stored
    # powers of the deformations and of Psi_t); visiting every declared
    # order made two empty order-10**5 files take seconds
    import superleibniz.deformation as deformation
    visited = []
    defect = deformation._intertwining_defect

    def counted(mu, nu, psi, r, dim):
        visited.append(r)
        if len(visited) > 100:
            raise AssertionError(f"visited order {r}")
        return defect(mu, nu, psi, r, dim)

    monkeypatch.setattr(deformation, "_intertwining_defect", counted)
    L, M = nonlie_setup()
    # mu_t = (1 + t) mu_0 satisfies every order
    mu1 = Cochain(L, M, 2, 0, [list(v) for row in L.table for v in row])
    alg, empty, one = tmp_path / "alg.json", tmp_path / "z.json", tmp_path / "d.json"
    save_algebra(L, str(alg))
    save_deformation(TruncatedDeformation.zero(L, 10 ** 6, M), str(empty))
    save_deformation(TruncatedDeformation(L, [mu1], M, order=10 ** 6), str(one))
    # equiv, the final transform and the order-1 relation
    for path, orders in ((empty, [1]), (one, [1, 1, 1])):
        visited.clear()
        code, out, err = run(["deform", "equiv", str(alg), "--deformation", str(path),
                              "--deformation", str(path), "--format", "json"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["equivalent"] and doc["infinitesimal_relation"]
        assert doc["isomorphism"] == {} and sorted(visited) == orders
    # with psi_1 = (x -> x) the transform of zero stops past P_nu + 2Q = 3,
    # and the search back from zero, which finds Q = 1 at order 1, visits
    # the orders up to P + 2Q = 3 before its final transform
    zero = TruncatedDeformation.zero(L, 10 ** 6, M)
    psi = Cochain(L, M, 1, 0, [basis_vec(3, 0), [F0] * 3, [F0] * 3])
    visited.clear()
    nu = transform(zero, FormalIsomorphism(L, [psi], M, order=10 ** 6))
    assert sorted(nu.tables) == [0, 1] and visited == [1, 2, 3]
    visited.clear()
    assert sorted(equivalent_deformations(zero, nu).tables) == [0, 1]
    assert visited[:4] == [1, 2, 3, 1]


@pytest.mark.parametrize("L", standard_fixtures(), ids=lambda L: L.space.name)
def test_reported_defects_match_fraction_reference_on_fractional_jets(L):
    # the strict check builds Fractions only for the defects it reports;
    # they are the exact residual entries, in triple order
    rng = random.Random(15)
    M = adjoint_module(L)
    sp = L.space
    zero = TruncatedDeformation.zero(L, 3, M)
    jet = fractional_deformation(L, M, 3, rng)
    for d in (jet, transform(zero, fractional_iso(L, M, 3, rng))):
        rep = check_deformation(d)
        if d is jet:
            assert not rep.ok
        if rep.ok:
            continue
        res = fraction_residual(d, rep.violations[0]["order"])
        assert [(v["triple"], v["defect"]) for v in rep.violations] == [
            (tuple(sp.labels[i] for i in t), sp.describe(res.value(t)))
            for t in all_tuples(L.dim, 3) if any(res.value(t))]


def test_extend_rejects_a_term_that_leaves_the_residual(monkeypatch):
    # the post-solve check on the int residual turns a wrong solution into
    # an AssertionError (exit 3 in the CLI), never into a result
    import superleibniz.cohomology as cohomology
    L, M = nonlie_setup()
    mu1 = cohomology_table(L, M, 2, with_bases=True).entry(2, 0).basis_z[0]
    d = TruncatedDeformation(L, [mu1], M)
    assert not deformation_residual(d, 2).is_zero()
    assert extend_deformation(d, 2) is not None
    monkeypatch.setattr(cohomology.Coboundary, "preimage",
                        lambda self, n, parity, den, rows: (1, [[] for _ in range(9)]))
    with pytest.raises(AssertionError, match="sign conventions broken"):
        extend_deformation(d, 2)


@pytest.mark.parametrize("L", standard_fixtures(), ids=lambda L: L.space.name)
def test_two_product_certificate_is_the_full_residual(L):
    # extend certifies mu_r from the base's residual and the two products
    # with mu_0; on the solver's term and on arbitrary fractional ones
    # (which grow the denominator) that sum is the extended series' residual
    import superleibniz.deformation as deformation
    rng = random.Random(18)
    M = adjoint_module(L)
    zero = TruncatedDeformation.zero(L, 2, M)
    for base in (zero, transform(zero, fractional_iso(L, M, 2, rng)),
                 fractional_deformation(L, M, 2, rng)):
        residual = deformation._residual_ints(base, 3)
        jets = [TruncatedDeformation(L, [*dense_terms(base), fractional_cochain(L, M, 2, rng)],
                                     M)]
        if check_deformation(base, mod_order=True).ok:
            jet = extend_deformation(base, 3)
            jets += [jet] if jet is not None else []
        for extended in jets:
            full = deformation._residual_ints(extended, 3)
            assert deformation._extended_residual(base, residual, extended, 3) == full


def test_solves_build_the_coboundary_matrix_for_a_nonzero_right_hand_side_only(monkeypatch):
    # extend and equiv make one Coboundary per call, lay out the parity-0
    # coordinates only, and build D_n on the first nonzero right-hand side,
    # once; a zero one reads no row and lays out no coordinate, and equiv
    # of two zero deformations stops before its first order (no defect can
    # be nonzero)
    import superleibniz.cohomology as cohomology
    built, made = [], []
    matrix, init = cohomology.delta_matrix, cohomology.Coboundary.__init__
    monkeypatch.setattr(cohomology, "delta_matrix",
                        lambda *a, **k: built.append(a[2]) or matrix(*a, **k))
    monkeypatch.setattr(cohomology.Coboundary, "__init__",
                        lambda self, *a: made.append(self) or init(self, *a))
    L, M = nonlie_setup()
    mu1 = cohomology_table(L, M, 2, with_bases=True).entry(2, 0).basis_z[0]
    zero = TruncatedDeformation.zero(L, 3, M)
    d1 = transform(zero, random_iso(L, M, 3, random.Random(19)))
    cases = [(lambda: 3 not in extend_deformation(zero.truncated(2), 3).tables, [], []),
             (lambda: extend_deformation(TruncatedDeformation(L, [mu1], M), 2), [2], [0]),
             (lambda: equivalent_deformations(zero, zero), [], []),
             (lambda: equivalent_deformations(zero, d1), [1], [0])]
    for call, matrices, layouts in cases:
        built.clear()
        made.clear()
        assert call()
        assert built == matrices and [list(cob._layouts) for cob in made] == [layouts]


def _negated(den, table):
    return [[(k, -x) for k, x in row] for row in table]


def _plus_a_non_cocycle(den, table):
    # mu(z, z) += a multiple of x: mu_zz_x, which is no cocycle on nonlie3
    zz = tuple_index((2, 2), 3)
    row = dict(table[zz])
    row[0] = row.get(0, 0) + den
    return table[:zz] + [sorted((k, x) for k, x in row.items() if x)] + table[zz + 1:]


@pytest.mark.parametrize("corrupt", [_negated, _plus_a_non_cocycle],
                         ids=["negated", "plus_non_cocycle"])
def test_extend_rejects_a_corrupted_solver_term(monkeypatch, tmp_path, corrupt):
    # a wrong mu_r fails the two-product certificate: an AssertionError in
    # the library, exit 3 in the CLI, and no output file
    import superleibniz.cli as cli
    import superleibniz.cohomology as cohomology
    L, M = nonlie_setup()
    assert not delta(mu_zz_x(L, M)).is_zero()
    mu1 = cohomology_table(L, M, 2, with_bases=True).entry(2, 0).basis_z[0]
    d = TruncatedDeformation(L, [mu1], M)
    assert not dense_terms(extend_deformation(d, 2))[1].is_zero()
    solve = cohomology.Coboundary.preimage

    def corrupted(self, n, parity, den, rows):
        den, table = solve(self, n, parity, den, rows)
        return den, corrupt(den, table)

    monkeypatch.setattr(cohomology.Coboundary, "preimage", corrupted)
    with pytest.raises(AssertionError, match="sign conventions broken"):
        extend_deformation(d, 2)
    alg, src, out = (tmp_path / name for name in ("alg.json", "d.json", "out.json"))
    save_algebra(L, str(alg))
    save_deformation(d, str(src))
    code, stdout, err = run(["deform", "extend", str(alg), "--deformation", str(src),
                             "--order", "2", "--out", str(out)])
    assert code == cli.EXIT_INTERNAL == 3 and stdout == ""
    assert err.startswith("internal error: ") and "sign conventions broken" in err
    assert not out.exists()


def test_strict_vs_jet_reading_of_truncated_transforms():
    # a transform of the zero deformation is exact only as a jet: the
    # strict reading sees the discarded tail through orders N+1..2N
    L, M = nonlie_setup()
    rng = random.Random(3)
    saw_strict_failure = False
    for _ in range(10):
        iso = random_iso(L, M, 2, rng)
        t = transform(TruncatedDeformation.zero(L, 2), iso)
        assert check_deformation(t, mod_order=True).ok
        strict = check_deformation(t)
        oracle_jet = bruteforce_deformation_failures(t, 2)
        oracle_strict = bruteforce_deformation_failures(t, 4)
        assert oracle_jet == []
        assert strict.ok == (not oracle_strict)
        if not strict.ok:
            saw_strict_failure = True
            assert strict.violations[0]["order"] > 2
    assert saw_strict_failure


# -- the n-infinitesimal -----------------------------------------------------

def test_n_infinitesimal_of_valid_deformation_is_cocycle():
    # build deformations with mu_1 = 0 by transforming with psi_1 = 0
    L, M = nonlie_setup()
    rng = random.Random(4)
    for _ in range(10):
        zero1 = Cochain.zero(L, M, 1, 0)
        iso = FormalIsomorphism(L, [zero1, random_psi(L, M, rng)], M)
        t = transform(TruncatedDeformation.zero(L, 2), iso)
        assert check_deformation(t, mod_order=True).ok
        # the first nonzero term with its order
        inf = next(((n, g) for n, g in enumerate(dense_terms(t), start=1)
                    if not g.is_zero()), None)
        if inf is None:
            continue
        n, g = inf
        assert n == 2
        assert delta(g).is_zero()


# -- extension (obstruction solving) -----------------------------------------

def test_extend_from_zero_gives_valid_order1():
    L, M = nonlie_setup()
    d = TruncatedDeformation.zero(L, 0)
    jet = extend_deformation(d, 1)
    assert jet is not None and jet.order == 1
    assert deformation_residual(jet, 1).is_zero()


def test_extend_coboundary_jet_to_higher_order():
    L, M = nonlie_setup()
    rng = random.Random(5)
    for _ in range(5):
        f = random_psi(L, M, rng)
        d = TruncatedDeformation(L, [delta(f)], M)
        d2 = extend_deformation(d, 2)
        assert d2 is not None and d2.truncated(1) == d
        assert check_deformation(d2, mod_order=True).ok
        d3 = extend_deformation(d2, 3)
        assert d3 is not None and d3.truncated(2) == d2
        assert check_deformation(d3, mod_order=True).ok


def test_extend_matches_trivial_completion():
    # the transform route and the solver route agree on solvability
    L, M = nonlie_setup()
    rng = random.Random(6)
    f = random_psi(L, M, rng)
    iso = FormalIsomorphism(L, [f, Cochain.zero(L, M, 1, 0)], M)
    t = transform(TruncatedDeformation.zero(L, 2), iso)
    d = TruncatedDeformation(L, [dense_terms(t)[0]], M)
    jet = extend_deformation(d, 2)
    assert jet is not None
    # both completions pass; they may differ by a 2-cocycle
    assert check_deformation(jet, mod_order=True).ok
    diff = dense_terms(jet)[1] - dense_terms(t)[1]
    assert delta(diff).is_zero()


def test_extend_precondition_failure_reported():
    L, M = nonlie_setup()
    d = TruncatedDeformation(L, [mu_zz_x(L, M)], M)
    with pytest.raises(ValueError, match="order 1") as exc:
        extend_deformation(d, 2)
    # the failing order's violations ride along for the CLI report
    assert isinstance(exc.value, ExtensionUndefined)
    assert exc.value.report == check_deformation(d, mod_order=True)


def test_extend_obstructed_case():
    # on an abelian algebra delta vanishes, so any jet whose square terms
    # are nonzero is obstructed at order 2; the rank of the augmented
    # system certifies that the right-hand side is not a coboundary
    A = abelian(1, 1)
    MA = adjoint_module(A)
    mu = Cochain.zero(A, MA, 2, 0)
    mu.coeffs[0] = basis_vec(2, 0)     # mu1(a0,a0) = a0
    d = TruncatedDeformation(A, [mu], MA)
    assert deformation_residual(d, 1).is_zero()
    assert extend_deformation(d, 2) is None
    # independent certificate: augmented rank exceeds plain rank
    from superleibniz.linalg import RatMatrix, rank
    mat = delta_matrix(A, MA, 2, 0)
    rhs = cochain_coords(deformation_residual(d, 2),
                         enumerate_basis(A, MA, 3, 0))
    rows = [dict(row) for row in mat.sparse_rows]
    for i, b in rhs.items():
        rows[i][mat.cols] = b
    aug = RatMatrix(mat.cols + 1, rows)
    assert rank(aug) == rank(mat) + 1



def test_obstruction_rhs_is_in_the_cocycle_space():
    # empirical: the order-r right-hand side is killed by the next
    # coboundary whenever the lower orders hold
    L, M = nonlie_setup()
    rng = random.Random(7)
    for _ in range(5):
        f = random_psi(L, M, rng)
        d = TruncatedDeformation(L, [delta(f)], M)
        rhs = deformation_residual(d, 2)
        assert delta(rhs).is_zero()


# -- transform ---------------------------------------------------------------

def test_transform_identity_is_noop():
    L, M = nonlie_setup()
    rng = random.Random(8)
    iso = FormalIsomorphism.identity(L, 2, M)
    d = transform(TruncatedDeformation.zero(L, 2), random_iso(L, M, 2, rng))
    assert transform(d, iso) == d


def test_transform_order1_formula():
    # nu_1(a,b) = mu_1(a,b) + psi_1([a,b]) - [psi_1 a, b] - [a, psi_1 b]
    L, M = nonlie_setup()
    rng = random.Random(9)
    for _ in range(5):
        psi1 = random_psi(L, M, rng)
        iso = FormalIsomorphism(L, [psi1], M)
        t = transform(TruncatedDeformation.zero(L, 1), iso)
        expect = scale(delta(psi1), F(-1))
        assert dense_terms(t)[0].coeffs == expect.coeffs
        for i, j in itertools.product(range(3), repeat=2):
            ei, ej = basis_vec(3, i), basis_vec(3, j)
            manual = cochain_eval(psi1, [L.bracket(i, j)])
            step = bilinear(M.right, cochain_eval(psi1, [ei]), ej, M.dim)
            manual = [m - c for m, c in zip(manual, step)]
            step = bilinear(M.left, ei, cochain_eval(psi1, [ej]), M.dim)
            manual = [m - c for m, c in zip(manual, step)]
            assert dense_terms(t)[0].value((i, j)) == manual


def test_transform_round_trip_with_inverse():
    L, M = nonlie_setup()
    rng = random.Random(10)
    for _ in range(5):
        iso = random_iso(L, M, 3, rng)
        d = transform(TruncatedDeformation.zero(L, 3), random_iso(L, M, 3, rng))
        there = transform(d, iso)
        back = transform(there, inverse(iso))
        assert back == d


def test_inverse_is_a_series_inverse():
    L, M = nonlie_setup()
    rng = random.Random(11)
    iso = random_iso(L, M, 3, rng)
    inv = inverse(iso)
    phis = [iso_matrix(inverse(inv, 3), r) for r in range(4)]
    for r in range(1, 4):
        # composing the inverse series of inv with iso terms gives identity: the
        # double inverse must reproduce the original term matrices
        assert phis[r] == iso_matrix(iso, r)


def test_transform_preserves_validity_mod_order():
    L, M = nonlie_setup()
    rng = random.Random(12)
    for _ in range(5):
        d = transform(TruncatedDeformation.zero(L, 3), random_iso(L, M, 3, rng))
        assert check_deformation(d, mod_order=True).ok
        t = transform(d, random_iso(L, M, 3, rng))
        assert check_deformation(t, mod_order=True).ok


def test_transform_requires_matching_order():
    L, M = nonlie_setup()
    with pytest.raises(ValueError):
        transform(TruncatedDeformation.zero(L, 2),
                  FormalIsomorphism.identity(L, 3, M))


def test_transform_satisfies_the_intertwining_property():
    # nu_t(Psi a, Psi b) = Psi(mu_t(a,b)) mod t**(N+1), checked by direct
    # truncated-series expansion, so iso really maps d to transform(d, iso)
    from oracles import intertwining_defects
    L, M = nonlie_setup()
    rng = random.Random(17)
    for _ in range(8):
        d = transform(TruncatedDeformation.zero(L, 3), random_iso(L, M, 3, rng))
        iso = random_iso(L, M, 3, rng)
        t = transform(d, iso)
        assert intertwining_defects(d, t, iso, 3) == []
        # beyond the truncation order the property may and does fail
        assert intertwining_defects(d, t, iso, 6)


# -- equivalence --------------------------------------------------------------

def test_equivalent_deformations_identity_case():
    L, M = nonlie_setup()
    d = TruncatedDeformation.zero(L, 2)
    iso = equivalent_deformations(d, d)
    assert iso is not None
    assert transform(d, iso) == d


def test_equivalent_deformations_recovers_transforms():
    L, M = nonlie_setup()
    rng = random.Random(13)
    for _ in range(8):
        d1 = transform(TruncatedDeformation.zero(L, 2), random_iso(L, M, 2, rng))
        iso0 = random_iso(L, M, 2, rng)
        d2 = transform(d1, iso0)
        iso = equivalent_deformations(d1, d2)
        assert iso is not None
        assert transform(d1, iso) == d2
    # a zero gap: mu_2 = 0 between nonzero mu_1 and mu_3.  Such a jet is no
    # deformation, and the order-by-order search then finds the isomorphism
    # whose terms are canonical preimages (free coordinates zero), as it
    # picks them itself
    d1 = transform(TruncatedDeformation.zero(L, 3), random_iso(L, M, 3, rng))
    mu1, _, mu3 = dense_terms(d1)
    d1 = TruncatedDeformation(L, [mu1, Cochain.zero(L, M, 2, 0), mu3], M)
    assert not mu1.is_zero() and not mu3.is_zero()
    iso0 = FormalIsomorphism(L, [cochain_preimage(delta(f))
                                 for f in dense_terms(random_iso(L, M, 3, rng))], M)
    d2 = transform(d1, iso0)
    iso = equivalent_deformations(d1, d2)
    assert iso is not None and dense_terms(iso) == dense_terms(iso0)
    assert transform(d1, iso) == d2


@pytest.mark.parametrize("L", standard_fixtures(), ids=lambda L: L.space.name)
def test_transform_and_equivalence_build_no_inverse_series(L):
    # the inverse series is the test oracle inverse; the library holds no
    # product of series, so both verbs reach their results without one
    import superleibniz.deformation as deformation

    assert not hasattr(deformation, "lin_comb")
    assert not hasattr(FormalIsomorphism, "inverse")
    rng = random.Random(0)
    M = adjoint_module(L)
    d1 = transform(TruncatedDeformation.zero(L, 3, M), random_iso(L, M, 3, rng))
    d2 = transform(d1, random_iso(L, M, 3, rng))
    iso = equivalent_deformations(d1, d2)
    assert iso is not None
    assert transform(d1, iso) == d2


def test_equivalent_deformations_obstructed_case():
    # a jet whose infinitesimal is a nonzero cohomology class is not
    # equivalent to the zero deformation
    L, M = nonlie_setup()
    from superleibniz.cohomology import cohomology_table
    tab = cohomology_table(L, M, 2, with_bases=True)
    h = tab.entry(2, 0).basis_h[0]
    d1 = TruncatedDeformation(L, [h], M)
    d2 = TruncatedDeformation.zero(L, 1)
    assert equivalent_deformations(d1, d2) is None


def test_equivalent_deformations_rejects_negative_order():
    L, M = nonlie_setup()
    d = TruncatedDeformation.zero(L, 2, M)
    with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
        equivalent_deformations(d, d, order=-1)


def test_infinitesimal_relation_identity_iso():
    L, M = nonlie_setup()
    rng = random.Random(14)
    d = transform(TruncatedDeformation.zero(L, 2), random_iso(L, M, 2, rng))
    iso = FormalIsomorphism.identity(L, 2, M)
    assert infinitesimal_relation(d, d, iso).ok


def test_infinitesimal_relation_for_transforms():
    L, M = nonlie_setup()
    rng = random.Random(15)
    for _ in range(10):
        d1 = transform(TruncatedDeformation.zero(L, 2), random_iso(L, M, 2, rng))
        iso = random_iso(L, M, 2, rng)
        d2 = transform(d1, iso)
        rep = infinitesimal_relation(d1, d2, iso)
        assert rep.ok
        # and explicitly: mu_1 - nu_1 = delta(psi_1)
        lhs = dense_terms(d1)[0] - dense_terms(d2)[0]
        assert lhs.coeffs == delta(dense_terms(iso)[0]).coeffs


def test_infinitesimal_relation_defect_reported():
    L, M = nonlie_setup()
    d1 = TruncatedDeformation(L, [mu_zz_x(L, M)], M)
    d2 = TruncatedDeformation.zero(L, 1)
    iso = FormalIsomorphism.identity(L, 1, M)
    rep = infinitesimal_relation(d1, d2, iso)
    assert not rep.ok
    assert rep.violations


def test_infinitesimal_relation_writes_each_defect_as_its_fractions():
    # over a structure denominator D > 1: every violation is the pair and
    # (mu_1 - nu_1) - delta(psi_1) there, written as str(Fraction) writes it
    L = _denominator_algebra()
    M, sp, rng = adjoint_module(L), L.space, random.Random(17)
    d1, d2 = (TruncatedDeformation(L, [random_cochain(L, M, 2, 0, rng)], M) for _ in "12")
    iso = FormalIsomorphism(L, [random_cochain(L, M, 1, 0, rng)], M)
    defect = dense_terms(d1)[0] - dense_terms(d2)[0] - delta(dense_terms(iso)[0])
    want = [{"pair": tuple(sp.labels[i] for i in t), "defect": fraction_describe(sp, v, 1)}
            for t, v in zip(all_tuples(L.dim, 2), defect.coeffs) if any(v)]
    rep = infinitesimal_relation(d1, d2, iso)
    assert want and not rep.ok and rep.violations == want
    assert any("/" in v["defect"] for v in want)


def test_equivalence_is_an_equivalence_relation():
    L, M = nonlie_setup()
    rng = random.Random(16)
    base = transform(TruncatedDeformation.zero(L, 2), random_iso(L, M, 2, rng))
    d2 = transform(base, random_iso(L, M, 2, rng))
    d3 = transform(d2, random_iso(L, M, 2, rng))
    # reflexive, symmetric, transitive searches all succeed
    assert equivalent_deformations(base, base) is not None
    assert equivalent_deformations(d2, base) is not None
    assert equivalent_deformations(base, d3) is not None


def test_abelian_everything_is_rigid():
    # on an abelian algebra delta = 0, so only the zero jet is a
    # coboundary: a nonzero mu_1 is never equivalent to zero
    A = abelian(1, 1)
    MA = adjoint_module(A)
    mu = Cochain.zero(A, MA, 2, 0)
    mu.coeffs[0] = basis_vec(2, 0)
    d1 = TruncatedDeformation(A, [mu], MA)
    # order 1 holds (every 2-cochain is a cocycle here); order 2 sees
    # mu_1 composed with itself, which is not a Leibniz product
    assert check_deformation(d1, mod_order=True).ok
    assert not check_deformation(d1).ok
    assert equivalent_deformations(d1, TruncatedDeformation.zero(A, 1)) is None


# -- the series: parse, scale, solve -----------------------------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# numerators and denominators that make the running denominator grow,
# shrink back on truncation and cancel between terms
COEFFS = [F(0), F(1), F(-1), F(2, 3), F(-5, 4), F(7, 6), F(HUGE, 10007), F(1, 2 ** 70)]


@st.composite
def deformation_documents(draw):
    """A deformation file of a standard fixture: some powers of t carry a
    homogeneous even 2-cochain drawn from COEFFS, written as JSON with the
    entries and the value terms in a drawn order."""
    L = draw(st.sampled_from(standard_fixtures()))
    M = adjoint_module(L)
    order = draw(st.integers(0, 5))
    powers = draw(st.sets(st.integers(1, order), max_size=order)) if order else set()
    terms = {}
    for i in sorted(powers):
        f = Cochain.zero(L, M, 2, 0)
        for idx, t in enumerate(all_tuples(L.dim, 2)):
            want = L.space.tuple_parity(t)
            f.coeffs[idx] = [draw(st.sampled_from(COEFFS)) if p == want else F0
                             for p in M.space.parities]
        entries = draw(st.permutations(cochain_to_doc(f)["entries"]))
        for ent in entries:
            ent["value"] = draw(st.permutations(ent["value"]))
        terms[str(i)] = {"entries": entries}
    return L, M, {"order": order, "terms": terms}


@PROPERTY
@given(deformation_documents())
def test_series_parse_equals_the_dense_reference(case):
    # the series holds each term scaled by the lcm of all denominators, as
    # scaling the dense cochains together does, and writes the same bytes
    L, M, doc = case
    d = deformation_from_doc(doc, L)
    den, tables = dense_mu_ints(L, dense_deformation_from_doc(doc, L, M))
    assert (d.order, d.den, d.tables) == (doc["order"], den, tables)
    assert dense_terms(d) == dense_deformation_from_doc(doc, L, M)
    assert d == TruncatedDeformation(L, dense_terms(d), M)


@PROPERTY
@given(deformation_documents())
def test_series_load_then_save_is_byte_identical(tmp_path_factory, case):
    L, M, doc = case
    for ent in (e for term in doc["terms"].values() for e in term["entries"]):
        ent["value"].sort(key=lambda v: L.space.index(v["label"]))
    for term in doc["terms"].values():
        term["entries"].sort(key=lambda e: [L.space.index(x) for x in e["args"]])
    doc["terms"] = {k: v for k, v in doc["terms"].items() if v["entries"]}
    text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    src, dst = (tmp_path_factory.getbasetemp() / name for name in ("in.json", "out.json"))
    src.write_text(text, encoding="utf-8")
    save_deformation(load_deformation(str(src), L), str(dst))
    assert dst.read_text(encoding="utf-8") == text


def test_a_series_refuses_a_module_other_than_the_adjoint_one():
    # extend and equiv solve against a Coboundary on the series' module;
    # only the adjoint module makes those the deformation equations
    L, M = nonlie_setup()
    psi = Cochain.zero(L, M, 1, 0)
    for module in (zero_module(L), adjoint_module(abelian(1, 1))):
        for build in (lambda: TruncatedDeformation.zero(L, 2, module),
                      lambda: TruncatedDeformation(L, [mu_zz_x(L, M)], module),
                      lambda: FormalIsomorphism.identity(L, 2, module),
                      lambda: FormalIsomorphism(L, [psi], module)):
            with pytest.raises(ValueError, match="adjoint module of its algebra"):
                build()
    # any copy of the adjoint module is the adjoint module
    assert TruncatedDeformation.zero(L, 2, adjoint_module(L)) == TruncatedDeformation.zero(L, 2)
    assert TruncatedDeformation.zero(L, 2).module == M


def test_a_series_holds_no_term_past_its_order(tmp_path):
    # a file holds the terms at t**1..t**order only, so a series that saves
    # must hold no other: every series that can be built loads back equal
    L, M = nonlie_setup()
    mu, psi = mu_zz_x(L, M), Cochain.zero(L, M, 1, 0)
    path = str(tmp_path / "d.json")
    for order in range(-1, 3):
        for n in range(3):
            try:
                d = TruncatedDeformation(L, [mu] * n, M, order=order)
            except ValueError as exc:
                assert not 0 <= n <= order and re.search("nonnegative|has no term at",
                                                         str(exc))
                with pytest.raises(ValueError, match="nonnegative|has no term at"):
                    FormalIsomorphism(L, [psi] * n, M, order=order)
                continue
            save_deformation(d, path)
            assert load_deformation(path, L) == d
            assert FormalIsomorphism(L, [psi] * n, M, order=order).order == order


def test_series_rescales_only_when_the_denominator_grows():
    L, M = nonlie_setup()
    third, half = (scale(mu_zz_x(L, M), c) for c in (F(1, 3), F(1, 2)))
    d = TruncatedDeformation(L, [third], M)
    stored = d.tables[1]
    assert d.den == 3 and stored == [[] for _ in range(8)] + [[(0, 1)]]

    def appended(mu):
        out = d._copy(2, d.den, dict(d.tables))
        den, (table,) = scale_to_ints([mu.coeffs])
        out.add([(2, den, table)])
        return out

    grown = appended(half)
    assert grown.den == 6 and grown.tables[1] == [[] for _ in range(8)] + [[(0, 2)]]
    assert d.tables[1] is stored and d.den == 3   # the original is untouched
    same = appended(scale(third, F(2)))
    assert same.den == 3 and same.tables[1] is stored   # D kept: no rescale
    assert same.truncated(1) == d and grown.truncated(1) == d
    assert grown.truncated(0) == TruncatedDeformation.zero(L, 0, M)


def _component_coords(f, parity=0):
    return cochain_coords(f, enumerate_basis(f.algebra, f.module, f.arity, parity))


@pytest.mark.parametrize("L", standard_fixtures(), ids=lambda L: L.space.name)
def test_extend_solutions_equal_the_dense_fraction_solve(L):
    # jets that hold (transforms of zero by fractional isomorphisms) and
    # random fractional jets; extend's int solve against D*delta equals the
    # dense Fraction solve of delta(mu_r) = residual, obstructed or not
    rng = random.Random(21)
    M = adjoint_module(L)
    mat = delta_matrix(L, M, 2, 0)
    enum = enumerate_basis(L, M, 2, 0)
    zero = TruncatedDeformation.zero(L, 3, M)
    cases = [transform(zero, fractional_iso(L, M, 3, rng)) for _ in range(3)]
    cases += [TruncatedDeformation(L, [random_cochain(L, M, 2, 0, rng)], M)
              for _ in range(4)]
    solved = 0
    for d in cases:
        r = d.order if d.order > 1 else 2
        base = d.truncated(r - 1)
        if not check_deformation(base, mod_order=True).ok:
            continue
        x = dense_solve(mat, _component_coords(fraction_residual(base, r), 0))
        jet = extend_deformation(d, r)
        assert (jet is None) == (x is None)
        if x is not None:
            solved += 1
            assert dense_terms(jet)[r - 1] == cochain_from_coords(L, M, 2, 0, x, enum)
    assert solved


def test_solves_over_a_structure_denominator():
    # every standard fixture has D = 1; here the structure, the series and
    # the solutions all carry denominators.  Each extend term completes the
    # jet and is the canonical Fraction solve against delta itself, and
    # equiv recovers a transform
    L = _denominator_algebra()
    M = adjoint_module(L)
    rng = random.Random(23)
    mat = fraction_delta_matrix(L, M, 2, 0)
    enum = enumerate_basis(L, M, 2, 0)
    d = transform(TruncatedDeformation.zero(L, 3, M), fractional_iso(L, M, 3, rng))
    assert d.den > 1
    for r in (2, 3):
        base = d.truncated(r - 1)
        jet = extend_deformation(d, r)
        assert jet is not None and jet.truncated(r - 1) == base and r in jet.tables
        assert check_deformation(jet, mod_order=True).ok
        x = fraction_solve(mat, _component_coords(fraction_residual(base, r)))
        assert dense_terms(jet)[r - 1] == cochain_from_coords(L, M, 2, 0, x, enum)
    d2 = transform(d, fractional_iso(L, M, 3, rng))
    iso = equivalent_deformations(d, d2)
    assert iso is not None and transform(d, iso) == d2


def _extend_cases():
    L, M = nonlie_setup()
    mu1 = cohomology_table(L, M, 2, with_bases=True).entry(2, 0).basis_z[0]
    D = _denominator_algebra()
    zero = TruncatedDeformation.zero(D, 2, adjoint_module(D))
    return [(TruncatedDeformation(L, [mu1], M), 2),
            (transform(zero, fractional_iso(D, zero.module, 2, random.Random(24))), 2)]


@pytest.mark.parametrize("case", _extend_cases(), ids=["nonlie3", "denominator"])
def test_extend_out_writes_the_jet_extend_returns(tmp_path, case):
    # the CLI saves the library's certified jet as it is, and its report's
    # term is that jet's power-r entries
    d, r = case
    jet = extend_deformation(d, r)
    assert r in jet.tables
    alg, src, out, want = (tmp_path / name
                           for name in ("alg.json", "d.json", "out.json", "want.json"))
    save_algebra(d.algebra, str(alg))
    save_deformation(d, str(src))
    save_deformation(jet, str(want))
    code, stdout, _ = run(["deform", "extend", str(alg), "--deformation", str(src),
                           "--order", str(r), "--out", str(out), "--format", "json"])
    assert code == 0
    assert out.read_bytes() == want.read_bytes()
    assert json.loads(stdout)["term"] == series_to_doc(jet)[str(r)]


@pytest.mark.parametrize("L", standard_fixtures(), ids=lambda L: L.space.name)
def test_equiv_solutions_equal_the_dense_fraction_solve(L):
    # each psi_r found is the dense Fraction solve of delta(psi_r) = the
    # intertwining defect with psi_1..psi_(r-1) as found
    rng = random.Random(22)
    M = adjoint_module(L)
    mat = delta_matrix(L, M, 1, 0)
    enum = enumerate_basis(L, M, 1, 0)
    d1 = transform(TruncatedDeformation.zero(L, 3, M), fractional_iso(L, M, 3, rng))
    d2 = transform(d1, fractional_iso(L, M, 3, rng))
    iso = equivalent_deformations(d1, d2)
    assert iso is not None
    for r in range(1, 4):
        psis = [iso_matrix(iso, i) for i in range(r)]
        rhs = fraction_intertwining_defect(d1, d2, psis, r)
        x = dense_solve(mat, _component_coords(rhs))
        assert x is not None
        assert dense_terms(iso)[r - 1] == cochain_from_coords(L, M, 1, 0, x, enum)
