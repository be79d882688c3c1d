import itertools
import random
from fractions import Fraction

import pytest

from helpers import random_cochain, standard_fixtures
from oracles import (basis_cochain, cochain_from_coords, enumerate_basis,
                     extensions_equivalent)
from superleibniz.algebra import abelian, adjoint_module, nonlie_example, zero_module
from superleibniz.cochain import Cochain, all_tuples, delta
from superleibniz.cohomology import cohomology_table, delta_matrix, kernel_basis
from superleibniz.extension import build_extension, check_extension
from superleibniz.linalg import basis_vec

F = Fraction


def setup_nonlie():
    L = nonlie_example()
    return L, adjoint_module(L)


def cocycle_basis(L, M):
    enum = enumerate_basis(L, M, 2, 0)
    return [cochain_from_coords(L, M, 2, 0, v, enum)
            for v in kernel_basis(delta_matrix(L, M, 2, 0))]


def test_zero_cocycle_semidirect_product():
    L, M = setup_nonlie()
    ext = build_extension(L, M, Cochain.zero(L, M, 2, 0))
    assert check_extension(ext).ok
    assert ext.total.check_grading().ok and ext.total.check_leibniz().ok
    assert ext.total.dim == 6
    assert ext.total.space.labels[:3] == ("L:x", "L:y", "L:z")
    assert ext.total.space.labels[3:] == ("M:x", "M:y", "M:z")


def test_extension_brackets_follow_the_twisted_product():
    L, M = setup_nonlie()
    h = cocycle_basis(L, M)[0]
    ext = build_extension(L, M, h)
    dl = L.dim
    for i, j in itertools.product(range(dl), repeat=2):
        vec = ext.total.bracket(i, j)
        assert vec[:dl] == L.bracket(i, j)
        assert vec[dl:] == h.value((i, j))
    for i in range(dl):
        for k in range(M.dim):
            assert ext.total.bracket(i, dl + k)[dl:] == M.left[i][k]
            assert ext.total.bracket(dl + k, i)[dl:] == M.right[k][i]
            assert not any(ext.total.bracket(dl + k, i)[:dl])


def test_extension_table_holds_a_distinct_list_per_entry():
    # tampering edits a total's table in place: one shared vector would
    # carry an edit of one bracket into others, or into L, M or h
    L, M = setup_nonlie()
    for h in (Cochain.zero(L, M, 2, 0), cocycle_basis(L, M)[0]):
        def inputs():
            return [list(v) for rows in (L.table, M.left, M.right, [h.coeffs])
                    for row in rows for v in row]
        before_inputs = inputs()
        vectors = [v for row in build_extension(L, M, h).total.table for v in row]
        before = [list(v) for v in vectors]
        for v in vectors:
            v[0] += 1
        assert [v[0] - w[0] for v, w in zip(vectors, before)] == [1] * len(vectors)
        assert [v[1:] for v in vectors] == [w[1:] for w in before]
        assert inputs() == before_inputs


def test_every_cocycle_gives_a_leibniz_total():
    L, M = setup_nonlie()
    for h in cocycle_basis(L, M):
        assert delta(h).is_zero()
        ext = build_extension(L, M, h)
        assert check_extension(ext).ok
        assert ext.total.check_leibniz().ok


def test_leibniz_iff_cocycle_over_basis_2_cochains():
    checked = 0
    for L in standard_fixtures():
        M = adjoint_module(L)
        for t in all_tuples(L.dim, 2):
            for k in range(M.dim):
                if (M.space.parities[k] + L.space.tuple_parity(t)) & 1 != 0:
                    continue
                h = basis_cochain(L, M, t, k)
                ext = build_extension(L, M, h)
                assert ext.total.check_leibniz().ok == delta(h).is_zero()
                checked += 1
    assert checked > 80


def test_non_cocycle_reports_witness_triple():
    L, M = setup_nonlie()
    h = basis_cochain(L, M, (0, 0), 0)   # (x,x) -> x is not a cocycle
    assert not delta(h).is_zero()
    rep = check_extension(build_extension(L, M, h))
    assert not rep.ok
    assert any(v["kind"] == "leibniz" for v in rep.violations)


def test_tampered_fiber_fails_abelian_condition():
    L, M = setup_nonlie()
    ext = build_extension(L, M, Cochain.zero(L, M, 2, 0))
    ext.total.table[3][3] = basis_vec(6, 3)   # [(0,m),(0,m)] nonzero
    rep = check_extension(ext)
    assert any(v["kind"] == "fiber-abelian" for v in rep.violations)


def test_tampered_projection_fails():
    L, M = setup_nonlie()
    ext = build_extension(L, M, Cochain.zero(L, M, 2, 0))
    # make the L-part of [L:x, L:y] wrong: pi no longer an algebra map
    ext.total.table[0][1] = basis_vec(6, 0)
    rep = check_extension(ext)
    assert any(v["kind"] == "projection" for v in rep.violations)


def test_tampered_action_fails():
    L, M = setup_nonlie()
    ext = build_extension(L, M, Cochain.zero(L, M, 2, 0))
    ext.total.table[1][3] = [-c for c in ext.total.bracket(1, 3)] \
        if any(ext.total.bracket(1, 3)) else basis_vec(6, 3)
    rep = check_extension(ext)
    assert any(v["kind"] in ("action-left", "cocycle-part") for v in rep.violations)


def test_equivalence_reflexive():
    L, M = setup_nonlie()
    h = cocycle_basis(L, M)[0]
    e = build_extension(L, M, h)
    f = extensions_equivalent(e, e)
    assert f is not None and f.is_zero()


def test_equivalence_round_trip_random_coboundaries():
    L, M = setup_nonlie()
    rng = random.Random(0)
    h = cocycle_basis(L, M)[1]
    e1 = build_extension(L, M, h)
    for _ in range(10):
        f0 = random_cochain(L, M, 1, 0, rng)
        h2 = h - delta(f0)
        e2 = build_extension(L, M, h2)
        f = extensions_equivalent(e1, e2)
        assert f is not None
        assert delta(f).coeffs == (h - h2).coeffs


def test_equivalence_symmetric_and_transitive():
    L, M = setup_nonlie()
    rng = random.Random(1)
    h = cocycle_basis(L, M)[0]
    f1 = random_cochain(L, M, 1, 0, rng)
    f2 = random_cochain(L, M, 1, 0, rng)
    e1 = build_extension(L, M, h)
    e2 = build_extension(L, M, h - delta(f1))
    e3 = build_extension(L, M, h - delta(f1) - delta(f2))
    assert extensions_equivalent(e2, e1) is not None     # symmetry via -f
    assert extensions_equivalent(e1, e3) is not None     # transitivity via f1+f2
    assert extensions_equivalent(e3, e1) is not None


def test_inequivalent_classes():
    L, M = setup_nonlie()
    reps = [build_extension(L, M, h) for h in
            cohomology_table(L, M, 2, with_bases=True).entry(2, 0).basis_h]
    assert len(reps) == 2    # golden dim H^2_0
    for a in range(len(reps)):
        assert check_extension(reps[a]).ok
        for b in range(a + 1, len(reps)):
            assert extensions_equivalent(reps[a], reps[b]) is None


def test_classify_abelian_zero_module_counts_all_cochains():
    A = abelian(1, 1)
    Z = zero_module(A)
    reps = [build_extension(A, Z, h) for h in
            cohomology_table(A, Z, 2, with_bases=True).entry(2, 0).basis_h]
    dim_c20 = len(enumerate_basis(A, Z, 2, 0))
    assert len(reps) == dim_c20    # delta = 0: Z = C, B = 0
    for e in reps:
        assert check_extension(e).ok


def test_coboundary_gives_extension_equivalent_to_split_one():
    L, M = setup_nonlie()
    rng = random.Random(2)
    f0 = random_cochain(L, M, 1, 0, rng)
    h = delta(f0)
    e_h = build_extension(L, M, h)
    e_0 = build_extension(L, M, Cochain.zero(L, M, 2, 0))
    f = extensions_equivalent(e_h, e_0)
    assert f is not None
    assert delta(f).coeffs == h.coeffs


def test_mismatched_bases_rejected():
    L, M = setup_nonlie()
    A = abelian(1, 1)
    MA = adjoint_module(A)
    e1 = build_extension(L, M, Cochain.zero(L, M, 2, 0))
    e2 = build_extension(A, MA, Cochain.zero(A, MA, 2, 0))
    with pytest.raises(ValueError):
        extensions_equivalent(e1, e2)


def test_build_extension_rejects_bad_cochain():
    L, M = setup_nonlie()
    with pytest.raises(ValueError):
        build_extension(L, M, Cochain.zero(L, M, 1, 0))
    with pytest.raises(ValueError):
        build_extension(L, M, Cochain.zero(L, M, 2, 1))


def test_extension_totals_work_for_all_fixtures():
    for L in standard_fixtures():
        M = adjoint_module(L)
        h = cocycle_basis(L, M)
        ext = build_extension(L, M, h[0] if h else Cochain.zero(L, M, 2, 0))
        assert check_extension(ext).ok
