import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from helpers import modules_for, random_cochain, standard_fixtures
from oracles import dense_delta, sympy_rank
from superleibniz.algebra import (SuperSpace, abelian, adjoint_module, free_truncated,
                                  nonlie_example, zero_module)
from superleibniz.cochain import Cochain, delta
from superleibniz.cohomology import (ArityCapError, annihilator, cochain_coords,
                                     cohomology_table, delta_matrix, derivations,
                                     enumerate_basis, inner_derivations,
                                     is_coboundary)
from superleibniz.linalg import (RatMatrix, basis_vec, kernel_basis, rank,
                                 row_space_basis)

F = Fraction

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_enumeration_is_lexicographic_and_homogeneous():
    L = nonlie_example()
    M = adjoint_module(L)
    enum = enumerate_basis(L, M, 1, 0)
    # x->x, x->y, y->x, y->y, z->z in index order
    assert enum == [((0,), 0), ((0,), 1), ((1,), 0), ((1,), 1), ((2,), 2)]
    for n in (0, 1, 2):
        for parity in (0, 1):
            e = enumerate_basis(L, M, n, parity)
            assert e == sorted(e)
            for t, k in e:
                assert (M.space.parities[k] + L.space.tuple_parity(t)) & 1 == parity


def test_space_dimensions_split_by_parity():
    L = nonlie_example()
    M = adjoint_module(L)
    for n in (0, 1, 2, 3):
        total = len(enumerate_basis(L, M, n, 0)) + len(enumerate_basis(L, M, n, 1))
        assert total == M.dim * L.dim ** n


def test_delta_matrix_zero_for_abelian_zero_module():
    A = abelian(2, 1)
    Z = zero_module(A)
    for n in (0, 1, 2):
        for parity in (0, 1):
            assert delta_matrix(A, Z, n, parity).is_zero()


def test_delta_matrix_degree0_kernel_is_annihilator():
    L = nonlie_example()
    M = adjoint_module(L)
    m = delta_matrix(L, M, 0, 0)
    assert m.cols == 2
    ker = kernel_basis(m)
    assert len(ker) == 1
    # kernel vector corresponds to x (the first even module element)
    assert ker[0] == [F(1), F(0)]


def test_delta_matrix_composes_to_zero():
    for L in standard_fixtures():
        for M in modules_for(L):
            for parity in (0, 1):
                m0 = delta_matrix(L, M, 0, parity)
                m1 = delta_matrix(L, M, 1, parity)
                m2 = delta_matrix(L, M, 2, parity)
                assert m1.matmul(m0).is_zero()
                assert m2.matmul(m1).is_zero()


def test_matrix_path_equals_operator_path():
    # the matrix, the library operator and the dense oracle all agree; each
    # column is the oracle's coboundary of one basis cochain
    rng = random.Random(0)
    count = 0
    for L in standard_fixtures():
        for M in modules_for(L):
            for n in (0, 1, 2):
                for parity in (0, 1):
                    enum_n = enumerate_basis(L, M, n, parity)
                    enum_n1 = enumerate_basis(L, M, n + 1, parity)
                    mat = delta_matrix(L, M, n, parity)
                    assert (mat.rows, mat.cols) == (len(enum_n1), len(enum_n))
                    assert mat.transpose().entries == [
                        cochain_coords(dense_delta(Cochain.basis_cochain(L, M, t, k)),
                                       enum_n1)
                        for t, k in enum_n]
                    for _ in range(3):
                        f = random_cochain(L, M, n, parity, rng)
                        lhs = mat.mat_vec(cochain_coords(f, enum_n))
                        df = delta(f)
                        assert df.coeffs == dense_delta(f).coeffs
                        assert lhs == cochain_coords(df, enum_n1)
                        count += 1
    assert count >= 200


def test_arity_cap():
    L = nonlie_example()
    M = adjoint_module(L)
    with pytest.raises(ArityCapError, match=r"3 \* 3\^5"):
        delta_matrix(L, M, 4, 0)
    with pytest.raises(ArityCapError):
        cohomology_table(L, M, 4)
    # raising the cap unlocks it
    delta_matrix(L, M, 4, 0, max_arity=5)


def test_cohomology_table_nonlie_matches_golden():
    golden = json.loads((GOLDEN / "nonlie3_cohomology.json").read_text())
    L = nonlie_example()
    M = adjoint_module(L)
    tab = cohomology_table(L, M, 2)
    for row in golden["table"]:
        e = tab.entry(row["n"], 0 if row["parity"] == "even" else 1)
        assert (e.dim_c, e.dim_z, e.dim_b, e.dim_h) == \
            (row["dim_c"], row["dim_z"], row["dim_b"], row["dim_h"])


def test_free_truncated_f6_adjoint_cohomology_to_arity_3():
    # one even and one odd generator at depth 2: a 6-dimensional algebra;
    # D_3 is 3888 x 648 in each parity
    L = free_truncated(SuperSpace("V", ("x", "y"), (0, 1)), 2)
    assert L.dim == 6
    tab = cohomology_table(L, adjoint_module(L), 3)
    assert [(tab.dim_h(n, 0), tab.dim_h(n, 1)) for n in range(4)] == \
        [(2, 2), (5, 5), (16, 16), (52, 52)]
    for e in tab.entries.values():
        assert e.dim_h == e.dim_z - e.dim_b


def test_cohomology_ranks_match_sympy():
    L = nonlie_example()
    M = adjoint_module(L)
    for n in (0, 1, 2):
        for parity in (0, 1):
            m = delta_matrix(L, M, n, parity)
            assert rank(m) == sympy_rank(m)


def test_cohomology_table_consistency_invariants():
    for L in standard_fixtures():
        M = adjoint_module(L)
        tab = cohomology_table(L, M, 2)
        for (n, parity), e in tab.entries.items():
            assert e.dim_h == e.dim_z - e.dim_b >= 0
            assert e.dim_b <= e.dim_z
            mat = delta_matrix(L, M, n, parity)
            assert rank(mat) + e.dim_z == e.dim_c


def test_cohomology_table_bases_are_canonical_and_valid():
    L = nonlie_example()
    M = adjoint_module(L)
    tab = cohomology_table(L, M, 2, with_bases=True)
    for (n, parity), e in tab.entries.items():
        assert len(e.basis_z) == e.dim_z
        assert len(e.basis_b) == e.dim_b
        assert len(e.basis_h) == e.dim_h
        for f in e.basis_z:
            assert delta(f).is_zero()
        for f in e.basis_b:
            assert is_coboundary(f) is not None
        for f in e.basis_h:
            assert delta(f).is_zero()
            if n >= 1:
                assert is_coboundary(f) is None


def test_abelian_closed_form_h1():
    for p, q in ((1, 1), (2, 1), (2, 2)):
        A = abelian(p, q)
        Z = zero_module(A)
        tab = cohomology_table(A, Z, 1)
        for (n, parity), e in tab.entries.items():
            assert e.dim_h == e.dim_c
        assert tab.dim_h(1, 0) == p * p + q * q
        assert tab.dim_h(1, 1) == 2 * p * q


def test_abelian_adjoint_equals_zero_module_cohomology():
    A = abelian(1, 1)
    t1 = cohomology_table(A, adjoint_module(A), 1)
    assert t1.dim_h(1, 0) == 2 and t1.dim_h(1, 1) == 2


def test_annihilator_nonlie():
    L = nonlie_example()
    M = adjoint_module(L)
    ann = annihilator(L, M)
    assert ann == [[F(1), F(0), F(0)]]     # span{x}


def test_annihilator_abelian_is_all_even():
    A = abelian(2, 1)
    ann = annihilator(A, adjoint_module(A))
    assert len(ann) == 2


def test_annihilator_empty_even_part():
    A = abelian(0, 2)
    assert annihilator(A, adjoint_module(A)) == []


def test_annihilator_equals_delta0_kernel_as_subspace():
    for L in standard_fixtures():
        M = adjoint_module(L)
        even = [k for k in range(M.dim) if M.space.parities[k] == 0]
        ann = annihilator(L, M)
        ann_rows = [[v[k] for k in even] for v in ann]
        ker = kernel_basis(delta_matrix(L, M, 0, 0))
        cols = len(even)
        ra = row_space_basis(RatMatrix.from_rows(ann_rows)) if ann_rows else []
        rk = row_space_basis(RatMatrix.from_rows(ker)) if ker else []
        assert ra == rk


def test_derivations_satisfy_the_cocycle_equation():
    # -f([a,b]) + (-1)**(a f)[a,f(b)] + [f(a),b] = 0 on all pairs
    from superleibniz.algebra import koszul
    for L in standard_fixtures():
        M = adjoint_module(L)
        for parity in (0, 1):
            for f in derivations(L, M, parity):
                for i, j in itertools.product(range(L.dim), repeat=2):
                    ei, ej = basis_vec(L.dim, i), basis_vec(L.dim, j)
                    val = [-c for c in f.eval([L.bracket(i, j)])]
                    pa = L.space.parities[i]
                    step = M.act_left_vec(ei, f.eval([ej]))
                    val = [v + koszul(pa, parity) * s for v, s in zip(val, step)]
                    step = M.act_right_vec(f.eval([ei]), ej)
                    val = [v + s for v, s in zip(val, step)]
                    assert not any(val)


def test_identity_cochain_derivation_iff_abelian():
    L = nonlie_example()
    M = adjoint_module(L)
    ident = Cochain.identity_map(L, M)
    assert not delta(ident).is_zero()
    A = abelian(1, 1)
    MA = adjoint_module(A)
    assert delta(Cochain.identity_map(A, MA)).is_zero()


def test_abelian_derivations_are_everything():
    A = abelian(1, 1)
    MA = adjoint_module(A)
    assert len(derivations(A, MA, 0)) == 2
    assert len(derivations(A, MA, 1)) == 2
    assert inner_derivations(A, MA) == []


def test_inner_derivations_nonlie():
    L = nonlie_example()
    M = adjoint_module(L)
    inner = inner_derivations(L, M)
    assert len(inner) == 1
    g = inner[0]
    # the span is {u -> [m, u] : m in M_0}; only m = y contributes, and the
    # canonical (rref) representative maps x -> x, y -> x, z -> 0
    assert g.value((0,)) == basis_vec(3, 0)
    assert g.value((1,)) == basis_vec(3, 0)
    assert not any(g.value((2,)))
    # every inner derivation is a derivation (delta . delta = 0)
    assert delta(g).is_zero()


def test_h1_two_ways_on_all_fixtures():
    for L in standard_fixtures():
        for M in modules_for(L):
            tab = cohomology_table(L, M, 1)
            der = derivations(L, M, 0)
            inner = inner_derivations(L, M)
            assert tab.dim_h(1, 0) == len(der) - len(inner)


def test_is_coboundary_round_trip():
    rng = random.Random(1)
    L = nonlie_example()
    M = adjoint_module(L)
    for _ in range(10):
        g0 = random_cochain(L, M, 1, rng.choice((0, 1)), rng)
        f = delta(g0)
        g = is_coboundary(f)
        assert g is not None
        assert delta(g).coeffs == f.coeffs


def test_is_coboundary_zero_cochain():
    L = nonlie_example()
    M = adjoint_module(L)
    z = Cochain.zero(L, M, 2, 0)
    g = is_coboundary(z)
    assert g is not None and delta(g).is_zero()


def test_is_coboundary_detects_nontrivial_class():
    L = nonlie_example()
    M = adjoint_module(L)
    tab = cohomology_table(L, M, 2, with_bases=True)
    reps = tab.entry(2, 0).basis_h
    assert reps
    for h in reps:
        assert is_coboundary(h) is None
    with pytest.raises(ValueError):
        is_coboundary(Cochain.zero(L, M, 0, 0))
