import functools
import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from helpers import (chevalley_eilenberg_dims, fraction_module, modules_for, osp12,
                     random_cochain, sl2, standard_fixtures, transport, trivial_module)
from oracles import (annihilator, basis_cochain, cochain_coords, cochain_eval,
                     dense_delta, enumerate_basis, fraction_delta_matrix,
                     fraction_extend_to_basis, fraction_rref, identity_map,
                     is_coboundary, mat_vec, matmul, sparse, sympy_rank)
from superleibniz import cochain, cohomology, linalg
from superleibniz.algebra import (LeibnizSuperalgebra, SuperBimodule, SuperSpace,
                                  abelian, adjoint_module, free_truncated,
                                  nonlie_example, zero_module)
from superleibniz.cochain import Cochain, delta, tuple_index
from superleibniz.cohomology import (ArityCapError, cohomology_table, delta_matrix,
                                     derivations, inner_derivations)
from superleibniz.extension import build_extension, check_extension
from superleibniz.linalg import (F0, F1, RatMatrix, basis_vec, bilinear, kernel_basis,
                                 rank, row_space_basis)

F = Fraction

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("call", [
    lambda L, M: cohomology_table(L, M, 2),
    lambda L, M: delta_matrix(L, M, 1, 0),
    lambda L, M: derivations(L, M, 0),
    lambda L, M: inner_derivations(L, M),
], ids=["cohomology_table", "delta_matrix", "derivations", "inner_derivations"])
def test_a_module_over_another_algebra_is_refused(call):
    # computing with mod.algebra instead would report abelian(2,1)'s
    # answers under nonlie3's name
    L = nonlie_example()
    with pytest.raises(ValueError, match="module is not over the given algebra"):
        call(L, adjoint_module(abelian(2, 1)))
    assert call(L, adjoint_module(nonlie_example())) is not None   # equal, not identical


def _h_dims(L, M, max_n):
    table = cohomology_table(L, M, max_n)
    return [[table.dim_h(n, p) for p in (0, 1)] for n in range(max_n + 1)]


@pytest.mark.parametrize("L", [sl2(), osp12()], ids=["sl2", "osp12"])
def test_known_lie_superalgebras_are_graded_lie_and_leibniz(L):
    assert L.check_grading().ok and L.check_leibniz().ok and L.is_lie()


def test_sl2_cohomology_known_answers():
    """HL^n(sl2, sl2) = 0 and HL^n(sl2, k) = 1, 0, 0, 0 for n = 0..3, k
    the 1-dim even trivial module; every odd component is empty.

    n = 0 and 1 are classical: HL^0(L, M) is {m : [m, x] = 0} (sl2 has no
    centre; k is all of it), HL^1(sl2, sl2) is the outer derivations (none,
    sl2 being semisimple) and HL^1(sl2, k) is the dual of sl2/[sl2, sl2] = 0.
    n = 2 and 3 are the values this library computes, pinned as regression
    values.
    """
    L = sl2()
    assert _h_dims(L, adjoint_module(L), 3) == [[0, 0]] * 4
    assert _h_dims(L, trivial_module(L), 3) == [[1, 0]] + [[0, 0]] * 3


def test_osp12_cohomology_regression_values():
    # measured values, not theorems: zero for n = 1..3 in both parities,
    # with adjoint and with trivial coefficients
    L = osp12()
    assert _h_dims(L, adjoint_module(L), 3) == [[0, 0]] * 4
    assert _h_dims(L, trivial_module(L), 3) == [[1, 0]] + [[0, 0]] * 3


def test_sl2_chevalley_eilenberg_cohomology_known_answers():
    """H^n_CE(sl2, k) = 1, 0, 0, 1 and H^n_CE(sl2, sl2) = 0 for n = 0..3,
    from the coboundary matrices restricted to the super-antisymmetric
    cochains; every odd component is empty.

    Classical: H^1 = H^2 = 0 and H^3(g, k) = k for simple g
    (Chevalley-Eilenberg, Trans. AMS 63 (1948); the Whitehead lemmas), and
    H^*(g, V) = 0 for a nontrivial irreducible V (Hochschild-Serre, Ann.
    Math. 57 (1953)).  At n = 3 the two theories differ on the trivial
    module: HL^3(sl2, k) = 0 (test_sl2_cohomology_known_answers).
    """
    L = sl2()
    assert chevalley_eilenberg_dims(trivial_module(L), 3) == [[1, 0], [0, 0], [0, 0], [1, 0]]
    assert chevalley_eilenberg_dims(adjoint_module(L), 3) == [[0, 0]] * 4


def test_osp12_chevalley_eilenberg_regression_values():
    # measured values, not checked against a source: sl2's in the even
    # part and zero in the odd part
    L = osp12()
    assert chevalley_eilenberg_dims(trivial_module(L), 3) == [[1, 0], [0, 0], [0, 0], [1, 0]]
    assert chevalley_eilenberg_dims(adjoint_module(L), 3) == [[0, 0]] * 4


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
            assert not any(delta_matrix(A, Z, n, parity).sparse_rows)


def test_delta_matrix_degree0_kernel_is_annihilator():
    L = nonlie_example()
    M = adjoint_module(L)
    m = delta_matrix(L, M, 0, 0)
    assert m.cols == 2
    ker = kernel_basis(m)
    assert len(ker) == 1
    # kernel vector corresponds to x (the first even module element)
    assert ker[0] == {0: F(1)}


def test_delta_matrix_composes_to_zero():
    for L in standard_fixtures():
        for M in modules_for(L):
            for parity in (0, 1):
                m0 = delta_matrix(L, M, 0, parity)
                m1 = delta_matrix(L, M, 1, parity)
                m2 = delta_matrix(L, M, 2, parity)
                assert not any(matmul(m1, m0).sparse_rows)
                assert not any(matmul(m2, m1).sparse_rows)


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
                    assert mat.transpose().sparse_rows == [
                        cochain_coords(dense_delta(basis_cochain(L, M, t, k)),
                                       enum_n1)
                        for t, k in enum_n]
                    for _ in range(3):
                        f = random_cochain(L, M, n, parity, rng)
                        lhs = mat_vec(mat, cochain_coords(f, enum_n))
                        df = delta(f)
                        assert df.coeffs == dense_delta(f).coeffs
                        assert lhs == cochain_coords(df, enum_n1)
                        count += 1
    assert count >= 200


def _halved_basis(alg: LeibnizSuperalgebra, rng: random.Random) -> LeibnizSuperalgebra:
    """alg in the basis f_i = s_i e_i + (a shear within e_i's parity), each
    s_i one of +-1/2, +-1 and +-2, so its structure constants may have
    denominators: [f_i, f_j] has s_i s_j / s_k on f_k."""
    par = alg.space.parities
    cols = [[(rng.choice((F(1, 2), F(-1, 2), F(1), F(-1), F(2), F(-2))) if k == i else
              F(rng.randint(-1, 1)) if k < i and par[k] == par[i] else F(0))
             for k in range(alg.dim)] for i in range(alg.dim)]
    table, _ = transport(alg.table, cols)
    return LeibnizSuperalgebra(alg.space, table)


def test_delta_matrix_matches_the_fraction_walk():
    # the int walk over scaled tables against the Fraction walk over the
    # tables as given, with D = 1 (the standard fixtures) and D > 1
    rng = random.Random(8)
    algebras = standard_fixtures()
    algebras += [_halved_basis(L, rng) for L in algebras]
    denominators = set()
    for L in algebras:
        for M in modules_for(L):
            for n in range(3):
                for parity in (0, 1):
                    mat = delta_matrix(L, M, n, parity)
                    assert mat == fraction_delta_matrix(L, M, n, parity)
                    denominators.update(
                        x.denominator for row in mat.sparse_rows for x in row.values())
                    # ints when no denominator is needed, else Fractions throughout
                    assert len({type(x) for row in mat.sparse_rows for x in row.values()}) <= 1
    assert denominators > {1}


def test_cohomology_table_scales_the_structure_once(monkeypatch):
    calls = []
    scaled = SuperBimodule.scaled.func

    def spy(mod):
        calls.append(mod)
        return scaled(mod)

    monkeypatch.setattr(SuperBimodule, "scaled", property(spy))
    L = nonlie_example()
    for M in modules_for(L):
        for with_bases in (False, True):
            calls.clear()
            cohomology_table(L, M, 2, with_bases=with_bases)
            assert calls == [M]


def test_a_derivations_job_scales_each_module_once(monkeypatch):
    # derivations scales the structure and inner_derivations, which builds
    # D_0, reads the module's cached scaled form
    calls = []
    scaled = SuperBimodule.scaled.func

    def spy(mod):
        calls.append(mod)
        return scaled(mod)

    cached = functools.cached_property(spy)
    cached.__set_name__(SuperBimodule, "scaled")
    monkeypatch.setattr(SuperBimodule, "scaled", cached)
    L = nonlie_example()
    for M in modules_for(L):
        calls.clear()
        derivations(L, M, 0)
        derivations(L, M, 1)
        inner_derivations(L, M)
        assert calls == [M]


def _denominator_algebra() -> LeibnizSuperalgebra:
    """free_truncated on one even and one odd generator at depth 2, in a
    seeded basis whose structure constants need a denominator D > 1."""
    L = _halved_basis(free_truncated(SuperSpace("V", ("a", "b"), (0, 1)), 2),
                      random.Random(5))
    assert adjoint_module(L).scaled[0] > 1
    return L


def test_cohomology_table_hands_rref_ints_only(monkeypatch):
    L = _denominator_algebra()
    M = adjoint_module(L)
    seen = set()
    rref = linalg.rref

    def spy(m):
        seen.update(type(x) for row in m.sparse_rows for x in row.values())
        return rref(m)

    monkeypatch.setattr(linalg, "rref", spy)
    table = cohomology_table(L, M, 2)
    assert seen == {int}
    monkeypatch.undo()
    # the dimensions do not depend on the basis
    plain = free_truncated(SuperSpace("V", ("a", "b"), (0, 1)), 2)
    assert table.entries == cohomology_table(plain, adjoint_module(plain), 2).entries


def _touched_cells(L, M, n: int, parity: int) -> set:
    """The (row, column) cells of D_n that some term of the coboundary walk
    reaches, whether or not the terms on a cell cancel."""
    cob = cohomology.Coboundary(M, n + 1)
    cells = set()
    for t, s, _, action in cochain.coboundary_terms(L, cob.structure, parity, n, cob.par):
        pairs = ([(k, k) for k in range(M.dim)] if action is None else
                 [(k, m) for m, image in enumerate(action) for k, _ in image])
        cells.update((i, j) for k, m in pairs
                     if (i := cob.coordinate(n + 1, parity, t, k)) is not None
                     and (j := cob.coordinate(n, parity, s, m)) is not None)
    return cells


@pytest.mark.parametrize(
    "L", standard_fixtures() + [free_truncated(SuperSpace("V", ("a", "b"), (0, 1)), 2),
                                _denominator_algebra()], ids=lambda L: L.space.name)
def test_the_offset_encoding_is_the_coordinate_contract(L):
    # Coboundary.coordinate places each admissible (t, k) at its index in
    # the enumeration and every other pair nowhere, and pair inverts it,
    # for module dimensions equal to and apart from dim L
    for M in (adjoint_module(L), zero_module(L), fraction_module(L)):
        cob = cohomology.Coboundary(M, 4)
        for parity in (0, 1):
            for n in range(5):
                index = {(tuple_index(t, L.dim), k): j
                         for j, (t, k) in enumerate(enumerate_basis(L, M, n, parity))}
                _, _, bases = cob.layout(parity)
                assert bases[n][-1] == len(index)
                assert all(cob.coordinate(n, parity, t, k) == index.get((t, k))
                           for t in range(L.dim ** n) for k in range(M.dim))
                assert [cob.pair(n, parity, j) for j in range(len(index))] == list(index)


def test_delta_matrix_of_an_ungraded_structure_equals_the_fraction_sum():
    # [y, x] = x + z/2 and [y, m] = m + n each hold one constant of the
    # wrong parity: a bracket term whose two tuples differ in parity, and
    # an action constant landing outside the component, add nothing
    L = nonlie_example()
    L.table[1][0] = [F1, F0, F(1, 2)]
    sp = SuperSpace("M", ("m", "n"), (0, 1))
    left = [[[F0, F0] for _ in range(2)] for _ in range(3)]
    right = [[[F0, F0] for _ in range(3)] for _ in range(2)]
    left[1][0] = [F1, F1]
    right[1][2] = [F1, F0]   # [n, z] = m
    M = SuperBimodule(L, sp, left, right)
    assert not L.check_grading().ok and not M.check_grading().ok
    for mod in (adjoint_module(L), M):
        for n in range(4):
            for parity in (0, 1):
                assert delta_matrix(L, mod, n, parity) == fraction_delta_matrix(L, mod, n, parity)


def test_delta_matrix_holds_no_zero_and_no_column_out_of_range():
    # delta_matrix builds its matrix unchecked; the checked constructor,
    # which drops zeros and range-checks columns, must give the same matrix,
    # also where terms cancel and on the Fraction path of a structure with D > 1
    D = _denominator_algebra()
    for L in standard_fixtures() + [D]:
        for M in modules_for(L):
            for n in range(4 if L.dim < 6 else 3):
                for parity in (0, 1):
                    m = delta_matrix(L, M, n, parity)
                    assert m == RatMatrix(m.cols, [dict(r) for r in m.sparse_rows])
    L = nonlie_example()
    m = delta_matrix(L, adjoint_module(L), 1, 0)
    assert len(_touched_cells(L, adjoint_module(L), 1, 0)) > sum(map(len, m.sparse_rows))
    m = delta_matrix(D, adjoint_module(D), 1, 0)
    assert {type(x) for r in m.sparse_rows for x in r.values()} == {Fraction}


def _fraction_rows(m: RatMatrix) -> list[dict]:
    red, pivots = fraction_rref(m)
    return red.sparse_rows[:len(pivots)]


def _fraction_kernel(m: RatMatrix) -> list[dict]:
    red, pivots = fraction_rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = {fc: F(1)}
        for pc, row in zip(pivots, red.sparse_rows):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def test_bases_from_the_int_matrices_match_the_fraction_oracles():
    L = _denominator_algebra()
    M = adjoint_module(L)
    table = cohomology_table(L, M, 2, with_bases=True)
    for parity in (0, 1):
        prev = None
        for n in range(3):
            mat = fraction_delta_matrix(L, M, n, parity)
            kernel = _fraction_kernel(mat)
            z = _fraction_rows(RatMatrix(mat.cols, kernel))
            b = [] if prev is None else _fraction_rows(prev.transpose())
            h = fraction_extend_to_basis(b, z)
            enum = enumerate_basis(L, M, n, parity)
            e = table.entry(n, parity)
            for basis, rows in ((e.basis_z, z), (e.basis_b, b), (e.basis_h, h)):
                assert [cochain_coords(f, enum) for f in basis] == rows
            prev = mat


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
        ann_rows = [sparse([v[k] for k in even]) for v in ann]
        ker = kernel_basis(delta_matrix(L, M, 0, 0))
        cols = len(even)
        ra = row_space_basis(RatMatrix(cols, ann_rows))
        rk = row_space_basis(RatMatrix(cols, ker))
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
                    val = [-c for c in cochain_eval(f, [L.bracket(i, j)])]
                    pa = L.space.parities[i]
                    step = bilinear(M.left, ei, cochain_eval(f, [ej]), M.dim)
                    val = [v + koszul(pa, parity) * s for v, s in zip(val, step)]
                    step = bilinear(M.right, cochain_eval(f, [ei]), ej, M.dim)
                    val = [v + s for v, s in zip(val, step)]
                    assert not any(val)


def test_identity_cochain_derivation_iff_abelian():
    L = nonlie_example()
    M = adjoint_module(L)
    ident = identity_map(L, M)
    assert not delta(ident).is_zero()
    A = abelian(1, 1)
    MA = adjoint_module(A)
    assert delta(identity_map(A, MA)).is_zero()


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


def _view_cases():
    f6 = free_truncated(SuperSpace("V", ("u", "v"), (0, 1)), 2)
    return [pytest.param(L, M, id=f"{L.space.name}-{kind}")
            for L in standard_fixtures() + [f6]
            for M, kind in zip(modules_for(L), ("self", "zero"))]


@pytest.mark.parametrize("L,M", _view_cases())
def test_derivations_inner_and_extension_classes_are_views_of_the_table(L, M):
    # Z^1, B^1_0 and the H^2_0 representatives, each the canonical basis
    # the table reports
    table = cohomology_table(L, M, 2, with_bases=True)
    for parity in (0, 1):
        assert derivations(L, M, parity) == table.entry(1, parity).basis_z
    assert inner_derivations(L, M) == table.entry(1, 0).basis_b
    # one extension class per H^2_0 representative, each a Leibniz total
    assert all(check_extension(build_extension(L, M, h)).ok
               for h in table.entry(2, 0).basis_h)
