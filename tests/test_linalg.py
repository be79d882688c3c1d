import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import modules_for, standard_fixtures
from oracles import (dense_extend_to_basis, dense_kernel_basis, dense_row_space_basis,
                     dense_rref, dense_solve, fraction_extend_to_basis, fraction_rref,
                     identity_matrix, mat_vec, sparse, truth_scale_to_ints, zero_matrix)
from superleibniz import linalg
from superleibniz.cohomology import delta_matrix
from superleibniz.linalg import (F0, F1, RatMatrix, extend_to_basis, kernel_basis, rank,
                                 row_space_basis, rref, scale_to_ints, solve, zeros)

F = Fraction


def mat(rows, cols=None):
    """The matrix of a dense table (cols needed only when it has no rows)."""
    cols = len(rows[0]) if cols is None else cols
    return RatMatrix(cols, [sparse([F(x) for x in r]) for r in rows])


def test_rank_identity():
    assert rank(identity_matrix(2)) == 2


def test_rank_zero_matrix():
    assert rank(zero_matrix(3, 5)) == 0


def test_rank_dependent_rows():
    # [[1,2],[2,4]]: second row is twice the first, rank 1 by hand reduction
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_rank_runs_the_forward_pass_only():
    # one _insert per nonzero row; back-substitution, one more per pivot,
    # waits for the first read of rref's rows and runs once
    m = mat([[1, 2, 3], [2, 4, 7], [0, 0, 0], [1, 0, 1], [3, 4, 7]])
    calls = []
    insert = linalg._insert
    with mock.patch.object(linalg, "_insert",
                           lambda row, pivots: calls.append(row) or insert(row, pivots)):
        assert rank(m) == 3 and len(calls) == 4
        red, pivots = rref(m)
        assert pivots == [0, 1, 2] and red.rows == 5 and len(calls) == 8
        assert red.sparse_rows == [{0: 1}, {1: 1}, {2: 1}, {}, {}] and len(calls) == 11
        assert red.entries[0] == [1, 0, 0] and red == red.transpose().transpose()
        assert len(calls) == 11


def test_singleton_rows_skip_insert_in_the_forward_pass():
    # rows go sparsest first, so while the single-entry rows are visited
    # every pivot is a unit row: each becomes the pivot e_c or is dropped,
    # and _insert sees only the rows of length >= 2 (duplicate, Fraction
    # and negative singletons alike)
    m = RatMatrix(5, [{0: 1, 1: 2, 3: 1}, {2: -5}, {0: F(2, 3)}, {2: 7}, {},
                      {1: F(-1, 2), 2: 4}, {2: 7}, {4: F(-3)}])
    lengths = []
    insert = linalg._insert
    with mock.patch.object(linalg, "_insert",
                           lambda row, pivots: lengths.append(len(row)) or insert(row, pivots)):
        assert rank(m) == 5 and lengths == [2, 3]
        red, pivots = rref(m)
        assert pivots == [0, 1, 2, 3, 4] and lengths == [2, 3] * 2
        # back-substitution: one _insert per pivot, unit rows included
        assert red.sparse_rows == [{j: 1} for j in range(5)] + [{}] * 3
        assert len(lengths) == 9
    assert (red, pivots) == dense_rref(m)


def test_a_singleton_can_enlarge_the_span_of_a_non_unit_pivot():
    # {0: 1} meets the pivot row 2 e_0 + 3 e_1, not e_0: it is independent
    assert extend_to_basis([{0: 2, 1: 3}], [{0: 1}]) == [{0: 1}]
    assert extend_to_basis([{0: 2, 1: 3}, {1: 1}], [{0: 1}]) == []


def test_kernel_identity_empty():
    assert kernel_basis(identity_matrix(2)) == []


def test_kernel_zero_matrix_full():
    basis = kernel_basis(zero_matrix(2, 3))
    assert len(basis) == 3


def test_kernel_single_relation():
    m = mat([[1, 1, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 3 - rank(m)
    for v in basis:
        assert mat_vec(m, v) == {}
    # canonical: free columns ascending, with (a,-a,b) shape, nonzeros only
    assert basis == [{1: F(1), 0: F(-1)}, {2: F(1)}]


def test_solve_identity():
    x = solve(identity_matrix(2), {0: F(3), 1: F(5)})
    assert x == {0: F(3), 1: F(5)}
    assert solve(identity_matrix(2), {1: F(5)}) == {1: F(5)}   # x holds nonzeros only


def test_solve_underdetermined_by_substitution():
    m = mat([[1, 1]])
    x = solve(m, {0: F(2)})
    assert x is not None and mat_vec(m, x) == {0: F(2)}


def test_solve_inconsistent():
    m = mat([[1], [1]])
    assert solve(m, {1: F(1)}) is None
    assert solve(m, {0: F(0), 1: F(1)}) is None   # an explicit zero is no equation


def test_solve_dimension_mismatch():
    # a right-hand side index outside the rows is rejected, never dropped
    for b in ({1: F(1)}, {0: F(1), 1: F(2)}, {-1: F(1)}, {3: F(0)}):
        with pytest.raises(ValueError, match=r"outside 0\.\.0"):
            solve(mat([[1, 2]]), b)
    with pytest.raises(ValueError):
        solve(zero_matrix(0, 2), {0: F(1)})
    assert solve(zero_matrix(0, 2), {}) == {}


def test_rref_canonical():
    red, pivots = rref(mat([[2, 4], [1, 3]]))
    assert pivots == [0, 1]
    assert red.sparse_rows == [{0: F(1)}, {1: F(1)}]
    assert red.entries == [[F(1), F(0)], [F(0), F(1)]]


def test_rank_nullity_random():
    rng = random.Random(0)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = mat([[F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(c)]
                 for _ in range(r)])
        assert rank(m) + len(kernel_basis(m)) == c
        for v in kernel_basis(m):
            assert mat_vec(m, v) == {}


def test_rank_invariant_under_row_permutation():
    rng = random.Random(1)
    for _ in range(20):
        r, c = rng.randint(2, 5), rng.randint(1, 5)
        rows = [sparse([F(rng.randint(-3, 3)) for _ in range(c)]) for _ in range(r)]
        m = RatMatrix(c, rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(m) == rank(RatMatrix(c, shuffled))


def test_solve_random_consistent_systems():
    rng = random.Random(2)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = mat([[F(rng.randint(-2, 2)) for _ in range(c)] for _ in range(r)])
        x0 = sparse([F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(c)])
        b = mat_vec(m, x0)
        x = solve(m, b)
        assert x is not None and mat_vec(m, x) == b


def test_row_space_basis_is_canonical():
    a = mat([[1, 2, 3], [0, 1, 1]])
    b = mat([[1, 3, 4], [2, 5, 7]])  # same row space
    assert row_space_basis(a) == row_space_basis(b)


def test_exact_arithmetic_no_drift():
    # (a + b) - b == a for awkward fractions
    a, b = F(1, 3), F(10**12, 7)
    assert a + b - b == a


def test_sparse_storage_and_dense_view():
    m = mat([[0, 2, 0], [0, 0, 0], [1, 0, -3]])
    assert m.sparse_rows == [{1: F(2)}, {}, {0: F(1), 2: F(-3)}]
    assert m.entries == [[0, 2, 0], [0, 0, 0], [1, 0, -3]]
    assert m.entries is m.entries   # built once
    s = RatMatrix(3, [{1: F(2), 0: F(0)}, {}, {2: F(-3), 0: F(1)}])
    assert s == m and s.sparse_rows[0] == {1: F(2)}   # zeros dropped
    assert m.transpose().sparse_rows == [{2: F(1)}, {0: F(2)}, {2: F(-3)}]
    assert m.transpose().transpose() == m
    for rows in ([{3: F(1)}], [{}, {-1: F(1)}], [{0: F(1), 5: F(0)}]):
        with pytest.raises(ValueError):
            RatMatrix(3, rows)


def _random_matrix(rng: random.Random, r: int, c: int) -> RatMatrix:
    """Small rational entries at a random density, then some rows replaced
    by zero rows, duplicates or combinations of other rows."""
    density = rng.choice((0.15, 0.4, 0.9))
    rows = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) if rng.random() < density
             else F(0) for _ in range(c)] for _ in range(r)]
    for i in range(r):
        kind = rng.random()
        if kind < 0.1:
            rows[i] = [F(0)] * c
        elif kind < 0.2:
            rows[i] = list(rows[rng.randrange(r)])
        elif kind < 0.35:
            a, b = rng.randrange(r), rng.randrange(r)
            x, y = F(rng.randint(-2, 2), 2), F(rng.randint(-2, 2))
            rows[i] = [x * p + y * q for p, q in zip(rows[a], rows[b])]
    return mat(rows, c)


def _singleton_heavy_matrix(rng: random.Random, r: int, c: int) -> RatMatrix:
    """About half the rows single entries, in repeated columns, with
    negative and Fraction values; the rest as _random_matrix makes them."""
    rows = _random_matrix(rng, r, c).sparse_rows
    for i in range(r):
        if rng.random() < 0.5:
            rows[i] = {rng.randrange(min(c, 3)): F(rng.choice((-2, -1, 1, 3)),
                                                   rng.choice((1, 1, 2, 3)))}
    return RatMatrix(c, rows)


def _assert_engine_matches_dense_oracle(m: RatMatrix, rng: random.Random) -> None:
    assert rref(m) == dense_rref(m)
    assert kernel_basis(m) == dense_kernel_basis(m)
    assert row_space_basis(m) == dense_row_space_basis(m)
    # one consistent right-hand side (a combination of the columns), one arbitrary
    x0 = sparse([F(rng.randint(-2, 2)) for _ in range(m.cols)])
    for b in (mat_vec(m, x0), sparse([F(rng.randint(-2, 2)) for _ in range(m.rows)])):
        assert solve(m, b) == dense_solve(m, b)
    rows = m.sparse_rows
    cut = rng.randint(0, m.rows)
    assert (extend_to_basis(rows[:cut], rows[cut:])
            == dense_extend_to_basis(rows[:cut], rows[cut:], m.cols))
    assert (extend_to_basis([], rows[::-1])
            == dense_extend_to_basis([], rows[::-1], m.cols))


def test_engine_matches_dense_oracle_on_random_matrices():
    rng = random.Random(3)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (2, 7), (7, 2), (6, 6)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(150)]
    for r, c in shapes:
        _assert_engine_matches_dense_oracle(_random_matrix(rng, r, c), rng)
    for r, c in shapes[3:]:
        _assert_engine_matches_dense_oracle(_singleton_heavy_matrix(rng, r, c), rng)


def test_engine_matches_dense_oracle_with_non_unit_pivots():
    rng = random.Random(4)
    m = mat([[0, 3, 6, 0], [0, 3, 6, 0], [2, 0, 0, 5], [0, 0, 0, 0], [4, 3, 6, 10]])
    _assert_engine_matches_dense_oracle(m, rng)
    assert rank(m) == 2


def test_rref_does_not_depend_on_row_order():
    rng = random.Random(5)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        rows = list(m.sparse_rows)
        rng.shuffle(rows)
        shuffled = RatMatrix(m.cols, rows)
        assert rref(shuffled) == rref(m)


def test_engine_matches_dense_oracle_on_coboundary_matrices():
    rng = random.Random(6)
    for L in standard_fixtures():
        for M in modules_for(L):
            for n in range(3):
                for parity in (0, 1):
                    m = delta_matrix(L, M, n, parity)
                    _assert_engine_matches_dense_oracle(m, rng)
                    _assert_engine_matches_dense_oracle(m.transpose(), rng)


# -- scaling to ints -----------------------------------------------------------

def test_scaling_skips_the_shared_zero_as_the_truth_test_would():
    # zeros() fills tables with the one object F0, which scale_to_ints
    # skips by identity; every other zero still goes through a truth test
    others = [F(0, 5), F1 - F1, 0, -F0]
    assert all(z is not F0 and not z for z in others)
    rng = random.Random(30)
    values = [F0] * 6 + others + [F(rng.choice([-7, -1, 2, 5]), rng.choice([1, 3, 4, 9]))
                                  for _ in range(6)] + [3, -2]
    tables = [[[rng.choice(values) for _ in range(5)] for _ in range(4)] for _ in range(3)]
    tables.append([zeros(5), [F0, 0, F(0, 5), F1 - F1, F(2, 7)]])
    assert scale_to_ints(tables) == truth_scale_to_ints(tables)
    assert scale_to_ints(tables)[0] > 1
    for L in standard_fixtures():
        flat = [[v for row in L.table for v in row]]
        assert scale_to_ints(flat) == truth_scale_to_ints(flat)
    assert scale_to_ints([[zeros(3), [0, F(0, 2)]]]) == (1, [[[], []]])


# -- the int engine against the Fraction engine ------------------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

SMALL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))
HUGE = st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 80))
# raw ints too: coboundary matrices hold them when no denominator is needed
ENTRY = st.one_of(st.just(0), st.integers(-3, 3), SMALL, HUGE)


@st.composite
def matrices(draw):
    """Up to 6x6, with zero rows, negated rows and combinations of rows
    mixed in, so that ranks drop and right-hand sides can be inconsistent."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[draw(ENTRY) for _ in range(c)] for _ in range(r)]
    for i in range(r):
        kind = draw(st.sampled_from(("keep", "zero", "negate", "combine")))
        if kind == "zero":
            rows[i] = [0] * c
        elif kind == "negate":
            rows[i] = [-x for x in rows[i]]
        elif kind == "combine":
            a, b = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            x, y = draw(SMALL), draw(st.one_of(SMALL, HUGE))
            rows[i] = [x * p + y * q for p, q in zip(rows[a], rows[b])]
    return RatMatrix(c, [sparse(row) for row in rows])


def _all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row.values())


def _consumers(m: RatMatrix, rhs: list[list[Fraction]]):
    return rank(m), kernel_basis(m), [solve(m, b) for b in rhs], row_space_basis(m)


def _assert_int_engine_matches_fraction_engine(m: RatMatrix, rhs, cut: int) -> None:
    red, pivots = rref(m)
    assert (red, pivots) == fraction_rref(m)
    assert _all_fractions(red.sparse_rows)
    got = _consumers(m, rhs)
    with mock.patch.object(linalg, "rref", fraction_rref):
        assert got == _consumers(m, rhs)
    _, kernel, solutions, basis = got
    assert _all_fractions(kernel + [x for x in solutions if x is not None] + basis)
    rows = [{j: Fraction(x) for j, x in row.items()} for row in m.sparse_rows]
    chosen = extend_to_basis(rows[:cut], rows[cut:])
    assert chosen == fraction_extend_to_basis(rows[:cut], rows[cut:])
    assert _all_fractions(chosen)


@PROPERTY
@given(matrices(), st.data())
def test_int_engine_matches_the_fraction_engine(m, data):
    x0 = sparse([data.draw(ENTRY) for _ in range(m.cols)])
    consistent = mat_vec(m, x0)
    arbitrary = sparse([Fraction(data.draw(ENTRY)) for _ in range(m.rows)])
    _assert_int_engine_matches_fraction_engine(
        m, [consistent, arbitrary], data.draw(st.integers(0, m.rows)))


def test_int_engine_matches_the_fraction_engine_on_pinned_cases():
    big = Fraction(2 ** 70 + 1, 3 ** 45)
    cases = [
        mat([], 0),                                       # empty
        mat([], 3),
        mat([[], [], []], 0),
        mat([[0, 0], [0, 0]]),                            # zero rows only
        mat([[-2, 4, 6], [0, 0, 0], [1, -2, -3]]),        # negative leading entry
        mat([[big, -big], [F(1, 2 ** 65), F(-1, 2 ** 65)]]),
        mat([[F(-1, 3), F(2 ** 66, 7), F(0)], [F(5, 2), 0, F(-3, 4)],
             [F(7, 6), F(2 ** 67, 7), F(-3, 4)]]),
        RatMatrix(4, [{3: 6, 1: -4}, {}, {2: F(0), 1: 2}]),   # ints, columns unordered
    ]
    for m in cases:
        # all ones, explicit zeros (no equations) and the empty right-hand side
        rhs = [{i: F(1) for i in range(m.rows)}, {i: F(0) for i in range(m.rows)}, {}]
        _assert_int_engine_matches_fraction_engine(m, rhs, m.rows // 2)
    # inconsistent: the rows agree, the right-hand sides do not
    m = mat([[big, F(-3, 2)], [big, F(-3, 2)]])
    assert solve(m, {0: F(1), 1: F(2)}) is None
    assert _consumers(m, [{0: F(1), 1: F(2)}])[2] == [None]
    red, pivots = rref(m)
    assert pivots == [0] and red.sparse_rows[0] == {0: F(1), 1: F(-3, 2) / big}
