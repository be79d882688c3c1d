import random
from fractions import Fraction

import pytest

from helpers import modules_for, standard_fixtures
from oracles import (dense_extend_to_basis, dense_kernel_basis, dense_row_space_basis,
                     dense_rref, dense_solve)
from superleibniz.cohomology import delta_matrix
from superleibniz.linalg import (RatMatrix, extend_to_basis, kernel_basis, rank,
                                 row_space_basis, rref, solve, zeros)

F = Fraction


def mat(rows):
    return RatMatrix.from_rows([[F(x) for x in r] for r in rows])


def test_rank_identity():
    assert rank(RatMatrix.identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(RatMatrix.zeros(3, 5)) == 0


def test_rank_dependent_rows():
    # [[1,2],[2,4]]: second row is twice the first, rank 1 by hand reduction
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(RatMatrix.identity(2)) == []


def test_kernel_zero_matrix_full():
    basis = kernel_basis(RatMatrix.zeros(2, 3))
    assert len(basis) == 3


def test_kernel_single_relation():
    m = mat([[1, 1, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 3 - rank(m)
    for v in basis:
        assert m.mat_vec(v) == zeros(1)
    # canonical: free columns ascending, with (a,-a,b) shape
    assert basis[0][1] == F(1) and basis[0][0] == F(-1)
    assert basis[1][2] == F(1)


def test_solve_identity():
    x = solve(RatMatrix.identity(2), [F(3), F(5)])
    assert x == [F(3), F(5)]


def test_solve_underdetermined_by_substitution():
    m = mat([[1, 1]])
    x = solve(m, [F(2)])
    assert x is not None and m.mat_vec(x) == [F(2)]


def test_solve_inconsistent():
    m = mat([[1], [1]])
    assert solve(m, [F(0), F(1)]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(mat([[1, 2]]), [F(1), F(2)])


def test_rref_canonical():
    red, pivots = rref(mat([[2, 4], [1, 3]]))
    assert pivots == [0, 1]
    assert red.entries == [[F(1), F(0)], [F(0), F(1)]]


def test_rank_nullity_random():
    rng = random.Random(0)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = RatMatrix.from_rows(
            [[F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(c)]
             for _ in range(r)])
        assert rank(m) + len(kernel_basis(m)) == c
        for v in kernel_basis(m):
            assert m.mat_vec(v) == zeros(r)


def test_rank_invariant_under_row_permutation():
    rng = random.Random(1)
    for _ in range(20):
        r, c = rng.randint(2, 5), rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(c)] for _ in range(r)]
        m = RatMatrix.from_rows(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(m) == rank(RatMatrix.from_rows(shuffled))


def test_solve_random_consistent_systems():
    rng = random.Random(2)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = RatMatrix.from_rows(
            [[F(rng.randint(-2, 2)) for _ in range(c)] for _ in range(r)])
        x0 = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(c)]
        b = m.mat_vec(x0)
        x = solve(m, b)
        assert x is not None and m.mat_vec(x) == b


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
    s = RatMatrix.from_sparse(3, [{1: F(2), 0: F(0)}, {}, {2: F(-3), 0: F(1)}])
    assert s == m and s.sparse_rows[0] == {1: F(2)}   # zeros dropped
    assert m.transpose().sparse_rows == [{2: F(1)}, {0: F(2)}, {2: F(-3)}]
    assert m.transpose().transpose() == m
    with pytest.raises(ValueError):
        RatMatrix.from_sparse(3, [{3: F(1)}])


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
    return RatMatrix(r, c, rows)


def _assert_engine_matches_dense_oracle(m: RatMatrix, rng: random.Random) -> None:
    red, pivots = rref(m)
    dred, dpivots = dense_rref(m)
    assert pivots == dpivots
    assert red.entries == dred.entries and (red.rows, red.cols) == (dred.rows, dred.cols)
    assert kernel_basis(m) == dense_kernel_basis(m)
    assert row_space_basis(m) == dense_row_space_basis(m)
    # one consistent right-hand side (a combination of the columns), one arbitrary
    x0 = [F(rng.randint(-2, 2)) for _ in range(m.cols)]
    for b in (m.mat_vec(x0), [F(rng.randint(-2, 2)) for _ in range(m.rows)]):
        assert solve(m, b) == dense_solve(m, b)
    rows = m.entries
    cut = rng.randint(0, m.rows)
    assert (extend_to_basis(rows[:cut], rows[cut:], m.cols)
            == dense_extend_to_basis(rows[:cut], rows[cut:], m.cols))
    assert (extend_to_basis([], rows[::-1], m.cols)
            == dense_extend_to_basis([], rows[::-1], m.cols))


def test_engine_matches_dense_oracle_on_random_matrices():
    rng = random.Random(3)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (2, 7), (7, 2), (6, 6)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(150)]
    for r, c in shapes:
        _assert_engine_matches_dense_oracle(_random_matrix(rng, r, c), rng)


def test_engine_matches_dense_oracle_with_non_unit_pivots():
    rng = random.Random(4)
    m = mat([[0, 3, 6, 0], [0, 3, 6, 0], [2, 0, 0, 5], [0, 0, 0, 0], [4, 3, 6, 10]])
    _assert_engine_matches_dense_oracle(m, rng)
    assert rank(m) == 2


def test_rref_does_not_depend_on_row_order():
    rng = random.Random(5)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        rows = list(m.entries)
        rng.shuffle(rows)
        shuffled = RatMatrix(m.rows, m.cols, rows)
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
