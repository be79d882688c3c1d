import itertools
import random
from fractions import Fraction

import pytest

from helpers import (fraction_module, modules_for, random_cochain,
                     random_homogeneous_vector, standard_fixtures, trivial_module)
from oracles import (MixedParityError, act_left, act_right, cochain_eval,
                     cochain_space_module, curry, d_op, dense_delta, dense_scaled_structure,
                     bracket_vec, expanded_act_right, identity_map, is_homogeneous,
                     restrict, scale, uncurry_value, vector_parity)
from test_cohomology import _denominator_algebra
from superleibniz.algebra import (SuperBimodule, SuperSpace, abelian, adjoint_module,
                                  free_truncated, koszul, nonlie_example, zero_module)
from superleibniz.cochain import Cochain, all_tuples, delta, tuple_index
from superleibniz.deformation import FormalIsomorphism, TruncatedDeformation
from superleibniz.linalg import F0, F1, basis_vec, scale_to_ints, zeros

F = Fraction


def nonlie_with_adjoint():
    L = nonlie_example()
    return L, adjoint_module(L)


def mu_example(L, M):
    """The even 2-cochain with the single value (z,z) -> x."""
    f = Cochain.zero(L, M, 2, 0)
    f.coeffs[tuple_index((2, 2), 3)] = basis_vec(3, 0)
    return f


# -- eval ---------------------------------------------------------------

def test_eval_arity_zero_returns_the_vector():
    L, M = nonlie_with_adjoint()
    m = Cochain.zero(L, M, 0, 0)
    m.coeffs[0] = [F(2), F(-1), F0]
    assert cochain_eval(m, []) == [F(2), F(-1), F0]


def test_eval_identity_cochain():
    L, M = nonlie_with_adjoint()
    ident = identity_map(L, M)
    v = [F(3), F(-2), F0]
    assert cochain_eval(ident, [v]) == v


def test_eval_mu_example():
    L, M = nonlie_with_adjoint()
    mu = mu_example(L, M)
    z = basis_vec(3, 2)
    assert cochain_eval(mu, [z, z]) == basis_vec(3, 0)


def test_eval_multilinear_in_nonhomogeneous_args():
    L, M = nonlie_with_adjoint()
    rng = random.Random(0)
    f = random_cochain(L, M, 2, 0, rng)
    u = [F(1), F(2), F(3)]   # mixed parity is fine for eval
    v = [F(-1), F(0), F(5)]
    expect = zeros(3)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            for k, c in enumerate(f.value((i, j))):
                expect[k] += a * b * c
    assert cochain_eval(f, [u, v]) == expect


def test_eval_wrong_arg_count():
    L, M = nonlie_with_adjoint()
    f = Cochain.zero(L, M, 2, 0)
    with pytest.raises(ValueError):
        cochain_eval(f, [basis_vec(3, 0)])


# -- delta --------------------------------------------------------------

def test_delta_arity0_of_central_element_is_zero():
    L, M = nonlie_with_adjoint()
    m = Cochain.zero(L, M, 0, 0)
    m.coeffs[0] = basis_vec(3, 0)   # x: [x,u]=0 for all u
    assert delta(m).is_zero()


def test_delta_arity0_formula():
    # delta(m)(u) = -[m, u]
    L, M = nonlie_with_adjoint()
    m = Cochain.zero(L, M, 0, 0)
    m.coeffs[0] = basis_vec(3, 1)   # y
    d = delta(m)
    for u in range(3):
        assert d.value((u,)) == [-c for c in bracket_vec(L, basis_vec(3, 1),
                                                                basis_vec(3, u))]


def test_delta_identity_cochain_is_bracket():
    for L in standard_fixtures():
        M = adjoint_module(L)
        d = delta(identity_map(L, M))
        for i in range(L.dim):
            for j in range(L.dim):
                assert d.value((i, j)) == L.bracket(i, j)


def test_delta_mu_example_matches_hand_expansion():
    # the only nonzero values of delta(mu) are at (y,z,z) and (z,y,z)
    L, M = nonlie_with_adjoint()
    dmu = delta(mu_example(L, M))
    x = basis_vec(3, 0)
    assert dmu.value((1, 2, 2)) == x
    assert dmu.value((2, 1, 2)) == [-c for c in x]
    for t in all_tuples(3, 3):
        if t not in ((1, 2, 2), (2, 1, 2)):
            assert not any(dmu.value(t)), t


def test_delta_degree_and_homogeneity_bookkeeping():
    L, M = nonlie_with_adjoint()
    rng = random.Random(1)
    for n in (0, 1, 2):
        for deg in (0, 1):
            f = random_cochain(L, M, n, deg, rng)
            df = delta(f)
            assert df.arity == n + 1 and df.degree == deg
            assert is_homogeneous(df)


def test_delta_delta_zero_across_fixtures():
    rng = random.Random(2)
    for L in standard_fixtures():
        for M in modules_for(L):
            for n in (0, 1, 2):
                for deg in (0, 1):
                    for _ in range(3):
                        f = random_cochain(L, M, n, deg, rng)
                        assert delta(delta(f)).is_zero()


def test_delta_matches_dense_oracle_on_any_cochain():
    # no homogeneity is assumed: every module component is filled
    rng = random.Random(30)
    for L in standard_fixtures():
        for M in modules_for(L):
            for n in (0, 1, 2, 3):
                for deg in (0, 1):
                    f = Cochain.zero(L, M, n, deg)
                    f.coeffs = [[F(rng.randint(-3, 3)) for _ in range(M.dim)]
                                for _ in f.coeffs]
                    assert delta(f).coeffs == dense_delta(f).coeffs


def test_rejected_slot_convention_breaks_the_complex():
    # substituting the bracket into slot i (instead of slot j) must fail
    # delta(delta(f)) = 0 somewhere; machine-check of the convention choice
    rng = random.Random(3)
    broken = False
    for L in standard_fixtures():
        M = adjoint_module(L)
        for n in (1, 2):
            for deg in (0, 1):
                for _ in range(5):
                    f = random_cochain(L, M, n, deg, rng)
                    g = dense_delta(f, bracket_in_slot_i=True)
                    if not dense_delta(g, bracket_in_slot_i=True).is_zero():
                        broken = True
    assert broken


# -- d_op / restrict ----------------------------------------------------

def test_d_op_arity0_is_left_action():
    L, M = nonlie_with_adjoint()
    m = Cochain.zero(L, M, 0, 0)
    m.coeffs[0] = basis_vec(3, 0)
    y = basis_vec(3, 1)
    out = d_op(y, m)
    assert out.coeffs[0] == bracket_vec(L, y, basis_vec(3, 0))


def test_d_op_annihilating_element_gives_zero():
    # x is central and annihilating in the non-Lie example
    L, M = nonlie_with_adjoint()
    rng = random.Random(4)
    x = basis_vec(3, 0)
    for n in (0, 1, 2):
        f = random_cochain(L, M, n, rng.choice((0, 1)), rng)
        assert d_op(x, f).is_zero()


def test_d_op_abelian_always_zero():
    A = abelian(2, 1)
    M = adjoint_module(A)
    rng = random.Random(5)
    for n in (0, 1, 2):
        f = random_cochain(A, M, n, rng.choice((0, 1)), rng)
        for parity in (0, 1):
            v = random_homogeneous_vector(A.space, parity, rng)
            assert d_op(v, f).is_zero()


def test_d_op_rejects_mixed_parity():
    L, M = nonlie_with_adjoint()
    f = Cochain.zero(L, M, 1, 0)
    with pytest.raises(MixedParityError):
        d_op([F1, F0, F1], f)
    with pytest.raises(MixedParityError):
        restrict(f, [F1, F0, F1])


def test_restrict_of_mu_example():
    L, M = nonlie_with_adjoint()
    mu = mu_example(L, M)
    fz = restrict(mu, basis_vec(3, 2))
    assert fz.arity == 1 and fz.degree == 1
    assert fz.value((2,)) == basis_vec(3, 0)
    assert not any(fz.value((0,))) and not any(fz.value((1,)))


def test_restrict_delta_of_module_element():
    # restrict(delta(m), u) is the 0-cochain -[m, u]
    L, M = nonlie_with_adjoint()
    m = Cochain.zero(L, M, 0, 0)
    m.coeffs[0] = basis_vec(3, 1)
    for u in range(3):
        r = restrict(delta(m), basis_vec(3, u))
        assert r.arity == 0
        assert r.coeffs[0] == [-c for c in bracket_vec(L, basis_vec(3, 1),
                                                              basis_vec(3, u))]


def test_restrict_by_zero_vector_is_zero():
    L, M = nonlie_with_adjoint()
    f = random_cochain(L, M, 2, 0, random.Random(6))
    assert restrict(f, zeros(3)).is_zero()
    with pytest.raises(ValueError):
        restrict(Cochain.zero(L, M, 0, 0), basis_vec(3, 0))


def test_degree_bookkeeping_d_op_restrict():
    L = free_truncated(SuperSpace("V", ("v",), (1,)), 3)
    M = adjoint_module(L)
    rng = random.Random(7)
    for deg in (0, 1):
        f = random_cochain(L, M, 2, deg, rng)
        for px in (0, 1):
            v = random_homogeneous_vector(L.space, px, rng)
            assert d_op(v, f).degree == (deg + px) & 1
            assert restrict(f, v).degree == (deg + px) & 1
            assert is_homogeneous(d_op(v, f))
            assert is_homogeneous(restrict(f, v))


# -- lemma suite (operator identities) -----------------------------------

def lemma_fixture_cases(seed, count=12):
    rng = random.Random(seed)
    for L in standard_fixtures():
        M = adjoint_module(L)
        for _ in range(count):
            n = rng.choice((1, 2))
            degf = rng.choice((0, 1))
            f = random_cochain(L, M, n, degf, rng)
            x = random_homogeneous_vector(L.space, rng.choice((0, 1)), rng)
            y = random_homogeneous_vector(L.space, rng.choice((0, 1)), rng)
            yield L, M, f, x, y


def test_lemma_restrict_of_d_op():
    # (d_x f)_y = d_x(f_y) - (-1)**(xf) f_[x,y]
    for L, M, f, x, y in lemma_fixture_cases(10):
        px = vector_parity(L.space, x) or 0
        lhs = restrict(d_op(x, f), y)
        rhs = d_op(x, restrict(f, y))
        xy = bracket_vec(L, x, y)
        if any(xy):
            rhs = rhs - scale(restrict(f, xy), koszul(px, f.degree))
        assert lhs.coeffs == rhs.coeffs


def test_lemma_restrict_of_delta():
    # (delta f)_x = (-1)**(xf) d_x f - delta(f_x)
    for L, M, f, x, _ in lemma_fixture_cases(11):
        px = vector_parity(L.space, x) or 0
        lhs = restrict(delta(f), x)
        rhs = scale(d_op(x, f), koszul(px, f.degree)) - delta(restrict(f, x))
        assert lhs.coeffs == rhs.coeffs


def test_lemma_d_op_commutator():
    # d_x d_y f - (-1)**(xy) d_y d_x f = d_[x,y] f
    for L, M, f, x, y in lemma_fixture_cases(12):
        px = vector_parity(L.space, x) or 0
        py = vector_parity(L.space, y) or 0
        lhs = d_op(x, d_op(y, f)) - scale(d_op(y, d_op(x, f)), koszul(px, py))
        xy = bracket_vec(L, x, y)
        if any(xy):
            assert lhs.coeffs == d_op(xy, f).coeffs
        else:
            assert lhs.is_zero()


def test_lemma_delta_commutes_with_d_op():
    # delta(d_x f) = d_x(delta f)
    for L, M, f, x, _ in lemma_fixture_cases(13):
        assert delta(d_op(x, f)).coeffs == d_op(x, delta(f)).coeffs


# -- module actions on cochain spaces ------------------------------------

def test_act_left_is_d_op():
    L, M = nonlie_with_adjoint()
    rng = random.Random(14)
    for _ in range(100):
        f = random_cochain(L, M, rng.choice((1, 2)), rng.choice((0, 1)), rng)
        a = random_homogeneous_vector(L.space, rng.choice((0, 1)), rng)
        assert act_left(a, f).coeffs == d_op(a, f).coeffs


def test_actions_vanish_on_abelian():
    A = abelian(1, 1)
    M = adjoint_module(A)
    rng = random.Random(15)
    f = random_cochain(A, M, 1, 0, rng)
    assert act_left(basis_vec(2, 0), f).is_zero()
    assert act_right(f, basis_vec(2, 0)).is_zero()
    assert act_right(f, basis_vec(2, 1)).is_zero()


def test_act_left_identity_cochain():
    # [a, id](u) = [a,u] - [a,u] = 0
    L, M = nonlie_with_adjoint()
    ident = identity_map(L, M)
    assert act_left(basis_vec(3, 1), ident).is_zero()


def test_act_right_vs_act_left_koszul_relation():
    # [f,a] = -(-1)**(af) [a,f], with [f,a] expanded term by term
    rng = random.Random(16)
    for L in standard_fixtures():
        M = adjoint_module(L)
        for _ in range(10):
            f = random_cochain(L, M, rng.choice((1, 2)), rng.choice((0, 1)), rng)
            pa = rng.choice((0, 1))
            a = random_homogeneous_vector(L.space, pa, rng)
            lhs = expanded_act_right(f, a)
            rhs = scale(act_left(a, f), -koszul(pa, f.degree))
            assert lhs.coeffs == rhs.coeffs
            assert act_right(f, a).coeffs == lhs.coeffs


def test_act_right_arity0():
    # [m, a] = -(-1)**(am) [a, m]; for even m this is -[a, m]
    L, M = nonlie_with_adjoint()
    m = Cochain.zero(L, M, 0, 0)
    m.coeffs[0] = basis_vec(3, 0)
    a = basis_vec(3, 1)
    out = act_right(m, a)
    assert out.coeffs[0] == [-c for c in bracket_vec(L, a, basis_vec(3, 0))]


def test_cochain_space_is_a_module_exhaustively():
    for L in (nonlie_example(),
              free_truncated(SuperSpace("V", ("v",), (1,)), 3)):
        M = adjoint_module(L)
        for n in (1, 2):
            CM = cochain_space_module(L, M, n)
            assert CM.check_grading().ok
            assert CM.check_axioms().ok


# -- curry ----------------------------------------------------------------

def test_curry_endpoints_reproduce_f():
    L, M = nonlie_with_adjoint()
    rng = random.Random(17)
    f = random_cochain(L, M, 2, 1, rng)
    f0 = curry(f, 0)
    assert f0.arity == 0
    assert uncurry_value(f0.module, f0.coeffs[0]).coeffs == f.coeffs
    fn = curry(f, 2)
    # level-n curry is valued in the arity-0 cochain space, i.e. M itself
    assert fn.arity == 2
    for t in all_tuples(3, 2):
        assert fn.value(t) == f.value(t)


def test_curry_level1_matches_restrict():
    L, M = nonlie_with_adjoint()
    mu = mu_example(L, M)
    c = curry(mu, 1)
    for i in range(3):
        g = uncurry_value(c.module, c.value((i,)))
        r = restrict(mu, basis_vec(3, i))
        assert g.coeffs == r.coeffs


def test_curry_round_trip_eval():
    L, M = nonlie_with_adjoint()
    rng = random.Random(18)
    f = random_cochain(L, M, 3, 0, rng)
    c = curry(f, 2)
    for a, b, cc in itertools.product(range(3), repeat=3):
        g = uncurry_value(c.module, c.value((a, b)))
        assert g.value((cc,)) == f.value((a, b, cc))


def test_curry_out_of_range():
    L, M = nonlie_with_adjoint()
    f = Cochain.zero(L, M, 2, 0)
    with pytest.raises(ValueError):
        curry(f, 3)


def test_currying_lemma():
    # delta(f_j)(a..) = (delta f)_{j+1}(a..) + (-1)**j delta(f_{j+1}(a..))
    rng = random.Random(19)
    for L in (nonlie_example(),
              free_truncated(SuperSpace("V", ("v",), (1,)), 3)):
        M = adjoint_module(L)
        for _ in range(6):
            n = 2
            f = random_cochain(L, M, n, rng.choice((0, 1)), rng)
            j = rng.choice((0, 1))
            fj = curry(f, j)
            dfj = delta(fj)
            dfc = curry(delta(f), j + 1)
            fj1 = curry(f, j + 1)
            sgn = -F1 if j & 1 else F1
            for T in all_tuples(L.dim, j + 1):
                lhs = uncurry_value(dfj.module, dfj.value(T))
                rhs = uncurry_value(dfc.module, dfc.value(T))
                inner = uncurry_value(fj1.module, fj1.value(T))
                d_inner = delta(inner)
                expected = [[a + sgn * b for a, b in zip(u, v)]
                            for u, v in zip(rhs.coeffs, d_inner.coeffs)]
                assert lhs.coeffs == expected


# -- linear structure -----------------------------------------------------

def test_cochain_addition_and_scaling():
    L, M = nonlie_with_adjoint()
    rng = random.Random(20)
    f = random_cochain(L, M, 2, 0, rng)
    g = random_cochain(L, M, 2, 0, rng)
    s = (f + g) - g
    assert s.coeffs == f.coeffs
    assert scale(scale(f, F(2)), F(1, 2)).coeffs == f.coeffs
    assert (f - f).is_zero()
    with pytest.raises(ValueError):
        f + random_cochain(L, M, 2, 1, rng)


def test_delta_is_linear():
    L, M = nonlie_with_adjoint()
    rng = random.Random(21)
    f = random_cochain(L, M, 1, 1, rng)
    g = random_cochain(L, M, 1, 1, rng)
    c = F(3, 2)
    assert delta(f + scale(g, c)).coeffs == (delta(f) + scale(delta(g), c)).coeffs


@pytest.mark.parametrize("L", standard_fixtures() + [_denominator_algebra()],
                         ids=lambda L: L.space.name)
def test_the_integral_form_equals_a_fresh_scan(L):
    # the algebra scales its bracket once and keeps it; the adjoint module,
    # which shares the algebra's table, slices its actions from that form,
    # and the unit of every series reads it
    M = adjoint_module(L)
    assert M.left is L.table is M.right
    d, (table,) = scale_to_ints([[v for row in L.table for v in row]])
    assert L.integral == (d, table)
    assert M.scaled == dense_scaled_structure(M)
    # an equal module built apart takes the scan, with the same result
    apart = SuperBimodule(L, L.space, [[list(v) for v in row] for row in L.table],
                          [[list(v) for v in row] for row in L.table])
    assert apart.scaled == dense_scaled_structure(M)
    assert apart.scaled is apart.scaled   # kept on the module
    zero = TruncatedDeformation.zero(L, 2)
    assert (zero.den, zero.tables) == (d, {0: table} if any(table) else {})
    e, (unit,) = scale_to_ints([[basis_vec(L.dim, a) for a in range(L.dim)]])
    identity = FormalIsomorphism.identity(L, 2)
    assert (identity.den, identity.tables) == (e, {0: unit})


@pytest.mark.parametrize("L", standard_fixtures() + [_denominator_algebra()],
                         ids=lambda L: L.space.name)
def test_another_modules_scaled_form_equals_one_scan(L):
    # a module other than the adjoint one, with no denominator, or with
    # denominators of its own that do or do not raise the bracket's D
    d, _ = L.integral
    for M in [zero_module(L), trivial_module(L)] + [fraction_module(L, e) for e in (1, 2, 6, d)]:
        assert M.scaled == dense_scaled_structure(M)
