"""Homogeneous n-cochains and the coboundary.

A cochain of arity n with values in a bimodule M is a dense table: one
module vector per n-tuple of algebra basis indices, tuples ordered
lexicographically.  Arity 0 is a single module vector.

The coboundary of an arity-n cochain f is, on basis tuples,

    (delta f)(x_1,...,x_{n+1}) =
        sum_{1<=i<j<=n+1} (-1)**(i + x_i(x_{i+1}+...+x_{j-1}))
                          f(x_1,...,^x_i,...,[x_i,x_j],...,x_{n+1})
      + sum_{1<=i<=n} (-1)**(i+1 + x_i(f+x_1+...+x_{i-1}))
                          [x_i, f(x_1,...,^x_i,...,x_{n+1})]
      + (-1)**(n+1) [f(x_1,...,x_n), x_{n+1}]

where ^x_i marks a deleted slot and the substituted bracket [x_i,x_j]
occupies slot j.  That slot-j placement is load-bearing: putting the
bracket in slot i instead breaks delta(delta(f)) = 0 (see the tests,
which machine-check the rejected variant).  For n = 0 only the last term
survives and delta(m)(x) = -[m, x].  Each term is one structure
constant, so the one term walk behind delta and cohomology.delta_matrix
visits only the nonzero brackets and actions, with the other slots free,
and finds tuples by index arithmetic.  It reads the bracket and both
actions scaled once to ints over one denominator D (SuperBimodule.scaled);
delta sums the cochain's Fraction coefficients times those ints and
divides each nonzero entry of the sum by D once.

The paper's operator calculus (d_x, the restriction f_x, the bimodule
structure on cochain spaces and currying) is proof machinery for
delta(delta(f)) = 0 and for that module structure; no computation here
needs it, so it lives in the test suite's oracles, which check the
lemmas against this coboundary.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import LeibnizSuperalgebra, SuperBimodule, check_module_over
from .linalg import vec_is_zero, zeros


def tuple_index(t: tuple[int, ...], dim: int) -> int:
    idx = 0
    for c in t:
        idx = idx * dim + c
    return idx


def all_tuples(dim: int, n: int):
    return itertools.product(range(dim), repeat=n)


class Cochain:
    """Homogeneous n-linear map L x ... x L -> M as a coefficient table."""

    __slots__ = ("algebra", "module", "arity", "degree", "coeffs")

    def __init__(self, algebra: LeibnizSuperalgebra, module: SuperBimodule,
                 arity: int, degree: int, coeffs: list[list[Fraction]]):
        check_module_over(algebra, module)
        if arity < 0:
            raise ValueError("arity must be >= 0")
        if degree not in (0, 1):
            raise ValueError("degree must be 0 or 1")
        if len(coeffs) != algebra.dim ** arity:
            raise ValueError("coefficient table has wrong size")
        self.algebra = algebra
        self.module = module
        self.arity = arity
        self.degree = degree
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, algebra: LeibnizSuperalgebra, module: SuperBimodule,
             arity: int, degree: int) -> "Cochain":
        dm = module.dim
        return cls(algebra, module, arity, degree,
                   [zeros(dm) for _ in range(algebra.dim ** arity)])

    @classmethod
    def from_table(cls, algebra: LeibnizSuperalgebra, module: SuperBimodule, arity: int,
                   degree: int, den: int, table: list | None) -> "Cochain":
        """The cochain whose flat table lists, at each tuple index, the
        nonzeros (k, x) of its value times den; None is the zero cochain."""
        f = cls.zero(algebra, module, arity, degree)
        for vec, row in zip(f.coeffs, table or ()):
            for k, x in row:
                vec[k] = Fraction(x, den)
        return f

    # -- structure ----------------------------------------------------------

    def value(self, t: tuple[int, ...]) -> list[Fraction]:
        return self.coeffs[tuple_index(t, self.algebra.dim)]

    def is_zero(self) -> bool:
        return all(vec_is_zero(v) for v in self.coeffs)

    def _compatible(self, other: "Cochain") -> None:
        if (self.algebra != other.algebra or self.module != other.module
                or self.arity != other.arity or self.degree != other.degree):
            raise ValueError("cochains live in different spaces")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(self.algebra, self.module, self.arity, self.degree,
                       [[a + b for a, b in zip(u, v)]
                        for u, v in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(self.algebra, self.module, self.arity, self.degree,
                       [[a - b for a, b in zip(u, v)]
                        for u, v in zip(self.coeffs, other.coeffs)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.arity == other.arity
                and self.degree == other.degree and self.algebra == other.algebra
                and self.module == other.module and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return (f"Cochain(arity={self.arity}, degree={self.degree}, "
                f"alg={self.algebra.space.name!r})")


_SIGN = (1, -1)   # (-1)**e, indexed by e & 1


def parity_tables(parities: tuple[int, ...], n: int) -> list[list[int]]:
    """tables[L][i]: the parity of the length-L basis tuple of index i, L = 0..n."""
    tables = [[0]]
    for _ in range(n):
        tables.append([q ^ p for q in tables[-1] for p in parities])
    return tables


def coboundary_terms(alg: LeibnizSuperalgebra, structure: tuple[int, list, list, list],
                     degree: int, n: int, par: list[list[int]]):
    """The terms of D*delta on arity-n cochains of degree `degree`.

    structure is the scaled form of the cochains' module, or any
    rescaling of it, and D its denominator; par is parity_tables to
    arity n or beyond.  Only nonzero structure
    constants are visited: each bracket [x_a, x_b] at slots i < j, each
    left action of x_i at a slot i < n+1 and each right action at slot
    n+1, with the other slots free.  Yields (T, S, scalar, action) with T
    the tuple index of an arity-(n+1) tuple, S that of an arity-n tuple
    and an int scalar.  With action None the term adds scalar * f(S) to
    D*(delta f)(T), a bracket substitution.  Otherwise action[m] lists the
    nonzeros (k, D*coefficient) of the module vector that the basis vector
    m_m is sent to, and the term adds scalar * sum_m f(S)[m] * action[m].
    """
    dim, apar = alg.dim, alg.space.parities
    _, table, left, right = structure
    # T = P + (a,) + M + (b,) + R and S = P + M + (k,) + R, with the bracket
    # [x_a, x_b] = sum_k c_k x_k deleted from slot i and landing in slot j
    brackets = [(*divmod(ab, dim), image) for ab, image in enumerate(table) if image]
    for i in range(n + 1):
        wi = dim ** (n - i)   # the weight of slot i in T, and of P's last slot in S
        for j in range(i + 1, n + 1):
            wj = dim ** (n - j)   # the weight of slot j in T and of k in S
            for p in range(dim ** i):
                for m, mpar in enumerate(par[j - i - 1]):
                    t0 = (p * wi + m * wj) * dim
                    s0 = p * wi + m * wj * dim
                    for a, b, image in brackets:
                        t = t0 + a * wi + b * wj
                        neg = (i + 1 + (apar[a] & mpar)) & 1
                        for k, c in image:
                            s = s0 + k * wj
                            if neg:
                                c = -c
                            for r in range(wj):
                                yield t + r, s + r, c, None
    # left-action terms: T = P + (x,) + R, S = P + R, [x, f(S)]
    acting = [(x, act) for x, act in enumerate(left) if act]
    for i in range(n):
        wi = dim ** (n - i)
        for p, ppar in enumerate(par[i]):
            for x, act in acting:
                t, s = (p * dim + x) * wi, p * wi
                sign = _SIGN[(i + (apar[x] & (degree ^ ppar))) & 1]
                for r in range(wi):
                    yield t + r, s + r, sign, act
    # right-action term: T = S + (x,), (-1)**(n+1) [f(S), x]
    sign = _SIGN[(n + 1) & 1]
    for x, act in enumerate(right):
        if act:
            for s in range(dim ** n):
                yield s * dim + x, s, sign, act


def delta(f: Cochain) -> Cochain:
    """Coboundary: arity n+1, same degree."""
    structure = f.module.scaled
    support = [[(m, wm) for m, wm in enumerate(w) if wm] for w in f.coeffs]
    out = Cochain.zero(f.algebra, f.module, f.arity + 1, f.degree)
    acc = out.coeffs
    par = parity_tables(f.algebra.space.parities, f.arity)
    for t, s, c, action in coboundary_terms(f.algebra, structure, f.degree, f.arity, par):
        if support[s]:
            row = acc[t]
            if action is None:
                for m, wm in support[s]:
                    row[m] += c * wm
            else:
                for m, wm in support[s]:
                    cw = c * wm
                    for k, x in action[m]:
                        row[k] += cw * x
    if structure[0] != 1:
        out.coeffs = [[x and x / structure[0] for x in v] for v in acc]
    return out
