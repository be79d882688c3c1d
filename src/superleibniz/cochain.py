"""Homogeneous n-cochains and the coboundary calculus.

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
survives and delta(m)(x) = -[m, x].
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import (EVEN, LeibnizSuperalgebra, MixedParityError, SuperBimodule,
                      SuperSpace, koszul)
from .linalg import F1, add_scaled, basis_vec, lin_comb, vec_is_zero, zeros


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
        if module.algebra is not algebra and module.algebra != algebra:
            raise ValueError("module is not over the given algebra")
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
    def basis_cochain(cls, algebra: LeibnizSuperalgebra, module: SuperBimodule,
                      t: tuple[int, ...], k: int) -> "Cochain":
        """The cochain supported at tuple t with value m_k; degree inferred."""
        degree = (module.space.parities[k] + algebra.space.tuple_parity(t)) & 1
        f = cls.zero(algebra, module, len(t), degree)
        f.coeffs[tuple_index(t, algebra.dim)] = basis_vec(module.dim, k)
        return f

    @classmethod
    def identity_map(cls, algebra: LeibnizSuperalgebra, module: SuperBimodule) -> "Cochain":
        """Identity 1-cochain; only meaningful when M has the algebra's space."""
        if module.space != algebra.space:
            raise ValueError("identity cochain needs module space = algebra space")
        f = cls.zero(algebra, module, 1, EVEN)
        for i in range(algebra.dim):
            f.coeffs[i] = basis_vec(module.dim, i)
        return f

    # -- structure ----------------------------------------------------------

    def value(self, t: tuple[int, ...]) -> list[Fraction]:
        return self.coeffs[tuple_index(t, self.algebra.dim)]

    def is_zero(self) -> bool:
        return all(vec_is_zero(v) for v in self.coeffs)

    def is_homogeneous(self) -> bool:
        """Support check: value at t lives in parity degree + |t| only."""
        apar = self.algebra.space
        mpar = self.module.space.parities
        for t in all_tuples(self.algebra.dim, self.arity):
            want = (self.degree + apar.tuple_parity(t)) & 1
            for k, c in enumerate(self.value(t)):
                if c and mpar[k] != want:
                    return False
        return True

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

    def scale(self, c: Fraction) -> "Cochain":
        return Cochain(self.algebra, self.module, self.arity, self.degree,
                       [[c * a for a in v] for v in self.coeffs])

    def __neg__(self) -> "Cochain":
        return self.scale(-F1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.arity == other.arity
                and self.degree == other.degree and self.algebra == other.algebra
                and self.module == other.module and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return (f"Cochain(arity={self.arity}, degree={self.degree}, "
                f"alg={self.algebra.space.name!r})")

    # -- evaluation ---------------------------------------------------------

    def eval(self, args: list[list[Fraction]]) -> list[Fraction]:
        """Multilinear extension; arguments are arbitrary vectors."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        dim = self.algebra.dim
        for a in args:
            if len(a) != dim:
                raise ValueError("argument length does not match algebra dimension")
        out = zeros(self.module.dim)
        supports = [[(i, c) for i, c in enumerate(a) if c] for a in args]
        for combo in itertools.product(*supports):
            coeff = F1
            for _, c in combo:
                coeff *= c
            t = tuple(i for i, _ in combo)
            add_scaled(out, coeff, self.value(t))
        return out


def _vector_parity_or_raise(space: SuperSpace, v: list[Fraction], what: str) -> int:
    try:
        p = space.vector_parity(v)
    except MixedParityError:
        raise MixedParityError(f"{what} must be homogeneous")
    return 0 if p is None else p


_SIGN = (F1, -F1)   # (-1)**e, indexed by e & 1


def action_nonzeros(mod: SuperBimodule) -> tuple[list, list]:
    """The two actions of mod as nonzeros, scanned once for coboundary_terms:
    left[x][m] and right[x][m] list the (k, coefficient) pairs of
    [x, m_m] and [m_m, x], for x an algebra and m a module basis index."""
    def nz(v):
        return [(k, c) for k, c in enumerate(v) if c]
    left = [[nz(v) for v in row] for row in mod.left]
    right = [[nz(mod.right[m][x]) for m in range(mod.dim)]
             for x in range(mod.algebra.dim)]
    return left, right


def coboundary_terms(alg: LeibnizSuperalgebra, actions: tuple[list, list],
                     degree: int, T: tuple[int, ...]):
    """The terms of (delta f)(T) for a degree-`degree` cochain f of arity len(T)-1.

    actions is action_nonzeros of f's module.  Yields (S, scalar, action).
    With action None the term is scalar * f(S), a bracket substitution.
    Otherwise action[m] lists the nonzeros (k, coefficient) of the module
    vector that the basis vector m_m is sent to (by the left action of
    x_i, or the right action of x_{n+1}), and the term is
    scalar * sum_m f(S)[m] * action[m].
    """
    n = len(T) - 1
    table = alg.table
    tpar = [alg.space.parities[t] for t in T]
    # bracket-substitution terms: delete slot i, bracket lands in slot j
    for i in range(n + 1):
        pi = tpar[i]
        run = 0
        for j in range(i + 1, n + 1):
            e = (i + 1) + pi * run
            run += tpar[j]
            head = T[:i] + T[i + 1:j]
            tail = T[j + 1:]
            for k, c in enumerate(table[T[i]][T[j]]):
                if c:
                    yield head + (k,) + tail, (-c if e & 1 else c), None
    # left-action terms: [x_i, f(..., ^x_i, ...)], i = 1..n
    left, right = actions
    run = degree
    for i in range(n):
        pi = tpar[i]
        e = i + pi * run
        run += pi
        yield T[:i] + T[i + 1:], _SIGN[e & 1], left[T[i]]
    # right-action term: (-1)**(n+1) [f(x_1..x_n), x_{n+1}]
    yield T[:n], _SIGN[(n + 1) & 1], right[T[n]]


def delta(f: Cochain) -> Cochain:
    """Coboundary: arity n+1, same degree."""
    alg, mod = f.algebra, f.module
    dim = alg.dim
    actions = action_nonzeros(mod)
    # the nonzero entries of f, by tuple index, scanned once
    support = {}
    for idx, w in enumerate(f.coeffs):
        nz = [(m, wm) for m, wm in enumerate(w) if wm]
        if nz:
            support[idx] = nz
    out = Cochain.zero(alg, mod, f.arity + 1, f.degree)
    for acc, T in zip(out.coeffs, all_tuples(dim, f.arity + 1)):
        for S, c, action in coboundary_terms(alg, actions, f.degree, T):
            for m, wm in support.get(tuple_index(S, dim), ()):
                if action is None:
                    acc[m] += c * wm
                else:
                    cw = c * wm
                    for k, x in action[m]:
                        acc[k] += cw * x
    return out


def d_op(x: list[Fraction], f: Cochain) -> Cochain:
    """d_x f = [x, f(...)] - sum_i (-1)**(x(f+y_1+..+y_{i-1})) f(..,[x,y_i],..).

    Degree of the result is degree(f) + parity(x); x must be homogeneous.
    """
    alg, mod = f.algebra, f.module
    dim = alg.dim
    px = _vector_parity_or_raise(alg.space, x, "operator argument")
    n = f.arity
    par = alg.space.parities
    out = Cochain.zero(alg, mod, n, (f.degree + px) & 1)
    # bracket of x with each basis element, precomputed per column
    bcols = [alg.bracket_vec(x, basis_vec(dim, t)) for t in range(dim)]
    for T in all_tuples(dim, n):
        acc = mod.act_left_vec(x, f.value(T))
        run = f.degree
        for i in range(n):
            e = px * run
            run += par[T[i]]
            s = -1 if e & 1 else 1
            bv = bcols[T[i]]
            for k, c in enumerate(bv):
                if c:
                    w = f.value(T[:i] + (k,) + T[i + 1:])
                    add_scaled(acc, -c if s > 0 else c, w)
        out.coeffs[tuple_index(T, dim)] = acc
    return out


def restrict(f: Cochain, x: list[Fraction]) -> Cochain:
    """f_x(y_1,..,y_n) = f(x, y_1,..,y_n); degree(f_x) = degree(f) + parity(x)."""
    if f.arity < 1:
        raise ValueError("cannot restrict an arity-0 cochain")
    alg = f.algebra
    dim = alg.dim
    px = _vector_parity_or_raise(alg.space, x, "restriction argument")
    n = f.arity - 1
    return Cochain(alg, f.module, n, (f.degree + px) & 1,
                   [lin_comb([f.value((m,) + T) for m in range(dim)], x, f.module.dim)
                    for T in all_tuples(dim, n)])


def act_left(a: list[Fraction], f: Cochain) -> Cochain:
    """Left action of the algebra on cochains: [a, f] = d_a f."""
    return d_op(a, f)


def act_right(f: Cochain, a: list[Fraction]) -> Cochain:
    """Right action: [f, a] = -(-1)**(af) d_a f.

    The Koszul factor is exactly what makes the cochain space a bimodule
    over the algebra; dropping it breaks the mixed module axioms whenever
    both a and f are odd.
    """
    pa = _vector_parity_or_raise(f.algebra.space, a, "operator argument")
    return d_op(a, f).scale(-koszul(pa, f.degree))


# ---------------------------------------------------------------------------
# cochain spaces as modules, currying
# ---------------------------------------------------------------------------

def cochain_space_module(alg: LeibnizSuperalgebra, mod: SuperBimodule,
                         arity: int) -> SuperBimodule:
    """The space of arity-n cochains as a bimodule over the algebra.

    Basis: all (tuple, module index) pairs in lexicographic order; the
    parity of a basis cochain is its degree.  The actions are the operator
    actions, tabulated on this basis.
    """
    dim = alg.dim
    pairs = [(t, k) for t in all_tuples(dim, arity) for k in range(mod.dim)]
    pos = {p: i for i, p in enumerate(pairs)}
    labels = []
    parities = []
    asp, msp = alg.space, mod.space
    for t, k in pairs:
        args = ",".join(asp.labels[i] for i in t)
        labels.append(f"({args})->{msp.labels[k]}")
        parities.append((msp.parities[k] + asp.tuple_parity(t)) & 1)
    space = SuperSpace(f"C{arity}({asp.name};{msp.name})",
                       tuple(labels), tuple(parities))

    def coords(g: Cochain) -> list[Fraction]:
        return [g.value(t)[k] for t, k in pairs]

    left = []
    for i in range(dim):
        ei = basis_vec(dim, i)
        row = []
        for t, k in pairs:
            g = Cochain.basis_cochain(alg, mod, t, k)
            row.append(coords(d_op(ei, g)))
        left.append(row)
    right = []
    for t, k in pairs:
        g = Cochain.basis_cochain(alg, mod, t, k)
        row = []
        for i in range(dim):
            ei = basis_vec(dim, i)
            row.append(coords(act_right(g, ei)))
        right.append(row)
    bim = SuperBimodule(alg, space, left, right)
    # stash the enumeration so curry() and tests can reindex without redoing it
    bim.cochain_pairs = pairs
    bim.cochain_pos = pos
    bim.value_module = mod
    return bim


def curry(f: Cochain, j: int) -> Cochain:
    """Reindex f of arity n as a j-cochain valued in the (n-j)-cochain module.

    f_j(a_1,..,a_j)(a_{j+1},..,a_n) = f(a_1,..,a_n); j = 0 and j = n give
    back f itself up to reindexing.
    """
    n = f.arity
    if not 0 <= j <= n:
        raise ValueError(f"curry level {j} out of range 0..{n}")
    alg, mod = f.algebra, f.module
    dim = alg.dim
    target = cochain_space_module(alg, mod, n - j)
    pairs = target.cochain_pairs
    out = Cochain.zero(alg, target, j, f.degree)
    for T in all_tuples(dim, j):
        out.coeffs[tuple_index(T, dim)] = [f.value(T + t)[k] for t, k in pairs]
    return out


def uncurry_value(target: SuperBimodule, v: list[Fraction]) -> Cochain:
    """Reconstruct an ordinary cochain from a vector in a cochain module."""
    pairs = target.cochain_pairs
    mod = target.value_module
    alg = target.algebra
    arity = len(pairs[0][0]) if pairs else 0
    degree = None
    for c, (t, k) in zip(v, pairs):
        if c:
            p = (mod.space.parities[k] + alg.space.tuple_parity(t)) & 1
            if degree is None:
                degree = p
            elif degree != p:
                raise MixedParityError("vector mixes cochain degrees")
    g = Cochain.zero(alg, mod, arity, EVEN if degree is None else degree)
    for c, (t, k) in zip(v, pairs):
        if c:
            g.coeffs[tuple_index(t, alg.dim)][k] += c
    return g
