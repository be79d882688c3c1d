"""Z2-graded vector spaces, Leibniz superalgebras, and bimodules over them.

Everything is stored as structure constants over an ordered, parity-tagged
basis.  Validity (grading, the Leibniz identity, the module axioms) is a
checked property, not a construction-time guarantee: invalid tables load
fine and the checkers report counterexamples.

Conventions: parity is 0 (even) or 1 (odd); every sign is (-1)**(a*b) with
a, b parities.  The bracket satisfies the left Leibniz identity

    [[a,b],c] = [a,[b,c]] - (-1)**(ab) [b,[a,c]].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .linalg import (F0, F1, add_scaled, basis_vec, bilinear, lin_comb,
                     ratio_str, scale_to_ints, zeros)

EVEN = 0
ODD = 1


def koszul(p: int, q: int) -> Fraction:
    """(-1)**(p*q) for parities p, q."""
    return -F1 if (p * q) & 1 else F1


@dataclass(frozen=True)
class SuperSpace:
    """Ordered basis of a finite-dimensional Z2-graded rational vector space."""

    name: str
    labels: tuple[str, ...]
    parities: tuple[int, ...]
    _by_label: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) != len(self.parities):
            raise ValueError("labels and parities differ in length")
        if any(not lab for lab in self.labels):
            raise ValueError("basis labels must be nonempty")
        positions = {lab: i for i, lab in enumerate(self.labels)}
        if len(positions) != len(self.labels):
            raise ValueError("basis labels must be unique")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")
        object.__setattr__(self, "_by_label", positions)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def even_dim(self) -> int:
        return sum(1 for p in self.parities if p == EVEN)

    @property
    def odd_dim(self) -> int:
        return sum(1 for p in self.parities if p == ODD)

    def index(self, label: str) -> int:
        """label's basis position; any other value is a KeyError."""
        try:
            return self._by_label[label]
        except (KeyError, TypeError):
            raise KeyError(f"no basis element labelled {label!r} in space "
                           f"{self.name!r}") from None

    def tuple_parity(self, indices: tuple[int, ...]) -> int:
        return sum(self.parities[i] for i in indices) & 1

    def describe(self, v: list, den: int = 1) -> str:
        """v/den as a human-readable linear combination, canonical term
        order; over den > 1, v holds ints, each written as ratio_str does."""
        labels = self.labels
        return " + ".join(f"{ratio_str(c, den)}*{labels[i]}"
                          for i, c in enumerate(v) if c) or "0"


@dataclass
class CheckReport:
    """Outcome of an axiom check: its structured violations, ok iff none."""

    violations: list[dict] = field(default_factory=list)

    def __bool__(self) -> bool:
        return not self.violations

    ok = property(__bool__)


def grading_violations(den: int, table, left_space: SuperSpace, right_space: SuperSpace,
                       out_space: SuperSpace) -> list[dict]:
    """The nonzeros c at k of the value on (i, j) with parity(k) !=
    parity(i) + parity(j), c written as str(c) would be.  The table is flat
    over den, as scale_to_ints gives it: entry i*right_space.dim + j lists
    the (k, den*c) of a bracket, a multiplication or one module action."""
    lp, rp, op = left_space.parities, right_space.parities, out_space.parities
    bad = []
    for e, value in enumerate(table):
        if value:
            i, j = divmod(e, right_space.dim)
            bad += [{"pair": (left_space.labels[i], right_space.labels[j]),
                     "component": out_space.labels[k], "coeff": ratio_str(x, den)}
                    for k, x in value if op[k] != (lp[i] + rp[j]) & 1]
    return bad


def leibniz_defect(pairs, parities) -> list[list[int]]:
    """sum over (outer, inner) in pairs of
    outer(inner(a,b),c) - outer(a,inner(b,c)) + (-1)**(ab) outer(b,inner(a,c)),
    one integer vector per basis triple (a, b, c) in lexicographic order.

    Each table is flat and fraction-free, as scale_to_ints gives it:
    table[i*dim + j] lists the nonzeros (k, D*coefficient) of the value on
    basis elements i, j, with one D shared by every table.  Each summand
    is one inner times one outer coefficient, so the true defect is the
    returned vector over D**2, and it vanishes iff the vector does.  With
    both tables the bracket this is the Leibniz defect; summed over the
    pairs (mu_i, mu_(r-i)) of a deformation it is the order-r residual.

    Nonzeros only: an inner nonzero w at k of entry (x, y) meets the outer
    entries with left argument k (term 1), then each (a, k) with value o
    serves terms 2 and 3: -w*o to (a, x, y), (-1)**(xa) w*o to (x, a, y).
    """
    dim = len(parities)
    sq = dim * dim
    out = [[0] * dim for _ in range(sq * dim)]
    for outer, inner in pairs:
        by_left = [[] for _ in range(dim)]
        by_right = [[] for _ in range(dim)]
        for e, value in enumerate(outer):
            if value:
                a, b = divmod(e, dim)
                by_left[a].append((b, value))
                by_right[b].append((a, value))
        for e, value in enumerate(inner):
            if not value:
                continue
            x, y = divmod(e, dim)
            px, first, row_x = parities[x], e * dim, x * sq + y
            for k, w in value:
                for c, ov in by_left[k]:
                    acc = out[first + c]
                    for j, o in ov:
                        acc[j] += w * o
                for a, ov in by_right[k]:
                    minus, plus = out[a * sq + e], out[row_x + a * dim]
                    if px & parities[a]:
                        for j, o in ov:
                            wo = w * o
                            minus[j] -= wo
                            plus[j] -= wo
                    else:
                        for j, o in ov:
                            wo = w * o
                            minus[j] -= wo
                            plus[j] += wo
    return out


class LeibnizSuperalgebra:
    """A super vector space with a bracket given by structure constants.

    table[i][j] is the coefficient vector of [e_i, e_j] over the basis.
    Read-only once used: its integral form is kept, and adjoint_module shares the table.
    """

    def __init__(self, space: SuperSpace, table: list[list[list[Fraction]]]):
        dim = space.dim
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("bracket table must be dim x dim")
        for row in table:
            for v in row:
                if len(v) != dim:
                    raise ValueError("bracket values must have length dim")
        self.space = space
        self.table = table

    @property
    def dim(self) -> int:
        return self.space.dim

    def bracket(self, i: int, j: int) -> list[Fraction]:
        return self.table[i][j]

    @cached_property
    def integral(self) -> tuple[int, list]:
        """(D, flat table): the bracket as scale_to_ints gives it, made once."""
        d, (table,) = scale_to_ints([[v for row in self.table for v in row]])
        return d, table

    def check_grading(self) -> CheckReport:
        """All nonzero c_ijk must satisfy parity(k) = parity(i) + parity(j)."""
        sp = self.space
        return CheckReport(grading_violations(*self.integral, sp, sp, sp))

    def check_leibniz(self) -> CheckReport:
        """[[a,b],c] - [a,[b,c]] + (-1)**(ab) [b,[a,c]] = 0 on basis triples."""
        sp = self.space
        d, table = self.integral
        bad = []
        for (i, j, k), defect in zip(itertools.product(range(self.dim), repeat=3),
                                     leibniz_defect([(table, table)], sp.parities)):
            if any(defect):
                bad.append({
                    "triple": (sp.labels[i], sp.labels[j], sp.labels[k]),
                    "defect": sp.describe(defect, d * d),
                })
        return CheckReport(bad)

    def is_lie(self) -> bool:
        """Graded antisymmetry [a,b] = -(-1)**(ab) [b,a], a symmetric relation
        checked on the basis pairs a <= b."""
        par, dim, table = self.space.parities, self.dim, self.integral[1]
        return all(table[i * dim + j] == [(k, x if par[i] & par[j] else -x)
                                          for k, x in table[j * dim + i]]
                   for i in range(dim) for j in range(i, dim))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LeibnizSuperalgebra)
                and self.space == other.space and self.table == other.table)

    def __repr__(self) -> str:
        return f"LeibnizSuperalgebra({self.space.name!r}, dim={self.dim})"


class SuperBimodule:
    """Module over a Leibniz superalgebra: two action tables.

    left[i][k]  = coefficients of [e_i, m_k]  (algebra x module),
    right[k][i] = coefficients of [m_k, e_i]  (module x algebra).
    Read-only once used: scaled keeps their integral form.
    """

    def __init__(self, algebra: LeibnizSuperalgebra, space: SuperSpace,
                 left: list[list[list[Fraction]]], right: list[list[list[Fraction]]]):
        dl, dm = algebra.dim, space.dim
        if len(left) != dl or any(len(row) != dm for row in left):
            raise ValueError("left action table must be dimL x dimM")
        if len(right) != dm or any(len(row) != dl for row in right):
            raise ValueError("right action table must be dimM x dimL")
        for rows in (left, right):
            for row in rows:
                for v in row:
                    if len(v) != dm:
                        raise ValueError("action values must have length dimM")
        self.algebra = algebra
        self.space = space
        self.left = left
        self.right = right

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def scaled(self) -> tuple[int, list, list, list]:
        """(D, table, left, right): the algebra's bracket and the actions
        scaled to ints by one denominator D (linalg.scale_to_ints).
        table[a*dim + b], left[x][m] and right[x][m] list the nonzeros (k,
        D*coefficient) of [x_a, x_b], [x, m_m] and [m_m, x]; left[x] is []
        if x acts as zero.  The adjoint_module's actions are slices of
        algebra.integral, so only another module is scanned."""
        alg, da = self.algebra, self.algebra.dim
        if self.left is alg.table is self.right:   # the adjoint_module
            d, table = alg.integral
            actions = [table[x * da:(x + 1) * da] for x in range(da)] + [
                table[x::da] for x in range(da)]
        else:
            right = [[self.right[m][x] for m in range(self.dim)] for x in range(da)]
            d, (table, *actions) = scale_to_ints(
                [[v for row in alg.table for v in row], *self.left, *right])
        actions = [act if any(act) else [] for act in actions]
        return d, table, actions[:da], actions[da:]

    def check_grading(self) -> CheckReport:
        """Left violations (x-major), then right ones (m-major), by action."""
        asp, msp = self.algebra.space, self.space
        d, _, left, right = self.scaled
        zero = [[]] * msp.dim   # the row of an element that acts as zero
        left = [v for row in left for v in (row or zero)]
        right = [(right[x] or zero)[m] for m in range(msp.dim) for x in range(asp.dim)]
        return CheckReport(
            [{"action": "left", **v} for v in grading_violations(d, left, asp, msp, msp)]
            + [{"action": "right", **v} for v in grading_violations(d, right, msp, asp, msp)])

    def check_axioms(self) -> CheckReport:
        """The three compatibility axioms, exhaustively on basis triples.

        1. [[a,b],m] = [a,[b,m]] - (-1)**(ab) [b,[a,m]]
        2. [[a,m],b] = [a,[m,b]] - (-1)**(am) [m,[a,b]]
        3. [[m,a],b] = [m,[a,b]] - (-1)**(ma) [a,[m,b]]

        They are the Leibniz identity of the semidirect product L x M
        (semidirect_table) on the triples (a,b,m), (a,m,b) and (m,a,b),
        so leibniz_defect evaluates them on its flat table; each defect is
        the M part of the triple's.
        """
        asp, msp = self.algebra.space, self.space
        da, dim = self.algebra.dim, self.algebra.dim + self.dim
        d, (table,) = scale_to_ints([[v for row in semidirect_table(self) for v in row]])
        defects = leibniz_defect([(table, table)], asp.parities + msp.parities)
        labels = asp.labels + msp.labels
        bad = []
        for i, j in itertools.product(range(da), repeat=2):
            for k in range(da, dim):
                for axiom, (a, b, c) in ((1, (i, j, k)), (2, (i, k, j)), (3, (k, i, j))):
                    v = defects[(a * dim + b) * dim + c][da:]
                    if any(v):
                        bad.append({"axiom": axiom,
                                    "triple": (labels[a], labels[b], labels[c]),
                                    "defect": msp.describe(v, d * d)})
        return CheckReport(bad)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SuperBimodule)
                and self.algebra == other.algebra and self.space == other.space
                and self.left == other.left and self.right == other.right)

    def __repr__(self) -> str:
        return f"SuperBimodule({self.space.name!r} over {self.algebra.space.name!r})"


def semidirect_table(mod: SuperBimodule, twist: list | None = None) -> list:
    """Structure constants of L + M, L first: [x,y] is [x,y] in L plus
    twist[x * dim L + y] in M (zero without a twist), [x,m] and [m,x] are
    the module actions in M, and [m,n] = 0.  Every vector is a new list."""
    alg, dl, dm = mod.algebra, mod.algebra.dim, mod.dim
    return ([[alg.table[i][j] + (zeros(dm) if twist is None else twist[i * dl + j])
              for j in range(dl)] + [zeros(dl) + v for v in mod.left[i]]
             for i in range(dl)]
            + [[zeros(dl) + v for v in mod.right[k]] + [zeros(dl + dm) for _ in range(dm)]
               for k in range(dm)])


def check_module_over(alg: LeibnizSuperalgebra, mod: SuperBimodule) -> None:
    """Raise ValueError unless mod is a module over alg (identity first)."""
    if mod.algebra is not alg and mod.algebra != alg:
        raise ValueError("module is not over the given algebra")


class AssociativeSuperalgebra:
    """Associative superalgebra by structure constants; table[i][j] = e_i e_j."""

    def __init__(self, space: SuperSpace, table: list[list[list[Fraction]]]):
        dim = space.dim
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("multiplication table must be dim x dim")
        self.space = space
        self.table = table

    @property
    def dim(self) -> int:
        return self.space.dim

    def mul_vec(self, u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
        return bilinear(self.table, u, v, self.dim)

    def check_grading(self) -> CheckReport:
        return LeibnizSuperalgebra(self.space, self.table).check_grading()

    def check_associative(self) -> CheckReport:
        sp = self.space
        bad = []
        for i, j, k in itertools.product(range(self.dim), repeat=3):
            ei, ej, ek = (basis_vec(self.dim, t) for t in (i, j, k))
            lhs = self.mul_vec(self.mul_vec(ei, ej), ek)
            rhs = self.mul_vec(ei, self.mul_vec(ej, ek))
            if lhs != rhs:
                bad.append({"triple": (sp.labels[i], sp.labels[j], sp.labels[k]),
                            "defect": sp.describe([x - y for x, y in zip(lhs, rhs)])})
        return CheckReport(bad)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def abelian(p: int, q: int, name: str | None = None) -> LeibnizSuperalgebra:
    """Abelian Leibniz superalgebra with p even and q odd generators."""
    labels = [f"a{i}" for i in range(p)] + [f"b{i}" for i in range(q)]
    parities = [EVEN] * p + [ODD] * q
    space = SuperSpace(name or f"abelian({p},{q})", tuple(labels), tuple(parities))
    dim = p + q
    table = [[zeros(dim) for _ in range(dim)] for _ in range(dim)]
    return LeibnizSuperalgebra(space, table)


def nonlie_example() -> LeibnizSuperalgebra:
    """Three-dimensional non-Lie example: x, y even, z odd, [y,x]=[y,y]=x.

    The bracket lands in span{x}, x and z act trivially on the left, and
    graded antisymmetry fails ([y,y]=x would force x=-x), so this is a
    Leibniz superalgebra that is not a Lie superalgebra.
    """
    space = SuperSpace("nonlie3", ("x", "y", "z"), (EVEN, EVEN, ODD))
    table = [[zeros(3) for _ in range(3)] for _ in range(3)]
    table[1][0] = basis_vec(3, 0)   # [y,x] = x
    table[1][1] = basis_vec(3, 0)   # [y,y] = x
    return LeibnizSuperalgebra(space, table)


def adjoint_module(alg: LeibnizSuperalgebra) -> SuperBimodule:
    """The algebra acting on itself by its bracket on both sides: both
    actions are its table itself, which the module shares, not a copy."""
    return SuperBimodule(alg, alg.space, alg.table, alg.table)


def zero_module(alg: LeibnizSuperalgebra, space: SuperSpace | None = None) -> SuperBimodule:
    """Module with both actions zero; defaults to the algebra's own space."""
    sp = space if space is not None else alg.space
    left = [[zeros(sp.dim) for _ in range(sp.dim)] for _ in range(alg.dim)]
    right = [[zeros(sp.dim) for _ in range(alg.dim)] for _ in range(sp.dim)]
    return SuperBimodule(alg, sp, left, right)


def from_associative(assoc: AssociativeSuperalgebra,
                     t_map: list[list[Fraction]]) -> LeibnizSuperalgebra:
    """Leibniz superalgebra [a,b] = (Ta)b - (-1)**(ab) b(Ta).

    t_map[j] is the image of basis element j under T.  T must be
    homogeneous of degree 0 and satisfy T(a(Tb)) = (Ta)(Tb) = T((Ta)b);
    all three requirements are verified on basis pairs before the bracket
    table is built, so a bad input fails with a witness.
    """
    dim = assoc.dim
    sp = assoc.space
    if len(t_map) != dim or any(len(v) != dim for v in t_map):
        raise ValueError("t_map must list one image vector per basis element")
    rep = assoc.check_grading()
    if not rep.ok:
        raise ValueError(f"input algebra is not graded: {rep.violations[0]}")
    rep = assoc.check_associative()
    if not rep.ok:
        raise ValueError(f"input algebra is not associative: {rep.violations[0]}")
    for j, img in enumerate(t_map):
        for k, c in enumerate(img):
            if c and sp.parities[k] != sp.parities[j]:
                raise ValueError(
                    f"T is not homogeneous of degree 0 at {sp.labels[j]!r}")

    for i in range(dim):
        for j in range(dim):
            a, b = basis_vec(dim, i), basis_vec(dim, j)
            ta, tb = t_map[i], t_map[j]
            mid = assoc.mul_vec(ta, tb)
            lhs = lin_comb(t_map, assoc.mul_vec(a, tb), dim)
            rhs = lin_comb(t_map, assoc.mul_vec(ta, b), dim)
            if lhs != mid or rhs != mid:
                raise ValueError(
                    "T(a(Tb)) = (Ta)(Tb) = T((Ta)b) fails on pair "
                    f"({sp.labels[i]!r}, {sp.labels[j]!r})")

    table = []
    for i in range(dim):
        row = []
        ta = t_map[i]
        for j in range(dim):
            b = basis_vec(dim, j)
            val = assoc.mul_vec(ta, b)
            add_scaled(val, -koszul(sp.parities[i], sp.parities[j]),
                       assoc.mul_vec(b, ta))
            row.append(val)
        table.append(row)
    return LeibnizSuperalgebra(sp, table)


def free_truncated(generators: SuperSpace, depth: int) -> LeibnizSuperalgebra:
    """Nilpotent truncation of the free Leibniz superalgebra on a space.

    The underlying space has one basis word per tuple of generators of
    length 1..depth (word parity = sum of letter parities).  The product
    is defined inductively by

        [v, x]    = v (x)                      for a single letter v,
        [y (v), x] = [y, v (x)] - (-1)**(yv) v ([y, x]),

    where (.) prepends/appends a letter, and every component of tensor
    length > depth is truncated to zero.
    """
    if generators.dim < 1:
        raise ValueError("need at least one generator")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    letters = generators.dim
    lpar = generators.parities

    words: list[tuple[int, ...]] = []
    for n in range(1, depth + 1):
        words.extend(itertools.product(range(letters), repeat=n))
    windex = {w: i for i, w in enumerate(words)}
    dim = len(words)

    def word_parity(w: tuple[int, ...]) -> int:
        return sum(lpar[c] for c in w) & 1

    def bracket_words(w: tuple[int, ...], u: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        if len(w) == 1:
            return {w + u: F1}
        y, v = w[:-1], w[-1]
        out: dict[tuple[int, ...], Fraction] = {}
        for word, c in bracket_words(y, (v,) + u).items():
            out[word] = out.get(word, F0) + c
        sgn = koszul(word_parity(y), lpar[v])
        for word, c in bracket_words(y, u).items():
            key = (v,) + word
            out[key] = out.get(key, F0) - sgn * c
        return {k: c for k, c in out.items() if c}

    labels = tuple("⊗".join(generators.labels[c] for c in w) for w in words)
    parities = tuple(word_parity(w) for w in words)
    space = SuperSpace(f"free({generators.name},{depth})", labels, parities)

    table = [[zeros(dim) for _ in range(dim)] for _ in range(dim)]
    for i, w in enumerate(words):
        for j, u in enumerate(words):
            vec = zeros(dim)
            for word, c in bracket_words(w, u).items():
                if len(word) <= depth:
                    vec[windex[word]] += c
            table[i][j] = vec
    return LeibnizSuperalgebra(space, table)
