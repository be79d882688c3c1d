"""Seeded benchmark inputs built from the library's own generators.

Every algebra is first built in its standard basis and then moved to a
seeded monomial basis: a permutation within each parity and a nonzero
small rational scaling per basis vector.  Such a change of basis keeps the
sparsity pattern and the cost profile, and cohomology dimensions, Lie-ness
and derivation counts are invariant under it, so the pinned answers hold
for every seed.

Random cochains and formal isomorphisms are dense on their admissible
(parity-compatible) entries, with coefficients from a fixed small set, so
that the work a seed asks for does not depend on which entries happen to
be drawn as zero.

The library is imported inside each function because every timed set-up
re-imports the package, and inputs must be built from the fresh modules.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
          Fraction(1, 2), Fraction(-1, 2))

def standard_algebra(name: str):
    """The named algebra in its standard basis, from library generators."""
    from superleibniz.algebra import (AssociativeSuperalgebra, SuperSpace,
                                      abelian, free_truncated,
                                      from_associative, nonlie_example)
    from superleibniz.linalg import F1, basis_vec, zeros

    if name == "nonlie3":
        return nonlie_example()
    if name == "abelian(1,1)":
        return abelian(1, 1)
    if name == "abelian(2,1)":
        return abelian(2, 1)
    if name == "free(V0,2)":
        return free_truncated(SuperSpace("V0", ("u",), (0,)), 2)
    if name == "free(V1,3)":
        return free_truncated(SuperSpace("V1", ("v",), (1,)), 3)
    if name == "F6":
        return free_truncated(SuperSpace("V", ("u", "v"), (0, 1)), 2)
    if name == "m11":
        # 2x2 matrix units, checkerboard grading (e12, e21 odd), and T the
        # projection onto e11.
        names = ("e11", "e22", "e12", "e21")
        pos = {"e11": (1, 1), "e22": (2, 2), "e12": (1, 2), "e21": (2, 1)}
        table = []
        for a in names:
            row = []
            for b in names:
                (r1, c1), (r2, c2) = pos[a], pos[b]
                v = zeros(4)
                if c1 == r2:
                    v[names.index(f"e{r1}{c2}")] = F1
                row.append(v)
            table.append(row)
        assoc = AssociativeSuperalgebra(
            SuperSpace("m11", names, (0, 0, 1, 1)), table)
        return from_associative(assoc, [basis_vec(4, 0), zeros(4), zeros(4),
                                        zeros(4)])
    raise KeyError(name)


class BasisChange:
    """New basis vector i is scales[i] times old basis vector perm[i]."""

    def __init__(self, perm: list[int], scales: list[Fraction]):
        self.perm = perm
        self.scales = scales

    @classmethod
    def seeded(cls, parities, rng: random.Random) -> "BasisChange":
        perm = list(range(len(parities)))
        for p in (0, 1):
            idx = [i for i, q in enumerate(parities) if q == p]
            shuffled = idx[:]
            rng.shuffle(shuffled)
            for i, j in zip(idx, shuffled):
                perm[i] = j
        return cls(perm, [rng.choice(COEFFS) for _ in parities])

    def tensor(self, value_of, arity: int, dim: int):
        """Coefficients of an arity-n map with values in the same space.

        value_of(old_tuple) gives the old coefficient vector; the result
        maps new tuples (row-major order) to new coefficient vectors.
        """
        perm, s = self.perm, self.scales
        out = []
        for t in itertools.product(range(dim), repeat=arity):
            old = value_of(tuple(perm[i] for i in t))
            factor = Fraction(1)
            for i in t:
                factor *= s[i]
            out.append([factor * old[perm[m]] / s[m] for m in range(dim)])
        return out


def transported(alg, change: BasisChange, name: str):
    """The algebra written in the changed basis (labels follow vectors)."""
    from superleibniz.algebra import LeibnizSuperalgebra, SuperSpace

    sp, dim = alg.space, alg.dim
    perm = change.perm
    space = SuperSpace(name, tuple(sp.labels[perm[i]] for i in range(dim)),
                       tuple(sp.parities[perm[i]] for i in range(dim)))
    flat = change.tensor(lambda t: alg.table[t[0]][t[1]], 2, dim)
    table = [flat[i * dim:(i + 1) * dim] for i in range(dim)]
    return LeibnizSuperalgebra(space, table)


def seeded_algebra(name: str, seed: int, variant: int = 0):
    """The named algebra in a seeded monomial basis, with the change used."""
    alg = standard_algebra(name)
    rng = random.Random(f"basis:{seed}:{variant}:{name}")
    change = BasisChange.seeded(alg.space.parities, rng)
    return transported(alg, change, name), change


def random_cochain(alg, mod, arity: int, degree: int, rng: random.Random):
    """Cochain with a coefficient from COEFFS on every admissible entry."""
    from superleibniz.cochain import Cochain
    from superleibniz.linalg import F0

    f = Cochain.zero(alg, mod, arity, degree)
    mpar = mod.space.parities
    for idx, t in enumerate(itertools.product(range(alg.dim), repeat=arity)):
        want = (degree + alg.space.tuple_parity(t)) & 1
        f.coeffs[idx] = [rng.choice(COEFFS) if mpar[k] == want else F0
                         for k in range(mod.dim)]
    return f


def trivial_deformation(alg, order: int, rng: random.Random):
    """transform(zero deformation, random formal isomorphism) and the zero one."""
    from superleibniz.algebra import adjoint_module
    from superleibniz.deformation import (FormalIsomorphism,
                                          TruncatedDeformation, transform)

    mod = adjoint_module(alg)
    iso = FormalIsomorphism(alg, [random_cochain(alg, mod, 1, 0, rng)
                                  for _ in range(order)], mod)
    zero = TruncatedDeformation.zero(alg, order, mod)
    return transform(zero, iso), zero


def twisted_cocycle(alg, change: BasisChange, h2_rep_doc, std_alg,
                    rng: random.Random):
    """delta(random even 1-cochain) plus the pinned H^2 representative.

    The representative is pinned in the standard basis and moved into the
    seeded basis with the same change as the algebra.
    """
    from superleibniz.algebra import adjoint_module
    from superleibniz.cochain import Cochain, delta
    from superleibniz.fileio import cochain_from_doc

    mod = adjoint_module(alg)
    rep_std = cochain_from_doc(h2_rep_doc, std_alg, adjoint_module(std_alg))
    rep = Cochain(alg, mod, 2, 0,
                  change.tensor(rep_std.value, 2, alg.dim))
    return delta(random_cochain(alg, mod, 1, 0, rng)) + rep
