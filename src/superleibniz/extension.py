"""Extensions of a Leibniz superalgebra by a bimodule from 2-cocycles.

The total space is L + M with basis labels tagged "L:" / "M:"; the
product of lifted elements is

    [(x,m),(y,n)] = ([x,y], [x,n] + [m,y] + h(x,y))

for a degree-0 2-cochain h: the table is algebra.semidirect_table twisted
by h, the same L + M block table whose Leibniz identity is the module
axioms when h = 0.  The total is a Leibniz superalgebra exactly when h is
a cocycle, and two cocycles give equivalent extensions exactly when
their difference is a coboundary, via (x,m) -> (x, m + f(x)); the test
suite's oracle checks that theorem.  So the classes are the H^2_0
representatives basis_h of cohomology_table(L, M, 2, with_bases=True).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (CheckReport, LeibnizSuperalgebra, SuperBimodule,
                      SuperSpace, semidirect_table)
from .cochain import Cochain


@dataclass
class Extension:
    base: LeibnizSuperalgebra
    coeffs: SuperBimodule
    cocycle: Cochain
    total: LeibnizSuperalgebra

    def __repr__(self) -> str:
        return f"Extension({self.total.space.name!r})"


def _total_space(alg: LeibnizSuperalgebra, mod: SuperBimodule) -> SuperSpace:
    labels = tuple(f"L:{lab}" for lab in alg.space.labels) + \
        tuple(f"M:{lab}" for lab in mod.space.labels)
    parities = alg.space.parities + mod.space.parities
    return SuperSpace(f"ext({alg.space.name};{mod.space.name})", labels, parities)


def build_extension(alg: LeibnizSuperalgebra, mod: SuperBimodule,
                    h: Cochain) -> Extension:
    """Total algebra on L + M with the product twisted by h.

    h must be a degree-0 2-cochain on L with values in M.  The table is
    always built; whether it satisfies the Leibniz identity is exactly the
    cocycle condition on h, which check_extension reports.
    """
    if h.arity != 2 or h.degree != 0:
        raise ValueError("the twisting cochain must have arity 2 and degree 0")
    if h.algebra != alg or h.module != mod:
        raise ValueError("cochain is not an L-cochain with values in M")
    total = LeibnizSuperalgebra(_total_space(alg, mod), semidirect_table(mod, h.coeffs))
    return Extension(alg, mod, h, total)


# (kind, detail) of a wrong L-part and of a wrong M-part of [a, b], by
# whether a and b lie in M
_LEAVES = ("projection", "bracket leaves the fiber")
_BLOCKS = {
    (False, False): (("projection", "L-part differs from base bracket"),
                     ("cocycle-part", "M-part differs from the declared cocycle")),
    (False, True): (_LEAVES, ("action-left", "differs from the left action")),
    (True, False): (_LEAVES, ("action-right", "differs from the right action")),
    (True, True): (_LEAVES, ("fiber-abelian", "fiber brackets must vanish")),
}


def check_extension(ext: Extension) -> CheckReport:
    """Structural conditions plus the Leibniz identity on the total.

    Checked: every bracket of the total equals the one build_extension
    makes from the base, the module and the declared cocycle (so the
    projection to L is an algebra map, the fiber copy of M is abelian,
    brackets mixing L and M reproduce the module actions and the L x L
    brackets carry exactly the cocycle), and the total passes grading and
    the Leibniz identity (the last is equivalent to the cocycle condition
    on h).
    """
    total, dl = ext.total, ext.base.dim
    expected = build_extension(ext.base, ext.coeffs, ext.cocycle).total
    sp, halves = total.space, (slice(dl), slice(dl, None))
    bad = []
    for i in range(expected.dim):
        for j in range(expected.dim):
            vec, want = total.bracket(i, j), expected.bracket(i, j)
            for (kind, detail), part in zip(_BLOCKS[i >= dl, j >= dl], halves):
                if vec[part] != want[part]:
                    bad.append({"kind": kind, "pair": (sp.labels[i], sp.labels[j]),
                                "detail": detail})
    rep = total.check_grading()
    for v in rep.violations:
        bad.append({"kind": "grading", **v})
    rep = total.check_leibniz()
    for v in rep.violations:
        bad.append({"kind": "leibniz", **v})
    return CheckReport(bad)
