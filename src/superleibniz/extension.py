"""Extensions of a Leibniz superalgebra by a bimodule from 2-cocycles.

The total space is L + M with basis labels tagged "L:" / "M:"; the
product of lifted elements is

    [(x,m),(y,n)] = ([x,y], [x,n] + [m,y] + h(x,y))

for a degree-0 2-cochain h.  The total is a Leibniz superalgebra exactly
when h is a cocycle, and two cocycles give equivalent extensions exactly
when their difference is a coboundary, via (x,m) -> (x, m + f(x)); the
test suite's oracle checks that theorem.  So the classes are the H^2_0
representatives basis_h of cohomology_table(L, M, 2, with_bases=True).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (CheckReport, LeibnizSuperalgebra, SuperBimodule,
                      SuperSpace)
from .cochain import Cochain
from .linalg import vec_is_zero, zeros


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
    dl, dm = alg.dim, mod.dim
    dim = dl + dm
    space = _total_space(alg, mod)
    table = [[zeros(dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(dl):
        for j in range(dl):
            table[i][j] = alg.bracket(i, j) + h.value((i, j))
        for k in range(dm):
            table[i][dl + k] = zeros(dl) + mod.left[i][k]
            table[dl + k][i] = zeros(dl) + mod.right[k][i]
    total = LeibnizSuperalgebra(space, table)
    return Extension(alg, mod, h, total)


def check_extension(ext: Extension) -> CheckReport:
    """Structural conditions plus the Leibniz identity on the total.

    Checked: the projection to L is an algebra map, the fiber copy of M
    is abelian, brackets mixing L and M reproduce the module actions, the
    L x L brackets carry exactly the declared cocycle, and the total
    passes grading and the Leibniz identity (the last is equivalent to
    the cocycle condition on h).
    """
    alg, mod, h, total = ext.base, ext.coeffs, ext.cocycle, ext.total
    dl, dm = alg.dim, mod.dim
    sp = total.space
    bad = []
    for i in range(dl + dm):
        for j in range(dl + dm):
            vec = total.bracket(i, j)
            lpart = vec[:dl]
            mpart = vec[dl:]
            if i < dl and j < dl:
                if lpart != alg.bracket(i, j):
                    bad.append({"kind": "projection",
                                "pair": (sp.labels[i], sp.labels[j]),
                                "detail": "L-part differs from base bracket"})
                if mpart != h.value((i, j)):
                    bad.append({"kind": "cocycle-part",
                                "pair": (sp.labels[i], sp.labels[j]),
                                "detail": "M-part differs from the declared cocycle"})
            else:
                if not vec_is_zero(lpart):
                    bad.append({"kind": "projection",
                                "pair": (sp.labels[i], sp.labels[j]),
                                "detail": "bracket leaves the fiber"})
                if i < dl and j >= dl:
                    if mpart != mod.left[i][j - dl]:
                        bad.append({"kind": "action-left",
                                    "pair": (sp.labels[i], sp.labels[j]),
                                    "detail": "differs from the left action"})
                elif i >= dl and j < dl:
                    if mpart != mod.right[i - dl][j]:
                        bad.append({"kind": "action-right",
                                    "pair": (sp.labels[i], sp.labels[j]),
                                    "detail": "differs from the right action"})
                else:
                    if not vec_is_zero(mpart):
                        bad.append({"kind": "fiber-abelian",
                                    "pair": (sp.labels[i], sp.labels[j]),
                                    "detail": "fiber brackets must vanish"})
    rep = total.check_grading()
    for v in rep.violations:
        bad.append({"kind": "grading", **v})
    rep = total.check_leibniz()
    for v in rep.violations:
        bad.append({"kind": "leibniz", **v})
    return CheckReport(not bad, bad)
