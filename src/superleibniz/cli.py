"""Command-line interface.

Verbs: validate, cohomology, derivations, extend, deform {check,extend,equiv}.
``main`` loads the algebra file, hands it to the verb and adds the command
and the algebra's name to the body the verb returns; it emits that one
report as aligned text or as canonical JSON, both produced from the same
dictionary, so they carry identical data.  Exit codes: 0 and 1 are the
report's status, pass or fail (a failure's counterexample is in the
report), 2 usage or parse error, or an input that violates its axioms
(an algebra outside validate, a module file), 3 internal error (a broken
invariant of the library, never a property of the input).  ``main`` may be called
repeatedly in one process: its parser is built once, then reused.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .algebra import (LeibnizSuperalgebra, SuperBimodule, adjoint_module,
                      zero_module)
from .cochain import delta
from .cohomology import (DEFAULT_MAX_ARITY, ArityCapError, bounded_power,
                         cohomology_table, derivations, inner_derivations)
from .deformation import (ExtensionUndefined, check_deformation,
                          equivalent_deformations, extend_deformation,
                          infinitesimal_relation)
from .extension import build_extension, check_extension
from .fileio import (DimensionCapError, ParseError, canonical_json,
                     cochain_to_doc, deformation_to_doc, load_algebra,
                     load_cochain, load_deformation, load_module, parity_name,
                     save_algebra, save_doc, series_to_doc)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

DEFAULT_MAX_DIM = 12


def _load_algebra(args) -> LeibnizSuperalgebra:
    """The algebra file; past --max-dim it is refused before its table is built."""
    try:
        return load_algebra(args.algebra, max_dim=args.max_dim)
    except DimensionCapError as exc:
        dim, n = exc.dim, args.max_arity
        if n >= 1:
            # the largest coboundary the arity cap allows: C^(n-1) -> C^n,
            # both parities, coefficients in L itself
            entries = bounded_power(dim, 2 * n + 1)
            shape = (f"{dim}^{n + 1} x {dim}^{n} matrix" if entries is None else
                     f"{dim ** (n + 1)} x {dim ** n} matrix ({entries} entries)")
            size = (f"with --max-arity {n} the coboundary C^{n - 1} -> C^{n} "
                    f"with coefficients in L is a {shape}")
        else:
            size = f"--max-arity {n} allows no coboundary matrix"
        raise ParseError(f"{exc}; {size}; pass --max-dim {dim} to proceed") from None


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

# Rendering order is a pure function of the key set, never of insertion
# order, so text rendered from a parsed JSON report is byte-identical to
# the text the command itself prints.
_KEY_PRIORITY = {k: i for i, k in enumerate((
    "command", "algebra", "module", "order", "target_order", "searched_order",
    "max_n", "checked_orders", "status", "equivalent", "solvable", "cocycle",
    "n", "parity", "dim", "dim_even", "dim_odd",
    "dim_c", "dim_z", "dim_b", "dim_h",
    "der_even", "der_odd", "inner", "h1_even",
    "grading", "leibniz", "is_lie", "ok",
    "axiom", "kind", "pair", "triple", "args", "label", "component",
    "value", "coeff", "defect", "detail",
))}


def _key_order(keys) -> list[str]:
    return sorted(keys, key=lambda k: (_KEY_PRIORITY.get(k, len(_KEY_PRIORITY)), k))


def _is_table(value) -> bool:
    return (isinstance(value, list) and value
            and all(isinstance(r, dict) for r in value)
            and all(r.keys() == value[0].keys() for r in value)
            and all(not isinstance(v, (dict, list)) for r in value
                    for v in r.values()))


def _scalar(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render(value, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key in _key_order(value):
            v = value[key]
            if isinstance(v, dict) and v:
                lines.append(f"{pad}{key}:")
                _render(v, indent + 1, lines)
            elif _is_table(v):
                lines.append(f"{pad}{key}:")
                cols = _key_order(v[0])
                widths = {c: max(len(c), *(len(_scalar(r[c])) for r in v))
                          for c in cols}
                lines.append("  " * (indent + 1)
                             + "  ".join(c.ljust(widths[c]) for c in cols).rstrip())
                for r in v:
                    lines.append("  " * (indent + 1)
                                 + "  ".join(_scalar(r[c]).ljust(widths[c])
                                             for c in cols).rstrip())
            elif isinstance(v, list) and v:
                lines.append(f"{pad}{key}:")
                _render(v, indent + 1, lines)
            elif isinstance(v, (dict, list)):
                lines.append(f"{pad}{key}: (none)")
            else:
                lines.append(f"{pad}{key}: {_scalar(v)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                _render(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")


def render_text(report: dict) -> str:
    lines: list[str] = []
    _render(report, 0, lines)
    return "\n".join(lines) + "\n"


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(render_text(report))


def _violations_doc(violations: list[dict], limit: int = 10) -> list[dict]:
    """The first limit violations as documents; every value is a str, an int
    or a tuple, which becomes a list."""
    return [{k: list(val) if isinstance(val, tuple) else val for k, val in v.items()}
            for v in violations[:limit]]


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------

def _refuse_violations(what: str, *checks) -> None:
    """Run the (property, check) pairs in order and refuse what at the first
    violation of the first check that fails."""
    for prop, check in checks:
        rep = check()
        if not rep.ok:
            raise ParseError(f"{what} violates {prop}: {rep.violations[0]}")


def _load_module_choice(args, alg: LeibnizSuperalgebra) -> tuple[SuperBimodule, str]:
    if args.module == "self":
        return adjoint_module(alg), "self"
    if args.module == "zero":
        return zero_module(alg), "zero"
    try:
        mod = load_module(args.module, alg, args.max_dim)
    except DimensionCapError as exc:
        raise ParseError(f"module file {args.module!r}: {exc}; "
                         f"pass --max-dim {exc.dim} to proceed") from None
    _refuse_violations(f"module file {args.module!r}", ("grading", mod.check_grading),
                       ("the module axioms", mod.check_axioms))
    return mod, mod.space.name


def _single_deformation(args) -> str:
    if len(args.deformation) != 1:
        raise ParseError("this subcommand takes exactly one --deformation file")
    return args.deformation[0]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args, alg: LeibnizSuperalgebra) -> dict:
    grading = alg.check_grading()
    leibniz = alg.check_leibniz()
    ok = grading.ok and leibniz.ok
    return {
        "dim": alg.dim,
        "dim_even": alg.space.even_dim,
        "dim_odd": alg.space.odd_dim,
        "status": "pass" if ok else "fail",
        "grading": {"ok": grading.ok,
                    "violations": _violations_doc(grading.violations)},
        "leibniz": {"ok": leibniz.ok,
                    "violations": _violations_doc(leibniz.violations)},
        "is_lie": alg.is_lie() if ok else None,
    }


def cmd_cohomology(args, alg: LeibnizSuperalgebra) -> dict:
    if args.max_n < 0:
        raise ParseError(f"--max-n must be nonnegative, got {args.max_n}")
    mod, modname = _load_module_choice(args, alg)
    table = cohomology_table(alg, mod, args.max_n, with_bases=args.bases,
                             max_arity=args.max_arity)
    rows, bases = [], []
    for (n, parity), e in sorted(table.entries.items()):
        rows.append({"n": n, "parity": parity_name(parity),
                     "dim_c": e.dim_c, "dim_z": e.dim_z,
                     "dim_b": e.dim_b, "dim_h": e.dim_h})
        if args.bases:
            bases.append({
                "n": n,
                "parity": parity_name(parity),
                "cocycles": [cochain_to_doc(f)["entries"] for f in e.basis_z],
                "coboundaries": [cochain_to_doc(f)["entries"] for f in e.basis_b],
                "representatives": [cochain_to_doc(f)["entries"] for f in e.basis_h],
            })
    report = {"module": modname, "max_n": args.max_n, "status": "pass", "table": rows}
    if args.bases:
        report["bases"] = bases
    return report


def cmd_derivations(args, alg: LeibnizSuperalgebra) -> dict:
    mod, modname = _load_module_choice(args, alg)
    der0 = derivations(alg, mod, 0, max_arity=args.max_arity)
    der1 = derivations(alg, mod, 1, max_arity=args.max_arity)
    inner = inner_derivations(alg, mod)
    return {
        "module": modname,
        "status": "pass",
        "dims": {"der_even": len(der0), "der_odd": len(der1),
                 "inner": len(inner), "h1_even": len(der0) - len(inner)},
        "derivations_even": [cochain_to_doc(f)["entries"] for f in der0],
        "derivations_odd": [cochain_to_doc(f)["entries"] for f in der1],
        "inner_derivations": [cochain_to_doc(f)["entries"] for f in inner],
    }


def cmd_extend(args, alg: LeibnizSuperalgebra) -> dict:
    mod, modname = _load_module_choice(args, alg)
    h = load_cochain(args.cocycle, alg, mod,
                     even2="the twisting cochain must be an even 2-cochain")
    ext = build_extension(alg, mod, h)
    rep = check_extension(ext)
    cocycle_ok = delta(h).is_zero()
    report = {
        "module": modname,
        "status": "pass" if rep.ok else "fail",
        "cocycle": cocycle_ok,
        "extension_check": {"ok": rep.ok,
                            "violations": _violations_doc(rep.violations)},
        "total_dim": ext.total.dim,
        "output": None,
    }
    if rep.ok and args.out:
        save_algebra(ext.total, args.out)
        report["output"] = args.out
    return report


def cmd_deform_check(args, alg: LeibnizSuperalgebra) -> dict:
    d = load_deformation(_single_deformation(args), alg)
    rep = check_deformation(d, mod_order=args.mod_order)
    top = d.order if args.mod_order else 2 * d.order
    return {
        "order": d.order,
        "checked_orders": f"1..{top}",
        "status": "pass" if rep.ok else "fail",
        "violations": _violations_doc(rep.violations),
    }


def cmd_deform_extend(args, alg: LeibnizSuperalgebra) -> dict:
    d = load_deformation(_single_deformation(args), alg)
    target = args.order if args.order is not None else d.order + 1
    if not 1 <= target <= d.order + 1:
        raise ParseError(f"--order {target} is outside 1..{d.order + 1}: the "
                         f"deformation provides orders up to {d.order}, "
                         f"cannot target order {target}")
    report = {"order": d.order, "target_order": target}
    try:
        jet = extend_deformation(d, target, max_arity=args.max_arity)
    except ExtensionUndefined as exc:
        # a lower order fails: a mathematical failure, reported with its
        # violations; solvability is undefined, hence null
        report.update({"status": "fail", "solvable": None, "term": None,
                       "output": None,
                       "violations": _violations_doc(exc.report.violations)})
        return report
    # one document of the jet gives the term and the --out file
    doc = deformation_to_doc(jet) if jet is not None else None
    report.update({
        "status": "pass" if jet is not None else "fail",
        "solvable": jet is not None,
        "term": (doc["terms"].get(str(target), {"entries": []})["entries"]
                 if doc is not None else None),
        "output": None,
    })
    if doc is not None and args.out:
        save_doc(doc, args.out)
        report["output"] = args.out
    return report


def cmd_deform_equiv(args, alg: LeibnizSuperalgebra) -> dict:
    if len(args.deformation) != 2:
        raise ParseError("deform equiv needs exactly two --deformation files")
    d1 = load_deformation(args.deformation[0], alg)
    d2 = load_deformation(args.deformation[1], alg)
    if d1.order != d2.order:
        raise ParseError(f"the deformations have orders {d1.order} and "
                         f"{d2.order}; deform equiv needs equal orders")
    if args.order is not None and not 0 <= args.order <= d1.order:
        raise ParseError(f"--order {args.order} is outside 0..{d1.order}: the "
                         f"deformations provide orders up to {d1.order}")
    iso = equivalent_deformations(d1, d2, order=args.order,
                                  max_arity=args.max_arity)
    report = {
        "order": d1.order,
        "status": "pass" if iso is not None else "fail",
        "equivalent": iso is not None,
    }
    if args.order is not None:
        report["searched_order"] = args.order
    if iso is not None:
        report["isomorphism"] = series_to_doc(iso)
        # an order-0 search says nothing about the order-1 terms
        rel = infinitesimal_relation(d1, d2, iso) if iso.order >= 1 else None
        report["infinitesimal_relation"] = rel.ok if rel is not None else None
    return report


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("algebra", help="algebra file (JSON)")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report rendering (default: text)")
    common.add_argument("--max-arity", type=int, default=DEFAULT_MAX_ARITY,
                        help="cap on cochain arity (default: %(default)s)")
    common.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                        help="cap on algebra and module dimension (default: %(default)s)")

    parser = argparse.ArgumentParser(
        prog="superleibniz",
        description="Exact computations with finite-dimensional Leibniz "
                    "superalgebras: validation, cohomology, extensions, "
                    "truncated formal deformations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check grading and the Leibniz identity")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", parents=[common],
                       help="cohomology dimensions (and bases)")
    p.add_argument("--module", default="self",
                   help="'self', 'zero', or a module file (default: self)")
    p.add_argument("--max-n", type=int, default=2, dest="max_n",
                   help="highest cohomology degree (default: 2)")
    p.add_argument("--bases", action="store_true",
                   help="include echelon bases of Z, B and representatives of H")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("derivations", parents=[common],
                       help="derivations, inner derivations, dim H^1_even")
    p.add_argument("--module", default="self")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("extend", parents=[common],
                       help="build the extension defined by a 2-cocycle")
    p.add_argument("--cocycle", required=True, help="2-cochain file")
    p.add_argument("--module", default="self")
    p.add_argument("--out", help="write the total algebra here")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("deform", parents=[],
                       help="formal deformation tools")
    dsub = p.add_subparsers(dest="deform_verb", required=True)

    q = dsub.add_parser("check", parents=[common],
                        help="verify the deformation equations")
    q.add_argument("--deformation", action="append", required=True)
    q.add_argument("--mod-order", action="store_true", dest="mod_order",
                   help="check orders 1..N only (jet reading) instead of 1..2N")
    q.set_defaults(func=cmd_deform_check)

    q = dsub.add_parser("extend", parents=[common],
                        help="solve for the next deformation term")
    q.add_argument("--deformation", action="append", required=True)
    q.add_argument("--order", type=int, default=None,
                   help="target order (default: one past the file's order)")
    q.add_argument("--out", help="write the extended deformation here")
    q.set_defaults(func=cmd_deform_extend)

    q = dsub.add_parser("equiv", parents=[common],
                        help="search for a formal isomorphism between two "
                             "deformations")
    q.add_argument("--deformation", action="append", required=True,
                   help="give twice: from-deformation, to-deformation")
    q.add_argument("--order", type=int, default=None)
    q.set_defaults(func=cmd_deform_equiv)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        alg = _load_algebra(args)
        if args.verb != "validate":
            # validate reports the violations; every other verb assumes none
            _refuse_violations(f"algebra file {args.algebra!r}",
                               ("grading", alg.check_grading),
                               ("the Leibniz identity", alg.check_leibniz))
        verb = args.verb if args.verb != "deform" else f"deform {args.deform_verb}"
        report = {"command": verb, "algebra": alg.space.name, **args.func(args, alg)}
        emit(report, args.format)
    except (OSError, ParseError, ArityCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:   # a library bug, e.g. "sign conventions broken"
        import traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK if report["status"] == "pass" else EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
