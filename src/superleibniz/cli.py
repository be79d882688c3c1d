"""Command-line interface.

Verbs: validate, cohomology, derivations, extend, deform {check,extend,equiv}.
Every verb emits one report, as aligned text or as canonical JSON; both
renderings are produced from the same dictionary, so they carry identical
data.  Exit codes: 0 success, 1 mathematical failure (a counterexample is
in the report), 2 usage or parse error, 3 internal error (a broken
invariant of the library, never a property of the input).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .algebra import (LeibnizSuperalgebra, SuperBimodule, adjoint_module,
                      zero_module)
from .cochain import delta
from .cohomology import (DEFAULT_MAX_ARITY, cohomology_table, derivations,
                         inner_derivations, space_dimension)
from .deformation import (check_deformation, equivalent_deformations,
                          extend_deformation, infinitesimal_relation)
from .extension import build_extension, check_extension
from .fileio import (ParseError, canonical_json, cochain_to_doc,
                     load_algebra, load_cochain, load_deformation, load_module,
                     parity_name, save_algebra, save_deformation)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

DEFAULT_MAX_DIM = 12


def _check_dim_cap(alg: LeibnizSuperalgebra, args) -> None:
    if alg.dim <= args.max_dim:
        return
    n = args.max_arity
    if n >= 1:
        # the largest coboundary the arity cap allows: C^(n-1) -> C^n,
        # both parities, coefficients in L itself
        mod = adjoint_module(alg)
        rows = space_dimension(alg, mod, n)
        cols = space_dimension(alg, mod, n - 1)
        size = (f"with --max-arity {n} the coboundary C^{n - 1} -> C^{n} "
                f"with coefficients in L is a {rows} x {cols} matrix "
                f"({rows * cols} entries)")
    else:
        size = f"--max-arity {n} allows no coboundary matrix"
    raise ParseError(f"algebra dimension {alg.dim} exceeds the cap "
                     f"{args.max_dim}; {size}; pass --max-dim {alg.dim} "
                     "to proceed")


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

# Rendering order is a pure function of the key set, never of insertion
# order, so text rendered from a parsed JSON report is byte-identical to
# the text the command itself prints.
_KEY_PRIORITY = {k: i for i, k in enumerate((
    "command", "algebra", "module", "order", "target_order", "max_n",
    "checked_orders", "status", "equivalent", "solvable", "cocycle",
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
    out = []
    for v in violations[:limit]:
        doc = {}
        for k, val in v.items():
            if isinstance(val, tuple):
                doc[k] = list(val)
            else:
                doc[k] = val if isinstance(val, (str, int, bool)) else str(val)
        out.append(doc)
    return out


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------

def _load_module_choice(choice: str, alg: LeibnizSuperalgebra) -> tuple[SuperBimodule, str]:
    if choice == "self":
        return adjoint_module(alg), "self"
    if choice == "zero":
        return zero_module(alg), "zero"
    mod = load_module(choice, alg)
    rep = mod.check_grading()
    if not rep.ok:
        raise ParseError(f"module file {choice!r} violates grading: "
                         f"{rep.violations[0]}")
    rep = mod.check_axioms()
    if not rep.ok:
        raise ParseError(f"module file {choice!r} violates the module "
                         f"axioms: {rep.violations[0]}")
    return mod, mod.space.name


def _single_deformation(args) -> str:
    if len(args.deformation) != 1:
        raise ParseError("this subcommand takes exactly one --deformation file")
    return args.deformation[0]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    alg = load_algebra(args.algebra)
    _check_dim_cap(alg, args)
    grading = alg.check_grading()
    leibniz = alg.check_leibniz()
    ok = grading.ok and leibniz.ok
    report = {
        "command": "validate",
        "algebra": alg.space.name,
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
    emit(report, args.format)
    return EXIT_OK if ok else EXIT_MATH_FAIL


def cmd_cohomology(args) -> int:
    if args.max_n < 0:
        raise ParseError(f"--max-n must be nonnegative, got {args.max_n}")
    alg = load_algebra(args.algebra)
    _check_dim_cap(alg, args)
    mod, modname = _load_module_choice(args.module, alg)
    table = cohomology_table(alg, mod, args.max_n, with_bases=args.bases,
                             max_arity=args.max_arity)
    rows = []
    for n in range(args.max_n + 1):
        for parity in (0, 1):
            e = table.entry(n, parity)
            rows.append({"n": n, "parity": parity_name(parity),
                         "dim_c": e.dim_c, "dim_z": e.dim_z,
                         "dim_b": e.dim_b, "dim_h": e.dim_h})
    report = {
        "command": "cohomology",
        "algebra": alg.space.name,
        "module": modname,
        "max_n": args.max_n,
        "status": "pass",
        "table": rows,
    }
    if args.bases:
        bases = []
        for n in range(args.max_n + 1):
            for parity in (0, 1):
                e = table.entry(n, parity)
                bases.append({
                    "n": n,
                    "parity": parity_name(parity),
                    "cocycles": [cochain_to_doc(f)["entries"] for f in e.basis_z],
                    "coboundaries": [cochain_to_doc(f)["entries"] for f in e.basis_b],
                    "representatives": [cochain_to_doc(f)["entries"] for f in e.basis_h],
                })
        report["bases"] = bases
    emit(report, args.format)
    return EXIT_OK


def cmd_derivations(args) -> int:
    alg = load_algebra(args.algebra)
    _check_dim_cap(alg, args)
    mod, modname = _load_module_choice(args.module, alg)
    der0 = derivations(alg, mod, 0, max_arity=args.max_arity)
    der1 = derivations(alg, mod, 1, max_arity=args.max_arity)
    inner = inner_derivations(alg, mod)
    report = {
        "command": "derivations",
        "algebra": alg.space.name,
        "module": modname,
        "status": "pass",
        "dims": {"der_even": len(der0), "der_odd": len(der1),
                 "inner": len(inner), "h1_even": len(der0) - len(inner)},
        "derivations_even": [cochain_to_doc(f)["entries"] for f in der0],
        "derivations_odd": [cochain_to_doc(f)["entries"] for f in der1],
        "inner_derivations": [cochain_to_doc(f)["entries"] for f in inner],
    }
    emit(report, args.format)
    return EXIT_OK


def cmd_extend(args) -> int:
    alg = load_algebra(args.algebra)
    _check_dim_cap(alg, args)
    mod, modname = _load_module_choice(args.module, alg)
    h = load_cochain(args.cocycle, alg, mod)
    if h.arity != 2 or h.degree != 0:
        raise ParseError("the twisting cochain must be an even 2-cochain")
    ext = build_extension(alg, mod, h)
    rep = check_extension(ext)
    cocycle_ok = delta(h).is_zero()
    report = {
        "command": "extend",
        "algebra": alg.space.name,
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
    emit(report, args.format)
    return EXIT_OK if rep.ok else EXIT_MATH_FAIL


def cmd_deform_check(args) -> int:
    alg = load_algebra(args.algebra)
    _check_dim_cap(alg, args)
    mod = adjoint_module(alg)
    d = load_deformation(_single_deformation(args), alg, mod)
    rep = check_deformation(d, mod_order=args.mod_order)
    top = d.order if args.mod_order else 2 * d.order
    report = {
        "command": "deform check",
        "algebra": alg.space.name,
        "order": d.order,
        "checked_orders": f"1..{top}",
        "status": "pass" if rep.ok else "fail",
        "violations": _violations_doc(rep.violations),
    }
    emit(report, args.format)
    return EXIT_OK if rep.ok else EXIT_MATH_FAIL


def cmd_deform_extend(args) -> int:
    alg = load_algebra(args.algebra)
    _check_dim_cap(alg, args)
    mod = adjoint_module(alg)
    d = load_deformation(_single_deformation(args), alg, mod)
    target = args.order if args.order is not None else d.order + 1
    mu = extend_deformation(d, target, max_arity=args.max_arity)
    report = {
        "command": "deform extend",
        "algebra": alg.space.name,
        "order": d.order,
        "target_order": target,
        "status": "pass" if mu is not None else "fail",
        "solvable": mu is not None,
        "term": cochain_to_doc(mu)["entries"] if mu is not None else None,
        "output": None,
    }
    if mu is not None and args.out:
        extended = d.truncated(target - 1).appended(mu)
        save_deformation(extended, args.out)
        report["output"] = args.out
    emit(report, args.format)
    return EXIT_OK if mu is not None else EXIT_MATH_FAIL


def cmd_deform_equiv(args) -> int:
    if len(args.deformation) != 2:
        raise ParseError("deform equiv needs exactly two --deformation files")
    if args.order is not None and args.order < 0:
        raise ParseError(f"--order must be nonnegative, got {args.order}")
    alg = load_algebra(args.algebra)
    _check_dim_cap(alg, args)
    mod = adjoint_module(alg)
    d1 = load_deformation(args.deformation[0], alg, mod)
    d2 = load_deformation(args.deformation[1], alg, mod)
    iso = equivalent_deformations(d1, d2, order=args.order,
                                  max_arity=args.max_arity)
    report = {
        "command": "deform equiv",
        "algebra": alg.space.name,
        "order": d1.order,
        "status": "pass" if iso is not None else "fail",
        "equivalent": iso is not None,
    }
    if iso is not None:
        report["isomorphism"] = {
            str(i): cochain_to_doc(f)["entries"]
            for i, f in enumerate(iso.terms, start=1) if not f.is_zero()
        }
        rel = infinitesimal_relation(d1, d2, iso) if d1.order >= 1 else None
        report["infinitesimal_relation"] = rel.ok if rel is not None else None
    emit(report, args.format)
    return EXIT_OK if iso is not None else EXIT_MATH_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report rendering (default: text)")
    common.add_argument("--max-arity", type=int, default=DEFAULT_MAX_ARITY,
                        help="cap on cochain arity (default: %(default)s)")
    common.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                        help="cap on algebra dimension (default: %(default)s)")

    parser = argparse.ArgumentParser(
        prog="superleibniz",
        description="Exact computations with finite-dimensional Leibniz "
                    "superalgebras: validation, cohomology, extensions, "
                    "truncated formal deformations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check grading and the Leibniz identity")
    p.add_argument("algebra", help="algebra file (JSON)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", parents=[common],
                       help="cohomology dimensions (and bases)")
    p.add_argument("algebra")
    p.add_argument("--module", default="self",
                   help="'self', 'zero', or a module file (default: self)")
    p.add_argument("--max-n", type=int, default=2, dest="max_n",
                   help="highest cohomology degree (default: 2)")
    p.add_argument("--bases", action="store_true",
                   help="include echelon bases of Z, B and representatives of H")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("derivations", parents=[common],
                       help="derivations, inner derivations, dim H^1_even")
    p.add_argument("algebra")
    p.add_argument("--module", default="self")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("extend", parents=[common],
                       help="build the extension defined by a 2-cocycle")
    p.add_argument("algebra")
    p.add_argument("--cocycle", required=True, help="2-cochain file")
    p.add_argument("--module", default="self")
    p.add_argument("--out", help="write the total algebra here")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("deform", parents=[],
                       help="formal deformation tools")
    dsub = p.add_subparsers(dest="deform_verb", required=True)

    q = dsub.add_parser("check", parents=[common],
                        help="verify the deformation equations")
    q.add_argument("algebra")
    q.add_argument("--deformation", action="append", required=True)
    q.add_argument("--mod-order", action="store_true", dest="mod_order",
                   help="check orders 1..N only (jet reading) instead of 1..2N")
    q.set_defaults(func=cmd_deform_check)

    q = dsub.add_parser("extend", parents=[common],
                        help="solve for the next deformation term")
    q.add_argument("algebra")
    q.add_argument("--deformation", action="append", required=True)
    q.add_argument("--order", type=int, default=None,
                   help="target order (default: one past the file's order)")
    q.add_argument("--out", help="write the extended deformation here")
    q.set_defaults(func=cmd_deform_extend)

    q = dsub.add_parser("equiv", parents=[common],
                        help="search for a formal isomorphism between two "
                             "deformations")
    q.add_argument("algebra")
    q.add_argument("--deformation", action="append", required=True,
                   help="give twice: from-deformation, to-deformation")
    q.add_argument("--order", type=int, default=None)
    q.set_defaults(func=cmd_deform_equiv)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:   # ParseError, ArityCapError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:   # a library bug, e.g. "sign conventions broken"
        import traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
