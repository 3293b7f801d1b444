"""Command-line interface.

Every command reads a ``.nsa`` document, prints a deterministic report
(plain ``key: value`` lines, or JSON with ``--json``) and exits with
0 = success or verified, 1 = check refuted, 2 = parse or declaration
error, 3 = unsupported input.  Warnings go to stderr as ``warning:`` lines.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .adjoint import (
    Substitution,
    adjoint_equation,
    determining_system,
    nsa_check,
)
from .atoms import UnknownFn
from .calculus import Equation, PointSymmetry, prolonged_action
from .catalog import catalog_entries, verify_entry
from .conslaw import (
    density_normalize,
    ibragimov_vector,
    localize,
    verify_divergence,
)
from .errors import NsaError, ParseError, UnsupportedInputError
from .expr import DiffExpr
from .parser import (
    SourceDocument,
    parse_document,
    parse_expression,
    parse_symmetry,
    print_document,
)


def _load(path: str) -> SourceDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_document(text)


def _equation(doc: SourceDocument) -> Equation:
    if not doc.equations:
        raise ParseError("the document contains no equation")
    return doc.equations[0]


def _substitution(doc: SourceDocument, phi_text) -> Substitution:
    if phi_text is not None:
        return Substitution(parse_expression(phi_text, doc.declarations))
    if doc.substitutions:
        return Substitution(doc.substitutions[0])
    raise ParseError("no substitution in the document; pass --phi")


def _symmetry(doc: SourceDocument, text: str) -> PointSymmetry:
    if "=" in text:
        return parse_symmetry(text, doc.declarations)
    return doc.symmetry(text)


def _emit(args, fields: dict) -> None:
    if args.json:
        print(json.dumps(fields, indent=2))
        return
    for key, value in fields.items():
        if isinstance(value, list):
            print(f"{key}: {len(value)}")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


def _cmd_adjoint(args) -> int:
    doc = _load(args.file)
    fstar = adjoint_equation(_equation(doc))
    _emit(args, {"status": "computed", "adjoint": f"{fstar} = 0"})
    return 0


def _cmd_check_nsa(args) -> int:
    doc = _load(args.file)
    eq = _equation(doc)
    sub = _substitution(doc, args.phi)
    report = nsa_check(eq, sub)
    fields = {
        "status": "verified" if report.holds else "refuted",
        "lambda": str(report.multiplier),
        "residual": str(report.residual),
        "classification": report.classification.value
        if report.classification
        else "none",
    }
    if report.nonzero_partials:
        fields["nonzero_partials"] = ", ".join(report.nonzero_partials)
    _emit(args, fields)
    return 0 if report.holds else 1


def _cmd_determining(args) -> int:
    doc = _load(args.file)
    eqs = determining_system(_equation(doc))
    lam = -DiffExpr.from_atom(UnknownFn("phi", 0, 0, 1))
    _emit(
        args,
        {
            "status": "computed",
            "lambda": str(lam),
            "equations": [f"{e} = 0" for e in eqs],
        },
    )
    return 0


def _cmd_conslaw(args) -> int:
    doc = _load(args.file)
    eq = _equation(doc)
    sym = _symmetry(doc, args.symmetry)
    sub = _substitution(doc, args.phi)
    raw = ibragimov_vector(eq, sym)
    # a failing substitution shows up as a nonzero divergence below
    vec = localize(raw, sub)
    if args.normalize:
        vec = density_normalize(vec, eq)
    residual = verify_divergence(vec, (eq,))
    _emit(
        args,
        {
            "status": "verified" if residual.is_zero else "refuted",
            "c0": str(vec.c0),
            "c1": str(vec.c1),
            "transfer": str(vec.provenance.transfer),
            "divergence_residual": str(residual),
        },
    )
    return 0 if residual.is_zero else 1


def _cmd_check_symmetry(args) -> int:
    doc = _load(args.file)
    eq = _equation(doc)
    sym = _symmetry(doc, args.symmetry)
    action = prolonged_action(sym, eq)
    _emit(
        args,
        {
            "status": "verified" if action.is_zero else "refuted",
            "residual": str(action),
        },
    )
    return 0 if action.is_zero else 1


def _cmd_catalog_verify(args) -> int:
    ids = [args.id] if args.id else [entry.id for entry in catalog_entries()]
    reports = [verify_entry(entry_id) for entry_id in ids]
    ok = all(r.ok for r in reports)
    if args.json:
        payload = {
            "status": "verified" if ok else "refuted",
            "entries": [
                {
                    "id": r.entry_id,
                    "ok": r.ok,
                    "claims": [
                        {"name": c.name, "passed": c.passed, "detail": c.detail}
                        for c in r.claims
                    ],
                }
                for r in reports
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            print(r)
        print(f"status: {'verified' if ok else 'refuted'}")
    return 0 if ok else 1


def _cmd_fmt(args) -> int:
    doc = _load(args.file)
    text = print_document(doc)
    if args.json:
        print(json.dumps({"status": "computed", "formatted": text}, indent=2))
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    parser = argparse.ArgumentParser(
        prog="nsakit",
        description="adjoint equations, self-adjointness and conservation laws"
        " for scalar evolution equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("adjoint", parents=[common], help="print the adjoint equation")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_adjoint)

    p = sub.add_parser(
        "check-nsa",
        parents=[common],
        help="check nonlinear self-adjointness under a substitution",
    )
    p.add_argument("file")
    p.add_argument("--phi", help="substitution expression (default: from the file)")
    p.set_defaults(handler=_cmd_check_nsa)

    p = sub.add_parser(
        "determining",
        parents=[common],
        help="print the determining system for substitutions phi(x, t, u)",
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_determining)

    p = sub.add_parser(
        "conslaw",
        parents=[common],
        help="build a conserved vector from a point symmetry",
    )
    p.add_argument("file")
    p.add_argument(
        "--symmetry",
        required=True,
        help="symmetry name from the file, or inline 'tau = ...; xi = ...; eta = ...'",
    )
    p.add_argument("--phi", help="substitution expression (default: from the file)")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="move total x-derivatives from the density into the flux",
    )
    p.set_defaults(handler=_cmd_conslaw)

    p = sub.add_parser(
        "check-symmetry",
        parents=[common],
        help="verify a point symmetry by prolonged action on the equation",
    )
    p.add_argument("file")
    p.add_argument("--symmetry", required=True)
    p.set_defaults(handler=_cmd_check_symmetry)

    p = sub.add_parser("catalog", help="operations on the built-in catalog")
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True)
    v = catalog_sub.add_parser(
        "verify", parents=[common], help="recheck catalog entries"
    )
    v.add_argument("id", nargs="?", help="entry id (default: all entries)")
    v.set_defaults(handler=_cmd_catalog_verify)

    p = sub.add_parser(
        "fmt", parents=[common], help="reprint a document in canonical form"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_fmt)

    return parser


def _report_error(args, message: str, code: int) -> int:
    if getattr(args, "json", False):
        print(json.dumps({"status": "error", "message": message}, indent=2))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.handler(args)
        except UnsupportedInputError as exc:
            code = _report_error(args, str(exc), 3)
        except NsaError as exc:
            code = _report_error(args, str(exc), 2)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
