"""Command-line interface.

Every command reads a ``.nsa`` document, prints a deterministic report
(plain ``key: value`` lines, or JSON with ``--json``) and exits with
0 = success or verified, 1 = check refuted, 2 = parse or declaration
error, 3 = unsupported input.  Warnings go to stderr as ``warning:`` lines.

A command is one row of ``_COMMANDS`` and one handler.  The handler takes
``(args, doc)``, where ``doc`` is the parsed ``file`` argument (None for
a command without one), and returns ``(exit code, fields, text)``:
``fields`` is the report that ``--json`` prints, and ``text`` its plain
form, or None for the shared ``key: value`` lines.  Handlers neither load
nor print; :func:`main` loads, prints and maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

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
    parse_expression,
    parse_symmetry,
    print_document,
    read_document,
)


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


def _verdict(ok: bool, fields: dict) -> tuple:
    """A check's handler result: exit code 0 or 1, and ``fields`` led by
    status verified or refuted, printed as ``key: value`` lines."""
    return (0 if ok else 1), {"status": "verified" if ok else "refuted", **fields}, None


def _key_values(fields: dict) -> str:
    lines = []
    for key, value in fields.items():
        if isinstance(value, list):
            lines.append(f"{key}: {len(value)}")
            lines.extend(f"  {item}" for item in value)
        else:
            lines.append(f"{key}: {value}")
    return "".join(f"{line}\n" for line in lines)


def _cmd_adjoint(args, doc):
    fstar = adjoint_equation(_equation(doc))
    return 0, {"status": "computed", "adjoint": f"{fstar} = 0"}, None


def _cmd_check_nsa(args, doc):
    report = nsa_check(_equation(doc), _substitution(doc, args.phi))
    got = report.classification
    fields = {
        "lambda": str(report.multiplier),
        "residual": str(report.residual),
        "classification": got.value if got else "none",
    }
    if report.nonzero_partials:
        fields["nonzero_partials"] = ", ".join(report.nonzero_partials)
    return _verdict(report.holds, fields)


def _cmd_determining(args, doc):
    eqs = determining_system(_equation(doc))
    lam = -DiffExpr.from_atom(UnknownFn("phi", 0, 0, 1))
    equations = [f"{e} = 0" for e in eqs]
    return 0, {"status": "computed", "lambda": str(lam), "equations": equations}, None


def _cmd_conslaw(args, doc):
    eq = _equation(doc)
    sym = _symmetry(doc, args.symmetry)
    sub = _substitution(doc, args.phi)
    # a failing substitution shows up as a nonzero divergence below
    vec = localize(ibragimov_vector(eq, sym), sub)
    if args.normalize:
        vec = density_normalize(vec, eq)
    residual = verify_divergence(vec, (eq,))
    return _verdict(residual.is_zero, {
        "c0": str(vec.c0),
        "c1": str(vec.c1),
        "transfer": str(vec.provenance.transfer),
        "divergence_residual": str(residual),
    })


def _cmd_check_symmetry(args, doc):
    eq = _equation(doc)
    action = prolonged_action(_symmetry(doc, args.symmetry), eq)
    return _verdict(action.is_zero, {"residual": str(action)})


def _cmd_catalog_verify(args, doc):
    ids = [args.id] if args.id is not None else [e.id for e in catalog_entries()]
    reports = [verify_entry(entry_id) for entry_id in ids]
    entries = [
        {"id": r.entry_id, "ok": r.ok,
         "claims": [{f: getattr(c, f) for f in c._fields} for c in r.claims]}
        for r in reports
    ]
    code, fields, _ = _verdict(all(r.ok for r in reports), {"entries": entries})
    text = "".join(f"{r}\n" for r in reports) + f"status: {fields['status']}\n"
    return code, fields, text


def _cmd_fmt(args, doc):
    text = print_document(doc)
    return 0, {"status": "computed", "formatted": text}, text


_FILE = ("file", {})
_PHI = ("--phi", {"help": "substitution expression (default: from the file)"})

# (words, handler, help, arguments); a row without a handler is a group
# whose commands follow it, and each argument is (name, add_argument options)
_COMMANDS = (
    (("adjoint",), _cmd_adjoint, "print the adjoint equation", (_FILE,)),
    (("check-nsa",), _cmd_check_nsa,
     "check nonlinear self-adjointness under a substitution", (_FILE, _PHI)),
    (("determining",), _cmd_determining,
     "print the determining system for substitutions phi(x, t, u)", (_FILE,)),
    (("conslaw",), _cmd_conslaw,
     "build a conserved vector from a point symmetry", (
         _FILE,
         ("--symmetry", {
             "required": True,
             "help": "symmetry name from the file, or inline"
                     " 'tau = ...; xi = ...; eta = ...'",
         }),
         _PHI,
         ("--normalize", {
             "action": "store_true",
             "help": "move total x-derivatives from the density into the flux",
         }),
     )),
    (("check-symmetry",), _cmd_check_symmetry,
     "verify a point symmetry by prolonged action on the equation",
     (_FILE, ("--symmetry", {"required": True}))),
    (("catalog",), None, "operations on the built-in catalog", ()),
    (("catalog", "verify"), _cmd_catalog_verify, "recheck catalog entries",
     (("id", {"nargs": "?", "help": "entry id (default: all entries)"}),)),
    (("fmt",), _cmd_fmt, "reprint a document in canonical form", (_FILE,)),
)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError, so that ``main`` prints it
    as every other error; subparsers are built from the same class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _json_parser() -> argparse.ArgumentParser:
    """The ``--json`` option that every command takes."""
    common = _ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _json_parser()
    parser = _ArgumentParser(
        prog="nsakit",
        description="adjoint equations, self-adjointness and conservation laws"
        " for scalar evolution equations",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, handler, help_text, arguments in _COMMANDS:
        *group, name = words
        subparsers = groups[tuple(group)]
        if handler is None:
            p = subparsers.add_parser(name, help=help_text)
            dest = "_".join((*words, "command"))
            groups[words] = p.add_subparsers(dest=dest, required=True)
            continue
        p = subparsers.add_parser(name, parents=[common], help=help_text)
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.set_defaults(handler=handler)
    return parser


def _write(text: str) -> None:
    """Write the report to stdout.  A reader that has gone away is no
    error: stdout then points at os.devnull, so that the flush at
    interpreter exit stays silent too."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report_error(as_json: bool, message: str, code: int) -> int:
    if as_json:
        _write(json.dumps({"status": "error", "message": message}, indent=2) + "\n")
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(argv)
    except ParseError as exc:
        # --json as argparse reads it, abbreviated too; an argument that
        # breaks the option itself, such as --json=1, gets a text error
        try:
            as_json = _json_parser().parse_known_args(argv)[0].json
        except ParseError:
            as_json = False
        return _report_error(as_json, str(exc), 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            doc = read_document(args.file) if "file" in args else None
            code, fields, text = args.handler(args, doc)
        except UnsupportedInputError as exc:
            code = _report_error(args.json, str(exc), 3)
        except NsaError as exc:
            code = _report_error(args.json, str(exc), 2)
        else:
            if args.json:
                _write(json.dumps(fields, indent=2) + "\n")
            else:
                _write(_key_values(fields) if text is None else text)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
