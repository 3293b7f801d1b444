"""Worker processes that run benchmark ops against nsakit.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Two entry points:

``worker.py [--trace]``
    Reads one JSON request per line from stdin and answers each with one
    JSON line on stdout: ``{"s": op seconds, "ok": bool, "why": str,
    "digest": sha256 of the op's outputs, "rss_kib": peak RSS so far}``,
    plus the op's folded spans under ``"trace"`` when tracing.  Requests
    are ``{"op": "catalog", "id": ...}`` or
    ``{"op": "jet", "text": ..., "terms": ..., "density": ...}``.

``cli_main(ARGS, traced)``
    Runs ``nsakit.cli.main(ARGS)`` in a fresh interpreter, as
    ``python -m nsakit.cli ARGS`` does, then writes its peak RSS (and its
    folded spans when traced) as the last stderr line, after REPORT_MARK.

Only light modules are imported at the top, so that a CLI op pays for
little beyond nsakit itself.
"""

from __future__ import annotations

import json
import resource
import sys
import time

REPORT_MARK = "perfbench-report "


def peak_rss_kib() -> int:
    """High-water RSS of this process image, in KiB.

    ``VmHWM`` is read in preference to ``getrusage``: on Linux a process's
    ``ru_maxrss`` also holds the high-water mark of the parent it was
    forked from, which would hide the child's own peak.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _digest(*parts) -> str:
    import hashlib

    return hashlib.sha256("\n".join(str(p) for p in parts).encode()).hexdigest()


def catalog_op(entry_id: str) -> tuple:
    from nsakit import catalog

    t0 = time.perf_counter()
    report = catalog.verify_entry(entry_id)
    elapsed = time.perf_counter() - t0

    def check() -> tuple:
        return report.ok, "" if report.ok else str(report), _digest(report)

    return elapsed, check


def jet_op(text: str, terms: int, density: str) -> tuple:
    """The full analysis pipeline on one generated equation."""
    from nsakit import (
        Substitution,
        adjoint_equation,
        density_normalize,
        determining_system,
        ibragimov_vector,
        localize,
        nsa_check,
        parse_document,
        prolonged_action,
        reduce_mod,
        total_derivative,
        verify_divergence,
    )
    from nsakit.calculus import Equation

    t0 = time.perf_counter()
    doc = parse_document(text)
    eq = doc.equations[0]
    sub = Substitution(doc.substitutions[0])
    sym = doc.symmetry("xtrans")
    fstar = adjoint_equation(eq)
    report = nsa_check(eq, sub)
    dets = determining_system(eq)
    action = prolonged_action(sym, eq)
    raw = ibragimov_vector(eq, sym)
    raw_div = reduce_mod(
        total_derivative(raw.c0, "t") + total_derivative(raw.c1, "x"),
        (eq, Equation(-fstar, dep="v")),
    )
    vec = localize(raw, sub)
    vec = density_normalize(vec, eq)
    residual = verify_divergence(vec, (eq,))
    elapsed = time.perf_counter() - t0

    def check() -> tuple:
        failures = []
        if len(eq.lhs.terms) != terms:
            failures.append(f"parsed {len(eq.lhs.terms)} terms, generated {terms}")
        if not report.holds:
            failures.append(f"nsa_check residual {report.residual}")
        bad = [e for e in dets if not _phi_affine(e).is_zero]
        if bad:
            failures.append(f"{len(bad)} determining equations fail at phi = alpha + beta*x")
        for label, value in (("prolonged action", action), ("raw divergence", raw_div),
                             ("normalized divergence", residual)):
            if not value.is_zero:
                failures.append(f"{label} {value}")
        if str(vec.c0) != density:
            failures.append(f"density {vec.c0}, expected {density}")
        digest = _digest(fstar, report.classification, *dets, action, raw.c0, raw.c1,
                         vec.c0, vec.c1, vec.provenance.transfer)
        return not failures, "; ".join(failures), digest

    return elapsed, check


def _phi_affine(e):
    """Substitute phi = alpha + beta*x (phi_x = beta, other partials 0)."""
    from nsakit.atoms import UnknownFn
    from nsakit.expr import DiffExpr, param, var

    values = {"phi": param("alpha") + param("beta") * var("x"), "phi_x": param("beta")}
    mapping = {
        atom: values.get(str(atom), DiffExpr.zero())
        for atom in e.atoms()
        if isinstance(atom, UnknownFn)
    }
    return e.subs_atoms(mapping)


def _reraise(exc: Exception):
    def check():
        raise exc

    return check


def _start_tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def serve(trace: bool) -> None:
    tracer = _start_tracer() if trace else None
    import nsakit.cli  # noqa: F401  (the same modules a traced worker loads)

    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        try:
            if req["op"] == "catalog":
                elapsed, check = catalog_op(req["id"])
            else:
                elapsed, check = jet_op(req["text"], req["terms"], req["density"])
        except Exception as exc:
            elapsed, check = time.perf_counter() - t0, _reraise(exc)
        reply = {"s": elapsed}
        if tracer is not None:
            stats, self_sum = tracer.fold()
            reply["trace"] = {"stats": stats, "self_s": self_sum}
        try:
            reply["ok"], reply["why"], reply["digest"] = check()
        except Exception as exc:  # an op or a check that raises counts as failed
            reply["ok"], reply["why"], reply["digest"] = False, repr(exc), ""
        if tracer is not None:
            tracer.discard()  # spans of the checks are not part of the op
        reply["rss_kib"] = peak_rss_kib()
        print(json.dumps(reply), flush=True)


def cli_main(argv: list, traced: bool) -> int:
    tracer = _start_tracer() if traced else None
    import nsakit.cli

    code = nsakit.cli.main(argv)
    sys.stdout.flush()
    report = {"rss_kib": peak_rss_kib()}
    if tracer is not None:
        stats, self_sum = tracer.fold()
        report["trace"] = {"stats": stats, "self_s": self_sum}
    print(REPORT_MARK + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    serve(trace=sys.argv[1:] == ["--trace"])
