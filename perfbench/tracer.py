"""Span tracer that wraps nsakit's public functions from outside the package.

``install()`` replaces each function listed in FUNCTIONS by a wrapper in
every ``nsakit`` module namespace that holds it, so that calls through a
name imported elsewhere (``nsakit.adjoint.euler``,
``nsakit.conslaw.total_derivative``) are recorded as well as calls through
the defining module.  ``DiffExpr`` methods are wrapped on the class.

Each call records a span: function, start, end, parent span and op id.
Spans are kept in memory while an op runs; ``fold()`` turns the op's spans
into per-function statistics (calls, inclusive and self time, term counts)
and clears them, so memory is bounded by one op.
"""

from __future__ import annotations

import sys
import time

# (layer, function, attribute in nsakit.<layer>); "Class.method" names a method
FUNCTIONS = (
    ("expr", "add", "DiffExpr.__add__"),
    ("expr", "mul", "DiffExpr.__mul__"),
    ("expr", "from_dict", "DiffExpr._from_dict"),
    ("expr", "subs_atoms", "DiffExpr.subs_atoms"),
    ("expr", "collect", "DiffExpr.collect"),
    ("calculus", "total_derivative", "total_derivative"),
    ("calculus", "partial_jet", "partial_jet"),
    ("calculus", "partial_coord", "partial_coord"),
    ("calculus", "euler", "euler"),
    ("calculus", "substitute_dependent", "substitute_dependent"),
    ("calculus", "substitute_symbols", "substitute_symbols"),
    ("calculus", "reduce_mod", "reduce_mod"),
    ("calculus", "prolonged_action", "prolonged_action"),
    ("adjoint", "adjoint_equation", "adjoint_equation"),
    ("adjoint", "nsa_check", "nsa_check"),
    ("adjoint", "determining_system", "determining_system"),
    ("conslaw", "ibragimov_vector", "ibragimov_vector"),
    ("conslaw", "localize", "localize"),
    ("conslaw", "density_normalize", "density_normalize"),
    ("conslaw", "verify_divergence", "verify_divergence"),
    ("conslaw", "is_trivial", "is_trivial"),
    ("catalog", "verify_entry", "verify_entry"),
    ("catalog", "load_fixture", "load_fixture"),
    ("parser", "parse_document", "parse_document"),
    ("cli", "main", "main"),
)
NAMES = tuple(f"{layer}.{fn}" for layer, fn, _ in FUNCTIONS)
MODULES = ("atoms", "expr", "calculus", "adjoint", "conslaw", "catalog", "parser", "cli")

_FROM_DICT = NAMES.index("expr.from_dict")
_SUBS = NAMES.index("expr.subs_atoms")
_REDUCE = NAMES.index("calculus.reduce_mod")

# span fields
_NAME, _START, _END, _PARENT, _OP, _OUTER, _TERMS_OUT, _TERMS_IN = range(8)


def empty_stats() -> dict:
    """Per-function accumulators: [calls, total_s, self_s, terms_out, terms_in, rounds]."""
    return {name: [0, 0.0, 0.0, 0, 0, 0] for name in NAMES}


def merge(into: dict, other: dict) -> None:
    for name, row in other.items():
        acc = into[name]
        for i, value in enumerate(row):
            acc[i] += value


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.active = [0] * len(FUNCTIONS)
        self.op = 0

    def install(self) -> None:
        import nsakit.cli  # noqa: F401  (loads every module)
        from nsakit.adjoint import NsaReport
        from nsakit.conslaw import ConservedVector
        from nsakit.expr import DiffExpr
        from nsakit.parser import SourceDocument

        # the private term tuple is far cheaper to count than the public view
        size = (lambda e: len(e._terms)) if hasattr(DiffExpr.zero(), "_terms") else (
            lambda e: len(e.terms))

        def terms(value) -> int:
            if isinstance(value, DiffExpr):
                return size(value)
            if isinstance(value, (list, tuple)):
                return sum(terms(v) for v in value)
            if isinstance(value, ConservedVector):
                return terms(value.c0) + terms(value.c1)
            if isinstance(value, NsaReport):
                return terms(value.residual)
            if isinstance(value, SourceDocument):
                return sum(terms(e.lhs) for e in value.equations)
            return 0

        modules = [m for n, m in sys.modules.items() if n == "nsakit" or n.startswith("nsakit.")]
        for idx, (layer, _fn, attr) in enumerate(FUNCTIONS):
            owner = sys.modules[f"nsakit.{layer}"]
            cls_name, _, name = attr.rpartition(".")
            namespaces = [getattr(owner, cls_name)] if cls_name else modules
            orig = vars(namespaces[0] if cls_name else owner).get(name)
            if orig is None:
                continue  # renamed or removed: its stats stay at zero
            if isinstance(orig, classmethod):
                wrapped = classmethod(self._wrap(idx, orig.__func__, terms))
            else:
                wrapped = self._wrap(idx, orig, terms)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is orig:  # also aliases such as __radd__ = __add__
                        setattr(namespace, key, wrapped)

    def _wrap(self, idx: int, fn, terms):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter
        count_in = idx == _FROM_DICT
        tracer = self

        def traced(*args, **kwargs):
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                    active[idx] == 0, 0, len(args[1]) if count_in else 0]
            stack.append(len(spans))
            spans.append(span)
            active[idx] += 1
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                active[idx] -= 1
                stack.pop()
            span[_TERMS_OUT] = terms(result)
            return result

        return traced

    def fold(self) -> tuple[dict, float]:
        """Fold the spans of the finished op; return its stats and self-time sum."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        stats = empty_stats()
        self_sum = 0.0
        for i, span in enumerate(spans):
            row = stats[NAMES[span[_NAME]]]
            duration = span[_END] - span[_START]
            own = duration - child[i]
            self_sum += own
            row[0] += 1
            if span[_OUTER]:
                row[1] += duration
            row[2] += own
            row[3] += span[_TERMS_OUT]
            row[4] += span[_TERMS_IN]
            if span[_NAME] == _SUBS and span[_PARENT] >= 0 and spans[span[_PARENT]][_NAME] == _REDUCE:
                stats[NAMES[_REDUCE]][5] += 1
        self.discard()
        self.op += 1
        return stats, self_sum

    def discard(self) -> None:
        self.spans.clear()


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values (name -> (value, unit)) from merged stats."""
    out = {}
    for name in NAMES:
        calls, total, own, terms_out, terms_in, rounds = stats[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.total_s"] = (total, "s")
        out[f"{name}.self_s"] = (own, "s")
        out[f"{name}.terms_out"] = (terms_out, "count")
        if name == "expr.from_dict":
            out[f"{name}.terms_in"] = (terms_in, "count")
            out[f"{name}.kept_ratio"] = (terms_out / terms_in if terms_in else 0.0, "1")
        if name == "calculus.reduce_mod":
            out[f"{name}.rounds"] = (rounds, "count")
    return out


def parse_importtime(stderr: str) -> dict:
    """Import cost of each nsakit module from ``python -X importtime`` output.

    A module's cost is its own import time plus that of the non-nsakit
    modules it pulled in first, so nested nsakit modules are not counted
    twice.  Returns module name -> seconds.
    """
    pending: list = []  # (depth, name, carry_us)
    costs = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            own = int(parts[0])
        except ValueError:
            continue  # header line
        label = parts[2]
        name = label.strip()
        depth = (len(label) - len(label.lstrip())) // 2
        carry = own
        while pending and pending[-1][0] > depth:
            _d, child, child_carry = pending.pop()
            if not child.startswith("nsakit"):
                carry += child_carry
        pending.append((depth, name, carry))
        if name.startswith("nsakit."):
            costs[name[len("nsakit."):]] = carry / 1e6
    return costs
