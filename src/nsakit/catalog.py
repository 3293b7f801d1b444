"""Built-in catalog of self-adjoint equation families and worked examples.

Each entry points at a ``.nsa`` fixture holding the equation, the
substitution family with free constants, and the known point symmetries;
a ``<fixture>-trivial.nsa`` next to it is an instance whose vector must
come out trivial.  A worked example's fixture also carries a ``conserved``
block with the vector as originally reported.  An entry records only what
its fixture cannot say: the expected classifications, the refutations,
the trivial substitutions and, where the reported block fails, its
correction.  :func:`verify_entry` recomputes every claim from scratch.
"""

from __future__ import annotations

import os

from .adjoint import (
    Classification,
    Substitution,
    adjoint_system,
    nsa_check,
)
from .calculus import Equation, prolonged_action, substitute_symbols
from .conslaw import (
    density_normalize,
    ibragimov_vector,
    is_trivial,
    localize,
    verify_divergence,
)
from .errors import DeclarationError
from .parser import (
    SourceDocument,
    parse_expression,
    parse_symmetry,
    read_document,
)
from .record import Record

_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class CatalogEntry(Record):
    """One catalogued equation family or worked example.

    Every field is a claim that :func:`verify_entry` recomputes; what an
    entry describes, and the constraints it stands under, are in its
    fixture's comment.
    """

    _fields = (
        "id", "classification",
        # ((symbol, value), ...) assignments to constants of phi, with the
        # classification expected there
        "special_cases",
        # (phi text, expected residual text) for substitutions that must
        # fail; each residual must stay nonzero with every coefficient
        # function of the fixture set to 1
        "refuted_substitutions",
        # inline symmetry text that must fail the prolongation check
        "refuted_symmetries",
        # (residual text, (c0, c1) text) where the fixture's conserved
        # block fails: the block's expected divergence residual, and the
        # vector that verifies instead; None where a block passes and is
        # itself the verified vector
        "correction",
        # substitutions under which the construction only yields trivial
        # vectors
        "trivial_substitutions",
    )
    _defaults = {
        "special_cases": (), "refuted_substitutions": (),
        "refuted_symmetries": (), "correction": None,
        "trivial_substitutions": (),
    }

    @property
    def fixture(self) -> str:
        """``type-<id>.nsa`` for a family entry, whose id starts with a
        digit, and ``<id>.nsa`` for a worked example."""
        return f"type-{self.id}.nsa" if self.id[0].isdigit() else f"{self.id}.nsa"


class ClaimResult(Record):
    _fields = ("name", "passed", "detail")
    _defaults = {"detail": ""}

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{mark} {self.name}{tail}"


class EntryReport(Record):
    _fields = ("entry_id", "claims")

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.claims)

    def __str__(self) -> str:
        lines = [f"entry {self.entry_id}"]
        lines.extend(f"  {c}" for c in self.claims)
        return "\n".join(lines)


_ENTRIES = (
    CatalogEntry(
        id="3-I",
        classification=Classification.NONLINEAR,
        refuted_substitutions=(("u", "3*a*u_x*u_xx"),),
    ),
    CatalogEntry(
        id="3-II",
        classification=Classification.NONLINEAR,
    ),
    CatalogEntry(
        id="3-III",
        classification=Classification.QUASI,
        special_cases=(((("c2", 0),), Classification.QUASI),),
        refuted_substitutions=(("u", "-6*a*u_x*u_xx"),),
    ),
    CatalogEntry(
        id="3-IV",
        classification=Classification.WEAK,
    ),
    CatalogEntry(
        id="5-I",
        classification=Classification.NONLINEAR,
    ),
    CatalogEntry(
        id="5-II",
        classification=Classification.NONLINEAR,
        refuted_substitutions=(("u", "3*a*u_x*u_xx"),),
    ),
    CatalogEntry(
        id="5-III",
        classification=Classification.NONLINEAR,
    ),
    CatalogEntry(
        id="5-IV",
        classification=Classification.QUASI,
        special_cases=(((("c1", 1), ("c2", 0)), Classification.STRICT),),
    ),
    CatalogEntry(
        id="5-V",
        classification=Classification.QUASI,
    ),
    CatalogEntry(
        id="2-R",
        classification=Classification.NONLINEAR,
    ),
    CatalogEntry(
        id="W31",
        classification=Classification.NONLINEAR,
        refuted_symmetries=("tau = t; xi = 0; eta = 0",),
        correction=("2*t*u^2*u_x + u*u_xxx + u_x*u_xx",
                    ("u", "1/3*t*u^3 + u*u_xx - 1/2*u_x^2")),
    ),
    CatalogEntry(
        id="W32a",
        classification=Classification.WEAK,
        correction=("2*u_xxx", ("ln(u)", "u_xx")),
        trivial_substitutions=("1", "u^-1"),
    ),
    CatalogEntry(
        id="W32b",
        classification=Classification.WEAK,
    ),
    CatalogEntry(
        id="W33",
        classification=Classification.NONLINEAR,
    ),
)


def catalog_entries() -> list:
    """All catalog entries in a stable order."""
    return list(_ENTRIES)


def catalog_entry(entry_id: str) -> CatalogEntry:
    for entry in _ENTRIES:
        if entry.id == entry_id:
            return entry
    raise DeclarationError(f"unknown catalog entry {entry_id!r}")


def load_fixture(name: str) -> SourceDocument:
    return read_document(os.path.join(_FIXTURES, name))


def verify_entry(entry_id: str) -> EntryReport:
    """Recompute every claim an entry makes and report each outcome."""
    entry = catalog_entry(entry_id)
    doc = load_fixture(entry.fixture)
    decls = doc.declarations
    eq = doc.equations[0]
    sub = Substitution(doc.substitutions[0])
    claims = []

    def claim(name: str, passed: bool, detail: str = "") -> None:
        claims.append(ClaimResult(name, bool(passed), detail))

    def expr(text: str):
        return parse_expression(text, decls)

    def classified(prefix: str, got, want: Classification) -> None:
        claim(f"{prefix}classification is {want.value}", got == want,
              f"got {got.value if got else 'none'}")

    def vanishes(name: str, residual, shown: str = "") -> None:
        claim(name, residual.is_zero,
              shown if residual.is_zero else f"residual {residual}")

    def trivial(name: str, raw, phi: Substitution, on: Equation) -> None:
        vec = density_normalize(localize(raw, phi), on)
        claim(f"{name} yields a trivial vector", is_trivial(vec, on),
              f"(C0, C1) = ({vec.c0}, {vec.c1})")

    report = nsa_check(eq, sub)
    claim("self-adjointness holds", report.holds, f"residual {report.residual}")
    classified("", report.classification, entry.classification)

    for values, expected in entry.special_cases:
        special = Substitution(substitute_symbols(sub.phi, dict(values)))
        label = "; ".join(f"{k} = {v}" for k, v in values)
        classified(f"at {label}: ", nsa_check(eq, special).classification, expected)

    witness = dict.fromkeys(decls.funcs, 1)
    for phi_text, residual_text in entry.refuted_substitutions:
        bad_report = nsa_check(eq, Substitution(expr(phi_text)))
        residual = bad_report.residual
        claim(
            f"substitution {phi_text} refuted",
            not bad_report.holds
            and residual == expr(residual_text)
            and not substitute_symbols(residual, witness).is_zero,
            f"residual {residual}",
        )

    for sym in doc.symmetries:
        action = prolonged_action(sym, eq)
        label = sym.name or "symmetry"
        claim(f"symmetry {label} verified", action.is_zero, f"residual {action}")

    for sym_text in entry.refuted_symmetries:
        action = prolonged_action(parse_symmetry(sym_text, decls), eq)
        claim(f"symmetry {sym_text!r} refuted", not action.is_zero)

    if doc.symmetries:
        raw = ibragimov_vector(eq, doc.symmetries[0])
        vanishes("raw vector divergence vanishes on the system",
                 verify_divergence(raw, adjoint_system(eq)))

        normalized = density_normalize(localize(raw, sub), eq)
        vanishes("normalized vector verified", verify_divergence(normalized, (eq,)),
                 f"(C0, C1) = ({normalized.c0}, {normalized.c1})")

        for block in doc.conserved:
            # without a correction the block must pass, and it is itself
            # the verified vector
            expected, want = 0, (block.c0, block.c1)
            if entry.correction is not None:
                text, vector = entry.correction
                expected, want = expr(text), tuple(map(expr, vector))
            claim("vector matches the verified components",
                  (normalized.c0, normalized.c1) == want,
                  f"got ({normalized.c0}, {normalized.c1})")
            reported = verify_divergence(block, (eq,))
            if expected == 0:
                vanishes("reported vector passes the divergence check", reported)
            else:
                claim("reported vector fails the divergence check as expected",
                      reported == expected, f"residual {reported}")

        for phi_text in entry.trivial_substitutions:
            trivial(f"substitution {phi_text}", raw,
                    Substitution(expr(phi_text)), eq)

    instance = entry.fixture.replace(".nsa", "-trivial.nsa")
    if os.path.exists(os.path.join(_FIXTURES, instance)):
        inst = load_fixture(instance)
        inst_eq = inst.equations[0]
        trivial(f"instance {instance}",
                ibragimov_vector(inst_eq, inst.symmetries[0]),
                Substitution(inst.substitutions[0]), inst_eq)

    return EntryReport(entry.id, tuple(claims))
