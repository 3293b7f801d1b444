"""Built-in catalog of self-adjoint equation families and worked examples.

Each entry points at a ``.nsa`` fixture holding the equation, the
substitution family with free constants, and the known point symmetries.
Worked-example fixtures also carry a ``conserved`` block with the vector
as originally reported; :func:`verify_entry` recomputes everything from
scratch and flags any reported component that fails the divergence check.
"""

from __future__ import annotations

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
    parse_document,
    parse_expression,
    parse_symmetry,
)
from .record import Record


class CatalogEntry(Record):
    """One catalogued equation family or worked example.

    Every field is a claim that :func:`verify_entry` recomputes; what an
    entry describes, and the constraints it stands under, are in its
    fixture's comment.
    """

    _fields = (
        "id", "fixture", "classification",
        # ((symbol, value), ...) assignments with the classification
        # expected there
        "special_cases",
        # (phi text, expected residual text) for substitutions that must fail
        "refuted_substitutions",
        # inline symmetry text that must fail the prolongation check
        "refuted_symmetries",
        # (symbol, value) assignments under which each refutation residual
        # must stay nonzero
        "witness",
        # divergence-verified (c0, c1) text for the fixture's symmetry and phi
        "verified_vector",
        # expected divergence residual text of the fixture's reported
        # conserved block, "0" when it passes; set exactly when the fixture
        # has one
        "reported_residual",
        # substitutions under which the construction only yields trivial
        # vectors
        "trivial_substitutions",
        # fixture of a special instance whose vector must come out trivial
        "trivial_instance",
    )
    _defaults = {
        "special_cases": (), "refuted_substitutions": (),
        "refuted_symmetries": (), "witness": (), "verified_vector": None,
        "reported_residual": None, "trivial_substitutions": (),
        "trivial_instance": "",
    }


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
        fixture="type-3-I.nsa",
        classification=Classification.NONLINEAR,
        refuted_substitutions=(("u", "3*a*u_x*u_xx"),),
        witness=(("a", 1), ("c", 1)),
    ),
    CatalogEntry(
        id="3-II",
        fixture="type-3-II.nsa",
        classification=Classification.NONLINEAR,
    ),
    CatalogEntry(
        id="3-III",
        fixture="type-3-III.nsa",
        classification=Classification.QUASI,
        special_cases=(((("c2", 0),), Classification.QUASI),),
        refuted_substitutions=(("u", "-6*a*u_x*u_xx"),),
        witness=(("a", 1), ("c", 1)),
    ),
    CatalogEntry(
        id="3-IV",
        fixture="type-3-IV.nsa",
        classification=Classification.WEAK,
    ),
    CatalogEntry(
        id="5-I",
        fixture="type-5-I.nsa",
        classification=Classification.NONLINEAR,
    ),
    CatalogEntry(
        id="5-II",
        fixture="type-5-II.nsa",
        classification=Classification.NONLINEAR,
        refuted_substitutions=(("u", "3*a*u_x*u_xx"),),
        witness=(("a", 1), ("c", 1), ("d", 1)),
    ),
    CatalogEntry(
        id="5-III",
        fixture="type-5-III.nsa",
        classification=Classification.NONLINEAR,
    ),
    CatalogEntry(
        id="5-IV",
        fixture="type-5-IV.nsa",
        classification=Classification.QUASI,
        special_cases=(((("c1", 1), ("c2", 0)), Classification.STRICT),),
    ),
    CatalogEntry(
        id="5-V",
        fixture="type-5-V.nsa",
        classification=Classification.QUASI,
    ),
    CatalogEntry(
        id="2-R",
        fixture="type-2-R.nsa",
        classification=Classification.NONLINEAR,
    ),
    CatalogEntry(
        id="W31",
        fixture="W31.nsa",
        classification=Classification.NONLINEAR,
        refuted_symmetries=("tau = t; xi = 0; eta = 0",),
        verified_vector=("u", "1/3*t*u^3 + u*u_xx - 1/2*u_x^2"),
        reported_residual="2*t*u^2*u_x + u*u_xxx + u_x*u_xx",
    ),
    CatalogEntry(
        id="W32a",
        fixture="W32a.nsa",
        classification=Classification.WEAK,
        verified_vector=("ln(u)", "u_xx"),
        reported_residual="2*u_xxx",
        trivial_substitutions=("1", "u^-1"),
    ),
    CatalogEntry(
        id="W32b",
        fixture="W32b.nsa",
        classification=Classification.WEAK,
        verified_vector=("3*x^2*ln(u)", "6*u - 6*x*u_x + 3*x^2*u_xx"),
        reported_residual="0",
    ),
    CatalogEntry(
        id="W33",
        fixture="W33.nsa",
        classification=Classification.NONLINEAR,
        verified_vector=(
            "(5*p + 2)*u",
            "1/3*(5*p + 2)*f*u^3 + (5*p + 2)*u_xxxx",
        ),
        reported_residual="0",
        trivial_instance="W33-trivial.nsa",
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
    # imported on first use: on Python 3.12+ importlib.resources loads
    # inspect, which commands that read no fixture need not pay for
    from importlib import resources

    text = resources.files("nsakit").joinpath("fixtures", name).read_text()
    return parse_document(text)


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

    def trivial(name: str, raw, phi: Substitution, on: Equation) -> None:
        vec = density_normalize(localize(raw, phi), on)
        claim(f"{name} yields a trivial vector", is_trivial(vec, on),
              f"(C0, C1) = ({vec.c0}, {vec.c1})")

    report = nsa_check(eq, sub)
    claim("self-adjointness holds", report.holds, f"residual {report.residual}")
    classified("", report.classification, entry.classification)

    for values, expected in entry.special_cases:
        special = Substitution(substitute_symbols(sub.phi, dict(values)))
        special_eq = Equation(substitute_symbols(eq.lhs, dict(values)), eq.dep)
        label = "; ".join(f"{k} = {v}" for k, v in values)
        classified(f"at {label}: ", nsa_check(special_eq, special).classification,
                   expected)

    for phi_text, residual_text in entry.refuted_substitutions:
        bad_report = nsa_check(eq, Substitution(expr(phi_text)))
        residual = bad_report.residual
        claim(
            f"substitution {phi_text} refuted",
            not bad_report.holds
            and residual == expr(residual_text)
            and not substitute_symbols(residual, dict(entry.witness)).is_zero,
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
        _, adj = adjoint_system(eq)
        raw_div = verify_divergence(raw, (eq, adj))
        claim("raw vector divergence vanishes on the system", raw_div.is_zero,
              "" if raw_div.is_zero else f"residual {raw_div}")

        normalized = density_normalize(localize(raw, sub), eq)
        residual = verify_divergence(normalized, (eq,))
        claim(
            "normalized vector verified",
            residual.is_zero,
            f"(C0, C1) = ({normalized.c0}, {normalized.c1})"
            if residual.is_zero
            else f"residual {residual}",
        )

        if entry.verified_vector is not None:
            want_c0, want_c1 = map(expr, entry.verified_vector)
            claim(
                "vector matches the verified components",
                normalized.c0 == want_c0 and normalized.c1 == want_c1,
                f"got ({normalized.c0}, {normalized.c1})",
            )

        for stmt in doc.conserved:
            reported = verify_divergence(stmt, (eq,))
            text = entry.reported_residual
            expected = None if text is None else expr(text)
            if expected == 0:
                claim(
                    "reported vector passes the divergence check",
                    reported.is_zero,
                    "" if reported.is_zero else f"residual {reported}",
                )
            else:
                # with no residual recorded, reported == None fails the claim
                claim(
                    "reported vector fails the divergence check as expected",
                    (not reported.is_zero) and reported == expected,
                    f"residual {reported}",
                )

        for phi_text in entry.trivial_substitutions:
            trivial(f"substitution {phi_text}", raw,
                    Substitution(expr(phi_text)), eq)

    if entry.trivial_instance:
        inst = load_fixture(entry.trivial_instance)
        inst_eq = inst.equations[0]
        trivial(f"instance {entry.trivial_instance}",
                ibragimov_vector(inst_eq, inst.symmetries[0]),
                Substitution(inst.substitutions[0]), inst_eq)

    return EntryReport(entry.id, tuple(claims))
