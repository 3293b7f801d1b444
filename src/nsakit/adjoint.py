"""Adjoint equations and nonlinear self-adjointness.

The formal Lagrangian of an evolution equation F = 0 is L = v*F with a
fresh dependent variable v.  The adjoint equation is F* = delta L / delta u.
An equation is nonlinearly self-adjoint when some substitution v = phi(x,t,u)
turns F* into a multiple of F; matching the u_t coefficient forces the
multiplier to be -phi_*, the linearization of phi, so the check is the
single identity F*|_(v=phi) + phi_*(F) = 0 in the jet variables, with no
search.  For a point phi, phi_* = phi_u.
"""

from __future__ import annotations

import enum

from .calculus import (
    Equation,
    _require_point_function,
    linearization,
    partial_coord,
    substitute_dependent,
)
from .errors import SubstitutionError
from .expr import DiffExpr, equal, jet, primitive_normal, unknown
from .record import Record


def adjoint_equation(eq: Equation) -> DiffExpr:
    """Left side F* of the adjoint equation F* = 0.

    F* is computed on first use and stored on ``eq``, so the checks and
    systems built on one equation share a single variational derivative.
    """
    return eq.adjoint


def adjoint_system(eq: Equation) -> tuple[Equation, Equation]:
    """The pair (F = 0, F* = 0) with F* solved for v_t.

    F* always carries -v_t, so -F* is a valid evolution equation in v; the
    pair is what conserved vectors of the formal Lagrangian vanish against.
    """
    fstar = adjoint_equation(eq)
    return eq, Equation(-fstar, dep="v")


class Substitution(Record):
    """A concrete substitution v = phi(x, t, u)."""

    _fields = ("phi",)

    def __init__(self, phi: DiffExpr):
        _require_point_function(phi, "phi", SubstitutionError)
        if phi.is_zero:
            raise SubstitutionError("phi = 0 is excluded")
        super().__init__(phi)

    def __str__(self) -> str:
        return f"phi = {self.phi}"


class Classification(str, enum.Enum):
    STRICT = "strict"
    QUASI = "quasi"
    WEAK = "weak"
    NONLINEAR = "nonlinear"

    def __str__(self) -> str:
        return self.value


def classify_substitution(sub: Substitution) -> Classification:
    """Classify a verified substitution.

    strict: phi is exactly u; quasi: phi depends on u alone with phi_u
    nonzero; weak: phi_u nonzero together with explicit x or t dependence;
    nonlinear: everything else (in particular phi_u = 0).
    """
    return _classify(sub.phi, _partials(sub.phi))


def _partials(phi: DiffExpr) -> dict[str, DiffExpr]:
    """phi_x, phi_t and phi_u, each computed once."""
    return {name: partial_coord(phi, name) for name in ("x", "t", "u")}


def _classify(phi: DiffExpr, partials: dict[str, DiffExpr]) -> Classification:
    if equal(phi, jet("u")):
        return Classification.STRICT
    if not partials["u"].is_zero:
        if partials["x"].is_zero and partials["t"].is_zero:
            return Classification.QUASI
        return Classification.WEAK
    return Classification.NONLINEAR


class NsaReport(Record):
    """Outcome of a self-adjointness check under the forced multiplier."""

    _fields = (
        "holds", "multiplier", "residual", "classification", "nonzero_partials",
    )

    def __str__(self) -> str:
        verdict = "holds" if self.holds else "fails"
        extra = f" [{self.classification.value}]" if self.classification else ""
        return f"nonlinear self-adjointness {verdict}{extra}"


def _nsa_residual(eq: Equation, phi: DiffExpr) -> DiffExpr:
    """F*|_(v=phi) + phi_*(F), zero exactly when F* = -phi_*(F) under
    v = phi; phi_* is the linearization of phi, phi_u for a point phi."""
    fstar = substitute_dependent(adjoint_equation(eq), "v", phi)
    return fstar + linearization(phi, eq.lhs)


def nsa_check(eq: Equation, sub: Substitution) -> NsaReport:
    """Decide F*|_{v=phi} = lambda*F with lambda = -phi_u.

    The identity is required in all jet variables, not merely on solutions.
    A failure under this forced multiplier refutes the particular phi, not
    the equation's self-adjointness through other substitutions.
    """
    phi = sub.phi
    partials = _partials(phi)
    residual = _nsa_residual(eq, phi)
    holds = residual.is_zero
    return NsaReport(
        holds=holds,
        multiplier=-partials["u"],
        residual=residual,
        classification=_classify(phi, partials) if holds else None,
        nonzero_partials=tuple(name for name, p in partials.items() if p),
    )


def determining_system_detailed(eq: Equation) -> list[tuple[DiffExpr, DiffExpr]]:
    """Keyed determining equations for an undetermined phi(x, t, u).

    Expands F*|_{v=phi} + phi_u*F and collects over every monomial in the
    derivative jets of u (u_t included), each key a one-term expression;
    each coefficient, scaled to primitive integer form, must vanish.  The
    u_t coefficient cancels identically, which is exactly why the
    multiplier is forced.
    """
    phi = unknown("phi")
    residual = _nsa_residual(eq, phi)
    selected = {j for j in residual.jets("u") if j.order() >= 1}
    return [
        (key, primitive_normal(coeff))
        for key, coeff in residual.collect(selected)
    ]


def determining_system(eq: Equation) -> list[DiffExpr]:
    """Determining equations, deduplicated and deterministically ordered."""
    return list(dict.fromkeys(c for _key, c in determining_system_detailed(eq)))
