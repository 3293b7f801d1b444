"""Conserved vectors from symmetries of evolution equations.

For an equation F = u_t + H(u, u_x, ..., u_nx) = 0 of order n with formal
Lagrangian L = v*F, every point symmetry (tau, xi, eta) yields a conserved
vector

    C^t = tau*L + W * dL/du_t,
    C^x = xi*L + sum_{k<n} D_x^k(W) * sum_{k<m<=n} (-1)^(m-k-1) D_x^(m-k-1) dL/du_mx,

with characteristic W = eta - tau*u_t - xi*u_x.  The raw components retain
v and vanish in divergence against the pair (F, F*).  localize only
substitutes v = phi(x, t, u), and verify_divergence certifies the result:
it is conserved on F alone when phi passes nsa_check.  A density
normalization step moves total x-derivatives from C^t into the flux,
which is how recognizable densities (and trivial laws) emerge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .atoms import Jet, Log
from .adjoint import Substitution, formal_lagrangian
from .calculus import (
    Equation,
    PointSymmetry,
    characteristic,
    derivative_table,
    partial_jet,
    reduce_mod,
    substitute_dependent,
    total_derivative,
)
from .errors import UnsupportedInputError
from .expr import DiffExpr, jet, ln


@dataclass(frozen=True)
class Provenance:
    transfer: DiffExpr = DiffExpr.zero()
    sign: int = 1


@dataclass(frozen=True)
class ConservedVector:
    """Density/flux pair (C^t, C^x) with a record of how it was built."""

    c0: DiffExpr
    c1: DiffExpr
    provenance: Provenance = Provenance()

    def __str__(self) -> str:
        return f"C0 = {self.c0}; C1 = {self.c1}"


def ibragimov_vector(eq: Equation, sym: PointSymmetry) -> ConservedVector:
    """Raw conserved vector of the formal Lagrangian; v is retained."""
    lagrangian = formal_lagrangian(eq)
    n = eq.order
    w = characteristic(sym)
    c0 = sym.tau * lagrangian + w * partial_jet(lagrangian, Jet("u", 1, 0))
    dw = derivative_table(w)
    dl = {
        m: derivative_table(partial_jet(lagrangian, Jet("u", 0, m)))
        for m in range(1, n + 1)
    }

    def flux_pieces() -> Iterator[DiffExpr]:
        yield sym.xi * lagrangian
        for k in range(n):
            derivs = (dl[m](0, m - k - 1) for m in range(k + 1, n + 1))
            bracket = DiffExpr.sum(-d if i % 2 else d for i, d in enumerate(derivs))
            if not bracket.is_zero:
                yield dw(0, k) * bracket

    c1 = DiffExpr.sum(flux_pieces())
    return ConservedVector(c0, c1)


def localize(cv: ConservedVector, sub: Substitution) -> ConservedVector:
    """Substitute v = phi into both components.

    The result is conserved on F when phi passes nsa_check;
    verify_divergence decides in every case.
    """
    return ConservedVector(
        substitute_dependent(cv.c0, "v", sub.phi),
        substitute_dependent(cv.c1, "v", sub.phi),
        cv.provenance,
    )


def _top_x_order(factors) -> int:
    top = 0
    for atom, _exp in factors:
        if isinstance(atom, Jet) and atom.t_order == 0:
            top = max(top, atom.x_order)
    return top


def _transfer_candidate(factors, coeff):
    """Integration-by-parts step for one monomial, or None.

    Handles terms linear in their highest pure x-derivative u_kx whose
    remaining jet content stops at order k-1; the order k-1 power combines
    by the power rule, with exponent -1 producing a logarithm.  Returns
    h_piece = rest * integrated, where rest is the monomial without its
    u_kx and u_(k-1)x factors; the monomial minus D_x(h_piece) is then
    -D_x(rest) * integrated, which stops at order k-1.
    """
    jets_x = {}
    for atom, exp in factors:
        if isinstance(atom, Jet):
            if atom.dep != "u" or atom.t_order:
                return None
            jets_x[atom.x_order] = exp
        if isinstance(atom, Log):
            for inner in atom.arg.atoms():
                if isinstance(inner, Jet) and inner.t_order:
                    return None
    k = max((o for o in jets_x if o >= 1), default=0)
    if not k or jets_x[k] != 1:
        return None
    m = jets_x.get(k - 1, 0)
    top = Jet("u", 0, k)
    slot = Jet("u", 0, k - 1)
    kept = tuple(it for it in factors if it[0] != top and it[0] != slot)
    # every other jet has x-order at most k-2: k is the highest, k-1 the slot
    for atom, _exp in kept:
        if isinstance(atom, Log):
            inner_order = max(
                (
                    a.x_order
                    for a in atom.arg.atoms()
                    if isinstance(a, Jet)
                ),
                default=0,
            )
            if inner_order > k - 2:
                return None
    if m == -1:
        integrated = ln(jet("u", 0, k - 1))
    else:
        integrated = jet("u", 0, k - 1) ** (m + 1) * Fraction(1, m + 1)
    return DiffExpr._raw(((kept, coeff),)) * integrated


def density_normalize(cv: ConservedVector, eq: Equation) -> ConservedVector:
    """Move total x-derivatives out of the density.

    Finds h with C0 = A0 + D_x(h) and returns (A0, C1 + D_t(h)); the pair
    is then rescaled by -1 if needed so the leading monomial of A0 has a
    positive coefficient.  Each step takes the term of highest pure
    x-order that ``_transfer_candidate`` accepts and subtracts D_x of its
    h_piece from the density.  The transfer h and the sign are folded into the
    provenance, so against the vector first normalized sign*C0 - A0 =
    D_x(transfer) and A1 - sign*C1 = D_t(transfer) hold exactly, also after
    repeated normalization.  When no term is transferable the components
    are returned unchanged.
    """
    for atom in cv.c0.atoms():
        if isinstance(atom, Jet) and atom.dep == "v":
            raise UnsupportedInputError("normalize a localized (v-free) vector")
    work = cv.c0
    h_pieces = []
    seen = {work}
    while True:
        # stable on the canonical order of .terms, which breaks the ties
        ordered = sorted(work.terms, key=lambda it: -_top_x_order(it[0]))
        for factors, coeff in ordered:
            h_piece = _transfer_candidate(factors, coeff)
            if h_piece is not None:
                break
        else:
            break
        work = work - total_derivative(h_piece, "x")
        h_pieces.append(h_piece)
        if work in seen:
            break
        seen.add(work)
    h = DiffExpr.sum(h_pieces)
    a1 = cv.c1 + total_derivative(h, "t")
    sign = 1
    if work.leading_coeff() < 0:
        sign = -1
        work, a1, h = -work, -a1, -h
    transfer = sign * cv.provenance.transfer + h
    return ConservedVector(
        work, a1, Provenance(transfer, sign * cv.provenance.sign)
    )


def verify_divergence(cv: ConservedVector, eqs: Union[Equation, list]) -> DiffExpr:
    """D_t C0 + D_x C1 reduced modulo the equations; zero certifies."""
    divergence = total_derivative(cv.c0, "t") + total_derivative(cv.c1, "x")
    return reduce_mod(divergence, eqs)


def is_trivial(cv: ConservedVector, eq: Equation) -> bool:
    """True when the normalized density vanishes and the flux is x-constant
    on solutions."""
    return is_trivial_normalized(density_normalize(cv, eq), eq)


def is_trivial_normalized(normalized: ConservedVector, eq: Equation) -> bool:
    """is_trivial for a vector that density_normalize already returned."""
    if not reduce_mod(normalized.c0, eq).is_zero:
        return False
    flux_div = total_derivative(normalized.c1, "x")
    return reduce_mod(flux_div, eq).is_zero
