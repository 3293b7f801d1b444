"""Conserved vectors from symmetries of evolution equations.

For an equation F = u_t + H(u, u_x, ..., u_nx) = 0 of order n with formal
Lagrangian L = v*F, every point symmetry (tau, xi, eta) yields a conserved
vector

    C^t = tau*L + W * dL/du_t,
    C^x = xi*L + sum_{k<n} D_x^k(W) * B_k,

with characteristic W = eta - tau*u_t - xi*u_x and brackets B_k, the
alternating sums of D_x^(m-k-1) dL/du_mx over k < m <= n.  These are
the x-brackets A_(k+1) of the Lagrangian, A_k = dL/du_kx - D_x A_(k+1),
which the equation builds once (Equation.lagrangian_brackets; A_0 gives
its adjoint as well).  The raw components retain v and
vanish in divergence against the pair (F, F*).  localize only substitutes
v = phi(x, t, u), and verify_divergence certifies the result: it is
conserved on F alone when phi passes nsa_check.  A density normalization
step moves total x-derivatives from C^t into the flux.  is_trivial needs
no such step: a v-free density is a total x-derivative exactly when its
Euler operator vanishes (Olver, Applications of Lie Groups to
Differential Equations, ch. 4).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .atoms import Jet, Log
from .adjoint import Substitution
from .calculus import (
    Equation,
    PointSymmetry,
    characteristic,
    derivative,
    euler,
    formal_lagrangian,
    reduce_mod,
    substitute_dependent,
    total_derivative,
)
from .errors import UnsupportedInputError
from .expr import DiffExpr, jet, ln
from .record import Record


class Provenance(Record):
    _fields = ("transfer", "sign")
    _defaults = {"transfer": DiffExpr.zero(), "sign": 1}


class ConservedVector(Record):
    """Density/flux pair (C^t, C^x) with a record of how it was built."""

    _fields = ("c0", "c1", "provenance")
    _defaults = {"provenance": Provenance()}

    def __str__(self) -> str:
        return f"c0 = {self.c0}; c1 = {self.c1}"


def ibragimov_vector(eq: Equation, sym: PointSymmetry) -> ConservedVector:
    """Raw conserved vector of the formal Lagrangian; v is retained.

    dL/du_t = v, since u_t is the bare leading term of F, and the flux
    brackets B_k are the equation's Lagrangian x-brackets A_(k+1)."""
    lagrangian = formal_lagrangian(eq)
    w = characteristic(sym)
    c0 = sym.tau * lagrangian + w * jet("v")
    dw = {(0, 0): w}
    pieces = [
        derivative(dw, 0, k) * b
        for k, b in enumerate(eq.lagrangian_brackets[1:])
        if b
    ]
    return ConservedVector(c0, DiffExpr.sum([sym.xi * lagrangian, *pieces]))


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


def _transfer_candidate(factors, coeff, k: int):
    """Integration-by-parts step for one monomial at x-order k, or None.

    Handles terms whose highest pure x-derivative is u_kx, linear in it,
    and whose remaining jet content stops at order k-1; the order k-1
    power combines by the power rule, with exponent -1 producing a
    logarithm.  Returns h_piece = rest * integrated, where rest is the
    monomial without its u_kx and u_(k-1)x factors; the monomial minus
    D_x(h_piece) is then -D_x(rest) * integrated, which stops at order k-1.
    """
    jets_x = {}
    for atom, exp in factors:
        if isinstance(atom, Jet):
            if atom.dep != "u" or atom.t_order:
                return None
            jets_x[atom.x_order] = exp
        # rest keeps every ln, so its jets must stop at order k-2 too
        elif isinstance(atom, Log) and (
            atom.arg.max_order() > k - 2
            or any(j.t_order for j in atom.arg.jets())
        ):
            return None
    if jets_x.get(k) != 1 or max(jets_x) != k:
        return None
    m = jets_x.get(k - 1, 0)
    top = Jet("u", 0, k)
    slot = Jet("u", 0, k - 1)
    kept = tuple(it for it in factors if it[0] != top and it[0] != slot)
    if m == -1:
        integrated = ln(jet("u", 0, k - 1))
    else:
        integrated = jet("u", 0, k - 1) ** (m + 1) * Fraction(1, m + 1)
    return DiffExpr._raw(((kept, coeff),)) * integrated


def density_normalize(cv: ConservedVector, eq: Equation) -> ConservedVector:
    """Move total x-derivatives out of the density.

    Finds h with C0 = A0 + D_x(h) and returns (A0, C1 + D_t(h)); the pair
    is then rescaled by -1 if needed so the leading monomial of A0 has a
    positive coefficient.  Levels k run from the highest x-order down to
    1; at each, D_x of the summed h_pieces of the terms that
    ``_transfer_candidate`` accepts at k is subtracted once.  This adds
    terms below k only (rest stops at order k-2, so D_x(rest) times
    u_(k-1)^(m+1), or times ln(u_(k-1)), stays below k) and touches no
    other level-k term, so the result is that of moving one term at a
    time.  The transfer h and the sign are folded into the provenance, so
    against the vector first normalized sign*C0 - A0 = D_x(transfer) and
    A1 - sign*C1 = D_t(transfer) hold exactly, also after repeated
    normalization.  When no term is transferable the components are
    returned unchanged.
    """
    if cv.c0.jets("v"):
        raise UnsupportedInputError("normalize a localized (v-free) vector")
    work = cv.c0
    transfers = []
    # the highest jet order bounds the highest pure x-order
    for level in range(work.max_order("u"), 0, -1):
        pieces = [
            h_piece
            for factors, coeff in work.terms
            if (h_piece := _transfer_candidate(factors, coeff, level)) is not None
        ]
        if pieces:
            moved = DiffExpr.sum(pieces)
            work = work - total_derivative(moved, "x")
            transfers.append(moved)
    h = DiffExpr.sum(transfers)
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
    """True when euler(C0) = 0 and D_t C0 + D_x C1 = 0 modulo F, that is when
    C0 = D_x(h) on solutions (Olver, Applications of Lie Groups to
    Differential Equations, ch. 4) and C1 + D_t(h) is constant in x."""
    if cv.c0.jets("v"):
        raise UnsupportedInputError("decide triviality of a localized (v-free) vector")
    return euler(reduce_mod(cv.c0, eq)).is_zero and verify_divergence(cv, eq).is_zero
