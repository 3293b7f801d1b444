"""Differential operations on canonical expressions.

Total derivatives treat jets as functions of (t, x) and chain through
undetermined functions of (x, t, u); explicit partial derivatives treat
every jet coordinate as independent.  On top of these live the variational
(Euler-Lagrange) operator, substitution of a dependent variable by an
expression in (x, t, u), reduction modulo evolution equations, and the
prolonged action of a point symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Callable, Iterator, Optional, Union

from .atoms import Atom, CoeffFn, IndepVar, Jet, Log, Param, UnknownFn
from .errors import (
    EquationFormError,
    ExpressionError,
    SubstitutionError,
    UnsupportedInputError,
)
from .expr import DiffExpr, _accumulate_product, as_expr, jet

_ONE = DiffExpr.one()
_U = Jet("u")


def _leibniz(e: DiffExpr, atom_rule: Callable[[Atom], Optional[DiffExpr]]) -> DiffExpr:
    """Extend a derivation on atoms to the whole algebra.

    ``atom_rule`` returns the derivative of a single atom (None meaning
    zero).  The power rule handles integer exponents of either sign, and
    ln(g) differentiates to D(g) * g^-1 under the same rule.  Every
    monomial exp*coeff*rest*D(atom) goes into one dict, normalized once.
    """
    data: dict = {}
    for factors, coeff in e.terms:
        for i, (atom, exp) in enumerate(factors):
            if isinstance(atom, Log):
                darg = _leibniz(atom.arg, atom_rule)
                da = None if darg.is_zero else darg * atom.arg**-1
            else:
                da = atom_rule(atom)
            if da is None or da.is_zero:
                continue
            lowered = ((atom, exp - 1),) if exp != 1 else ()
            rest = factors[:i] + lowered + factors[i + 1:]
            _accumulate_product(data, rest, coeff * exp, da.terms)
    return DiffExpr._from_dict(data)


def _coeff_dt(atom: CoeffFn) -> DiffExpr:
    """D_t of a coefficient function: its declared rule, where the bare
    CoeffFn(name) stands for the atom itself, or the next prime."""
    if atom.rule is not None:
        return atom.rule.subs_atoms({CoeffFn(atom.name): DiffExpr.from_atom(atom)})
    return DiffExpr.from_atom(CoeffFn(atom.name, atom.primes + 1))


def _total_atom_rule(direction: str) -> Callable[[Atom], Optional[DiffExpr]]:
    def rule(atom: Atom) -> Optional[DiffExpr]:
        if isinstance(atom, IndepVar):
            return _ONE if atom.name == direction else None
        if isinstance(atom, Param):
            return None
        if isinstance(atom, CoeffFn):
            return None if direction == "x" else _coeff_dt(atom)
        if isinstance(atom, Jet):
            return DiffExpr.from_atom(atom.bump(direction))
        if isinstance(atom, UnknownFn):
            du = jet("u", 1 if direction == "t" else 0, 1 if direction == "x" else 0)
            return DiffExpr.from_atom(atom.bump(direction)) + DiffExpr.from_atom(
                atom.bump("u")
            ) * du
        raise ExpressionError(f"no derivative rule for {atom!r}")

    return rule


def total_derivative(e: Union[DiffExpr, int], direction: str, order: int = 1) -> DiffExpr:
    """Total derivative D_t or D_x, applied ``order`` times."""
    if direction not in ("t", "x"):
        raise ExpressionError(f"unknown direction {direction!r}")
    out = as_expr(e)
    for _ in range(order):
        out = _leibniz(out, _total_atom_rule(direction))
    return out


def derivative_table(base: DiffExpr) -> Callable[[int, int], DiffExpr]:
    """Memoized (m, k) -> D_t^m D_x^k base.

    D_x steps are taken first; D_t and D_x commute on this algebra, so the
    order cannot change a result.
    """

    @cache
    def deriv(m: int, k: int) -> DiffExpr:
        if m:
            return total_derivative(deriv(m - 1, k), "t")
        if k:
            return total_derivative(deriv(0, k - 1), "x")
        return base

    return deriv


def partial_jet(e: DiffExpr, coordinate: Jet) -> DiffExpr:
    """Explicit partial derivative with respect to one jet coordinate.

    Undetermined functions chain through u when the coordinate is the
    order-zero jet of u; all other jets are treated as independent.
    """

    def rule(atom: Atom) -> Optional[DiffExpr]:
        if atom == coordinate:
            return _ONE
        if isinstance(atom, UnknownFn) and coordinate == Jet("u", 0, 0):
            return DiffExpr.from_atom(atom.bump("u"))
        return None

    return _leibniz(e, rule)


def partial_coord(e: DiffExpr, coordinate: str) -> DiffExpr:
    """Explicit partial derivative along x, t or u for expressions in
    (x, t, u): jets of positive order are independent coordinates here."""
    if coordinate == "u":
        return partial_jet(e, Jet("u", 0, 0))
    if coordinate not in ("t", "x"):
        raise ExpressionError(f"unknown coordinate {coordinate!r}")

    def rule(atom: Atom) -> Optional[DiffExpr]:
        if isinstance(atom, IndepVar):
            return _ONE if atom.name == coordinate else None
        if isinstance(atom, CoeffFn):
            return None if coordinate == "x" else _coeff_dt(atom)
        if isinstance(atom, UnknownFn):
            return DiffExpr.from_atom(atom.bump(coordinate))
        return None

    return _leibniz(e, rule)


def jet_partials(e: DiffExpr, dep: str) -> Iterator[tuple[Jet, DiffExpr]]:
    """Nonzero (J, de/du_J) over the jets of ``dep`` in e and ``dep`` itself,
    in atom order."""
    for j in sorted(e.jets(dep) | {Jet(dep, 0, 0)}):
        p = partial_jet(e, j)
        if not p.is_zero:
            yield j, p


def euler(e: DiffExpr, dep: str = "u") -> DiffExpr:
    """Variational derivative delta e / delta dep.

    Sum over every jet coordinate of ``dep`` present (each mixed jet once):
    (-1)^(m+k) D_t^m D_x^k (de/du_{t^m x^k}), including the order-zero term.
    """

    def term(j: Jet, p: DiffExpr) -> DiffExpr:
        p = total_derivative(total_derivative(p, "t", j.t_order), "x", j.x_order)
        return -p if j.order() % 2 else p

    return DiffExpr.sum(term(j, p) for j, p in jet_partials(e, dep))


def substitute_dependent(e: DiffExpr, dep: str, phi: DiffExpr) -> DiffExpr:
    """Replace every jet of ``dep`` by the matching total derivative of phi.

    ``phi`` must not depend on ``dep``.  Negative powers of substituted jets
    require the corresponding derivative to be a single monomial.
    """
    phi = as_expr(phi)
    if not phi.free_of_dep(dep):
        raise SubstitutionError(f"substitution for {dep} must not depend on {dep}")
    deriv = derivative_table(phi)
    return e.subs_atoms({j: deriv(j.t_order, j.x_order) for j in e.jets(dep)})


def substitute_symbols(e: DiffExpr, values: dict) -> DiffExpr:
    """Instantiate parameters and coefficient functions by name.

    A coefficient function carrying k primes maps to the k-th t-derivative
    of its assigned value, so a(t) := 1 sends a' to 0 consistently.
    """
    exprs = {name: as_expr(v) for name, v in values.items()}
    mapping: dict[Atom, DiffExpr] = {}
    for atom in set(e.atoms()):
        if isinstance(atom, Param) and atom.name in exprs:
            mapping[atom] = exprs[atom.name]
        elif isinstance(atom, CoeffFn) and atom.name in exprs:
            mapping[atom] = total_derivative(exprs[atom.name], "t", atom.primes)
    return e.subs_atoms(mapping)


@dataclass(frozen=True)
class Equation:
    """Evolution equation lhs = 0 with lhs = dep_t + H(...).

    The t-derivative of ``dep`` must occur exactly once, as a bare monomial
    with coefficient 1; H carries no t-derivatives of ``dep``.  For dep = u
    the lhs must not involve v.
    """

    lhs: DiffExpr
    dep: str = "u"

    def __post_init__(self):
        lhs = self.lhs
        if not isinstance(lhs, DiffExpr) or lhs.is_zero:
            raise EquationFormError("equation left side must be a nonzero expression")
        dt = Jet(self.dep, 1, 0)
        for atom in lhs.atoms():
            if isinstance(atom, Jet) and atom.dep == self.dep and atom.t_order >= 1:
                if atom != dt:
                    raise UnsupportedInputError(
                        f"derivative {atom} is outside the supported "
                        f"evolution class"
                    )
            if self.dep == "u" and isinstance(atom, Jet) and atom.dep == "v":
                raise EquationFormError("u-equation must not involve v")
            if isinstance(atom, UnknownFn):
                raise EquationFormError("equations must not contain unknown functions")
        seen_plain = False
        for factors, coeff in lhs.terms:
            if all(atom != dt for atom, _exp in factors):
                continue
            if len(factors) != 1:
                raise EquationFormError(
                    f"t-derivative {dt} may only appear as the bare leading term"
                )
            if factors[0][1] != 1 or coeff != 1:
                raise EquationFormError(f"coefficient of {dt} must be exactly 1")
            seen_plain = True
        if not seen_plain:
            raise EquationFormError(f"equation must contain {dt}")

    @cached_property
    def adjoint(self) -> DiffExpr:
        """F* = delta(v*lhs)/delta u of a u-equation, computed once per
        Equation value.

        Stored outside the dataclass fields, so equality and hashing are
        unaffected.
        """
        if self.dep != "u":
            raise UnsupportedInputError("formal Lagrangian is defined for u-equations")
        return euler(jet("v") * self.lhs, "u")

    @property
    def solved_rhs(self) -> DiffExpr:
        """dep_t as an expression in the remaining variables (i.e. -H)."""
        return jet(self.dep, 1, 0) - self.lhs

    @property
    def order(self) -> int:
        return self.lhs.max_order(self.dep)

    def __str__(self) -> str:
        return f"{self.lhs} = 0"


_SYMMETRY_COMPONENTS = ("tau", "xi", "eta")


@dataclass(frozen=True)
class PointSymmetry:
    """Generator tau d_t + xi d_x + eta d_u with coefficients in (x, t, u)."""

    tau: DiffExpr
    xi: DiffExpr
    eta: DiffExpr
    name: str = ""

    def __post_init__(self):
        for label in _SYMMETRY_COMPONENTS:
            _require_point_function(
                getattr(self, label), f"symmetry component {label}",
                UnsupportedInputError,
            )

    def __str__(self) -> str:
        return f"tau = {self.tau}; xi = {self.xi}; eta = {self.eta}"


def _require_point_function(e: DiffExpr, what: str, error: type) -> None:
    """Raise ``error`` about ``what`` unless ``e`` is an expression in
    x, t, u only: no jet other than u, and no phi or partial of it."""
    if not isinstance(e, DiffExpr):
        raise error(f"{what} must be an expression, not {type(e).__name__}")
    for atom in e.atoms():
        if isinstance(atom, (Jet, UnknownFn)) and atom != _U:
            raise error(f"{what} may depend on x, t, u only (found {atom})")


def characteristic(sym: PointSymmetry) -> DiffExpr:
    """Evolutionary characteristic W = eta - tau*u_t - xi*u_x."""
    return sym.eta - sym.tau * jet("u", 1, 0) - sym.xi * jet("u", 0, 1)


def reduce_mod(e: Union[DiffExpr, int], eqs) -> DiffExpr:
    """Eliminate t-derivatives of governed dependents using the equations.

    Each round rewrites every u_{t^m x^k} with m >= 1 as D_x^k D_t^(m-1) of
    the solved right side, until none remain; a round lowers the highest
    t-order by one.
    """
    if isinstance(eqs, Equation):
        eqs = [eqs]
    tables: dict = {}
    for eq in eqs:
        if eq.dep in tables:
            raise UnsupportedInputError(f"two equations govern {eq.dep}")
        tables[eq.dep] = derivative_table(eq.solved_rhs)
    out = as_expr(e)
    while True:
        mapping = {
            j: tables[j.dep](j.t_order - 1, j.x_order)
            for j in out.jets()
            if j.dep in tables and j.t_order >= 1
        }
        if not mapping:
            return out
        out = out.subs_atoms(mapping)


def prolonged_action(sym: PointSymmetry, eq: Equation) -> DiffExpr:
    """Prolonged symmetry action on the equation, reduced on solutions.

    Computes sum_J D_J(W) dF/du_J + tau D_t F + xi D_x F and reduces it
    modulo the equation; the result is zero exactly when the generator is
    a point symmetry.
    """
    if eq.dep != "u":
        raise UnsupportedInputError("symmetry action is defined for u-equations")
    f = eq.lhs
    dw = derivative_table(characteristic(sym))
    action = DiffExpr.sum(
        chain(
            (sym.tau * total_derivative(f, "t"), sym.xi * total_derivative(f, "x")),
            (dw(j.t_order, j.x_order) * p for j, p in jet_partials(f, "u")),
        )
    )
    return reduce_mod(action, [eq])
