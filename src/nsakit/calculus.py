"""Differential operations on canonical expressions.

Explicit partial derivatives treat every jet coordinate as independent,
with one rule per atom kind.  The total derivative is D = the explicit
partial + the jet chain: a jet goes to the next jet, and an undetermined
function of (x, t, u) adds phi_u * u_t or phi_u * u_x.  On top of these
live the variational (Euler-Lagrange) operator, substitution of a
dependent variable by an expression in (x, t, u), reduction modulo
evolution equations, and the prolonged action of a point symmetry.

Two operators apply a characteristic through total derivatives:
``apply_operator`` takes sum c * D_t^m D_x^k q over a table of
coefficients, and ``linearization`` is the Frechet derivative
e_*(q) = sum_J de/du_J * D^J q built on it (Olver, Applications of Lie
Groups to Differential Equations, ch. 5).  The symmetry action, the
self-adjointness residual and Ibragimov's flux all go through them.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Callable, Iterator, Optional, Union

from .atoms import Atom, CoeffFn, IndepVar, Jet, Log, Param, UnknownFn
from .errors import (
    EquationFormError,
    ExpressionError,
    SubstitutionError,
    UnsupportedInputError,
)
from .expr import DiffExpr, _accumulate_product, as_expr, jet
from .record import Record

_ZERO = DiffExpr.zero()
_ONE = DiffExpr.one()
_U = Jet("u")


def _leibniz(e: DiffExpr, atom_rule: Callable[[Atom], Optional[DiffExpr]]) -> DiffExpr:
    """Extend a derivation on atoms to the whole algebra.

    ``atom_rule`` returns the derivative of a single atom (None meaning
    zero).  The power rule handles integer exponents of either sign, and
    ln(g) differentiates to D(g) * g^-1 under the same rule, which needs g
    to be a single monomial unless D(g) is zero.  Every monomial
    exp*coeff*rest*D(atom) goes into one dict, normalized once.
    """
    data: dict = {}
    for factors, coeff in e.terms:
        for i, (atom, exp) in enumerate(factors):
            if isinstance(atom, Log):
                darg = _leibniz(atom.arg, atom_rule)
                if darg and len(atom.arg.terms) > 1:
                    raise UnsupportedInputError(
                        f"cannot differentiate {atom}: its argument is a sum"
                    )
                da = None if darg.is_zero else darg * atom.arg**-1
            else:
                da = atom_rule(atom)
            if da is None or da.is_zero:
                continue
            if exp == 1:
                rest, scale = factors[:i] + factors[i + 1:], coeff
            else:
                rest = factors[:i] + ((atom, exp - 1),) + factors[i + 1:]
                scale = coeff * exp
            _accumulate_product(data, rest, scale, da.terms)
    return DiffExpr._from_dict(data)


@cache
def _partial_rule(by: Union[str, Jet]) -> Callable[[Atom], Optional[DiffExpr]]:
    """Explicit partial derivative along ``by`` ("t", "x" or a jet) on atoms:
    a jet is 1 when it is ``by``, phi goes to its partial along t, x or the
    jet u, and a coefficient function of t goes along t to its declared rule
    (the bare CoeffFn(name) in it stands for the atom) or its next prime.
    Each atom's result is kept: atoms are hashable values, so the memo is
    bounded by the number of distinct atoms."""
    phi_coord = "u" if by == _U else by if isinstance(by, str) else None

    @cache
    def rule(atom: Atom) -> Optional[DiffExpr]:
        if isinstance(atom, Jet):
            return _ONE if atom == by else None
        if isinstance(atom, UnknownFn):
            return phi_coord and DiffExpr.from_atom(atom.bump(phi_coord))
        if isinstance(atom, IndepVar):
            return _ONE if atom.name == by else None
        if isinstance(atom, CoeffFn) and by == "t":
            if atom.rule is None:
                return DiffExpr.from_atom(CoeffFn(atom.name, atom.primes + 1))
            return atom.rule.subs_atoms({CoeffFn(atom.name): DiffExpr.from_atom(atom)})
        return None

    return rule


@cache
def _total_rule(direction: str) -> Callable[[Atom], Optional[DiffExpr]]:
    """D = the explicit partial + the jet chain, on atoms: a jet goes to the
    next jet, and phi adds phi_u * u_t or phi_u * u_x; kept per atom, as
    in ``_partial_rule``."""
    partial, partial_u = _partial_rule(direction), _partial_rule(_U)
    du = DiffExpr.from_atom(_U.bump(direction))

    @cache
    def rule(atom: Atom) -> Optional[DiffExpr]:
        if isinstance(atom, Jet):
            return DiffExpr.from_atom(atom.bump(direction))
        if isinstance(atom, UnknownFn):
            return partial(atom) + partial_u(atom) * du
        return partial(atom)

    return rule


def total_derivative(
    e: Union[DiffExpr, int], direction: str, order: int = 1
) -> DiffExpr:
    """Total derivative D_t or D_x, applied ``order`` times."""
    if direction not in ("t", "x"):
        raise ExpressionError(f"unknown direction {direction!r}")
    out = as_expr(e)
    for _ in range(order):
        out = _leibniz(out, _total_rule(direction))
    return out


def derivative(table: dict, m: int, k: int) -> DiffExpr:
    """D_t^m D_x^k of ``table[0, 0]``, kept in ``table``.

    ``table`` is plain data, a dict from (m, k) to the derivative, so a
    table stored on an Equation pickles and copies with it.  D_x steps are
    taken first; D_t and D_x commute on this algebra, so the order cannot
    change a result.
    """
    d = table.get((m, k))
    if d is None:
        if m:
            d = total_derivative(derivative(table, m - 1, k), "t")
        else:
            d = total_derivative(derivative(table, 0, k - 1), "x")
        table[m, k] = d
    return d


def apply_operator(coeffs: dict, q: Union[DiffExpr, int]) -> DiffExpr:
    """sum c * D_t^m D_x^k q over the nonzero c = coeffs[m, k], from one
    ``derivative`` table of q."""
    table = {(0, 0): as_expr(q)}
    return DiffExpr.sum(
        c * derivative(table, m, k) for (m, k), c in coeffs.items() if c
    )


def partial_jet(e: DiffExpr, coordinate: Jet) -> DiffExpr:
    """Explicit partial derivative with respect to one jet coordinate.

    Undetermined functions chain through u when the coordinate is the
    order-zero jet of u; all other jets are treated as independent.
    """
    return _leibniz(e, _partial_rule(coordinate))


def partial_coord(e: DiffExpr, coordinate: str) -> DiffExpr:
    """Explicit partial derivative along x, t or u for expressions in
    (x, t, u): jets of positive order are independent coordinates here."""
    if coordinate not in ("t", "x", "u"):
        raise ExpressionError(f"unknown coordinate {coordinate!r}")
    return _leibniz(e, _partial_rule(_U if coordinate == "u" else coordinate))


def jet_partials(e: DiffExpr, dep: str) -> Iterator[tuple[Jet, DiffExpr]]:
    """Nonzero (J, de/du_J) over the jets of ``dep`` in e and ``dep`` itself,
    in atom order."""
    for j in sorted(e.jets(dep) | {Jet(dep, 0, 0)}):
        p = partial_jet(e, j)
        if not p.is_zero:
            yield j, p


def linearization(e: DiffExpr, q: Union[DiffExpr, int]) -> DiffExpr:
    """The linearization e_*(q) = sum_J de/du_J * D^J q over the jets of u
    in e, u included."""
    coeffs = {(j.t_order, j.x_order): p for j, p in jet_partials(e, "u")}
    return apply_operator(coeffs, q)


def brackets(partials: dict[int, DiffExpr], direction: str) -> list[DiffExpr]:
    """[A_0, ..., A_n] for {k: p_k} (a missing k is zero): A_n = p_n and
    A_k = p_k - D(A_(k+1)), D the total derivative along ``direction``, so
    A_k = sum_(j>=k) (-D)^(j-k) p_j at one derivative per level."""
    top = max(partials, default=0)
    out = [partials.get(top, _ZERO)]
    for k in reversed(range(top)):
        out.append(partials.get(k, _ZERO) - total_derivative(out[-1], direction))
    return out[::-1]


def euler(e: DiffExpr, dep: str = "u") -> DiffExpr:
    """Variational derivative delta e / delta dep: the sum over every jet of
    ``dep`` present, dep included, of (-1)^(m+k) D_t^m D_x^k de/du_{t^m x^k},
    taken row by row: the x-bracket A_0 of each t-order's partials, then
    the t-bracket A_0 of those rows."""
    rows: dict[int, dict[int, DiffExpr]] = {}
    for j, p in jet_partials(e, dep):
        rows.setdefault(j.t_order, {})[j.x_order] = p
    return brackets({m: brackets(row, "x")[0] for m, row in rows.items()}, "t")[0]


def substitute_dependent(e: DiffExpr, dep: str, phi: DiffExpr) -> DiffExpr:
    """Replace every jet of ``dep`` by the matching total derivative of phi.

    ``phi`` must not depend on ``dep``.  Negative powers of substituted jets
    require the corresponding derivative to be a single monomial.
    """
    phi = as_expr(phi)
    if not phi.free_of_dep(dep):
        raise SubstitutionError(f"substitution for {dep} must not depend on {dep}")
    table = {(0, 0): phi}
    return e.subs_atoms(
        {j: derivative(table, j.t_order, j.x_order) for j in e.jets(dep)}
    )


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


class Equation(Record):
    """Evolution equation lhs = 0 with lhs = dep_t + H(...).

    The t-derivative of ``dep`` must occur exactly once, as a bare monomial
    with coefficient 1; H carries no t-derivatives of ``dep``, not even
    inside a ln.  For dep = u the lhs must not involve v.
    """

    _fields = ("lhs", "dep")

    def __init__(self, lhs: DiffExpr, dep: str = "u"):
        if not isinstance(lhs, DiffExpr) or lhs.is_zero:
            raise EquationFormError("equation left side must be a nonzero expression")
        dt = Jet(dep, 1, 0)
        for atom in lhs.atoms():
            if isinstance(atom, Jet) and atom.dep == dep and atom.t_order >= 1:
                if atom != dt:
                    raise UnsupportedInputError(
                        f"derivative {atom} is outside the supported "
                        f"evolution class"
                    )
            if dep == "u" and isinstance(atom, Jet) and atom.dep == "v":
                raise EquationFormError("u-equation must not involve v")
            if isinstance(atom, UnknownFn):
                raise EquationFormError("equations must not contain unknown functions")
        seen_plain = False
        for factors, coeff in lhs.terms:
            if dt not in DiffExpr._raw(((factors, coeff),)).atoms():
                continue
            if len(factors) != 1 or factors[0][0] != dt:
                raise EquationFormError(
                    f"t-derivative {dt} may only appear as the bare leading term"
                )
            if factors[0][1] != 1 or coeff != 1:
                raise EquationFormError(f"coefficient of {dt} must be exactly 1")
            seen_plain = True
        if not seen_plain:
            raise EquationFormError(f"equation must contain {dt}")
        super().__init__(lhs, dep)

    # The cached properties below are computed once per Equation and stored
    # in __dict__ outside the record's fields, so equality, hashing and repr
    # ignore them; each is plain data, so the equation still pickles.

    @cached_property
    def lagrangian_brackets(self) -> tuple[DiffExpr, ...]:
        """The x-brackets (A_0, ..., A_n) of the formal Lagrangian L = v*F
        over its partials dL/du_kx, as ``brackets`` builds them."""
        row = {
            j.x_order: p
            for j, p in jet_partials(formal_lagrangian(self), "u")
            if not j.t_order
        }
        return tuple(brackets(row, "x"))

    @cached_property
    def adjoint(self) -> DiffExpr:
        """F* = delta L / delta u of the formal Lagrangian.  L has one jet
        with a t-derivative, u_t, and dL/du_t = v, so the Euler operator's
        t-bracket leaves F* = A_0 - v_t."""
        return self.lagrangian_brackets[0] - jet("v", 1, 0)

    @cached_property
    def _rhs_derivatives(self) -> dict:
        """The ``derivative`` table of ``solved_rhs``, shared by every
        reduce_mod on this equation."""
        return {(0, 0): self.solved_rhs}

    @property
    def solved_rhs(self) -> DiffExpr:
        """dep_t as an expression in the remaining variables (i.e. -H)."""
        return jet(self.dep, 1, 0) - self.lhs

    @property
    def order(self) -> int:
        return self.lhs.max_order(self.dep)

    def __str__(self) -> str:
        return f"{self.lhs} = 0"


def formal_lagrangian(eq: Equation) -> DiffExpr:
    """L = v * lhs for a u-equation."""
    if eq.dep != "u":
        raise UnsupportedInputError("formal Lagrangian is defined for u-equations")
    return jet("v") * eq.lhs


class PointSymmetry(Record):
    """Generator tau d_t + xi d_x + eta d_u with coefficients in (x, t, u)."""

    _fields = ("tau", "xi", "eta", "name")

    def __init__(self, tau: DiffExpr, xi: DiffExpr, eta: DiffExpr, name: str = ""):
        for label, component in zip(self._fields, (tau, xi, eta)):
            _require_point_function(
                component, f"symmetry component {label}", UnsupportedInputError
            )
        super().__init__(tau, xi, eta, name)

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
        tables[eq.dep] = eq._rhs_derivatives
    out = as_expr(e)
    while True:
        mapping = {
            j: derivative(tables[j.dep], j.t_order - 1, j.x_order)
            for j in out.jets()
            if j.dep in tables and j.t_order >= 1
        }
        if not mapping:
            return out
        out = out.subs_atoms(mapping)


def prolonged_action(sym: PointSymmetry, eq: Equation) -> DiffExpr:
    """Prolonged symmetry action on the equation, reduced on solutions.

    Computes tau D_t F + xi D_x F + F_*(W), the linearization of F applied
    to the characteristic W, and reduces it modulo the equation; the
    result is zero exactly when the generator is a point symmetry.
    """
    if eq.dep != "u":
        raise UnsupportedInputError("symmetry action is defined for u-equations")
    f = eq.lhs
    action = apply_operator({(1, 0): sym.tau, (0, 1): sym.xi}, f)
    return reduce_mod(action + linearization(f, characteristic(sym)), [eq])
