"""Atomic symbols of the differential algebra.

An atom is one of:

* ``IndepVar`` -- an independent variable, ``t`` or ``x``;
* ``Param``    -- a free constant parameter;
* ``CoeffFn``  -- a coefficient function of ``t`` alone, differentiated
  either through a chain of primed symbols (a, a', a'', ...) or through an
  explicit declared rule (e.g. D_t A = a);
* ``UnknownFn`` -- a partial derivative of an undetermined function of
  ``(x, t, u)``, used when generating determining systems;
* ``Jet``      -- a jet coordinate ``u_{t^m x^k}`` of a dependent variable;
* ``Log``      -- an opaque natural logarithm of a canonical expression.

Atoms are immutable, hashable and totally ordered through ``sort_key``.
The relative order of the classes is fixed: IndepVar < Param < CoeffFn <
UnknownFn < Jet < Log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import ExpressionError, OrderCapError

if TYPE_CHECKING:  # pragma: no cover
    from .expr import DiffExpr

DEPENDENTS = ("u", "v")

# Bound on total jet order: exceeding it raises OrderCapError instead of
# silently truncating.  12 leaves room for the reductions used here on
# equations up to seventh order.
ORDER_CAP = 12


def _check_cap(total: int, what: str) -> None:
    if total > ORDER_CAP:
        raise OrderCapError(f"{what} exceeds the order cap {ORDER_CAP}")


class Atom:
    """Common base; concrete atoms are the frozen dataclasses below."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class IndepVar(Atom):
    name: str

    def __post_init__(self):
        if self.name not in ("t", "x"):
            raise ExpressionError(f"unknown independent variable {self.name!r}")

    def sort_key(self) -> tuple:
        return (0, self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Param(Atom):
    name: str

    def sort_key(self) -> tuple:
        return (1, self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class CoeffFn(Atom):
    """Coefficient function of t.

    ``rule`` is the declared t-derivative, or None for the primed-symbol
    chain.  The rule is part of the atom's identity.  Inside a rule the bare
    ``CoeffFn(name)`` stands for the atom itself (e.g. D_t f = p*f/t is
    stored with the rule-less f), so no atom contains itself.
    """

    name: str
    primes: int = 0
    rule: Optional["DiffExpr"] = None

    def __post_init__(self):
        if self.primes < 0:
            raise ExpressionError("negative prime count")
        if self.rule is not None and self.primes:
            raise ExpressionError("explicitly ruled functions do not take primes")

    def sort_key(self) -> tuple:
        if self.rule is None:
            return (2, self.name, self.primes)
        return (2, self.name, self.primes, self.rule.sort_key())

    def __str__(self) -> str:
        return self.name + "'" * self.primes


@dataclass(frozen=True, slots=True)
class UnknownFn(Atom):
    """Partial derivative phi_{t^a x^b u^c} of an undetermined function."""

    name: str
    t_count: int = 0
    x_count: int = 0
    u_count: int = 0

    def __post_init__(self):
        if min(self.t_count, self.x_count, self.u_count) < 0:
            raise ExpressionError("negative derivative count")
        _check_cap(self.order(), f"partial derivative of {self.name}")

    def order(self) -> int:
        return self.t_count + self.x_count + self.u_count

    def bump(self, coord: str) -> "UnknownFn":
        t, x, u = self.t_count, self.x_count, self.u_count
        if coord == "t":
            t += 1
        elif coord == "x":
            x += 1
        elif coord == "u":
            u += 1
        else:
            raise ExpressionError(f"unknown coordinate {coord!r}")
        return UnknownFn(self.name, t, x, u)

    def sort_key(self) -> tuple:
        return (3, self.name, self.order(), self.t_count, self.x_count, self.u_count)

    def __str__(self) -> str:
        if not self.order():
            return self.name
        sub = "t" * self.t_count + "x" * self.x_count + "u" * self.u_count
        return f"{self.name}_{sub}"


@dataclass(frozen=True, slots=True)
class Jet(Atom):
    """Jet coordinate; (0, 0) is the dependent variable itself."""

    dep: str
    t_order: int = 0
    x_order: int = 0

    def __post_init__(self):
        if self.dep not in DEPENDENTS:
            raise ExpressionError(f"unknown dependent variable {self.dep!r}")
        if min(self.t_order, self.x_order) < 0:
            raise ExpressionError("negative jet order")
        _check_cap(self.order(), f"jet of {self.dep}")

    def order(self) -> int:
        return self.t_order + self.x_order

    def bump(self, coord: str) -> "Jet":
        if coord == "t":
            return Jet(self.dep, self.t_order + 1, self.x_order)
        if coord == "x":
            return Jet(self.dep, self.t_order, self.x_order + 1)
        raise ExpressionError(f"unknown coordinate {coord!r}")

    def sort_key(self) -> tuple:
        return (4, self.t_order, self.x_order, self.dep)

    def __str__(self) -> str:
        if not self.order():
            return self.dep
        return f"{self.dep}_" + "t" * self.t_order + "x" * self.x_order


@dataclass(frozen=True, slots=True)
class Log(Atom):
    """Opaque ln of a canonical expression.

    No expansion rules are applied; the argument participates in equality
    and ordering, and differentiation produces D(arg) * arg^-1.
    """

    arg: "DiffExpr"

    def sort_key(self) -> tuple:
        return (5, self.arg.sort_key())

    def __str__(self) -> str:
        return f"ln({self.arg})"

