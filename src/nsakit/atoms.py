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

Every atom is an immutable tuple whose value is its place in the atom
order, so equality, hashing and ordering are those of the tuple.  The
leading tag fixes the order of the classes: IndepVar (0) < Param (1) <
CoeffFn (2) < UnknownFn (3) < Jet (4) < Log (5).  An expression inside an
atom (a rule or a ln argument) compares through ``DiffExpr.__lt__``.
"""

from __future__ import annotations

from operator import itemgetter
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


class Atom(tuple):
    """Common base; each concrete atom below builds its tuple value in
    ``__new__`` and reads its named fields back from it."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def __reduce__(self):
        # copy and pickle restore the value, which was checked when built
        return tuple.__new__, (type(self), tuple(self))


class IndepVar(Atom):
    __slots__ = ()
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        if name not in ("t", "x"):
            raise ExpressionError(f"unknown independent variable {name!r}")
        return tuple.__new__(cls, (0, name))

    def __str__(self) -> str:
        return self.name


class Param(Atom):
    __slots__ = ()
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return tuple.__new__(cls, (1, name))

    def __str__(self) -> str:
        return self.name


class CoeffFn(Atom):
    """Coefficient function of t.

    ``rule`` is the declared t-derivative, or None for the primed-symbol
    chain.  The rule is part of the atom's identity.  Inside a rule the bare
    ``CoeffFn(name)`` stands for the atom itself (e.g. D_t f = p*f/t is
    stored with the rule-less f), so no atom contains itself.
    """

    __slots__ = ()
    name = property(itemgetter(1))
    primes = property(itemgetter(2))

    def __new__(cls, name: str, primes: int = 0, rule: Optional["DiffExpr"] = None):
        if primes < 0:
            raise ExpressionError("negative prime count")
        if rule is None:
            return tuple.__new__(cls, (2, name, primes))
        if primes:
            raise ExpressionError("explicitly ruled functions do not take primes")
        return tuple.__new__(cls, (2, name, primes, rule))

    @property
    def rule(self) -> Optional["DiffExpr"]:
        return self[3] if len(self) > 3 else None

    def __str__(self) -> str:
        return self.name + "'" * self.primes


class UnknownFn(Atom):
    """Partial derivative phi_{t^a x^b u^c} of an undetermined function."""

    __slots__ = ()
    name = property(itemgetter(1))
    t_count = property(itemgetter(3))
    x_count = property(itemgetter(4))
    u_count = property(itemgetter(5))

    def __new__(cls, name: str, t_count: int = 0, x_count: int = 0, u_count: int = 0):
        if min(t_count, x_count, u_count) < 0:
            raise ExpressionError("negative derivative count")
        order = t_count + x_count + u_count
        _check_cap(order, f"partial derivative of {name}")
        return tuple.__new__(cls, (3, name, order, t_count, x_count, u_count))

    def order(self) -> int:
        return self[2]

    def bump(self, coord: str) -> "UnknownFn":
        if coord not in ("t", "x", "u"):
            raise ExpressionError(f"unknown coordinate {coord!r}")
        counts = (n + (c == coord) for n, c in zip(self[3:], "txu"))
        return UnknownFn(self.name, *counts)

    def __str__(self) -> str:
        if not self.order():
            return self.name
        sub = "t" * self.t_count + "x" * self.x_count + "u" * self.u_count
        return f"{self.name}_{sub}"


class Jet(Atom):
    """Jet coordinate; (0, 0) is the dependent variable itself."""

    __slots__ = ()
    t_order = property(itemgetter(1))
    x_order = property(itemgetter(2))
    dep = property(itemgetter(3))

    def __new__(cls, dep: str, t_order: int = 0, x_order: int = 0):
        if dep not in DEPENDENTS:
            raise ExpressionError(f"unknown dependent variable {dep!r}")
        if min(t_order, x_order) < 0:
            raise ExpressionError("negative jet order")
        _check_cap(t_order + x_order, f"jet of {dep}")
        return tuple.__new__(cls, (4, t_order, x_order, dep))

    def order(self) -> int:
        return self[1] + self[2]

    def bump(self, coord: str) -> "Jet":
        if coord == "t":
            return Jet(self.dep, self.t_order + 1, self.x_order)
        if coord == "x":
            return Jet(self.dep, self.t_order, self.x_order + 1)
        raise ExpressionError(f"unknown coordinate {coord!r}")

    def __str__(self) -> str:
        if not self.order():
            return self.dep
        return f"{self.dep}_" + "t" * self.t_order + "x" * self.x_order


class Log(Atom):
    """Opaque ln of a canonical expression.

    No expansion rules are applied; the argument participates in equality
    and ordering, and differentiation produces D(arg) * arg^-1.
    """

    __slots__ = ()
    arg = property(itemgetter(1))

    def __new__(cls, arg: "DiffExpr"):
        return tuple.__new__(cls, (5, arg))

    def __str__(self) -> str:
        return f"ln({self.arg})"
