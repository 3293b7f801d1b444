"""Canonical expressions of the differential algebra.

A DiffExpr is a finite sum of monomials.  Each monomial is an exact
rational coefficient times a power product of atoms with nonzero integer
exponents (negative exponents allowed).  The zero expression is the empty
sum.  Expressions are normalized on construction and immutable afterwards:
factors are sorted under the fixed atom order, like monomials are merged,
zero coefficients and zero exponents are dropped.  Equality, hashing and
printing are therefore structural and deterministic.

There are no floating point numbers anywhere and no automatic rewriting
beyond ring arithmetic: ln stays opaque, coefficient functions stay
symbolic.  Non-integer exponents and inverses of genuine sums are errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Union

from .atoms import Atom, IndepVar, Jet, Log, Param, UnknownFn
from .errors import CollectError, ExpressionError

Factors = tuple  # tuple[tuple[Atom, int], ...] sorted by atom sort key
Scalar = Union[int, Fraction, "DiffExpr"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _factors_key(factors: Factors) -> tuple:
    return tuple((atom.sort_key(), exp) for atom, exp in factors)


def _sorted_factors(items: Iterable[tuple[Atom, int]]) -> Factors:
    return tuple(sorted(items, key=lambda it: it[0].sort_key()))


@dataclass(frozen=True, slots=True)
class Monomial:
    """One term of a DiffExpr: coefficient times a power product."""

    coeff: Fraction
    factors: Factors

    def as_expr(self) -> "DiffExpr":
        return DiffExpr._raw(((self.factors, self.coeff),))

    def __str__(self) -> str:
        if not self.factors:
            return str(self.coeff)
        parts = []
        for atom, exp in self.factors:
            parts.append(str(atom) if exp == 1 else f"{atom}^{exp}")
        body = "*".join(parts)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return "-" + body
        return f"{self.coeff}*{body}"


class DiffExpr:
    """Normalized sum of monomials; supports +, -, *, /, ** and unary -."""

    __slots__ = ("_terms",)

    def __init__(self):
        raise ExpressionError("use the factory classmethods or arithmetic")

    # construction -----------------------------------------------------

    @classmethod
    def _raw(cls, terms: tuple) -> "DiffExpr":
        e = object.__new__(cls)
        object.__setattr__(e, "_terms", terms)
        return e

    @classmethod
    def _from_dict(cls, data: dict) -> "DiffExpr":
        """The one normalization: drop zero coefficients, sort monomials."""
        items = [(f, c) for f, c in data.items() if c]
        items.sort(key=lambda it: _factors_key(it[0]))
        return cls._raw(tuple(items))

    @classmethod
    def sum(cls, summands: Iterable[Scalar]) -> "DiffExpr":
        """Sum of expressions and rationals, merged and normalized once."""
        data: dict = {}
        for s in summands:
            for f, c in as_expr(s)._terms:
                data[f] = data.get(f, 0) + c
        return cls._from_dict(data)

    @classmethod
    def zero(cls) -> "DiffExpr":
        return _ZERO_EXPR

    @classmethod
    def one(cls) -> "DiffExpr":
        return _ONE_EXPR

    @classmethod
    def number(cls, value: Union[int, Fraction]) -> "DiffExpr":
        q = Fraction(value)
        if not q:
            return _ZERO_EXPR
        return cls._raw((((), q),))

    @classmethod
    def from_atom(cls, atom: Atom, exp: int = 1) -> "DiffExpr":
        if not isinstance(exp, int):
            raise ExpressionError("exponents must be integers")
        if exp == 0:
            return _ONE_EXPR
        return cls._raw(((((atom, exp),), _ONE),))

    # inspection -------------------------------------------------------

    @property
    def terms(self) -> tuple:
        return tuple(Monomial(c, f) for f, c in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def leading_coeff(self) -> Fraction:
        if not self._terms:
            return _ZERO
        return self._terms[0][1]

    def atoms(self, recursive: bool = True) -> Iterator[Atom]:
        """All atoms, descending into ln arguments when recursive."""
        for factors, _ in self._terms:
            for atom, _exp in factors:
                yield atom
                if recursive and isinstance(atom, Log):
                    yield from atom.arg.atoms(recursive=True)

    def jets(self, dep: Optional[str] = None) -> set:
        return {
            a
            for a in self.atoms()
            if isinstance(a, Jet) and (dep is None or a.dep == dep)
        }

    def free_of_dep(self, dep: str) -> bool:
        return not self.jets(dep)

    def max_order(self, dep: Optional[str] = None) -> int:
        return max((j.order() for j in self.jets(dep)), default=0)

    def sort_key(self) -> tuple:
        return tuple(
            (_factors_key(f), (c.numerator, c.denominator)) for f, c in self._terms
        )

    # arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(value) -> Optional["DiffExpr"]:
        if isinstance(value, DiffExpr):
            return value
        if isinstance(value, (int, Fraction)):
            return DiffExpr.number(value)
        return None

    def __add__(self, other) -> "DiffExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DiffExpr.sum((self, o))

    __radd__ = __add__

    def __neg__(self) -> "DiffExpr":
        return DiffExpr._raw(tuple((f, -c) for f, c in self._terms))

    def __sub__(self, other) -> "DiffExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "DiffExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "DiffExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._terms or not o._terms:
            return _ZERO_EXPR
        data: dict = {}
        for f1, c1 in self._terms:
            base = dict(f1)
            for f2, c2 in o._terms:
                if f2:
                    merged = dict(base)
                    for atom, exp in f2:
                        merged[atom] = merged.get(atom, 0) + exp
                    key = _sorted_factors(it for it in merged.items() if it[1])
                else:
                    key = f1
                data[key] = data.get(key, 0) + c1 * c2
        return DiffExpr._from_dict(data)

    __rmul__ = __mul__

    def _monomial_inverse(self) -> "DiffExpr":
        if len(self._terms) != 1:
            raise ExpressionError("only single-monomial expressions are invertible")
        factors, coeff = self._terms[0]
        inv = tuple((atom, -exp) for atom, exp in factors)
        return DiffExpr._raw(((_sorted_factors(inv), _ONE / coeff),))

    def __pow__(self, exponent) -> "DiffExpr":
        if not isinstance(exponent, int):
            raise ExpressionError("exponents must be integers")
        if exponent == 0:
            return _ONE_EXPR
        base = self if exponent > 0 else self._monomial_inverse()
        n = abs(exponent)
        result = _ONE_EXPR
        while n:
            if n & 1:
                result = result * base
            base_sq = base * base if n > 1 else base
            base, n = base_sq, n >> 1
        return result

    def __truediv__(self, other) -> "DiffExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._monomial_inverse()

    def __rtruediv__(self, other) -> "DiffExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._monomial_inverse()

    # structure --------------------------------------------------------

    def subs_atoms(self, mapping: Mapping[Atom, "DiffExpr"]) -> "DiffExpr":
        """Replace atoms by expressions, recursing into ln arguments.

        A negative power of a replaced atom requires the replacement to be
        a single invertible monomial.
        """
        if not mapping:
            return self

        def image(factors: Factors, coeff: Fraction) -> DiffExpr:
            term = DiffExpr.number(coeff)
            for atom, exp in factors:
                target = mapping.get(atom)
                if target is None and isinstance(atom, Log):
                    new_arg = atom.arg.subs_atoms(mapping)
                    if new_arg != atom.arg:
                        target = ln(new_arg)
                if target is None:
                    term = term * DiffExpr.from_atom(atom, exp)
                else:
                    term = term * target**exp
            return term

        return DiffExpr.sum(image(f, c) for f, c in self._terms)

    def collect(self, selected: Iterable[Atom]) -> list:
        """Group terms by their power products over the selected atoms.

        Returns (monomial, coefficient) pairs sorted by monomial, where each
        monomial has coefficient 1 and factors only from ``selected``.
        Selected atoms occurring with negative exponents or inside ln
        arguments are an error.
        """
        chosen = frozenset(selected)
        for factors, _ in self._terms:
            for atom, exp in factors:
                if atom in chosen and exp < 0:
                    raise CollectError(f"{atom} occurs with negative exponent")
                if isinstance(atom, Log):
                    inside = set(atom.arg.atoms(recursive=True))
                    if inside & chosen:
                        raise CollectError(
                            "selected atom occurs inside a ln argument"
                        )
        groups: dict = {}
        for factors, coeff in self._terms:
            key = tuple(it for it in factors if it[0] in chosen)
            rest = tuple(it for it in factors if it[0] not in chosen)
            data = groups.setdefault(key, {})
            data[rest] = data.get(rest, 0) + coeff
        out = []
        for key in sorted(groups, key=_factors_key):
            coeff_expr = DiffExpr._from_dict(groups[key])
            if not coeff_expr.is_zero:
                out.append((Monomial(_ONE, key), coeff_expr))
        return out

    # comparison and printing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = DiffExpr.number(other)
        if not isinstance(other, DiffExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for i, (factors, coeff) in enumerate(self._terms):
            mono = Monomial(abs(coeff), factors)
            if i == 0:
                pieces.append(("-" if coeff < 0 else "") + str(mono))
            else:
                pieces.append((" - " if coeff < 0 else " + ") + str(mono))
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"DiffExpr({self})"


_ZERO_EXPR = DiffExpr._raw(())
_ONE_EXPR = DiffExpr._raw((((), _ONE),))


def as_expr(value: Scalar) -> DiffExpr:
    e = DiffExpr._coerce(value)
    if e is None:
        raise ExpressionError(f"cannot interpret {value!r} as an expression")
    return e


def equal(a: Scalar, b: Scalar) -> bool:
    """Exact structural equality after normalization."""
    return (as_expr(a) - as_expr(b)).is_zero


def ln(argument: Scalar) -> DiffExpr:
    """Opaque natural logarithm atom of a canonical argument."""
    arg = as_expr(argument)
    if arg.is_zero:
        raise ExpressionError("ln of zero")
    if len(arg._terms) == 1:
        factors, coeff = arg._terms[0]
        if coeff == 1 and len(factors) == 1 and factors[0][1] == 1:
            if isinstance(factors[0][0], Log):
                raise ExpressionError("directly nested ln is not supported")
    return DiffExpr.from_atom(Log(arg))


def primitive_normal(e: DiffExpr) -> DiffExpr:
    """Scale by a rational so integer coefficients are coprime and the
    leading one is positive.  Zero stays zero."""
    if e.is_zero:
        return e
    nums = [c.numerator for _, c in e._terms]
    dens = [c.denominator for _, c in e._terms]
    g = 0
    for n in nums:
        g = gcd(g, abs(n))
    m = 1
    for d in dens:
        m = lcm(m, d)
    scale = Fraction(m, g)
    if e._terms[0][1] < 0:
        scale = -scale
    return e * scale


# convenience expression constants

def var(name: str) -> DiffExpr:
    return DiffExpr.from_atom(IndepVar(name))


def param(name: str) -> DiffExpr:
    return DiffExpr.from_atom(Param(name))


def jet(dep: str, t_order: int = 0, x_order: int = 0) -> DiffExpr:
    return DiffExpr.from_atom(Jet(dep, t_order, x_order))


def unknown(name: str = "phi", t: int = 0, x: int = 0, u: int = 0) -> DiffExpr:
    return DiffExpr.from_atom(UnknownFn(name, t, x, u))
