"""Canonical expressions of the differential algebra.

A DiffExpr is a finite sum of monomials.  Each monomial is an exact
rational coefficient times a power product of atoms with nonzero integer
exponents (negative exponents allowed).  A coefficient has one canonical
form: an ``int`` when its value is integral, otherwise a ``Fraction``
whose denominator exceeds 1.  The zero expression is the empty sum.
Expressions are normalized on construction and immutable afterwards:
factors are sorted by atom (an atom's tuple value is its place in the
order), like monomials are merged, zero coefficients and zero exponents are
dropped and coefficients are canonical.  The order of the monomials is
fixed when it is first read (``terms``, printing, ``<``,
``leading_coeff``, ``atoms``): the first reader sorts them by their
factors once and keeps the sorted tuple, so arithmetic, derivation and
substitution never sort.  Equality and hashing do not depend on the
order; both are structural, and printing is deterministic.
``_accumulate_product`` is the one place where the factors of two
monomials are merged; every product, derivation and substitution builds
its monomials through it, except a number times an expression, which
only scales the coefficients.

There are no floating point numbers anywhere and no automatic rewriting
beyond ring arithmetic: ln stays opaque, coefficient functions stay
symbolic.  Non-integer exponents and inverses of genuine sums are errors.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Union

from .atoms import Atom, IndepVar, Jet, Log, Param, UnknownFn
from .errors import CollectError, ExpressionError, UnsupportedInputError

Factors = tuple  # tuple[tuple[Atom, int], ...] sorted by atom
Coeff = Union[int, Fraction]  # int when integral, else denominator > 1
Scalar = Union[Coeff, "DiffExpr"]


def int_digit_limit() -> int:
    """Python's int/str conversion limit in digits, or 0 where there is none:
    switched off, or an interpreter before 3.10.7, which has no limit."""
    getter = getattr(sys, "get_int_max_str_digits", None)
    return getter() if getter else 0


def _canonical(q: Coeff) -> Coeff:
    return q.numerator if q.denominator == 1 else q


def _accumulate_product(data: dict, f1: Factors, c1, terms: tuple) -> None:
    """Add the monomial c1*f1 times each (factors, coeff) of ``terms`` into
    ``data``, a dict from factors to coefficient awaiting ``_from_dict``.

    Each factor of a term goes into the sorted f1 at its bisection point,
    so a one-factor term, which every jet derivative is, costs one
    bisection and no sort.  A key's first coefficient is stored as it is,
    and a factor 1 is never multiplied, so the only rational arithmetic
    left is the real one.
    """
    unit = c1.__class__ is int and c1 == 1
    for f2, c2 in terms:
        key = f1
        for atom, exp in f2:
            # (atom,) sorts before every (atom, exp), so i is atom's slot
            i = bisect_left(key, (atom,))
            if i < len(key) and key[i][0] == atom:
                exp += key[i][1]
                rest = key[i + 1:]
                key = key[:i] + ((atom, exp),) + rest if exp else key[:i] + rest
            else:
                key = key[:i] + ((atom, exp),) + key[i:]
        if unit:
            c = c2
        elif c2.__class__ is int and c2 == 1:
            c = c1
        else:
            c = c1 * c2
        old = data.get(key)
        data[key] = c if old is None else old + c


class DiffExpr:
    """Normalized sum of monomials; supports +, -, *, /, ** and unary -."""

    # _terms holds (factors, coefficient) pairs, unique by factors; when
    # _ordered is false they are still in the order they were built in.
    # The first reader of the order writes _terms before _ordered, so code
    # that reads _ordered first never pairs a true flag with unsorted terms.
    __slots__ = ("_terms", "_ordered")

    def __init__(self):
        raise ExpressionError("use the factory classmethods or arithmetic")

    # construction -----------------------------------------------------

    @classmethod
    def _raw(cls, terms: tuple, ordered: bool = True) -> "DiffExpr":
        e = object.__new__(cls)
        e._terms = terms
        e._ordered = ordered
        return e

    @classmethod
    def _from_dict(cls, data: dict) -> "DiffExpr":
        """The one normalization: drop zero coefficients and turn integral
        Fractions into ints.  The monomials are sorted when first read."""
        items = tuple([
            (f, c if c.__class__ is int or c.denominator != 1 else c.numerator)
            for f, c in data.items()
            if c
        ])
        return cls._raw(items, len(items) < 2)

    @classmethod
    def sum(cls, summands: Iterable[Scalar]) -> "DiffExpr":
        """Sum of expressions and rationals, merged and normalized once."""
        data: dict = {}
        for s in summands:
            for f, c in as_expr(s)._terms:
                old = data.get(f)
                data[f] = c if old is None else old + c
        return cls._from_dict(data)

    @classmethod
    def zero(cls) -> "DiffExpr":
        return _ZERO_EXPR

    @classmethod
    def one(cls) -> "DiffExpr":
        return _ONE_EXPR

    @classmethod
    def number(cls, value: Coeff) -> "DiffExpr":
        if not isinstance(value, (int, Fraction)):
            raise ExpressionError(f"a coefficient must be exact, not {value!r}")
        q = _canonical(value)
        if not q:
            return _ZERO_EXPR
        return cls._raw((((), q),))

    @classmethod
    def from_atom(cls, atom: Atom, exp: int = 1) -> "DiffExpr":
        if not isinstance(exp, int):
            raise ExpressionError("exponents must be integers")
        if exp == 0:
            return _ONE_EXPR
        return cls._raw(((((atom, exp),), 1),))

    # inspection -------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The (factors, coefficient) pairs, merged, zero-free and with
        canonical coefficients, in canonical order: sorted by factors
        when first read, and kept sorted."""
        if not self._ordered:
            self._terms = tuple(sorted(self._terms))
            self._ordered = True
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def leading_coeff(self) -> Coeff:
        terms = self.terms
        return terms[0][1] if terms else 0

    def atoms(self) -> Iterator[Atom]:
        """All atoms in canonical order, descending into ln arguments."""
        for factors, _ in self.terms:
            for atom, _exp in factors:
                yield atom
                if isinstance(atom, Log):
                    yield from atom.arg.atoms()

    def jets(self, dep: Optional[str] = None) -> set:
        """The jets of ``dep`` (of every dependent when None), in ln
        arguments too."""
        found = set()
        for factors, _ in self._terms:
            for atom, _exp in factors:
                if isinstance(atom, Jet):
                    if dep is None or atom.dep == dep:
                        found.add(atom)
                elif isinstance(atom, Log):
                    found |= atom.arg.jets(dep)
        return found

    def free_of_dep(self, dep: str) -> bool:
        return not self.jets(dep)

    def max_order(self, dep: Optional[str] = None) -> int:
        return max((j.order() for j in self.jets(dep)), default=0)

    def sort_key(self) -> tuple:
        return tuple((f, (c.numerator, c.denominator)) for f, c in self.terms)

    def __lt__(self, other: "DiffExpr") -> bool:
        return self.sort_key() < other.sort_key()

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
        ordered = self._ordered
        return DiffExpr._raw(tuple((f, -c) for f, c in self._terms), ordered)

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
        if len(o._terms) == 1 and not o._terms[0][0]:
            return self._scaled(o._terms[0][1])
        if len(self._terms) == 1 and not self._terms[0][0]:
            return o._scaled(self._terms[0][1])
        data: dict = {}
        for f1, c1 in self._terms:
            _accumulate_product(data, f1, c1, o._terms)
        return DiffExpr._from_dict(data)

    __rmul__ = __mul__

    def _scaled(self, q: Coeff) -> "DiffExpr":
        """q*self for a nonzero number q.  Factor keys are unique, so the
        terms sort by their factors alone and scaling keeps their order."""
        if q == 1:
            return self
        ordered = self._ordered
        terms = tuple((f, _canonical(c * q)) for f, c in self._terms)
        return DiffExpr._raw(terms, ordered)

    def __pow__(self, exponent) -> "DiffExpr":
        if not isinstance(exponent, int):
            raise ExpressionError("exponents must be integers")
        if exponent == 0:
            return _ONE_EXPR
        if exponent == 1:
            return self
        if len(self._terms) == 1:
            # scaled exponents keep the atom order
            factors, coeff = self._terms[0]
            factors = tuple((atom, exp * exponent) for atom, exp in factors)
            return DiffExpr._raw(((factors, _canonical(Fraction(coeff) ** exponent)),))
        if exponent < 0:
            raise ExpressionError("only single-monomial expressions are invertible")
        base, n = self, exponent
        result = None
        while n:
            if n & 1:
                result = base if result is None else result * base
            base_sq = base * base if n > 1 else base
            base, n = base_sq, n >> 1
        return result

    def __truediv__(self, other) -> "DiffExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o**-1

    def __rtruediv__(self, other) -> "DiffExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self**-1

    # structure --------------------------------------------------------

    def subs_atoms(self, mapping: Mapping[Atom, "DiffExpr"]) -> "DiffExpr":
        """Replace atoms by expressions, recursing into ln arguments.

        A negative power of a replaced atom requires the replacement to be
        a single invertible monomial.  The untouched factors of a term stay
        one sorted monomial; only the images of the replaced ones are
        multiplied, and every term goes into one dict, normalized once.
        """
        if not mapping:
            return self
        data: dict = {}
        for factors, coeff in self._terms:
            kept = []
            image = _ONE_EXPR
            for atom, exp in factors:
                target = mapping.get(atom)
                if target is None and isinstance(atom, Log):
                    new_arg = atom.arg.subs_atoms(mapping)
                    if new_arg != atom.arg:
                        target = ln(new_arg)
                if target is None:
                    kept.append((atom, exp))
                else:
                    image = target**exp if image is _ONE_EXPR else image * target**exp
            _accumulate_product(data, tuple(kept), coeff, image._terms)
        return DiffExpr._from_dict(data)

    def collect(self, selected: Iterable[Atom]) -> list:
        """Group terms by their power products over the selected atoms.

        Returns (key, coefficient) pairs sorted by key, where each key is a
        one-term expression with coefficient 1 and factors only from
        ``selected``.
        Selected atoms occurring with negative exponents or inside ln
        arguments are an error.
        """
        chosen = frozenset(selected)

        def refusals(terms):
            for factors, _ in terms:
                for atom, exp in factors:
                    if atom in chosen and exp < 0:
                        yield f"{atom} occurs with negative exponent"
                    if isinstance(atom, Log):
                        inside = set(atom.arg.atoms()) & chosen
                        if inside:
                            yield f"{min(inside)} occurs inside {atom}"

        # scan in stored order; a refusal names the first in canonical order
        if next(refusals(self._terms), None):
            raise CollectError(next(refusals(self.terms)))
        groups: dict = {}
        for factors, coeff in self._terms:
            key = tuple(it for it in factors if it[0] in chosen)
            rest = tuple(it for it in factors if it[0] not in chosen)
            data = groups.setdefault(key, {})
            old = data.get(rest)
            data[rest] = coeff if old is None else old + coeff
        out = []
        for key in sorted(groups):
            coeff_expr = DiffExpr._from_dict(groups[key])
            if not coeff_expr.is_zero:
                out.append((DiffExpr._raw(((key, 1),)), coeff_expr))
        return out

    # comparison and printing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = DiffExpr.number(other)
        if not isinstance(other, DiffExpr):
            return NotImplemented
        if self._ordered and other._ordered:
            return self._terms == other._terms
        # factor keys are unique, so the terms compare exactly as mappings
        mine, theirs = self._terms, other._terms
        return len(mine) == len(theirs) and dict(mine) == dict(theirs)

    def __hash__(self) -> int:
        # independent of the term order; a number hashes like the int or
        # Fraction it equals, zero like 0
        terms = self._terms
        if len(terms) == 1 and not terms[0][0]:
            return hash(terms[0][1])
        return hash(frozenset(terms)) if terms else hash(0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        # every number of an expression becomes text here; past Python's
        # int/str conversion limit str() raises ValueError
        pieces = []
        try:
            for factors, coeff in self.terms:
                body = "*".join(
                    str(atom) if exp == 1 else f"{atom}^{exp}" for atom, exp in factors
                )
                size = abs(coeff)
                if not body:
                    body = str(size)
                elif size != 1:
                    body = f"{size}*{body}"
                if coeff < 0:
                    pieces.append(" - " + body if pieces else "-" + body)
                else:
                    pieces.append(" + " + body if pieces else body)
        except ValueError:
            raise UnsupportedInputError(
                f"result has a number of more than {int_digit_limit()} digits"
            ) from None
        return "".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"DiffExpr({self})"


_ZERO_EXPR = DiffExpr._raw(())
_ONE_EXPR = DiffExpr._raw((((), 1),))


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
    leading one is positive.  Zero stays zero.

    With L the lcm of the denominators and g the gcd of the numerators,
    negated when the leading (least) term is negative, n/d becomes
    (n // g) * (L // d): exact integers, and the term order is kept."""
    ordered, terms = e._ordered, e._terms
    if not terms:
        return e
    big = lcm(*(c.denominator for _, c in terms))
    g = gcd(*(c.numerator for _, c in terms))
    if min(terms)[1] < 0:
        g = -g
    scaled = tuple((f, c.numerator // g * (big // c.denominator)) for f, c in terms)
    return DiffExpr._raw(scaled, ordered)


# convenience expression constants

def var(name: str) -> DiffExpr:
    return DiffExpr.from_atom(IndepVar(name))


def param(name: str) -> DiffExpr:
    return DiffExpr.from_atom(Param(name))


def jet(dep: str, t_order: int = 0, x_order: int = 0) -> DiffExpr:
    return DiffExpr.from_atom(Jet(dep, t_order, x_order))


def unknown(name: str = "phi", t: int = 0, x: int = 0, u: int = 0) -> DiffExpr:
    return DiffExpr.from_atom(UnknownFn(name, t, x, u))
