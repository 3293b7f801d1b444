"""Exception hierarchy shared by all nsakit modules."""

from __future__ import annotations


class NsaError(Exception):
    """Base class for every error raised by nsakit.

    An error located in source text carries its ``line`` and ``column``
    (both 0 when it has none) and prints them as an ``L:C: `` prefix.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class UnsupportedInputError(NsaError):
    """Input is well formed but outside the supported class of problems."""


class OrderCapError(UnsupportedInputError):
    """A jet or partial derivative would exceed the fixed order cap
    ``atoms.ORDER_CAP``, whether a derivative builds it or the parser
    reads it."""


class ExpressionError(NsaError):
    """Invalid algebraic construction (non-integer power, division by a sum, ...)."""


class CollectError(UnsupportedInputError):
    """collect() was asked to select atoms that occur non-polynomially."""


class ParseError(NsaError):
    """Syntax or declaration error in .nsa source text."""


class DeclarationError(ParseError):
    """Undeclared, duplicate or reserved identifier."""


class EquationFormError(NsaError):
    """Expression cannot be read as an evolution equation u_t + H = 0."""


class SubstitutionError(NsaError):
    """Invalid substitution target (zero, or depending on excluded variables)."""
