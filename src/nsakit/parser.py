"""Text form of expressions, equations and documents (.nsa files).

A document is a list of declarations followed by statements, each ended
with a semicolon and checked as it is parsed; at most one equation, one
``phi = ...;`` and one symmetry of each name may appear.  Comments run
from ``#`` to end of line.

    param p;
    func a(t);
    func A(t) deriv = a;
    func f(t) deriv = p*f*t^-1;

    u_t + a*u*u_xxx = 0;
    phi = x^3*u^-1 - 6*A;
    symmetry scaling { tau = 10*t; xi = 2*x; eta = -(4+5*p)*u; }
    conserved { c0 = u; c1 = u_xx; }

Expression grammar (multiplication is always explicit):

    expr   := term {("+" | "-") term}
    term   := ["-"] factor {"*" factor}
    factor := base ["^" ["-"] integer]
    base   := integer ["/" integer] | identifier ["(" "t" ")"]
            | "ln" "(" expr ")" | "(" expr ")"

An identifier starts with a letter and continues with letters, digits and
``_``, then optional primes (``a''``); a number is a run of decimal digits.
At most 100 ``(`` or ``ln(`` may be open at once.  Jets are written
``u_txx`` (t's before x's); ``u_xt`` is accepted and canonicalized with a
warning.  ``phi`` and its partials (``phi_xu``) are built in; every other
identifier must be declared.  Printing produces the canonical form, and
parsing it back yields the identical value.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .adjoint import Substitution
from .atoms import Atom, CoeffFn, IndepVar, Jet, Param, UnknownFn
from .calculus import Equation, PointSymmetry
from .conslaw import ConservedVector
from .errors import (
    DeclarationError,
    NsaError,
    ParseError,
    UnsupportedInputError,
)
from .expr import DiffExpr, int_digit_limit, ln
from .record import Record

RESERVED = {"t", "x", "u", "v", "ln", "phi", "param", "func", "deriv",
            "symmetry", "conserved"}


class ReorderedSubscriptWarning(UserWarning):
    """A jet or partial subscript was given out of canonical order."""


# --- declarations -----------------------------------------------------


class Declarations(Record):
    """Symbol table: declared parameters and coefficient functions."""

    _fields = ("params", "funcs")
    __hash__ = None

    def __init__(self, params: Optional[dict] = None, funcs: Optional[dict] = None):
        super().__init__({} if params is None else params,
                         {} if funcs is None else funcs)

    def declare_param(self, name: str) -> None:
        self._check_new(name)
        self.params[name] = Param(name)

    def declare_func(self, name: str, rule: Optional[DiffExpr]) -> None:
        self._check_new(name)
        self.funcs[name] = CoeffFn(name, rule=rule)

    def _check_new(self, name: str) -> None:
        if name in RESERVED:
            raise DeclarationError(f"{name!r} is reserved")
        if name in self.params or name in self.funcs:
            raise DeclarationError(f"{name!r} is already declared")


# --- statements and documents ----------------------------------------


Statement = Union[Equation, Substitution, PointSymmetry, ConservedVector, DiffExpr]


class SourceDocument(Record):
    _fields = ("declarations", "statements")
    __hash__ = None

    @property
    def equations(self) -> list:
        return [s for s in self.statements if isinstance(s, Equation)]

    @property
    def substitutions(self) -> list:
        return [s.phi for s in self.statements if isinstance(s, Substitution)]

    @property
    def symmetries(self) -> list:
        return [s for s in self.statements if isinstance(s, PointSymmetry)]

    @property
    def conserved(self) -> list:
        return [s for s in self.statements if isinstance(s, ConservedVector)]

    def symmetry(self, name: str) -> PointSymmetry:
        for sym in self.symmetries:
            if sym.name == name:
                return sym
        raise DeclarationError(f"no symmetry named {name!r} in the document")


# --- lexer ------------------------------------------------------------

# One alternative per token kind.  \d is exactly the Unicode decimal digits
# int() accepts; \w also admits "²" and "½", so _lex checks isalpha().
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)|(?P<BLANK>[ \t\r]+)|(?P<COMMENT>#[^\n]*)"
    r"|(?P<IDENT>[^\W\d_]\w*'*)|(?P<NUMBER>\d+)|(?P<PUNCT>[-+*^/(){}=;])"
    r"|(?P<OTHER>.)"
)

# Most "(" and "ln(" open at once; the parser and printer recurse per level.
_MAX_NESTING = 100


class _Token(NamedTuple):
    kind: str  # IDENT, NUMBER, PUNCT, EOF
    value: str
    line: int
    col: int

    def error(self, message: str, cls: type = ParseError) -> NsaError:
        return cls(message, self.line, self.col)


def _lex(text: str) -> list:
    tokens = []
    line, line_start = 1, 0
    limit = int_digit_limit()  # 0: no limit
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind not in ("BLANK", "COMMENT"):
            tok = _Token(kind, m.group(), line, m.start() - line_start + 1)
            if kind == "OTHER" or (kind == "IDENT" and not tok.value[0].isalpha()):
                raise tok.error(f"unexpected character {tok.value[0]!r}")
            if kind == "NUMBER" and limit and len(tok.value) > limit:
                raise tok.error(f"integer literal has more than {limit} digits")
            tokens.append(tok)
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# --- parser -----------------------------------------------------------

# head -> (atom class, subscript alphabet, foreign-letter message, warning
# noun); the class takes the head and one count per alphabet letter.
_SUBSCRIPTED = {
    "u": (Jet, "tx", "jet subscript of u may contain only t and x", "jet"),
    "v": (Jet, "tx", "jet subscript of v may contain only t and x", "jet"),
    "phi": (UnknownFn, "txu", "phi subscript may contain only t, x and u",
            "partial"),
}

_BUILTINS = {"t": IndepVar("t"), "x": IndepVar("x"), "u": Jet("u"),
             "v": Jet("v"), "phi": UnknownFn("phi")}


class _Parser:
    def __init__(self, text: str, decls: Optional[Declarations] = None):
        self.tokens = _lex(text)
        self.pos = 0
        self.depth = 0
        self.decls = decls if decls is not None else Declarations()

    # token plumbing

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, value: str) -> _Token:
        tok = self.next()
        if tok.value != value:
            raise tok.error(
                f"expected {value!r}, found {tok.value or 'end of input'!r}"
            )
        return tok

    def accept(self, value: str) -> bool:
        """Consume the next token if it is ``value``; no two kinds share a value."""
        if self.peek().value != value:
            return False
        self.next()
        return True

    # identifiers

    def resolve(self, tok: _Token) -> Atom:
        name = tok.value
        stem = name.rstrip("'")
        primes = len(name) - len(stem)
        if "_" in stem:
            head, _, sub = stem.partition("_")
            if primes or "_" in sub or not sub:
                raise tok.error(f"malformed identifier {name!r}")
            if head not in _SUBSCRIPTED:
                raise tok.error(
                    f"subscripts are defined only for u, v and phi, not {head!r}"
                )
            cls, alphabet, foreign, noun = _SUBSCRIPTED[head]
            if set(sub) - set(alphabet):
                raise tok.error(foreign)
            canon = "".join(sorted(sub, key=alphabet.index))
            if canon != sub:
                warnings.warn(
                    f"{tok.line}:{tok.col}: {noun} subscript {name} reordered to"
                    f" {head}_{canon}",
                    ReorderedSubscriptWarning,
                )
            return cls(head, *map(sub.count, alphabet))
        if primes:
            fn = self.decls.funcs.get(stem)
            if fn is None:
                raise tok.error(
                    f"{stem!r} is not a declared function", DeclarationError
                )
            if fn.rule is not None:
                raise tok.error(
                    f"{stem!r} has a declared derivative; primes do not apply"
                )
            return CoeffFn(stem, primes)
        for table in (_BUILTINS, self.decls.params, self.decls.funcs):
            if stem in table:
                return table[stem]
        raise tok.error(f"undeclared identifier {stem!r}", DeclarationError)

    # expressions

    def parse_expr(self) -> DiffExpr:
        terms = [self.parse_term()]
        while self.peek().value in ("+", "-"):
            op = self.next().value
            rhs = self.parse_term()
            terms.append(rhs if op == "+" else -rhs)
        return DiffExpr.sum(terms)

    def parse_term(self) -> DiffExpr:
        negate = self.accept("-")
        e = self.parse_factor()
        while self.accept("*"):
            e = e * self.parse_factor()
        return -e if negate else e

    def parse_factor(self) -> DiffExpr:
        e = self.parse_base()
        if self.peek().value == "^":
            caret = self.next()
            sign = -1 if self.accept("-") else 1
            tok = self.next()
            if tok.kind != "NUMBER":
                raise tok.error("exponent must be an integer")
            e = _power(e, sign * int(tok.value), caret)
        return e

    def parse_base(self) -> DiffExpr:
        tok = self.next()
        if tok.kind == "NUMBER":
            num = int(tok.value)
            if self.accept("/"):
                den_tok = self.next()
                if den_tok.kind != "NUMBER" or int(den_tok.value) == 0:
                    raise den_tok.error(
                        "rational literal needs a nonzero integer denominator"
                    )
                return DiffExpr.number(Fraction(num, int(den_tok.value)))
            return DiffExpr.number(num)
        if tok.value == "(":
            return self.parse_nested(tok)
        if tok.value == "ln":
            arg = self.parse_nested(self.expect("("))
            try:
                return ln(arg)
            except NsaError as exc:
                raise tok.error(str(exc)) from exc
        if tok.kind == "IDENT":
            atom = self.resolve(tok)
            if self.accept("("):
                if not isinstance(atom, CoeffFn):
                    raise tok.error("only declared functions of t may be applied")
                self.expect("t")
                self.expect(")")
            return DiffExpr.from_atom(atom)
        raise tok.error(
            f"expected an expression, found {tok.value or 'end of input'!r}"
        )

    def parse_nested(self, opening: _Token) -> DiffExpr:
        """The expression after the ``(`` token ``opening``, through its ``)``."""
        if self.depth == _MAX_NESTING:
            raise opening.error(
                f"expression nested deeper than {_MAX_NESTING} levels"
            )
        self.depth += 1
        e = self.parse_expr()
        self.expect(")")
        self.depth -= 1
        return e

    # declarations

    def parse_declarations(self) -> None:
        while self.peek().value in ("param", "func"):
            tok = self.next()
            try:
                name = self._decl_name()
                if tok.value == "param":
                    self.decls.declare_param(name)
                else:
                    self.expect("(")
                    self.expect("t")
                    self.expect(")")
                    # the bare function may appear in its own rule
                    self.decls.declare_func(name, None)
                    if self.accept("deriv"):
                        self.expect("=")
                        rule = self.parse_expr()
                        _check_rule_closed(rule, name, tok)
                        self.decls.funcs[name] = CoeffFn(name, rule=rule)
                self.expect(";")
            except NsaError as exc:
                raise _located(exc, tok)

    def _decl_name(self) -> str:
        tok = self.next()
        if tok.kind != "IDENT" or "'" in tok.value or "_" in tok.value:
            raise tok.error("expected a plain identifier")
        return tok.value

    # statements

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.value in ("param", "func"):
            raise tok.error("declarations must precede all statements")
        if tok.value == "symmetry":
            return self.parse_symmetry_stmt()
        if tok.value == "conserved":
            return self.parse_conserved_stmt()
        if tok.value == "phi" and self.peek(1).value == "=":
            self.next()
            self.next()
            phi = self.parse_expr()
            self.expect(";")
            return Substitution(phi)
        expr = self.parse_expr()
        if self.accept("="):
            rhs_tok = self.next()
            if rhs_tok.value != "0":
                raise rhs_tok.error("equations must have the form expr = 0")
            self.expect(";")
            return Equation(expr)
        self.expect(";")
        return expr

    def parse_symmetry_stmt(self) -> PointSymmetry:
        tok = self.next()
        name = ""
        if self.peek().kind == "IDENT":
            name = self.next().value
        self.expect("{")
        comps = self.parse_component_list(("tau", "xi", "eta"))
        self.expect("}")
        try:
            return PointSymmetry(comps["tau"], comps["xi"], comps["eta"], name=name)
        except NsaError as exc:
            raise tok.error(str(exc)) from exc

    def parse_conserved_stmt(self) -> ConservedVector:
        self.next()
        self.expect("{")
        comps = self.parse_component_list(("c0", "c1"))
        self.expect("}")
        return ConservedVector(comps["c0"], comps["c1"])

    def parse_component_list(self, keys: tuple, end: str = "}") -> dict:
        """``key = expr;`` for each of ``keys``, up to the token ``end``;
        ``end = ""`` stops at end of input, where the last ``;`` may be
        left out."""
        comps: dict = {}
        while self.peek().value != end:
            tok = self.next()
            if tok.value not in keys:
                raise tok.error(f"expected one of {', '.join(keys)}")
            if tok.value in comps:
                raise tok.error(f"duplicate component {tok.value!r}")
            self.expect("=")
            comps[tok.value] = self.parse_expr()
            if end or self.peek().kind != "EOF":
                self.expect(";")
        missing = [k for k in keys if k not in comps]
        if missing:
            raise self.peek().error(f"missing component {missing[0]!r}")
        return comps

    def parse_document(self) -> SourceDocument:
        self.parse_declarations()
        statements = []
        seen = set()
        while self.peek().kind != "EOF":
            tok = self.peek()
            try:
                stmt = self.parse_statement()
            except NsaError as exc:
                raise _located(exc, tok)
            key = _singleton_key(stmt)
            if key is not None:
                if key in seen:
                    raise tok.error(f"duplicate {key}")
                seen.add(key)
            statements.append(stmt)
        return SourceDocument(self.decls, statements)

    def finish_expression(self) -> DiffExpr:
        e = self.parse_expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise tok.error(f"unexpected trailing input {tok.value!r}")
        return e


def _power(e: DiffExpr, n: int, op: _Token) -> DiffExpr:
    """``e^n``, refused at ``op`` if a coefficient would have more digits
    than Python's int/str conversion limit lets it print."""
    limit = int_digit_limit()  # 0: no limit
    if not limit:
        return e**n
    # a one-term base is refused before the power is taken: k of b bits
    # gives |k^n| >= 2^((b-1)|n|) >= 10^limit once 3(b-1)|n| > 10*limit
    first = e.terms[0][1] if len(e.terms) == 1 else 0
    early = any(3 * (k.bit_length() - 1) * abs(n) > 10 * limit
                for k in (first.numerator, first.denominator))
    if not early:
        e = e**n
    # below 3*limit bits, |k| < 8**limit < 10**limit
    if early or any(k.bit_length() > 3 * limit and abs(k) >= 10**limit
                    for _, c in e.terms
                    for k in (c.numerator, c.denominator)):
        raise op.error(
            f"'^' gives a coefficient of more than {limit} digits",
            UnsupportedInputError,
        )
    return e


def _located(exc: NsaError, tok: _Token) -> NsaError:
    """``exc`` placed at ``tok`` unless it already has a position.

    Unsupported input keeps its class, so it still exits with 3; any error
    that is not a ParseError already becomes one.
    """
    if exc.line:
        return exc
    keep = isinstance(exc, (UnsupportedInputError, ParseError))
    return tok.error(str(exc), type(exc) if keep else ParseError)


def _singleton_key(stmt: Statement) -> Optional[str]:
    """What a document may state only once, or None."""
    if isinstance(stmt, Equation):
        return "equation"
    if isinstance(stmt, Substitution):
        return "phi"
    if isinstance(stmt, PointSymmetry) and stmt.name:
        return f"symmetry {stmt.name!r}"
    return None


def _check_rule_closed(rule: DiffExpr, name: str, tok: _Token) -> None:
    for atom in rule.atoms():
        ok = (
            isinstance(atom, (Param, CoeffFn))
            or (isinstance(atom, IndepVar) and atom.name == "t")
        )
        if not ok:
            raise tok.error(
                f"derivative rule for {name!r} must be a function of t"
                f" (found {atom})"
            )


# --- public API -------------------------------------------------------


def parse_document(text: str) -> SourceDocument:
    return _Parser(text).parse_document()


def parse_expression(text: str, decls: Optional[Declarations] = None) -> DiffExpr:
    return _Parser(text, decls).finish_expression()


def parse_symmetry(text: str, decls: Optional[Declarations] = None) -> PointSymmetry:
    """Parse inline components 'tau = ...; xi = ...; eta = ...;' that make
    up the whole text; the last ';' is optional."""
    comps = _Parser(text, decls).parse_component_list(("tau", "xi", "eta"), end="")
    try:
        return PointSymmetry(comps["tau"], comps["xi"], comps["eta"])
    except NsaError as exc:
        raise ParseError(str(exc)) from exc


def print_declarations(decls: Declarations) -> list:
    lines = []
    for name in decls.params:
        lines.append(f"param {name};")
    for name, atom in decls.funcs.items():
        if atom.rule is None:
            lines.append(f"func {name}(t);")
        else:
            lines.append(f"func {name}(t) deriv = {atom.rule};")
    return lines


def print_document(doc: SourceDocument) -> str:
    lines = print_declarations(doc.declarations)
    if lines:
        lines.append("")
    for stmt in doc.statements:
        if isinstance(stmt, PointSymmetry):
            label = f" {stmt.name}" if stmt.name else ""
            lines.append(f"symmetry{label} {{ {stmt}; }}")
        elif isinstance(stmt, ConservedVector):
            lines.append(f"conserved {{ {stmt}; }}")
        else:
            lines.append(f"{stmt};")
    return "\n".join(lines) + "\n"
