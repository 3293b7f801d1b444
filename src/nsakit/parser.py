"""Text form of expressions, equations and documents (.nsa files).

A document is a list of declarations followed by statements, each ended
with a semicolon.  Comments run from ``#`` to end of line.

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

Jets are written ``u_txx`` (t's before x's); ``u_xt`` is accepted and
canonicalized with a warning.  ``phi`` and its partials (``phi_xu``) are
built in; every other identifier must be declared.  Printing produces the
canonical form, and parsing it back yields the identical value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .atoms import Atom, CoeffFn, IndepVar, Jet, Param, UnknownFn
from .calculus import Equation, PointSymmetry
from .errors import (
    DeclarationError,
    NsaError,
    OrderCapError,
    ParseError,
    UnsupportedInputError,
)
from .expr import DiffExpr, ln

RESERVED = {"t", "x", "u", "v", "ln", "phi", "param", "func", "deriv",
            "symmetry", "conserved"}


class ReorderedSubscriptWarning(UserWarning):
    """A jet or partial subscript was given out of canonical order."""


# --- declarations -----------------------------------------------------


@dataclass
class Declarations:
    """Symbol table: declared parameters and coefficient functions."""

    params: dict = field(default_factory=dict)
    funcs: dict = field(default_factory=dict)

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


@dataclass(frozen=True)
class EquationStmt:
    equation: Equation


@dataclass(frozen=True)
class SubstitutionStmt:
    phi: DiffExpr


@dataclass(frozen=True)
class SymmetryStmt:
    symmetry: PointSymmetry


@dataclass(frozen=True)
class ConservedStmt:
    c0: DiffExpr
    c1: DiffExpr


@dataclass(frozen=True)
class ExprStmt:
    expr: DiffExpr


Statement = Union[EquationStmt, SubstitutionStmt, SymmetryStmt, ConservedStmt, ExprStmt]


@dataclass
class SourceDocument:
    declarations: Declarations
    statements: list

    @property
    def equations(self) -> list:
        return [s.equation for s in self.statements if isinstance(s, EquationStmt)]

    @property
    def substitutions(self) -> list:
        return [s.phi for s in self.statements if isinstance(s, SubstitutionStmt)]

    @property
    def symmetries(self) -> list:
        return [s.symmetry for s in self.statements if isinstance(s, SymmetryStmt)]

    def symmetry(self, name: str) -> PointSymmetry:
        for sym in self.symmetries:
            if sym.name == name:
                return sym
        raise DeclarationError(f"no symmetry named {name!r} in the document")


# --- lexer ------------------------------------------------------------

_PUNCT = set("+-*^/(){}=;")


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, NUMBER, PUNCT, EOF
    value: str
    line: int
    col: int


def _lex(text: str) -> list:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            while j < n and text[j] == "'":
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("NUMBER", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# --- parser -----------------------------------------------------------


def _canonical_subscript(sub: str, alphabet: str) -> str:
    return "".join(sorted(sub, key=alphabet.index))


class _Parser:
    def __init__(self, text: str, decls: Optional[Declarations] = None):
        self.tokens = _lex(text)
        self.pos = 0
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
            raise ParseError(
                f"expected {value!r}, found {tok.value or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == value

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # identifiers

    def resolve(self, tok: _Token) -> Atom:
        name = tok.value
        primes = len(name) - len(name.rstrip("'"))
        stem = name[: len(name) - primes] if primes else name
        if "_" in stem:
            head, _, sub = stem.partition("_")
            if primes or "_" in sub or not sub:
                raise ParseError(f"malformed identifier {name!r}", tok.line, tok.col)
            if head in ("u", "v"):
                if set(sub) - set("tx"):
                    raise ParseError(
                        f"jet subscript of {head} may contain only t and x",
                        tok.line,
                        tok.col,
                    )
                canon = _canonical_subscript(sub, "tx")
                if canon != sub:
                    warnings.warn(
                        f"jet subscript {name} reordered to {head}_{canon}",
                        ReorderedSubscriptWarning,
                    )
                return Jet(head, sub.count("t"), sub.count("x"))
            if head == "phi":
                if set(sub) - set("txu"):
                    raise ParseError(
                        "phi subscript may contain only t, x and u",
                        tok.line,
                        tok.col,
                    )
                canon = _canonical_subscript(sub, "txu")
                if canon != sub:
                    warnings.warn(
                        f"partial subscript {name} reordered to phi_{canon}",
                        ReorderedSubscriptWarning,
                    )
                return UnknownFn("phi", sub.count("t"), sub.count("x"), sub.count("u"))
            raise ParseError(
                f"subscripts are defined only for u, v and phi, not {head!r}",
                tok.line,
                tok.col,
            )
        if primes:
            fn = self.decls.funcs.get(stem)
            if fn is None:
                raise DeclarationError(
                    f"{stem!r} is not a declared function", tok.line, tok.col
                )
            if fn.rule is not None:
                raise ParseError(
                    f"{stem!r} has a declared derivative; primes do not apply",
                    tok.line,
                    tok.col,
                )
            return CoeffFn(stem, primes)
        if stem == "t":
            return IndepVar("t")
        if stem == "x":
            return IndepVar("x")
        if stem in ("u", "v"):
            return Jet(stem)
        if stem == "phi":
            return UnknownFn("phi")
        if stem in self.decls.params:
            return self.decls.params[stem]
        if stem in self.decls.funcs:
            return self.decls.funcs[stem]
        raise DeclarationError(f"undeclared identifier {stem!r}", tok.line, tok.col)

    # expressions

    def parse_expr(self) -> DiffExpr:
        terms = [self.parse_term()]
        while self.peek().kind == "PUNCT" and self.peek().value in "+-":
            op = self.next().value
            rhs = self.parse_term()
            terms.append(rhs if op == "+" else -rhs)
        return DiffExpr.sum(terms)

    def parse_term(self) -> DiffExpr:
        negate = False
        if self.at_punct("-"):
            self.next()
            negate = True
        e = self.parse_factor()
        while self.at_punct("*"):
            self.next()
            e = e * self.parse_factor()
        return -e if negate else e

    def parse_factor(self) -> DiffExpr:
        e = self.parse_base()
        if self.at_punct("^"):
            self.next()
            sign = 1
            if self.at_punct("-"):
                self.next()
                sign = -1
            tok = self.next()
            if tok.kind != "NUMBER":
                raise ParseError("exponent must be an integer", tok.line, tok.col)
            e = e ** (sign * int(tok.value))
        return e

    def parse_base(self) -> DiffExpr:
        tok = self.next()
        if tok.kind == "NUMBER":
            num = int(tok.value)
            if self.at_punct("/"):
                self.next()
                den_tok = self.next()
                if den_tok.kind != "NUMBER" or int(den_tok.value) == 0:
                    raise ParseError(
                        "rational literal needs a nonzero integer denominator",
                        den_tok.line,
                        den_tok.col,
                    )
                return DiffExpr.number(Fraction(num, int(den_tok.value)))
            return DiffExpr.number(num)
        if tok.kind == "PUNCT" and tok.value == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if tok.kind == "IDENT":
            if tok.value == "ln":
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                try:
                    return ln(arg)
                except NsaError as exc:
                    raise ParseError(str(exc), tok.line, tok.col) from exc
            atom = self.resolve(tok)
            if self.at_punct("("):
                if not isinstance(atom, CoeffFn):
                    raise ParseError(
                        "only declared functions of t may be applied",
                        tok.line,
                        tok.col,
                    )
                self.next()
                self.expect("t")
                self.expect(")")
            return DiffExpr.from_atom(atom)
        raise ParseError(
            f"expected an expression, found {tok.value or 'end of input'!r}",
            tok.line,
            tok.col,
        )

    # declarations

    def parse_declarations(self) -> None:
        while self.peek().kind == "IDENT" and self.peek().value in ("param", "func"):
            tok = self.next()
            try:
                if tok.value == "param":
                    name = self._decl_name()
                    self.decls.declare_param(name)
                else:
                    name = self._decl_name()
                    self.expect("(")
                    self.expect("t")
                    self.expect(")")
                    # the bare function may appear in its own rule
                    self.decls.declare_func(name, None)
                    if self.peek().kind == "IDENT" and self.peek().value == "deriv":
                        self.next()
                        self.expect("=")
                        rule = self.parse_expr()
                        _check_rule_closed(rule, name, tok)
                        self.decls.funcs[name] = CoeffFn(name, rule=rule)
                self.expect(";")
            except DeclarationError as exc:
                if exc.line:
                    raise
                raise DeclarationError(str(exc), tok.line, tok.col) from exc

    def _decl_name(self) -> str:
        tok = self.next()
        if tok.kind != "IDENT" or "'" in tok.value or "_" in tok.value:
            raise ParseError("expected a plain identifier", tok.line, tok.col)
        return tok.value

    # statements

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in ("param", "func"):
            raise ParseError(
                "declarations must precede all statements", tok.line, tok.col
            )
        if tok.kind == "IDENT" and tok.value == "symmetry":
            return self.parse_symmetry_stmt()
        if tok.kind == "IDENT" and tok.value == "conserved":
            return self.parse_conserved_stmt()
        if (
            tok.kind == "IDENT"
            and tok.value == "phi"
            and self.peek(1).kind == "PUNCT"
            and self.peek(1).value == "="
        ):
            self.next()
            self.next()
            phi = self.parse_expr()
            self.expect(";")
            return SubstitutionStmt(phi)
        expr = self.parse_expr()
        if self.at_punct("="):
            self.next()
            rhs_tok = self.next()
            if rhs_tok.kind != "NUMBER" or rhs_tok.value != "0":
                raise ParseError(
                    "equations must have the form expr = 0", rhs_tok.line, rhs_tok.col
                )
            self.expect(";")
            try:
                return EquationStmt(Equation(expr))
            except (OrderCapError, UnsupportedInputError):
                raise
            except NsaError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from exc
        self.expect(";")
        return ExprStmt(expr)

    def parse_symmetry_stmt(self) -> SymmetryStmt:
        tok = self.next()
        name = ""
        if self.peek().kind == "IDENT":
            name = self.next().value
        self.expect("{")
        comps = self.parse_component_list(("tau", "xi", "eta"))
        self.expect("}")
        try:
            sym = PointSymmetry(comps["tau"], comps["xi"], comps["eta"], name=name)
        except NsaError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc
        return SymmetryStmt(sym)

    def parse_conserved_stmt(self) -> ConservedStmt:
        self.next()
        self.expect("{")
        comps = self.parse_component_list(("c0", "c1"))
        self.expect("}")
        return ConservedStmt(comps["c0"], comps["c1"])

    def parse_component_list(self, keys: tuple) -> dict:
        comps: dict = {}
        while not self.at_punct("}"):
            tok = self.next()
            if tok.kind != "IDENT" or tok.value not in keys:
                raise ParseError(
                    f"expected one of {', '.join(keys)}", tok.line, tok.col
                )
            if tok.value in comps:
                raise ParseError(f"duplicate component {tok.value!r}", tok.line, tok.col)
            self.expect("=")
            comps[tok.value] = self.parse_expr()
            self.expect(";")
        missing = [k for k in keys if k not in comps]
        if missing:
            raise self.fail(f"missing component {missing[0]!r}")
        return comps

    def parse_document(self) -> SourceDocument:
        self.parse_declarations()
        statements = []
        while self.peek().kind != "EOF":
            statements.append(self.parse_statement())
        return SourceDocument(self.decls, statements)

    def finish_expression(self) -> DiffExpr:
        e = self.parse_expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(
                f"unexpected trailing input {tok.value!r}", tok.line, tok.col
            )
        return e


def _check_rule_closed(rule: DiffExpr, name: str, tok: _Token) -> None:
    for atom in rule.atoms():
        ok = (
            isinstance(atom, (Param, CoeffFn))
            or (isinstance(atom, IndepVar) and atom.name == "t")
        )
        if not ok:
            raise ParseError(
                f"derivative rule for {name!r} must be a function of t"
                f" (found {atom})",
                tok.line,
                tok.col,
            )


# --- public API -------------------------------------------------------


def parse_document(text: str) -> SourceDocument:
    return _Parser(text).parse_document()


def parse_expression(text: str, decls: Optional[Declarations] = None) -> DiffExpr:
    return _Parser(text, decls).finish_expression()


def parse_symmetry(text: str, decls: Optional[Declarations] = None) -> PointSymmetry:
    """Parse inline components 'tau = ...; xi = ...; eta = ...;'."""
    body = text.strip()
    if not body.endswith(";"):
        body += ";"
    parser = _Parser(body + "}", decls)
    comps = parser.parse_component_list(("tau", "xi", "eta"))
    parser.expect("}")
    try:
        return PointSymmetry(comps["tau"], comps["xi"], comps["eta"])
    except NsaError as exc:
        raise ParseError(str(exc)) from exc


def print_expression(e: DiffExpr) -> str:
    return str(e)


def print_equation(eq: Equation) -> str:
    return f"{eq.lhs} = 0"


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
        if isinstance(stmt, EquationStmt):
            lines.append(f"{print_equation(stmt.equation)};")
        elif isinstance(stmt, SubstitutionStmt):
            lines.append(f"phi = {stmt.phi};")
        elif isinstance(stmt, SymmetryStmt):
            sym = stmt.symmetry
            label = f" {sym.name}" if sym.name else ""
            lines.append(
                f"symmetry{label} {{ tau = {sym.tau}; xi = {sym.xi}; "
                f"eta = {sym.eta}; }}"
            )
        elif isinstance(stmt, ConservedStmt):
            lines.append(f"conserved {{ c0 = {stmt.c0}; c1 = {stmt.c1}; }}")
        else:
            lines.append(f"{stmt.expr};")
    return "\n".join(lines) + "\n"
