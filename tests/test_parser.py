"""Source-format parsing, canonical printing, and round-trip stability."""

import random
import string
import sys
import warnings
from pathlib import Path

import pytest

import nsakit
from nsakit import (
    ConservedVector,
    Declarations,
    DiffExpr,
    Equation,
    NsaError,
    PointSymmetry,
    ReorderedSubscriptWarning,
    Substitution,
    parse_document,
    parse_expression,
    parse_symmetry,
    print_document,
)
from nsakit.catalog import load_fixture
from nsakit.parser import print_declarations
from nsakit.errors import DeclarationError, ParseError, UnsupportedInputError


def test_expression_round_trip():
    decls = Declarations()
    decls.declare_param("c1")
    for text in (
        "u_t + u*u_xxx",
        "c1*u^-1 + 1/2*u_x^2",
        "ln(u) - x^3*t",
        "-u + 2/3",
        "phi_xu*u_x + phi_t",
    ):
        e = parse_expression(text, decls)
        printed = str(e)
        assert parse_expression(printed, decls) == e


def test_fixture_documents_round_trip():
    for path in sorted((Path(nsakit.__file__).parent / "fixtures").iterdir()):
        doc = load_fixture(path.name)
        printed = print_document(doc)
        again = parse_document(printed)
        assert print_document(again) == printed, path.name
        assert again.statements == doc.statements, path.name


def test_every_statement_text_reads_back():
    """``str()`` of each statement of every fixture, wrapped the way a
    document writes it, parses back to an equal value."""
    for path in sorted((Path(nsakit.__file__).parent / "fixtures").iterdir()):
        doc = load_fixture(path.name)
        declarations = print_declarations(doc.declarations)
        preamble = "".join(f"{line}\n" for line in declarations)
        for stmt in doc.statements:
            text = f"{stmt};"
            if isinstance(stmt, PointSymmetry):
                text = f"symmetry {stmt.name} {{ {text} }}"
            elif isinstance(stmt, ConservedVector):
                text = f"conserved {{ {text} }}"
            again = parse_document(preamble + text).statements
            assert again == [stmt], (path.name, text)


def test_statement_kinds():
    doc = parse_document(
        """
        param c1;
        u_t + u*u_x = 0;
        phi = c1;
        symmetry shift { tau = 0; xi = 1; eta = 0; }
        conserved { c0 = u; c1 = 1/2*u^2; }
        u + x;
        """
    )
    kinds = [type(s) for s in doc.statements]
    assert kinds == [Equation, Substitution, PointSymmetry,
                     ConservedVector, DiffExpr]
    assert len(doc.equations) == 1
    assert len(doc.substitutions) == 1
    assert len(doc.conserved) == 1
    assert str(doc.symmetry("shift").xi) == "1"


def test_subscript_reordering_warns():
    with pytest.warns(ReorderedSubscriptWarning):
        e = parse_expression("u_xt")
    assert str(e) == "u_tx"
    with pytest.warns(ReorderedSubscriptWarning):
        e = parse_expression("phi_ux")
    assert str(e) == "phi_xu"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_expression("u_tx")  # already canonical, no warning


def test_subscript_reordering_warning_is_located():
    """The warning starts with the line:col of the reordered identifier."""
    with pytest.warns(ReorderedSubscriptWarning,
                      match=r"^1:5: jet subscript u_xt reordered to u_tx$"):
        parse_expression("u + u_xt")
    with pytest.warns(ReorderedSubscriptWarning,
                      match=r"^2:6: partial subscript phi_ux reordered to phi_xu$"):
        parse_expression("u\n + 2*phi_ux")


def test_declaration_errors():
    with pytest.raises(DeclarationError):
        parse_document("param a; param a; u_t = 0;")
    with pytest.raises(DeclarationError):
        parse_document("param u; u_t = 0;")
    with pytest.raises(DeclarationError):
        parse_document("func phi(t); u_t = 0;")


def test_undeclared_identifier_reports_position():
    with pytest.raises(ParseError) as info:
        parse_document("u_t + q*u_x = 0;")
    assert "undeclared identifier 'q'" in str(info.value)
    assert "1:7" in str(info.value)


def test_primed_functions():
    decls = Declarations()
    decls.declare_func("a", None)
    e = parse_expression("a'' + a'*a", decls)
    assert "a''" in str(e)
    # a declared derivative rule replaces prime notation entirely
    doc = parse_document("func f(t) deriv = f; u_t + f*u_x = 0;")
    with pytest.raises(ParseError, match="declared derivative"):
        parse_expression("f'", doc.declarations)


def test_rule_must_be_a_function_of_t_only():
    with pytest.raises(ParseError, match="function of t"):
        parse_document("func f(t) deriv = x*f; u_t = 0;")
    with pytest.raises(ParseError, match="function of t"):
        parse_document("func f(t) deriv = u; u_t = 0;")


def test_function_application_suffix_is_optional():
    doc = parse_document("func a(t); u_t + a*u_x = 0;")
    decls = doc.declarations
    assert parse_expression("a(t)*u", decls) == parse_expression("a*u", decls)
    with pytest.raises(ParseError):
        parse_expression("u(t)", decls)


def test_exponent_syntax():
    assert parse_expression("u^-2") == parse_expression("u^-1 * u^-1")
    assert parse_expression("2^3") == parse_expression("8")
    with pytest.raises(ParseError):
        parse_expression("u^(2)")
    with pytest.raises(ParseError):
        parse_expression("u^x")
    with pytest.raises(ParseError):
        parse_expression("1/0")


def test_double_negation_in_terms():
    assert parse_expression("u_t - -u") == parse_expression("u_t + u")
    assert parse_expression("-u - u") == parse_expression("-2*u")


def test_phi_statement_lookahead():
    # "phi = expr;" is a substitution; any other phi use is an expression
    doc = parse_document("u_t + u_x = 0; phi = u;")
    assert isinstance(doc.statements[1], Substitution)
    doc = parse_document("u_t + u_x = 0; phi*u;")
    assert isinstance(doc.statements[1], DiffExpr)


def test_invalid_phi_statement_fails_at_parse():
    with pytest.raises(ParseError, match="^1:16: phi = 0 is excluded$"):
        parse_document("u_t + u_x = 0; phi = 0;")
    with pytest.raises(ParseError, match=r"^1:16: phi may depend on x, t, u only"):
        parse_document("u_t + u_x = 0; phi = u_x;")


def test_duplicate_statements_are_rejected():
    with pytest.raises(ParseError, match="^1:16: duplicate equation$"):
        parse_document("u_t + u_x = 0; u_t + u_xx = 0;")
    with pytest.raises(ParseError, match="^2:1: duplicate phi$"):
        parse_document("u_t + u_x = 0; phi = 1;\nphi = u;")
    with pytest.raises(ParseError, match="^3:1: duplicate symmetry 's'$"):
        parse_document(
            "u_t + u_x = 0;\n"
            "symmetry s { tau = 0; xi = 1; eta = 0; }\n"
            "symmetry s { tau = 1; xi = 0; eta = 0; }\n"
        )
    # unnamed symmetries and conserved blocks may repeat
    doc = parse_document(
        "u_t + u_x = 0;"
        " symmetry { tau = 0; xi = 1; eta = 0; }"
        " symmetry { tau = 1; xi = 0; eta = 0; }"
        " conserved { c0 = u; c1 = u; } conserved { c0 = u; c1 = u; }"
    )
    assert len(doc.symmetries) == 2 and len(doc.conserved) == 2


def test_component_blocks_accept_any_order():
    doc = parse_document(
        "u_t + u_x = 0; symmetry s { eta = u; tau = t; xi = x; }"
    )
    sym = doc.symmetry("s")
    assert str(sym.tau) == "t"
    with pytest.raises(ParseError, match="duplicate"):
        parse_document("u_t = 0; symmetry { tau = 0; tau = 1; eta = 0; xi = 0; }")
    with pytest.raises(ParseError, match="missing"):
        parse_document("u_t = 0; symmetry { tau = 0; xi = 1; }")
    with pytest.raises(ParseError, match="missing"):
        parse_document("u_t = 0; conserved { c0 = u; }")


def test_declarations_must_precede_statements():
    with pytest.raises(ParseError):
        parse_document("u_t = 0; param a;")


def test_unknown_symmetry_name():
    doc = parse_document("u_t = 0; symmetry s { tau = 0; xi = 1; eta = 0; }")
    with pytest.raises(DeclarationError):
        doc.symmetry("missing")


def test_parse_symmetry_inline():
    sym = parse_symmetry("tau = t; xi = 0; eta = -u")
    assert str(sym.eta) == "-u"
    with pytest.raises(ParseError):
        parse_symmetry("tau = t; xi = 0")
    with pytest.raises(ParseError, match="^1:27: expected one of tau, xi, eta$"):
        parse_symmetry("tau = 0; xi = 1; eta = 0; } anything")
    with pytest.raises(
        ParseError,
        match=r"^symmetry component tau may depend on x, t, u only \(found u_x\)$",
    ):
        parse_symmetry("tau = u_x; xi = 0; eta = 0")


def test_lexer_edges():
    assert parse_expression("u # trailing comment\n + x") == parse_expression(
        "u + x"
    )
    with pytest.raises(ParseError):
        parse_expression("u $ x")
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("u +")
    with pytest.raises(ParseError, match="trailing input"):
        parse_expression("u u")
    with pytest.raises(ParseError):
        parse_document("u_t = 0")  # missing semicolon
    # end of input sits at the end of the text, after a trailing comment
    with pytest.raises(ParseError) as info:
        parse_document("u_t + u_x = 0 # note")
    assert str(info.value) == "1:21: expected ';', found 'end of input'"
    # numbers are Unicode decimal digits, as int() reads them
    assert parse_expression("٣") == parse_expression("3")


def test_integers_stay_within_the_printable_digit_limit():
    # the largest printable literal and power round-trip; one digit more fails
    top = "9" * 4300
    assert str(parse_expression(top)) == top
    assert str(parse_expression("2^14000")) == str(2**14000)
    with pytest.raises(ParseError) as info:
        parse_expression("u + " + top + "9")
    assert str(info.value) == "1:5: integer literal has more than 4300 digits"
    # a power is refused at its '^', before it is taken when the base is
    # one term, so 7^30000000 costs no time
    with pytest.raises(UnsupportedInputError, match="1:4: '\\^' gives"):
        parse_expression("1/3^9100")
    with pytest.raises(UnsupportedInputError, match="1:2: '\\^' gives"):
        parse_expression("7^30000000")
    with pytest.raises(UnsupportedInputError, match="1:2: '\\^' gives"):
        parse_expression("2^-20000")
    # any other long number is refused where it is printed
    product = parse_expression("2^5000*2^5000*2^5000")
    assert product == DiffExpr.number(2**15000)
    with pytest.raises(UnsupportedInputError) as info:
        str(product)
    assert str(info.value) == "result has a number of more than 4300 digits"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
)
def test_integers_without_a_digit_limit(monkeypatch):
    # an interpreter before 3.10.7 has no limit and no getter for it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        e = parse_expression("9" * 5000 + "*u + 2^20000")
        assert str(e) == f"{2**20000} + {'9' * 5000}*u"
    finally:
        monkeypatch.undo()
        sys.set_int_max_str_digits(limit)


def test_equation_statement_validation():
    with pytest.raises(ParseError):
        parse_document("u + u_x = 0;")  # no u_t term
    with pytest.raises(ParseError):
        parse_document("2*u_t + u_x = 0;")
    with pytest.raises(ParseError):
        parse_document("u_t + u_x = u;")  # rhs must be the literal 0
    for text, message in (
        ("u_t + u*u_xy = 0;", "1:9: jet subscript of u may contain only t and x"),
        ("u_t + u*u_xxx + ln(ln(u))*u = 0;",
         "1:17: directly nested ln is not supported"),
        ("u_t + u*u_xxx = 0;\nsymmetry bad { tau = u_x; xi = 0; eta = 0; }",
         "2:1: symmetry component tau may depend on x, t, u only (found u_x)"),
    ):
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert str(info.value) == message, text


def test_fuzz_parser_totality():
    """Random token soup either parses or raises a package error."""
    rng = random.Random(99)
    vocab = ["u", "u_t", "u_x", "phi", "ln", "(", ")", "+", "-", "*", "^",
             "/", "=", ";", "{", "}", "2", "1/2", "a", "'", "_", "#",
             "²", "٣", "é", "\x0b"]
    for _ in range(300):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 12)))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parse_document(text)
        except NsaError:
            pass
    for _ in range(200):
        text = "".join(
            rng.choice(string.printable) for _ in range(rng.randint(1, 30))
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parse_document(text)
        except NsaError:
            pass
    for opening in ("(", "ln(", "ln(2*"):
        for depth in (101, 1200):
            text = "u_t + " + opening * depth + "u" + ")" * depth + " = 0;"
            with pytest.raises(ParseError, match="nested deeper than 100"):
                parse_document(text)
