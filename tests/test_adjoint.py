"""Adjoint construction, substitution checks, determining systems."""

import random
from fractions import Fraction
from importlib import resources

import genexpr
import pytest

from nsakit import (
    Classification,
    DiffExpr,
    Equation,
    PointSymmetry,
    Substitution,
    adjoint_equation,
    adjoint_system,
    classify_substitution,
    determining_system,
    determining_system_detailed,
    euler,
    formal_lagrangian,
    ibragimov_vector,
    ln,
    load_fixture,
    nsa_check,
    parse_document,
    parse_expression,
    partial_coord,
    primitive_normal,
)
from nsakit import adjoint, calculus
from nsakit.atoms import IndepVar, Jet, UnknownFn
from nsakit.errors import SubstitutionError, UnsupportedInputError
from nsakit.expr import unknown

T = DiffExpr.from_atom(IndepVar("t"))
X = DiffExpr.from_atom(IndepVar("x"))
U = DiffExpr.from_atom(Jet("u"))
V = DiffExpr.from_atom(Jet("v"))


def jet(*orders):
    return DiffExpr.from_atom(Jet("u", *orders))


def vjet(*orders):
    return DiffExpr.from_atom(Jet("v", *orders))


def test_formal_lagrangian():
    eq = Equation(jet(1, 0) + U * jet(0, 1))
    assert formal_lagrangian(eq) == V * eq.lhs


def test_adjoint_of_inviscid_transport():
    # F = u_t + u*u_x gives F* = -(v_t + u*v_x): integrate v*F by parts
    eq = Equation(jet(1, 0) + U * jet(0, 1))
    fstar = adjoint_equation(eq)
    assert fstar == -vjet(1, 0) - U * vjet(0, 1)


def test_adjoint_of_third_order_family():
    doc = parse_document(
        "func a(t); func c(t);"
        "u_t + a*u*u_xxx + 3*a*u_x*u_xx + c*u^2*u_x = 0;"
    )
    eq = Equation(doc.equations[0].lhs)
    decls = doc.declarations
    expected = parse_expression(
        "-v_t - a*u*v_xxx - c*u^2*v_x", decls
    )
    assert adjoint_equation(eq) == expected


def test_adjoint_of_fifth_order_family():
    doc = parse_document(
        "param a; param b; param c; param d;"
        "u_t + d*u_xxxxx + a*u*u_xxx + b*u_x*u_xx + c*u^2*u_x = 0;"
    )
    eq = Equation(doc.equations[0].lhs)
    decls = doc.declarations
    expected = parse_expression(
        "-v_t - d*v_xxxxx - a*u*v_xxx + (b - 3*a)*(u_xx*v_x + u_x*v_xx)"
        " - c*u^2*v_x",
        decls,
    )
    assert adjoint_equation(eq) == expected


def test_adjoint_system_pairs_equations():
    eq = Equation(jet(1, 0) + U * jet(0, 3))
    forward, backward = adjoint_system(eq)
    assert forward == eq
    assert backward.dep == "v"
    assert backward.lhs.leading_coeff() == 1
    # the v-equation is the sign-normalized adjoint
    fstar = adjoint_equation(eq)
    assert backward.lhs == -fstar
    # F* is defined for u-equations only
    with pytest.raises(UnsupportedInputError, match="u-equations"):
        adjoint_equation(backward)


def test_adjoint_is_computed_once_per_equation(monkeypatch):
    """F* and the flux share one construction of the Lagrangian brackets,
    and the euler operator, which would build its own, is never called."""
    eq = parse_document("param p; u_t + u*u_xxx + p*u_x^2 = 0;").equations[0]
    brackets = calculus.brackets
    calls = []

    def counting(partials, direction):
        calls.append(direction)
        return brackets(partials, direction)

    monkeypatch.setattr(calculus, "brackets", counting)
    fstar = adjoint_equation(eq)
    nsa_check(eq, Substitution(U))
    nsa_check(eq, Substitution(X))
    determining_system(eq)
    assert adjoint_system(eq)[1].lhs == -fstar
    xtrans = PointSymmetry(DiffExpr.zero(), DiffExpr.one(), DiffExpr.zero())
    ibragimov_vector(eq, xtrans)
    assert calls == ["x"]
    assert adjoint_equation(eq) is fstar
    assert fstar == euler(formal_lagrangian(eq), "u")
    # the stored F* is no part of the equation's identity
    fresh = Equation(eq.lhs)
    assert eq == fresh
    assert hash(eq) == hash(fresh)
    assert repr(eq) == repr(fresh)
    assert Equation._fields == ("lhs", "dep")


def test_nsa_check_computes_each_partial_once(monkeypatch):
    doc = load_fixture("type-3-IV.nsa")
    eq, sub = doc.equations[0], Substitution(doc.substitutions[0])
    expected = nsa_check(eq, sub)
    partial_coord = adjoint.partial_coord
    calls = []

    def counting(e, coordinate):
        calls.append(coordinate)
        return partial_coord(e, coordinate)

    monkeypatch.setattr(adjoint, "partial_coord", counting)
    report = nsa_check(eq, sub)
    assert sorted(calls) == ["t", "u", "x"]
    assert report == expected
    assert report.holds and report.nonzero_partials == ("x", "t", "u")
    assert report.classification is Classification.WEAK


def test_substitution_validation():
    Substitution(U)
    Substitution(X * U**-1)
    with pytest.raises(SubstitutionError, match="excluded"):
        Substitution(DiffExpr.zero())
    with pytest.raises(SubstitutionError):
        Substitution(jet(0, 1))
    with pytest.raises(SubstitutionError):
        Substitution(V)
    with pytest.raises(
        SubstitutionError, match=r"^phi may depend on x, t, u only \(found phi_u\)$"
    ):
        Substitution(DiffExpr.from_atom(UnknownFn("phi", 0, 0, 1)))
    with pytest.raises(SubstitutionError, match="^phi must be an expression, not int$"):
        Substitution(1)
    phi = X * U**-1
    assert Substitution(phi).phi is phi


def test_classification_rules():
    assert classify_substitution(Substitution(U)) is Classification.STRICT
    assert classify_substitution(Substitution(2 * U)) is Classification.QUASI
    assert classify_substitution(Substitution(U**-1)) is Classification.QUASI
    assert classify_substitution(Substitution(U + X)) is Classification.WEAK
    assert (
        classify_substitution(Substitution(X * U**-1)) is Classification.WEAK
    )
    assert classify_substitution(Substitution(DiffExpr.one())) is (
        Classification.NONLINEAR
    )
    assert classify_substitution(Substitution(X**2)) is (
        Classification.NONLINEAR
    )
    assert classify_substitution(Substitution(ln(U))) is Classification.QUASI


def test_nsa_check_holds_and_fails():
    # u_t + u*u_xxx + t*u^2*u_x admits phi = 1
    eq = Equation(jet(1, 0) + U * jet(0, 3) + T * U**2 * jet(0, 1))
    report = nsa_check(eq, Substitution(DiffExpr.one()))
    assert report.holds
    assert report.multiplier.is_zero
    assert report.residual.is_zero
    assert report.classification is Classification.NONLINEAR
    assert report.nonzero_partials == ()

    # phi = u is refuted: residual 3*(b - 2a)*u_x*u_xx with a = 1, b = 0
    report = nsa_check(eq, Substitution(U))
    assert not report.holds
    assert report.multiplier == -1
    assert report.residual == -6 * jet(0, 1) * jet(0, 2)
    assert report.classification is None
    assert report.nonzero_partials == ("u",)


def test_nsa_check_with_coefficient_functions():
    # the b = 0 member admits phi = u^-1; the b = 3a member does not
    doc = parse_document(
        "func a(t); func c(t);"
        "u_t + a*u*u_xxx + c*u^2*u_x = 0;"
        "phi = u^-1;"
    )
    eq = Equation(doc.equations[0].lhs)
    report = nsa_check(eq, Substitution(doc.substitutions[0]))
    assert report.holds
    assert report.classification is Classification.QUASI

    other = parse_document(
        "func a(t); func c(t);"
        "u_t + a*u*u_xxx + 3*a*u_x*u_xx + c*u^2*u_x = 0;"
    )
    report = nsa_check(
        Equation(other.equations[0].lhs),
        Substitution(parse_expression("u^-1")),
    )
    assert not report.holds


def test_determining_system_of_general_family():
    doc = parse_document(
        "param a; param b; param c; param d;"
        "u_t + d*u_xxxxx + a*u*u_xxx + b*u_x*u_xx + c*u^2*u_x = 0;"
    )
    eq = Equation(doc.equations[0].lhs)
    decls = doc.declarations
    system = determining_system(eq)
    assert len(system) == 15

    # every key is a pure x-jet monomial: the u_t coefficient cancels
    detailed = determining_system_detailed(eq)
    for key, _coeff in detailed:
        for atom in key.atoms():
            assert atom.t_order == 0

    def ph(t, x, u):
        return DiffExpr.from_atom(UnknownFn("phi", t, x, u))

    a = parse_expression("a", decls)
    b = parse_expression("b", decls)
    c = parse_expression("c", decls)
    d = parse_expression("d", decls)
    displayed = {
        "1": ph(1, 0, 0) + d * ph(0, 5, 0) + a * U * ph(0, 3, 0)
        + c * U**2 * ph(0, 1, 0),
        "u_x^2": 2 * (b - 3 * a) * ph(0, 1, 1) - 3 * a * U * ph(0, 1, 2)
        - 10 * d * ph(0, 3, 2),
        "u_xx": (b - 3 * a) * ph(0, 1, 0) - 3 * a * U * ph(0, 1, 1)
        - 10 * d * ph(0, 3, 1),
        "u_x*u_xx": 3 * (b - 2 * a) * ph(0, 0, 1) - 3 * a * U * ph(0, 0, 2)
        - 30 * d * ph(0, 2, 2),
        "u_xxxx": d * ph(0, 1, 1),
        "u_x*u_xxxx": d * ph(0, 0, 2),
    }
    generated = {g.sort_key() for g in system}
    for label, eqn in displayed.items():
        assert primitive_normal(eqn).sort_key() in generated, label


def test_determining_system_of_transport_equation():
    # for u_t + u*u_x every jet coefficient cancels: one equation remains
    eq = Equation(jet(1, 0) + U * jet(0, 1))
    keyed = {str(key): coeff for key, coeff in determining_system_detailed(eq)}
    assert set(keyed) == {"1"}

    def ph(t, x, u):
        return DiffExpr.from_atom(UnknownFn("phi", t, x, u))

    assert keyed["1"] == primitive_normal(ph(1, 0, 0) + U * ph(0, 1, 0))
    assert determining_system(eq) == [keyed["1"]]


def test_collect_pairs_rebuild_the_residual_and_scale_to_the_system():
    """On every fixture, the ``collect`` pairs of the residual rebuild it
    exactly, and each determining equation is the coefficient under the
    same key scaled to primitive form, a nonzero rational multiple of it.
    The scaled pairs therefore do not rebuild the residual."""
    phi = unknown("phi")
    for path in sorted(resources.files("nsakit").joinpath("fixtures").iterdir()):
        eq = load_fixture(path.name).equations[0]
        residual = adjoint._nsa_residual(eq, phi, partial_coord(phi, "u"))
        selected = {j for j in residual.jets("u") if j.order() >= 1}
        pairs = residual.collect(selected)
        assert DiffExpr.sum(key * c for key, c in pairs) == residual, path.name
        detailed = determining_system_detailed(eq)
        assert [key for key, _ in detailed] == [key for key, _ in pairs]
        for (_, c), (_, d) in zip(pairs, detailed):
            ratio = Fraction(d.terms[0][1]) / c.terms[0][1]
            assert ratio and c * ratio == d, (path.name, c, d)
        assert DiffExpr.sum(key * d for key, d in detailed) != residual


def test_nsa_residual_is_the_euler_operator_of_phi_times_f():
    """F*|_{v=phi} + phi_u*F = E_u(phi*F) for every phi(x, t, u).

    The residual is built from the stored adjoint and substitute_dependent,
    the right side from euler alone, so each checks the others.
    """
    phi = unknown("phi")
    cases = []
    for path in sorted(resources.files("nsakit").joinpath("fixtures").iterdir()):
        doc = load_fixture(path.name)
        eq = doc.equations[0]
        cases += [(eq, phi), (eq, doc.substitutions[0])]
    rng = random.Random(20121)
    for _ in range(200):
        eq = genexpr.random_equation(rng)
        cases += [(eq, phi), (eq, genexpr.random_point_function(rng))]
    for eq, f in cases:
        residual = adjoint._nsa_residual(eq, f, partial_coord(f, "u"))
        assert residual == euler(f * eq.lhs, "u"), (eq.lhs, f)


def test_stored_adjoint_is_the_euler_operator_of_the_lagrangian():
    """F* = A_0 - v_t, read off the equation's Lagrangian brackets, is the
    full Euler operator of L = v*F on the fixtures and 200 seeded
    equations."""
    eqs = [
        load_fixture(path.name).equations[0]
        for path in sorted(resources.files("nsakit").joinpath("fixtures").iterdir())
    ]
    rng = random.Random(2007)
    eqs += [genexpr.random_equation(rng) for _ in range(200)]
    for eq in eqs:
        assert eq.adjoint == euler(formal_lagrangian(eq), "u"), eq.lhs
