"""Total derivatives, Euler operator, substitutions, equations, symmetries."""

import random
from fractions import Fraction

import pytest
from genexpr import A_FN, random_expr

from nsakit import (
    DiffExpr,
    Equation,
    PointSymmetry,
    characteristic,
    equal,
    euler,
    ln,
    parse_document,
    parse_expression,
    prolonged_action,
    reduce_mod,
    substitute_dependent,
    substitute_symbols,
    total_derivative,
)
from nsakit.atoms import CoeffFn, IndepVar, Jet, Param
from nsakit.calculus import partial_coord, partial_jet
from nsakit.errors import (
    EquationFormError,
    ExpressionError,
    SubstitutionError,
    UnsupportedInputError,
)

T = DiffExpr.from_atom(IndepVar("t"))
X = DiffExpr.from_atom(IndepVar("x"))
U = DiffExpr.from_atom(Jet("u"))
U_T = DiffExpr.from_atom(Jet("u", 1, 0))
U_X = DiffExpr.from_atom(Jet("u", 0, 1))
U_XX = DiffExpr.from_atom(Jet("u", 0, 2))
U_XXX = DiffExpr.from_atom(Jet("u", 0, 3))
U_TX = DiffExpr.from_atom(Jet("u", 1, 1))


def test_total_x_derivative():
    assert total_derivative(U**2 * U_X, "x") == 2 * U * U_X**2 + U**2 * U_XX
    assert total_derivative(X * U, "x") == U + X * U_X
    assert total_derivative(7, "x").is_zero
    assert total_derivative(U, "x", order=3) == U_XXX


def test_total_t_derivative_of_functions():
    a = DiffExpr.from_atom(CoeffFn("a"))
    a1 = DiffExpr.from_atom(CoeffFn("a", 1))
    assert total_derivative(a * U, "t") == a1 * U + a * U_T
    assert total_derivative(a, "x").is_zero
    # a declared rule short-circuits the prime chain
    rule = DiffExpr.from_atom(CoeffFn("a"))
    big = CoeffFn("A", rule=rule)
    assert total_derivative(DiffExpr.from_atom(big), "t") == rule
    # inside its rule the bare f stands for the ruled atom itself
    p = DiffExpr.from_atom(Param("p"))
    f = CoeffFn("f", rule=p * DiffExpr.from_atom(CoeffFn("f")) * T**-1)
    assert total_derivative(DiffExpr.from_atom(f), "t") == (
        p * DiffExpr.from_atom(f) * T**-1
    )


def test_declared_rule_is_part_of_function_identity():
    ruled = parse_document("func f(t) deriv = f; u_t + f*u_x = 0;")
    plain = parse_document("func f(t); u_t + f*u_x = 0;")
    a = ruled.equations[0].lhs
    b = plain.equations[0].lhs
    assert a != b
    assert not (a - b).is_zero
    f_ruled = DiffExpr.from_atom(ruled.declarations.funcs["f"])
    f_plain = DiffExpr.from_atom(plain.declarations.funcs["f"])
    u_tt = DiffExpr.from_atom(Jet("u", 2, 0))
    assert total_derivative(a, "t") == u_tt + f_ruled * (U_X + U_TX)
    assert total_derivative(b, "t") == (
        u_tt + DiffExpr.from_atom(CoeffFn("f", 1)) * U_X + f_plain * U_TX
    )
    # a sum keeps the two apart instead of merging them as 2*f*u_x
    assert len((a + b).terms) == 3


def test_total_derivative_normalizes_a_bounded_amount(monkeypatch):
    # each monomial of the result is normalized a bounded number of times,
    # not once per partial sum
    rng = random.Random(5)
    atoms = (IndepVar("t"), IndepVar("x"), Param("p"), A_FN) + tuple(
        Jet("u", 0, k) for k in range(4)
    )
    e = DiffExpr.zero()
    while len(e.terms) < 100:
        e = e + random_expr(
            rng, atoms=atoms, max_terms=1, log_args=(), allow_negative_exp=False
        )
    normalize = DiffExpr._from_dict
    sizes = []

    def counting(cls, data):
        sizes.append(len(data))
        return normalize(data)

    monkeypatch.setattr(DiffExpr, "_from_dict", classmethod(counting))
    total_derivative(e, "x")
    assert sum(sizes) <= 4 * len(e.terms)


def test_total_derivative_of_logarithms():
    assert total_derivative(ln(U), "x") == U_X / U
    assert total_derivative(ln(2 * U), "t") == U_T / U
    with pytest.raises(ExpressionError):
        total_derivative(ln(U + T), "x")


def test_partial_derivatives():
    e = U**2 * U_X + T * U_X
    assert partial_jet(e, Jet("u", 0, 1)) == U**2 + T
    assert partial_jet(e, Jet("u")) == 2 * U * U_X
    assert partial_coord(e, "t") == U_X
    assert partial_coord(X * T**2, "t") == 2 * X * T
    assert partial_jet(ln(U), Jet("u")) == U**-1
    assert partial_coord(ln(X * T), "t") == T**-1
    assert partial_coord(X**2 * ln(X * T), "x") == X + 2 * X * ln(X * T)
    assert partial_coord(ln(X * T * U), "u") == U**-1
    assert partial_jet(ln(X * T * U_X), Jet("u", 0, 1)) == U_X**-1
    # an argument free of the coordinate differentiates to zero, even when
    # it is a sum and so has no inverse
    assert partial_coord(U * ln(U + X), "t").is_zero
    assert partial_jet(U_X * ln(X + T), Jet("u", 0, 1)) == ln(X + T)
    with pytest.raises(ExpressionError):
        partial_coord(T * ln(X + T), "t")


def test_euler_operator():
    assert euler(Fraction(1, 2) * U_X**2) == -U_XX
    assert euler(U * U_XX) == 2 * U_XX
    assert euler(U_T) .is_zero
    assert euler(ln(U)) == U**-1
    v = DiffExpr.from_atom(Jet("v"))
    assert euler(v * U_X, "v") == U_X


def test_euler_annihilates_total_derivatives():
    for direction in ("t", "x"):
        e = total_derivative(U**3 * U_X + T * ln(U), direction)
        assert euler(e).is_zero


def test_substitute_dependent():
    phi = X * U
    # v -> phi inside v_x: D_x(x*u) = u + x*u_x
    v_x = DiffExpr.from_atom(Jet("v", 0, 1))
    out = substitute_dependent(v_x, "v", phi)
    assert out == U + X * U_X
    v = DiffExpr.from_atom(Jet("v"))
    assert substitute_dependent(v**2, "v", U) == U**2
    with pytest.raises(SubstitutionError):
        substitute_dependent(v, "v", DiffExpr.from_atom(Jet("v", 0, 1)))


def test_substitute_symbols():
    a = CoeffFn("a")
    e = DiffExpr.from_atom(CoeffFn("a", 1)) * U + DiffExpr.from_atom(a) * U_X
    out = substitute_symbols(e, {"a": T**2})
    assert out == 2 * T * U + T**2 * U_X
    p = DiffExpr.from_atom(Param("p"))
    assert substitute_symbols(p * U, {"p": 3}) == 3 * U


def test_equation_validation():
    eq = Equation(U_T + U * U_X)
    assert eq.solved_rhs == -U * U_X
    assert eq.order == 1
    with pytest.raises(EquationFormError, match="u_t"):
        Equation(U * U_X)
    with pytest.raises(EquationFormError):
        Equation(2 * U_T + U_X)
    with pytest.raises(EquationFormError):
        Equation(U * U_T + U_X)
    with pytest.raises(UnsupportedInputError):
        Equation(U_T + U_TX)
    with pytest.raises(UnsupportedInputError):
        Equation(U_T + DiffExpr.from_atom(Jet("u", 2, 0)))


def test_point_symmetry_validation():
    sym = PointSymmetry(T, DiffExpr.zero(), -U, name="scaling")
    assert characteristic(sym) == -U - T * U_T
    with pytest.raises(UnsupportedInputError):
        PointSymmetry(U_X, DiffExpr.zero(), U)


def test_reduce_mod_single_equation():
    eq = Equation(U_T + U * U_X)
    assert reduce_mod(U_T, [eq]) == -U * U_X
    # mixed derivatives reduce through D_x of the solved form
    assert reduce_mod(U_TX, [eq]) == -(U_X**2) - U * U_XX
    assert reduce_mod(U + X, [eq]) == U + X
    assert reduce_mod(0, [eq]).is_zero


def test_reduce_mod_system():
    eq_u = Equation(U_T + U * U_X)
    v = DiffExpr.from_atom(Jet("v"))
    v_t = DiffExpr.from_atom(Jet("v", 1, 0))
    v_x = DiffExpr.from_atom(Jet("v", 0, 1))
    eq_v = Equation(v_t - v_x, dep="v")
    out = reduce_mod(U_T + v_t, [eq_u, eq_v])
    assert out == -U * U_X + v_x
    with pytest.raises(UnsupportedInputError):
        reduce_mod(U, [eq_u, eq_u])
    assert not v.is_zero


def test_prolonged_action_verifies_symmetries():
    # Galilean boost t*d_x + d_u leaves u_t + u*u_x = 0 invariant
    eq = Equation(U_T + U * U_X)
    boost = PointSymmetry(DiffExpr.zero(), T, DiffExpr.one())
    assert prolonged_action(boost, eq).is_zero
    # x-translation on any x-autonomous equation
    eq3 = Equation(U_T + U * U_XXX)
    shift = PointSymmetry(DiffExpr.zero(), DiffExpr.one(), DiffExpr.zero())
    assert prolonged_action(shift, eq3).is_zero
    # a non-symmetry leaves a nonzero action
    bad = PointSymmetry(DiffExpr.zero(), DiffExpr.zero(), U)
    assert not prolonged_action(bad, eq3).is_zero


def test_prolonged_action_matches_characteristic_form():
    """X(F) mod F=0 equals the linearized action on the characteristic."""
    eq = Equation(parse_expression("u_t + u*u_xxx"))
    sym = PointSymmetry(T, DiffExpr.zero(), -U)
    w = characteristic(sym)
    lin = DiffExpr.zero()
    # Frechet derivative of F in the direction w
    for jet_atom in {a for a in eq.lhs.atoms() if isinstance(a, Jet)}:
        coeff = partial_jet(eq.lhs, jet_atom)
        lin = lin + coeff * total_derivative(
            total_derivative(w, "t", jet_atom.t_order), "x", jet_atom.x_order
        )
    assert reduce_mod(lin, [eq]) == prolonged_action(sym, eq)
