"""Total derivatives, Euler operator, substitutions, equations, symmetries."""

import random
from fractions import Fraction
from importlib import resources

import pytest
from genexpr import (
    A_FN,
    A_INT,
    CALCULUS_ATOMS,
    DIFFERENTIABLE_LOG_ARGS,
    ROUNDTRIP_LOG_ARGS,
    random_expr,
)

from nsakit import (
    DiffExpr,
    Equation,
    PointSymmetry,
    adjoint_system,
    characteristic,
    euler,
    formal_lagrangian,
    ibragimov_vector,
    ln,
    parse_document,
    parse_expression,
    prolonged_action,
    reduce_mod,
    substitute_dependent,
    substitute_symbols,
    total_derivative,
)
from nsakit import calculus
from nsakit.atoms import CoeffFn, IndepVar, Jet, Log, Param, UnknownFn
from nsakit.catalog import load_fixture
from nsakit.calculus import partial_coord, partial_jet
from nsakit.errors import (
    EquationFormError,
    ExpressionError,
    NsaError,
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
    with pytest.raises(ExpressionError, match="^unknown direction 'y'$"):
        total_derivative(U, "y")


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
    # every piece of every order goes into one dict per order
    for direction in ("t", "x"):
        for order in (1, 2, 3):
            sizes.clear()
            total_derivative(e, direction, order)
            assert len(sizes) == order, (direction, order)


def _per_piece_leibniz(e, atom_rule):
    """Reference derivation: one DiffExpr per monomial piece, merged by sum."""

    def pieces():
        for factors, coeff in e._terms:
            for i, (atom, exp) in enumerate(factors):
                if isinstance(atom, Log):
                    darg = _per_piece_leibniz(atom.arg, atom_rule)
                    da = None if darg.is_zero else darg * atom.arg**-1
                else:
                    da = atom_rule(atom)
                if da is None or da.is_zero:
                    continue
                rest = list(factors)
                if exp == 1:
                    del rest[i]
                else:
                    rest[i] = (atom, exp - 1)
                yield DiffExpr._raw(((tuple(rest), coeff * exp),)) * da

    return DiffExpr.sum(pieces())


def test_derivations_match_the_per_piece_formula(monkeypatch):
    rng = random.Random(17)
    cases = [
        random_expr(rng, atoms=CALCULUS_ATOMS, log_args=DIFFERENTIABLE_LOG_ARGS)
        for _ in range(100)
    ]
    assert any(isinstance(a, Log) for e in cases for a in e.atoms())
    assert any(factors and min(x for _, x in factors) < 0
               for e in cases for factors, _coeff in e.terms)

    def derivatives(e):
        return [
            total_derivative(e, "t"),
            total_derivative(e, "x", 2),
            *(partial_jet(e, Jet("u", 0, k)) for k in range(3)),
            *(partial_coord(e, c) for c in ("t", "x", "u")),
        ]

    got = [derivatives(e) for e in cases]
    monkeypatch.setattr(calculus, "_leibniz", _per_piece_leibniz)
    for e, values in zip(cases, got):
        want = derivatives(e)
        assert values == want, str(e)
        assert [str(v) for v in values] == [str(w) for w in want]


def test_total_derivative_of_logarithms():
    assert total_derivative(ln(U), "x") == U_X / U
    assert total_derivative(ln(2 * U), "t") == U_T / U
    with pytest.raises(UnsupportedInputError, match=r"ln\(t \+ u\)"):
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
    with pytest.raises(UnsupportedInputError, match=r"ln\(t \+ x\)"):
        partial_coord(T * ln(X + T), "t")
    with pytest.raises(ExpressionError, match="^unknown coordinate 'y'$"):
        partial_coord(U, "y")


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


def _reference_euler(e, dep="u"):
    """The double sum term by term: (-1)^(m+k) D_t^m D_x^k of each partial."""

    def term(j, p):
        p = total_derivative(total_derivative(p, "t", j.t_order), "x", j.x_order)
        return -p if j.order() % 2 else p

    return DiffExpr.sum(term(j, p) for j, p in calculus.jet_partials(e, dep))


def _euler_outcome(f, e, dep):
    try:
        value = f(e, dep)
    except NsaError as exc:
        return type(exc), str(exc)
    return value, str(value)


EULER_ATOMS = CALCULUS_ATOMS + (
    A_INT,
    Jet("u", 1, 0), Jet("u", 2, 1), Jet("u", 1, 2), Jet("u", 0, 7),
    Jet("u", 1, 6), Jet("v"), Jet("v", 0, 1), Jet("v", 0, 7),
)


def test_euler_matches_the_term_by_term_double_sum():
    rng = random.Random(2011)
    log_args = ROUNDTRIP_LOG_ARGS + (DiffExpr.from_atom(Jet("v", 0, 1)),)
    raised = set()
    for i in range(2000):
        e = random_expr(rng, EULER_ATOMS, 4, 3, 3, log_args)
        dep = "uv"[i % 2]
        want = _euler_outcome(_reference_euler, e, dep)
        got = _euler_outcome(euler, e, dep)
        if got != want:
            # ln of a sum has no derivative, and the brackets differentiate
            # the highest orders first, so an order-cap refusal may come
            # before that one; both sides still refuse
            assert any(
                isinstance(a, Log) and len(a.arg.terms) > 1 for a in e.atoms()
            ), (str(e), dep)
            assert isinstance(got[0], type) and isinstance(want[0], type), str(e)
        if isinstance(want[0], type):
            raised.add(want)
    assert {message for _, message in raised} == {
        "jet of u exceeds the order cap 12",
        "jet of v exceeds the order cap 12",
        "cannot differentiate ln(t + u): its argument is a sum",
    }


def test_euler_takes_one_derivative_per_level(monkeypatch):
    eq = parse_document(
        "u_t + u_xxxxx + u*u_xxx + u_x*u_xx + u^2*u_x = 0;"
    ).equations[0]
    lagrangian = formal_lagrangian(eq)
    expected = _reference_euler(lagrangian)
    total = calculus.total_derivative
    passes = {"t": 0, "x": 0}

    def counting(e, direction, order=1):
        if not e.is_zero:
            passes[direction] += order
        return total(e, direction, order)

    monkeypatch.setattr(calculus, "total_derivative", counting)
    assert euler(lagrangian) == expected
    # five D_x down the row of t-order 0, one D_t across the two rows
    assert passes == {"t": 1, "x": 5}


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
    for lhs, message in (
        (DiffExpr.zero(), "equation left side must be a nonzero expression"),
        (U_T + DiffExpr.from_atom(Jet("v")), "u-equation must not involve v"),
        (U_T + DiffExpr.from_atom(UnknownFn("phi")),
         "equations must not contain unknown functions"),
    ):
        with pytest.raises(EquationFormError, match=f"^{message}$"):
            Equation(lhs)


def test_point_symmetry_validation():
    sym = PointSymmetry(T, DiffExpr.zero(), -U, name="scaling")
    assert characteristic(sym) == -U - T * U_T
    assert sym.tau is T
    with pytest.raises(UnsupportedInputError):
        PointSymmetry(U_X, DiffExpr.zero(), U)
    with pytest.raises(
        UnsupportedInputError,
        match="^symmetry component tau must be an expression, not int$",
    ):
        PointSymmetry(0, DiffExpr.one(), DiffExpr.zero())
    phi_u = DiffExpr.from_atom(UnknownFn("phi", 0, 0, 1))
    with pytest.raises(
        UnsupportedInputError,
        match=r"^symmetry component eta may depend on x, t, u only \(found phi_u\)$",
    ):
        PointSymmetry(DiffExpr.zero(), DiffExpr.one(), phi_u)


def test_reduce_mod_single_equation():
    eq = Equation(U_T + U * U_X)
    assert reduce_mod(U_T, [eq]) == -U * U_X
    # mixed derivatives reduce through D_x of the solved form
    assert reduce_mod(U_TX, [eq]) == -(U_X**2) - U * U_XX
    assert reduce_mod(U + X, [eq]) == U + X
    assert reduce_mod(0, [eq]).is_zero


def test_reduce_mod_substitutes_every_governed_jet_per_round(monkeypatch):
    """The raw divergence of W31 carries u_t and v_t only; both go in one
    substitution."""
    doc = load_fixture("W31.nsa")
    eq = doc.equations[0]
    system = adjoint_system(eq)
    raw = ibragimov_vector(eq, doc.symmetry("scaling"))
    divergence = total_derivative(raw.c0, "t") + total_derivative(raw.c1, "x")
    calls = []
    subs_atoms = DiffExpr.subs_atoms

    def counted(self, mapping):
        calls.append(sorted(map(str, mapping)))
        return subs_atoms(self, mapping)

    monkeypatch.setattr(DiffExpr, "subs_atoms", counted)
    assert reduce_mod(divergence, system).is_zero
    assert calls == [["u_t", "v_t"]]


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
    with pytest.raises(
        UnsupportedInputError, match="^symmetry action is defined for u-equations$"
    ):
        prolonged_action(shift, adjoint_system(eq3)[1])


def test_prolonged_action_matches_characteristic_form():
    """X(F) mod F=0 equals the linearized action on the characteristic,
    and linearization equals the hand-rolled Frechet sum, for a scaling of
    u_t + u*u_xxx and every symmetry the fixtures record."""
    cases = [(Equation(parse_expression("u_t + u*u_xxx")),
              PointSymmetry(T, DiffExpr.zero(), -U))]
    for path in sorted(resources.files("nsakit").joinpath("fixtures").iterdir()):
        doc = load_fixture(path.name)
        cases += [(doc.equations[0], sym) for sym in doc.symmetries]
    assert len(cases) == 16
    for eq, sym in cases:
        w = characteristic(sym)
        lin = DiffExpr.zero()
        # Frechet derivative of F in the direction w
        for jet_atom in {a for a in eq.lhs.atoms() if isinstance(a, Jet)}:
            coeff = partial_jet(eq.lhs, jet_atom)
            lin = lin + coeff * total_derivative(
                total_derivative(w, "t", jet_atom.t_order), "x", jet_atom.x_order
            )
        assert calculus.linearization(eq.lhs, w) == lin, (eq.lhs, sym)
        assert reduce_mod(lin, [eq]) == prolonged_action(sym, eq), (eq.lhs, sym)


def test_linearization_decides_a_generalized_symmetry():
    """KdV's fifth-order flow Q is a generalized symmetry: F_*(Q) vanishes
    on solutions, and a wrong coefficient leaves a residual."""
    eq = Equation(parse_expression("u_t + 6*u*u_x + u_xxx"))
    flow = "u_xxxxx + 10*u*u_xxx + 20*u_x*u_xx + {}*u^2*u_x"
    q = parse_expression(flow.format(30))
    assert reduce_mod(calculus.linearization(eq.lhs, q), eq).is_zero
    q = parse_expression(flow.format(31))
    assert str(reduce_mod(calculus.linearization(eq.lhs, q), eq)) == (
        "6*u*u_x*u_xxx + 6*u*u_xx^2 + 12*u_x^2*u_xx"
    )
