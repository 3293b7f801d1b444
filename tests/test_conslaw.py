"""Conserved vectors: construction, localization, normalization, checking."""

import random
from fractions import Fraction
from importlib import resources

import pytest
from genexpr import (
    A_FN,
    P as P_ATOM,
    U_T as U_T_ATOM,
    declarations,
    random_equation,
    random_expr,
    random_point_function,
)

from nsakit import (
    ConservedVector,
    DiffExpr,
    Equation,
    PointSymmetry,
    Substitution,
    adjoint_system,
    characteristic,
    density_normalize,
    formal_lagrangian,
    ibragimov_vector,
    is_trivial,
    ln,
    load_fixture,
    localize,
    parse_document,
    parse_expression,
    parse_symmetry,
    partial_jet,
    prolonged_action,
    reduce_mod,
    total_derivative,
    verify_divergence,
)
from nsakit import conslaw
from nsakit.atoms import IndepVar, Jet, Log
from nsakit.calculus import brackets, derivative
from nsakit.errors import NsaError, UnsupportedInputError

T = DiffExpr.from_atom(IndepVar("t"))
X = DiffExpr.from_atom(IndepVar("x"))
U = DiffExpr.from_atom(Jet("u"))
U_X = DiffExpr.from_atom(Jet("u", 0, 1))
U_XX = DiffExpr.from_atom(Jet("u", 0, 2))
U_XXX = DiffExpr.from_atom(Jet("u", 0, 3))
V = DiffExpr.from_atom(Jet("v"))
P = DiffExpr.from_atom(P_ATOM)


def scaling_equation():
    # u_t + u*u_xxx + t*u^2*u_x admits t*d_t - u*d_u
    return Equation(
        DiffExpr.from_atom(Jet("u", 1, 0)) + U * U_XXX + T * U**2 * U_X
    )


def scaling_symmetry():
    return PointSymmetry(T, DiffExpr.zero(), -U, name="scaling")


def test_raw_vector_density_oracle():
    """tau*L + w*dL/du_t with L = v*F and w = -u - t*u_t.

    C0 = t*v*F + (-u - t*u_t)*v collapses on expansion to
    v*(t*u*u_xxx + t^2*u^2*u_x - u): the t*u_t terms cancel exactly.
    """
    cv = ibragimov_vector(scaling_equation(), scaling_symmetry())
    expected = V * (T * U * U_XXX + T**2 * U**2 * U_X - U)
    assert cv.c0 == expected


def test_raw_vector_flux_oracle():
    """Third-order flux bracket for x-translation on u_t + u*u_xxx.

    With w = -u_x: C1 = w*(D_x^2 dL/du_xxx) - D_x w*(D_x dL/du_xxx)
    + D_x^2 w*dL/du_xxx, dL/du_xxx = u*v. Expanding by hand gives
    v*u_t + u*u_xx*v_x - u*u_x*v_xx - 2*u_x^2*v_x after replacing
    -u_x*D_x^2(uv) + ... term by term.
    """
    eq = Equation(DiffExpr.from_atom(Jet("u", 1, 0)) + U * U_XXX)
    shift = PointSymmetry(DiffExpr.zero(), DiffExpr.one(), DiffExpr.zero())
    cv = ibragimov_vector(eq, shift)
    v_x = DiffExpr.from_atom(Jet("v", 0, 1))
    v_xx = DiffExpr.from_atom(Jet("v", 0, 2))
    v_t = DiffExpr.from_atom(Jet("v", 1, 0))
    expected = V * DiffExpr.from_atom(Jet("u", 1, 0)) + U * U_XX * v_x \
        - U * U_X * v_xx - 2 * U_X**2 * v_x
    assert cv.c1 == expected
    assert cv.c0 == -V * U_X
    assert not v_t.is_zero


def test_raw_vector_satisfies_divergence_on_the_system():
    eq = scaling_equation()
    cv = ibragimov_vector(eq, scaling_symmetry())
    system = list(adjoint_system(eq))
    assert verify_divergence(cv, system).is_zero


def test_localization_is_certified_by_the_divergence():
    eq = scaling_equation()
    cv = ibragimov_vector(eq, scaling_symmetry())
    good = localize(cv, Substitution(DiffExpr.one()))
    assert good.c0 == T * U * U_XXX + T**2 * U**2 * U_X - U
    assert verify_divergence(good, eq).is_zero

    # phi = u fails nsa_check here; localize substitutes all the same
    bad = localize(cv, Substitution(U))
    assert bad.c0 == U * good.c0
    assert not verify_divergence(bad, eq).is_zero


def test_localized_vector_is_conserved_on_the_single_equation():
    eq = scaling_equation()
    cv = localize(
        ibragimov_vector(eq, scaling_symmetry()), Substitution(DiffExpr.one())
    )
    assert verify_divergence(cv, eq).is_zero


def test_density_normalize_strips_total_x_derivatives():
    eq = scaling_equation()
    cv = localize(
        ibragimov_vector(eq, scaling_symmetry()), Substitution(DiffExpr.one())
    )
    norm = density_normalize(cv, eq)
    # density u; flux t*u^3/3 + u*u_xx - u_x^2/2
    assert norm.c0 == U
    assert norm.c1 == Fraction(1, 3) * T * U**3 + U * U_XX \
        - Fraction(1, 2) * U_X**2
    assert verify_divergence(norm, eq).is_zero
    assert norm.provenance.sign == -1
    with pytest.raises(
        UnsupportedInputError, match=r"^normalize a localized \(v-free\) vector$"
    ):
        density_normalize(ibragimov_vector(eq, scaling_symmetry()), eq)


def test_density_normalize_transfer_identity():
    eq = scaling_equation()
    cv = localize(
        ibragimov_vector(eq, scaling_symmetry()), Substitution(DiffExpr.one())
    )
    norm = density_normalize(cv, eq)
    moved = norm.provenance.sign * cv.c0 - norm.c0
    assert moved == total_derivative(norm.provenance.transfer, "x")
    assert norm.provenance.sign * cv.c1 - norm.c1 == -total_derivative(
        norm.provenance.transfer, "t"
    )


def test_density_normalize_logarithm_branch():
    # localizing x-translation by x*u^-1 leaves density -u_x/u - ...;
    # the u_x*u^-1 term integrates to ln u
    eq = Equation(DiffExpr.from_atom(Jet("u", 1, 0)) + U * U_XXX)
    raw = ibragimov_vector(
        eq, PointSymmetry(DiffExpr.zero(), DiffExpr.one(), DiffExpr.zero())
    )
    local = localize(raw, Substitution(X * U**-1))
    norm = density_normalize(local, eq)
    assert norm.c0 == ln(U)
    assert norm.c1 == U_XX
    assert verify_divergence(norm, eq).is_zero


def test_density_normalize_power_branch():
    # a D_x(u_x^3/3) summand in the density moves wholly into the flux
    eq = Equation(DiffExpr.from_atom(Jet("u", 1, 0)) + U_XXX)
    h = U_X**3 / 3
    cv = ConservedVector(
        U + total_derivative(h, "x"),
        U_XX - total_derivative(h, "t"),
    )
    norm = density_normalize(cv, eq)
    assert norm.c0 == U
    assert norm.c1 == U_XX
    assert norm.provenance.transfer == h
    assert norm.provenance.sign == 1
    assert verify_divergence(norm, eq).is_zero


def test_verify_divergence_reports_residuals():
    eq = scaling_equation()
    wrong = ConservedVector(U, U**2)
    resid = verify_divergence(wrong, eq)
    assert not resid.is_zero


def test_localization_is_linear_in_the_substitution():
    """Scaling phi by a nonzero rational scales both components."""
    eq = scaling_equation()
    raw = ibragimov_vector(eq, scaling_symmetry())
    base = localize(raw, Substitution(DiffExpr.one()))
    scaled = localize(raw, Substitution(DiffExpr.number(Fraction(3, 7))))
    assert scaled.c0 == Fraction(3, 7) * base.c0
    assert scaled.c1 == Fraction(3, 7) * base.c1


def test_divergence_residual_survives_normalization():
    """Normalization changes the residual only by the recorded sign."""
    eq = Equation(DiffExpr.from_atom(Jet("u", 1, 0)) + U_XXX)
    unconserved = ConservedVector(U * U_XX, DiffExpr.zero())
    norm = density_normalize(unconserved, eq)
    assert norm.c0 == U_X**2
    assert norm.provenance.sign == -1
    before = verify_divergence(unconserved, eq)
    after = verify_divergence(norm, eq)
    assert not before.is_zero
    assert after == norm.provenance.sign * before


def test_is_trivial():
    eq = Equation(DiffExpr.from_atom(Jet("u", 1, 0)) + U * U_XXX)
    # a density that is a total x-derivative on solutions is trivial
    h = U * U_X
    cv = ConservedVector(
        total_derivative(h, "x"), -total_derivative(h, "t")
    )
    assert is_trivial(cv, eq)
    assert is_trivial(density_normalize(cv, eq), eq)
    real = density_normalize(
        localize(
            ibragimov_vector(
                scaling_equation(), scaling_symmetry()
            ),
            Substitution(DiffExpr.one()),
        ),
        scaling_equation(),
    )
    assert not is_trivial(real, scaling_equation())


@pytest.mark.parametrize(
    "c0, c1, want",
    [
        (
            -(U**2) + U * U_XX + U_X**2,
            T * U**3,
            ("u^2", "-t*u^3 - u*u_tx - u_x*u_t", "-u*u_x", -1),
        ),
        # the power -1 of the slot below u_xx integrates to a logarithm
        (
            U_XX * ln(U),
            DiffExpr.zero(),
            ("u^-1*u_x^2", "-u^-1*u_x*u_t - u_tx*ln(u)", "-u_x*ln(u)", -1),
        ),
        (
            U_X * U_XXX * ln(U),
            DiffExpr.zero(),
            (
                "1/3*u^-2*u_x^4 + u_xx^2*ln(u)",
                "-1/3*u^-2*u_x^3*u_t - u^-1*u_x*u_xx*u_t + u^-1*u_x^2*u_tx"
                " - u_x*u_txx*ln(u) - u_xx*u_tx*ln(u)",
                "1/3*u^-1*u_x^3 - u_x*u_xx*ln(u)",
                -1,
            ),
        ),
        (
            U_X**-1 * U_XX * ln(U),
            DiffExpr.zero(),
            (
                "u^-1*u_x*ln(u_x)",
                "-u^-1*u_t*ln(u_x) - u_x^-1*u_tx*ln(u)",
                "-ln(u)*ln(u_x)",
                -1,
            ),
        ),
        # a logarithm of the slot u_x is refused: returned unchanged
        (U_XX * ln(U_X), DiffExpr.zero(), ("u_xx*ln(u_x)", "0", "0", 1)),
        # a jet-free logarithm rides along at x-order 1
        (
            ln(DiffExpr.from_atom(A_FN)) * U_X,
            DiffExpr.zero(),
            ("0", "a^-1*a'*u + u_t*ln(a)", "u*ln(a)", 1),
        ),
        (
            ln(T) * U * U_X,
            DiffExpr.zero(),
            ("0", "1/2*t^-1*u^2 + u*u_t*ln(t)", "1/2*u^2*ln(t)", 1),
        ),
        (ln(X) * U_X, DiffExpr.zero(), ("x^-1*u", "-u_t*ln(x)", "-u*ln(x)", -1)),
    ],
    ids=[
        "polynomial", "uxx_ln_u", "ux_uxxx_ln_u", "uxx_per_ux_ln_u", "ln_ux_refused",
        "ux_ln_a", "u_ux_ln_t", "ux_ln_x",
    ],
)
def test_repeated_normalization_keeps_the_provenance_identities(c0, c1, want):
    eq = Equation(DiffExpr.from_atom(Jet("u", 1, 0)) + U * U_XXX)
    original = ConservedVector(c0, c1)
    once = density_normalize(original, eq)
    *texts, sign = want
    pinned = [parse_expression(text, declarations()) for text in texts]
    assert [once.c0, once.c1, once.provenance.transfer] == pinned
    assert once.provenance.sign == sign
    twice = density_normalize(once, eq)
    assert (twice.c0, twice.c1) == (once.c0, once.c1)
    for cv in (once, twice):
        transfer, sign = cv.provenance.transfer, cv.provenance.sign
        assert sign * original.c0 - cv.c0 == total_derivative(transfer, "x")
        assert cv.c1 - sign * original.c1 == total_derivative(transfer, "t")


def test_flux_order_follows_the_equation():
    sixth = Equation(
        DiffExpr.from_atom(Jet("u", 1, 0)) + DiffExpr.from_atom(Jet("u", 0, 6))
    )
    shift = PointSymmetry(DiffExpr.zero(), DiffExpr.one(), DiffExpr.zero())
    raw = ibragimov_vector(sixth, shift)
    assert verify_divergence(raw, adjoint_system(sixth)).is_zero
    vec = localize(raw, Substitution(DiffExpr.one()))
    assert verify_divergence(vec, sixth).is_zero

    doc = parse_document(
        "u_t + u_xxxxxxx + u*u_x = 0;\n"
        "phi = u;\n"
        "symmetry scal { tau = 7*t; xi = x; eta = -6*u; }\n"
    )
    eq, sym = doc.equations[0], doc.symmetry("scal")
    assert prolonged_action(sym, eq).is_zero
    raw = ibragimov_vector(eq, sym)
    assert verify_divergence(raw, adjoint_system(eq)).is_zero
    vec = density_normalize(localize(raw, Substitution(doc.substitutions[0])), eq)
    assert vec.c0 == Fraction(11, 2) * U**2
    assert verify_divergence(vec, eq).is_zero


# Reference copies of the term-by-term versions that the bracket recurrence
# and the level-by-level normalization replace; the tests below pin the
# current functions to them.


def _reference_flux(eq, sym):
    """C^x as the alternating double sum over dL/du_mx, m = k+1..n."""
    lagrangian = formal_lagrangian(eq)
    n = eq.order
    dw = {(0, 0): characteristic(sym)}
    dl = {
        m: {(0, 0): partial_jet(lagrangian, Jet("u", 0, m))}
        for m in range(1, n + 1)
    }
    pieces = [sym.xi * lagrangian]
    for k in range(n):
        bracket = DiffExpr.sum(
            (-1) ** (m - k - 1) * derivative(dl[m], 0, m - k - 1)
            for m in range(k + 1, n + 1)
        )
        pieces.append(derivative(dw, 0, k) * bracket)
    return DiffExpr.sum(pieces)


def _reference_top_x_order(factors):
    top = 0
    for atom, _exp in factors:
        if isinstance(atom, Jet) and atom.t_order == 0:
            top = max(top, atom.x_order)
    return top


def _reference_transfer_candidate(factors, coeff):
    jets_x = {}
    for atom, exp in factors:
        if isinstance(atom, Jet):
            if atom.dep != "u" or atom.t_order:
                return None
            jets_x[atom.x_order] = exp
        if isinstance(atom, Log):
            for inner in atom.arg.atoms():
                if isinstance(inner, Jet) and inner.t_order:
                    return None
    k = max((o for o in jets_x if o >= 1), default=0)
    if not k or jets_x[k] != 1:
        return None
    m = jets_x.get(k - 1, 0)
    top = Jet("u", 0, k)
    slot = Jet("u", 0, k - 1)
    kept = tuple(it for it in factors if it[0] != top and it[0] != slot)
    for atom, _exp in kept:
        if isinstance(atom, Log) and any(
            a.x_order > k - 2 for a in atom.arg.atoms() if isinstance(a, Jet)
        ):
            return None
    if m == -1:
        integrated = ln(DiffExpr.from_atom(slot))
    else:
        integrated = DiffExpr.from_atom(slot) ** (m + 1) * Fraction(1, m + 1)
    rest = DiffExpr.number(coeff)
    for atom, exp in kept:
        rest = rest * DiffExpr.from_atom(atom, exp)
    return rest * integrated


def _reference_normalize(cv):
    """One transfer per step, highest x-order first, until none applies or
    the density repeats; returns (c0, c1, transfer, sign)."""
    for atom in cv.c0.atoms():
        if isinstance(atom, Jet) and atom.dep == "v":
            raise UnsupportedInputError("normalize a localized (v-free) vector")
    work = cv.c0
    h_pieces = []
    seen = {work}
    while True:
        ordered = sorted(work.terms, key=lambda it: -_reference_top_x_order(it[0]))
        for factors, coeff in ordered:
            h_piece = _reference_transfer_candidate(factors, coeff)
            if h_piece is not None:
                break
        else:
            break
        work = work - total_derivative(h_piece, "x")
        h_pieces.append(h_piece)
        if work in seen:
            break
        seen.add(work)
    h = DiffExpr.sum(h_pieces)
    a1 = cv.c1 + total_derivative(h, "t")
    sign = 1
    if work.leading_coeff() < 0:
        sign = -1
        work, a1, h = -work, -a1, -h
    return work, a1, sign * cv.provenance.transfer + h, sign * cv.provenance.sign


def _outcome(normalize, cv):
    try:
        return normalize(cv)
    except NsaError as exc:
        return type(exc), str(exc)


def _normalized(cv):
    out = density_normalize(cv, scaling_equation())
    return out.c0, out.c1, out.provenance.transfer, out.provenance.sign


DENSITY_ATOMS = (
    IndepVar("t"), IndepVar("x"), P_ATOM, A_FN, U_T_ATOM,
    *(Jet("u", 0, k) for k in range(6)),
)
# ln of monomials, one with a t-derivative, of a sum, whose D_x is
# refused, and of jet-free arguments
DENSITY_LOG_ARGS = (
    U, U_X, U_XX, 2 * U, DiffExpr.from_atom(U_T_ATOM), U + T,
    T, DiffExpr.from_atom(A_FN),
)


def test_level_normalization_matches_the_term_by_term_reference():
    rng = random.Random(20121)
    raised = 0
    for i in range(2000):
        c0 = random_expr(rng, DENSITY_ATOMS, 5, 4, 3, DENSITY_LOG_ARGS)
        if i % 2:
            # a total x-derivative gives several levels of transfers
            h = random_expr(rng, DENSITY_ATOMS, 4, 3, 2, DENSITY_LOG_ARGS[:5])
            c0 = c0 + total_derivative(h, "x")
        c1 = random_expr(rng, DENSITY_ATOMS, 2, 2, 2, DENSITY_LOG_ARGS)
        cv = ConservedVector(c0, c1)
        want = _outcome(_reference_normalize, cv)
        assert _outcome(_normalized, cv) == want, c0
        raised += isinstance(want[0], type)
    assert 0 < raised < 200  # both branches are exercised


def test_one_total_x_derivative_per_level(monkeypatch):
    # three terms accepted at x-order 2; what they leave has no acceptable
    # term at x-order 1
    c0 = U * U_XX + U**2 * U_XX + U_X * U_XX
    eq = Equation(DiffExpr.from_atom(Jet("u", 1, 0)) + U_XXX)
    expected = _reference_normalize(ConservedVector(c0, DiffExpr.zero()))
    total = conslaw.total_derivative
    directions = []

    def counting(e, direction, order=1):
        directions.append(direction)
        return total(e, direction, order)

    monkeypatch.setattr(conslaw, "total_derivative", counting)
    norm = density_normalize(ConservedVector(c0, DiffExpr.zero()), eq)
    assert directions.count("x") == 1
    assert (norm.c0, norm.c1, norm.provenance.transfer, norm.provenance.sign) \
        == expected
    assert norm.c0 == U_X**2 + 2 * U * U_X**2


@pytest.mark.parametrize("order", range(1, 8))
def test_flux_recurrence_matches_the_alternating_double_sum(order):
    top = DiffExpr.from_atom(Jet("u", 0, order))
    below = DiffExpr.from_atom(Jet("u", 0, order - 1))
    eq = Equation(
        DiffExpr.from_atom(Jet("u", 1, 0))
        + P * U * top + U_X * below**2 + T * U**2 * U_X
    )
    zero, one = DiffExpr.zero(), DiffExpr.one()
    for sym in (
        PointSymmetry(zero, one, zero),  # x-translation
        PointSymmetry(one, zero, zero),  # t-translation
        PointSymmetry(order * T, X, -U),  # scaling
    ):
        assert ibragimov_vector(eq, sym).c1 == _reference_flux(eq, sym), sym


def _per_call_vector(eq, sym):
    """The raw vector with dL/du_t and the flux brackets over dL/du_(k+1)x,
    k below the equation's order, built on every call."""
    lagrangian = formal_lagrangian(eq)
    w = characteristic(sym)
    c0 = sym.tau * lagrangian + w * partial_jet(lagrangian, Jet("u", 1, 0))
    row = {k: partial_jet(lagrangian, Jet("u", 0, k + 1)) for k in range(eq.order)}
    dw = {(0, 0): w}
    pieces = [derivative(dw, 0, k) * b for k, b in enumerate(brackets(row, "x")) if b]
    return ConservedVector(c0, DiffExpr.sum([sym.xi * lagrangian, *pieces]))


def test_vector_from_the_stored_brackets_matches_the_per_call_construction():
    cases = []
    for path in sorted(resources.files("nsakit").joinpath("fixtures").iterdir()):
        doc = load_fixture(path.name)
        cases += [(doc.equations[0], sym) for sym in doc.symmetries]
    assert len(cases) >= 15
    rng = random.Random(2011)
    for _ in range(200):
        eq = random_equation(rng)
        parts = [random_point_function(rng) for _ in range(3)]
        cases.append((eq, PointSymmetry(*parts)))
    for eq, sym in cases:
        assert ibragimov_vector(eq, sym) == _per_call_vector(eq, sym), (eq, sym)


# is_trivial decides by euler(C0) = 0 and a zero divergence; the reference
# below is the normalization-based decision it replaces.

THIRD_ORDER = Equation(DiffExpr.from_atom(U_T_ATOM) + U * U_XXX)
# u is conserved on THIRD_ORDER, with this flux, but is no total x-derivative
U_FLUX = U * U_XX - Fraction(1, 2) * U_X**2


def _reference_is_trivial(cv, eq):
    normalized = density_normalize(cv, eq)
    if not reduce_mod(normalized.c0, eq).is_zero:
        return False
    return reduce_mod(total_derivative(normalized.c1, "x"), eq).is_zero


def _exact(h, flux_shift=0):
    return ConservedVector(
        total_derivative(h, "x"), flux_shift - total_derivative(h, "t")
    )


def test_is_trivial_is_exact_where_normalization_stops():
    # u_xx*ln(u_x) fails the ln-order test of the normalization, which
    # leaves it in the density, yet it is D_x(u_x*ln(u_x)) - u_xx
    cv = _exact(U_X * ln(U_X))
    assert density_normalize(cv, THIRD_ORDER).c0 == U_XX * ln(U_X)
    assert not _reference_is_trivial(cv, THIRD_ORDER)
    assert is_trivial(cv, THIRD_ORDER)
    for h in (U * U_X, U_X * ln(U), U**-1 * U_X**2, ln(U_X)):
        assert _reference_is_trivial(_exact(h), THIRD_ORDER), h
        assert is_trivial(_exact(h), THIRD_ORDER), h


def test_is_trivial_accepts_every_vector_the_reference_accepts():
    rng = random.Random(2007)
    exact_only = 0
    for _ in range(1000):
        h = random_expr(rng, DENSITY_ATOMS, 4, 3, 2, DENSITY_LOG_ARGS[:5])
        # an x-constant flux term keeps the vector trivial
        shift = random_expr(rng, (IndepVar("t"), P_ATOM, A_FN), 2, 2, 2, ())
        exact = _exact(h, shift)
        assert is_trivial(exact, THIRD_ORDER), h
        exact_only += not _reference_is_trivial(exact, THIRD_ORDER)
        # conserved, but u is no total x-derivative
        other = ConservedVector(exact.c0 + U, exact.c1 + U_FLUX)
        assert verify_divergence(other, THIRD_ORDER).is_zero
        assert not is_trivial(other, THIRD_ORDER), h
        assert not _reference_is_trivial(other, THIRD_ORDER), h
    # the normalization leaves some exact densities behind
    assert 0 < exact_only < 500


def test_is_trivial_requires_conservation():
    cv = _exact(U * U_X)
    wrong = ConservedVector(cv.c0, cv.c1 + X * U)
    assert not is_trivial(wrong, THIRD_ORDER)


def test_is_trivial_refuses_v():
    with pytest.raises(UnsupportedInputError, match="v-free"):
        is_trivial(ConservedVector(V * U_X, DiffExpr.zero()), THIRD_ORDER)


# Point symmetries of the 3-IV equation that its fixture lacks, found by
# solving the determining equations of prolonged_action; a derived
# symmetry algebra must contain them.
@pytest.mark.parametrize("generator", [
    "tau = 0; xi = x; eta = 3*u",
    "tau = -A*a^-1; xi = 0; eta = u",
    "tau = a^-1; xi = 0; eta = 0",
])
def test_3_iv_generators_beyond_the_fixture_give_conserved_vectors(generator):
    doc = load_fixture("type-3-IV.nsa")
    eq = doc.equations[0]
    sym = parse_symmetry(generator, doc.declarations)
    assert prolonged_action(sym, eq).is_zero
    local = localize(ibragimov_vector(eq, sym), Substitution(doc.substitutions[0]))
    assert verify_divergence(density_normalize(local, eq), (eq,)).is_zero
