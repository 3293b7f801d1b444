"""Acceptance criteria, one test per criterion.

Every assertion is symbolic equality over exact rational arithmetic:
the tolerance is zero throughout.  The terminal summary prints one
PASS/FAIL line per criterion (see conftest.py).
"""

import random

from genexpr import (
    CALCULUS_ATOMS,
    DIFFERENTIABLE_LOG_ARGS,
    EXCHANGE_ATOMS,
    declarations,
    random_expr,
    random_point_function,
)

from nsakit import (
    Classification,
    ConservedVector,
    DiffExpr,
    PointSymmetry,
    Substitution,
    adjoint_equation,
    adjoint_system,
    catalog_entries,
    catalog_entry,
    classify_substitution,
    density_normalize,
    determining_system,
    euler,
    ibragimov_vector,
    is_trivial,
    load_fixture,
    localize,
    nsa_check,
    parse_document,
    parse_expression,
    partial_coord,
    primitive_normal,
    prolonged_action,
    substitute_dependent,
    substitute_symbols,
    total_derivative,
    verify_divergence,
    verify_entry,
)
from nsakit.atoms import UnknownFn

FAMILY_SOURCE = (
    "func a(t); func b(t); func c(t); func d(t);"
    "u_t + d*u_xxxxx + a*u*u_xxx + b*u_x*u_xx + c*u^2*u_x = 0;"
)


def family():
    doc = parse_document(FAMILY_SOURCE)
    return doc.equations[0], doc.declarations


def test_criterion_1_adjoint_reproduction():
    """The adjoint of the general family equals the reference expression."""
    eq, decls = family()
    reference = parse_expression(
        "-v_t + (b - 3*a)*u_xx*v_x - c*u^2*v_x + (b - 3*a)*u_x*v_xx"
        " - a*u*v_xxx - d*v_xxxxx",
        decls,
    )
    assert adjoint_equation(eq) == reference


def test_criterion_2_determining_system_containment():
    """Each of the six reference determining equations matches a generated
    one up to a nonzero rational factor."""
    eq, decls = family()

    def ph(t, x, u):
        return DiffExpr.from_atom(UnknownFn("phi", t, x, u))

    a = parse_expression("a", decls)
    b = parse_expression("b", decls)
    c = parse_expression("c", decls)
    d = parse_expression("d", decls)
    u = parse_expression("u", decls)

    reference = {
        "1": ph(1, 0, 0) + d * ph(0, 5, 0) + a * u * ph(0, 3, 0)
        + c * u**2 * ph(0, 1, 0),
        "u_x^2": 2 * (b - 3 * a) * ph(0, 1, 1) - 3 * a * u * ph(0, 1, 2)
        - 10 * d * ph(0, 3, 2),
        "u_xx": (b - 3 * a) * ph(0, 1, 0) - 3 * a * u * ph(0, 1, 1)
        - 10 * d * ph(0, 3, 1),
        "u_x*u_xx": 3 * (b - 2 * a) * ph(0, 0, 1) - 3 * a * u * ph(0, 0, 2)
        - 30 * d * ph(0, 2, 2),
        "u_xxxx": d * ph(0, 1, 1),
        "u_x*u_xxxx": d * ph(0, 0, 2),
    }
    generated = {g.sort_key() for g in determining_system(eq)}
    for label, eqn in reference.items():
        assert primitive_normal(eqn).sort_key() in generated, label


def test_criterion_3_classification_regression():
    """All ten family entries hold under nsa_check with symbolic constants,
    with the forced multiplier and the recorded classification; the pinned
    special cases reclassify correctly."""
    rows = ("3-I", "3-II", "3-III", "3-IV",
            "5-I", "5-II", "5-III", "5-IV", "5-V", "2-R")
    for row in rows:
        entry = catalog_entry(row)
        doc = load_fixture(entry.fixture)
        eq = doc.equations[0]
        sub = Substitution(doc.substitutions[0])
        report = nsa_check(eq, sub)
        assert report.holds, row
        assert report.multiplier == -partial_coord(sub.phi, "u"), row
        assert report.classification is entry.classification, row

    five_iv = load_fixture("type-5-IV.nsa")
    phi = substitute_symbols(five_iv.substitutions[0], {"c1": 1, "c2": 0})
    assert classify_substitution(Substitution(phi)) is Classification.STRICT
    assert nsa_check(five_iv.equations[0], Substitution(phi)).holds

    three_iii = load_fixture("type-3-III.nsa")
    phi = substitute_symbols(three_iii.substitutions[0], {"c2": 0})
    assert classify_substitution(Substitution(phi)) is Classification.QUASI
    assert nsa_check(three_iii.equations[0], Substitution(phi)).holds


def test_criterion_4_negative_controls():
    """phi = u is refuted on the three rows that exclude it, with the
    expected exact residuals; a perturbed generator is refuted."""
    u = parse_expression("u")
    cases = {
        "3-I": "3*a*u_x*u_xx",
        "3-III": "-6*a*u_x*u_xx",
        "5-II": "3*a*u_x*u_xx",
    }
    for row, residual_text in cases.items():
        doc = load_fixture(catalog_entry(row).fixture)
        report = nsa_check(doc.equations[0], Substitution(u))
        assert not report.holds, row
        expected = parse_expression(residual_text, doc.declarations)
        assert report.residual == expected, row

    # dropping eta = -u from the scaling generator breaks the symmetry
    doc = load_fixture("W31.nsa")
    bad = PointSymmetry(
        parse_expression("t"), DiffExpr.zero(), DiffExpr.zero()
    )
    action = prolonged_action(bad, doc.equations[0])
    assert action == parse_expression("2*t*u^2*u_x + u*u_xxx")


def test_criterion_5_symmetry_verification():
    """The three recorded generators leave their equations invariant."""
    cases = (
        ("W32a.nsa", "xtrans"),
        ("W31.nsa", "scaling"),
        ("W33.nsa", "scaling"),
    )
    for fixture, name in cases:
        doc = load_fixture(fixture)
        sym = doc.symmetry(name)
        assert prolonged_action(sym, doc.equations[0]).is_zero, fixture


def test_criterion_6_raw_vectors_on_the_extended_system():
    """For every catalog symmetry the raw v-retaining vector satisfies
    D_t C0 + D_x C1 = 0 modulo the equation and its adjoint."""
    checked = 0
    for entry in catalog_entries():
        doc = load_fixture(entry.fixture)
        eq = doc.equations[0]
        system = list(adjoint_system(eq))
        for sym in doc.symmetries:
            raw = ibragimov_vector(eq, sym)
            assert verify_divergence(raw, system).is_zero, (entry.id, sym.name)
            checked += 1
    assert checked >= 14


def test_criterion_7_worked_example_reproduction_with_audit():
    """The four normalized vectors verify exactly, and the two reported
    components that fail the divergence oracle are flagged."""
    expected = {
        "W31": ("u", "1/3*t*u^3 + u*u_xx - 1/2*u_x^2"),
        "W32a": ("ln(u)", "u_xx"),
        "W32b": ("3*x^2*ln(u)", "6*u - 6*x*u_x + 3*x^2*u_xx"),
        "W33": (
            "(5*p + 2)*u",
            "1/3*(5*p + 2)*f*u^3 + (5*p + 2)*u_xxxx",
        ),
    }
    for entry_id, (c0_text, c1_text) in expected.items():
        entry = catalog_entry(entry_id)
        doc = load_fixture(entry.fixture)
        eq = doc.equations[0]
        sym = doc.symmetries[0]
        sub = Substitution(doc.substitutions[0])
        vec = density_normalize(
            localize(ibragimov_vector(eq, sym), sub), eq
        )
        decls = doc.declarations
        assert vec.c0 == parse_expression(c0_text, decls), entry_id
        assert vec.c1 == parse_expression(c1_text, decls), entry_id
        assert verify_divergence(vec, eq).is_zero, entry_id

    # the recorded conserved blocks that fail do fail, with exact residuals
    audits = {
        "W31": "2*t*u^2*u_x + u*u_xxx + u_x*u_xx",
        "W32a": "2*u_xxx",
    }
    for entry_id, residual_text in audits.items():
        entry = catalog_entry(entry_id)
        assert entry.correction == (residual_text, expected[entry_id]), entry_id
        doc = load_fixture(entry.fixture)
        eq = doc.equations[0]
        block = next(
            s for s in doc.statements if isinstance(s, ConservedVector)
        )
        reported = ConservedVector(block.c0, block.c1)
        residual = verify_divergence(reported, eq)
        assert residual == parse_expression(residual_text, doc.declarations)

        report = verify_entry(entry_id)
        assert report.ok, str(report)
        flagged = [
            c for c in report.claims
            if c.name == "reported vector fails the divergence check as expected"
        ]
        assert flagged and flagged[0].passed, entry_id

    # the recorded blocks that were transcribed correctly need no
    # correction: each verifies and is the vector above
    for entry_id in ("W32b", "W33"):
        assert catalog_entry(entry_id).correction is None
        doc = load_fixture(catalog_entry(entry_id).fixture)
        (block,) = doc.conserved
        c0_text, c1_text = expected[entry_id]
        assert block.c0 == parse_expression(c0_text, doc.declarations)
        assert block.c1 == parse_expression(c1_text, doc.declarations)
        assert verify_divergence(block, doc.equations[0]).is_zero, entry_id


def test_criterion_8_triviality():
    """Constant and reciprocal substitutions on the third-order equation
    give trivial vectors, as does the pinned trivial parameter instance."""
    doc = load_fixture("W32a.nsa")
    eq = doc.equations[0]
    shift = doc.symmetry("xtrans")
    raw = ibragimov_vector(eq, shift)
    for phi_text in ("1", "u^-1"):
        sub = Substitution(parse_expression(phi_text, doc.declarations))
        vec = localize(raw, sub)
        assert is_trivial(vec, eq), phi_text

    # the instance is the fixture named like the entry's, with -trivial
    entry = catalog_entry("W33")
    tdoc = load_fixture(entry.fixture.replace(".nsa", "-trivial.nsa"))
    teq = tdoc.equations[0]
    tsym = tdoc.symmetries[0]
    tsub = Substitution(tdoc.substitutions[0])
    tvec = localize(ibragimov_vector(teq, tsym), tsub)
    assert is_trivial(tvec, teq)
    # the non-degenerate instance is not trivial
    wdoc = load_fixture(entry.fixture)
    wvec = localize(
        ibragimov_vector(wdoc.equations[0], wdoc.symmetries[0]),
        Substitution(wdoc.substitutions[0]),
    )
    assert not is_trivial(wvec, wdoc.equations[0])


def test_criterion_9_property_suites():
    """Seeded randomized invariants, all exact."""
    # the Euler operator annihilates total-derivative images (500 cases)
    rng = random.Random(20260817)
    for _ in range(500):
        e = random_expr(
            rng,
            atoms=CALCULUS_ATOMS,
            max_terms=3,
            max_factors=2,
            max_exp=2,
            log_args=DIFFERENTIABLE_LOG_ARGS,
        )
        direction = rng.choice("tx")
        assert euler(total_derivative(e, direction)).is_zero

    # total derivatives commute (500 cases)
    rng = random.Random(4)
    for _ in range(500):
        e = random_expr(
            rng,
            atoms=CALCULUS_ATOMS,
            max_terms=3,
            max_factors=3,
            max_exp=2,
            log_args=DIFFERENTIABLE_LOG_ARGS,
        )
        tx = total_derivative(total_derivative(e, "t"), "x")
        xt = total_derivative(total_derivative(e, "x"), "t")
        assert tx == xt

    # parse/print round trip (1000 cases)
    decls = declarations()
    rng = random.Random(7)
    for _ in range(1000):
        e = random_expr(rng)
        assert parse_expression(str(e), decls) == e

    # substitution of a point function commutes with total derivatives
    # (200 cases)
    rng = random.Random(11)
    for _ in range(200):
        e = random_expr(
            rng,
            atoms=EXCHANGE_ATOMS,
            allow_negative_exp=False,
            log_args=DIFFERENTIABLE_LOG_ARGS,
        )
        phi = random_point_function(rng)
        direction = rng.choice("tx")
        left = substitute_dependent(
            total_derivative(e, direction), "v", phi
        )
        right = total_derivative(
            substitute_dependent(e, "v", phi), direction
        )
        assert left == right

    # density-normalization transfer identities on every catalog output
    for entry in catalog_entries():
        doc = load_fixture(entry.fixture)
        eq = doc.equations[0]
        sub = Substitution(doc.substitutions[0])
        for sym in doc.symmetries:
            local = localize(ibragimov_vector(eq, sym), sub)
            assert verify_divergence(local, eq).is_zero, entry.id
            norm = density_normalize(local, eq)
            sign = norm.provenance.sign
            transfer = norm.provenance.transfer
            assert sign * local.c0 - norm.c0 == total_derivative(
                transfer, "x"
            ), entry.id
            assert sign * local.c1 - norm.c1 == -total_derivative(
                transfer, "t"
            ), entry.id
            assert verify_divergence(norm, eq).is_zero, entry.id
