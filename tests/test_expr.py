"""Exact-arithmetic expression core: construction, normal form, printing."""

import copy
import pickle
import random
from fractions import Fraction
from functools import reduce
from importlib import resources
from operator import add

import pytest
from genexpr import (
    CALCULUS_ATOMS,
    DIFFERENTIABLE_LOG_ARGS,
    F_POW,
    ROUNDTRIP_ATOMS,
    ROUNDTRIP_LOG_ARGS,
    U_X as U_X_ATOM,
    random_expr,
)

from nsakit import (
    DiffExpr,
    adjoint_equation,
    as_expr,
    determining_system,
    equal,
    ln,
    load_fixture,
    parse_expression,
    primitive_normal,
    total_derivative,
)
from nsakit.atoms import ORDER_CAP, CoeffFn, IndepVar, Jet, Log, Param, UnknownFn
from nsakit.errors import CollectError, ExpressionError, OrderCapError
from nsakit.expr import _accumulate_product

T = DiffExpr.from_atom(IndepVar("t"))
X = DiffExpr.from_atom(IndepVar("x"))
U = DiffExpr.from_atom(Jet("u"))
U_X = DiffExpr.from_atom(Jet("u", 0, 1))
U_XX = DiffExpr.from_atom(Jet("u", 0, 2))
A = DiffExpr.from_atom(CoeffFn("a"))
P = DiffExpr.from_atom(Param("p"))


def test_ring_identities():
    assert (U + 1) * (U - 1) == U**2 - 1
    assert U - U == DiffExpr.zero()
    assert 0 * U == DiffExpr.zero()
    assert (U + U_X) * 0 + 1 == DiffExpr.one()
    assert -(U - X) == X - U


def test_rational_coefficients_are_exact():
    e = Fraction(1, 3) * U + Fraction(1, 6) * U
    assert e == Fraction(1, 2) * U
    assert e.leading_coeff() == Fraction(1, 2)


def test_integer_powers_only():
    with pytest.raises(ExpressionError):
        U ** Fraction(1, 2)
    with pytest.raises(ExpressionError):
        U**0.5
    assert U**0 == DiffExpr.one()


def test_negative_powers_invert_monomials():
    e = (2 * U * U_X) ** -1
    assert e == Fraction(1, 2) * U**-1 * U_X**-1
    assert U / U == DiffExpr.one()
    assert (U**2 * U_X) / U_X == U**2


def test_powers_match_repeated_products():
    """A one-term power scales the exponents and raises the coefficient; a
    sum's power squares and multiplies.  Both equal the repeated product,
    and a negative power of a monomial is the inverse of the positive one."""
    monomials = [U, -3 * U * U_X**2, Fraction(-2, 5) * X * U**-1 * A,
                 ln(U_X) * T, DiffExpr.number(Fraction(4, 9)), DiffExpr.number(-7)]
    for e in monomials + [U + 1, P * U_X - Fraction(1, 2) * X]:
        for n in range(1, 7):
            assert e**n == reduce(lambda a, b: a * b, [e] * n), (e, n)
            if len(e.terms) == 1:
                assert e**n * e**-n == DiffExpr.one(), (e, n)
                assert all(c.__class__ is int or c.denominator > 1
                           for _, c in (e**-n).terms)
    assert all(e**1 is e for e in monomials)
    assert DiffExpr.zero() ** 3 == DiffExpr.zero()


def test_sum_inversion_is_rejected():
    with pytest.raises(ExpressionError):
        (U + 1) ** -1
    with pytest.raises(ExpressionError):
        1 / (U + X)
    with pytest.raises(ExpressionError):
        DiffExpr.zero() ** -1


def test_canonical_order_is_input_independent():
    left = U * A + T + X * U_X
    right = X * U_X + U * A + T
    assert left == right
    assert str(left) == str(right)
    assert hash(left) == hash(right)


def test_printing_round_values():
    assert str(DiffExpr.zero()) == "0"
    assert str(DiffExpr.one()) == "1"
    assert str(-U) == "-u"
    assert str(U - X) == "-x + u"
    assert str(Fraction(5, 3) * U**2 * U_X) == "5/3*u^2*u_x"
    assert str(U**-1) == "u^-1"


def test_atoms_descend_into_log_arguments():
    e = ln(U + T) * U_X
    names = {type(a).__name__ for a in e.atoms()}
    assert names == {"Log", "Jet", "IndepVar"}


def test_jets_and_orders():
    e = U * U_XX + DiffExpr.from_atom(Jet("v", 1, 0))
    assert e.max_order("u") == 2
    assert e.max_order("v") == 1
    assert e.free_of_dep("u") is False
    assert (T * X).free_of_dep("u") is True


def test_ln_guards():
    with pytest.raises(ExpressionError):
        ln(DiffExpr.zero())
    with pytest.raises(ExpressionError):
        ln(ln(U))
    # a dressed logarithm inside another argument is allowed
    assert not ln(2 * U).is_zero


def test_subs_atoms_rewrites_log_arguments():
    e = ln(U) + U
    v = DiffExpr.from_atom(Jet("v"))
    swapped = e.subs_atoms({Jet("u"): v})
    assert swapped == ln(v) + v


def _per_factor_subs(e, mapping):
    """Reference substitution: each term a product folded over the images
    of its factors, merged by sum."""

    def image(factors, coeff):
        term = DiffExpr.number(coeff)
        for atom, exp in factors:
            target = mapping.get(atom)
            if target is None and isinstance(atom, Log):
                new_arg = _per_factor_subs(atom.arg, mapping)
                if new_arg != atom.arg:
                    target = ln(new_arg)
            if target is None:
                term = term * DiffExpr.from_atom(atom, exp)
            else:
                term = term * target**exp
        return term

    return DiffExpr.sum(image(f, c) for f, c in e.terms)


def _log_free(rng, max_terms, allow_negative_exp):
    while True:
        e = random_expr(
            rng,
            atoms=CALCULUS_ATOMS,
            max_terms=max_terms,
            log_args=(),
            allow_negative_exp=allow_negative_exp,
        )
        if not e.is_zero:
            return e


def test_subs_atoms_matches_the_per_factor_fold():
    rng = random.Random(20261019)
    cases = []
    for _ in range(100):
        # jets to sums need non-negative powers of the replaced jets
        poly = random_expr(
            rng,
            atoms=CALCULUS_ATOMS,
            log_args=DIFFERENTIABLE_LOG_ARGS,
            allow_negative_exp=False,
        )
        to_sums = {
            Jet("u"): _log_free(rng, 3, False),
            U_X_ATOM: _log_free(rng, 3, False),
        }
        cases.append((poly, to_sums))
        # jets and t to monomials: negative powers invert the image
        general = random_expr(
            rng, atoms=CALCULUS_ATOMS, log_args=DIFFERENTIABLE_LOG_ARGS
        )
        to_monomials = {
            Jet("u"): _log_free(rng, 1, True),
            Jet("u", 0, 2): _log_free(rng, 1, True),
            IndepVar("t"): _log_free(rng, 1, True),
        }
        cases.append((general, to_monomials))
    assert any(
        isinstance(a, Log) and a.arg.subs_atoms(mapping) != a.arg
        for e, mapping in cases
        for a in e.atoms()
    )
    assert any(
        exp < 0 and atom in mapping
        for e, mapping in cases
        for factors, _coeff in e.terms
        for atom, exp in factors
    )
    for e, mapping in cases:
        got, want = e.subs_atoms(mapping), _per_factor_subs(e, mapping)
        assert got == want, str(e)
        assert str(got) == str(want)
    # a negative power of an atom mapped to a sum is refused by both
    inverse = U_X * U**-2
    for subs in (DiffExpr.subs_atoms, _per_factor_subs):
        with pytest.raises(ExpressionError, match="single-monomial"):
            subs(inverse, {Jet("u"): U + T})


def test_subs_atoms_normalizes_once(monkeypatch):
    e = DiffExpr.sum(
        Fraction(i + j + 1, 3) * X**i * U**j * U_X
        for i in range(10)
        for j in range(10)
    )
    assert len(e.terms) == 100
    assert not any(isinstance(a, Log) for a in e.atoms())
    normalize = DiffExpr._from_dict
    calls = []

    def counting(cls, data):
        calls.append(len(data))
        return normalize(data)

    monkeypatch.setattr(DiffExpr, "_from_dict", classmethod(counting))
    out = e.subs_atoms({Jet("v"): U})
    assert calls == [100]
    assert out == e


def test_subs_atoms_multiplies_no_single_image(monkeypatch):
    # one replaced factor per term: its image is the replacement itself,
    # so the only normalization is the final one
    v = DiffExpr.from_atom(Jet("v"))
    e = DiffExpr.sum(
        Fraction(i + j + 1, 3) * X**i * U**j * v for i in range(10) for j in range(10)
    )
    assert len(e.terms) == 100
    target = U + X
    normalize = DiffExpr._from_dict
    calls = []

    def counting(cls, data):
        calls.append(len(data))
        return normalize(data)

    monkeypatch.setattr(DiffExpr, "_from_dict", classmethod(counting))
    out = e.subs_atoms({Jet("v"): target})
    assert len(calls) == 1
    monkeypatch.undo()
    # e is linear in v
    one = DiffExpr.one()
    assert out == e.subs_atoms({Jet("v"): U}) + X * e.subs_atoms({Jet("v"): one})
    assert U**1 is U and (2 * U) ** -1 == Fraction(1, 2) * U**-1


def test_sum_accepts_numbers_and_cancels():
    assert DiffExpr.sum([]) == DiffExpr.zero()
    assert DiffExpr.sum(iter(())).is_zero
    assert DiffExpr.sum([U, 2, Fraction(1, 2), X]) == U + X + Fraction(5, 2)
    assert DiffExpr.sum([U + 1, -U, -1]).is_zero
    assert DiffExpr.sum([U, U, -2 * U]).is_zero


def test_sum_equals_the_left_fold_of_addition():
    rng = random.Random(20240611)
    for _ in range(100):
        pieces = [random_expr(rng) for _ in range(rng.randint(0, 6))]
        assert DiffExpr.sum(pieces) == reduce(add, pieces, DiffExpr.zero())


def test_sum_normalizes_once(monkeypatch):
    normalize = DiffExpr._from_dict
    calls = []

    def counting(cls, data):
        calls.append(len(data))
        return normalize(data)

    pieces = [U + X, 3, -U, U_X * U, Fraction(-3)]
    expected = X + U * U_X
    monkeypatch.setattr(DiffExpr, "_from_dict", classmethod(counting))
    total = DiffExpr.sum(pieces)
    assert calls == [4]
    assert total == expected


def test_terms_are_the_stored_pairs():
    e = 2 * U_X - 1
    assert e.terms is e.terms
    assert e.terms == (
        ((), Fraction(-1)),
        (((Jet("u", 0, 1), 1),), Fraction(2)),
    )
    assert DiffExpr.zero().terms == ()


def test_collect_groups_by_selected_jets():
    u_x, u_xx = Jet("u", 0, 1), Jet("u", 0, 2)
    e = A * U_X**2 + T * U_X**2 + P * U_XX + U
    pairs = e.collect({u_x, u_xx})
    for key, _coeff in pairs:
        assert isinstance(key, DiffExpr)
        [(_factors, one)] = key.terms
        assert one == 1
    table = {str(key): coeff for key, coeff in pairs}
    assert table["u_x^2"] == A + T
    assert table["u_xx"] == P
    assert table["1"] == U
    # reconstruction is exact
    assert DiffExpr.sum(key * coeff for key, coeff in pairs) == e


def test_collect_rejects_negative_selected_powers():
    u_x = Jet("u", 0, 1)
    with pytest.raises(CollectError, match="^u_x occurs with negative exponent$"):
        (U_X**-1).collect({u_x})
    with pytest.raises(CollectError, match=r"^u_x occurs inside ln\(u_x\)$"):
        ln(U_X).collect({u_x})
    # the smallest selected atom inside the ln is named
    with pytest.raises(CollectError, match=r"^u_x occurs inside ln\(u_x\*u_xx\)$"):
        ln(U_X * U_XX).collect({Jet("u", 0, 2), u_x})


def test_primitive_normal_scales_to_integer_content():
    e = Fraction(2, 3) * U + Fraction(4, 3) * U_X
    assert primitive_normal(e) == U + 2 * U_X
    assert primitive_normal(-2 * U) == U
    assert primitive_normal(DiffExpr.zero()).is_zero


def test_as_expr_and_equal():
    assert as_expr(3) == DiffExpr.number(3)
    assert as_expr(Fraction(1, 2)) * 2 == DiffExpr.one()
    assert equal(U + U, 2 * U)
    assert not equal(U, U_X)


def test_order_cap_blocks_huge_jets():
    assert ORDER_CAP == 12
    with pytest.raises(OrderCapError):
        Jet("u", 0, 13)


def _reference_key(atom):
    """The atom order as six per-class key formulas: a tag for the class,
    then the fields; a rule or ln argument compares by its terms."""
    if isinstance(atom, IndepVar):
        return (0, atom.name)
    if isinstance(atom, Param):
        return (1, atom.name)
    if isinstance(atom, CoeffFn):
        if atom.rule is None:
            return (2, atom.name, atom.primes)
        return (2, atom.name, atom.primes, _reference_expr_key(atom.rule))
    if isinstance(atom, UnknownFn):
        return (3, atom.name, atom.order(), atom.t_count, atom.x_count, atom.u_count)
    if isinstance(atom, Jet):
        return (4, atom.t_order, atom.x_order, atom.dep)
    assert isinstance(atom, Log)
    return (5, _reference_expr_key(atom.arg))


def _reference_expr_key(e):
    return tuple(
        (
            tuple((_reference_key(atom), exp) for atom, exp in factors),
            (c.numerator, c.denominator),
        )
        for factors, c in e.terms
    )


def _all_atoms(e):
    """Every atom of e, descending into ln arguments and declared rules."""
    for atom in e.atoms():
        yield atom
        if isinstance(atom, CoeffFn) and atom.rule is not None:
            yield from _all_atoms(atom.rule)


def _fixture_expressions():
    for name in sorted(resources.files("nsakit").joinpath("fixtures").iterdir()):
        doc = load_fixture(name.name)
        yield from doc.substitutions
        yield from (DiffExpr.from_atom(f) for f in doc.declarations.funcs.values())
        for eq in doc.equations:
            yield eq.lhs
            yield adjoint_equation(eq)
            yield from determining_system(eq)
        for sym in doc.symmetries:
            yield from (sym.tau, sym.xi, sym.eta)
        for vector in doc.conserved:
            yield from (vector.c0, vector.c1)


def _corpus():
    """Distinct atoms and expressions of the seeded generator and of every
    packaged fixture, shuffled."""
    rng = random.Random(20261018)
    exprs = [random_expr(rng) for _ in range(300)]
    exprs += list(_fixture_expressions())
    atoms = list({a: None for e in exprs for a in _all_atoms(e)})
    exprs = list({e: None for e in exprs})
    rng.shuffle(atoms)
    rng.shuffle(exprs)
    return atoms, exprs


def _rebuilt(atom):
    """An equal atom built apart from ``atom``, from its named fields."""
    apart = lambda e: DiffExpr.sum([e])  # noqa: E731 - a new equal value
    if isinstance(atom, CoeffFn):
        rule = atom.rule
        return CoeffFn(atom.name, atom.primes, rule and apart(rule))
    if isinstance(atom, UnknownFn):
        return UnknownFn(atom.name, atom.t_count, atom.x_count, atom.u_count)
    if isinstance(atom, Jet):
        return Jet(atom.dep, atom.t_order, atom.x_order)
    if isinstance(atom, Log):
        return Log(apart(atom.arg))
    return type(atom)(atom.name)


def test_atom_order_matches_the_reference_keys():
    atoms, exprs = _corpus()
    classes = {type(a) for a in atoms}
    assert classes == {IndepVar, Param, CoeffFn, UnknownFn, Jet, Log}
    assert any(isinstance(a, CoeffFn) and a.rule is not None for a in atoms)
    assert len(atoms) > 50 and len(exprs) > 300
    assert sorted(atoms) == sorted(atoms, key=_reference_key)
    assert sorted(exprs) == sorted(exprs, key=_reference_expr_key)
    assert len({_reference_key(a) for a in atoms}) == len(atoms)
    # a Log orders by its argument, in one direction only
    assert (Log(U) < Log(U + 1)) != (Log(U + 1) < Log(U))


def test_equal_atoms_built_apart_are_equal():
    atoms, _ = _corpus()
    for atom in atoms:
        other = _rebuilt(atom)
        assert other is not atom
        assert other == atom and hash(other) == hash(atom), repr(atom)
        assert not other < atom and not atom < other
        assert str(other) == str(atom)


def test_atoms_are_tuples_with_read_only_fields():
    phi = UnknownFn("phi", 1, 2, 1)
    assert str(phi) == "phi_txxu"
    assert phi == (3, "phi", 4, 1, 2, 1)
    assert (phi.name, phi.t_count, phi.x_count, phi.u_count) == ("phi", 1, 2, 1)
    assert phi.order() == 4 and phi.bump("u") == UnknownFn("phi", 1, 2, 2)
    u_tx = Jet("u", 1, 1)
    assert (u_tx.dep, u_tx.t_order, u_tx.x_order) == ("u", 1, 1)
    assert u_tx.bump("x") == Jet("u", 1, 2)
    assert CoeffFn("a", 2) == (2, "a", 2) and CoeffFn("a", 2).rule is None
    assert isinstance(Log(U), tuple) and Log(U).arg is U
    for atom in (phi, u_tx, IndepVar("x"), Param("p"), CoeffFn("a"), Log(U)):
        with pytest.raises(AttributeError):
            atom.name = "b"
        assert not hasattr(atom, "__dict__")
    with pytest.raises(ExpressionError, match="primes"):
        CoeffFn("f", 1, U)
    with pytest.raises(ExpressionError):
        IndepVar("y")
    with pytest.raises(ExpressionError):
        Jet("w")


def test_expressions_survive_pickle_and_deepcopy():
    _, exprs = _corpus()
    for e in exprs:
        for other in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert other == e and str(other) == str(e)
            assert [type(a) for a in other.atoms()] == [type(a) for a in e.atoms()]


def test_equal_expressions_built_apart_have_equal_keys():
    # a ruled function compares through its rule's key
    f = DiffExpr.from_atom(F_POW)
    g = DiffExpr.sum([f * U, -U, U]) * U**-1
    assert g == f
    assert g.sort_key() == f.sort_key()
    assert hash(g) == hash(f)


def _coefficients(e):
    """Every stored coefficient, including those inside ln arguments."""
    yield from (c for _, c in e.terms)
    for atom in e.atoms():
        if isinstance(atom, Log):
            yield from (c for _, c in atom.arg.terms)


def _assert_canonical(e):
    for c in _coefficients(e):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (
            f"{c!r} in {e}"
        )


def _monomial(rng):
    while True:
        e = random_expr(rng, max_terms=1, log_args=DIFFERENTIABLE_LOG_ARGS)
        if len(e.terms) == 1:
            return e


def test_coefficients_are_int_when_integral():
    rng = random.Random(20261018)
    for _ in range(150):
        a = random_expr(rng, atoms=CALCULUS_ATOMS, log_args=DIFFERENTIABLE_LOG_ARGS)
        b = random_expr(rng, atoms=CALCULUS_ATOMS, log_args=DIFFERENTIABLE_LOG_ARGS)
        m = _monomial(rng)
        poly = random_expr(rng, log_args=(), allow_negative_exp=False)
        results = [
            a, a + b, a - b, a * b, a / m, m**-1, primitive_normal(a),
            total_derivative(a, "x"), total_derivative(a, "t"),
            a.subs_atoms({Jet("u"): m}), poly.subs_atoms({U_X_ATOM: b}),
        ]
        results += [coeff for _key, coeff in poly.collect({Jet("u"), U_X_ATOM})]
        for e in results:
            _assert_canonical(e)
    # integral sums and products of Fractions come back as ints
    half = Fraction(1, 2) * U
    assert (half + half).terms == ((((Jet("u"), 1),), 1),)
    assert type((half * 4).leading_coeff()) is int


def test_canonical_coefficient_edge_cases():
    assert DiffExpr.number(Fraction(4, 2)).terms == (((), 2),)
    assert type(DiffExpr.number(Fraction(4, 2)).leading_coeff()) is int
    third = (DiffExpr.number(1) / 3).leading_coeff()
    assert type(third) is Fraction and third == Fraction(1, 3)
    assert type(((3 * U) ** -1 * 3).leading_coeff()) is int
    assert type(parse_expression("4/2").leading_coeff()) is int
    assert parse_expression("4/2") == DiffExpr.number(2)
    assert type(parse_expression("1/3").leading_coeff()) is Fraction
    two, two_q = DiffExpr.number(2), DiffExpr.number(Fraction(2))
    assert two == two_q and hash(two) == hash(two_q)
    assert two.terms == two_q.terms and type(two_q.leading_coeff()) is int
    assert type(DiffExpr.zero().leading_coeff()) is int
    for inexact in (0.5, "1/3"):
        with pytest.raises(ExpressionError, match="must be exact"):
            DiffExpr.number(inexact)


def test_numbers_hash_like_the_numbers_they_equal():
    for value in (3, -1, Fraction(1, 2), Fraction(-7, 3)):
        e = DiffExpr.number(value)
        assert e == value and hash(e) == hash(value)
        assert {e: "a"}.get(value) == "a"
        assert {value: "a"}.get(e) == "a"
    assert DiffExpr.zero() == 0 and hash(DiffExpr.zero()) == hash(0)
    assert len({DiffExpr.zero(), 0}) == 1
    assert len({DiffExpr.number(3), 3, Fraction(3)}) == 1
    # a non-constant expression is still keyed by its terms
    assert {U + 3: "a"}.get(3) is None


# the product kernel's fast paths, each against the general path it skips

MERGE_ATOMS = ROUNDTRIP_ATOMS + tuple(Log(arg) for arg in ROUNDTRIP_LOG_ARGS)
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(2, 3))


def _dict_merge(f1, f2):
    """The factors of a product by a dict merge and a sort."""
    merged = dict(f1)
    for atom, exp in f2:
        merged[atom] = merged.get(atom, 0) + exp
    return tuple(sorted(it for it in merged.items() if it[1]))


def _random_factors(rng, size):
    atoms = rng.sample(MERGE_ATOMS, size)
    return tuple(sorted((a, rng.choice((-3, -2, -1, 1, 2, 3))) for a in atoms))


def test_one_factor_merge_matches_the_dict_merge():
    rng = random.Random(20120217)
    keys = []
    for _ in range(3000):
        f1 = _random_factors(rng, rng.randint(0, 5))
        terms = []
        for _ in range(rng.randint(1, 4)):
            if f1 and rng.random() < 0.5:
                # an atom of f1: its exponent cancels, doubles or moves
                atom, exp = rng.choice(f1)
                f2 = ((atom, rng.choice((-exp, exp, 1))),)
            else:
                f2 = _random_factors(rng, rng.choice((0, 1, 1, 1, 2, 3)))
            terms.append((f2, rng.choice(COEFFS)))
        c1 = rng.choice(COEFFS)
        got = {}
        _accumulate_product(got, f1, c1, tuple(terms))
        want = {}
        for f2, c2 in terms:
            key = _dict_merge(f1, f2)
            want[key] = want.get(key, 0) + c1 * c2
        assert list(got.items()) == list(want.items()), (f1, c1, terms)
        keys += [(f1, key) for key in got]
    # the corpus reaches every branch and every kind of atom
    assert any(len(key) < len(f1) for f1, key in keys)
    assert any(len(key) == len(f1) + 1 for f1, key in keys)
    atoms = {atom for f1, _ in keys for atom, _exp in f1}
    assert any(isinstance(a, Log) for a in atoms)
    assert any(isinstance(a, CoeffFn) and a.rule is not None for a in atoms)


def test_scaling_by_a_number_equals_the_general_product():
    rng = random.Random(20120218)
    for _ in range(300):
        e = random_expr(rng, log_args=DIFFERENTIABLE_LOG_ARGS)
        q = rng.choice(COEFFS)
        n = DiffExpr.number(q)
        products = {"*": {}, "/": {}}
        for f1, c1 in e.terms:
            _accumulate_product(products["*"], f1, c1, n.terms)
            _accumulate_product(products["/"], f1, c1, (n**-1).terms)
        times, over = (DiffExpr._from_dict(d).terms for d in products.values())
        for got, want in ((e * q, times), (q * e, times), (e * n, times),
                          (n * e, times), (e / q, over), (e / n, over)):
            assert got.terms == want
            assert [type(c) for _, c in got.terms] == [type(c) for _, c in want]
