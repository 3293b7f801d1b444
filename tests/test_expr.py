"""Exact-arithmetic expression core: construction, normal form, printing."""

import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from genexpr import random_expr

from nsakit import DiffExpr, as_expr, equal, ln, primitive_normal
from nsakit.atoms import ORDER_CAP, CoeffFn, IndepVar, Jet, Log, Param, UnknownFn
from nsakit.errors import CollectError, ExpressionError, OrderCapError

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
    shallow = {type(a).__name__ for a in e.atoms(recursive=False)}
    assert shallow == {"Log", "Jet"}


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


def test_collect_groups_by_selected_jets():
    u_x, u_xx = Jet("u", 0, 1), Jet("u", 0, 2)
    e = A * U_X**2 + T * U_X**2 + P * U_XX + U
    pairs = e.collect({u_x, u_xx})
    table = {str(key): coeff for key, coeff in pairs}
    assert table["u_x^2"] == A + T
    assert table["u_xx"] == P
    assert table["1"] == U
    # reconstruction is exact
    assert DiffExpr.sum(key.as_expr() * coeff for key, coeff in pairs) == e


def test_collect_rejects_negative_selected_powers():
    u_x = Jet("u", 0, 1)
    with pytest.raises(CollectError):
        (U_X**-1).collect({u_x})
    with pytest.raises(CollectError):
        ln(U_X).collect({u_x})


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


def test_unknown_function_and_log_sort_keys_are_stable():
    phi = UnknownFn("phi", 1, 2, 1)
    assert str(phi) == "phi_txxu"
    assert Log(U).sort_key() < Log(U + 1).sort_key() or Log(
        U + 1
    ).sort_key() < Log(U).sort_key()
