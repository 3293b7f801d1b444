"""Catalog integrity: entries, fixtures, claim verification."""

import re
from pathlib import Path

import pytest
from test_acceptance import FAMILY_SOURCE

import nsakit
from nsakit import (
    CatalogEntry,
    Classification,
    catalog_entries,
    catalog_entry,
    load_fixture,
    parse_document,
    parse_expression,
    substitute_symbols,
    verify_entry,
)
from nsakit.atoms import CoeffFn
from nsakit.errors import DeclarationError, ParseError

FIXTURES = Path(nsakit.__file__).parent / "fixtures"

EXPECTED_IDS = (
    "3-I", "3-II", "3-III", "3-IV",
    "5-I", "5-II", "5-III", "5-IV", "5-V",
    "2-R",
    "W31", "W32a", "W32b", "W33",
)


def test_catalog_ids_and_order():
    assert tuple(e.id for e in catalog_entries()) == EXPECTED_IDS


def test_catalog_entry_lookup():
    entry = catalog_entry("3-III")
    assert entry.classification is Classification.QUASI
    with pytest.raises(DeclarationError, match="unknown catalog entry"):
        catalog_entry("9-Z")
    # a family id starts with a digit, a worked example's with a letter
    assert CatalogEntry("9-Z", Classification.STRICT).fixture == "type-9-Z.nsa"
    assert CatalogEntry("W99", Classification.WEAK).fixture == "W99.nsa"


def test_every_entry_names_a_fixture_and_classification():
    for entry in catalog_entries():
        assert entry.fixture.endswith(".nsa")
        assert isinstance(entry.classification, Classification)


def test_every_fixture_belongs_to_one_entry():
    """Each fixture is an entry's, or its ``-trivial`` instance."""
    named = [e.fixture for e in catalog_entries()]
    trivial = [name.replace(".nsa", "-trivial.nsa") for name in named]
    found = sorted(path.name for path in FIXTURES.iterdir())
    assert sorted(named + [name for name in trivial if name in found]) == found
    assert "W33-trivial.nsa" in found


def test_verify_single_entry():
    report = verify_entry("W33")
    assert report.ok, str(report)
    names = [c.name for c in report.claims]
    assert "self-adjointness holds" in names
    assert any("symmetry" in n for n in names)


def test_verify_all_entries():
    for entry in catalog_entries():
        report = verify_entry(entry.id)
        assert report.ok, str(report)


W31_RESIDUAL = "2*t*u^2*u_x + u*u_xxx + u_x*u_xx"
W31_VECTOR = ("u", "1/3*t*u^3 + u*u_xx - 1/2*u_x^2")


@pytest.mark.parametrize("change, failed", [
    ({"correction": ("0", W31_VECTOR)},
     f"FAIL reported vector passes the divergence check (residual {W31_RESIDUAL})"),
    ({"correction": ("2*u_xxx", W31_VECTOR)},
     "FAIL reported vector fails the divergence check as expected"
     f" (residual {W31_RESIDUAL})"),
    ({"correction": (W31_RESIDUAL, ("u", "u_xx"))},
     "FAIL vector matches the verified components"
     " (got (u, 1/3*t*u^3 + u*u_xx - 1/2*u_x^2))"),
    ({"classification": Classification.STRICT},
     "FAIL classification is strict (got nonlinear)"),
], ids=["zero-residual", "wrong-correction", "wrong-vector", "classification"])
def test_a_wrong_claim_fails(monkeypatch, change, failed):
    """W31 with one recorded claim altered fails that claim alone."""
    from nsakit import catalog

    w31 = catalog_entry("W31")
    fields = {name: getattr(w31, name) for name in CatalogEntry._fields}
    monkeypatch.setattr(catalog, "_ENTRIES", (CatalogEntry(**{**fields, **change}),))
    report = verify_entry("W31")
    assert [str(c) for c in report.claims if not c.passed] == [failed]


def test_claims_include_refutations_where_recorded():
    report = verify_entry("3-I")
    names = [c.name for c in report.claims]
    assert any("refuted" in n for n in names)


def test_substitution_families_are_consistent():
    """The four-constant family specializes to both translation cases.

    Setting c1 = c2 = c3 = 0, c4 = 1 in c1*(x^3*u^-1 - 6*A) + c2*x^2*u^-1
    + c3*x*u^-1 + c4*u^-1 + c5 leaves u^-1 (with c5 = 0); keeping only c1
    at a(t) := 1 (so A = t) leaves x^3*u^-1 - 6*t.
    """
    family = load_fixture("type-3-IV.nsa").substitutions[0]
    narrow = substitute_symbols(
        family, {"c1": 0, "c2": 0, "c3": 0, "c4": 1, "c5": 0}
    )
    single = load_fixture("type-3-III.nsa").substitutions[0]
    narrow_single = substitute_symbols(single, {"c1": 1, "c2": 0})
    assert narrow == narrow_single

    cubic = substitute_symbols(
        family, {"c1": 1, "c2": 0, "c3": 0, "c4": 0, "c5": 0}
    )
    cubic = substitute_symbols(cubic, {"A": parse_expression("t")})
    w32b = load_fixture("W32b.nsa").substitutions[0]
    assert cubic == w32b


def test_each_vector_is_normalized_once(monkeypatch):
    """The catalog checks triviality on the vector it already normalized:
    17 density_normalize calls over the 14 entries, one per vector."""
    from nsakit import catalog, conslaw

    normalize = conslaw.density_normalize
    calls = []

    def counting(cv, eq):
        calls.append(cv)
        return normalize(cv, eq)

    for module in (catalog, conslaw):
        monkeypatch.setattr(module, "density_normalize", counting)
    for entry in catalog_entries():
        assert verify_entry(entry.id).ok
    assert len(calls) == 17


def _count_catalog_calls(monkeypatch, module, name):
    """Calls of module.name, through every nsakit module holding it, over
    one verify_entry pass of all entries."""
    from nsakit import adjoint, catalog, conslaw

    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for holder in (module, adjoint, catalog, conslaw):
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, counting)
    for entry in catalog_entries():
        assert verify_entry(entry.id).ok
    return len(calls)


def test_triviality_is_decided_three_times(monkeypatch):
    """W32a's two trivial substitutions and W33's trivial instance."""
    from nsakit import conslaw

    assert _count_catalog_calls(monkeypatch, conslaw, "is_trivial") == 3


def test_classification_comes_from_the_nsa_report(monkeypatch):
    """verify_entry reads nsa_check's classification instead of
    recomputing phi_x, phi_t and phi_u."""
    from nsakit import calculus

    assert _count_catalog_calls(monkeypatch, calculus, "partial_coord") == 57


def test_a_correction_is_recorded_only_for_a_conserved_block():
    """Each catalog fixture has at most one ``conserved`` block, and an
    entry has a correction only if its fixture has one."""
    for entry in catalog_entries():
        blocks = load_fixture(entry.fixture).conserved
        assert len(blocks) <= 1, entry.id
        assert entry.correction is None or blocks, entry.id


def test_a_missing_fixture_is_a_read_error():
    with pytest.raises(ParseError, match=r"^cannot read .*missing\.nsa: "):
        load_fixture("missing.nsa")


def test_fixture_constraints_give_the_fixture_equation():
    """Each family fixture's ``# constraints:`` equalities (``b = 3a`` is
    b = 3*a), put into the family equation, give the fixture's equation,
    and each ``f != 0`` names a function of it."""
    family = parse_document(FAMILY_SOURCE)
    paths = sorted(FIXTURES.glob("type-*.nsa"))
    assert len(paths) == 10
    for path in paths:
        text = path.read_text(encoding="utf-8")
        line = re.search(r"^# constraints: (.*)$", text, re.MULTILINE)[1]
        values, nonzero = {}, []
        for part in re.split(r", | and ", line):
            name, op, value = part.split()
            if op == "=":
                value = re.sub(r"(\d)(\w)", r"\1*\2", value)
                values[name] = parse_expression(value, family.declarations)
            elif value == "0":
                nonzero.append(name)
        lhs = parse_document(text).equations[0].lhs
        assert substitute_symbols(family.equations[0].lhs, values) == lhs, path.name
        funcs = {a.name for a in lhs.atoms() if isinstance(a, CoeffFn)}
        assert set(nonzero) <= funcs, path.name
