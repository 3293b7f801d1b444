"""Value semantics of the package's record classes: equality by exact class
and fields, the hash of the field tuple, repr, immutability, keyword
construction, and pickle and deepcopy round trips."""

import copy
import pickle

import pytest

from nsakit import (
    CatalogEntry,
    Classification,
    ConservedVector,
    Declarations,
    Equation,
    NsaReport,
    PointSymmetry,
    Provenance,
    SourceDocument,
    Substitution,
    ibragimov_vector,
    load_fixture,
    nsa_check,
    parse_expression,
    reduce_mod,
    total_derivative,
)
from nsakit.catalog import ClaimResult, EntryReport

E = parse_expression


# (class, fields in order) for each record class
HASHABLE = [
    (Substitution, {"phi": E("u^2")}),
    (NsaReport, {
        "holds": True, "multiplier": E("-2*u"), "residual": E("0"),
        "classification": Classification.QUASI, "nonzero_partials": ("u",),
    }),
    (Equation, {"lhs": E("u_t + u*u_x"), "dep": "u"}),
    (PointSymmetry, {
        "tau": E("1"), "xi": E("0"), "eta": E("0"), "name": "translation",
    }),
    (Provenance, {"transfer": E("u*u_x"), "sign": -1}),
    (ConservedVector, {
        "c0": E("u"), "c1": E("1/2*u^2"), "provenance": Provenance(E("u"), 1),
    }),
    (CatalogEntry, {
        "id": "X", "classification": Classification.WEAK,
        "special_cases": ((("a", 1),), "quasi"),
        "refuted_substitutions": (("u", "1"),), "refuted_symmetries": ("s",),
        "correction": ("u_x", ("u", "u_x")), "trivial_substitutions": ("1",),
    }),
    (ClaimResult, {"name": "adjoint", "passed": False, "detail": "why"}),
    (EntryReport, {"entry_id": "X", "claims": (ClaimResult("adjoint", True, ""),)}),
]
UNHASHABLE = [
    (Declarations, {"params": {}, "funcs": {}}),
    (SourceDocument, {"declarations": Declarations({}, {}), "statements": [E("u")]}),
]
ALL = HASHABLE + UNHASHABLE


def _ids(cases):
    return [cls.__name__ for cls, _ in cases]


@pytest.mark.parametrize("cls, fields", ALL, ids=_ids(ALL))
def test_equal_fields_give_equal_values(cls, fields):
    a = cls(*fields.values())
    b = cls(**fields)
    assert a is not b
    assert a == b
    assert not a != b
    for name, value in fields.items():
        assert getattr(b, name) == value


@pytest.mark.parametrize("cls, fields", ALL, ids=_ids(ALL))
def test_another_class_with_the_same_fields_is_unequal(cls, fields):
    other = type("Other" + cls.__name__, (cls,), {})
    a, b = cls(**fields), other(**fields)
    assert a != b
    assert b != a
    assert a != tuple(fields.values())


@pytest.mark.parametrize("cls, fields", ALL, ids=_ids(ALL))
def test_repr_names_every_field(cls, fields):
    args = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({args})"


def test_repr_of_a_plain_record():
    assert repr(ClaimResult("adjoint", True)) == (
        "ClaimResult(name='adjoint', passed=True, detail='')"
    )
    assert repr(Equation(E("u_t + u_xxx"))) == (
        "Equation(lhs=DiffExpr(u_xxx + u_t), dep='u')"
    )


@pytest.mark.parametrize("cls, fields", HASHABLE, ids=_ids(HASHABLE))
def test_hash_is_the_hash_of_the_field_tuple(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields", UNHASHABLE, ids=_ids(UNHASHABLE))
def test_mutable_containers_are_unhashable(cls, fields):
    with pytest.raises(TypeError):
        hash(cls(**fields))


@pytest.mark.parametrize("cls, fields", HASHABLE, ids=_ids(HASHABLE))
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    value = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(**fields)


@pytest.mark.parametrize("cls, fields", ALL, ids=_ids(ALL))
def test_pickle_and_deepcopy_round_trip(cls, fields):
    value = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == repr(value)


def test_round_trips_keep_a_cached_adjoint():
    eq = load_fixture("W33.nsa").equations[0]
    fstar = eq.adjoint
    for twin in (pickle.loads(pickle.dumps(eq)), copy.deepcopy(eq)):
        assert twin == eq
        assert hash(twin) == hash(eq)
        assert "adjoint" in vars(twin)
        assert twin.adjoint == fstar


def test_round_trips_keep_every_filled_cache():
    doc = load_fixture("W33.nsa")
    eq = doc.equations[0]
    vec = ibragimov_vector(eq, doc.symmetries[0])
    reduce_mod(total_derivative(vec.c0, "t"), eq)
    assert nsa_check(eq, Substitution(doc.substitutions[0])).holds
    cached = {name: vars(eq)[name]
              for name in ("adjoint", "lagrangian_brackets", "_rhs_derivatives")}
    assert len(cached["_rhs_derivatives"]) > 1
    fresh = Equation(eq.lhs)
    for twin in (pickle.loads(pickle.dumps(eq)), copy.deepcopy(eq)):
        assert twin == eq == fresh
        assert hash(twin) == hash(eq) == hash(fresh)
        assert repr(twin) == repr(eq) == repr(fresh)
        assert {name: vars(twin)[name] for name in cached} == cached
        assert ibragimov_vector(twin, doc.symmetries[0]) == vec


def test_defaults_match_the_constructor_signature():
    assert Equation(E("u_t")).dep == "u"
    assert PointSymmetry(E("1"), E("0"), E("0")).name == ""
    assert Provenance() == Provenance(E("0"), 1)
    vec = ConservedVector(E("u"), E("0"))
    assert vec.provenance is ConservedVector(E("1"), E("0")).provenance
    assert ClaimResult("adjoint", True).detail == ""
    entry = CatalogEntry("X", Classification.STRICT)
    assert entry.special_cases == entry.trivial_substitutions == ()
    assert entry.refuted_substitutions == entry.refuted_symmetries == ()
    assert entry.correction is None
    assert Declarations() == Declarations({}, {})
    assert Declarations().params is not Declarations().params


@pytest.mark.parametrize("cls, fields", ALL, ids=_ids(ALL))
def test_wrong_arguments_are_a_type_error(cls, fields):
    args = list(fields.values())
    first, *later = fields
    calls = [
        lambda: cls(*args, None),  # surplus
        lambda: cls(*args, **{first: args[0]}),  # repeated
        lambda: cls(*args, extra=1),  # unknown
    ]
    if cls not in (Declarations, Provenance):  # each field has a default
        calls.append(lambda: cls(**{name: fields[name] for name in later}))
    for call in calls:
        with pytest.raises(TypeError):
            call()
