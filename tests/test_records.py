"""The nine record classes outside `analytic` behave as the frozen dataclasses
they replace: constructor, defaults, equality, hashing, immutability, repr,
copying, pickling and every refusal of a bad field."""

import copy
import inspect
import math
import pickle
from fractions import Fraction

import pytest

from symcube.cyclo import Cyclo
from symcube.g2root import RootVector, WeylElement
from symcube.ingest import ParsedForm, ParsedHeckeData
from symcube.intertwining import PrincipalParams
from symcube.localfactor import ReciprocalPoly
from symcube.monomial import HeckeLocalData, PoleVerdict
from symcube.satake import SatakeClass

_INERT5 = HeckeLocalData(5, "inert", -1)
_ZETA3 = Cyclo.root_of_unity(1, 3)

# (class, field names, defaults of the trailing fields, a value's fields,
#  an unequal value's fields, the value's repr as the dataclass wrote it)
RECORDS = [
    (SatakeClass, ("alpha", "beta", "q"), {}, (1j, -1j, 5), (1j, -1j, 7),
     "SatakeClass(alpha=1j, beta=(-0-1j), q=5)"),
    (ReciprocalPoly, ("coeffs",), {}, ((1, -2, 1),), ((1, 2, 1),),
     "ReciprocalPoly(coeffs=(1, -2, 1))"),
    (RootVector, ("c1", "c6"), {}, (Fraction(1), Fraction(2, 3)), (Fraction(2, 3), Fraction(1)),
     "RootVector(1, 2/3)"),
    (WeylElement, ("matrix", "word"), {"word": ()}, (((-1, 1), (0, 1)), ("rho1",)),
     (((1, 0), (3, -1)), ("rho6",)), "WeylElement(rho1)"),
    (PrincipalParams, ("mu", "q", "r", "s"), {}, (1j, 3, 0.25, 1.5 + 0j), (1j, 3, 0.25, 2.5 + 0j),
     "PrincipalParams(mu=1j, q=3, r=0.25, s=(1.5+0j))"),
    (HeckeLocalData, ("p", "splitting", "chi_p", "chi_pbar"), {"chi_pbar": None},
     (7, "split", 1j, -1j), (5, "inert", -1, None),
     "HeckeLocalData(p=7, splitting='split', chi_p=1j, chi_pbar=(-0-1j))"),
    (PoleVerdict, ("kind", "poles"), {"poles": ()},
     ("has-pole-at-0-and-1", (Fraction(0), Fraction(1))), ("entire", ()),
     "PoleVerdict(kind='has-pole-at-0-and-1', poles=(Fraction(0, 1), Fraction(1, 1)))"),
    (ParsedForm, ("weight", "level", "coefficients", "source_path"), {"source_path": ""},
     (12, 1, {1: 1, 2: -24}, "delta.txt"), (12, 1, {1: 1, 2: 24}, "delta.txt"),
     "ParsedForm(weight=12, level=1, coefficients={1: 1, 2: -24}, source_path='delta.txt')"),
    (ParsedHeckeData, ("entries", "chi_order", "field_disc"),
     {"chi_order": None, "field_disc": None}, ([_INERT5], 3, -23), ([_INERT5], 3, -31),
     "ParsedHeckeData(entries=[HeckeLocalData(p=5, splitting='inert', chi_p=-1, "
     "chi_pbar=None)], chi_order=3, field_disc=-23)"),
]
# a dict or a list among their fields makes these two unhashable
_UNHASHABLE = (ParsedForm, ParsedHeckeData)

parametrize_records = pytest.mark.parametrize(
    "cls, names, defaults, values, other, text", RECORDS,
    ids=[row[0].__name__ for row in RECORDS])


@parametrize_records
def test_keyword_construction_and_defaults(cls, names, defaults, values, other, text):
    value = cls(*values)
    assert cls(**dict(zip(names, values))) == value
    assert tuple(getattr(value, name) for name in names) == values
    required = len(names) - len(defaults)
    if defaults:  # from the unequal value, as a split HeckeLocalData needs chi_pbar
        short = cls(*other[:required])
        assert {name: getattr(short, name) for name in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*values[:required - 1])


@parametrize_records
def test_equality_is_over_the_fields_of_the_same_class(cls, names, defaults, values, other,
                                                        text):
    value = cls(*values)
    assert value == cls(*values) and not value != cls(*values)
    assert value != cls(*other) and not value == cls(*other)
    assert value != values and not value == "text"
    # WeylElement keeps its own __eq__, which answers False
    assert value.__eq__(values) is (False if cls is WeylElement else NotImplemented)


@parametrize_records
def test_frozen_records_hash_their_fields_and_mutable_ones_refuse(cls, names, defaults,
                                                                   values, other, text):
    value = cls(*values)
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    elif cls is WeylElement:
        assert hash(value) == hash(cls(*values)) == hash(values[0])
    else:
        assert hash(value) == hash(cls(*values)) == hash(values)


@parametrize_records
def test_frozen_records_refuse_assignment(cls, names, defaults, values, other, text):
    value = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, other[names.index(name)])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*values)


@parametrize_records
def test_fields_are_the_init_parameters_in_order(cls, names, defaults, values, other, text):
    assert list(inspect.signature(cls).parameters) == list(names)
    assert list(vars(cls(*values))) == list(names)
    assert list(vars(cls(*other))) == list(names)


@parametrize_records
def test_repr_is_the_dataclass_text(cls, names, defaults, values, other, text):
    assert repr(cls(*values)) == text


@parametrize_records
def test_copy_and_pickle_give_an_equal_value(cls, names, defaults, values, other, text):
    value = cls(*values)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text
        assert list(vars(twin)) == list(names)
        if cls not in _UNHASHABLE:
            assert hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, names[0], other[0])


_NAN = float("nan")
# (constructor, arguments, the ValueError's text); where several fields are
# bad the message names the first check that refuses
REFUSALS = [
    (ReciprocalPoly, ([],), "empty coefficient list"),
    (ReciprocalPoly, ([2, 1],), "constant coefficient must be 1"),
    (PrincipalParams, (2, 1, 0.9, _NAN), "q must be >= 2"),
    (PrincipalParams, (1j, 10 ** 400, 0.1, 1), "q is beyond the float range"),
    (PrincipalParams, (2, 3, 0.5, _NAN), "r must lie in [0, 1/2)"),
    (PrincipalParams, (1j, 3, _NAN, 1), "r must lie in [0, 1/2)"),
    (PrincipalParams, (2, 3, 0.1, _NAN), "|mu| must be 1, got mu = 2"),
    (PrincipalParams, (10 ** 400, 3, 0.1, 1), "mu is beyond the float range"),
    (PrincipalParams, (1j, 3, 0.1, complex(_NAN)), "s must be finite, got s = (nan+0j)"),
    (PrincipalParams, (1j, 3, 0.1, 10 ** 400), "s is beyond the float range"),
    (HeckeLocalData, (4, "ramified", 0), "p must be a prime below 3.317e+24, got 4"),
    (HeckeLocalData, (7, "ramified", 0), "splitting must be split or inert, got 'ramified'"),
    (HeckeLocalData, (7, "split", 0), "split entry at p=7 needs two character values"),
    (HeckeLocalData, (7, "inert", 0, 1), "inert entry at p=7 takes one character value"),
    (HeckeLocalData, (7, "inert", 0), "character values must be nonzero"),
    (HeckeLocalData, (7, "split", 1j, 0j), "character values must be nonzero"),
    (HeckeLocalData, (7, "split", 0, 1j), "character values must be nonzero"),
]


@pytest.mark.parametrize("cls, args, message", REFUSALS,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(REFUSALS)])
def test_each_refusal_keeps_its_message(cls, args, message):
    with pytest.raises(ValueError) as exc:
        cls(*args)
    assert str(exc.value) == message


def test_a_mixed_split_pair_is_demoted_to_complex():
    d = HeckeLocalData(7, "split", _ZETA3, 1j)
    assert type(d.chi_p) is complex and type(d.chi_pbar) is complex
    assert d.chi_pbar == 1j and math.isclose(d.chi_p.real, -0.5)
    assert d == HeckeLocalData(7, "split", complex(_ZETA3), 1j)
    assert list(vars(d)) == ["p", "splitting", "chi_p", "chi_pbar"]
    exact = HeckeLocalData(7, "split", _ZETA3, _ZETA3)
    assert type(exact.chi_p) is Cyclo and type(exact.chi_pbar) is Cyclo
