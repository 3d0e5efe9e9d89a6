"""Every value class of the package: immutable, compared and shown by its
defining fields, and rebuilt unchanged by copy, deep copy and pickle."""

import copy
import pickle

import pytest

from temperedk import (
    ComplexCharacter,
    ComplexComponent,
    ComplexTemperedPoint,
    Component,
    ConeChart,
    IndexFamily,
    LeviShape,
    LParameterC,
    LParameterR,
    OneDim,
    RealCharacter,
    RealTemperedPoint,
    SigmaOrbit,
    TemperedPoint,
    TwoDimInduced,
    bc_component,
    induced_k_map,
    k_complex,
    k_real,
    kclass,
)

ORBIT = SigmaOrbit((2, 1), (0,))
CHARACTERS = (ComplexCharacter(2, -0.5), ComplexCharacter(-1, 0.25))
SUMMANDS = (OneDim(RealCharacter(1, 0.5)), TwoDimInduced(CHARACTERS[0]))

# (value, its defining fields, attributes derived from them)
VALUES = [
    (LeviShape(1, 1), ("q", "r"), ()),
    (ORBIT, ("gl2_labels", "gl1_labels"), ()),
    (Component(ORBIT), ("orbit",), ("shape",)),
    (ComplexComponent((1, -1, 0)), ("labels",), ()),
    (ConeChart(1, 2), ("num_lines", "num_rays"), ()),
    (TemperedPoint(ComplexComponent((0,)), (0.5,)), ("component", "params"), ()),
    (RealTemperedPoint(Component(ORBIT), (0.5, -1.0, 2.0)), ("component", "params"), ()),
    (ComplexTemperedPoint(ComplexComponent((1, -1)), (0.25, 0.25)), ("component", "params"), ()),
    (IndexFamily("nat_subsets", 2), ("kind", "size"), ()),
    (k_real(2, 2)[0], ("field", "n", "cutoff", "degree"), ("closed_form",)),
    (kclass(k_complex(1, 2)[1], {"labels:0": 3, "labels:-2": -1}), ("presentation", "items"), ()),
    (bc_component(Component(ORBIT)), ("source", "target", "matrix"), ("column_rank",)),
    (induced_k_map(1, 2), ("source", "target", "assignments"), ("_images", "_zero")),
    (RealCharacter(1, 0.5), ("epsilon", "t"), ()),
    (CHARACTERS[0], ("ell", "t"), ()),
    (OneDim(RealCharacter(0, 1.0)), ("chi",), ()),
    (TwoDimInduced(ComplexCharacter(3, 0.0)), ("chi",), ()),
    (LParameterR(SUMMANDS), ("summands",), ()),
    (LParameterC(CHARACTERS), ("summands",), ()),
]


@pytest.mark.parametrize(
    "value, fields, derived", VALUES, ids=[type(value).__name__ for value, _, _ in VALUES]
)
class TestValueClass:
    def test_copies_and_pickles_are_equal_and_of_the_same_class(self, value, fields, derived):
        for rebuilt in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(rebuilt) is type(value)
            assert rebuilt == value and hash(rebuilt) == hash(value)
            for name in fields + derived:
                assert getattr(rebuilt, name) == getattr(value, name)

    def test_fields_cannot_be_assigned_or_deleted(self, value, fields, derived):
        for name in fields + derived:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)

    def test_repr_shows_the_fields_only(self, value, fields, derived):
        text = repr(value)
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
        assert text == f"{type(value).__name__}({shown})"
        for name in derived:
            assert f"{name}=" not in text


def test_values_of_different_classes_never_compare_equal():
    # Equal field values in different classes, as tuples would compare them.
    assert LeviShape(1, 0) != ConeChart(1, 0)
    assert RealCharacter(1, 0.5) != ComplexCharacter(1, 0.5)
    assert len({LeviShape(1, 0), ConeChart(1, 0)}) == 2


def test_every_value_is_slotted():
    for value, _, _ in VALUES:
        assert not hasattr(value, "__dict__"), value
