"""The immutable records built on meyersig.value.Value: equality and
hashing over their fields, a readable repr, and no assignment."""

import copy

import pytest

from meyersig.cocycle import VSpace
from meyersig.fibered import FiberGerm, FibrationDescription
from meyersig.presentations import ClassOrder, Presentation, Word, shipped_presentation
from meyersig.symplectic import SymplecticMatrix

U = SymplecticMatrix([[1, 1], [0, 1]])


def _presentation(generator="a"):
    """A fresh one-generator genus-1 presentation with one relator."""
    return Presentation(1, (generator,), (U,), (Word([(0, 1), (0, -1)]),))


# Per class: a maker of a fresh instance, and a maker of an instance that
# differs from it in one field.
VALUES = {
    "VSpace": (lambda: VSpace(1, ((1, 0, 0, 0),)), lambda: VSpace(1, ((0, 1, 0, 0),))),
    "Presentation": (_presentation, lambda: _presentation("b")),
    "ClassOrder": (lambda: ClassOrder(3, (1, 1)), lambda: ClassOrder(3, (1, 2))),
    "FiberGerm": (lambda: FiberGerm(Word([(0, 1)]), -1, "u"), lambda: FiberGerm(Word([(0, 1)]), -1, "v")),
    "FibrationDescription": (
        lambda: FibrationDescription(_presentation(), 0, (FiberGerm(Word()),)),
        lambda: FibrationDescription(_presentation(), 1, (FiberGerm(Word()),)),
    ),
}


@pytest.mark.parametrize("make, make_other", VALUES.values(), ids=VALUES)
def test_equality_and_hash_follow_the_fields(make, make_other):
    a, b, other = make(), make(), make_other()
    assert a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != other and not a == other
    assert hash(a) == hash(tuple(getattr(a, name) for name in a._fields))
    assert copy.copy(a) == a
    assert a != tuple(getattr(a, name) for name in a._fields)


@pytest.mark.parametrize("make", [make for make, _ in VALUES.values()], ids=VALUES)
def test_fields_cannot_be_assigned_or_deleted(make):
    value = make()
    for name in value._fields:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert make() == value


def test_records_of_equal_fields_and_different_classes_differ():
    assert VSpace(3, (1,)) != ClassOrder(3, (1,))


def test_repr_names_the_fields_in_order():
    assert repr(ClassOrder(3, (1, 1))) == "ClassOrder(n=3, coefficients=(1, 1))"
    assert repr(FiberGerm(Word([(0, 1)]))) == "FiberGerm(monodromy=Word(((0, 1),)), neighborhood_signature=0, label='')"


def test_presentation_equality_ignores_relator_values():
    p, q = _presentation(), _presentation()
    assert p._relator_values == q._relator_values == (0,)
    object.__setattr__(q, "_relator_values", (1,))  # as test_synthesize_unbounded_raises
    assert p == q and hash(p) == hash(q)
    assert "_relator_values" not in repr(q)


def test_constructor_defaults():
    assert FibrationDescription(shipped_presentation(1), 0).germs == ()
    germ = FiberGerm(Word())
    assert (germ.neighborhood_signature, germ.label) == (0, "")
