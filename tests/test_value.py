"""The immutable records built on meyersig.value.Value: equality and
hashing over their fields, a readable repr, and no assignment; and, with
the words and matrices they hold, copies, pickles and no deletion."""

import copy
import pickle

import pytest

from meyersig.cocycle import VSpace
from meyersig.fibered import FiberGerm, FibrationDescription
from meyersig.presentations import ClassOrder, Presentation, Word, shipped_presentation
from meyersig.genus1 import SL2Element
from meyersig.symplectic import SymplecticMatrix, random_symplectic

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


# Words, matrices and the records that hold them, each with the fields
# it is built from: a copy, a deep copy or a pickle rebuilds each part
# through its constructor, and no field can be deleted.
COPIED = {
    "Word": (lambda: Word([(0, 1), (1, -1)]), ("letters",)),
    "genus-2 matrix": (lambda: random_symplectic(2, 9, 0), ("g", "rows")),
    "SL2Element": (lambda: SL2Element(2, 1, 1, 1), ("g", "rows")),
    "FiberGerm": (lambda: FiberGerm(Word([(0, 1)]), -1, "u"), FiberGerm._fields),
    "Presentation": (lambda: shipped_presentation(2), Presentation._fields),
}


@pytest.mark.parametrize("make, fields", COPIED.values(), ids=COPIED)
def test_copies_and_pickles_are_equal_with_the_same_hash(make, fields):
    value = make()
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)


@pytest.mark.parametrize("make, fields", COPIED.values(), ids=COPIED)
def test_no_field_can_be_deleted(make, fields):
    value = make()
    for name in fields:
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
        getattr(value, name)
    assert value == make() and hash(value) == hash(make())
