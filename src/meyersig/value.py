"""The base of the package's immutable records.

``VSpace``, ``Presentation``, ``ClassOrder``, ``FiberGerm`` and
``FibrationDescription`` are values: built once, compared and hashed by
their fields, never changed.  This base gives them that behaviour in a
few plain methods, so importing the package loads no class generator.
"""


class Value:
    """An immutable record over the fields named in ``_fields``.

    A subclass lists its fields in constructor order and sets each in
    ``__init__`` with ``object.__setattr__``.  Two values are equal when
    they have the same class and equal fields, and a value hashes as the
    tuple of its fields.  Assigning or deleting an attribute raises
    AttributeError.  Attributes outside ``_fields`` (cached or derived
    data) take no part in equality, hashing or the repr.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
