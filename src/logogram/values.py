"""The immutable base of the package's value types: an alphabet, a partial
string, a clause-encoding shape, a budget and an antichain of strings."""


class Value:
    """A subclass names its fields in ``_fields`` and, once it has validated
    them, passes their values in that order to ``Value.__init__``. Equality
    with values of the same class only, a hash, the ``Name(field=...)`` repr
    and read-only fields follow; copy and pickle restore the fields as set."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
