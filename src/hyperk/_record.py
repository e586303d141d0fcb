"""A base for the package's plain record classes.

A subclass lists its fields in ``__slots__`` and sets them in ``__init__``;
equality, hash and repr read the fields in that order.  A record that keeps
private slots beside its fields names the fields in ``_fields`` instead.  A
record whose fields may change sets ``__hash__ = None``.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
