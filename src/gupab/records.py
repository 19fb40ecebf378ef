"""The one base of the package's immutable records, which generates no code when a record class is created.

A record class lists its constructor's parameters, in order, in ``_fields``,
and its slots in ``__slots__``; its hand-written ``__init__`` converts and
checks its arguments and stores each field with ``store``. After that an
assignment raises ``AttributeError``. ``==``, ``hash`` and ``repr`` read the
fields named in ``_compared``, which is ``_fields`` unless the class names
fewer. ``_replace`` builds a changed copy through the constructor, so its
checks run again, as ``NamedTuple._replace`` does for the package's tuple
records. A record with a ``cached_property`` adds ``__dict__`` to its slots,
where the property stores what it computes.
"""

store = object.__setattr__  # stores a field in a record's __init__, past the record's own __setattr__


class Record:
    """Base of an immutable record with a hand-written ``__init__``; see the module docstring."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        if "_compared" not in vars(cls):
            cls._compared = cls._fields

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild a record through its constructor
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with the given fields changed, built by the constructor: its checks run again."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})
