"""The base of revlab's immutable records."""

from collections import _tuplegetter

# Each record's __new__ returns _new(cls, (fields...)).
_new = tuple.__new__


class Record(tuple):
    """An immutable tuple with named fields that compares and hashes by value.

    A record is copied with _replace.  Each record declares __slots__ = ()
    and writes its fields once, as the parameters (with defaults) of a
    plain __new__ that returns _new(cls, (fields...)); a __new__ that
    checks its values checks every construction, _make and _replace
    included.  When the
    class is made, the base reads _fields, _field_defaults and
    __match_args__ off that signature and installs the C field getters
    that collections.namedtuple uses, so a record is built and read as
    fast as a namedtuple.  A namedtuple is not used because it compiles
    the source of a generated __new__ (eval) for every record, at import,
    in every process; typing.NamedTuple and dataclasses cost more still.
    Knowledge and explorer.TraceSet, which cannot be tuples, are frozen
    slot classes.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        new = cls.__new__
        fields = new.__code__.co_varnames[1 : new.__code__.co_argcount]
        defaults = new.__defaults__ or ()
        cls._fields = cls.__match_args__ = fields
        cls._field_defaults = dict(zip(fields[len(fields) - len(defaults) :], defaults))
        for index, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{self.__class__.__name__}({fields})"
