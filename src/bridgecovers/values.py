"""The base of the value types whose constructor checks or normalizes."""

from collections import namedtuple


def checked_namedtuple(typename: str, field_names: str) -> type:
    """A namedtuple base whose ``_make``, and so ``_replace``, build through
    the subclass's ``__new__`` instead of around it."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base
