"""The constructor of the records made per sphere, chop and ruling step."""

from __future__ import annotations

from dataclasses import dataclass, fields


def hot_record(cls: type) -> type:
    """cls as a frozen dataclass whose __init__ writes each field straight
    into the instance __dict__.

    A frozen dataclass's own __init__ calls object.__setattr__ once per
    field, to get past the __setattr__ that raises FrozenInstanceError. The
    records built once per boundary sphere, chop and ruling step are made
    thousands of times a scan, so theirs does one dict store per field. The
    record is still frozen: assigning or deleting a field raises
    FrozenInstanceError, and ==, repr, hash and dataclasses.replace are the
    dataclass's own. The __init__ is generated from the fields with one
    exec, as dataclasses does, so its TypeError texts name the class as a
    plain dataclass's do. Every field is a required argument: none of the
    records has a default."""
    cls = dataclass(frozen=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    body = "".join(f"\n    d[{name!r}] = {name}" for name in names)
    ns: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):\n    d = self.__dict__{body}",
         {"__name__": cls.__module__}, ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
