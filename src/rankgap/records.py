"""Immutable value classes, built without generated code.

@record turns a class's annotated names, in order, into its fields and
attaches __init__, __eq__, __hash__, __repr__, __setattr__ and
__delattr__ as closures over them.  No source text is compiled, so a
class costs nothing at import beyond its body, and no standard-library
module is loaded for it.  The records behave as follows:

- construction by position, by keyword, or both, with defaults taken from
  the class body; a field set to uncompared(factory) gets factory() when
  it is not given;
- __post_init__, when the class has one, runs after every field is set;
- == holds only between instances of one class with equal fields, in
  order, uncompared fields aside, and hash agrees with it;
- repr shows every field;
- assigning or deleting an attribute raises AttributeError.  Fields live in
  the instance __dict__, so object.__setattr__ in __post_init__ and
  functools.cached_property still write there.
"""

from __future__ import annotations

__all__ = ["record", "uncompared"]


class uncompared:
    """A field default: factory() for each instance not given the field,
    which == and hash then ignore and repr still shows."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory


def record(cls):
    """Make cls an immutable record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    hidden = [name for name, value in defaults.items() if isinstance(value, uncompared)]
    compared = tuple(name for name in names if name not in hidden)
    for name in hidden:
        delattr(cls, name)
    title = cls.__qualname__
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs) -> list:
        """The field values of a call that does not pass exactly every field
        by position."""
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} arguments, {len(args)} given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                value = defaults[name]
                values.append(value.factory() if isinstance(value, uncompared) else value)
            else:
                raise TypeError(f"{title}() missing argument {name!r}")
        for name in kwargs:
            how = "got two values for" if name in names else "has no"
            raise TypeError(f"{title}() {how} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in names)
        return f"{title}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {title}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {title}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
