"""Frozen record classes, made without generating source.

``@record`` gives a class the methods ``@dataclass(frozen=True)`` would:
``__init__`` over the annotated fields in order, by position only
(class-level values are defaults, then ``__post_init__`` runs), equality
with an instance of the same class by the field tuple, a hash of that
tuple, the dataclass ``repr``, and ``FrozenInstanceError`` on assignment
and deletion.
Python 3.11's dataclasses build each method from source text and run
``exec`` on it, and importing them loads ``inspect``; together that was
about 30 % of the time to import the CLI, paid at every call.

The fields are slots, so reading one costs what it costs on a dataclass
and ``__init__`` stores each value through its slot's setter.  Pickling
and copying rebuild an instance through ``__init__``.
"""

from __future__ import annotations


def frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError  # only on the error path

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    names = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    required = len(names) - len(defaults)
    namespace = {key: value for key, value in cls.__dict__.items()
                 if key not in names and key not in ("__dict__", "__weakref__")}
    cls = type(cls)(cls.__name__, cls.__bases__,
                    dict(namespace, __slots__=names, __qualname__=cls.__qualname__))
    setters = tuple(getattr(cls, name).__set__ for name in names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args):
        if len(args) != len(names):
            if not required <= len(args) < len(names):
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, "
                                f"the last {len(defaults)} optional; got {len(args)} values")
            args += defaults[len(args) - required:]
        for set_field, value in zip(setters, args):
            set_field(self, value)
        if post_init is not None:
            post_init(self)

    def values(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, values(self)

    cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__
    cls.__repr__, cls.__reduce__ = __repr__, __reduce__
    cls.__setattr__, cls.__delattr__ = frozen_setattr, frozen_delattr
    return cls
