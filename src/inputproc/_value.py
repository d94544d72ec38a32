"""Immutable value classes that are cheap to create: one `exec` per class
generates the three methods that must be fast, and the rest are shared. The
standard library's record classes import `inspect` and `exec` a dozen methods
per class, which cost more of a command-line call than the command did."""


class FrozenFieldError(AttributeError):
    """A field of an immutable value was assigned or deleted."""


def _setattr(self, name, value):
    raise FrozenFieldError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenFieldError(f"cannot delete field {name!r}")


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def value_class(cls):
    """Make `cls` an immutable value whose fields are its own annotated names,
    in order, with class attributes as defaults. Values of one class with
    equal fields are equal and hash alike; values have no order. `__init__`
    calls `__post_init__`, if the class has one, after setting the fields."""
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    source = "\n".join([
        f"def __init__(self, {params}):",
        *(f"    _set(self, {n!r}, {n})" for n in names),
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
    ])
    namespace = {"_set": object.__setattr__, "_defaults": defaults, "__name__": cls.__module__}
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, namespace[name])
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _setattr, _delattr
    cls.__match_args__ = names
    return cls
