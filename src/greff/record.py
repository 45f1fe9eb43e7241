"""dataclasses.dataclass without its per-method code generation: dataclasses
only reads the fields, one exec makes a class's __init__, __eq__ and
__hash__, and every class shares one __repr__, __setattr__ and __delattr__."""

import dataclasses
import reprlib


@reprlib.recursive_repr()  # "..." for a record inside itself, as in a FixClosure
def _repr(self) -> str:
    shown = [f"{f.name}={getattr(self, f.name)!r}" for f in dataclasses.fields(self) if f.repr]
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


def _frozen(self, name, *value):  # __setattr__ passes a value, __delattr__ none
    verb = "assign to" if value else "delete"
    raise dataclasses.FrozenInstanceError(f"cannot {verb} field {name!r}")


def _param(f: dataclasses.Field) -> str:
    return f.name if f.default is dataclasses.MISSING else f"{f.name}=_d_{f.name}"


def record(cls=None, /, *, frozen=True, eq=True, slots=False):
    """dataclass(cls, frozen=frozen, eq=eq, slots=slots), built cheaply."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq, slots=slots)
    cls.__doc__ = cls.__doc__ or cls.__name__  # else dataclass calls inspect.signature
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False, slots=slots)
    fields = dataclasses.fields(cls)
    args = [f for f in fields if f.init]
    kw_only = [_param(f) for f in args if f.kw_only]
    params = ["self", *(_param(f) for f in args if not f.kw_only)]
    params += ["*", *kw_only] if kw_only else []
    store = "_set(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
    # without slots, a field left at a default of None reads the class attribute
    unset = "if {0} is not None: " if not slots else ""
    body = [((unset if f.default is None else "") + store).format(f.name) for f in args]
    body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    compared = [f.name for f in fields if f.compare]
    mine, theirs = (f"({''.join(f'{s}.{n},' for n in compared)})" for s in ("self", "other"))
    ns = {"_set": object.__setattr__, **{f"_d_{f.name}": f.default for f in args}}
    exec("\n".join([
        f"def __init__({', '.join(params)}):", *(f" {line}" for line in body or ["pass"]),
        "def __eq__(self, other):",
        f" return {mine} == {theirs} if other.__class__ is self.__class__ else NotImplemented",
        f"def __hash__(self): return hash({mine})",
    ]), ns)
    ns["__init__"].__annotations__ = {f.name: f.type for f in args} | {"return": None}
    if "__init__" not in cls.__dict__:
        cls.__init__ = ns["__init__"]
    if eq:  # a record that can change is unhashable
        cls.__eq__, cls.__hash__ = ns["__eq__"], (ns["__hash__"] if frozen else None)
    cls.__repr__ = _repr
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
