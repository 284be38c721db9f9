"""One decorator, :func:`record`, for boxprec's frozen result records.

``record`` applies ``dataclasses.dataclass(frozen=True, slots=True)``
and then replaces its ``__init__`` with a faster one.  The dataclass
``__init__`` of a frozen class stores each field through
``object.__setattr__``, which looks the field up on the type every time;
the one installed here stores it through the field's slot descriptor,
bound once at class creation.  Everything else is the
dataclass's own: ``fields()`` and their order, eq, hash, repr,
``dataclasses.replace``, pickling, and the frozen ``__setattr__`` and
``__delattr__`` that refuse assignment and deletion after construction.
The generated ``__init__`` keeps the dataclass one's signature
(positional or keyword arguments, plain defaults, annotations) and its
``__post_init__`` call.  A class that needs more of the dataclass
``__init__`` (a ``default_factory``, an ``InitVar``, a keyword-only or
``init=False`` field) is refused with :class:`TypeError` at class
creation.
"""

from __future__ import annotations

import dataclasses
import inspect

__all__ = ["record"]


def record(cls: type) -> type:
    """Make ``cls`` a frozen, slotted dataclass whose ``__init__`` stores
    its fields through their slot descriptors."""
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    if [p.name for p in params] != names or any(
        p.kind is not inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params
    ):
        raise TypeError(
            f"record {cls.__qualname__}: __init__ must take exactly its fields, "
            "positional or keyword (no InitVar, kw_only or init=False field)"
        )
    # The function is built as dataclasses builds its own: the text of a
    # factory whose arguments (setters, defaults) become the closure.
    closure = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    signature = []
    for f in fields:
        if f.default_factory is not dataclasses.MISSING:
            raise TypeError(
                f"record {cls.__qualname__}: field {f.name!r} has a default_factory"
            )
        if f.default is dataclasses.MISSING:
            signature.append(f.name)
        else:
            closure[f"_dflt_{f.name}"] = f.default
            signature.append(f"{f.name}=_dflt_{f.name}")
    self_name = "__record_self__" if "self" in names else "self"
    body = [f"_set_{name}({self_name}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append(f"{self_name}.__post_init__()")
    source = (
        f"def factory({', '.join(closure)}):\n"
        f" def __init__({', '.join([self_name, *signature])}):\n"
        + "".join(f"  {line}\n" for line in body or ["pass"])
        + " return __init__\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    init = namespace["factory"](**closure)
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__init__.__annotations__)
    cls.__init__ = init
    return cls
