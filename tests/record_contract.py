"""What ``boxprec._record.record`` keeps from ``dataclasses.dataclass``.

Standard library only, and ``_record.py`` is loaded by path, so the
contract also runs on an interpreter without numpy::

    python tests/record_contract.py

``tests/test_record.py`` runs each ``check_*`` function under pytest.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import pickle
from dataclasses import KW_ONLY, FrozenInstanceError, InitVar, field
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "_record", Path(__file__).resolve().parents[1] / "src" / "boxprec" / "_record.py"
)
_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_record)
record = _record.record


def built_by_record(cls: type) -> bool:
    """Whether ``cls.__init__`` is the one :func:`record` generates: it
    closes over one slot setter per field."""
    setters = {f"_set_{f.name}" for f in dataclasses.fields(cls)}
    return setters <= set(cls.__init__.__code__.co_freevars)


@record
class Pair:
    first: float
    second: tuple = ()


@dataclasses.dataclass(frozen=True, slots=True)
class PlainPair:
    first: float
    second: tuple = ()


def _raises(exc: type, fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except exc:
        return
    raise AssertionError(f"{fn!r} did not raise {exc.__name__}")


def check_construction() -> None:
    assert built_by_record(Pair) and not built_by_record(PlainPair)
    assert str(inspect.signature(Pair)) == str(inspect.signature(PlainPair))
    assert Pair.__init__.__qualname__ == "Pair.__init__"
    assert Pair(1.0) == Pair(first=1.0) == Pair(1.0, ()) == Pair(second=(), first=1.0)
    assert Pair(1.0, (2,)).second == (2,)
    _raises(TypeError, Pair)
    _raises(TypeError, Pair, 1.0, (), 3)
    _raises(TypeError, Pair, 1.0, third=3)
    _raises(TypeError, Pair, 1.0, first=1.0)


def check_post_init() -> None:
    seen = []

    @record
    class Checked:
        value: int

        def __post_init__(self) -> None:
            seen.append(self.value)
            if self.value < 0:
                raise ValueError("negative")
            object.__setattr__(self, "value", self.value * 2)

    assert Checked(3).value == 6
    assert seen == [3]
    _raises(ValueError, Checked, -1)


def check_frozen_and_slotted() -> None:
    p = Pair(1.0, (2,))
    _raises(FrozenInstanceError, setattr, p, "first", 2.0)
    _raises(FrozenInstanceError, delattr, p, "first")
    assert not hasattr(p, "__dict__")
    assert Pair.__slots__ == ("first", "second")
    assert p == Pair(1.0, (2,))


def check_dataclass_methods() -> None:
    p = Pair(1.0, (2,))
    q = Pair(1.0, (2,))
    assert p == q and p is not q and hash(p) == hash(q)
    assert p != Pair(1.0) and p != PlainPair(1.0, (2,))
    assert repr(p) == "Pair(first=1.0, second=(2,))"
    assert [f.name for f in dataclasses.fields(Pair)] == ["first", "second"]
    assert dataclasses.replace(p, first=3.0) == Pair(3.0, (2,))
    assert dataclasses.astuple(p) == (1.0, (2,))
    assert pickle.loads(pickle.dumps(p)) == p


def check_field_named_self() -> None:
    @record
    class Odd:
        self: int

    assert Odd(1).self == 1 and Odd(self=2).self == 2


def check_refuses_what_it_does_not_build() -> None:
    def factory():
        class A:
            x: list = field(default_factory=list)
        return A

    def initvar():
        class B:
            x: int
            scale: InitVar[int] = 1

            def __post_init__(self, scale):
                pass
        return B

    def kw_only_field():
        class C:
            x: int = field(kw_only=True)
        return C

    def kw_only_marker():
        class D:
            x: int
            _: KW_ONLY
            y: int = 0
        return D

    def not_in_init():
        class E:
            x: int
            y: int = field(default=0, init=False)
        return E

    for make in (factory, initvar, kw_only_field, kw_only_marker, not_in_init):
        _raises(TypeError, record, make())


CHECKS = [fn for name, fn in sorted(globals().items()) if name.startswith("check_")]


if __name__ == "__main__":
    import sys

    for check in CHECKS:
        check()
    print(f"{len(CHECKS)} record checks passed on Python {sys.version.split()[0]}")
