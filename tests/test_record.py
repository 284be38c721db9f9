import dataclasses
import importlib
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import boxprec
from boxprec import DomainError, SystemParams
from boxprec.cli import RunResult
from boxprec.config import ExperimentConfig
from boxprec.moments import ClipMoments
from boxprec.montecarlo import EmpiricalReport, TrialMetrics
from boxprec.precoder import PrecoderSolution, Realization
from boxprec.saddle import SaddlePoint
from boxprec.theory import BoxTheory, BussgangTheory, QuantTheory
from boxprec.tuning import TuneResult

import record_contract

RECORDS = (
    RunResult,
    ExperimentConfig,
    ClipMoments,
    EmpiricalReport,
    TrialMetrics,
    PrecoderSolution,
    Realization,
    SaddlePoint,
    SystemParams,
    BoxTheory,
    BussgangTheory,
    QuantTheory,
    TuneResult,
)
PARAMS = (0.2, 1.0, 1.5, 0.5, 0.09, 1.0, 100)


def _values(cls) -> tuple:
    """Positional field values: hashable stand-ins (the records do not
    check types), valid ones where ``__post_init__`` checks them."""
    if cls is SystemParams:
        return PARAMS
    return tuple(0.5 + i for i in range(len(fields(cls))))


@pytest.mark.parametrize("check", record_contract.CHECKS, ids=lambda fn: fn.__name__)
def test_record_contract(check):
    check()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_keep_the_dataclass_contract(cls):
    assert record_contract.built_by_record(cls)
    names = [f.name for f in fields(cls)]
    assert names == list(cls.__annotations__)
    values = _values(cls)
    rec = cls(*values)
    assert rec == cls(**dict(zip(names, values)))
    assert [getattr(rec, name) for name in names] == list(values)
    with pytest.raises(FrozenInstanceError):
        setattr(rec, names[0], values[1])
    with pytest.raises(FrozenInstanceError):
        delattr(rec, names[0])
    assert not hasattr(rec, "__dict__")
    twin = cls(*values)
    assert twin == rec and twin is not rec and hash(twin) == hash(rec)
    assert replace(rec) == rec
    moved = replace(rec, **{names[2]: values[2] * 2})
    assert getattr(moved, names[2]) == values[2] * 2 and moved != rec
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_every_dataclass_in_the_package_is_a_record():
    found = set()
    for info in pkgutil.iter_modules(boxprec.__path__, "boxprec."):
        if info.name == "boxprec.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        found |= {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__module__ == info.name
        }
    assert found == set(RECORDS)


def test_record_defaults_hold():
    p = SystemParams(user_ratio=0.2, reg=1.0, amp=1.0)
    assert p == SystemParams(0.2, 1.0, 1.0, 1.0, 0.1, 1.0, 1000)
    config = ExperimentConfig(mode="theory", params=p)
    assert [getattr(config, f.name) for f in fields(config)][2:] == [
        None, None, 0, 0, None, None, None, None, None, "csv", None,
    ]


def test_system_params_post_init_still_runs():
    p = SystemParams(np.float64(0.2), np.float64(1.0), amp=np.float64(1.5))
    assert all(type(v) is float for v in (p.user_ratio, p.reg, p.amp))
    assert p == SystemParams(0.2, 1.0, 1.5)
    with pytest.raises(DomainError, match="reg must be nonnegative"):
        SystemParams(0.2, -1.0, 1.0)
    with pytest.raises(DomainError, match="reg = 0 requires"):
        replace(p, reg=0.0)
