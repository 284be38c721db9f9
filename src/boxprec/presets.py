"""Built-in experiment presets.

Each preset is a plain config dict (see :mod:`boxprec.config`) pinned to
a named operating regime:

fig1
    Theory-only sweep of the target constellation power at a unit box,
    showing the transmit power growing toward the box ceiling.
fig2
    Tuned box precoder across two decades of receiver noise at a fixed
    5 dB transmit SNR.
fig3
    Quantized pipeline across box sizes at the tuned ridge weight and
    5 dB level, with Monte Carlo validation (50 draws at n=1000).  The
    box-size grid brackets the interior optimum.
fig4-left / fig4-right
    Both pipelines, each tuned per point, across a transmit SNR ramp,
    at load 0.15 and 0.2.

``reg`` and ``level`` in fig3 are frozen from a grid search at load 0.2,
noise 0.09, 5 dB (see ``optimize_quant``); re-deriving them moves the
answer by less than the Monte Carlo noise floor.
"""

from __future__ import annotations

import copy
import math

from .errors import ConfigError
from .tuning import tune_level_for_snr

__all__ = ["PRESETS", "preset_config", "preset_names"]

# Frozen outputs of optimize_quant(user_ratio=0.2, noise_var=0.09, 5 dB)
# on the default grids.  The amp optimum sits strictly inside the grid.
FIG3_REG = 0.001
FIG3_LEVEL = 0.53348382301167685


def _log_space(lo: float, hi: float, count: int) -> list[float]:
    a = math.log10(lo)
    b = math.log10(hi)
    return [10.0 ** (a + i * (b - a) / (count - 1)) for i in range(count)]


_FIG4_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


def _fig4(user_ratio: float, base_seed: int, path: str) -> dict:
    return {
        "schema_version": 1,
        "mode": "simulate",
        "params": {
            "user_ratio": user_ratio,
            "reg": 1.0,
            "amp": "inf",
            "level": 0.3,
            "noise_var": 0.09,
            "target_power": 1.0,
            "n_antennas": 800,
        },
        "sweep": {
            "parameter": "level",
            "values": [tune_level_for_snr(0.09, db) for db in _FIG4_DB],
        },
        "tuned": "both",
        "trials": 50,
        "base_seed": base_seed,
        "output": {"path": path, "format": "csv"},
    }


PRESETS: dict[str, dict] = {
    "fig1": {
        "schema_version": 1,
        "mode": "sweep",
        "params": {
            "user_ratio": 0.2,
            "reg": 1.0,
            "amp": 1.0,
            "level": 1.0,
            "noise_var": 0.09,
            "target_power": 1.0,
            "n_antennas": 800,
        },
        "sweep": {
            "parameter": "target_power",
            "values": _log_space(0.05, 10.0, 8),
        },
        "base_seed": 0,
        "output": {"path": "fig1.csv", "format": "csv"},
    },
    "fig2": {
        "schema_version": 1,
        "mode": "sweep",
        "params": {
            "user_ratio": 0.2,
            "reg": 1.0,
            "amp": 2.0,
            "level": 1.0,
            "noise_var": 0.09,
            "target_power": 1.0,
            "n_antennas": 800,
        },
        "sweep": {
            "parameter": "noise_var",
            "values": _log_space(1e-3, 1.0, 7),
        },
        "tuned": "box",
        # Single-point grid: hold the ridge weight, retune only the
        # power control; a box of half-width 2 keeps the 5 dB target
        # reachable across the whole noise decade.
        "reg_grid": [1.0],
        "target_snr_db": 5.0,
        "base_seed": 0,
        "output": {"path": "fig2.csv", "format": "csv"},
    },
    "fig3": {
        "schema_version": 1,
        "mode": "simulate",
        "params": {
            "user_ratio": 0.2,
            "reg": FIG3_REG,
            "amp": 1.0,
            "level": FIG3_LEVEL,
            "noise_var": 0.09,
            "target_power": 1.0,
            "n_antennas": 1000,
        },
        "sweep": {
            "parameter": "amp",
            "values": _log_space(0.1, 10.0, 10),
        },
        "trials": 50,
        "base_seed": 90000,
        "output": {"path": "fig3.csv", "format": "csv"},
    },
    "fig4-left": _fig4(0.15, 40000, "fig4-left.csv"),
    "fig4-right": _fig4(0.2, 41000, "fig4-right.csv"),
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def preset_config(name: str) -> dict:
    """Deep copy of the named preset's config dict."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {', '.join(PRESETS)}"
        )
    return copy.deepcopy(PRESETS[name])
