"""Experiment configuration: JSON schema, validation, round-tripping.

A config is a JSON object with ``schema_version`` 1 and a ``mode`` from
{saddle, theory, sweep, simulate, tune-box, tune-quant}.  Validation
failures raise :class:`~boxprec.errors.ConfigError` whose message points
at the offending key's line in the source text when it can be located.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields as dc_fields
from typing import Any

from .errors import ConfigError, DomainError
from .saddle import SystemParams

__all__ = ["ExperimentConfig", "parse_config", "serialize_config"]

SCHEMA_VERSION = 1
MODES = ("saddle", "theory", "sweep", "simulate", "tune-box", "tune-quant")
TUNED = ("box", "quantized", "both")

_PARAM_FIELDS = tuple(f.name for f in dc_fields(SystemParams))
# Parameters each tuned pipeline overwrites at every sweep point.  The
# quantized tuner also sets level, which the level rule below covers.
_TUNER_SETS = {
    "box": ("reg", "target_power"),
    "quantized": ("reg", "amp", "target_power"),
    "both": ("reg", "amp", "target_power"),
}
_TOP_KEYS = {
    "schema_version",
    "mode",
    "params",
    "sweep",
    "trials",
    "base_seed",
    "tuned",
    "target_snr_db",
    "reg_grid",
    "amp_grid",
    "output",
}


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Validated experiment description (see module docstring)."""

    mode: str
    params: SystemParams
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] | None = None
    trials: int = 0
    base_seed: int = 0
    tuned: str | None = None
    target_snr_db: float | None = None
    reg_grid: tuple[float, ...] | None = None
    amp_grid: tuple[float, ...] | None = None
    out_path: str | None = None
    out_format: str = "csv"
    preset: str | None = None


def _line_of(raw: str | None, key: str) -> str:
    if raw is None:
        return ""
    for i, line in enumerate(raw.splitlines(), start=1):
        if f'"{key}"' in line:
            return f"line {i}: "
    return ""


def _as_float(value: Any, key: str, raw: str | None) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"{_line_of(raw, key)}{key}: non-numeric string {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{_line_of(raw, key)}{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(
            f"{_line_of(raw, key)}{key}: integer too large for a float"
        ) from None
    if math.isnan(number):
        # json.loads reads the non-standard NaN literal.
        raise ConfigError(f"{_line_of(raw, key)}{key}: expected a number, got NaN")
    return number


def _as_int(value: Any, key: str, raw: str | None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{_line_of(raw, key)}{key}: expected an integer, got {value!r}")
    return value


def _json_object(text: str) -> dict:
    """Config text as a dict; invalid JSON or a non-object is a ConfigError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def parse_config(source: str | dict, *, preset: str | None = None) -> ExperimentConfig:
    """Parse and validate a config from JSON text or an equivalent dict."""
    raw = source if isinstance(source, str) else None
    data = source if raw is None else _json_object(raw)
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{_line_of(raw, key)}unknown config key {key!r}")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"{_line_of(raw, 'schema_version')}schema_version must be "
            f"{SCHEMA_VERSION}, got {data.get('schema_version')!r}"
        )
    mode = data.get("mode")
    if mode not in MODES:
        raise ConfigError(
            f"{_line_of(raw, 'mode')}mode must be one of {', '.join(MODES)}; got {mode!r}"
        )
    pdata = data.get("params")
    if not isinstance(pdata, dict):
        raise ConfigError(f"{_line_of(raw, 'params')}params must be an object")
    unknown = set(pdata) - set(_PARAM_FIELDS)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{_line_of(raw, key)}unknown params key {key!r}")
    kwargs: dict[str, Any] = {}
    for name in _PARAM_FIELDS:
        if name not in pdata:
            continue
        if name == "n_antennas":
            kwargs[name] = _as_int(pdata[name], name, raw)
        else:
            kwargs[name] = _as_float(pdata[name], name, raw)
    try:
        params = SystemParams(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"{_line_of(raw, 'params')}invalid params: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{_line_of(raw, 'params')}incomplete params: {exc}") from exc

    sweep_parameter = None
    sweep_values = None
    sdata = data.get("sweep")
    if sdata is not None:
        if not isinstance(sdata, dict) or set(sdata) - {"parameter", "values"}:
            raise ConfigError(
                f"{_line_of(raw, 'sweep')}sweep must be an object with "
                "'parameter' and 'values'"
            )
        sweep_parameter = sdata.get("parameter")
        if sweep_parameter not in _PARAM_FIELDS:
            raise ConfigError(
                f"{_line_of(raw, 'parameter')}sweep parameter must be one of "
                f"{', '.join(_PARAM_FIELDS)}; got {sweep_parameter!r}"
            )
        values = sdata.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{_line_of(raw, 'values')}sweep values must be a nonempty list")
        if sweep_parameter == "n_antennas":
            sweep_values = tuple(_as_int(v, "values", raw) for v in values)
        else:
            sweep_values = tuple(_as_float(v, "values", raw) for v in values)

    trials = _as_int(data.get("trials", 0), "trials", raw)
    if trials < 0:
        raise ConfigError(f"{_line_of(raw, 'trials')}trials must be nonnegative")
    base_seed = _as_int(data.get("base_seed", 0), "base_seed", raw)
    if base_seed < 0:
        raise ConfigError(f"{_line_of(raw, 'base_seed')}base_seed must be nonnegative")
    tuned = data.get("tuned")
    if tuned is not None and tuned not in TUNED:
        raise ConfigError(
            f"{_line_of(raw, 'tuned')}tuned must be one of {', '.join(TUNED)}; got {tuned!r}"
        )
    target_snr_db = data.get("target_snr_db")
    if target_snr_db is not None:
        target_snr_db = _as_float(target_snr_db, "target_snr_db", raw)
        if math.isinf(target_snr_db):
            raise ConfigError(
                f"{_line_of(raw, 'target_snr_db')}target_snr_db must be finite, "
                f"got {target_snr_db!r}"
            )

    grids: dict[str, tuple[float, ...] | None] = {}
    for key in ("reg_grid", "amp_grid"):
        g = data.get(key)
        if g is None:
            grids[key] = None
            continue
        if not isinstance(g, list) or not g:
            raise ConfigError(f"{_line_of(raw, key)}{key} must be a nonempty list")
        grids[key] = tuple(_as_float(v, key, raw) for v in g)

    out_path = None
    out_format = "csv"
    odata = data.get("output")
    if odata is not None:
        if not isinstance(odata, dict) or set(odata) - {"path", "format"}:
            raise ConfigError(
                f"{_line_of(raw, 'output')}output must be an object with 'path'/'format'"
            )
        out_path = odata.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError(f"{_line_of(raw, 'path')}output path must be a string")
        out_format = odata.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(
            f"{_line_of(raw, 'format')}output format must be csv or json, got {out_format!r}"
        )

    # Cross-field rules.
    if mode == "sweep" and sweep_parameter is None:
        raise ConfigError("sweep mode requires a sweep block")
    if mode == "simulate" and trials < 1:
        raise ConfigError(f"{_line_of(raw, 'trials')}simulate mode requires trials >= 1")
    if mode not in ("sweep", "simulate") and sweep_parameter is not None:
        raise ConfigError(f"{mode} mode takes no sweep block")
    if tuned is not None and mode not in ("sweep", "simulate"):
        raise ConfigError(f"{_line_of(raw, 'tuned')}tuned applies only to sweep/simulate")
    if mode in ("tune-box", "tune-quant") and target_snr_db is None:
        raise ConfigError(f"{mode} mode requires target_snr_db")
    if (
        tuned in ("quantized", "both")
        and target_snr_db is not None
        and sweep_parameter == "level"
    ):
        raise ConfigError(
            "sweeping level with a global target_snr_db would overwrite the "
            "swept level; drop target_snr_db to derive SNR per point"
        )
    if sweep_parameter in _TUNER_SETS.get(tuned, ()):
        raise ConfigError(
            f"{_line_of(raw, 'parameter')}a sweep tuned for {tuned} cannot sweep "
            f"{sweep_parameter}: the tuner sets it at every point"
        )
    if tuned is not None and target_snr_db is None and params.noise_var == 0.0:
        raise ConfigError("tuned sweeps need noise_var > 0 to derive the SNR target")

    return ExperimentConfig(
        mode=mode,
        params=params,
        sweep_parameter=sweep_parameter,
        sweep_values=sweep_values,
        trials=trials,
        base_seed=base_seed,
        tuned=tuned,
        target_snr_db=target_snr_db,
        reg_grid=grids["reg_grid"],
        amp_grid=grids["amp_grid"],
        out_path=out_path,
        out_format=out_format,
        preset=preset,
    )


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Config as a JSON-ready dict; parse_config inverts it exactly."""
    params = {
        name: getattr(cfg.params, name)
        for name in _PARAM_FIELDS
    }
    if math.isinf(params["amp"]):
        params["amp"] = "inf"
    data: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "mode": cfg.mode,
        "params": params,
    }
    if cfg.sweep_parameter is not None:
        data["sweep"] = {
            "parameter": cfg.sweep_parameter,
            "values": list(cfg.sweep_values or ()),
        }
    if cfg.trials:
        data["trials"] = cfg.trials
    data["base_seed"] = cfg.base_seed
    if cfg.tuned is not None:
        data["tuned"] = cfg.tuned
    if cfg.target_snr_db is not None:
        data["target_snr_db"] = cfg.target_snr_db
    if cfg.reg_grid is not None:
        data["reg_grid"] = list(cfg.reg_grid)
    if cfg.amp_grid is not None:
        data["amp_grid"] = list(cfg.amp_grid)
    if cfg.out_path is not None or cfg.out_format != "csv":
        data["output"] = {}
        if cfg.out_path is not None:
            data["output"]["path"] = cfg.out_path
        data["output"]["format"] = cfg.out_format
    return data
