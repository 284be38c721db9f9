"""Experiment runner: config in, machine-readable table out.

``boxprec run`` parses a JSON config (or a named preset), dispatches on
its mode, and emits one CSV or JSON table.  Every theory number in the
table is a pure function of the parameter columns in the same row, so
``boxprec verify`` can recompute and diff an emitted file with no other
state; empirical columns are reproducible from the seed columns.

Exit codes: 0 success, 1 verify mismatch, 2 config error, 3 solver
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
import scipy

from . import __version__
from .config import (
    SCHEMA_VERSION,
    ExperimentConfig,
    parse_config,
    serialize_config,
)
from .errors import ConfigError, DomainError, SolverError
from .montecarlo import run_experiment
from .presets import preset_config, preset_names
from .saddle import SystemParams, solve_saddle
from .theory import box_theory, bussgang_theory, quant_theory
from .tuning import optimize_box, optimize_quant

__all__ = [
    "RunResult",
    "emit_csv",
    "emit_json",
    "main",
    "run",
    "verify_file",
]

PARAM_COLS = (
    "user_ratio",
    "reg",
    "amp",
    "level",
    "noise_var",
    "target_power",
    "n_antennas",
)
SADDLE_COLS = (
    "tau",
    "beta",
    "alpha",
    "phi",
    "residual_power",
    "residual_beta",
    "e_abs",
    "e_sq",
    "e_xh",
)
BOX_COLS = (
    "box_power",
    "box_sig_coef",
    "box_dist_std",
    "box_sdnr_lb",
    "box_ber",
    "box_rx_scale",
)
QUANT_COLS = (
    "quant_sig_coef",
    "quant_dist_var",
    "quant_sdnr_lb",
    "quant_ber",
    "quant_rx_scale",
)
BUSS_COLS = (
    "buss_gain",
    "buss_resid_var",
    "buss_sig_coef",
    "buss_noise_var",
    "buss_ber",
)
EMP_COLS = (
    "emp_trials",
    "emp_base_seed",
    "emp_ber_box",
    "emp_ber_box_se",
    "emp_sdnr_lb_box",
    "emp_sdnr_avg_box",
    "emp_power_box",
    "emp_w2_box",
    "emp_ber_quant",
    "emp_ber_quant_se",
    "emp_sdnr_lb_quant",
    "emp_sdnr_avg_quant",
    "emp_power_quant",
    "emp_w2_quant",
)

# Canonical column order; emitted tables keep this order filtered to the
# columns any row actually carries.
ALL_COLS = (
    ("pipeline",)
    + PARAM_COLS
    + SADDLE_COLS
    + BOX_COLS
    + QUANT_COLS
    + BUSS_COLS
    + ("objective_ber",)
    + EMP_COLS
)

# Columns the verify subcommand recomputes from the parameter columns.
_VERIFIABLE = frozenset(SADDLE_COLS + BOX_COLS + QUANT_COLS + BUSS_COLS)

COLUMN_DOC = {
    "pipeline": "transmitter the row describes: box (relaxed) or quantized (one-bit)",
    "user_ratio": "users per antenna, m/n",
    "reg": "ridge weight on ||x||^2/n",
    "amp": "box half-width A; inf disables clipping",
    "level": "one-bit DAC output magnitude L",
    "noise_var": "receiver noise variance",
    "target_power": "squared constellation scale in the LS target",
    "n_antennas": "transmit array size n",
    "tau": "saddle dispersion variable tau",
    "beta": "saddle dual variable beta",
    "alpha": "clip slope 1/tau + 2*reg/beta",
    "phi": "saddle objective value",
    "residual_power": "fixed-point defect of the power equation at the solution",
    "residual_beta": "fixed-point defect of the beta equation at the solution",
    "e_abs": "E|X| of the clipped-Gaussian entry law",
    "e_sq": "E[X^2] of the clipped-Gaussian entry law",
    "e_xh": "E[X H] coupling moment of the entry law",
    "box_power": "asymptotic per-antenna transmit power of the relaxed precoder",
    "box_sig_coef": "useful-signal coefficient at the receiver, relaxed precoder",
    "box_dist_std": "per-user distortion standard deviation, relaxed precoder",
    "box_sdnr_lb": "signal-to-distortion-plus-noise lower bound, relaxed precoder",
    "box_ber": "BPSK error probability, relaxed precoder",
    "box_rx_scale": "receiver normalization 1/box_sig_coef",
    "quant_sig_coef": "useful-signal coefficient, one-bit precoder",
    "quant_dist_var": "per-user distortion variance, one-bit precoder",
    "quant_sdnr_lb": "signal-to-distortion-plus-noise lower bound, one-bit precoder",
    "quant_ber": "BPSK error probability, one-bit precoder",
    "quant_rx_scale": "receiver normalization 1/quant_sig_coef",
    "buss_gain": "linear gain of the uncorrelated-distortion heuristic",
    "buss_resid_var": "residual distortion variance under the heuristic",
    "buss_sig_coef": "useful-signal coefficient predicted by the heuristic",
    "buss_noise_var": "total effective noise variance predicted by the heuristic",
    "buss_ber": "BPSK error probability predicted by the heuristic",
    "objective_ber": "tuned objective: theory BER at the returned operating point",
    "emp_trials": "Monte Carlo draws behind the emp_* columns",
    "emp_base_seed": "first trial seed; trial i uses emp_base_seed + i",
    "emp_ber_box": "empirical BER, relaxed precoder",
    "emp_ber_box_se": "binomial standard error of emp_ber_box",
    "emp_sdnr_lb_box": "empirical pooled SDNR, relaxed precoder",
    "emp_sdnr_avg_box": "empirical per-user-averaged SDNR, relaxed precoder",
    "emp_power_box": "mean empirical per-antenna power, relaxed precoder",
    "emp_w2_box": "mean W2 distance of distortion law to theory, relaxed precoder",
    "emp_ber_quant": "empirical BER, one-bit precoder",
    "emp_ber_quant_se": "binomial standard error of emp_ber_quant",
    "emp_sdnr_lb_quant": "empirical pooled SDNR, one-bit precoder",
    "emp_sdnr_avg_quant": "empirical per-user-averaged SDNR, one-bit precoder",
    "emp_power_quant": "per-antenna power of the one-bit precoder (level^2)",
    "emp_w2_quant": "mean W2 distance of distortion law to theory, one-bit precoder",
}


@dataclass(frozen=True, slots=True)
class RunResult:
    """Table produced by :func:`run`: ordered columns, row dicts, meta."""

    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    meta: dict


def _param_cells(params: SystemParams) -> dict:
    return {name: getattr(params, name) for name in PARAM_COLS}


def _saddle_cells(params: SystemParams):
    sp = solve_saddle(params)
    cells = {
        "tau": sp.tau,
        "beta": sp.beta,
        "alpha": sp.alpha,
        "phi": sp.phi,
        "residual_power": sp.residual_power,
        "residual_beta": sp.residual_beta,
        "e_abs": sp.moments.e_abs,
        "e_sq": sp.moments.e_sq,
        "e_xh": sp.moments.e_xh,
    }
    return sp, cells


def _theory_row(params: SystemParams) -> dict:
    """Parameter, saddle, and theory columns for one operating point."""
    sp, cells = _saddle_cells(params)
    row = _param_cells(params)
    row.update(cells)
    bt = box_theory(params, sp)
    row.update(
        box_power=bt.power,
        box_sig_coef=bt.sig_coef,
        box_dist_std=bt.dist_std,
        box_sdnr_lb=bt.sdnr_lb,
        box_ber=bt.ber,
        box_rx_scale=bt.rx_scale,
    )
    if params.target_power == 1.0:
        qt = quant_theory(params, sp)
        row.update(
            quant_sig_coef=qt.sig_coef,
            quant_dist_var=qt.dist_var,
            quant_sdnr_lb=qt.sdnr_lb,
            quant_ber=qt.ber,
            quant_rx_scale=qt.rx_scale,
        )
        bu = bussgang_theory(params, sp)
        row.update(
            buss_gain=bu.gain,
            buss_resid_var=bu.resid_var,
            buss_sig_coef=bu.sig_coef,
            buss_noise_var=bu.noise_var,
            buss_ber=bu.ber,
        )
    return row


def _emp_cells(rep) -> dict:
    return {
        "emp_trials": rep.trials,
        "emp_base_seed": rep.base_seed,
        "emp_ber_box": rep.ber_box,
        "emp_ber_box_se": rep.ber_box_se,
        "emp_sdnr_lb_box": rep.sdnr_lb_box,
        "emp_sdnr_avg_box": rep.sdnr_avg_box,
        "emp_power_box": rep.power_box,
        "emp_w2_box": rep.w2_box,
        "emp_ber_quant": rep.ber_quant,
        "emp_ber_quant_se": rep.ber_quant_se,
        "emp_sdnr_lb_quant": rep.sdnr_lb_quant,
        "emp_sdnr_avg_quant": rep.sdnr_avg_quant,
        "emp_power_quant": rep.power_quant,
        "emp_w2_quant": rep.w2_quant,
    }


def _point_snr_db(cfg: ExperimentConfig, params: SystemParams) -> float:
    if cfg.target_snr_db is not None:
        return cfg.target_snr_db
    return 10.0 * math.log10(params.level**2 / params.noise_var)


def _tuned_points(cfg: ExperimentConfig, base: SystemParams):
    """Tuned (pipeline, params) rows for one sweep point, box first."""
    snr_db = _point_snr_db(cfg, base)
    out = []
    if cfg.tuned in ("box", "both"):
        res = optimize_box(base, snr_db, cfg.reg_grid)
        out.append(("box", res.params))
    if cfg.tuned in ("quantized", "both"):
        res = optimize_quant(base, snr_db, cfg.reg_grid, cfg.amp_grid)
        out.append(("quantized", res.params))
    return out


def _sweep_rows(cfg: ExperimentConfig) -> list[dict]:
    if cfg.sweep_parameter is not None:
        points = list(cfg.sweep_values or ())
    else:
        points = [None]
    rows = []
    for j, value in enumerate(points):
        where = (
            f"sweep point {j} ({cfg.sweep_parameter}={value!r})"
            if value is not None
            else "the configured point"
        )
        try:
            base = (
                replace(cfg.params, **{cfg.sweep_parameter: value})
                if value is not None
                else cfg.params
            )
            pipes = (
                _tuned_points(cfg, base)
                if cfg.tuned is not None
                else [(None, base)]
            )
            for pipeline, params in pipes:
                row = _theory_row(params)
                if pipeline is not None:
                    row["pipeline"] = pipeline
                if cfg.mode == "simulate":
                    seed = cfg.base_seed + j * cfg.trials
                    rep = run_experiment(params, cfg.trials, seed)
                    row.update(_emp_cells(rep))
                rows.append(row)
        except DomainError as exc:
            raise DomainError(f"at {where}: {exc}") from exc
        except SolverError as exc:
            raise SolverError(f"at {where}: {exc}") from exc
    return rows


def _environment() -> dict:
    """Library builds behind the emitted floats.

    Empirical cells are byte-stable only for a fixed numpy/scipy/BLAS
    build (and BLAS thread count), so the sidecar names the builds.
    Deterministic facts only: no clocks, hosts or thread counts.
    """
    env = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        # numpy < 1.26 only prints its build config.
        return env
    env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    return env


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute a validated config and return the result table."""
    meta_extra: dict = {}
    if cfg.mode == "saddle":
        _, cells = _saddle_cells(cfg.params)
        rows = [dict(_param_cells(cfg.params), **cells)]
    elif cfg.mode == "theory":
        rows = [_theory_row(cfg.params)]
    elif cfg.mode == "tune-box":
        res = optimize_box(cfg.params, cfg.target_snr_db, cfg.reg_grid)
        row = _theory_row(res.params)
        row["pipeline"] = "box"
        row["objective_ber"] = res.objective
        rows = [row]
        meta_extra["grid_trace"] = [[r, b] for r, b in res.grid_trace]
    elif cfg.mode == "tune-quant":
        res = optimize_quant(
            cfg.params, cfg.target_snr_db, cfg.reg_grid, cfg.amp_grid
        )
        row = _theory_row(res.params)
        row["pipeline"] = "quantized"
        row["objective_ber"] = res.objective
        rows = [row]
        meta_extra["grid_trace"] = [
            [[r, a], b] for (r, a), b in res.grid_trace
        ]
    else:
        rows = _sweep_rows(cfg)
    columns = tuple(c for c in ALL_COLS if any(c in r for r in rows))
    meta = {
        "schema_version": SCHEMA_VERSION,
        "generator": f"boxprec {__version__}",
        "preset": cfg.preset,
        "config": serialize_config(cfg),
        "column_semantics": {c: COLUMN_DOC[c] for c in columns},
        "n_rows": len(rows),
        "environment": _environment(),
    }
    meta.update(meta_extra)
    return RunResult(columns=columns, rows=tuple(rows), meta=meta)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    # repr of a float is the shortest string that round-trips exactly.
    return repr(float(value))


def _json_cell(value):
    if value is None or isinstance(value, (str, int)):
        return value
    value = float(value)
    if math.isfinite(value):
        return value
    # Strict JSON has no Infinity/NaN literals.
    return repr(value)


def emit_csv(rows, columns, stream) -> None:
    """Write rows as CSV; header exactly matches ``columns``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(c)) for c in columns])


def emit_json(result: RunResult, stream) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": result.meta,
        "columns": list(result.columns),
        "rows": [
            {c: _json_cell(row[c]) for c in result.columns if c in row}
            for row in result.rows
        ],
    }
    json.dump(doc, stream, indent=2)
    stream.write("\n")


def _write_result(result: RunResult, out_path: str | None, out_format: str) -> None:
    if out_format == "json":
        if out_path is None:
            emit_json(result, sys.stdout)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                emit_json(result, fh)
        return
    if out_path is None:
        emit_csv(result.rows, result.columns, sys.stdout)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        emit_csv(result.rows, result.columns, fh)
    # Column semantics ride in a sidecar so the CSV header stays plain.
    with open(out_path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(result.meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _merge_configs(base: dict, overlay: dict) -> dict:
    merged = dict(base)
    for key, value in overlay.items():
        if key == "params" and isinstance(value, dict) and isinstance(
            merged.get(key), dict
        ):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    return merged


def _load_config(args) -> ExperimentConfig:
    if args.config is None and args.preset is None:
        raise ConfigError("provide --config and/or --preset")
    preset_data = preset_config(args.preset) if args.preset else None
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        if preset_data is None:
            cfg = parse_config(text)
        else:
            try:
                user = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"line {exc.lineno}: invalid JSON: {exc.msg}"
                ) from exc
            if not isinstance(user, dict):
                raise ConfigError("config must be a JSON object")
            cfg = parse_config(
                _merge_configs(preset_data, user), preset=args.preset
            )
    else:
        cfg = parse_config(preset_data, preset=args.preset)
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_path=args.out)
    if args.fmt is not None:
        cfg = replace(cfg, out_format=args.fmt)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run(cfg)
    _write_result(result, cfg.out_path, cfg.out_format)
    return 0


def _read_table(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{":
            doc = json.load(fh)
            rows = doc.get("rows")
            if not isinstance(rows, list):
                raise ConfigError(f"{path}: no 'rows' list in JSON document")
            return rows
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        return [dict(zip(header, cells)) for cells in reader]


def _cell_float(value) -> float:
    # Accepts native numbers and the "inf"/"nan" strings emit uses.
    return float(value)


def verify_file(path: str, tol: float = 1e-12) -> list[str]:
    """Recompute each row's theory columns from its parameter columns.

    Returns human-readable mismatch descriptions; empty means the file
    is internally consistent to ``tol`` (relative above 1, absolute
    below).  Empirical and objective columns are seed-dependent and are
    not recomputed here.
    """
    problems: list[str] = []
    for i, row in enumerate(_read_table(path)):
        present = [
            c
            for c in _VERIFIABLE
            if c in row and row[c] not in (None, "")
        ]
        if not present:
            continue
        try:
            kwargs = {
                name: (
                    int(row[name])
                    if name == "n_antennas"
                    else _cell_float(row[name])
                )
                for name in PARAM_COLS
            }
        except (KeyError, ValueError) as exc:
            problems.append(f"row {i}: unreadable params ({exc})")
            continue
        try:
            expected = _theory_row(SystemParams(**kwargs))
        except (DomainError, SolverError) as exc:
            problems.append(f"row {i}: recompute failed ({exc})")
            continue
        for col in ALL_COLS:
            if col not in present:
                continue
            got = _cell_float(row[col])
            want = expected.get(col)
            if want is None:
                problems.append(f"row {i}: {col} present but not recomputable")
                continue
            if not abs(got - want) <= tol * max(1.0, abs(want)):
                problems.append(
                    f"row {i}: {col} stored {got!r} recomputed {want!r}"
                )
    return problems


def _cmd_verify(args) -> int:
    problems = verify_file(args.in_path, args.tol)
    if problems:
        for line in problems[:20]:
            print(line, file=sys.stderr)
        extra = len(problems) - 20
        if extra > 0:
            print(f"... and {extra} more", file=sys.stderr)
        return 1
    print(f"{args.in_path}: all theory columns recompute to within {args.tol}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="boxprec",
        description="asymptotic theory and Monte Carlo runner for "
        "box-constrained and one-bit precoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config or preset")
    p_run.add_argument("--config", metavar="PATH", help="JSON config file")
    p_run.add_argument(
        "--preset",
        choices=preset_names(),
        help="built-in experiment; --config overlays it when both are given",
    )
    p_run.add_argument(
        "--seed", type=int, metavar="N", help="override base_seed"
    )
    p_run.add_argument("--out", metavar="PATH", help="output file path")
    p_run.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), help="output format"
    )
    p_ver = sub.add_parser(
        "verify", help="recompute an emitted file's theory columns"
    )
    p_ver.add_argument(
        "--in", dest="in_path", required=True, metavar="PATH"
    )
    p_ver.add_argument("--tol", type=float, default=1e-12)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
