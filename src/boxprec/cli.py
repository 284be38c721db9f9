"""Experiment runner: config in, machine-readable table out.

``boxprec run`` parses a JSON config (or a named preset) and emits one
CSV or JSON table.  Every mode is the same per-point pipeline, run at
each sweep value or once at the configured point: tune, saddle, theory
and Monte Carlo, each stage only where the mode asks for it.  The Monte
Carlo of all points runs last, as one pool schedule (see :func:`run`).
Every theory number in the table is a pure function of the parameter
columns in the same row, so ``boxprec verify`` can recompute and diff
an emitted file with no other state; empirical columns are
reproducible from the seed columns.

Exit codes: 0 success, 1 verify mismatch, 2 config error, 3 solver
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import platform
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from ._record import record
from .config import (
    _PARAM_FIELDS,
    SCHEMA_VERSION,
    ExperimentConfig,
    _json_object,
    parse_config,
    serialize_config,
)
from .errors import ConfigError, DomainError, SolverError
from .montecarlo import _run_jobs
from .presets import preset_config, preset_names
from .saddle import SystemParams, solve_saddle
from .theory import box_theory, bussgang_theory, quant_theory
from .tuning import _snr_db, optimize_box, optimize_quant

__all__ = [
    "RunResult",
    "emit_csv",
    "emit_json",
    "main",
    "run",
    "verify_file",
]

# The one hand-kept column table, in canonical column order.  Rows are
# built from result dataclass fields (see ``_cells``): parameter, saddle
# and moment fields bare, the rest prefixed by pipeline.
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

# Canonical column order; emitted tables keep this order filtered to the
# columns any row actually carries.
ALL_COLS = tuple(COLUMN_DOC)

# Columns the verify subcommand recomputes from the parameter columns.
_VERIFIABLE = tuple(
    c
    for c in ALL_COLS
    if c not in ("pipeline", "objective_ber", *_PARAM_FIELDS)
    and not c.startswith("emp_")
)


@record
class RunResult:
    """Table produced by :func:`run`: ordered columns, row dicts, meta."""

    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    meta: dict


def _cells(obj, prefix: str = "", skip: tuple[str, ...] = ()) -> dict:
    """Row cells ``prefix + field`` for each field of a result dataclass."""
    return {
        prefix + f.name: getattr(obj, f.name)
        for f in fields(obj)
        if f.name not in skip
    }


def _saddle_row(params: SystemParams):
    """Parameter, saddle and moment columns for one operating point."""
    sp = solve_saddle(params)
    row = _cells(params)
    row.update(_cells(sp, skip=("moments", "evaluations")))
    row.update(_cells(sp.moments))
    return sp, row


def _theory_row(params: SystemParams) -> dict:
    """Parameter, saddle, and theory columns for one operating point."""
    sp, row = _saddle_row(params)
    row.update(_cells(box_theory(params, sp), "box_"))
    if params.target_power == 1.0:
        row.update(_cells(quant_theory(params, sp), "quant_"))
        row.update(_cells(bussgang_theory(params, sp), "buss_"))
    return row


def _environment() -> dict:
    """Builds behind the emitted floats.

    Empirical cells are byte-stable only for a fixed Python, numpy and
    BLAS build, so the sidecar names them: the W2 quantiles come from
    Python's ``statistics`` module, and trials pin numpy's BLAS to one
    thread, so its thread count matters only for a BLAS that cannot be
    pinned.
    Deterministic facts only: no clocks, hosts or thread counts.
    """
    env = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        # numpy < 1.26 only prints its build config.
        return env
    env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    return env


@contextlib.contextmanager
def _at(where: str):
    """Name the operating point in a DomainError or SolverError raised inside."""
    try:
        yield
    except DomainError as exc:
        raise DomainError(f"at {where}: {exc}") from exc
    except SolverError as exc:
        raise SolverError(f"at {where}: {exc}") from exc


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute a validated config and return the result table.

    Every mode is one pipeline run at each operating point (each sweep
    value, or the configured point): tune each pipeline, then the saddle
    or theory row.  In simulate mode every row is built first, and then
    the Monte Carlo of all rows runs as one schedule on the process pool
    (see :mod:`boxprec.montecarlo`), in chunks no longer than a
    per-point run's, and fills the ``emp_*`` cells in point order.
    Errors come as a point-by-point run would raise them: a failing
    trial raises at the first failing point, after the points before it
    have run, as ``at sweep point j (...)``; a tuning or theory error at
    point j is raised once the Monte Carlo of the rows before it has run
    without error.
    """
    tuning = cfg.mode.startswith("tune-")
    tuned = {"tune-box": "box", "tune-quant": "quantized"}.get(cfg.mode, cfg.tuned)
    pipelines = ("box", "quantized") if tuned == "both" else (tuned,)
    points = cfg.sweep_values if cfg.sweep_parameter is not None else (None,)
    rows = []
    # (job, row, where) per simulated row, in point order.
    sims = []
    meta_extra: dict = {}
    failure = None
    for j, value in enumerate(points):
        if value is None:
            where = "the configured point"
        else:
            where = f"sweep point {j} ({cfg.sweep_parameter}={value!r})"
        try:
            with _at(where):
                base = cfg.params
                if value is not None:
                    base = replace(base, **{cfg.sweep_parameter: value})
                results = [None]
                if tuned is not None:
                    snr_db = cfg.target_snr_db
                    if snr_db is None:
                        snr_db = _snr_db(base.level, base.noise_var)
                    results = [
                        optimize_box(base, snr_db, cfg.reg_grid) if p == "box"
                        else optimize_quant(base, snr_db, cfg.reg_grid, cfg.amp_grid)
                        for p in pipelines
                    ]
                for pipeline, res in zip(pipelines, results):
                    params = base if res is None else res.params
                    if cfg.mode == "saddle":
                        row = _saddle_row(params)[1]
                    else:
                        row = _theory_row(params)
                    if pipeline is not None:
                        row["pipeline"] = pipeline
                    if tuning:
                        row["objective_ber"] = res.objective
                        meta_extra["grid_trace"] = res.grid_trace
                    if cfg.mode == "simulate":
                        seed = cfg.base_seed + j * cfg.trials
                        sims.append(((params, cfg.trials, seed), row, where))
                    rows.append(row)
        except (DomainError, SolverError) as exc:
            failure = exc
            break
    reports = _run_jobs([job for job, _, _ in sims])
    for _, row, where in sims:
        with _at(where):
            rep = next(reports)
        row.update(_cells(rep, "emp_"))
    if failure is not None:
        raise failure
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


def _strict(value):
    """``value`` with each non-finite float as its repr, for strict JSON.

    Strict JSON has no Infinity/NaN literals.  ``parse_config`` reads
    ``"inf"`` back, and ``verify`` reads ``"inf"`` and ``"nan"``.
    """
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def _dump_json(value, stream, **kwargs) -> None:
    json.dump(_strict(value), stream, indent=2, allow_nan=False, **kwargs)
    stream.write("\n")


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
            {c: row[c] for c in result.columns if c in row}
            for row in result.rows
        ],
    }
    _dump_json(doc, stream)


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
        _dump_json(result.meta, fh, sort_keys=True)


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
            cfg = parse_config(
                _merge_configs(preset_data, _json_object(text)), preset=args.preset
            )
    else:
        cfg = parse_config(preset_data, preset=args.preset)
    if args.seed is not None:
        # The flag bypasses parse_config, so it gets the same check.
        if args.seed < 0:
            raise ConfigError(f"--seed: base_seed must be nonnegative, got {args.seed}")
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
            try:
                rows = json.load(fh).get("rows")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from None
            if not isinstance(rows, list) or not all(
                isinstance(r, dict) for r in rows
            ):
                raise ConfigError(f"{path}: no 'rows' list of objects in JSON document")
            return rows
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        return [dict(zip(header, cells)) for cells in reader]


# The theory columns verify_file recomputes, by prefix, and the kernel
# that gives them.
_THEORY = (("box_", box_theory), ("quant_", quant_theory), ("buss_", bussgang_theory))


def verify_file(path: str, tol: float = 1e-12) -> list[str]:
    """Recompute each row's saddle and theory columns from its parameter
    columns, each kernel only where the row holds its columns.

    Returns human-readable mismatch descriptions; empty means the file
    is internally consistent to ``tol`` (relative above 1, absolute
    below).  Empirical and objective columns are seed-dependent and are
    not recomputed here.  Every emitted row carries saddle columns, so a
    table with no theory cell at all is not an emitted table and raises
    ConfigError.  So does a ``tol`` that is not a finite nonnegative
    number: NaN would fail every cell and inf pass any.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"tol must be finite and nonnegative, got {tol!r}")
    table = [
        (row, [c for c in _VERIFIABLE if row.get(c) not in (None, "")])
        for row in _read_table(path)
    ]
    if not any(present for _, present in table):
        raise ConfigError(f"{path}: no theory columns to verify")
    problems: list[str] = []
    for i, (row, present) in enumerate(table):
        if not present:
            problems.append(f"row {i}: no theory columns")
            continue
        try:
            # float() also reads the "inf"/"nan" strings emit writes.
            kwargs = {
                name: int(row[name]) if name == "n_antennas" else float(row[name])
                for name in _PARAM_FIELDS
            }
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"row {i}: unreadable params ({exc})")
            continue
        try:
            # Only the columns the row holds: a saddle row has no theory
            # cell, and its point may be one box_theory refuses.
            params = SystemParams(**kwargs)
            sp, expected = _saddle_row(params)
            for prefix, kernel in _THEORY:
                if any(c.startswith(prefix) for c in present):
                    expected.update(_cells(kernel(params, sp), prefix))
        except (DomainError, SolverError) as exc:
            problems.append(f"row {i}: recompute failed ({exc})")
            continue
        for col in present:
            want = expected.get(col)
            if want is None:
                problems.append(f"row {i}: {col} present but not recomputable")
                continue
            try:
                got = float(row[col])
            except (TypeError, ValueError):
                problems.append(f"row {i}: {col} unreadable {row[col]!r}")
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
