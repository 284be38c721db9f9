"""One benchmark workload, run by ``run.py`` in a fresh interpreter.

The runner strips the worker and BLAS thread variables from the
environment and points ``PYTHONPATH`` at the checkout's ``src``, so the
library runs under its own defaults.  This process imports the library,
makes one warm-up call, builds its inputs from ``--seed`` and repeats
passes over them until ``--seconds`` have gone by.  Every call is
checked; a call that raises or fails a check counts as failed.

Untraced runs (``--trace 0``) time whole passes and the end-to-end parts
of a pass.  Traced runs replay each pass as separate calls into the
library's public functions, with a span around each; they alternate
passes with span recording on and off so the recording's own cost shows
as ``trace.overhead_frac``.

``--probe`` only imports and warms up, then prints ``ready``: the runner
times that to get ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import fields, replace

import numpy as np

from boxprec import (
    SystemParams,
    box_theory,
    bussgang_theory,
    clip_moments,
    empirical_metrics,
    generate_realization,
    optimize_box,
    optimize_quant,
    quant_theory,
    run_experiment,
    solve_box_qp,
    solve_saddle,
    tune_target_power,
)
from boxprec.cli import emit_csv, main as cli_main, run as cli_run, verify_file
from boxprec.config import parse_config
from boxprec.presets import FIG3_LEVEL, FIG3_REG, preset_config

from fingerprint import fingerprint
from refclock import kernel_seconds, to_reference
from spans import Tracer

# Monte Carlo draws per fig3 sweep point, in mc-serial and cli-fig3 alike,
# so that both workloads do the same precoder work.
TRIALS = 5
THEORY_ROWS = 300
RESIDUAL_TOL = 1e-9
KKT_TOL = 1e-9
VERIFY_TOL = 1e-12
# fig3 box sizes up to 1.29 are bound by APG iterations, from 2.15 on by
# the active-set polish; the split sits between them.
TIGHT_AMP = 2.0
MIN_PASSES = 3


def _ms(t0: float) -> float:
    return 1e3 * (time.perf_counter() - t0)


def _p90(values: list[float]) -> float:
    return float(np.percentile(values, 90))


def _finite_fields(obj, what: str) -> list[str]:
    bad = [
        f.name
        for f in fields(obj)
        if isinstance(getattr(obj, f.name), float)
        and not math.isfinite(getattr(obj, f.name))
    ]
    return [f"{what}: non-finite {', '.join(bad)}"] if bad else []


def _saddle_residual(sp) -> float:
    return max(abs(sp.residual_power), abs(sp.residual_beta))


def _saddle_problems(sp) -> list[str]:
    r = _saddle_residual(sp)
    return [] if r <= RESIDUAL_TOL else [f"saddle residual {r:.3e} > {RESIDUAL_TOL}"]


def _fig_params(name: str) -> SystemParams:
    return SystemParams(**preset_config(name)["params"])


class Ledger:
    """Counts attempted calls and the ones that raised or failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, what: str, fn, *args) -> None:
        """Call ``fn(*args)``, which returns the problems it found."""
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception as exc:  # a failing call is counted; the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")


class Workload:
    """A named set of inputs, the passes over them and their checks."""

    name = ""
    # The reference kernel runs on one core.  A pass that keeps every core
    # busy is not described by it and is reported in plain seconds.
    one_core = True

    def __init__(self, seed: int, ledger: Ledger, tracer: Tracer, tmp: str) -> None:
        self.seed = seed
        self.ledger = ledger
        self.tracer = tracer
        self.tmp = tmp
        self.samples: dict[str, list[float]] = {}

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    @staticmethod
    def warm_up() -> None:
        raise NotImplementedError

    def run_pass(self) -> None:
        raise NotImplementedError

    def traced_pass(self) -> None:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks made once after the untraced passes, outside the timing."""

    def e2e_metrics(self, wall_s: float) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------- theory-tune


def _theory_row(p: SystemParams):
    sp = solve_saddle(p)
    return sp, box_theory(p, sp), quant_theory(p, sp), bussgang_theory(p, sp)


def _row_problems(sp, box, quant, buss) -> list[str]:
    problems = _saddle_problems(sp)
    for obj, what in ((box, "box"), (quant, "quant"), (buss, "bussgang")):
        problems += _finite_fields(obj, what)
    return problems


class TheoryTune(Workload):
    """Seeded theory grid, then the fig3 and fig2 tuning searches."""

    name = "theory-tune"
    SNR_DB = 5.0

    def __init__(self, *a) -> None:
        super().__init__(*a)
        rng = np.random.default_rng(self.seed)
        lo_amp, hi_amp = math.log10(0.05), math.log10(20.0)
        self.grid = []
        for _ in range(THEORY_ROWS):
            user_ratio = float(rng.uniform(0.05, 2.0))
            reg = float(10.0 ** rng.uniform(-3.0, 2.0))
            amp = float(10.0 ** rng.uniform(lo_amp, hi_amp))
            if rng.random() < 0.1:
                amp = math.inf
            self.grid.append(
                SystemParams(user_ratio=user_ratio, reg=reg, amp=amp, noise_var=0.09)
            )
        # optimize_quant at the point that froze FIG3_REG / FIG3_LEVEL, and
        # optimize_box at the fig2 point on its default reg grid.
        self.quant_base = _fig_params("fig3")
        self.box_base = _fig_params("fig2")

    @staticmethod
    def warm_up() -> None:
        _theory_row(_fig_params("fig3"))

    def _row(self, p: SystemParams) -> list[str]:
        t0 = time.perf_counter()
        out = _theory_row(p)
        self.sample("point_ms", _ms(t0))
        return _row_problems(*out)

    def _tune_quant(self) -> list[str]:
        t0 = time.perf_counter()
        res = optimize_quant(self.quant_base, self.SNR_DB)
        self.sample("tune_quant_s", time.perf_counter() - t0)
        return self._quant_problems(res)

    def _tune_box(self) -> list[str]:
        t0 = time.perf_counter()
        res = optimize_box(self.box_base, self.SNR_DB)
        self.sample("tune_box_s", time.perf_counter() - t0)
        return self._box_problems(res)

    @staticmethod
    def _quant_problems(res) -> list[str]:
        got = (res.params.reg, res.params.level)
        if got != (FIG3_REG, FIG3_LEVEL):
            return [f"optimum (reg, level) = {got}, presets freeze {(FIG3_REG, FIG3_LEVEL)}"]
        return []

    def _box_problems(self, res) -> list[str]:
        sp = solve_saddle(res.params)
        power = box_theory(res.params, sp).power
        want = self.box_base.noise_var * 10.0 ** (self.SNR_DB / 10.0)
        problems = _saddle_problems(sp)
        if not abs(power - want) <= 1e-8:
            problems.append(f"tuned power {power!r} misses {want!r}")
        if not math.isfinite(res.objective):
            problems.append(f"objective {res.objective!r}")
        return problems

    def run_pass(self) -> None:
        for p in self.grid:
            self.ledger.run("theory row", self._row, p)
        self.ledger.run("optimize_quant", self._tune_quant)
        self.ledger.run("optimize_box", self._tune_box)

    def _traced_row(self, p: SystemParams) -> list[str]:
        tr = self.tracer
        with tr.span("theory.row"):
            with tr.span("saddle.solve_saddle") as a:
                sp = solve_saddle(p)
            a["residual"] = _saddle_residual(sp)
            with tr.span("moments.clip_moments"):
                clip_moments(sp.alpha, p.amp)
            with tr.span("theory.box_theory"):
                box = box_theory(p, sp)
            with tr.span("theory.quant_theory"):
                quant = quant_theory(p, sp)
            with tr.span("theory.bussgang_theory"):
                buss = bussgang_theory(p, sp)
        return _row_problems(sp, box, quant, buss)

    def _traced_quant(self) -> list[str]:
        with self.tracer.span("tuning.optimize_quant") as a:
            res = optimize_quant(self.quant_base, self.SNR_DB)
        a["grid_points"] = len(res.grid_trace)
        a["infeasible"] = sum(1 for _, ber in res.grid_trace if math.isnan(ber))
        return self._quant_problems(res)

    def _traced_box(self) -> list[str]:
        tr = self.tracer
        with tr.span("tuning.optimize_box") as a:
            res = optimize_box(self.box_base, self.SNR_DB)
        a["grid_points"] = len(res.grid_trace)
        a["infeasible"] = sum(1 for _, ber in res.grid_trace if math.isnan(ber))
        problems = self._box_problems(res)
        # Replay the power control at each feasible grid point; the
        # infeasible ones are so by design of the grid.
        power = self.box_base.noise_var * 10.0 ** (self.SNR_DB / 10.0)
        for reg, ber in res.grid_trace:
            if math.isnan(ber):
                continue
            with tr.span("tuning.tune_target_power") as a:
                tuned = tune_target_power(replace(self.box_base, reg=reg), power)
            a["evals"] = len(tuned.grid_trace)
        return problems

    def traced_pass(self) -> None:
        for p in self.grid:
            self.ledger.run("theory row", self._traced_row, p)
        self.ledger.run("optimize_quant", self._traced_quant)
        self.ledger.run("optimize_box", self._traced_box)

    def e2e_metrics(self, wall_s: float) -> dict:
        s = self.samples
        return {
            "point_ms.p50": (statistics.median(s["point_ms"]), "ms", len(s["point_ms"])),
            "point_ms.p90": (_p90(s["point_ms"]), "ms", len(s["point_ms"])),
            "tune_quant_s": (statistics.median(s["tune_quant_s"]), "s", len(s["tune_quant_s"])),
            "tune_box_s": (statistics.median(s["tune_box_s"]), "s", len(s["tune_box_s"])),
        }


# ------------------------------------------------------- mc-serial, cli-fig3


def _fig3_points(base_seed: int) -> list[tuple[SystemParams, int]]:
    """The fig3 sweep with its per-point seeds, numbered as the CLI does."""
    data = preset_config("fig3")
    base = SystemParams(**data["params"])
    return [
        (replace(base, amp=amp), base_seed + j * TRIALS)
        for j, amp in enumerate(data["sweep"]["values"])
    ]


def _mc_warm_up() -> None:
    p = _fig_params("fig3")
    solve_box_qp(generate_realization(p, 0), p)


def _report_problems(rep, seed: int) -> list[str]:
    problems = _finite_fields(rep, "report")
    if (rep.trials, rep.base_seed) != (TRIALS, seed):
        problems.append(f"report for {rep.trials} trials from seed {rep.base_seed}")
    if rep.ber_quant is None:
        problems.append("report lacks the quantized pipeline")
    return problems


class MonteCarloSerial(Workload):
    """``run_experiment(..., workers=1)`` at the ten fig3 points."""

    name = "mc-serial"

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.points = _fig3_points(1000 * self.seed)
        self.reference: dict[int, object] = {}

    warm_up = staticmethod(_mc_warm_up)

    def _point(self, j: int, p: SystemParams, seed: int) -> list[str]:
        t0 = time.perf_counter()
        rep = run_experiment(p, TRIALS, seed, workers=1)
        self.sample("point_ms", _ms(t0))
        problems = _report_problems(rep, seed)
        if rep != self.reference.setdefault(j, rep):
            problems.append("report differs from the first pass on the same seeds")
        return problems

    def run_pass(self) -> None:
        for j, (p, seed) in enumerate(self.points):
            self.ledger.run("run_experiment", self._point, j, p, seed)

    def _replay(self, p: SystemParams, seed: int) -> list[str]:
        """The steps of one serial sweep point as separate calls."""
        tr = self.tracer
        with tr.span("saddle.solve_saddle") as a:
            sp = solve_saddle(p)
        a["residual"] = _saddle_residual(sp)
        problems = _saddle_problems(sp)
        with tr.span("theory.box_theory"):
            box = box_theory(p, sp)
        with tr.span("theory.quant_theory"):
            quant = quant_theory(p, sp)
        for i in range(TRIALS):
            with tr.span("precoder.generate_realization"):
                real = generate_realization(p, seed + i)
            with tr.span("precoder.solve_box_qp", amp=p.amp) as a:
                sol = solve_box_qp(real, p)
            a["iterations"] = sol.iterations
            a["kkt"] = sol.kkt_residual
            if not sol.kkt_residual < KKT_TOL:
                problems.append(f"trial {seed + i}: KKT residual {sol.kkt_residual:.3e}")
            with tr.span("montecarlo.empirical_metrics"):
                empirical_metrics(real, sol, p, box, quant)
        return problems

    def _traced_point(self, p: SystemParams, seed: int) -> list[str]:
        tr = self.tracer
        with tr.span("mc.point", amp=p.amp):
            with tr.span("montecarlo.run_experiment.serial"):
                rep = run_experiment(p, TRIALS, seed, workers=1)
            return _report_problems(rep, seed) + self._replay(p, seed)

    def traced_pass(self) -> None:
        for p, seed in self.points:
            self.ledger.run("run_experiment", self._traced_point, p, seed)

    def final_checks(self) -> None:
        # Every trial's QP must meet the KKT tolerance; run_experiment does
        # not return the residuals, so solve each trial once more.
        for p, seed in self.points:
            self.ledger.run("trial replay", self._replay, p, seed)

    def e2e_metrics(self, wall_s: float) -> dict:
        s = self.samples["point_ms"]
        return {
            "point_ms.p50": (statistics.median(s), "ms", len(s)),
            "point_ms.p90": (_p90(s), "ms", len(s)),
            "trials_per_s": (len(self.points) * TRIALS / wall_s, "1/s", None),
        }


class CliFig3(Workload):
    """``boxprec run --preset fig3`` with fewer trials, then ``verify``."""

    name = "cli-fig3"
    one_core = False

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.base_seed = 1000 * self.seed
        self.overlay = os.path.join(self.tmp, "overlay.json")
        with open(self.overlay, "w", encoding="utf-8") as fh:
            json.dump({"trials": TRIALS}, fh)
        self.csv = os.path.join(self.tmp, "fig3.csv")
        self.replay_csv = os.path.join(self.tmp, "fig3-replay.csv")
        self.first: dict[str, bytes] = {}

    @staticmethod
    def warm_up() -> None:
        parse_config(preset_config("fig3"), preset="fig3")
        _mc_warm_up()

    def _same_bytes(self, path: str) -> list[str]:
        with open(path, "rb") as fh:
            data = fh.read()
        if data != self.first.setdefault(path, data):
            return [f"{os.path.basename(path)} differs from the first pass"]
        return []

    def _cli_run(self) -> list[str]:
        argv = ["run", "--preset", "fig3", "--config", self.overlay,
                "--seed", str(self.base_seed), "--out", self.csv]
        rc = cli_main(argv)
        if rc != 0:
            return [f"exit code {rc}"]
        return self._same_bytes(self.csv) + self._same_bytes(self.csv + ".meta.json")

    def _cli_verify(self) -> list[str]:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["verify", "--in", self.csv])
        return [] if rc == 0 else [f"exit code {rc}"]

    def run_pass(self) -> None:
        self.ledger.run("boxprec run", self._cli_run)
        self.ledger.run("boxprec verify", self._cli_verify)

    def _replay_run(self) -> list[str]:
        """``boxprec run`` and ``verify`` as separate library calls."""
        tr = self.tracer
        data = preset_config("fig3")
        data["trials"] = TRIALS
        data["base_seed"] = self.base_seed
        data["output"]["path"] = self.replay_csv
        with tr.span("config.parse_config"):
            cfg = parse_config(data, preset="fig3")
        with tr.span("cli.run"):
            result = cli_run(cfg)
        with tr.span("cli.emit_csv"):
            with open(self.replay_csv, "w", encoding="utf-8", newline="") as fh:
                emit_csv(result.rows, result.columns, fh)
        with tr.span("cli.verify_file") as a:
            problems = verify_file(self.replay_csv, VERIFY_TOL)
        a["problems"] = len(problems)
        return problems[:1] + self._same_bytes(self.replay_csv)

    def _pool_point(self, p: SystemParams, seed: int) -> list[str]:
        tr = self.tracer
        with tr.span("montecarlo.run_experiment.pooled"):
            pooled = run_experiment(p, TRIALS, seed)
        with tr.span("montecarlo.run_experiment.serial"):
            serial = run_experiment(p, TRIALS, seed, workers=1)
        return _report_problems(pooled, seed) + _report_problems(serial, seed)

    def traced_pass(self) -> None:
        self.ledger.run("fig3 replay", self._replay_run)
        for p, seed in _fig3_points(self.base_seed):
            self.ledger.run("run_experiment", self._pool_point, p, seed)

    def _check_csv(self) -> list[str]:
        problems = verify_file(self.csv, VERIFY_TOL)[:1]
        with open(self.csv, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 10 or any(r["emp_trials"] != str(TRIALS) for r in rows):
            problems.append(f"{len(rows)} rows, emp_trials not all {TRIALS}")
        worst = max(
            abs(float(r[c])) for r in rows for c in ("residual_power", "residual_beta")
        )
        if not worst <= RESIDUAL_TOL:
            problems.append(f"saddle residual {worst:.3e} in the CSV")
        return problems

    def final_checks(self) -> None:
        self.ledger.run("fig3 csv", self._check_csv)

    def e2e_metrics(self, wall_s: float) -> dict:
        return {"trials_per_s": (10 * TRIALS / wall_s, "1/s", None)}


WORKLOADS = {w.name: w for w in (TheoryTune, MonteCarloSerial, CliFig3)}


# ------------------------------------------------------------ per-layer


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def layer_metrics(recorded: list[dict], passes: list[int], workers: int) -> dict:
    """Per-layer metrics from the spans of the traced passes.

    A layer the workload does not call reads 0.  Busy times are the
    median over traced passes of the per-pass total; per-call times pool
    the spans of every traced pass.
    """

    def spans(*names):
        return [s for s in recorded if s["name"] in names]

    def busy(*names):
        per_pass = dict.fromkeys(passes, 0.0)
        for s in spans(*names):
            per_pass[s["pass"]] += _dur(s)
        return statistics.median(per_pass.values())

    def pct(name, q, scale, where=lambda s: True):
        d = [scale * _dur(s) for s in spans(name) if where(s)]
        return float(np.percentile(d, q)) if d else 0.0

    def calls(name):
        return sum(1 for s in spans(name) if s["pass"] == passes[0])

    def attr_max(name, key):
        return max((s["attrs"][key] for s in spans(name)), default=0)

    def first_attr(name, key):
        return next((s["attrs"][key] for s in spans(name)), 0)

    qp = spans("precoder.solve_box_qp")
    iters = [s["attrs"]["iterations"] for s in qp]
    per_pass_iters = sum(s["attrs"]["iterations"] for s in qp if s["pass"] == passes[0])
    ttp = [s["attrs"]["evals"] for s in spans("tuning.tune_target_power")]

    overhead = []
    for pid in passes:
        if any(s["pass"] == pid for s in spans("precoder.generate_realization")):
            own = [s for s in recorded if s["pass"] == pid]
            whole = sum(_dur(s) for s in own if s["name"] == "montecarlo.run_experiment.serial")
            parts = sum(
                _dur(s) for s in own
                if s["name"] in ("precoder.generate_realization",
                                 "precoder.solve_box_qp",
                                 "montecarlo.empirical_metrics")
            )
            overhead.append(whole - parts)
    serial_busy = busy("montecarlo.run_experiment.serial")
    pooled_busy = busy("montecarlo.run_experiment.pooled")

    return {
        "moments.clip_moments.calls": calls("moments.clip_moments"),
        "moments.clip_moments.us.p50": pct("moments.clip_moments", 50, 1e6),
        "saddle.solve_saddle.calls": calls("saddle.solve_saddle"),
        "saddle.solve_saddle.ms.p50": pct("saddle.solve_saddle", 50, 1e3),
        "saddle.solve_saddle.ms.p90": pct("saddle.solve_saddle", 90, 1e3),
        "saddle.solve_saddle.busy_s": busy("saddle.solve_saddle"),
        "saddle.residual.max": attr_max("saddle.solve_saddle", "residual"),
        "theory.box_theory.us.p50": pct("theory.box_theory", 50, 1e6),
        "theory.quant_theory.us.p50": pct("theory.quant_theory", 50, 1e6),
        "theory.bussgang_theory.us.p50": pct("theory.bussgang_theory", 50, 1e6),
        "theory.busy_s": busy(
            "theory.box_theory", "theory.quant_theory", "theory.bussgang_theory"
        ),
        "tuning.optimize_quant.grid_points": first_attr("tuning.optimize_quant", "grid_points"),
        "tuning.optimize_quant.infeasible": first_attr("tuning.optimize_quant", "infeasible"),
        "tuning.optimize_box.grid_points": first_attr("tuning.optimize_box", "grid_points"),
        "tuning.optimize_box.infeasible": first_attr("tuning.optimize_box", "infeasible"),
        "tuning.tune_target_power.ms.p50": pct("tuning.tune_target_power", 50, 1e3),
        "tuning.tune_target_power.evals.mean": sum(ttp) / len(ttp) if ttp else 0.0,
        "precoder.generate_realization.ms.p50": pct("precoder.generate_realization", 50, 1e3),
        "precoder.solve_box_qp.calls": calls("precoder.solve_box_qp"),
        "precoder.solve_box_qp.busy_s": busy("precoder.solve_box_qp"),
        "precoder.solve_box_qp.tight.ms.p50": pct(
            "precoder.solve_box_qp", 50, 1e3, lambda s: s["attrs"]["amp"] < TIGHT_AMP
        ),
        "precoder.solve_box_qp.loose.ms.p50": pct(
            "precoder.solve_box_qp", 50, 1e3, lambda s: s["attrs"]["amp"] >= TIGHT_AMP
        ),
        "precoder.solve_box_qp.ms.p90": pct("precoder.solve_box_qp", 90, 1e3),
        "precoder.solve_box_qp.iterations.total": per_pass_iters,
        "precoder.solve_box_qp.iterations.max": max(iters, default=0),
        "precoder.solve_box_qp.us_per_iter": (
            1e6 * sum(_dur(s) for s in qp) / sum(iters) if sum(iters) else 0.0
        ),
        "precoder.solve_box_qp.kkt.max": attr_max("precoder.solve_box_qp", "kkt"),
        "montecarlo.empirical_metrics.ms.p50": pct("montecarlo.empirical_metrics", 50, 1e3),
        "montecarlo.run_experiment.serial.busy_s": serial_busy,
        "montecarlo.run_experiment.overhead_s": (
            statistics.median(overhead) if overhead else 0.0
        ),
        "montecarlo.run_experiment.pooled.busy_s": pooled_busy,
        "montecarlo.pool.workers": workers,
        "montecarlo.pool.efficiency": (
            serial_busy / (workers * pooled_busy) if pooled_busy else 0.0
        ),
        "config.parse_config.ms": pct("config.parse_config", 50, 1e3),
        "cli.run.busy_s": busy("cli.run"),
        "cli.emit_csv.ms": pct("cli.emit_csv", 50, 1e3),
        "cli.verify_file.ms": pct("cli.verify_file", 50, 1e3),
        "cli.verify_file.problems": attr_max("cli.verify_file", "problems"),
    }


# Per-layer counts that must repeat exactly between passes and runs on the
# same seed, code and fingerprint.
EXACT_COUNTS = (
    "moments.clip_moments.calls",
    "saddle.solve_saddle.calls",
    "tuning.optimize_quant.grid_points",
    "tuning.optimize_quant.infeasible",
    "tuning.optimize_box.grid_points",
    "tuning.optimize_box.infeasible",
    "tuning.tune_target_power.evals.mean",
    "precoder.solve_box_qp.calls",
    "precoder.solve_box_qp.iterations.total",
    "precoder.solve_box_qp.iterations.max",
    "cli.verify_file.problems",
)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; pool workers count once reaped.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _measure(wl: Workload, seconds: float, trace: bool) -> dict:
    tracer = wl.tracer
    walls: list[float] = []
    kernels: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        if not trace:
            kernels.append(kernel_seconds())
            t0 = time.perf_counter()
            wl.run_pass()
            walls.append(time.perf_counter() - t0)
            done = len(walls) >= MIN_PASSES
        else:
            # Alternate recorded and unrecorded passes of the same replay.
            tracer.enabled = len(traced) <= len(walls)
            if tracer.enabled:
                tracer.pass_id += 1
            t0 = time.perf_counter()
            wl.traced_pass()
            (traced if tracer.enabled else walls).append(time.perf_counter() - t0)
            tracer.enabled = False
            done = len(traced) >= 2 and len(walls) >= 1
        if done and time.perf_counter() >= deadline:
            break
    if not trace:
        wl.final_checks()
    return {"walls": walls, "kernels": kernels, "traced_walls": traced}


def _traced_counts(tracer: Tracer, passes: list[int], workers: int) -> list[dict]:
    """The exact counts of each traced pass on its own."""
    out = []
    for pid in passes:
        own = [s for s in tracer.spans if s["pass"] == pid]
        m = layer_metrics(own, [pid], workers)
        out.append({k: m[k] for k in EXACT_COUNTS})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp")
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]
    if args.probe:
        cls.warm_up()
        print("ready", flush=True)
        return 0

    fp = fingerprint()
    ledger = Ledger()
    wl = cls(args.seed, ledger, Tracer(), args.tmp)
    cls.warm_up()
    runs = _measure(wl, args.seconds, bool(args.trace))
    wall_s = statistics.median(runs["walls"])
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fp,
        "library": os.path.dirname(sys.modules["boxprec"].__file__),
        "passes": len(runs["walls"]),
        "pass_walls": runs["walls"],
        "pass_kernels": runs["kernels"],
        "samples": wl.samples,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems[:20],
    }
    if not args.trace:
        metrics = {
            "wall_ref_s": (
                to_reference(list(zip(runs["walls"], runs["kernels"])))
                if wl.one_core else wall_s,
                "s",
                len(runs["walls"]),
            ),
            "wall_s": (wall_s, "s", len(runs["walls"])),
            "ref_kernel_s": (statistics.median(runs["kernels"]), "s", len(runs["kernels"])),
            "peak_rss_mb": (_peak_rss_mb(), "MB", None),
        }
        metrics.update(wl.e2e_metrics(wall_s))
        result["metrics"] = {
            k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()
        }
    else:
        passes = sorted({s["pass"] for s in wl.tracer.spans})
        layers = layer_metrics(wl.tracer.spans, passes, fp["workers"])
        layers["trace.overhead_frac"] = (
            statistics.median(runs["traced_walls"]) / wall_s - 1.0
        )
        result["traced_passes"] = len(runs["traced_walls"])
        result["layers"] = layers
        result["counts"] = _traced_counts(wl.tracer, passes, fp["workers"])
        if args.spans:
            wl.tracer.write_jsonl(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
