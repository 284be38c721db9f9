"""Seeded Monte Carlo validation of the asymptotic predictions.

Each trial draws a fresh realization (seed = ``base_seed + trial index``),
solves the box QP, quantizes, and measures error rates, per-user
distortion, transmit power, and the Wasserstein-2 distance between the
empirical distortion-symbol law and its predicted Gaussian mixture.
Aggregation is a deterministic fold in trial order, so a (params, trials,
base_seed) triple always produces the same report bit for bit in a fixed
environment.

Every trial runs with numpy's BLAS pinned to one thread, and the previous
count is restored when the trial ends, so a report does not depend on the
caller's BLAS thread setting and a serial run gives the same bytes as a
pooled one.  The thread calls are looked up in numpy's own BLAS; a build
that does not export them runs unpinned.  The pin changes
process-wide BLAS state, so serial calls made concurrently from several
threads of one process are not covered.

Trials run on one process pool per interpreter, built on the first pooled
call and reused by later calls with the same worker count.  Its workers
are spawned, not forked.  Spawned workers re-import the caller's
``__main__``: a script that runs experiments needs an ``if __name__ ==
"__main__":`` guard, or the pool fails with ``BrokenProcessPool``.  A
broken pool is dropped and rebuilt on the next call.  Each worker exits
as soon as the process that built the pool dies, so a killed caller
leaves no workers behind.

The pool size comes from the ``BOXPREC_WORKERS`` environment variable and
defaults to the available parallelism; one worker (or one trial)
short-circuits to a serial loop in the calling process, and a value that
is not an integer is a ``ConfigError``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import multiprocessing
import multiprocessing.connection
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, DomainError
from .precoder import PrecoderSolution, Realization, generate_realization, solve_box_qp
from .saddle import SystemParams, solve_saddle
from .theory import BoxTheory, QuantTheory, box_theory, quant_theory

__all__ = [
    "EmpiricalReport",
    "TrialMetrics",
    "empirical_metrics",
    "run_experiment",
    "wasserstein2_to_theory",
]


@dataclass(frozen=True, slots=True)
class TrialMetrics:
    """Raw per-trial measurements (quant fields None when not evaluated).

    ``iterations`` is the box QP's work, as in
    :class:`~boxprec.precoder.PrecoderSolution`: gradient steps plus
    linear solves (the ridge start and each active-set solve).
    """

    err_box: int
    sq_box: np.ndarray
    power_box: float
    w2_box: float
    err_quant: int | None
    sq_quant: np.ndarray | None
    w2_quant: float | None
    iterations: int


@dataclass(frozen=True, slots=True)
class EmpiricalReport:
    """Aggregated Monte Carlo metrics.

    BER standard errors use the binomial formula
    ``sqrt(p (1-p) / (trials * n_users))``.  SDNR comes in two flavors:
    ``sdnr_lb_*`` pools the distortion over users before inverting (the
    quantity the theory lower-bounds), ``sdnr_avg_*`` averages per-user
    inverses and so dominates it by Jensen's inequality.  ``power_quant``
    is ``level^2`` by construction of the one-bit DAC.  Quantized fields
    are None when ``target_power != 1`` (no quantized characterization
    there).
    """

    trials: int
    base_seed: int
    ber_box: float
    ber_box_se: float
    sdnr_lb_box: float
    sdnr_avg_box: float
    power_box: float
    w2_box: float
    ber_quant: float | None
    ber_quant_se: float | None
    sdnr_lb_quant: float | None
    sdnr_avg_quant: float | None
    power_quant: float | None
    w2_quant: float | None


@functools.lru_cache(maxsize=256)
def _midpoint_normal_quantiles(k: int) -> np.ndarray:
    """Standard normal quantiles at ``(i + 1/2) / k``, read-only, memoised."""
    grid = (np.arange(k) + 0.5) / k
    out = np.fromiter(map(NormalDist().inv_cdf, grid.tolist()), float, k)
    out.flags.writeable = False
    return out


def wasserstein2_to_theory(
    values: np.ndarray,
    symbols: np.ndarray,
    mean_plus: float,
    std: float,
) -> float:
    """W2 distance from an empirical distortion-symbol law to its target.

    The target is the balanced Gaussian mixture with class means
    ``+-mean_plus`` (indexed by the symbol) and common std ``std``.  Each
    class is compared by the midpoint-quantile coupling: sorted samples
    against the class quantile function at ``(i + 1/2) / k``; the squared
    class distances are combined with the empirical class weights.  An
    empty class falls back to prior weights (1/2 each) and contributes the
    class variance ``std^2``; that degenerate case is warned about.

    The standard normal quantiles come from the standard library's
    ``statistics.NormalDist.inv_cdf``, so their last bits follow the
    Python build.  They depend on the class size alone and are memoised
    per size.
    """
    values = np.asarray(values, dtype=float)
    symbols = np.asarray(symbols, dtype=float)
    if values.shape != symbols.shape or values.ndim != 1:
        raise DomainError("values and symbols must be 1-D arrays of equal length")
    if values.size == 0:
        raise DomainError("empty sample")
    total = values.size
    empty = False
    contrib: list[tuple[float, float]] = []
    for sign in (1.0, -1.0):
        cls = np.sort(values[symbols == sign])
        k = cls.size
        if k == 0:
            empty = True
            contrib.append((0.5, std * std))
            continue
        quantiles = sign * mean_plus + std * _midpoint_normal_quantiles(k)
        contrib.append((k / total, float(np.mean((cls - quantiles) ** 2))))
    if empty:
        warnings.warn(
            "a symbol class is empty; using prior class weights", stacklevel=2
        )
        contrib = [(0.5, sq) for _, sq in contrib]
    return math.sqrt(sum(w * sq for w, sq in contrib))


def empirical_metrics(
    real: Realization,
    sol: PrecoderSolution,
    params: SystemParams,
    box: BoxTheory,
    quant: QuantTheory | None = None,
) -> TrialMetrics:
    """Measure one solved realization against the asymptotic scalings.

    Distortion observables are noise-free (``channel @ x``); receiver
    noise enters the error counts through the detected signs and the SDNR
    denominators analytically as ``rx_scale^2 * noise_var``.
    """
    channel, symbols, noise = real.channel, real.symbols, real.noise
    n = channel.shape[1]
    d_box = channel @ sol.x_hat
    det = np.where(box.rx_scale * (d_box + noise) >= 0.0, 1.0, -1.0)
    err_box = int(np.sum(det != symbols))
    sq_box = (box.rx_scale * d_box - symbols) ** 2
    w2_box = wasserstein2_to_theory(d_box, symbols, box.sig_coef, box.dist_std)
    power_box = float(sol.x_hat @ sol.x_hat) / n
    err_quant = sq_quant = w2_quant = None
    if quant is not None:
        d_q = channel @ sol.x_quant
        det_q = np.where(quant.rx_scale * (d_q + noise) >= 0.0, 1.0, -1.0)
        err_quant = int(np.sum(det_q != symbols))
        sq_quant = (quant.rx_scale * d_q - symbols) ** 2
        w2_quant = wasserstein2_to_theory(
            d_q, symbols, quant.sig_coef, math.sqrt(quant.dist_var)
        )
    return TrialMetrics(
        err_box=err_box,
        sq_box=sq_box,
        power_box=power_box,
        w2_box=w2_box,
        err_quant=err_quant,
        sq_quant=sq_quant,
        w2_quant=w2_quant,
        iterations=sol.iterations,
    )


@functools.cache
def _blas_thread_calls():
    """numpy's BLAS ``(get, set)`` thread-count calls, or None if unknown.

    ``dlsym`` on numpy's linalg extension also searches the BLAS it links,
    so no library path is needed.  The names are those of the OpenBLAS
    that numpy's wheels bundle.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's BLAS to one thread, restoring the previous count."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


def _run_trial(task) -> TrialMetrics:
    params, seed, box, quant = task
    # BLAS rounding depends on the thread count; one thread everywhere
    # makes serial and pooled bytes equal.
    with _one_blas_thread():
        real = generate_realization(params, seed)
        sol = solve_box_qp(real, params)
        return empirical_metrics(real, sol, params, box, quant)


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("BOXPREC_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"BOXPREC_WORKERS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def _exit_with_parent() -> None:
    """Pool initializer: end this worker when its parent process dies.

    A parent killed outright never shuts its pool down, and its spawned
    workers would wait for tasks forever.  The parent's sentinel becomes
    ready when the parent is gone.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


# The process-wide pool and its worker count, built on first use and
# guarded by the lock.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _run_pooled(tasks: list, nworkers: int) -> list[TrialMetrics]:
    """Run the trials on the process-wide pool of ``nworkers`` workers."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers != nworkers:
            if _pool is not None:
                _pool.shutdown()
            _pool = ProcessPoolExecutor(
                nworkers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_exit_with_parent,
            )
            _pool_workers = nworkers
        try:
            chunk = max(1, len(tasks) // (4 * nworkers))
            return list(_pool.map(_run_trial, tasks, chunksize=chunk))
        except BrokenProcessPool:
            _pool = None
            raise


def run_experiment(
    params: SystemParams,
    trials: int,
    base_seed: int,
    workers: int | None = None,
) -> EmpiricalReport:
    """Run ``trials`` seeded realizations and aggregate the metrics."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if base_seed < 0:
        raise DomainError(f"base_seed must be >= 0, got {base_seed}")
    sp = solve_saddle(params)
    box = box_theory(params, sp)
    quant = quant_theory(params, sp) if params.target_power == 1.0 else None
    tasks = [(params, base_seed + i, box, quant) for i in range(trials)]
    nworkers = _worker_count(workers)
    if nworkers == 1 or trials == 1:
        results = [_run_trial(t) for t in tasks]
    else:
        results = _run_pooled(tasks, nworkers)
    m = params.n_users
    bits = trials * m

    def pooled(kind: str, theory, power: float) -> dict:
        """The ``*_box`` or ``*_quant`` report fields of one pipeline."""
        sq = np.zeros(m)
        # A sequential fold in trial order: the emitted bytes depend on it.
        for r in results:
            sq += getattr(r, "sq_" + kind)
        sq /= trials
        ber = sum(getattr(r, "err_" + kind) for r in results) / bits
        scale2_noise = theory.rx_scale * theory.rx_scale * params.noise_var
        return {
            f"ber_{kind}": ber,
            f"ber_{kind}_se": math.sqrt(ber * (1.0 - ber) / bits),
            f"sdnr_lb_{kind}": 1.0 / (float(np.mean(sq)) + scale2_noise),
            f"sdnr_avg_{kind}": float(np.mean(1.0 / (sq + scale2_noise))),
            f"power_{kind}": power,
            f"w2_{kind}": float(np.mean([getattr(r, "w2_" + kind) for r in results])),
        }

    if quant is None:
        report_quant = dict.fromkeys(
            f.name for f in fields(EmpiricalReport) if "_quant" in f.name
        )
    else:
        report_quant = pooled("quant", quant, params.level * params.level)
    return EmpiricalReport(
        trials=trials,
        base_seed=base_seed,
        **pooled("box", box, float(np.mean([r.power_box for r in results]))),
        **report_quant,
    )
