"""Seeded Monte Carlo validation of the asymptotic predictions.

Each trial draws a fresh realization (seed = ``base_seed + trial index``),
solves the box QP, quantizes, and measures error rates, per-user
distortion, transmit power, and the Wasserstein-2 distance between the
empirical distortion-symbol law and its predicted Gaussian mixture.
Aggregation is a deterministic fold in trial order, so a (params, trials,
base_seed) triple always produces the same report bit for bit in a fixed
environment.

Every trial runs with numpy's BLAS pinned to one thread, and the previous
count is restored when the pooled chunk of trials (or a serial call's
whole loop) ends, so a report does not depend on the caller's BLAS thread
setting and a serial run gives the same bytes as a pooled one.  The
thread calls are looked up in numpy's own BLAS; a build that does not
export them runs unpinned.  The pin changes process-wide BLAS state, so
serial calls made concurrently from several threads of one process are
not covered.

Trials run on one process pool per interpreter, built on the first pooled
call and reused by later calls with the same worker count.  Its workers
are spawned, not forked.  Spawned workers re-import the caller's
``__main__``: a script that runs experiments needs an ``if __name__ ==
"__main__":`` guard, or the pool fails with ``BrokenProcessPool``.  A
broken pool is dropped and rebuilt on the next call.  Each worker exits
as soon as the process that built the pool dies, so a killed caller
leaves no workers behind.

The pool size comes from the ``BOXPREC_WORKERS`` environment variable and
defaults to the number of CPUs in the process's affinity mask (the CPU
count where the platform has no affinity call), and a value that is not
an integer is a ``ConfigError``.  One worker (or one trial)
short-circuits to a serial loop in the calling process, which draws
realizations ahead on a helper thread as :func:`_run_serial` describes.

A run of several experiments, such as a simulate run's sweep in
``boxprec.cli.run``, goes through :func:`_run_jobs`: all of its trials
go to the pool as one schedule, so the workers do not wait at the end of
each experiment for its slowest trial.  Each experiment is cut into the
chunks of ``max(1, trials // (4 * workers))`` trials that a call of its
own would use, and no chunk holds trials of two experiments.  The first
error raised is that of the lowest-index failing trial of the first
failing experiment, after the earlier experiments have run; the chunks
still pending are then cancelled.  With one worker (or one trial per
experiment) the experiments run one after another through the serial
loop, and a failing one stops the
run before the next draws a realization.  :func:`run_experiment` is the
run of one experiment.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import itertools
import math
import operator
import os
import queue
import threading
import warnings
from dataclasses import dataclass, fields
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, DomainError
from .precoder import (
    PrecoderSolution,
    Realization,
    _draw,
    generate_realization,
    solve_box_qp,
)
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
    :class:`~boxprec.precoder.PrecoderSolution`: the start, trial
    gradient steps (accepted or backtracked) and active-set or
    free-block solves.
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
    err_box, sq_box, w2_box = _measure(real, sol.x_hat, box, box.dist_std)
    power_box = float(sol.x_hat @ sol.x_hat) / real.channel.shape[1]
    err_quant = sq_quant = w2_quant = None
    if quant is not None:
        err_quant, sq_quant, w2_quant = _measure(
            real, sol.x_quant, quant, math.sqrt(quant.dist_var)
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


def _measure(
    real: Realization, x: np.ndarray, theory: BoxTheory | QuantTheory, dist_std: float
) -> tuple[int, np.ndarray, float]:
    """One pipeline's error count, squared distortions and W2 distance
    when ``x`` is transmitted, measured against ``theory``'s scalings."""
    d = real.channel @ x
    det = np.where(theory.rx_scale * (d + real.noise) >= 0.0, 1.0, -1.0)
    err = int(np.sum(det != real.symbols))
    sq = (theory.rx_scale * d - real.symbols) ** 2
    return err, sq, wasserstein2_to_theory(d, real.symbols, theory.sig_coef, dist_std)


@functools.cache
def _openblas():
    """numpy's linalg extension as a ``ctypes`` library, or None.

    ``dlsym`` on it also searches the BLAS it links, so the symbols of the
    OpenBLAS that numpy's wheels bundle are found with no library path.
    """
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None


@functools.cache
def _blas_thread_calls():
    """numpy's BLAS ``(get, set)`` thread-count calls, or None if unknown.

    The names are those of the OpenBLAS that numpy's wheels bundle (see
    :func:`_openblas`).
    """
    try:
        # None, where the extension did not load, has neither attribute.
        lib = _openblas()
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except AttributeError:
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


def _trial(real: Realization, params, box, quant) -> TrialMetrics:
    """Solve and measure one drawn realization: every trial's body."""
    return empirical_metrics(real, solve_box_qp(real, params), params, box, quant)


def _run_chunk(tasks: list) -> list[TrialMetrics]:
    """A chunk of trials, each drawn, solved and measured, in order: one
    pool task, or a serial call's whole loop on one CPU."""
    # BLAS rounding depends on the thread count; one thread everywhere
    # makes serial and pooled bytes equal.
    with _one_blas_thread():
        return [
            _trial(generate_realization(params, seed), params, box, quant)
            for params, seed, box, quant in tasks
        ]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _spare_cpu() -> bool:
    """Whether this process may run on more than one CPU."""
    return _usable_cpus() > 1


def _run_serial(params, seeds: range, box, quant) -> list[TrialMetrics]:
    """Run the trials in this process, drawing up to two trials ahead.

    One helper thread draws realizations ``1 ... n-1`` in seed order into
    a ring of three channel buffers, realization ``k`` into buffer ``k %
    3``, and hands each over through a queue with room for one item.  The
    buffers are the three planes of one block allocated once per call.
    Meanwhile this thread draws realization 0 into buffer 0, so the first
    two draws run at once, then solves and measures the trials in order.  A draw's exception goes through the
    queue too and is re-raised here as it was raised.  Before this returns
    or raises, the helper is unblocked and joined.

    At the fig3 size with one BLAS thread a draw takes about 3.3-4 ms and
    a ridge-only QP plus its metrics about 2.5 ms.  With a draw time ``D``
    longer than a trial's time ``S`` the loop is bound by the helper's
    draws and takes about ``(n - 1) D + S`` for ``n`` trials, when the
    helper has a core of its own; a trial longer than a draw bounds it at
    about ``D + n S``.  A process allowed on one CPU only has nothing to
    overlap, so it runs the trials one after another on this thread, as
    one :func:`_run_chunk`.
    """
    if len(seeds) == 1 or not _spare_cpu():
        return _run_chunk([(params, seed, box, quant) for seed in seeds])
    # The draw calls no BLAS, so one pin covers the whole loop.
    with _one_blas_thread():
        # One block, not three: the next call reuses it warm, where three
        # separately freed buffers go back to the OS and fault in again.
        buffers = list(np.empty((3, params.n_users, params.n_antennas)))
        # The one slot is the buffer accounting: the helper's put(k - 1)
        # returns once this thread has taken k - 2, which it does after
        # measuring trial k - 3, so buffer k % 3 is free when draw k
        # starts (a trial's metrics keep no reference to its channel).
        handover = queue.Queue(maxsize=1)
        stop = False

        def draw_ahead() -> None:
            for k in range(1, len(seeds)):
                if stop:
                    return
                try:
                    real = _draw(params, seeds[k], buffers[k % 3])
                except BaseException as exc:
                    handover.put(exc)
                    return
                handover.put(real)

        helper = threading.Thread(
            target=draw_ahead, name="boxprec-draw-ahead", daemon=True
        )
        helper.start()
        try:
            real = _draw(params, seeds[0], buffers[0])
            results = [_trial(real, params, box, quant)]
            for _ in seeds[1:]:
                real = handover.get()
                if isinstance(real, BaseException):
                    raise real
                results.append(_trial(real, params, box, quant))
        finally:
            stop = True
            with contextlib.suppress(queue.Empty):
                handover.get_nowait()  # a helper blocked in put moves on
            helper.join()
    return results


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integer is a ``DomainError``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, _integer("workers", workers))
    env = os.environ.get("BOXPREC_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"BOXPREC_WORKERS must be an integer, got {env!r}"
            ) from None
    return _usable_cpus()


def _exit_with_parent() -> None:
    """Pool initializer: end this worker when its parent process dies.

    A parent killed outright never shuts its pool down, and its spawned
    workers would wait for tasks forever.  The parent's sentinel becomes
    ready when the parent is gone.
    """
    import multiprocessing.connection

    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


# The process-wide pool (a ProcessPoolExecutor) and its worker count,
# built on first use and guarded by the lock.
_pool = None
_pool_workers = 0
_pool_lock = threading.Lock()


@atexit.register
def _release_pool() -> None:
    """Drop the pool at exit, before interpreter teardown clears the
    lazily imported modules that its executor's finalizer still uses."""
    global _pool
    _pool = None


def _run_pooled(chunks: list, nworkers: int):
    """Yield each chunk's metrics, in chunk order, from the process-wide pool.

    The pool has ``nworkers`` workers, and each chunk is one pool task.
    Every chunk is submitted at the first step; each later step waits for
    the next chunk in order.  A chunk's first failed trial raises its
    exception when the iteration reaches that chunk, and the chunks still
    pending are then cancelled; those already running finish and are
    dropped.  The pool machinery is imported here, so serial runs never
    load it.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _pool, _pool_workers
    try:
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
            pool = _pool
            results = pool.map(_run_chunk, chunks)
        yield from results
    except BrokenProcessPool:
        with _pool_lock:
            if _pool is pool:
                _pool = None
        raise


def _report(
    results: list[TrialMetrics],
    params: SystemParams,
    box: BoxTheory,
    quant: QuantTheory | None,
    base_seed: int,
) -> EmpiricalReport:
    """Fold the per-trial metrics, in trial order, into the report."""
    trials = len(results)
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


def _run_jobs(jobs, workers: int | None = None):
    """Yield one report per ``(params, trials, base_seed)`` job, in job order.

    Each job's theory is worked out first, as :func:`run_experiment`
    does.  With one worker (or one trial per job) the jobs run one after
    another through :func:`_run_serial`, so a failing job stops the run
    before any later job draws a realization.  Otherwise every job's
    trials go to the pool as one schedule, so the workers move on to the
    next job's trials while the last ones of a job still run.  Each job
    is cut into chunks of ``max(1, trials // (4 * workers))`` trials, the
    chunks one call of its own would use, and no chunk holds trials of
    two jobs.  Each job's slice is folded in trial order.  The first
    error raised is that of the lowest-index failing trial of the first
    failing job, at the step that would yield that job's report, after
    the earlier jobs' reports; the pending chunks are cancelled then.
    """
    prepared = []
    for params, trials, base_seed in jobs:
        sp = solve_saddle(params)
        box = box_theory(params, sp)
        quant = quant_theory(params, sp) if params.target_power == 1.0 else None
        prepared.append((params, trials, base_seed, box, quant))
    nworkers = _worker_count(workers)
    if nworkers == 1 or max(job[1] for job in prepared) == 1:
        for params, trials, base_seed, box, quant in prepared:
            seeds = range(base_seed, base_seed + trials)
            results = _run_serial(params, seeds, box, quant)
            yield _report(results, params, box, quant, base_seed)
        return
    chunks = []
    for params, trials, base_seed, box, quant in prepared:
        tasks = [(params, base_seed + i, box, quant) for i in range(trials)]
        size = max(1, trials // (4 * nworkers))
        chunks += (tasks[i : i + size] for i in range(0, trials, size))
    results = itertools.chain.from_iterable(_run_pooled(chunks, nworkers))
    for params, trials, base_seed, box, quant in prepared:
        mine = list(itertools.islice(results, trials))
        yield _report(mine, params, box, quant, base_seed)


def run_experiment(
    params: SystemParams,
    trials: int,
    base_seed: int,
    workers: int | None = None,
) -> EmpiricalReport:
    """Run ``trials`` seeded realizations and aggregate the metrics.

    Trial ``i`` draws from seed ``base_seed + i``; ``trials``,
    ``base_seed`` and ``workers`` must be integers (not bools), else
    ``DomainError``.  ``workers`` (default: ``BOXPREC_WORKERS``, then the
    number of CPUs this process may run on) sets the pool size, and a
    count below 1 means 1.  With one worker or one trial the trials run
    in this process with numpy's BLAS pinned to one thread, as in the
    pool, and realizations are drawn ahead on a helper thread as
    :func:`_run_serial` describes.  Either way the report is the same
    bytes.
    """
    trials = _integer("trials", trials)
    base_seed = _integer("base_seed", base_seed)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if base_seed < 0:
        raise DomainError(f"base_seed must be >= 0, got {base_seed}")
    (report,) = _run_jobs([(params, trials, base_seed)], workers)
    return report
