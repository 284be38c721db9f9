import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from boxprec import (
    ConfigError,
    DomainError,
    SolverError,
    SystemParams,
    box_theory,
    generate_realization,
    quant_theory,
    run_experiment,
    solve_box_qp,
    solve_saddle,
)
from boxprec import montecarlo
from boxprec.montecarlo import _worker_count, empirical_metrics, wasserstein2_to_theory

SMALL = dict(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=200)


def test_w2_zero_against_own_quantiles():
    # Samples placed exactly at the class midpoint quantiles: distance 0.
    from scipy.special import ndtri

    k = 64
    grid = (np.arange(k) + 0.5) / k
    plus = 1.7 + 0.4 * ndtri(grid)
    minus = -1.7 + 0.4 * ndtri(grid)
    values = np.concatenate([plus, minus])
    symbols = np.concatenate([np.ones(k), -np.ones(k)])
    assert wasserstein2_to_theory(values, symbols, 1.7, 0.4) < 1e-12


def test_w2_detects_mean_shift():
    rng = np.random.default_rng(0)
    symbols = rng.choice([-1.0, 1.0], size=4000)
    values = symbols * 2.0 + rng.standard_normal(4000) * 0.3
    centered = wasserstein2_to_theory(values, symbols, 2.0, 0.3)
    shifted = wasserstein2_to_theory(values, symbols, 1.0, 0.3)
    assert centered < 0.02
    assert abs(shifted - 1.0) < 0.05


def test_w2_empty_class_warns_and_uses_prior():
    values = np.array([1.9, 2.1, 2.0])
    symbols = np.ones(3)
    with pytest.warns(UserWarning):
        d = wasserstein2_to_theory(values, symbols, 2.0, 0.5)
    # The missing class contributes its full variance at prior weight.
    assert d >= math.sqrt(0.5 * 0.25) - 1e-12


def _w2_unmemoised(values, symbols, mean_plus, std):
    """wasserstein2_to_theory's formula, quantiles computed afresh."""
    contrib = []
    for sign in (1.0, -1.0):
        cls = np.sort(values[symbols == sign])
        k = cls.size
        if k == 0:
            contrib.append((0.5, std * std))
            continue
        grid = (np.arange(k) + 0.5) / k
        normal = np.fromiter(map(NormalDist().inv_cdf, grid.tolist()), float, k)
        quantiles = sign * mean_plus + std * normal
        contrib.append((k / values.size, float(np.mean((cls - quantiles) ** 2))))
    if any(np.count_nonzero(symbols == sign) == 0 for sign in (1.0, -1.0)):
        contrib = [(0.5, sq) for _, sq in contrib]
    return math.sqrt(sum(w * sq for w, sq in contrib))


def test_w2_quantile_memo_is_bit_exact():
    # Every class size 1..m, twice, so the second pass reads the memo.
    m = 48
    rng = np.random.default_rng(3)
    values = rng.standard_normal(m)
    for _ in range(2):
        for k in range(1, m + 1):
            symbols = np.where(np.arange(m) < k, 1.0, -1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = wasserstein2_to_theory(values, symbols, 0.7, 0.3)
            assert got == _w2_unmemoised(values, symbols, 0.7, 0.3)
    cached = montecarlo._midpoint_normal_quantiles(5)
    assert cached is montecarlo._midpoint_normal_quantiles(5)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0] = 0.0


def test_w2_rejects_bad_shapes():
    with pytest.raises(DomainError):
        wasserstein2_to_theory(np.ones((2, 2)), np.ones((2, 2)), 0.0, 1.0)
    with pytest.raises(DomainError):
        wasserstein2_to_theory(np.ones(3), np.ones(4), 0.0, 1.0)
    with pytest.raises(DomainError):
        wasserstein2_to_theory(np.ones(0), np.ones(0), 0.0, 1.0)


def test_single_trial_metrics_are_consistent():
    p = SystemParams(**SMALL)
    sp = solve_saddle(p)
    box = box_theory(p, sp)
    quant = quant_theory(p, sp)
    real = generate_realization(p, 77)
    sol = solve_box_qp(real, p)
    m = empirical_metrics(real, sol, p, box, quant)
    assert 0.0 <= m.err_box <= p.n_users
    assert 0.0 <= m.err_quant <= p.n_users
    assert m.power_box == pytest.approx(float(sol.x_hat @ sol.x_hat) / p.n_antennas)
    assert m.w2_box >= 0.0 and m.w2_quant >= 0.0


def test_report_reproducible_and_seed_sensitive():
    p = SystemParams(**SMALL)
    a = run_experiment(p, trials=6, base_seed=500, workers=1)
    b = run_experiment(p, trials=6, base_seed=500, workers=1)
    c = run_experiment(p, trials=6, base_seed=501, workers=1)
    assert a == b
    assert a != c
    assert a.trials == 6 and a.base_seed == 500


def test_worker_pool_matches_serial_fold():
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=80)
    serial = run_experiment(p, trials=4, base_seed=11, workers=1)
    pooled = run_experiment(p, trials=4, base_seed=11, workers=2)
    assert serial == pooled


@pytest.fixture
def spare_cpu(monkeypatch):
    """Take the draw-ahead path whatever CPUs this process may use."""
    monkeypatch.setattr(montecarlo, "_spare_cpu", lambda: True)


def _draw_threads() -> list[threading.Thread]:
    """Live helper threads of serial runs; none may outlive a call."""
    return [t for t in threading.enumerate() if t.name == "boxprec-draw-ahead"]


@pytest.mark.parametrize("spare", [True, False])
@pytest.mark.parametrize("trials", [1, 2, 3, 4, 5, 7])
def test_serial_report_matches_a_plain_trial_loop(monkeypatch, trials, spare):
    # Counts up to 3 stop before the ring of buffers wraps, 4, 5 and 7
    # wrap onto each buffer.
    monkeypatch.setattr(montecarlo, "_spare_cpu", lambda: spare)
    p = SystemParams(**SMALL)
    sp = solve_saddle(p)
    box, quant = box_theory(p, sp), quant_theory(p, sp)
    plain = []
    for seed in range(40, 40 + trials):
        real = generate_realization(p, seed)
        plain.append(empirical_metrics(real, solve_box_qp(real, p), p, box, quant))
    expected = montecarlo._report(plain, p, box, quant, 40)
    assert run_experiment(p, trials, 40, workers=1) == expected
    assert _draw_threads() == []


def test_serial_draws_run_two_ahead_in_three_buffers(monkeypatch, spare_cpu):
    events = []
    draw = montecarlo._draw
    measure = montecarlo.empirical_metrics
    # The first two draws each wait here for the other, so a schedule that
    # makes them one after the other fails (BrokenBarrierError) and does
    # not hang.
    first_two = threading.Barrier(2, timeout=10)

    def logged_draw(params, seed, channel):
        if seed in (20, 21):
            first_two.wait()
        events.append(("draw", seed, threading.current_thread(), channel))
        return draw(params, seed, channel)

    def logged_solve(real, params):
        events.append(("solve", real.seed, None, real.channel))
        return solve_box_qp(real, params)

    def logged_measure(real, *args):
        out = measure(real, *args)
        events.append(("measured", real.seed, None, None))
        return out

    monkeypatch.setattr(montecarlo, "_draw", logged_draw)
    monkeypatch.setattr(montecarlo, "solve_box_qp", logged_solve)
    monkeypatch.setattr(montecarlo, "empirical_metrics", logged_measure)
    caller = threading.current_thread()
    seeds = list(range(20, 27))
    run_experiment(SystemParams(**SMALL), len(seeds), 20, workers=1)
    assert _draw_threads() == []
    draws = {seed: (thread, buf) for kind, seed, thread, buf in events if kind == "draw"}
    solves = {seed: buf for kind, seed, _, buf in events if kind == "solve"}
    assert sorted(draws) == sorted(solves) == seeds
    # Seed 20 is drawn on the calling thread, every later seed on one
    # helper thread.
    assert draws[20][0] is caller
    helper = draws[21][0]
    assert helper is not caller
    assert all(draws[s][0] is helper for s in seeds[1:])
    # Each trial solves in the buffer its draw filled, and the trials
    # cycle through three buffers.
    assert all(solves[s] is draws[s][1] for s in seeds)
    assert all(solves[s] is solves[s + 3] for s in seeds[:-3])
    assert all(
        len({id(solves[s + i]) for i in range(3)}) == 3 for s in seeds[:-2]
    )
    # A draw into a buffer waits until the trial three back is measured.
    order = [(kind, seed) for kind, seed, _, _ in events]
    for s in seeds[3:]:
        assert order.index(("measured", s - 3)) < order.index(("draw", s))


def test_serial_buffers_hold_under_fast_thread_switching(spare_cpu):
    # Switching threads every microsecond interleaves the helper's draws
    # with the trials as finely as the interpreter allows; a draw into a
    # buffer still in use would change a report.
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=60)
    sp = solve_saddle(p)
    box, quant = box_theory(p, sp), quant_theory(p, sp)
    plain = []
    for seed in range(5, 17):
        real = generate_realization(p, seed)
        plain.append(empirical_metrics(real, solve_box_qp(real, p), p, box, quant))
    expected = montecarlo._report(plain, p, box, quant, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert run_experiment(p, 12, 5, workers=1) == expected
    finally:
        sys.setswitchinterval(interval)
    assert _draw_threads() == []


def test_serial_run_on_one_cpu_draws_on_the_calling_thread(monkeypatch):
    # With no second CPU the helper could only take turns with the solve.
    threads = []
    generate = montecarlo.generate_realization

    def logged_generate(params, seed):
        threads.append(threading.current_thread())
        return generate(params, seed)

    def no_buffered_draw(*_):
        raise AssertionError("buffered draw on a single CPU")

    monkeypatch.setattr(montecarlo, "_spare_cpu", lambda: False)
    monkeypatch.setattr(montecarlo, "generate_realization", logged_generate)
    monkeypatch.setattr(montecarlo, "_draw", no_buffered_draw)
    run_experiment(SystemParams(**SMALL), 4, 20, workers=1)
    assert threads == [threading.main_thread()] * 4


def test_spare_cpu_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert not montecarlo._spare_cpu()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert montecarlo._spare_cpu()


def test_default_worker_count_follows_the_affinity_mask(monkeypatch):
    # One usable CPU on a many-CPU host: the default is one worker.
    monkeypatch.delenv("BOXPREC_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _worker_count(None) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert _worker_count(None) == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _worker_count(None) == 64


def test_serial_solver_error_reaches_the_caller(monkeypatch, spare_cpu):
    err = SolverError("trial 3 failed")
    seeds = []
    draw = montecarlo._draw

    def slow_draw(*args):
        # Still drawing when the solve fails, so an unjoined helper shows.
        time.sleep(0.05)
        return draw(*args)

    def failing(real, params):
        seeds.append(real.seed)
        if len(seeds) == 3:
            raise err
        return solve_box_qp(real, params)

    monkeypatch.setattr(montecarlo, "_draw", slow_draw)
    monkeypatch.setattr(montecarlo, "solve_box_qp", failing)
    before = threading.active_count()
    with pytest.raises(SolverError) as info:
        run_experiment(SystemParams(**SMALL), 5, 7, workers=1)
    assert info.value is err
    assert seeds == [7, 8, 9]
    assert threading.active_count() == before
    assert _draw_threads() == []


def test_serial_solver_error_wakes_a_helper_waiting_for_a_buffer(
    monkeypatch, spare_cpu
):
    # Fast draws and a slow first solve: the helper fills both free
    # buffers and then waits for trial 0 to give its buffer back.
    err = SolverError("trial 0 failed")
    drawn = []
    draw = montecarlo._draw

    def logged_draw(params, seed, channel):
        drawn.append(seed)
        return draw(params, seed, channel)

    def failing(real, params):
        time.sleep(0.2)
        raise err

    def call():
        with pytest.raises(SolverError) as info:
            run_experiment(SystemParams(**SMALL), 6, 7, workers=1)
        raised.append(info.value)

    monkeypatch.setattr(montecarlo, "_draw", logged_draw)
    monkeypatch.setattr(montecarlo, "solve_box_qp", failing)
    before = threading.active_count()
    # Called on a thread of its own, so a helper left waiting fails the
    # test instead of hanging it.
    raised = []
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "the call did not return"
    assert raised == [err] and raised[0] is err
    assert sorted(drawn) == [7, 8, 9]
    assert threading.active_count() == before
    assert _draw_threads() == []


# Trial 0 is drawn on the calling thread, trial 1 beside it on the helper,
# trial 2 ahead of a running trial, and trial 4 is the last.
@pytest.mark.parametrize("bad", [7, 8, 9, 11])
def test_serial_draw_error_reaches_the_caller(monkeypatch, spare_cpu, bad):
    err = RuntimeError(f"draw of seed {bad} failed")
    draw = montecarlo._draw

    def failing(params, seed, channel):
        if seed == bad:
            raise err
        return draw(params, seed, channel)

    monkeypatch.setattr(montecarlo, "_draw", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        run_experiment(SystemParams(**SMALL), 5, 7, workers=1)
    assert info.value is err
    assert threading.active_count() == before
    assert _draw_threads() == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "bad", [dict(trials=2.5), dict(base_seed=1.5), dict(trials=True),
            dict(base_seed=False), dict(trials="3"), dict(base_seed=None),
            dict(workers=2.5), dict(workers=True), dict(workers="2")],
)
def test_rejects_non_integer_trials_and_seed(monkeypatch, bad, workers):
    def never(*_):
        raise AssertionError("trials started before the arguments were checked")

    monkeypatch.setattr(montecarlo, "_run_serial", never)
    monkeypatch.setattr(montecarlo, "_run_pooled", never)
    args = {"trials": 2, "base_seed": 0, "workers": workers, **bad}
    (name,) = bad
    before = threading.active_count()
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        run_experiment(SystemParams(**SMALL), **args)
    assert threading.active_count() == before


def test_accepts_numpy_integer_trials_and_seed():
    p = SystemParams(**SMALL)
    rep = run_experiment(p, np.int64(2), np.uint16(5), workers=1)
    assert rep == run_experiment(p, 2, 5, workers=1)
    assert type(rep.trials) is int and type(rep.base_seed) is int


def test_pooled_call_restores_blas_env(monkeypatch):
    # Workers start with one BLAS thread; the caller's settings survive.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=60)
    run_experiment(p, trials=2, base_seed=3, workers=2)
    assert dict(os.environ) == before


def test_serial_trials_pin_blas_threads_and_restore_them(monkeypatch):
    calls = montecarlo._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exports no known thread-count call")
    get, set_ = calls
    seen = []

    def solve(real, params):
        seen.append(get())
        return solve_box_qp(real, params)

    monkeypatch.setattr(montecarlo, "solve_box_qp", solve)
    saved = get()
    set_(2)
    try:
        p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=60)
        run_experiment(p, trials=2, base_seed=3, workers=1)
        assert get() == 2
    finally:
        set_(saved)
    assert seen == [1, 1]


def test_pooled_calls_reuse_one_executor():
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=60)
    run_experiment(p, trials=2, base_seed=3, workers=2)
    pool = montecarlo._pool
    run_experiment(p, trials=3, base_seed=4, workers=2)
    assert montecarlo._pool is pool


def _in_process_pool(monkeypatch):
    """Run pooled chunks in this process; returns the list of chunks run."""
    ran = []

    def in_process(chunks, nworkers):
        for chunk in chunks:
            ran.append(chunk)
            yield montecarlo._run_chunk(chunk)

    monkeypatch.setattr(montecarlo, "_run_pooled", in_process)
    return ran


def test_pooled_schedule_cuts_each_job_as_its_own_call(monkeypatch):
    # One schedule for three jobs, on 2 workers: each job's chunks are
    # those of a call of its own, max(1, trials // 8) trials, and no chunk
    # holds trials of two jobs.
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=60)
    q = replace(p, amp=0.5, target_power=2.0)
    jobs = [(p, 9, 100), (q, 20, 200), (p, 1, 300)]
    expected = [run_experiment(*job, workers=1) for job in jobs]
    ran = _in_process_pool(monkeypatch)
    assert list(montecarlo._run_jobs(jobs, workers=2)) == expected
    seeds = [[task[1] for task in chunk] for chunk in ran]
    assert seeds == (
        [[s] for s in range(100, 109)]
        + [[s, s + 1] for s in range(200, 220, 2)]
        + [[300]]
    )


# Jobs of 2, 3 and 1 trials: tasks 0-1 are job 0, 2-4 job 1, 5 job 2.
@pytest.mark.parametrize("bad", range(6))
def test_pooled_fold_maps_a_failing_trial_to_its_job(monkeypatch, bad):
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=60)
    jobs = [(p, 2, 100), (p, 3, 200), (p, 1, 300)]
    seeds = [100, 101, 200, 201, 202, 300]
    job_of = [0, 0, 1, 1, 1, 2]
    expected = [run_experiment(*job, workers=1) for job in jobs]
    err = SolverError(f"trial {bad} failed")
    trial = montecarlo._trial

    def failing(real, *args):
        if real.seed == seeds[bad]:
            raise err
        return trial(real, *args)

    monkeypatch.setattr(montecarlo, "_trial", failing)
    ran = _in_process_pool(monkeypatch)
    reports = montecarlo._run_jobs(jobs, workers=2)
    for j in range(job_of[bad]):
        assert next(reports) == expected[j]
    with pytest.raises(SolverError) as info:
        next(reports)
    assert info.value is err
    # The iteration stops at the failing trial's chunk.
    assert [task[1] for chunk in ran for task in chunk] == seeds[: bad + 1]


def test_pool_is_reused_after_a_failed_run():
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=80)
    serial = run_experiment(p, trials=4, base_seed=11, workers=1)
    assert run_experiment(p, trials=4, base_seed=11, workers=2) == serial
    pool = montecarlo._pool
    sp = solve_saddle(p)
    box, quant = box_theory(p, sp), quant_theory(p, sp)
    # With no theory to measure against, the second chunk's trial fails
    # in its worker after its solve.
    chunks = [[(p, 3, box, quant)], [(p, 4, None, None)], [(p, 5, box, quant)]]
    results = montecarlo._run_pooled(chunks, 2)
    assert len(next(results)) == 1
    with pytest.raises(AttributeError):
        next(results)
    assert montecarlo._pool is pool
    assert run_experiment(p, trials=4, base_seed=11, workers=2) == serial
    assert montecarlo._pool is pool


def test_broken_executor_is_replaced():
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=80)
    serial = run_experiment(p, trials=4, base_seed=11, workers=1)
    run_experiment(p, trials=4, base_seed=11, workers=2)
    broken = montecarlo._pool
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    with pytest.raises(BrokenProcessPool):
        run_experiment(p, trials=4, base_seed=11, workers=2)
    assert run_experiment(p, trials=4, base_seed=11, workers=2) == serial
    assert montecarlo._pool is not broken


_SERIAL_SCRIPT = """
import sys
from boxprec import SystemParams, run_experiment

p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=60)
run_experiment(p, trials=2, base_seed=3, workers=1)
print(" ".join(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
"""


def test_serial_runs_do_not_load_the_pool_machinery():
    import boxprec

    src = str(Path(boxprec.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SERIAL_SCRIPT], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert out.stdout.split() == []


# Builds the pool in a process of its own, writes the worker and resource
# tracker PIDs, then waits to be killed.
_ORPHAN_SCRIPT = """
import multiprocessing, os, sys, time
from multiprocessing import resource_tracker
from boxprec import SystemParams, run_experiment

if __name__ == "__main__":
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=60)
    run_experiment(p, trials=4, base_seed=3, workers=2)
    pids = [c.pid for c in multiprocessing.active_children()]
    pids.append(resource_tracker._resource_tracker._pid)
    with open(sys.argv[1] + ".tmp", "w") as fh:
        fh.write(" ".join(map(str, pids)))
    os.replace(sys.argv[1] + ".tmp", sys.argv[1])
    time.sleep(120)
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_pool_workers_exit_when_their_parent_is_killed(tmp_path):
    import boxprec

    script = tmp_path / "orphan.py"
    script.write_text(_ORPHAN_SCRIPT)
    pid_file = tmp_path / "pids"
    src = str(Path(boxprec.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(script), str(pid_file)], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 120.0
        while not pid_file.exists():
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "pool never came up"
            time.sleep(0.05)
        pids = [int(x) for x in pid_file.read_text().split()]
        assert len(pids) == 3 and all(map(_running, pids))
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stderr.close()
        for pid in pids:
            if _running(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def test_worker_env_override(monkeypatch):
    monkeypatch.setenv("BOXPREC_WORKERS", "1")
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=60)
    rep = run_experiment(p, trials=2, base_seed=3)
    assert rep.trials == 2


def test_worker_env_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("BOXPREC_WORKERS", "abc")
    p = SystemParams(user_ratio=0.25, reg=1.0, amp=1.0, noise_var=0.09, n_antennas=60)
    with pytest.raises(ConfigError, match="BOXPREC_WORKERS.*'abc'"):
        run_experiment(p, trials=2, base_seed=3)
    # Nonpositive counts still clamp to a serial run.
    monkeypatch.setenv("BOXPREC_WORKERS", "0")
    assert _worker_count(None) == 1


def test_jensen_ordering_on_reports():
    for seed in (1, 2, 3):
        p = SystemParams(**SMALL)
        rep = run_experiment(p, trials=5, base_seed=1000 * seed, workers=1)
        assert rep.sdnr_avg_box >= rep.sdnr_lb_box
        assert rep.sdnr_avg_quant >= rep.sdnr_lb_quant


def test_quant_metrics_absent_off_unit_power():
    p = SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=0.09,
                     target_power=2.0, n_antennas=150)
    rep = run_experiment(p, trials=3, base_seed=9, workers=1)
    assert rep.ber_quant is None
    assert rep.sdnr_lb_quant is None
    assert rep.w2_quant is None
    assert rep.ber_box is not None


def test_quant_power_is_exact_by_construction():
    p = SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, level=0.7,
                     noise_var=0.09, n_antennas=100)
    rep = run_experiment(p, trials=2, base_seed=42, workers=1)
    assert rep.power_quant == pytest.approx(0.49, rel=1e-12)


def test_rejects_nonpositive_trials():
    p = SystemParams(**SMALL)
    with pytest.raises(DomainError):
        run_experiment(p, trials=0, base_seed=0)
    with pytest.raises(DomainError, match="base_seed"):
        run_experiment(p, trials=1, base_seed=-1)
