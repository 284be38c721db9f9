import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from boxprec import (
    ConfigError,
    DomainError,
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
