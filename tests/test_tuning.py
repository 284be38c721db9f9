import math
from dataclasses import replace

import pytest

from boxprec import (
    DomainError,
    SolverError,
    SystemParams,
    box_theory,
    optimize_box,
    optimize_quant,
    solve_saddle,
    tune_level_for_snr,
    tune_target_power,
)

BASE = SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=0.09)


def test_level_formula():
    assert tune_level_for_snr(0.09, 5.0) == pytest.approx(
        math.sqrt(0.09 * 10.0 ** 0.5), rel=1e-15
    )
    assert tune_level_for_snr(1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(DomainError):
        tune_level_for_snr(0.0, 5.0)
    with pytest.raises(DomainError):
        tune_level_for_snr(-0.1, 5.0)


def test_power_tuning_hits_target():
    for power in (0.05, 0.3, 0.9):
        res = tune_target_power(BASE, power)
        p = res.params
        sp = solve_saddle(p)
        achieved = p.user_ratio * sp.tau * sp.tau - p.target_power
        assert abs(achieved - power) <= 1e-8
        assert abs(res.objective - power) <= 1e-8


def test_power_tuning_trace_is_monotone():
    # Transmit power grows with the constellation power, so the trace,
    # sorted by rho, must be nondecreasing in the achieved power.
    res = tune_target_power(BASE, 0.5)
    rhos = [r for r, _ in res.grid_trace]
    powers = [w for _, w in res.grid_trace]
    assert rhos == sorted(rhos)
    for a, b in zip(powers, powers[1:]):
        assert b >= a - 1e-12


def test_power_tuning_rejects_saturation():
    with pytest.raises(DomainError):
        tune_target_power(BASE, 1.0)
    with pytest.raises(DomainError):
        tune_target_power(BASE, 1.5)
    with pytest.raises(DomainError):
        tune_target_power(BASE, math.inf)
    with pytest.raises(DomainError):
        tune_target_power(BASE, 0.0)


def test_power_tuning_unbounded_box_reaches_any_power():
    free = replace(BASE, amp=math.inf)
    res = tune_target_power(free, 4.0)
    sp = solve_saddle(res.params)
    assert abs(res.params.user_ratio * sp.tau ** 2
               - res.params.target_power - 4.0) <= 1e-8


def test_optimize_box_single_point_grid_is_power_control():
    snr = 5.0
    res = optimize_box(BASE, snr, reg_grid=(1.0,))
    direct = tune_target_power(BASE, BASE.noise_var * 10.0 ** (snr / 10.0))
    assert res.params == direct.params
    assert res.params.reg == 1.0
    assert len(res.grid_trace) == 1
    assert res.objective == pytest.approx(
        box_theory(res.params, solve_saddle(res.params)).ber, rel=1e-12
    )


def test_optimize_box_marks_infeasible_points_nan():
    # At 5 dB over noise_var=0.09 the power target is ~0.285; amp=0.5
    # saturates at 0.25, so the whole grid is infeasible for that box.
    cramped = replace(BASE, amp=0.5)
    with pytest.raises(SolverError):
        optimize_box(cramped, 5.0, reg_grid=(0.1, 1.0))
    res = optimize_box(BASE, 5.0, reg_grid=(1.0, 10.0))
    assert all(math.isfinite(m) for _, m in res.grid_trace)


def test_optimize_box_empty_grid():
    with pytest.raises(DomainError):
        optimize_box(BASE, 5.0, reg_grid=())


def test_optimize_quant_reproduces_frozen_optimum():
    # Minimum of the quantized-BER surface over the default (reg, amp)
    # grid at 5 dB; both coordinates land strictly inside the amp grid.
    res = optimize_quant(BASE, 5.0)
    p = res.params
    assert p.reg == pytest.approx(0.001, rel=1e-12)
    assert p.amp == pytest.approx(0.47287080450158786, rel=1e-12)
    assert p.level == pytest.approx(0.53348382301167685, rel=1e-12)
    assert p.target_power == 1.0
    assert res.objective == pytest.approx(0.0063948395462749318, rel=1e-9)


def test_optimize_quant_trace_shape_and_order():
    regs = (0.01, 1.0)
    amps = (0.3, 0.6, 1.2)
    res = optimize_quant(BASE, 5.0, reg_grid=regs, amp_grid=amps)
    assert len(res.grid_trace) == 6
    keys = [k for k, _ in res.grid_trace]
    assert keys == [(r, a) for r in regs for a in amps]
    best = min(m for _, m in res.grid_trace if math.isfinite(m))
    assert res.objective == best


def test_optimize_quant_empty_grids():
    with pytest.raises(DomainError):
        optimize_quant(BASE, 5.0, reg_grid=())
    with pytest.raises(DomainError):
        optimize_quant(BASE, 5.0, amp_grid=())


def test_optimize_quant_all_fail():
    # reg = 0, user_ratio = 1, amp = inf is the one degenerate saddle
    # configuration; a grid containing only it leaves nothing feasible.
    edge = SystemParams(user_ratio=1.0, reg=0.0, amp=2.0, noise_var=0.09)
    with pytest.raises(SolverError, match="no feasible point"):
        optimize_quant(edge, 5.0, reg_grid=(0.0,), amp_grid=(math.inf,))


FIG2 = SystemParams(user_ratio=0.2, reg=1.0, amp=2.0, noise_var=0.09, n_antennas=800)


def test_optimize_box_fig2_grid_is_all_feasible():
    # At reg = 100 the power control needs target_power ~ 1.5e4, where
    # the power residual must still reach 1e-9 against a scale of 1e4
    # for the grid point to count as feasible.
    res = optimize_box(FIG2, 5.0)
    assert not any(math.isnan(ber) for _, ber in res.grid_trace)
    power = FIG2.noise_var * 10.0 ** 0.5
    tuned = tune_target_power(replace(FIG2, reg=100.0), power).params
    assert tuned.target_power > 1e4
    bt = box_theory(tuned, solve_saddle(tuned))
    assert bt.power == pytest.approx(power, rel=1e-8)
