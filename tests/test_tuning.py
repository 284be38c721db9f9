import math
import subprocess
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxprec import (
    DomainError,
    SolverError,
    SystemParams,
    TuneResult,
    box_theory,
    optimize_box,
    optimize_quant,
    solve_saddle,
    tune_level_for_snr,
    tune_target_power,
)
from boxprec import saddle, tuning
from boxprec.config import parse_config
from boxprec.presets import preset_config

from oracles import optimize_quant_by_points

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


@pytest.mark.parametrize("db, word", [(4000.0, "overflows"), (-4000.0, "underflows")])
def test_out_of_range_snr_is_a_domain_error(db, word):
    # 10^400 overflows a float (Python raises OverflowError) and 10^-400
    # underflows to 0, a level of 0; both name the SNR.
    message = f"transmit SNR {db!r} dB {word}"
    with pytest.raises(DomainError, match=message):
        tune_level_for_snr(0.09, db)
    with pytest.raises(DomainError, match=message):
        optimize_box(replace(BASE, amp=2.0), db, reg_grid=(1.0,))
    with pytest.raises(DomainError, match=message):
        optimize_quant(BASE, db, reg_grid=(1.0,), amp_grid=(1.0,))
    # A finite noise power times a finite factor can overflow too.
    with pytest.raises(DomainError, match="overflows"):
        tune_level_for_snr(1e300, 100.0)


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


# E[min(H^2, 1)] for standard normal H.
_KAPPA = 1.0 - 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)


def _needed_rho_bound(user_ratio, reg, amp, power):
    """Upper bound on the target power that reaches transmit ``power``.

    At the saddle ``rho = user_ratio tau^2 - power`` with ``tau = (1 + u) /
    alpha``.  ``u`` is largest where the box does not bind (``alpha E[H X]
    = 1``), so ``delta u^2 + (delta - 1 - reg) u - reg = 0`` bounds it.
    ``alpha`` solves ``E[X^2](alpha) = power``, and ``1/alpha^2`` is bounded
    twice: ``E[X^2] >= kappa min(1/alpha^2, amp^2)`` with ``kappa = E[min(H^2,
    1)]``, and ``E[X^2] >= P(|H| > amp alpha) >= 1 - sqrt(2/pi) amp alpha``.
    """
    c = user_ratio - 1.0 - reg
    u = (math.sqrt(c * c + 4.0 * user_ratio * reg) - c) / (2.0 * user_ratio)
    inv_alpha_sq = power / _KAPPA if power < _KAPPA * amp * amp else math.inf
    if math.isfinite(amp):
        share = power / (amp * amp)
        inv_alpha_sq = min(inv_alpha_sq, 2.0 * amp * amp / (math.pi * (1.0 - share) ** 2))
    return user_ratio * (1.0 + u) ** 2 * inv_alpha_sq


@settings(max_examples=200, deadline=None)
@given(
    user_ratio=st.floats(min_value=0.05, max_value=3.0),
    reg=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e2)),
    amp=st.one_of(st.floats(min_value=0.05, max_value=20.0), st.just(math.inf)),
    share=st.floats(min_value=1e-3, max_value=0.99),
)
def test_power_tuning_over_the_domain(user_ratio, reg, amp, share):
    # The requested power is a share of amp^2 (of 100 without a box).
    # Draws whose needed rho could pass 1e4 are skipped by the closed-form
    # bound above, which keeps them inside the saddle solver's tested
    # target_power range; beyond about 1e7 rounding alone breaks the 1e-9
    # residual contract.  Without a ridge the needed rho is at least
    # (user_ratio - 1) power; at user_ratio = 1 it vanishes like a Gaussian
    # tail (amp 1, power 1/64: rho 3.8e-17), where the power no longer
    # resolves it, so reg = 0 is drawn only with user_ratio >= 1.001.
    assume(reg > 0.0 or user_ratio >= 1.001)
    power = share * (amp * amp if math.isfinite(amp) else 100.0)
    assume(_needed_rho_bound(user_ratio, reg, amp, power) <= 1e4)
    res = tune_target_power(SystemParams(user_ratio=user_ratio, reg=reg, amp=amp), power)
    p = res.params
    achieved = p.user_ratio * solve_saddle(p).tau ** 2 - p.target_power
    assert abs(achieved - power) <= 1e-8
    rhos = [r for r, _ in res.grid_trace]
    powers = [w for _, w in res.grid_trace]
    assert rhos == sorted(rhos)
    # A power read as user_ratio tau^2 - rho carries rounding of order
    # eps rho.
    slack = 1e-14 * (1.0 + rhos[-1])
    for a, b in zip(powers, powers[1:]):
        assert b >= a - slack


def test_import_does_not_load_scipy_optimize():
    # Power inversion needs no generic root finder and the W2 quantiles
    # come from the standard library, so no scipy module loads at all:
    # every process that imports the package, pool workers included, is
    # spared it.
    code = (
        "import sys, boxprec; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_power_tuning_rejects_saturation():
    with pytest.raises(DomainError):
        tune_target_power(BASE, 1.0)
    with pytest.raises(DomainError):
        tune_target_power(BASE, 1.5)
    with pytest.raises(DomainError):
        tune_target_power(BASE, math.inf)
    with pytest.raises(DomainError):
        tune_target_power(BASE, 0.0)


def test_power_tuning_at_unit_load_without_ridge():
    with pytest.raises(DomainError):
        tune_target_power(SystemParams(user_ratio=1.0, reg=0.0, amp=math.inf), 0.5)
    # With a box the needed rho falls like a Gaussian tail in power; at
    # 1/128 of amp^2 it is below what user_ratio tau^2 - E[X^2] resolves.
    edge = SystemParams(user_ratio=1.0, reg=0.0, amp=1.0)
    assert tune_target_power(edge, 0.3).params.target_power > 0.0
    with pytest.raises(SolverError):
        tune_target_power(edge, 1.0 / 128.0)


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


def test_optimize_box_solves_each_tuned_saddle_once(monkeypatch):
    # The power check's saddle point serves the BER too, so each feasible
    # reg costs one re-solve, and the BERs are those of a fresh solve.
    calls = []

    def counted(p):
        calls.append(p)
        return solve_saddle(p)

    monkeypatch.setattr(tuning, "solve_saddle", counted)
    res = optimize_box(BASE, 5.0, reg_grid=(1.0, 10.0))
    assert len(calls) == 2
    for (reg, ber), tuned in zip(res.grid_trace, calls):
        assert tuned.reg == reg
        assert ber == box_theory(tuned, solve_saddle(tuned)).ber


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _assert_same(got, want):
    # repr tells floats apart bit for bit (shortest round-trip digits),
    # shows NaN where it sits and keeps the grid values' types.
    assert repr(got) == repr(want)
    if isinstance(want, TuneResult):
        assert got.params == want.params
        assert got.objective == want.objective


@pytest.mark.parametrize("preset", ["fig3", "fig4-left", "fig4-right"])
def test_optimize_quant_matches_scalar_path_on_default_grids(preset):
    base = parse_config(preset_config(preset)).params
    for snr in (-10.0, 0.0, 5.0, 20.0):
        got = optimize_quant(base, snr)
        want = optimize_quant_by_points(base, snr)
        _assert_same(got, want)
        assert got == want
        assert isinstance(got.grid_trace[0][0][0], np.float64)


_REG = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e-3, max_value=1e2),
    st.floats(min_value=1e100, max_value=1e300),
    st.sampled_from([-1.0, math.nan, math.inf]),
)
_AMP = st.one_of(
    st.just(math.inf),
    st.floats(min_value=1e-6, max_value=1e-3),  # amp alpha < 0.1: the series
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=1e3, max_value=1e8),  # amp alpha >= 40: no clipping
    st.sampled_from([0.0, -1.0, math.nan]),
)


@settings(max_examples=300, deadline=None)
@given(
    user_ratio=st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=3.0)),
    regs=st.lists(_REG, min_size=1, max_size=4),
    amps=st.lists(_AMP, min_size=1, max_size=4),
    snr=st.floats(min_value=-10.0, max_value=30.0),
    numpy_grid=st.booleans(),
    scalar_lanes=st.sampled_from([0, 3, saddle._SCALAR_LANES]),
)
def test_optimize_quant_matches_scalar_path_over_the_domain(
    user_ratio, regs, amps, snr, numpy_grid, scalar_lanes
):
    # Same floats, same NaN pattern (a zero divisor at the tiniest regs
    # included), and the same exception where the scalar path raises one,
    # with the grid values given as floats or as np.float64.  These grids
    # fit in the hand-off, so a smaller one makes the lanes go through
    # the array iteration first (none at all with 0).
    base = SystemParams(user_ratio=user_ratio, reg=1.0, amp=1.0, noise_var=0.09)
    if numpy_grid:
        regs, amps = list(map(np.float64, regs)), list(map(np.float64, amps))
    with mock.patch.object(saddle, "_SCALAR_LANES", scalar_lanes):
        got = _outcome(optimize_quant, base, snr, regs, amps)
    _assert_same(got, _outcome(optimize_quant_by_points, base, snr, regs, amps))


def _handed_off(monkeypatch) -> list[float]:
    """The reg of every lane the array iteration hands to the scalar one."""
    regs = []
    power_residual = saddle._power_residual

    def logged(delta, rho, reg, amp, points):
        regs.append(reg)
        return power_residual(delta, rho, reg, amp, points)

    monkeypatch.setattr(saddle, "_power_residual", logged)
    return regs


@pytest.mark.parametrize("scalar_lanes", [0, 1, 16, 64, 10**9])
def test_optimize_quant_hand_off_keeps_the_scalar_floats(monkeypatch, scalar_lanes):
    # On the fig3 grid the array iteration leaves 58 of 375 lanes after
    # seven steps, 11 after nine and the last one after fourteen; whatever
    # the hand-off size, every lane gets the scalar path's float.
    base = parse_config(preset_config("fig3")).params
    want = {snr: optimize_quant_by_points(base, snr) for snr in (0.0, 5.0)}
    monkeypatch.setattr(saddle, "_SCALAR_LANES", scalar_lanes)
    handed = _handed_off(monkeypatch)
    for snr, expected in want.items():
        handed.clear()
        got = optimize_quant(base, snr)
        _assert_same(got, expected)
        assert got == expected
        n = len(got.grid_trace)
        if scalar_lanes == 0:
            assert handed == []
        elif scalar_lanes >= n:
            assert len(handed) == n
        else:
            assert 0 < len(handed) <= scalar_lanes


def test_optimize_quant_hand_off_of_a_lane_that_divides_by_zero(monkeypatch):
    # The CI tune-quant-div0 grid fits in the hand-off: both lanes run on
    # the scalar path from the start, and at the subnormal reg beta
    # underflows and the iteration divides by zero, so that point is NaN
    # as on the scalar path.  On a grid too large for the hand-off the
    # same lane runs array steps first and is handed off later.
    tiny = SystemParams(user_ratio=0.05, reg=1.0, amp=1.0, noise_var=0.09)
    small = ((5e-324, 1.0), (30.0,))
    large = ((5e-324,) + tuning._DEFAULT_REG_GRID, (30.0, 0.5, 2.0))
    want = [optimize_quant_by_points(tiny, 5.0, *grid) for grid in (small, large)]
    handed = _handed_off(monkeypatch)
    got = optimize_quant(tiny, 5.0, *small)
    _assert_same(got, want[0])
    assert sorted(handed) == [5e-324, 1.0]
    bers = dict(got.grid_trace)
    assert math.isnan(bers[(5e-324, 30.0)])
    assert math.isfinite(bers[(1.0, 30.0)])

    handed.clear()
    got = optimize_quant(tiny, 5.0, *large)
    _assert_same(got, want[1])
    assert 5e-324 in handed
    assert len(handed) <= saddle._SCALAR_LANES < len(got.grid_trace)
    assert math.isnan(dict(got.grid_trace)[(5e-324, 30.0)])


def test_optimize_quant_covers_every_branch_of_the_scalar_path():
    # One grid through each closed-form branch at the solution (series,
    # erf, unclipped and amp = inf), reg = 0 at user_ratio = 1, the
    # degenerate saddle, a huge reg whose start overflows, and invalid
    # entries; then points whose scalar path divides by zero as beta
    # underflows (SolverError, so NaN), with amp alpha in the erf branch
    # (amp 30) and in the series branch (amp 0.1 at user_ratio 1e-3), and
    # with grid values given as np.float64, which SystemParams stores as
    # floats.
    base = SystemParams(user_ratio=1.0, reg=1.0, amp=1.0, noise_var=0.09)
    regs = (0.0, 1e-3, 1.0, 1e200, -1.0, math.nan)
    amps = (1e-4, 0.5, 1e4, math.inf, 0.0, math.nan)
    got = optimize_quant(base, 5.0, regs, amps)
    _assert_same(got, optimize_quant_by_points(base, 5.0, regs, amps))
    ts = [
        amp * solve_saddle(replace(got.params, reg=1.0, amp=amp)).alpha
        for amp in (1e-4, 0.5, 1e4)
    ]
    assert ts[0] < 0.1 <= ts[1] < 40.0 <= ts[2]
    bers = dict(got.grid_trace)
    assert math.isnan(bers[(0.0, math.inf)])
    assert math.isnan(bers[(1e200, 0.5)])
    assert math.isfinite(bers[(0.0, 0.5)])

    tiny = SystemParams(user_ratio=0.05, reg=1.0, amp=1.0, noise_var=0.09)
    for search in (optimize_quant_by_points, optimize_quant):
        bers = dict(search(tiny, 5.0, (1.0, 5e-324), (30.0,)).grid_trace)
        assert math.isnan(bers[(5e-324, 30.0)])
        assert math.isfinite(bers[(1.0, 30.0)])
    small = replace(tiny, user_ratio=1e-3)
    got = optimize_quant(small, 5.0, (1.0, 1.5e-323), (0.1,))
    _assert_same(got, optimize_quant_by_points(small, 5.0, (1.0, 1.5e-323), (0.1,)))
    assert math.isnan(dict(got.grid_trace)[(1.5e-323, 0.1)])
    regs = (np.float64(1.0), np.float64(5e-324))
    amps = (np.float64(30.0), np.float64(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_same(
            _outcome(optimize_quant, tiny, 5.0, regs, amps),
            _outcome(optimize_quant_by_points, tiny, 5.0, regs, amps),
        )


def test_optimize_quant_drops_the_points_quant_theory_refuses():
    # At 78 dB over noise_var 1e300, level^2 = 6.3e307: most points'
    # distortion variance overflows, which quant_theory refuses, and the
    # array pass must leave out exactly those points.
    base = SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=1e300)
    grid = ((1e-3, 1.0, 10.0), (0.05, 1.0, math.inf))
    got = optimize_quant(base, 78.0, *grid)
    _assert_same(got, optimize_quant_by_points(base, 78.0, *grid))
    bers = [ber for _, ber in got.grid_trace]
    assert 0 < sum(map(math.isnan, bers)) < len(bers)


@pytest.mark.parametrize(
    "user_ratio, regs, amps",
    [
        (0.2, (-1.0, math.nan, math.inf), (0.5,)),
        (0.2, (0.0,), (1.0, 0.0, -2.0, math.nan)),
        (1.0, (0.0,), (math.inf,)),
    ],
)
def test_optimize_quant_all_infeasible_raises_like_scalar_path(user_ratio, regs, amps):
    base = SystemParams(user_ratio=user_ratio, reg=1.0, amp=1.0, noise_var=0.09)
    with pytest.raises(SolverError) as got:
        optimize_quant(base, 5.0, regs, amps)
    with pytest.raises(SolverError) as want:
        optimize_quant_by_points(base, 5.0, regs, amps)
    assert str(got.value) == str(want.value)


def test_optimize_quant_raises_no_runtime_warning():
    # Lanes that overflow or divide inf by inf give the IEEE values
    # Python floats give, without numpy's warnings.
    base = SystemParams(user_ratio=1.0, reg=1.0, amp=1.0, noise_var=0.09)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimize_quant(base, 5.0, (0.0, 1e-3, 1.0, 1e200), (math.inf, 1e-4, 0.5, 1e4))
        optimize_quant(parse_config(preset_config("fig3")).params, 5.0)
