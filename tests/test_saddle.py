import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxprec import DomainError, SolverError, SystemParams, saddle, solve_saddle
from boxprec.moments import clip_moments
from boxprec.presets import FIG3_REG
from boxprec.saddle import phi_value

from oracles import saddle_by_fixed_point

# Pinned operating point used across the test suite: load 0.2, unit
# ridge, unit box, unit constellation power.
PINNED = dict(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=0.09)


def test_unconstrained_ridge_free_closed_form():
    # With reg=0, amp=inf, delta=2, rho=1 the system solves by hand:
    # tau=1, beta=2, and the saddle value equals rho.
    p = SystemParams(user_ratio=2.0, reg=0.0, amp=math.inf, target_power=1.0)
    sp = solve_saddle(p)
    assert abs(sp.tau - 1.0) < 1e-8
    assert abs(sp.beta - 2.0) < 1e-8
    assert abs(sp.phi - 1.0) < 1e-8

    p2 = SystemParams(user_ratio=2.0, reg=0.0, amp=math.inf, target_power=2.0)
    sp2 = solve_saddle(p2)
    assert abs(sp2.tau - math.sqrt(2.0)) < 1e-8
    assert abs(sp2.beta - 2.0 * math.sqrt(2.0)) < 1e-8


def test_frozen_fixture_point():
    # Quantities derived from the pinned point's mpmath solution (50
    # significant digits, inputs taken as their binary doubles), rounded
    # to double.
    sp = solve_saddle(SystemParams(**PINNED))
    assert math.isclose(sp.alpha, 4.599433313891368, rel_tol=1e-14)
    assert math.isclose(sp.phi, 0.1049875793024976, rel_tol=1e-14)
    assert math.isclose(sp.moments.e_abs, 0.17347435147602736, rel_tol=1e-14)
    assert math.isclose(sp.moments.e_sq, 0.04727024031540033, rel_tol=1e-14)
    assert math.isclose(sp.moments.e_xh, 0.2174171675806279, rel_tol=1e-14)


def test_pinned_point_matches_high_precision_solution():
    # (tau, beta) of the pinned point solved with mpmath at 50 significant
    # digits, taking the inputs as their binary doubles.
    sp = solve_saddle(SystemParams(**PINNED))
    assert math.isclose(sp.tau, 2.2883074971640068806, rel_tol=1e-14)
    assert math.isclose(sp.beta, 0.48048866370434698168, rel_tol=1e-14)


@pytest.mark.parametrize(
    "amp, tau, beta",
    [
        (0.1, 2.2469555826857992763, 0.73925862535066744526),
        (10.0, 2.4992208196032882674, 0.0012476615467048228446),
    ],
)
def test_fig3_extreme_boxes_match_high_precision_solution(amp, tau, beta):
    # fig3's tightest and loosest box, solved with mpmath at 50 significant
    # digits from binary-double inputs.  At amp = 10 beta is small next to
    # 2 tau user_ratio, so computing it as 2 tau user_ratio - 2 E[H X]
    # loses digits.
    sp = solve_saddle(SystemParams(user_ratio=0.2, reg=FIG3_REG, amp=amp))
    assert math.isclose(sp.tau, tau, rel_tol=1e-14)
    assert math.isclose(sp.beta, beta, rel_tol=1e-14)


def test_alpha_ties_tau_and_beta():
    sp = solve_saddle(SystemParams(**PINNED))
    assert math.isclose(sp.alpha, 1.0 / sp.tau + 2.0 * 1.0 / sp.beta, rel_tol=1e-14)


def test_residuals_below_tolerance_on_random_grid():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = SystemParams(
            user_ratio=float(rng.uniform(0.05, 3.0)),
            reg=float(10.0 ** rng.uniform(-3, 1)),
            amp=float(10.0 ** rng.uniform(-1, 1)),
            target_power=float(rng.uniform(0.1, 4.0)),
        )
        sp = solve_saddle(p)
        assert abs(sp.residual_power) < 1e-9
        assert abs(sp.residual_beta) < 1e-9


@settings(max_examples=300, deadline=None)
@given(
    user_ratio=st.floats(min_value=0.05, max_value=3.0),
    reg=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e2)),
    amp=st.one_of(st.floats(min_value=0.05, max_value=20.0), st.just(math.inf)),
    target_power=st.floats(min_value=1e-2, max_value=1e4),
)
def test_residuals_below_tolerance_over_the_domain(user_ratio, reg, amp, target_power):
    assume(reg > 0.0 or user_ratio >= 1.0)
    assume(not (reg == 0.0 and user_ratio == 1.0 and math.isinf(amp)))
    sp = solve_saddle(
        SystemParams(user_ratio=user_ratio, reg=reg, amp=amp, target_power=target_power)
    )
    assert abs(sp.residual_power) <= 1e-9
    assert abs(sp.residual_beta) <= 1e-9


def test_evaluation_count_bounded_on_criterion_01_grid():
    # Same draws as acceptance criterion 01.  The Newton iteration needs
    # at most 10 moment evaluations there; a slide back to bisection
    # would need hundreds.
    rng = np.random.default_rng(20260822)
    counts = [
        solve_saddle(SystemParams(user_ratio=2.0, reg=0.0, amp=math.inf)).evaluations
    ]
    for _ in range(100):
        p = SystemParams(
            user_ratio=10.0 ** rng.uniform(-1.3, 0.7),
            reg=10.0 ** rng.uniform(-3.0, 2.0),
            amp=math.inf if rng.random() < 0.2 else 10.0 ** rng.uniform(-1.0, 1.0),
            target_power=10.0 ** rng.uniform(-1.0, 1.0),
        )
        counts.append(solve_saddle(p).evaluations)
    assert min(counts) >= 2
    assert max(counts) <= 50


def test_agrees_with_damped_fixed_point_oracle():
    # Oracle uses adaptive quadrature for the moments, so the agreement
    # also cross-checks the closed forms inside the solver loop.
    p = SystemParams(**PINNED)
    sp = solve_saddle(p)
    tau, beta = saddle_by_fixed_point(
        p.user_ratio, p.reg, p.amp, p.target_power, tau0=1.5, beta0=1.0
    )
    assert abs(sp.tau - tau) < 1e-9
    assert abs(sp.beta - beta) < 1e-9


def test_fixed_point_is_unique_attractor():
    # 20 spread-out initializations all land on the solver's answer.
    # Closed-form moments keep the probe fast; independence of the
    # moment formulas is covered by the quadrature test above.
    def closed(alpha, amp):
        m = clip_moments(alpha, amp)
        return m.e_abs, m.e_sq, m.e_xh

    p = SystemParams(**PINNED)
    sp = solve_saddle(p)
    rng = np.random.default_rng(3)
    for _ in range(20):
        tau0 = float(10.0 ** rng.uniform(-0.7, 0.7))
        beta0 = float(10.0 ** rng.uniform(-1.3, 0.7))
        tau, beta = saddle_by_fixed_point(
            p.user_ratio,
            p.reg,
            p.amp,
            p.target_power,
            tau0=tau0,
            beta0=beta0,
            moments=closed,
        )
        assert abs(tau - sp.tau) < 1e-7
        assert abs(beta - sp.beta) < 1e-7


def test_phi_value_reproduces_solution_value():
    p = SystemParams(**PINNED)
    sp = solve_saddle(p)
    assert math.isclose(phi_value(sp.tau, sp.beta, p), sp.phi, rel_tol=1e-12)


def test_solution_is_a_min_max_saddle():
    # phi rises when tau moves off the solution and falls when beta
    # does: min over tau, max over beta.
    p = SystemParams(**PINNED)
    sp = solve_saddle(p)
    f0 = sp.phi
    for eps in (1e-3, 1e-2):
        assert phi_value(sp.tau * (1 + eps), sp.beta, p) >= f0
        assert phi_value(sp.tau * (1 - eps), sp.beta, p) >= f0
        assert phi_value(sp.tau, sp.beta * (1 + eps), p) <= f0
        assert phi_value(sp.tau, sp.beta * (1 - eps), p) <= f0


def test_continuity_under_one_percent_perturbations():
    bases = [
        SystemParams(user_ratio=0.2, reg=1.0, amp=a, target_power=rho, noise_var=0.09)
        for a in (0.5, 1.0, 2.0)
        for rho in (0.1, 1.0, 4.0)
    ]
    for p in bases:
        sp = solve_saddle(p)
        for field in ("target_power", "reg", "amp"):
            bumped = SystemParams(
                **{
                    name: getattr(p, name) * (1.01 if name == field else 1.0)
                    for name in ("user_ratio", "reg", "amp", "target_power")
                },
                noise_var=p.noise_var,
            )
            sq = solve_saddle(bumped)
            assert abs(sq.tau - sp.tau) / sp.tau < 0.10
            assert abs(sq.beta - sp.beta) / sp.beta < 0.10


def test_boundary_regime_flag_and_rejections():
    edge = SystemParams(user_ratio=1.0, reg=0.0, amp=2.0)
    assert edge.boundary_regime
    sp = solve_saddle(edge)  # finite box keeps the system solvable
    assert abs(sp.residual_power) < 1e-9

    assert not SystemParams(user_ratio=1.0, reg=0.5, amp=2.0).boundary_regime

    with pytest.raises(DomainError):
        solve_saddle(SystemParams(user_ratio=1.0, reg=0.0, amp=math.inf))
    with pytest.raises(DomainError):
        SystemParams(user_ratio=0.9, reg=0.0, amp=1.0)


@pytest.mark.parametrize("amp", [30.0, 1e300, math.inf])
def test_underflowing_beta_is_a_solver_error(amp):
    # At a subnormal reg, beta underflows to 0 at the root and the alpha
    # equation would divide by it.
    p = SystemParams(user_ratio=0.05, reg=5e-324, amp=amp, level=0.5)
    with pytest.raises(SolverError, match="divided by zero") as info:
        solve_saddle(p)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_float_subclass_fields_are_stored_as_float():
    # An np.float64 field (a numpy tuning grid's value) is stored as a
    # float, so the scalar path runs in Python floats: at a subnormal reg
    # it divides by zero as floats do, where numpy scalars would give inf
    # and fail the residual check instead.
    fields = dict(
        user_ratio=0.05, reg=5e-324, amp=30.0, level=0.5, noise_var=0.1, target_power=1.0
    )
    p = SystemParams(**{name: np.float64(value) for name, value in fields.items()})
    assert all(type(getattr(p, name)) is float for name in fields)
    assert p == SystemParams(**fields)
    messages = []
    for params in (p, SystemParams(**fields)):
        with pytest.raises(SolverError) as info:
            solve_saddle(params)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "divided by zero" in messages[0]


def test_rejects_nonsense_parameters():
    with pytest.raises(DomainError):
        SystemParams(user_ratio=-0.2, reg=1.0, amp=1.0)
    with pytest.raises(DomainError):
        SystemParams(user_ratio=0.2, reg=-1.0, amp=1.0)
    with pytest.raises(DomainError):
        SystemParams(user_ratio=0.2, reg=1.0, amp=-1.0)
    with pytest.raises(DomainError):
        SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, target_power=0.0)
    with pytest.raises(DomainError):
        SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=-0.1)
    with pytest.raises(DomainError):
        SystemParams(user_ratio=1e-9, reg=1.0, amp=1.0, n_antennas=100)
    # bool is an int subclass; True would silently mean one antenna.
    with pytest.raises(DomainError):
        SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, n_antennas=True)


def test_user_count_rounds_from_ratio():
    assert SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, n_antennas=1000).n_users == 200
    assert SystemParams(user_ratio=0.15, reg=1.0, amp=1.0, n_antennas=800).n_users == 120


# Lanes for the safeguarded Newton iteration: atan(root - alpha) falls
# through 0 at root, and Newton from far off overshoots, so the brackets
# bind; the last lane's constant has no root, so it doubles alpha until
# the 200-evaluation budget runs out.
_LANE_ROOTS = (1.0, 5.0, 50.0, 0.3, 7.0, 2.0)
_LANE_STARTS = (0.01, 100.0, 1000.0, 3.0, 6.9, 1.0)


def _lane_fn(lane: int, seen: list):
    def f(alpha):
        seen.append(alpha)
        if lane == len(_LANE_ROOTS):
            return 1.0, -0.0, 1.0
        d = _LANE_ROOTS[lane] - alpha
        return math.atan(d), -1.0 / (1.0 + d * d), 1.0

    return f


@pytest.mark.parametrize("scalar_lanes", [0, 1, 3, 7])
def test_array_iteration_hands_each_lane_its_own_state(monkeypatch, scalar_lanes):
    # Whenever a lane is handed to the scalar iteration, it visits the
    # alphas the scalar iteration visits from its start, and stops where
    # that stops, or fails after the same 200 evaluations.
    n = len(_LANE_ROOTS) + 1
    starts = _LANE_STARTS + (1.0,)
    want = [[] for _ in range(n)]
    converged = []
    for lane in range(n):
        try:
            saddle._falling_root(_lane_fn(lane, want[lane]), starts[lane])
            converged.append(True)
        except SolverError:
            converged.append(False)
    assert converged == [True] * (n - 1) + [False]
    assert len(want[-1]) == saddle._MAX_ITER

    seen = [[] for _ in range(n)]
    fns = [_lane_fn(lane, seen[lane]) for lane in range(n)]

    def f(alpha, lanes):
        out = [fns[i](a) for i, a in zip(lanes.tolist(), alpha.tolist())]
        return tuple(np.array(column) for column in zip(*out))

    handed = []

    def finish(lane, alpha, lo, hi, budget):
        handed.append(lane)
        try:
            saddle._falling_root(fns[lane], alpha, lo, hi, budget)
        except SolverError:
            return False
        return True

    monkeypatch.setattr(saddle, "_SCALAR_LANES", scalar_lanes)
    got = saddle._falling_root_array(f, finish, np.array(starts))
    assert got.tolist() == converged
    assert seen == want
    assert 0 < len(handed) <= scalar_lanes if scalar_lanes else handed == []
