import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxprec import (
    DomainError,
    SolverError,
    SystemParams,
    generate_realization,
    quantize,
    solve_box_qp,
    solve_saddle,
)
from boxprec import precoder
from boxprec.moments import q_tail
from boxprec.precoder import Realization, _draw
from boxprec.presets import FIG3_LEVEL, FIG3_REG, PRESETS

from oracles import box_qp_by_enumeration, box_qp_certificate

PINNED = dict(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=0.09)


def test_realization_is_seed_deterministic():
    p = SystemParams(**PINNED, n_antennas=50)
    a = generate_realization(p, 123)
    b = generate_realization(p, 123)
    c = generate_realization(p, 124)
    assert np.array_equal(a.channel, b.channel)
    assert np.array_equal(a.symbols, b.symbols)
    assert np.array_equal(a.noise, b.noise)
    assert not np.array_equal(a.channel, c.channel)
    assert a.channel.shape == (10, 50)
    assert set(np.unique(a.symbols)) <= {-1.0, 1.0}


def test_realization_follows_the_seed_contract():
    # Channel, then symbols, then noise, all from one default_rng stream;
    # the channel is scaled after drawing, so its bytes are the plain
    # quotient.  A draw into a reused buffer, which holds another seed's
    # channel beforehand, gives the same bytes.
    p = SystemParams(**PINNED, n_antennas=50)
    m, n = p.n_users, p.n_antennas
    buffer = generate_realization(p, 999).channel
    for seed in (0, 123, 2**40 + 7):
        real = generate_realization(p, seed)
        rng = np.random.default_rng(seed)
        channel = rng.standard_normal((m, n)) / math.sqrt(n)
        symbols = rng.integers(0, 2, size=m) * 2.0 - 1.0
        noise = rng.standard_normal(m) * math.sqrt(p.noise_var)
        assert not np.array_equal(buffer, channel)
        reused = _draw(p, seed, buffer)
        assert reused.channel is buffer
        for r in (real, reused):
            assert r.channel.tobytes() == channel.tobytes()
            assert r.symbols.tobytes() == symbols.tobytes()
            assert r.noise.tobytes() == noise.tobytes()
            assert r.seed == seed


def test_channel_variance_scales_with_array_size():
    p = SystemParams(user_ratio=0.5, reg=1.0, amp=1.0, n_antennas=4000)
    real = generate_realization(p, 5)
    assert abs(real.channel.var() * 4000 - 1.0) < 0.05


def test_quantize_maps_zero_up():
    x = np.array([-2.0, -0.0, 0.0, 3.0])
    out = quantize(x, 0.25)
    # -0.0 >= 0 in IEEE ordering, so both zero signs go to +level.
    assert np.array_equal(out, [-0.25, 0.25, 0.25, 0.25])


def test_solution_is_feasible_and_stationary():
    p = SystemParams(**PINNED, n_antennas=300)
    real = generate_realization(p, 9)
    sol = solve_box_qp(real, p)
    assert float(np.abs(sol.x_hat).max()) <= p.amp
    assert sol.kkt_residual < 1e-9
    assert np.array_equal(sol.x_quant, quantize(sol.x_hat, p.level))


def test_matches_enumeration_on_small_instances():
    for seed, ratio, reg, amp in [(0, 0.5, 0.3, 0.7), (1, 1.0, 0.05, 1.5), (2, 0.75, 1.0, 0.3)]:
        p = SystemParams(user_ratio=ratio, reg=reg, amp=amp, n_antennas=8)
        real = generate_realization(p, seed)
        sol = solve_box_qp(real, p)
        x_ref, cost_ref = box_qp_by_enumeration(
            real.channel, real.symbols, reg, amp, p.target_power
        )
        assert abs(sol.cost - cost_ref) < 1e-10
        assert float(np.abs(sol.x_hat - x_ref).max()) < 1e-9


def test_unbounded_box_equals_ridge_solution():
    p = SystemParams(user_ratio=0.5, reg=0.7, amp=math.inf, n_antennas=60)
    real = generate_realization(p, 21)
    sol = solve_box_qp(real, p)
    h = real.channel
    target = math.sqrt(p.target_power) * real.symbols
    x_ref = np.linalg.solve(h.T @ h + p.reg * np.eye(60), h.T @ target)
    assert float(np.abs(sol.x_hat - x_ref).max()) < 1e-10


def test_polish_reaches_tight_tolerance():
    # Momentum steps alone stall near float cost resolution; the
    # active-set polish must carry the iterate to a 1e-11 residual.
    p = SystemParams(user_ratio=0.625, reg=0.01, amp=0.7, n_antennas=8)
    real = generate_realization(p, 1002)
    sol = solve_box_qp(real, p, tol=1e-11)
    assert sol.kkt_residual < 1e-11


def _cost_and_kkt(real, p, x):
    """Cost and KKT residual of ``x``, computed from scratch."""
    h = real.channel
    n = h.shape[1]
    r = h @ x - math.sqrt(p.target_power) * real.symbols
    cost = float(r @ r + p.reg * (x @ x)) / n
    g = (2.0 / n) * (h.T @ r + p.reg * x)
    viol = np.where(x >= p.amp, np.maximum(g, 0.0), np.abs(g))
    viol = np.where(x <= -p.amp, np.maximum(-g, 0.0), viol)
    return cost, float(viol.max())


def _clipped_ridge(real, p):
    h = real.channel
    n = h.shape[1]
    x, *_ = np.linalg.lstsq(
        np.vstack([h, math.sqrt(p.reg) * np.eye(n)]),
        np.concatenate([math.sqrt(p.target_power) * real.symbols, np.zeros(n)]),
        rcond=None,
    )
    return np.clip(x, -p.amp, p.amp)


def test_iteration_budget_is_enforced():
    # The start is the first iteration, and on this heavily clipped
    # instance neither the clipped ridge point nor the clipped matched
    # filter (the start taken here) is stationary, so a one-iteration
    # budget cannot be met.  Nor can five: every trial gradient step,
    # accepted or backtracked, spends one of them.
    p = SystemParams(user_ratio=0.2, reg=0.001, amp=0.2, noise_var=0.09, n_antennas=200)
    real = generate_realization(p, 4)
    assert _cost_and_kkt(real, p, _clipped_ridge(real, p))[1] > 1e-6
    for budget in (1, 5):
        with pytest.raises(SolverError, match=f"no convergence in {budget} iterations"):
            solve_box_qp(real, p, max_iter=budget)
    assert solve_box_qp(real, p).kkt_residual < 1e-9


def test_zero_curvature_raises():
    # An all-zero channel with reg 0 leaves the cost flat: no step length
    # is defined and every point of the box is optimal.
    p = SystemParams(user_ratio=1.0, reg=0.0, amp=0.5, noise_var=0.09, n_antennas=20)
    real = generate_realization(p, 3)
    flat = Realization(
        channel=np.zeros_like(real.channel), symbols=real.symbols,
        noise=real.noise, seed=real.seed,
    )
    with pytest.raises(SolverError, match="zero curvature"):
        solve_box_qp(flat, p)


@pytest.mark.parametrize("amp", [0.3, math.inf], ids=["clipped", "unbounded"])
def test_unreachable_tolerance_raises(amp):
    p = SystemParams(user_ratio=0.5, reg=0.01, amp=amp, n_antennas=60)
    real = generate_realization(p, 8)
    with pytest.raises(SolverError):
        solve_box_qp(real, p, tol=1e-30)


def test_loose_box_returns_ridge_solution_in_one_solve():
    # A finite box just wider than the ridge solution: the ridge start is
    # already the answer.
    kw = dict(user_ratio=0.2, reg=FIG3_REG, n_antennas=400)
    real = generate_realization(SystemParams(amp=1.0, **kw), 12)
    h = real.channel
    # target_power is 1, so the target is the symbol vector itself.
    x_ref = np.linalg.solve(h.T @ h + FIG3_REG * np.eye(400), h.T @ real.symbols)
    sol = solve_box_qp(real, SystemParams(amp=1.01 * float(np.abs(x_ref).max()), **kw))
    assert sol.iterations == 1
    assert float(np.abs(sol.x_hat - x_ref).max()) < 1e-10


def _assert_certified(p, seed):
    """Solve ``(p, seed)``, check it against the optimality certificate,
    and return the number of coordinates on the box and off it."""
    real = generate_realization(p, seed)
    sol = solve_box_qp(real, p)
    deviation, worst = box_qp_certificate(
        real.channel, real.symbols, p.reg, p.amp, p.target_power, sol.x_hat
    )
    assert deviation < 1e-10
    assert worst >= -1e-12
    n_free = int(np.count_nonzero(np.abs(sol.x_hat) < p.amp))
    return p.n_antennas - n_free, n_free


def test_fig3_solutions_are_certified_optimal():
    # At box size 0.774 a 1e-9 KKT residual alone left x_hat up to 5e-4
    # from the optimum (seeds 1000 and 1001): reg is tiny, so the cost is
    # nearly flat along some directions.  At the two tighter fig3 boxes
    # the active-set point is rejected and APG resumes with a tighter
    # hand-over (88 and 26 gradient steps).
    instances = [(0.774263682681127, seed) for seed in range(1000, 1005)]
    instances += [(0.46415888336127786, 90015), (0.2782559402207124, 90041)]
    for amp, seed in instances:
        p = SystemParams(
            user_ratio=0.2, reg=FIG3_REG, amp=amp, noise_var=0.09, n_antennas=1000
        )
        _assert_certified(p, seed)
    # At box size 1.29 only a few coordinates clip, so the free block's
    # gram is the full gram minus the active columns' part.
    for seed in (90250, 90251):
        p = SystemParams(
            user_ratio=0.2, reg=FIG3_REG, amp=1.2915496650148839, noise_var=0.09,
            n_antennas=1000,
        )
        n_active, n_free = _assert_certified(p, seed)
        assert 0 < n_active < n_free


@pytest.mark.parametrize(
    "user_ratio, amp, seeds",
    [
        (0.15, 0.47287080450158786, (40150, 40151)),  # fig4-left quantized point 3
        (0.2, 0.6069622310029172, (41200, 41201)),  # fig4-right quantized point 4
    ],
    ids=["fig4-left", "fig4-right"],
)
def test_fig4_solutions_are_certified_optimal(user_ratio, amp, seeds):
    # The tuned one-bit box sizes: the first active-set point is rejected
    # on nearly every draw, and the accepted one comes after APG resumes.
    for seed in seeds:
        p = SystemParams(
            user_ratio=user_ratio, reg=0.001, amp=amp, noise_var=0.09, n_antennas=800
        )
        _assert_certified(p, seed)


@pytest.mark.parametrize(
    "amp, seed",
    list(zip(PRESETS["fig3"]["sweep"]["values"][2:6], (90041, 90015, 1000, 90250))),
    ids=lambda v: f"{v:.3f}" if isinstance(v, float) else str(v),
)
def test_handover_moves_the_work_not_the_bits(monkeypatch, amp, seed):
    # The returned point is the clipped free-block solve on the final
    # active set, so the APG hand-over threshold changes how the search
    # gets there (the iteration counts differ) but not the bits of x_hat.
    # That is what makes a change to the search byte-safe.  The bits are
    # the same for one BLAS kernel only: under another kernel the search
    # can end on a different active set (fig4-right's trial 41229 under
    # OpenBLAS's Haswell kernel), so the bytes can differ across kernels.
    p = SystemParams(
        user_ratio=0.2, reg=FIG3_REG, amp=amp, level=FIG3_LEVEL, noise_var=0.09,
        n_antennas=1000,
    )
    real = generate_realization(p, seed)
    want = solve_box_qp(real, p).x_hat.tobytes()
    for handover in (1e-4, 1e-6):
        monkeypatch.setattr(precoder, "_HANDOVER", handover)
        assert solve_box_qp(real, p).x_hat.tobytes() == want


def test_certified_where_power_iteration_undershoots():
    # On this draw 50 power iterations on the gram fall 2.04% short of its
    # top eigenvalue, so a power-iteration step with a 2% margin was not
    # safe; the step must come from the measured curvature instead.
    p = SystemParams(user_ratio=0.5, reg=0.001, amp=0.5, noise_var=0.09, n_antennas=2000)
    n_active, n_free = _assert_certified(p, 2)
    assert n_active > 0 and n_free > 0


def _logged_solves(monkeypatch, real, p):
    """Solve ``real`` at ``p``; return the solution and, per exact solve in
    order, whether it ran with nothing on the box (its system is the full
    gram, before the ``reg`` shift) and whether it fell back to least
    squares."""
    h = real.channel
    full = h @ h.T if h.shape[0] <= h.shape[1] else h.T @ h
    bare, fell_back = [], []
    shifted = precoder._shifted_solve
    lstsq = np.linalg.lstsq

    def logged_shifted(system, reg, rhs):
        bare.append(np.array_equal(system, full))
        fell_back.append(False)
        return shifted(system, reg, rhs)

    def logged_lstsq(*args, **kwargs):
        fell_back[-1] = True
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(precoder, "_shifted_solve", logged_shifted)
    monkeypatch.setattr(np.linalg, "lstsq", logged_lstsq)
    sol = solve_box_qp(real, p)
    monkeypatch.undo()
    return sol, bare, fell_back


@pytest.mark.parametrize(
    "kw, seed",
    [
        (dict(user_ratio=0.2, reg=FIG3_REG, amp=0.2782559402207124, n_antennas=1000), 90041),
        (dict(user_ratio=0.15, reg=0.001, amp=0.47287080450158786, n_antennas=800), 40150),
    ],
    ids=["fig3-amp0.278", "fig4-left-tuned"],
)
def test_tight_box_starts_without_the_full_ridge_solve(monkeypatch, kw, seed):
    # The saddle point predicts fewer free coordinates than users, so the
    # start is the clipped matched filter and no solve runs with nothing on
    # the box.  The answer is certified, and it is the same bytes as with
    # the ridge start, which a failing saddle solve falls back to.
    p = SystemParams(noise_var=0.09, **kw)
    alpha = solve_saddle(p).alpha
    assert p.n_antennas * (1.0 - 2.0 * q_tail(p.amp * alpha)) < p.n_users
    real = generate_realization(p, seed)
    sol, bare, _ = _logged_solves(monkeypatch, real, p)
    assert bare and not any(bare)
    deviation, worst = box_qp_certificate(
        real.channel, real.symbols, p.reg, p.amp, p.target_power, sol.x_hat
    )
    assert deviation < 1e-10
    assert worst >= -1e-12

    def no_saddle(_):
        raise SolverError("forced")

    monkeypatch.setattr(precoder, "solve_saddle", no_saddle)
    fallback, bare, _ = _logged_solves(monkeypatch, real, p)
    assert bare[0]
    assert np.array_equal(sol.x_hat, fallback.x_hat)


@pytest.mark.parametrize(
    "kw",
    [
        # Predicted free 752 >= m = 200.
        dict(user_ratio=0.2, reg=FIG3_REG, amp=0.774263682681127, n_antennas=1000),
        # More users than antennas: the start solves with H^T H.
        dict(user_ratio=1.25, reg=0.0, amp=0.3, n_antennas=80),
    ],
    ids=["fig3-amp0.774", "tall"],
)
def test_ridge_start_where_many_coordinates_are_free(monkeypatch, kw):
    p = SystemParams(noise_var=0.09, **kw)
    sol, bare, _ = _logged_solves(monkeypatch, generate_realization(p, 5), p)
    assert bare[0]
    assert sol.kkt_residual < 1e-9


@pytest.mark.parametrize("exc", [SolverError("no saddle"), DomainError("degenerate")])
def test_failed_saddle_solve_falls_back_to_the_ridge_start(monkeypatch, exc):
    def failing(_):
        raise exc

    p = SystemParams(user_ratio=0.2, reg=0.001, amp=0.2, noise_var=0.09, n_antennas=200)
    monkeypatch.setattr(precoder, "solve_saddle", failing)
    sol, bare, _ = _logged_solves(monkeypatch, generate_realization(p, 4), p)
    assert bare[0]
    assert sol.kkt_residual < 1e-9


@pytest.mark.parametrize(
    "user_ratio, amp, in_start, in_block",
    [
        (1.5, math.inf, True, False),
        (1.0, 0.5, False, True),
        (1.5, 0.3, True, True),
    ],
    ids=["tall-start", "square-block", "tall-both"],
)
def test_singular_solve_falls_back_to_least_squares(
    monkeypatch, user_ratio, amp, in_start, in_block
):
    # An all-zero channel column at reg = 0 leaves its coordinate out of
    # the cost.  A tall free block that holds it has a gram with an
    # exactly zero row and column, on which LU fails; the square m x m
    # gram H H^T is singular only up to rounding and solves.
    p = SystemParams(user_ratio=user_ratio, reg=0.0, amp=amp, noise_var=0.09, n_antennas=20)
    real = generate_realization(p, 3)
    real.channel[:, 7] = 0.0
    sol, bare, fell_back = _logged_solves(monkeypatch, real, p)
    assert any(b and f for b, f in zip(bare, fell_back)) == in_start
    assert any(f and not b for b, f in zip(bare, fell_back)) == in_block
    assert sol.kkt_residual < 1e-9
    assert _cost_and_kkt(real, p, sol.x_hat)[1] < 1e-9


@settings(max_examples=150, deadline=None)
@given(
    user_ratio=st.floats(min_value=0.05, max_value=3.0),
    reg=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e2)),
    amp=st.one_of(st.floats(min_value=0.05, max_value=20.0), st.just(math.inf)),
    target_power=st.floats(min_value=1e-2, max_value=1e2),
    n=st.sampled_from([20, 100, 400]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stationary_over_the_domain(user_ratio, reg, amp, target_power, n, seed):
    assume(reg > 0.0 or user_ratio >= 1.0)
    p = SystemParams(
        user_ratio=user_ratio, reg=reg, amp=amp, target_power=target_power, n_antennas=n
    )
    real = generate_realization(p, seed)
    sol = solve_box_qp(real, p)
    cost, resid = _cost_and_kkt(real, p, sol.x_hat)
    assert float(np.abs(sol.x_hat).max()) <= p.amp
    assert resid < 1e-9
    ridge_cost = _cost_and_kkt(real, p, _clipped_ridge(real, p))[0]
    assert cost <= ridge_cost + 1e-12 * max(1.0, ridge_cost)


def test_wide_polish_matches_dense_ridge_solve():
    # More free coordinates than users: the polish takes the m x m dual
    # route, which must agree with the n_free x n_free normal equations.
    # Its gram is G - H_A H_A^T when fewer coordinates are active than
    # free (box 0.8), else H_F H_F^T (box 0.6).
    for amp, downdate in [(0.8, True), (0.6, False)]:
        p = SystemParams(
            user_ratio=0.2, reg=0.01, amp=amp, noise_var=0.09, n_antennas=400
        )
        real = generate_realization(p, 7)
        sol = solve_box_qp(real, p)
        h = real.channel
        free = np.abs(sol.x_hat) < p.amp
        n_free = int(free.sum())
        assert h.shape[0] < n_free < h.shape[1]
        assert (h.shape[1] - n_free < n_free) == downdate
        rhs = math.sqrt(p.target_power) * real.symbols - h[:, ~free] @ sol.x_hat[~free]
        h_free = h[:, free]
        x_ref = np.linalg.solve(
            h_free.T @ h_free + p.reg * np.eye(n_free), h_free.T @ rhs
        )
        assert float(np.abs(sol.x_hat[free] - x_ref).max()) < 1e-10


def test_matched_filter_start_forms_the_gram_when_a_wide_block_needs_it(monkeypatch):
    # A prediction gone wrong: the matched-filter start on a box where
    # most coordinates are free.  The downdated free-block solve then
    # forms G itself, and the answer is the ridge start's.
    p = SystemParams(user_ratio=0.2, reg=0.01, amp=0.8, noise_var=0.09, n_antennas=400)
    real = generate_realization(p, 7)
    expected = solve_box_qp(real, p)
    monkeypatch.setattr(precoder, "_few_free", lambda *_: True)
    sol = solve_box_qp(real, p)
    free = int(np.count_nonzero(np.abs(sol.x_hat) < p.amp))
    assert p.n_users <= free and p.n_antennas - free < free
    assert sol.kkt_residual < 1e-9
    assert float(np.abs(sol.x_hat - expected.x_hat).max()) < 1e-10


def _lines_run(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the set of ``solve_box_qp`` lines it ran."""
    code = precoder.solve_box_qp.__code__
    lines = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    saved = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return fn(*args, **kwargs), lines
    finally:
        sys.settrace(saved)


def _solve_box_qp_line(text: str) -> int:
    """The number of the one line of ``solve_box_qp`` that contains ``text``."""
    source, start = inspect.getsourcelines(precoder.solve_box_qp)
    (i,) = [i for i, line in enumerate(source) if text in line]
    return start + i


def _assert_loose_polish(p, seed, accepted):
    # With tol above the hand-over, the gradient phase itself meets tol
    # when the active-set point is rejected; the solver then tries one
    # free-block solve on the iterate's active set and keeps the iterate
    # unless that solve passes the same checks.
    real = generate_realization(p, seed)
    sol, lines = _lines_run(solve_box_qp, real, p, tol=1e-4)
    assert _solve_box_qp_line("free_solve(x >= amp, x <= -amp)") in lines
    accept = _solve_box_qp_line("return _solution(x_fs, params, c_fs, r_fs, iterations)")
    assert (accept in lines) == accepted
    cost, resid = _cost_and_kkt(real, p, sol.x_hat)
    assert float(np.abs(sol.x_hat).max()) <= p.amp
    assert resid < 1e-4
    assert cost == pytest.approx(sol.cost, rel=1e-12)
    assert cost <= _cost_and_kkt(real, p, _clipped_ridge(real, p))[0]


def test_loose_tolerance_after_rejected_active_set():
    # At fig4-left's tuned one-bit box most draws reach the free-block
    # solve, and it fails the checks: the iterate is kept.
    p = SystemParams(user_ratio=0.15, reg=0.001, amp=0.473, noise_var=0.09, n_antennas=800)
    _assert_loose_polish(p, 40000, accepted=False)


def test_loose_tolerance_free_block_solve_accepted():
    # A rare draw where that solve passes the checks: in a random search
    # over small instances, 1 in 50 to 1 in 80 of the solves that reached
    # the free-block solve kept its point.
    p = SystemParams(user_ratio=0.15, reg=1e-4, amp=0.5, noise_var=0.09, n_antennas=40)
    _assert_loose_polish(p, 68, accepted=True)


def _ks_to_clipped_gaussian(sample: np.ndarray, alpha: float, amp: float) -> float:
    """Kolmogorov-Smirnov distance to the clamp(H/alpha, +-amp) law.

    The law has atoms at +-amp and the sample ties there, so both
    one-sided limits are compared at every unique sample value.
    """
    xs = np.sort(sample)
    n = xs.size
    values = np.unique(xs)
    emp_le = np.searchsorted(xs, values, side="right") / n
    emp_lt = np.searchsorted(xs, values, side="left") / n

    def cdf(x: float, left: bool) -> float:
        if x < -amp or (left and x <= -amp):
            return 0.0
        if x > amp or (not left and x >= amp):
            return 1.0
        return 1.0 - q_tail(alpha * x)

    worst = 0.0
    for v, hi, lo in zip(values, emp_le, emp_lt):
        worst = max(worst, abs(hi - cdf(float(v), False)), abs(lo - cdf(float(v), True)))
    return worst


@pytest.mark.parametrize(
    "kw",
    [
        dict(reg=1.0, amp=1.0),  # essentially no clipping
        dict(reg=0.001, amp=0.47287080450158786),  # ~84% of entries clip
    ],
    ids=["interior", "clipped"],
)
def test_entry_law_converges_to_clipped_gaussian(kw):
    p = SystemParams(user_ratio=0.2, noise_var=0.09, n_antennas=2000, **kw)
    sp = solve_saddle(p)
    real = generate_realization(p, 11)
    sol = solve_box_qp(real, p)
    assert _ks_to_clipped_gaussian(sol.x_hat, sp.alpha, p.amp) < 0.05
