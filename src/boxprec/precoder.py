"""Finite-dimensional precoder: box-constrained ridge LS plus one-bit output.

The transmit vector is obtained in two stages.  First solve

    minimize  ||H x - sqrt(target_power) s||^2 / n + reg ||x||^2 / n
    subject to ||x||_inf <= amp

exactly for the relaxed vector ``x_hat`` (a start chosen from the
saddle point, accelerated projected gradient to a loose tolerance, then a
primal-dual active-set finish), then map it through the one-bit DAC,
``x_q = level * sign(x_hat)`` with ``sign(0) := +1``.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .errors import DomainError, SolverError
from .moments import q_tail
from .saddle import SystemParams, solve_saddle

__all__ = [
    "PrecoderSolution",
    "Realization",
    "generate_realization",
    "quantize",
    "solve_box_qp",
]

# KKT residual at which the gradient phase first hands over to the
# active-set phase.
_HANDOVER = 1e-5


@record
class Realization:
    """One finite-size channel draw.

    ``channel`` is ``(m, n)`` with i.i.d. ``N(0, 1/n)`` entries,
    ``symbols`` the ``+-1`` payload, ``noise`` the receiver noise with
    variance ``noise_var``.  Draw order is channel, symbols, noise, so a
    seed pins the whole tuple.
    """

    channel: np.ndarray
    symbols: np.ndarray
    noise: np.ndarray
    seed: int


@record
class PrecoderSolution:
    """Output of :func:`solve_box_qp`.

    ``iterations`` counts the start, trial gradient steps (accepted or
    backtracked) and active-set or free-block solves: 1 when the ridge
    start lies inside the box.  The count follows the last bit of the
    dual step (``x_hat`` can stay bit-identical while it moves), so it is
    stable only for a fixed build and BLAS kernel; no CSV column or meta
    field holds it.
    """

    x_hat: np.ndarray
    x_quant: np.ndarray
    cost: float
    kkt_residual: float
    iterations: int


def generate_realization(params: SystemParams, seed: int) -> Realization:
    """Draw a seeded channel, symbol, and noise tuple for ``params``."""
    return _draw(params, seed, np.empty((params.n_users, params.n_antennas)))


def _draw(params: SystemParams, seed: int, channel: np.ndarray) -> Realization:
    """:func:`generate_realization` with the channel drawn into ``channel``.

    ``channel`` is a C-contiguous float64 ``(m, n)`` array whose contents
    are overwritten; the returned realization holds it, not a copy.  The
    draw calls no BLAS.
    """
    rng = np.random.default_rng(seed)
    rng.standard_normal(out=channel)
    channel /= math.sqrt(params.n_antennas)
    symbols = rng.integers(0, 2, size=params.n_users) * 2.0 - 1.0
    noise = rng.standard_normal(params.n_users) * math.sqrt(params.noise_var)
    return Realization(channel=channel, symbols=symbols, noise=noise, seed=seed)


def quantize(x: np.ndarray, level: float) -> np.ndarray:
    """One-bit DAC: ``level * sign(x)`` with ``sign(0) := +1``."""
    return np.where(x >= 0.0, level, -level)


def solve_box_qp(
    real: Realization,
    params: SystemParams,
    tol: float = 1e-9,
    max_iter: int = 20000,
) -> PrecoderSolution:
    """Solve the box-constrained ridge LS program for one realization.

    Every exact solve, the start's included, is a free-block solve
    (phase 3), and those with at least ``m`` free coordinates share one
    gram ``G = H H^T``, formed by the first of them:

    1. *Start.*  The saddle point predicts the law of each entry,
       ``clamp(H / alpha, [-amp, amp])``, so a fraction
       ``1 - 2 Q(amp alpha)`` of the ``n`` coordinates is free.  With a
       finite box, ``m <= n`` and fewer than ``m`` coordinates predicted
       free, the start is the clipped matched filter
       ``H^T t / (1 + reg)``: the ridge point would mostly be clipped
       away, and no free block that small reads ``G``.  Otherwise, or
       when the saddle solve fails, the start is the ridge solution, the
       free-block solve with nothing on the box; when it lies strictly
       inside the box (always when ``amp = inf``) it is the exact
       answer.  The prediction only picks the start: every returned
       point passes the same acceptance test.
    2. *Accelerated projected gradient* from the clipped start,
       down to a KKT residual of ``1e-5``, with momentum restart whenever
       the accelerated candidate raises the cost.  The step ``1/L``
       backtracks on the exact sufficient-decrease test (Beck & Teboulle
       2009): the cost is quadratic, so a candidate ``y + d`` passes when
       the curvature ``(2/n)(||H d||^2 + reg ||d||^2) / ||d||^2`` along
       ``d`` is at most ``L``, and ``H d`` is the difference of two
       residuals already in hand.  ``L`` starts at the mean Hessian
       diagonal, rises on a failed test to the larger of ``2 L`` and the
       measured curvature, and each step starts again from the curvature
       measured along the last accepted one (Scheinberg, Goldfarb & Bai
       2014).  A trial step costs 1 matvec, plus 1 more when accepted.
    3. *Primal-dual active set* (Hintermüller, Ito & Kunisch 2002) with
       dual step ``c`` = mean Hessian diagonal: coordinates whose
       predictor ``x - grad / c`` leaves the box are fixed on it, the
       free block is re-solved exactly, until the active set repeats
       (or, as a guard against wandering, the number of coordinates
       changing sides stops falling).  A free block with at least ``m``
       coordinates is solved through its ``m x m`` gram, taken as
       ``G - H_A H_A^T`` when fewer coordinates are active than free
       and as ``H_F H_F^T`` otherwise; ``H_F^T w`` is read off
       ``H^T w``.  Fewer free coordinates than ``m`` use the free
       block's own gram; a singular system falls back to least
       squares.  The clipped result is accepted when its freshly
       computed KKT residual is below ``tol`` and its cost does not
       exceed the gradient phase's.  Otherwise phase 2 resumes from the
       better of the two points with a 10 times smaller hand-over
       residual.  When phase 2 itself has reached ``tol`` and the
       active-set point is rejected, one free-block solve on the
       iterate's own active set replaces it if that passes the same
       test.

    ``max_iter`` bounds the trial gradient steps (accepted or
    backtracked) plus linear solves.

    Raises
    ------
    SolverError
        When the cost has zero curvature (an all-zero channel with
        ``reg = 0``), or when ``max_iter`` is exhausted, or the gradient
        phase stalls at float resolution, before a point meets ``tol``;
        the last two messages carry the last KKT residual.
    """
    channel = real.channel
    m, n = channel.shape
    target = math.sqrt(params.target_power) * real.symbols
    reg = params.reg
    amp = params.amp
    bounded = math.isfinite(amp)

    def project(v: np.ndarray) -> np.ndarray:
        return np.clip(v, -amp, amp) if bounded else v

    def cost_at(x: np.ndarray, res: np.ndarray) -> float:
        return float((res @ res + reg * (x @ x)) / n)

    def gradient(x: np.ndarray, res: np.ndarray) -> np.ndarray:
        return (2.0 / n) * (channel.T @ res + reg * x)

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """Residual ``H x - target``, cost and gradient at ``x``."""
        res = channel @ x - target
        return res, cost_at(x, res), gradient(x, res)

    def kkt(x: np.ndarray, g: np.ndarray) -> float:
        viol = np.abs(g)
        if bounded:
            viol = np.where(x >= amp, np.maximum(g, 0.0), viol)
            viol = np.where(x <= -amp, np.maximum(-g, 0.0), viol)
        return float(viol.max()) if viol.size else 0.0

    gram = None

    def free_solve(up: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """``up``/``lo`` fixed on the box, the free block solved exactly
        through its smaller gram; with nothing fixed, the ridge solution.

        A wide block takes the dual (Woodbury) route, nonsingular since
        SystemParams forbids reg = 0 when m < n.
        """
        nonlocal gram
        x = np.where(up, amp, np.where(lo, -amp, 0.0))
        free = ~(up | lo)
        n_free = int(np.count_nonzero(free))
        fixed = n_free < n
        rhs = target - channel @ x if fixed else target
        try:
            if n_free < m:
                # A tall block: its gram h^T h serves this one solve only.
                h_free = channel[:, free] if fixed else channel
                x[free] = _shifted_solve(h_free.T @ h_free, reg, h_free.T @ rhs)
                return x
            # m <= n_free <= n, so G is H H^T, formed by the first solve
            # that needs it: take the free block's gram from G by the
            # cheaper route, and H_F^T w from H^T w.
            if n - n_free < n_free:
                if gram is None:
                    gram = channel @ channel.T
                h_act = channel[:, ~free]
                system = gram - h_act @ h_act.T if fixed else gram.copy()
            else:
                h_free = channel[:, free]
                system = h_free @ h_free.T
            x[free] = (channel.T @ _shifted_solve(system, reg, rhs))[free]
        except np.linalg.LinAlgError:
            x[free], *_ = np.linalg.lstsq(channel[:, free], rhs, rcond=None)
        return x

    iterations = 1
    if _few_free(params, m, n):
        x = channel.T @ target / (1.0 + reg)
        interior = False
    else:
        x = free_solve(np.zeros(n, bool), np.zeros(n, bool))
        interior = not bounded or float(np.abs(x).max()) < amp
    # The Hessian is (2/n)(H^T H + reg I); trace(H^T H) = trace(G) = ||H||_F^2.
    trace = np.trace(gram) if gram is not None else np.vdot(channel, channel)
    dual = (2.0 / n) * (float(trace) / n + reg)
    if dual == 0.0:
        raise SolverError("zero curvature: channel and reg are both zero")
    x = project(x)
    res, cost, grad = evaluate(x)
    resid = kkt(x, grad)
    if interior and resid < tol:
        return _solution(x, params, cost, resid, iterations)

    def checked(x: np.ndarray, cost: float) -> tuple[tuple, bool]:
        """``(x, res, cost, grad, resid)`` of the clipped ``x``, and whether
        it meets ``tol`` at no more than ``cost``."""
        x = project(x)
        res, c, g = evaluate(x)
        r = kkt(x, g)
        return (x, res, c, g, r), r < tol and c <= cost + 1e-12 * max(1.0, abs(cost))

    def active_set(x: np.ndarray, g: np.ndarray, budget: int) -> tuple[np.ndarray, int]:
        """Last PDAS iterate from ``(x, g)`` and the solves it took.

        Stops when the active set repeats, or when the number of
        coordinates that change sides fails to fall: far from the
        optimum PDAS can wander (free block near square, tiny reg).
        """
        moved = math.inf
        solves = 0
        while solves < budget:
            pred = x - g / dual
            up = pred > amp
            lo = pred < -amp
            if solves:
                changed = np.count_nonzero(up != was_up) + np.count_nonzero(lo != was_lo)
                if changed == 0 or changed >= moved:
                    break
                moved = changed
            was_up, was_lo = up, lo
            x_new = free_solve(up, lo)
            solves += 1
            if not np.all(np.isfinite(x_new)):
                break
            x = x_new
            _, _, g = evaluate(x)
        return x, solves

    lip = dual  # the step is 1 / lip
    handover = _HANDOVER
    while True:
        y, res_y, g_y = x, res, grad
        t_m = 1.0
        stalled = False
        while resid >= handover and iterations < max_iter:
            iterations += 1
            cand = project(y - g_y / lip)
            res_c = channel @ cand - target
            d = cand - y
            dd = float(d @ d)
            # The cost is quadratic, so its curvature along d is exact, and
            # H d is the difference of the two residuals.
            hd = res_c - res_y
            curv = (2.0 / n) * (float(hd @ hd) / dd + reg) if dd else 0.0
            if curv > lip:
                # Sufficient decrease fails: backtrack with a shorter step.
                lip = max(2.0 * lip, curv)
                continue
            c_cand = cost_at(cand, res_c)
            if c_cand > cost:
                if t_m == 1.0:
                    # y is x, and a safe step from it raised the cost:
                    # stalled at float resolution.
                    stalled = True
                    break
                # Momentum overshot: restart from the last accepted point.
                y, res_y, g_y, t_m = x, res, grad, 1.0
                continue
            g_cand = gradient(cand, res_c)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_m * t_m))
            mom = (t_m - 1.0) / t_next
            # The residual and the gradient are affine in x, so the momentum
            # point's are the same combination of the last two accepted ones.
            y = cand + mom * (cand - x)
            res_y = res_c + mom * (res_c - res)
            g_y = g_cand + mom * (g_cand - grad)
            x, res, cost, grad = cand, res_c, c_cand, g_cand
            t_m = t_next
            resid = kkt(x, grad)
            # Let the step grow: the next one starts from the curvature just
            # measured (a flat direction, curvature 0, keeps lip).
            lip = curv or lip
        x_as, solves = active_set(x, grad, max_iter - iterations)
        iterations += solves
        if solves:
            (x_as, res_as, c_as, g_as, r_as), ok = checked(x_as, cost)
            if ok:
                return _solution(x_as, params, c_as, r_as, iterations)
            if c_as < cost:
                x, res, cost, grad, resid = x_as, res_as, c_as, g_as, r_as
                stalled = False
        if resid < tol:
            # An APG iterate at KKT tol can still miss the optimal x_hat by
            # about tol * n / (2 reg); when its active set is the optimal
            # one, a free-block solve on it lands on the optimum exactly.
            if iterations < max_iter:
                iterations += 1
                (x_fs, _, c_fs, _, r_fs), ok = checked(
                    free_solve(x >= amp, x <= -amp), cost
                )
                if ok:
                    return _solution(x_fs, params, c_fs, r_fs, iterations)
            return _solution(x, params, cost, resid, iterations)
        if stalled:
            raise SolverError(
                f"stalled at cost resolution with KKT residual {resid:.3e}"
            )
        if iterations >= max_iter:
            raise SolverError(
                f"no convergence in {max_iter} iterations; last KKT residual {resid:.3e}"
            )
        handover /= 10.0


def _few_free(params: SystemParams, m: int, n: int) -> bool:
    """Whether the saddle point predicts fewer than ``m`` of ``n``
    coordinates off a finite box, with ``m <= n``.

    A saddle solve that raises predicts nothing (False).
    """
    if not math.isfinite(params.amp) or m > n:
        return False
    try:
        alpha = solve_saddle(params).alpha
    except (DomainError, SolverError):
        return False
    return n * (1.0 - 2.0 * q_tail(params.amp * alpha)) < m


def _shifted_solve(system: np.ndarray, reg: float, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(system + reg I) z = rhs``; ``system`` is shifted in place."""
    system.flat[:: system.shape[0] + 1] += reg
    return np.linalg.solve(system, rhs)


def _solution(
    x: np.ndarray,
    params: SystemParams,
    cost: float,
    resid: float,
    iterations: int,
) -> PrecoderSolution:
    return PrecoderSolution(
        x_hat=x,
        x_quant=quantize(x, params.level),
        cost=cost,
        kkt_residual=resid,
        iterations=iterations,
    )
