"""Finite-dimensional precoder: box-constrained ridge LS plus one-bit output.

The transmit vector is obtained in two stages.  First solve

    minimize  ||H x - sqrt(target_power) s||^2 / n + reg ||x||^2 / n
    subject to ||x||_inf <= amp

for the relaxed vector ``x_hat`` (accelerated projected gradient with
momentum restart), then map it through the one-bit DAC,
``x_q = level * sign(x_hat)`` with ``sign(0) := +1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .saddle import SystemParams

__all__ = [
    "PrecoderSolution",
    "Realization",
    "generate_realization",
    "quantize",
    "solve_box_qp",
]

_POWER_ITERS = 50


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class PrecoderSolution:
    """Output of :func:`solve_box_qp`.

    ``cost_trace`` is only populated on traced runs; costs are
    non-increasing by construction (momentum restarts on any increase).
    """

    x_hat: np.ndarray
    x_quant: np.ndarray
    cost: float
    kkt_residual: float
    iterations: int
    cost_trace: np.ndarray | None = None


def generate_realization(params: SystemParams, seed: int) -> Realization:
    """Draw a seeded channel, symbol, and noise tuple for ``params``."""
    rng = np.random.default_rng(seed)
    n = params.n_antennas
    m = params.n_users
    channel = rng.standard_normal((m, n)) / math.sqrt(n)
    symbols = rng.integers(0, 2, size=m) * 2.0 - 1.0
    noise = rng.standard_normal(m) * math.sqrt(params.noise_var)
    return Realization(channel=channel, symbols=symbols, noise=noise, seed=seed)


def quantize(x: np.ndarray, level: float) -> np.ndarray:
    """One-bit DAC: ``level * sign(x)`` with ``sign(0) := +1``."""
    return np.where(x >= 0.0, level, -level)


def _norm2_sq(channel: np.ndarray) -> float:
    """Squared spectral norm estimate via a fixed-length power method."""
    n = channel.shape[1]
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(_POWER_ITERS):
        w = channel.T @ (channel @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(v @ (channel.T @ (channel @ v)))


def solve_box_qp(
    real: Realization,
    params: SystemParams,
    tol: float = 1e-9,
    max_iter: int = 20000,
    trace: bool = False,
) -> PrecoderSolution:
    """Solve the box-constrained ridge LS program for one realization.

    Accelerated projected gradient with fixed step ``1/L`` (``L`` from a
    50-iteration power method, 2% safety margin) and momentum restart
    whenever the accelerated candidate raises the cost.  An iteration
    costs 2 matvecs (cost and gradient at the candidate; the momentum
    point's gradient follows from the last two by linearity), plus 2
    more on a restart.  Terminates when the per-coordinate KKT violation
    falls below ``tol``, then sharpens the iterate with one active-set
    polish: coordinates sitting on the box stay fixed, the free block is
    re-solved exactly through the smaller of its ``n_free x n_free`` and
    ``m x m`` linear systems, and the result is kept only if it lowers
    both the KKT residual and the cost.

    Raises
    ------
    SolverError
        When ``max_iter`` is exhausted, or the iteration stalls at float
        resolution, before reaching ``tol`` (the polish step gets a
        chance to rescue either case first); the message carries the
        last KKT residual.
    """
    channel = real.channel
    n = channel.shape[1]
    target = math.sqrt(params.target_power) * real.symbols
    reg = params.reg
    amp = params.amp
    bounded = math.isfinite(amp)
    lip = 1.02 * (2.0 / n) * (_norm2_sq(channel) + reg)
    if lip == 0.0:
        raise SolverError("zero curvature: channel and reg are both zero")
    step = 1.0 / lip

    def project(v: np.ndarray) -> np.ndarray:
        return np.clip(v, -amp, amp) if bounded else v

    def cost_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        r = channel @ x - target
        c = (r @ r + reg * (x @ x)) / n
        g = (2.0 / n) * (channel.T @ r + reg * x)
        return float(c), g

    def kkt(x: np.ndarray, g: np.ndarray) -> float:
        viol = np.abs(g)
        if bounded:
            viol = np.where(x >= amp, np.maximum(g, 0.0), viol)
            viol = np.where(x <= -amp, np.maximum(-g, 0.0), viol)
        return float(viol.max()) if viol.size else 0.0

    x = np.zeros(n)
    cost, grad = cost_and_grad(x)
    resid = kkt(x, grad)
    y, g_y = x, grad
    t_m = 1.0
    costs = [cost] if trace else None
    iterations = 0
    if resid < tol:
        return _solution(x, params, cost, resid, iterations, costs)
    stalled = False
    for iterations in range(1, max_iter + 1):
        cand = project(y - step * g_y)
        c_cand, g_cand = cost_and_grad(cand)
        if c_cand > cost:
            # Momentum overshot: restart from the last accepted point.
            t_m = 1.0
            cand = project(x - step * grad)
            c_cand, g_cand = cost_and_grad(cand)
            if c_cand > cost:
                # Stalled at float resolution.
                resid = kkt(x, grad)
                stalled = True
                break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_m * t_m))
        mom = (t_m - 1.0) / t_next
        y = cand + mom * (cand - x)
        # The gradient is affine, so the momentum point's gradient is the
        # same combination of the last two accepted gradients.
        g_y = g_cand + mom * (g_cand - grad)
        x, cost, grad = cand, c_cand, g_cand
        t_m = t_next
        if costs is not None:
            costs.append(cost)
        resid = kkt(x, grad)
        if resid < tol:
            break
    polished = _polish(channel, target, reg, amp, bounded, x, cost, resid, cost_and_grad, kkt)
    if polished is not None:
        x, cost, grad, resid = polished
    if resid >= tol:
        if stalled:
            raise SolverError(
                f"stalled at cost resolution with KKT residual {resid:.3e}"
            )
        raise SolverError(
            f"no convergence in {max_iter} iterations; last KKT residual {resid:.3e}"
        )
    return _solution(x, params, cost, resid, iterations, costs)


def _polish(
    channel: np.ndarray,
    target: np.ndarray,
    reg: float,
    amp: float,
    bounded: bool,
    x: np.ndarray,
    cost: float,
    resid: float,
    cost_and_grad,
    kkt,
) -> tuple[np.ndarray, float, np.ndarray, float] | None:
    """Re-solve the free block exactly under the current active set.

    Returns the improved ``(x, cost, grad, kkt_residual)`` tuple, or
    ``None`` when the active-set guess is rejected: a freed coordinate
    lands on or outside the box, the linear solve degenerates, or the
    candidate fails to beat the incoming residual and cost.
    """
    n = x.shape[0]
    free = np.abs(x) < amp if bounded else np.ones(n, dtype=bool)
    n_free = int(free.sum())
    if n_free == 0:
        return None
    h_free = channel[:, free]
    rhs = target if n_free == n else target - channel[:, ~free] @ x[~free]
    # Solve the smaller of the two equivalent ridge systems: the
    # n_free x n_free normal equations, or (Woodbury) the m x m dual
    # x_free = H_f^T (H_f H_f^T + reg I)^-1 rhs, which SystemParams keeps
    # nonsingular by forbidding reg = 0 when m < n.
    wide = n_free > channel.shape[0]
    try:
        gram = h_free @ h_free.T if wide else h_free.T @ h_free
        gram[np.diag_indices_from(gram)] += reg
        if wide:
            x_free = h_free.T @ np.linalg.solve(gram, rhs)
        else:
            x_free = np.linalg.solve(gram, h_free.T @ rhs)
    except np.linalg.LinAlgError:
        x_free, *_ = np.linalg.lstsq(h_free, rhs, rcond=None)
    if not np.all(np.isfinite(x_free)):
        return None
    if bounded and float(np.abs(x_free).max()) >= amp:
        return None
    x_pol = x.copy()
    x_pol[free] = x_free
    c_pol, g_pol = cost_and_grad(x_pol)
    r_pol = kkt(x_pol, g_pol)
    if r_pol < resid and c_pol <= cost + 1e-12 * max(1.0, abs(cost)):
        return x_pol, c_pol, g_pol, r_pol
    return None


def _solution(
    x: np.ndarray,
    params: SystemParams,
    cost: float,
    resid: float,
    iterations: int,
    costs: list[float] | None,
) -> PrecoderSolution:
    return PrecoderSolution(
        x_hat=x,
        x_quant=quantize(x, params.level),
        cost=cost,
        kkt_residual=resid,
        iterations=iterations,
        cost_trace=None if costs is None else np.asarray(costs),
    )
