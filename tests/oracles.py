"""Slow independent oracles for the test suite.

Each oracle deliberately avoids the code path it is used to check:
moments by adaptive quadrature instead of closed forms, the scalar saddle
by damped fixed-point iteration instead of Newton's method, and the box
QP by active-set enumeration instead of projected gradients.  The plain
APG reference re-evaluates every gradient from the channel, so it checks
the solver's recycled momentum-point gradients.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate


def _pdf(h: float) -> float:
    return math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)


def moments_by_quadrature(alpha: float, amp: float) -> tuple[float, float, float]:
    """(e_abs, e_sq, e_xh) of clamp(H/alpha, +-amp) by adaptive quadrature."""
    opts = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
    if math.isinf(amp):
        e_abs = 2.0 * integrate.quad(lambda h: (h / alpha) * _pdf(h), 0.0, np.inf, **opts)[0]
        e_sq = 2.0 * integrate.quad(lambda h: (h / alpha) ** 2 * _pdf(h), 0.0, np.inf, **opts)[0]
        e_xh = 2.0 * integrate.quad(lambda h: h * (h / alpha) * _pdf(h), 0.0, np.inf, **opts)[0]
        return e_abs, e_sq, e_xh
    t = amp * alpha
    # center |h| < t where X = h/alpha, and the two clipped tails; the
    # standard normal density underflows beyond ~39, so cap the intervals
    hi = min(t, 45.0)
    if t <= 45.0:
        tail_p = integrate.quad(_pdf, t, np.inf, **opts)[0]
        tail_h = integrate.quad(lambda h: h * _pdf(h), t, np.inf, **opts)[0]
    else:
        tail_p = tail_h = 0.0
    e_abs = 2.0 * (
        integrate.quad(lambda h: (h / alpha) * _pdf(h), 0.0, hi, **opts)[0]
        + amp * tail_p
    )
    e_sq = 2.0 * (
        integrate.quad(lambda h: (h / alpha) ** 2 * _pdf(h), 0.0, hi, **opts)[0]
        + amp * amp * tail_p
    )
    e_xh = 2.0 * (
        integrate.quad(lambda h: h * (h / alpha) * _pdf(h), 0.0, hi, **opts)[0]
        + amp * tail_h
    )
    return e_abs, e_sq, e_xh


def saddle_by_fixed_point(
    user_ratio: float,
    reg: float,
    amp: float,
    target_power: float,
    tau0: float,
    beta0: float,
    damping: float = 0.7,
    tol: float = 1e-12,
    max_iter: int = 200000,
    moments=None,
) -> tuple[float, float]:
    """Damped 2-D fixed-point iteration on the saddle system.

    tau <- sqrt((target_power + E[X^2]) / user_ratio)
    beta <- 2 tau user_ratio - 2 E[H X]

    both relaxed by ``damping`` toward the previous iterate.  ``moments``
    defaults to the quadrature oracle, keeping this fully independent of
    the library's closed forms.
    """
    if moments is None:
        moments = moments_by_quadrature
    tau, beta = tau0, beta0
    for _ in range(max_iter):
        alpha = 1.0 / tau + (2.0 * reg / beta if reg else 0.0)
        _, e_sq, e_xh = moments(alpha, amp)
        tau_next = math.sqrt((target_power + e_sq) / user_ratio)
        beta_next = 2.0 * tau * user_ratio - 2.0 * e_xh
        tau_new = damping * tau + (1.0 - damping) * tau_next
        beta_new = damping * beta + (1.0 - damping) * max(beta_next, 1e-12)
        moved = max(abs(tau_new - tau), abs(beta_new - beta))
        tau, beta = tau_new, beta_new
        if moved < tol * (1.0 - damping):
            return tau, beta
    raise RuntimeError(f"fixed point did not converge (last move {moved:.2e})")


def box_qp_by_enumeration(
    channel: np.ndarray,
    symbols: np.ndarray,
    reg: float,
    amp: float,
    target_power: float,
) -> tuple[np.ndarray, float]:
    """Global box-QP solution by enumerating all 3^n active-set patterns.

    Each coordinate is pinned to -amp, +amp, or left free; the free block
    solves its reduced least-squares system.  Feasible candidates are
    compared by cost; for a convex objective the true active set is among
    the patterns, so the best feasible candidate is the global optimum.
    """
    m, n = channel.shape
    target = math.sqrt(target_power) * symbols
    best_x = None
    best_cost = math.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        pat = np.array(pattern, dtype=float)
        free = pat == 0.0
        x = amp * pat
        rhs = target - channel[:, ~free] @ x[~free]
        h_free = channel[:, free]
        k = int(free.sum())
        if k:
            sol, *_ = np.linalg.lstsq(
                np.vstack([h_free, math.sqrt(reg) * np.eye(k)]) if reg else h_free,
                np.concatenate([rhs, np.zeros(k)]) if reg else rhs,
                rcond=None,
            )
            if np.any(np.abs(sol) > amp + 1e-11):
                continue
            x[free] = sol
        r = channel @ x - target
        cost = (float(r @ r) + reg * float(x @ x)) / n
        if cost < best_cost:
            best_cost = cost
            best_x = x
    return best_x, best_cost


def box_qp_apg_reference(
    channel: np.ndarray,
    symbols: np.ndarray,
    reg: float,
    amp: float,
    target_power: float,
    tol: float = 1e-9,
    max_iter: int = 20000,
) -> tuple[int, np.ndarray]:
    """Iteration count and cost trace of a plain restarted APG loop.

    The same method as the library solver before its polish: step
    ``1/L`` from a 50-step power method with a 2% margin, momentum
    restart on any cost increase, stop on a KKT residual below ``tol``.
    Every gradient, the momentum point's included, is evaluated fresh.
    ``amp`` must be finite.
    """
    n = channel.shape[1]
    target = math.sqrt(target_power) * symbols
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(50):
        w = channel.T @ (channel @ v)
        v = w / np.linalg.norm(w)
    step = 1.0 / (1.02 * (2.0 / n) * (float(v @ (channel.T @ (channel @ v))) + reg))

    def cost_and_grad(x):
        r = channel @ x - target
        return float((r @ r + reg * (x @ x)) / n), (2.0 / n) * (channel.T @ r + reg * x)

    def kkt(x, g):
        viol = np.abs(g)
        viol = np.where(x >= amp, np.maximum(g, 0.0), viol)
        viol = np.where(x <= -amp, np.maximum(-g, 0.0), viol)
        return float(viol.max())

    x = y = np.zeros(n)
    cost, grad = cost_and_grad(x)
    costs = [cost]
    t_m = 1.0
    for it in range(1, max_iter + 1):
        _, g_y = cost_and_grad(y)
        cand = np.clip(y - step * g_y, -amp, amp)
        c_cand, g_cand = cost_and_grad(cand)
        if c_cand > cost:
            t_m = 1.0
            cand = np.clip(x - step * grad, -amp, amp)
            c_cand, g_cand = cost_and_grad(cand)
            if c_cand > cost:
                raise RuntimeError("reference APG stalled")
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_m * t_m))
        y = cand + ((t_m - 1.0) / t_next) * (cand - x)
        x, cost, grad, t_m = cand, c_cand, g_cand, t_next
        costs.append(cost)
        if kkt(x, grad) < tol:
            return it, np.asarray(costs)
    raise RuntimeError("reference APG did not converge")
