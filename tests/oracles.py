"""Slow independent oracles for the test suite.

Each oracle deliberately avoids the code path it is used to check:
moments by adaptive quadrature instead of closed forms, the scalar saddle
by damped fixed-point iteration instead of Newton's method, and the box
QP by active-set enumeration, or a least-squares re-solve of a given
active set, instead of the solver's gram-based linear solves.  The
quantized tuning search is checked against its per-point form, one
``replace``, ``solve_saddle`` and ``quant_theory`` per grid point,
instead of the array pass.
"""

from __future__ import annotations

import itertools
import math

from dataclasses import replace

import numpy as np
from scipy import integrate

from boxprec import (
    DomainError,
    SolverError,
    TuneResult,
    quant_theory,
    solve_saddle,
    tune_level_for_snr,
)
from boxprec.tuning import _DEFAULT_AMP_GRID, _DEFAULT_REG_GRID


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


def box_qp_certificate(
    channel: np.ndarray,
    symbols: np.ndarray,
    reg: float,
    amp: float,
    target_power: float,
    x: np.ndarray,
) -> tuple[float, float]:
    """Optimality certificate of ``x`` for the box QP.

    Coordinates of ``x`` on the box stay there; the free block is re-solved
    by least squares on the stacked ``[H_F; sqrt(reg) I]`` system, as in
    :func:`box_qp_by_enumeration`.  Returns the largest deviation of ``x``
    from that solution and the smallest bound multiplier at it (``-grad``
    on the upper bound, ``grad`` on the lower; ``inf`` when nothing is on
    the box).  ``x`` is the optimum exactly when the deviation is zero and
    no multiplier is negative.
    """
    n = channel.shape[1]
    target = math.sqrt(target_power) * symbols
    up = x >= amp
    lo = x <= -amp
    free = ~(up | lo)
    x_ref = np.where(up, amp, np.where(lo, -amp, 0.0))
    rhs = target - channel @ x_ref
    k = int(free.sum())
    if k:
        x_ref[free], *_ = np.linalg.lstsq(
            np.vstack([channel[:, free], math.sqrt(reg) * np.eye(k)]),
            np.concatenate([rhs, np.zeros(k)]),
            rcond=None,
        )
    grad = (2.0 / n) * (channel.T @ (channel @ x_ref - target) + reg * x_ref)
    mult = np.concatenate([-grad[up], grad[lo]])
    worst = float(mult.min()) if mult.size else math.inf
    return float(np.abs(x_ref - x).max()), worst


def optimize_quant_by_points(params, snr_tx_db, reg_grid=None, amp_grid=None):
    """``optimize_quant`` one grid point at a time through the scalar path.

    Each point builds its ``SystemParams`` with ``replace`` and solves the
    saddle and the quantized theory alone; a point that raises
    ``DomainError`` or ``SolverError`` enters the trace as NaN, and strict
    improvement keeps the first of tied points.
    """
    regs = _DEFAULT_REG_GRID if reg_grid is None else tuple(reg_grid)
    amps = _DEFAULT_AMP_GRID if amp_grid is None else tuple(amp_grid)
    if not regs or not amps:
        raise DomainError("empty tuning grid")
    level = tune_level_for_snr(params.noise_var, snr_tx_db)
    trace = []
    best = None
    for point in itertools.product(regs, amps):
        reg, amp = point
        try:
            p = replace(params, reg=reg, amp=amp, level=level, target_power=1.0)
            ber = quant_theory(p, solve_saddle(p)).ber
        except (DomainError, SolverError):
            trace.append((point, math.nan))
            continue
        trace.append((point, ber))
        if best is None or ber < best[0]:
            best = (ber, p)
    if best is None:
        raise SolverError("no feasible point on the (reg, amp) grid")
    return TuneResult(params=best[1], objective=best[0], grid_trace=tuple(trace))
