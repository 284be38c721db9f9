"""Scalar saddle-point characterization of the asymptotic precoder.

In the large-system limit (antennas ``n`` and users ``m`` growing with
``m/n -> user_ratio``) the box-constrained regularized least-squares
precoder is governed by a two-variable scalar problem.  Its saddle point
``(tau, beta)`` satisfies the coupled fixed-point system::

    tau^2 * user_ratio = target_power + E[X^2]
    beta               = 2 tau user_ratio - 2 E[H X]

with ``X = clamp(H / alpha, [-amp, amp])`` and
``alpha = 1/tau + 2 reg / beta``.  Every asymptotic performance metric in
:mod:`boxprec.theory` is a closed-form function of this pair.

The solver works in ``alpha`` alone.  At a fixed ``alpha`` the moments of
``X`` are fixed, and the beta equation and the definition of ``alpha``
give ``tau`` and ``beta`` in closed form: with ``u = alpha tau - 1`` and
``c = user_ratio - alpha E[H X] - reg`` they reduce to ``user_ratio u^2 +
c u - reg = 0``, whose nonnegative root is taken in a form free of
cancellation (``reg = 0`` gives ``u = 0``).  What remains is the power
equation ``user_ratio tau(alpha)^2 - target_power - E[X^2](alpha) = 0``,
whose left side falls from ``+inf`` at ``alpha -> 0`` to
``-target_power`` at ``alpha -> inf``.  A safeguarded Newton iteration
solves it, with the derivatives in closed form: with ``t = amp alpha``
and ``m2(t) = E[H^2 ; |H| <= t]``, ``dE[X^2]/dalpha = -2 m2 / alpha^3``
and ``dE[H X]/dalpha = -m2 / alpha^2``, so one moment evaluation gives
the residual and its slope.  The start is the exact root without the
box.  A Newton step that would leave the bracket of known signs becomes
a bisection step (a doubling while no negative residual is known).  The
iteration stops when the residual is at rounding level, 1e-15 of
``target_power + user_ratio tau^2``, or when a step is below 1e-15
relative, and the returned point is checked against the 1e-9 contract on
both residuals.  :func:`boxprec.tuning.tune_target_power` uses the same
iteration, since the transmit power at the saddle is ``E[X^2](alpha)``.
:func:`_solve_saddle_array` runs it for a whole tuning grid at once, one
bracket per point, each step in the scalar code's order, so every point
where :func:`solve_saddle` returns gets its floats.  An array step costs
the same tens of numpy calls however few points are left in it, so once
at most :data:`_SCALAR_LANES` (16) are left, each of them finishes on the
scalar iteration, from its own ``alpha`` and bracket and with what is
left of its evaluation budget; a point where that raises is not solved,
as :func:`solve_saddle` raises there.
Existence and uniqueness hold whenever ``reg > 0``, or ``reg = 0`` with
``user_ratio >= 1``; the constructor of :class:`SystemParams` enforces
exactly that.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from ._record import record
from .errors import DomainError, SolverError
from .moments import (
    ClipMoments,
    _clip_terms,
    _clip_terms_array,
    _e_abs_array,
    clip_moments,
)

__all__ = [
    "SaddlePoint",
    "SystemParams",
    "phi_value",
    "saddle_residuals",
    "solve_saddle",
]

_MAX_ITER = 200
_STEP_TOL = 1e-15  # Newton steps below this, relative, are rounding noise
_RESIDUAL_TOL = 1e-9  # contract on both residuals of a returned point
# The array iteration hands its lanes to the scalar one once this few are
# left: an array step costs about 100-150 us of numpy call overhead
# whatever the lane count, a scalar step about 2.5 us, so below ~40 lanes
# the scalar path is faster; 16 leaves a margin for slower scalar steps.
_SCALAR_LANES = 16

# The (params, point) pair solve_saddle returned last, written as one
# tuple so a reader never sees half of an update.  theory's consistency
# check reads it by identity to skip re-verifying the point that
# _assemble has just checked; it holds one pair and no other state.
_last_solved: tuple = (None, None)


@record
class SystemParams:
    """Operating point of the downlink precoding problem.

    Parameters
    ----------
    user_ratio : float
        Asymptotic ratio of users to transmit antennas, ``m / n``.
    reg : float
        Ridge regularization weight of the precoder objective.
    amp : float
        Per-antenna amplitude limit; ``math.inf`` removes the box.
    level : float
        Output level of the one-bit quantizer (entries of ``x_q`` are
        ``+-level``).
    noise_var : float
        Receiver noise variance.
    target_power : float
        Squared amplitude of the target constellation point the precoder
        steers each user to.
    n_antennas : int
        Number of transmit antennas for finite-size experiments.

    Notes
    -----
    The constructor enforces the uniqueness condition of the asymptotic
    analysis: ``reg > 0``, or ``reg = 0`` with ``user_ratio >= 1``.
    """

    user_ratio: float
    reg: float
    amp: float
    level: float = 1.0
    noise_var: float = 0.1
    target_power: float = 1.0
    n_antennas: int = 1000

    def __post_init__(self) -> None:
        # A float subclass (np.float64 from a numpy grid) is stored as a
        # float, so every later scalar computation runs in Python floats.
        for name in ("user_ratio", "reg", "amp", "level", "noise_var", "target_power"):
            value = getattr(self, name)
            if type(value) is not float and isinstance(value, float):
                object.__setattr__(self, name, float(value))
        if not (math.isfinite(self.user_ratio) and self.user_ratio > 0.0):
            raise DomainError(f"user_ratio must be positive, got {self.user_ratio!r}")
        if not (math.isfinite(self.reg) and self.reg >= 0.0):
            raise DomainError(f"reg must be nonnegative, got {self.reg!r}")
        if math.isnan(self.amp) or not self.amp > 0.0:
            raise DomainError(f"amp must be positive or inf, got {self.amp!r}")
        if not (math.isfinite(self.level) and self.level > 0.0):
            raise DomainError(f"level must be positive, got {self.level!r}")
        if not (math.isfinite(self.noise_var) and self.noise_var >= 0.0):
            raise DomainError(f"noise_var must be nonnegative, got {self.noise_var!r}")
        if not (math.isfinite(self.target_power) and self.target_power > 0.0):
            raise DomainError(
                f"target_power must be positive, got {self.target_power!r}"
            )
        n = self.n_antennas
        if isinstance(n, bool) or not (isinstance(n, int) and n >= 1):
            raise DomainError(f"n_antennas must be a positive int, got {self.n_antennas!r}")
        if self.reg == 0.0 and self.user_ratio < 1.0:
            raise DomainError(
                "reg = 0 requires user_ratio >= 1 for the asymptotic problem "
                f"to be well posed (got user_ratio={self.user_ratio})"
            )
        if self.n_users < 1:
            raise DomainError(
                f"user_ratio * n_antennas rounds to zero users "
                f"({self.user_ratio} * {self.n_antennas})"
            )

    @property
    def n_users(self) -> int:
        """Number of users, ``round(user_ratio * n_antennas)``."""
        return int(round(self.user_ratio * self.n_antennas))

    @property
    def boundary_regime(self) -> bool:
        """True on the uniqueness boundary ``reg = 0, user_ratio = 1``.

        Accepted with a finite box, but downstream limits degrade slowly
        there; callers may want to surface the flag.
        """
        return self.reg == 0.0 and self.user_ratio == 1.0


@record
class SaddlePoint:
    """Solution of the scalar saddle-point system.

    Attributes
    ----------
    tau : float
        Scale variable; ``tau^2 user_ratio - target_power`` is the
        asymptotic per-antenna transmit power.
    beta : float
        Dual variable of the max side.
    alpha : float
        Effective inverse gain ``1/tau + 2 reg / beta`` of the clipped
        response.
    phi : float
        Saddle value of the scalar objective.
    moments : ClipMoments
        Moments of the clipped response at ``alpha``.
    residual_power : float
        ``tau^2 user_ratio - target_power - E[X^2]`` at the solution.
    residual_beta : float
        ``beta - 2 tau user_ratio + 2 E[H X]`` at the solution.
    evaluations : int
        Moment evaluations the solve took, the final check included; a
        deterministic function of the parameters.
    """

    tau: float
    beta: float
    alpha: float
    phi: float
    moments: ClipMoments
    residual_power: float
    residual_beta: float
    evaluations: int


def _alpha_of(tau: float, beta: float, p: SystemParams) -> float:
    if p.reg == 0.0:
        return 1.0 / tau
    return 1.0 / tau + 2.0 * p.reg / beta


def saddle_residuals(
    params: SystemParams, tau: float, beta: float
) -> tuple[float, ClipMoments, float, float]:
    """``(alpha, moments, residual_power, residual_beta)`` at ``(tau, beta)``.

    The one definition of the two fixed-point defects, shared by the
    solver's final check and :mod:`boxprec.theory`.
    """
    alpha = _alpha_of(tau, beta, params)
    mom = clip_moments(alpha, params.amp)
    delta = params.user_ratio
    res_power = tau * tau * delta - params.target_power - mom.e_sq
    res_beta = beta - 2.0 * tau * delta + 2.0 * mom.e_xh
    return alpha, mom, res_power, res_beta


def _require_unique(params: SystemParams) -> None:
    if params.reg == 0.0 and params.user_ratio == 1.0 and math.isinf(params.amp):
        raise DomainError("reg = 0, user_ratio = 1, amp = inf has no unique saddle point")


def _tau_beta(
    alpha: float, e_xh: float, m2: float, delta: float, reg: float
) -> tuple[float, float, float]:
    """``(tau, beta, dtau/dalpha)`` solving the beta and alpha equations at ``alpha``.

    With ``delta = user_ratio``, ``u = alpha tau - 1 >= 0`` and ``c = delta
    - alpha E[H X] - reg`` the two equations reduce to ``delta u^2 + c u -
    reg = 0``; each branch takes the root and ``beta`` in a form free of
    cancellation.  ``e_xh`` and ``m2`` are ``E[H X]`` and ``m2(amp alpha)``
    at ``alpha``.
    """
    c = delta - alpha * e_xh - reg
    if reg == 0.0:
        return 1.0 / alpha, 2.0 * c / alpha, -1.0 / (alpha * alpha)
    root = math.sqrt(c * c + 4.0 * delta * reg)
    if c >= 0.0:
        u = 2.0 * reg / (c + root)
        beta = 2.0 * (c + reg + delta * u) / alpha
    else:
        u = (root - c) / (2.0 * delta)
        beta = 2.0 * reg * (1.0 + u) / (alpha * u)
    tau = (1.0 + u) / alpha
    # dc/dalpha = m2/alpha - E[H X], and the quadratic's slope in u is root.
    return tau, beta, (u * (e_xh - m2 / alpha) / root - tau) / alpha


def _falling_root(
    f: Callable[[float], tuple[float, float, float]],
    alpha: float,
    lo: float = 0.0,
    hi: float = math.inf,
    budget: int = _MAX_ITER,
) -> None:
    """Root in ``alpha > 0`` of a function falling from positive to negative.

    ``f(alpha)`` returns ``(value, slope, scale)``.  Safeguarded Newton from
    ``alpha`` inside the bracket ``(lo, hi)``, ``(0, inf)`` unless a caller
    resumes an iteration: a step that would leave the bracket becomes a
    bisection step (a doubling while no negative value is known).  Stops
    when ``|value| <= 1e-15 scale`` or a step is below 1e-15 relative; the
    last call of ``f`` is then at the root, so callers keep what they need
    from it.  Raises :class:`SolverError` after ``budget`` calls of ``f``.
    """
    for _ in range(budget):
        value, slope, scale = f(alpha)
        if abs(value) <= 1e-15 * scale:
            return
        if value > 0.0:
            lo = alpha
        else:
            hi = alpha
        new = alpha - value / slope if slope < 0.0 else math.nan
        if not lo < new < hi:
            new = 2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi)
        if abs(new - alpha) <= _STEP_TOL * alpha:
            return
        alpha = new
    raise SolverError(f"alpha iteration did not converge (residual {value:.3e})")


def _tau_beta_array(
    alpha: np.ndarray,
    e_xh: np.ndarray,
    m2: np.ndarray,
    reg: np.ndarray,
    delta: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_tau_beta` over arrays, each lane taking its own branch.

    Every lane first takes the ridge branches; lanes without a ridge then
    take theirs, if there are any.
    """
    c = delta - alpha * e_xh - reg
    root = np.sqrt(c * c + 4.0 * delta * reg)
    up = c >= 0.0
    two_reg = 2.0 * reg
    u = np.where(up, two_reg / (c + root), (root - c) / (2.0 * delta))
    one_u = 1.0 + u
    beta = np.where(
        up,
        2.0 * (c + reg + delta * u) / alpha,
        two_reg * one_u / (alpha * u),
    )
    tau = one_u / alpha
    dtau = (u * (e_xh - m2 / alpha) / root - tau) / alpha
    ridge = reg != 0.0
    if ridge.all():
        return tau, beta, dtau
    return (
        np.where(ridge, tau, 1.0 / alpha),
        np.where(ridge, beta, 2.0 * c / alpha),
        np.where(ridge, dtau, -1.0 / (alpha * alpha)),
    )


def _falling_root_array(
    f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    finish: Callable[[int, float, float, float, int], bool],
    alpha: np.ndarray,
) -> np.ndarray:
    """:func:`_falling_root` for many lanes at once, one bracket each.

    ``f(alpha, lanes)`` evaluates the lanes ``lanes`` (indices) at
    ``alpha``.  Once at most :data:`_SCALAR_LANES` lanes are left, each of
    them goes to ``finish(lane, alpha, lo, hi, budget)``, which continues
    its iteration from that state on the scalar path with the evaluations
    left of the budget and tells whether it met the stopping rule.
    Returns the mask of lanes that meet the stopping rule within the
    budget; their last evaluation was where they stopped.
    """
    # The state of the lanes still iterating, in lane order.
    lanes = np.arange(alpha.size)
    lo = np.zeros_like(alpha)
    hi = np.full_like(alpha, math.inf)
    converged = np.zeros(alpha.shape, bool)
    for done in range(_MAX_ITER):
        if lanes.size <= _SCALAR_LANES:
            state = zip(lanes.tolist(), alpha.tolist(), lo.tolist(), hi.tolist())
            for lane, a, low, high in state:
                converged[lane] = finish(lane, a, low, high, _MAX_ITER - done)
            break
        value, slope, scale = f(alpha, lanes)
        stop = np.abs(value) <= 1e-15 * scale
        rising = value > 0.0
        lo = np.where(rising, alpha, lo)
        hi = np.where(rising, hi, alpha)
        step = np.divide(
            value, slope, out=np.full_like(alpha, math.nan), where=slope < 0.0
        )
        new = alpha - step
        outside = ~((lo < new) & (new < hi))
        new[outside] = np.where(np.isinf(hi), 2.0 * lo, 0.5 * (lo + hi))[outside]
        stop |= np.abs(new - alpha) <= _STEP_TOL * alpha
        if stop.any():
            converged[lanes[stop]] = True
            go = ~stop
            lanes, new, lo, hi = lanes[go], new[go], lo[go], hi[go]
        alpha = new
    return converged


def _power_residual(
    delta: float, rho: float, reg: float, amp: float, points: list
) -> Callable[[float], tuple[float, float, float]]:
    """The saddle solver's function for :func:`_falling_root` at one point.

    At ``alpha`` it gives the power residual ``delta tau^2 - rho - E[X^2]``,
    its slope and scale, and appends that iterate's ``(tau, beta)`` to
    ``points``.  All arguments are Python floats, so a zero divisor raises
    ``ZeroDivisionError``.
    """

    def power_residual(alpha: float) -> tuple[float, float, float]:
        e_sq, e_xh, m2, _ = _clip_terms(alpha, amp)
        tau, beta, dtau = _tau_beta(alpha, e_xh, m2, delta, reg)
        points.append((tau, beta))
        res = delta * tau * tau - rho - e_sq
        slope = 2.0 * delta * tau * dtau + 2.0 * m2 / (alpha * alpha * alpha)
        return res, slope, rho + delta * tau * tau

    return power_residual


def solve_saddle(params: SystemParams) -> SaddlePoint:
    """Solve the scalar saddle-point system for ``params``.

    Raises
    ------
    DomainError
        For the degenerate point ``reg = 0, user_ratio = 1, amp = inf``
        where the saddle point is not unique.
    SolverError
        If the iteration budget runs out or the final residuals exceed
        1e-9; the message carries the residuals.  Also where an
        intermediate under- or overflows into a division by zero, as
        ``beta`` underflowing to 0 at a subnormal ``reg``.
    """
    _require_unique(params)
    delta = params.user_ratio
    rho = params.target_power
    points: list[tuple[float, float]] = []
    power_residual = _power_residual(delta, rho, params.reg, params.amp, points)
    # Without the box E[X^2] = 1/alpha^2 and u does not depend on alpha, so
    # the residual is free/alpha^2 - rho and this start is its exact root;
    # free = 0 only at user_ratio = 1 without a ridge.
    try:
        tau_free = _tau_beta(1.0, 1.0, 1.0, delta, params.reg)[0]
        free = delta * tau_free * tau_free - 1.0
        _falling_root(power_residual, math.sqrt(free / rho) if free > 0.0 else 1.0)
        tau, beta = points[-1]
        sp = _assemble(tau, beta, params, len(points))
    except ZeroDivisionError as exc:
        raise SolverError(
            f"saddle solve divided by zero at reg={params.reg!r}, amp={params.amp!r}"
        ) from exc
    global _last_solved
    _last_solved = (params, sp)
    return sp


def _solve_saddle_array(
    delta: float, rho: float, reg: np.ndarray, amp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`solve_saddle` at ``user_ratio = delta``, ``target_power = rho``
    for arrays of ``reg`` and ``amp``, every lane a valid, unique point.

    Returns ``(tau, e_abs, solved)``: ``solved`` marks the lanes where
    :func:`solve_saddle` returns, and there ``tau`` and ``e_abs`` are its
    point's ``tau`` and ``moments.e_abs``.  Meant to run under
    ``np.errstate(all="ignore")``: numpy warns where Python floats give inf
    or NaN silently, or raise ``ZeroDivisionError``.
    """
    n = reg.size
    ones = np.ones(n)
    tau_free = _tau_beta_array(ones, ones, ones, reg, delta)[0]
    free = delta * tau_free * tau_free - 1.0
    start = np.where(free > 0.0, np.sqrt(free / rho), 1.0)
    tau = np.empty(n)
    beta = np.empty(n)

    def power_residual(
        alpha: np.ndarray, lanes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        e_sq, e_xh, m2, _ = _clip_terms_array(alpha, amp[lanes])
        t, b, dtau = _tau_beta_array(alpha, e_xh, m2, reg[lanes], delta)
        tau[lanes], beta[lanes] = t, b
        res = delta * t * t - rho - e_sq
        slope = 2.0 * delta * t * dtau + 2.0 * m2 / (alpha * alpha * alpha)
        return res, slope, rho + delta * t * t

    reg_list, amp_list = reg.tolist(), amp.tolist()

    def finish(lane: int, alpha: float, lo: float, hi: float, budget: int) -> bool:
        # solve_saddle raises SolverError for either: the lane is not solved.
        points: list[tuple[float, float]] = []
        f = _power_residual(delta, rho, reg_list[lane], amp_list[lane], points)
        try:
            _falling_root(f, alpha, lo, hi, budget)
        except (ZeroDivisionError, SolverError):
            return False
        tau[lane], beta[lane] = points[-1]
        return True

    lanes = np.flatnonzero(_falling_root_array(power_residual, finish, start))
    # _assemble: alpha recomputed from (tau, beta), then the residual check.
    t, b, r = tau[lanes], beta[lanes], reg[lanes]
    inv = 1.0 / t
    alpha = np.where(r != 0.0, inv + 2.0 * r / b, inv)
    keep = alpha > 0.0  # clip_moments refuses NaN and alpha <= 0
    lanes, t, b, alpha = lanes[keep], t[keep], b[keep], alpha[keep]
    a = amp[lanes]
    e_sq, e_xh, _, q = _clip_terms_array(alpha, a)
    res_power = t * t * delta - rho - e_sq
    res_beta = b - 2.0 * t * delta + 2.0 * e_xh
    keep = (np.abs(res_power) <= _RESIDUAL_TOL) & (np.abs(res_beta) <= _RESIDUAL_TOL)
    solved = np.zeros(n, bool)
    solved[lanes[keep]] = True
    e_abs = np.full(n, math.nan)
    e_abs[lanes[keep]] = _e_abs_array(alpha[keep], a[keep], q[keep])
    return tau, e_abs, solved


def _assemble(
    tau: float, beta: float, params: SystemParams, evaluations: int
) -> SaddlePoint:
    alpha, moments, res_power, res_beta = saddle_residuals(params, tau, beta)
    if abs(res_power) > _RESIDUAL_TOL or abs(res_beta) > _RESIDUAL_TOL:
        raise SolverError(
            f"saddle residuals {res_power:.3e}, {res_beta:.3e} exceed {_RESIDUAL_TOL}"
        )
    phi = _phi(tau, beta, alpha, moments, params)
    return SaddlePoint(
        tau, beta, alpha, phi, moments, res_power, res_beta, evaluations + 1
    )


def phi_value(tau: float, beta: float, params: SystemParams) -> float:
    """Scalar saddle objective at ``(tau, beta)``.

    The expectation over the clipped response is evaluated in closed form:
    the inner minimizer is ``X = clamp(H / alpha, [-amp, amp])`` with
    ``alpha = 1/tau + 2 reg / beta``, so the expected inner value equals
    ``(beta alpha / 2) E[X^2] - beta E[H X]``.
    """
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau!r}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    alpha = _alpha_of(tau, beta, params)
    return _phi(tau, beta, alpha, clip_moments(alpha, params.amp), params)


def _phi(
    tau: float, beta: float, alpha: float, mom: ClipMoments, params: SystemParams
) -> float:
    delta = params.user_ratio
    rho = params.target_power
    expected_inner = 0.5 * beta * alpha * mom.e_sq - beta * mom.e_xh
    return (
        0.5 * tau * beta * delta
        + 0.5 * rho * beta / tau
        - 0.25 * beta * beta
        + expected_inner
    )
