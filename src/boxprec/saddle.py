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

The solver is a safeguarded Newton method in two levels, with the
derivatives in closed form: with ``t = amp alpha`` and ``m2(t) =
E[H^2 ; |H| <= t]``, ``dE[X^2]/dalpha = -2 m2 / alpha^3`` and
``dE[H X]/dalpha = -m2 / alpha^2``, so one moment evaluation gives both
residuals and their slopes.  The inner level resolves ``beta`` for a given
``tau`` inside ``(0, 2 tau user_ratio]``, where the defining residual is
strictly increasing, starting from the previous outer step's ``beta``.
The outer level drives the power residual ``tau^2 user_ratio -
target_power - E[X^2]`` to zero inside ``[sqrt(target_power /
user_ratio), hi]``, with the implicit slope ``dbeta/dtau`` of the inner
solution; ``hi`` is the first iterate with a positive residual.  A Newton
step that would leave its bracket becomes a bisection step (a doubling
while ``hi`` is unknown).  Both levels stop when the residual is at
rounding level relative to its own scale, or when a step is below 1e-15
relative, and the returned point is checked against the 1e-9 contract on
both residuals.  Existence and uniqueness hold whenever ``reg > 0``, or
``reg = 0`` with ``user_ratio >= 1``; the constructor of
:class:`SystemParams` enforces exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SolverError
from .moments import ClipMoments, _clip_sq_xh_m2, clip_moments

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


@dataclass(frozen=True, slots=True)
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
        if not (isinstance(self.n_antennas, int) and self.n_antennas >= 1):
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


@dataclass(frozen=True, slots=True)
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


def solve_saddle(params: SystemParams) -> SaddlePoint:
    """Solve the scalar saddle-point system for ``params``.

    Raises
    ------
    DomainError
        For the degenerate point ``reg = 0, user_ratio = 1, amp = inf``
        where the saddle point is not unique.
    SolverError
        If bracketing fails, an iteration budget runs out, or the final
        residuals exceed 1e-9; the message carries the residuals.
    """
    if params.reg == 0.0 and params.user_ratio == 1.0 and math.isinf(params.amp):
        raise DomainError(
            "reg = 0, user_ratio = 1, amp = inf has no unique saddle point"
        )
    delta = params.user_ratio
    rho = params.target_power
    reg = params.reg
    amp = params.amp
    evaluations = 0

    def beta_for_tau(tau: float, beta: float) -> tuple[float, float, float, float]:
        """Newton on ``beta - 2 tau delta + 2 E[H X]`` within ``(0, 2 tau delta]``.

        Starts from ``beta``; returns ``(beta, alpha, E[X^2], m2)``.
        """
        nonlocal evaluations
        two_td = 2.0 * tau * delta
        if reg == 0.0:
            evaluations += 1
            alpha = 1.0 / tau
            e_sq, e_xh, m2 = _clip_sq_xh_m2(alpha, amp)
            return two_td - 2.0 * e_xh, alpha, e_sq, m2
        # The residual is -2 tau delta at beta -> 0, 2 E[H X] > 0 at
        # beta = 2 tau delta, and strictly increasing in between.
        lo, hi = 0.0, two_td
        if not lo < beta < hi:
            beta = 0.5 * hi
        tol = 4e-16 * two_td
        for _ in range(_MAX_ITER):
            evaluations += 1
            alpha = _alpha_of(tau, beta, params)
            e_sq, e_xh, m2 = _clip_sq_xh_m2(alpha, amp)
            res = beta - two_td + 2.0 * e_xh
            if abs(res) <= tol:
                return beta, alpha, e_sq, m2
            if res < 0.0:
                lo = beta
            else:
                hi = beta
            step = res / (1.0 + 4.0 * reg * m2 / (alpha * alpha * beta * beta))
            if abs(step) <= _STEP_TOL * beta:
                return beta, alpha, e_sq, m2
            beta -= step
            if not lo < beta < hi:
                beta = 0.5 * (lo + hi)
        raise SolverError(
            f"beta iteration did not converge at tau={tau!r} (residual {res:.3e})"
        )

    def power_residual(tau: float, beta: float) -> tuple[float, float, float]:
        """``(residual, d residual / d tau, beta)`` along ``beta(tau)``."""
        beta, alpha, e_sq, m2 = beta_for_tau(tau, beta)
        res = tau * tau * delta - rho - e_sq
        # Implicit derivative: the beta residual stays at zero as tau moves.
        a2 = alpha * alpha
        tau2 = tau * tau
        slope = 2.0 * tau * delta - 2.0 * m2 / (a2 * alpha * tau2)
        if reg != 0.0:
            b2 = beta * beta
            dbeta = (2.0 * delta - 2.0 * m2 / (a2 * tau2)) / (
                1.0 + 4.0 * reg * m2 / (a2 * b2)
            )
            slope -= 4.0 * reg * m2 / (a2 * alpha * b2) * dbeta
        return res, slope, beta

    floor = math.sqrt(rho / delta)
    tau = floor * (1.0 + 1e-12)
    # Any first beta inside (0, 2 tau delta) works; later inner solves
    # start from the previous one.
    res, slope, beta = power_residual(tau, 0.5 * tau * delta)
    if res > 0.0:
        # E[X^2] below bracketing resolution: solution sits at the floor.
        if res < 1e-9:
            return _assemble(tau, beta, params, evaluations)
        raise SolverError(f"power residual positive at lower bracket: {res:.3e}")
    # The power residual is increasing in tau; hi stays infinite until a
    # point with a positive residual is found.
    lo, hi = tau, math.inf
    for _ in range(_MAX_ITER):
        if abs(res) <= 1e-15 * (rho + delta * tau * tau):
            return _assemble(tau, beta, params, evaluations)
        if res < 0.0:
            lo = tau
        else:
            hi = tau
        new = tau - res / slope if slope > 0.0 else math.nan
        if not lo < new < hi:
            new = 2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi)
        if abs(new - tau) <= _STEP_TOL * tau:
            return _assemble(tau, beta, params, evaluations)
        tau = new
        res, slope, beta = power_residual(tau, beta)
    if math.isinf(hi):
        raise SolverError(f"failed to bracket tau; residual at {tau:.3e} still negative")
    raise SolverError(f"tau iteration did not converge (power residual {res:.3e})")


def _assemble(
    tau: float, beta: float, params: SystemParams, evaluations: int
) -> SaddlePoint:
    alpha, moments, res_power, res_beta = saddle_residuals(params, tau, beta)
    if abs(res_power) > _RESIDUAL_TOL or abs(res_beta) > _RESIDUAL_TOL:
        raise SolverError(
            f"saddle residuals {res_power:.3e}, {res_beta:.3e} exceed {_RESIDUAL_TOL}"
        )
    return SaddlePoint(
        tau=tau,
        beta=beta,
        alpha=alpha,
        phi=_phi(tau, beta, alpha, moments, params),
        moments=moments,
        residual_power=res_power,
        residual_beta=res_beta,
        evaluations=evaluations + 1,
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
