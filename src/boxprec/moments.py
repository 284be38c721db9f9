"""Moments of the clipped Gaussian response.

The large-system limits of the box-constrained precoder are driven by the
scalar random variable ``X = clamp(H / alpha, [-amp, amp])`` with ``H``
standard normal: every asymptotic performance number reduces to the first
and second moments of ``X``.  This module evaluates those moments in closed
form; the test suite cross-checks them against adaptive quadrature.

``amp = math.inf`` selects the unconstrained response ``X = H / alpha`` and
is handled as an explicit branch, not as a large float.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["ClipMoments", "clip_moments", "normal_pdf", "q_tail"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Taylor coefficients of E[H^2 ; |H| <= t] / sqrt(2/pi) around t = 0:
# sum_k (-1)^k t^(2k+3) / (2^k k! (2k+3)).  Eight terms hold to ~1e-24
# relative error for t < 0.1.
_M2_SERIES = (
    1.0 / 3.0,
    -1.0 / 10.0,
    1.0 / 56.0,
    -1.0 / 432.0,
    1.0 / 4224.0,
    -1.0 / 49920.0,
    1.0 / 691200.0,
    -1.0 / 10967040.0,
)


def normal_pdf(x: float) -> float:
    """Standard normal density at ``x``."""
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def q_tail(x: float) -> float:
    """Upper tail probability ``P(H > x)`` for standard normal ``H``.

    Evaluated through ``erfc``; relative error is below 1e-14 on [-8, 8]
    and the result stays accurate (not cancelled) far into the tail.
    """
    return 0.5 * math.erfc(x / _SQRT2)


def _m2(t: float) -> float:
    """Truncated second moment ``E[H^2 ; |H| <= t]``.

    The textbook form ``1 - 2 Q(t) - 2 t pdf(t)`` cancels catastrophically
    for small ``t``; switch to a Taylor series below t = 0.1.
    """
    if t >= 40.0:
        return 1.0
    if t >= 0.1:
        return math.erf(t / _SQRT2) - 2.0 * t * normal_pdf(t)
    u = t * t
    acc = 0.0
    for c in reversed(_M2_SERIES):
        acc = acc * u + c
    return _SQRT_2_OVER_PI * t * u * acc


@dataclass(frozen=True, slots=True)
class ClipMoments:
    """Moments of ``X = clamp(H / alpha, [-amp, amp])``, ``H ~ N(0, 1)``.

    Attributes
    ----------
    e_abs : float
        ``E |X|``.
    e_sq : float
        ``E X^2``.
    e_xh : float
        ``E H X``, the correlation with the driving Gaussian.
    """

    e_abs: float
    e_sq: float
    e_xh: float


# One entry on purpose: the theory functions' consistency check asks for
# the moments at the (alpha, amp) that the saddle solver's own final check
# evaluated just before, and that is the only repeat worth serving.  A
# call with any other arguments recomputes.
@functools.lru_cache(maxsize=1)
def clip_moments(alpha: float, amp: float) -> ClipMoments:
    """Closed-form moments of the clipped Gaussian response.

    The last evaluation is memoised on its exact arguments, so a repeated
    call returns the same (immutable) result without recomputing it.

    Parameters
    ----------
    alpha : float
        Inverse gain applied to ``H`` before clipping; must be positive.
        ``math.inf`` is accepted and gives the all-zero response.
    amp : float
        Clipping amplitude; positive, or ``math.inf`` for no clipping.

    Returns
    -------
    ClipMoments

    Notes
    -----
    With ``t = amp * alpha``, ``m2(t) = E[H^2 ; |H| <= t]``:

    - ``E X^2  = m2(t)/alpha^2 + 2 amp^2 Q(t)``
    - ``E H X  = m2(t)/alpha   + 2 amp pdf(t)``
    - ``E |X|  = sqrt(2/pi) (1 - exp(-t^2/2))/alpha + 2 amp Q(t)``

    and ``t >= 40`` is folded into the unclipped branch, where the tail
    corrections are below 1e-300.
    """
    if math.isnan(alpha) or not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    if math.isnan(amp) or not amp > 0.0:
        raise DomainError(f"amp must be positive or inf, got {amp!r}")
    if math.isinf(alpha):
        return ClipMoments(e_abs=0.0, e_sq=0.0, e_xh=0.0)
    e_sq, e_xh, _ = _clip_sq_xh_m2(alpha, amp)
    inv = 1.0 / alpha
    t = amp * alpha
    if t >= 40.0:
        return ClipMoments(e_abs=_SQRT_2_OVER_PI * inv, e_sq=e_sq, e_xh=e_xh)
    e_abs = -_SQRT_2_OVER_PI * math.expm1(-0.5 * t * t) * inv + 2.0 * amp * q_tail(t)
    return ClipMoments(e_abs=e_abs, e_sq=e_sq, e_xh=e_xh)


def _clip_sq_xh_m2(alpha: float, amp: float) -> tuple[float, float, float]:
    """Unvalidated ``(E X^2, E H X, m2(amp alpha))`` for finite ``alpha > 0``.

    One evaluation gives the saddle iteration both residuals and, through
    ``dE[X^2]/dalpha = -2 m2/alpha^3`` and ``dE[H X]/dalpha = -m2/alpha^2``,
    their derivatives; :func:`clip_moments` builds on the same numbers.
    """
    inv = 1.0 / alpha
    t = amp * alpha
    if t >= 40.0:
        # Clip never binds at double precision (also covers amp = inf).
        return inv * inv, inv, 1.0
    m2 = _m2(t)
    e_sq = m2 * inv * inv + 2.0 * amp * amp * q_tail(t)
    e_xh = m2 * inv + 2.0 * amp * normal_pdf(t)
    return e_sq, e_xh, m2
