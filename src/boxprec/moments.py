"""Moments of the clipped Gaussian response.

The large-system limits of the box-constrained precoder are driven by the
scalar random variable ``X = clamp(H / alpha, [-amp, amp])`` with ``H``
standard normal: every asymptotic performance number reduces to the first
and second moments of ``X``.  This module evaluates those moments in closed
form; the test suite cross-checks them against adaptive quadrature.

``amp = math.inf`` selects the unconstrained response ``X = H / alpha`` and
is handled as an explicit branch, not as a large float.

The ``*_array`` twins evaluate the same closed forms over arrays of
points for the tuning grid.  They repeat each scalar step in the scalar
code's order and call the scalar ``math`` routines per element, so every
element is the float the scalar function returns wherever it returns one;
the small-``t`` Taylor series of the truncated second moment is one
function, ``_m2_series``, that both call.  Where every element takes one
branch they skip the other's numpy calls.
The saddle solver's array twin runs them while many grid points iterate,
and finishes the last few (``saddle._SCALAR_LANES``) on the scalar
functions.  Each evaluation, scalar or array, takes one pdf and one tail,
and the tail also serves ``E |X|``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

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


def _m2(t: float, pdf: float) -> float:
    """Truncated second moment ``E[H^2 ; |H| <= t]`` below ``t = 40``,
    given ``pdf = normal_pdf(t)``.

    The textbook form ``1 - 2 Q(t) - 2 t pdf(t)`` cancels catastrophically
    for small ``t``; switch to a Taylor series below t = 0.1.
    """
    if t >= 0.1:
        return math.erf(t / _SQRT2) - 2.0 * t * pdf
    return _m2_series(t)


def _m2_series(t):
    """The Taylor series of :func:`_m2` at ``t < 0.1``, for a float or an
    array of them."""
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
    e_sq, e_xh, _, q = _clip_terms(alpha, amp)
    inv = 1.0 / alpha
    t = amp * alpha
    if t >= 40.0:
        return ClipMoments(e_abs=_SQRT_2_OVER_PI * inv, e_sq=e_sq, e_xh=e_xh)
    e_abs = -_SQRT_2_OVER_PI * math.expm1(-0.5 * t * t) * inv + 2.0 * amp * q
    return ClipMoments(e_abs=e_abs, e_sq=e_sq, e_xh=e_xh)


def _clip_terms(alpha: float, amp: float) -> tuple[float, float, float, float]:
    """Unvalidated ``(E X^2, E H X, m2(t), Q(t))``, ``t = amp alpha``, for
    finite ``alpha > 0``; ``Q(t)`` reads 0 from ``t = 40`` on.

    One evaluation gives the saddle iteration both residuals and, through
    ``dE[X^2]/dalpha = -2 m2/alpha^3`` and ``dE[H X]/dalpha = -m2/alpha^2``,
    their derivatives; :func:`clip_moments` builds on the same numbers,
    ``E |X|`` on the same tail.  Each evaluation takes one pdf and one tail.
    """
    inv = 1.0 / alpha
    t = amp * alpha
    if t >= 40.0:
        # Clip never binds at double precision (also covers amp = inf).
        return inv * inv, inv, 1.0, 0.0
    pdf = normal_pdf(t)
    q = q_tail(t)
    m2 = _m2(t, pdf)
    e_sq = m2 * inv * inv + 2.0 * amp * amp * q
    e_xh = m2 * inv + 2.0 * amp * pdf
    return e_sq, e_xh, m2, q


def _each(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` applied to every element of ``x``.

    Goes through the scalar ``math`` routine, not a numpy ufunc, whose
    vectorized ``exp``/``erf`` may round differently.
    """
    return np.fromiter(map(fn, x.tolist()), float, count=x.size)


def _clip_terms_array(
    alpha: np.ndarray, amp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_clip_terms` over arrays; ``alpha`` may hold ``inf``."""
    inv = 1.0 / alpha
    t = amp * alpha
    near = ~(t >= 40.0)
    if near.all():
        return _clip_terms_near(t, amp, inv)
    # The unclipped branch's values, overwritten where the clip can bind.
    terms = inv * inv, inv.copy(), np.ones_like(inv), np.zeros_like(inv)
    for out, value in zip(terms, _clip_terms_near(t[near], amp[near], inv[near])):
        out[near] = value
    return terms


def _clip_terms_near(
    t: np.ndarray, amp: np.ndarray, inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_clip_terms_array` where ``t = amp alpha`` is below 40."""
    pdf = _each(math.exp, -0.5 * t * t) * _INV_SQRT_2PI
    m2 = _m2_array(t, pdf)
    q = 0.5 * _each(math.erfc, t / _SQRT2)
    return m2 * inv * inv + 2.0 * amp * amp * q, m2 * inv + 2.0 * amp * pdf, m2, q


def _m2_array(t: np.ndarray, pdf: np.ndarray) -> np.ndarray:
    """:func:`_m2` over arrays."""
    mid = t >= 0.1
    if mid.all():
        return _each(math.erf, t / _SQRT2) - 2.0 * t * pdf
    out = np.empty_like(t)
    tm = t[mid]
    out[mid] = _each(math.erf, tm / _SQRT2) - 2.0 * tm * pdf[mid]
    out[~mid] = _m2_series(t[~mid])
    return out


def _e_abs_array(alpha: np.ndarray, amp: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``clip_moments(alpha, amp).e_abs`` over arrays of ``alpha > 0``, given
    the tail ``Q(amp alpha)`` that :func:`_clip_terms_array` returned there.

    At ``alpha = inf`` the closed form gives the explicit branch's 0.
    """
    inv = 1.0 / alpha
    t = amp * alpha
    e_abs = _SQRT_2_OVER_PI * inv
    near = ~(t >= 40.0)
    t, amp, inv = t[near], amp[near], inv[near]
    e_abs[near] = (
        -_SQRT_2_OVER_PI * _each(math.expm1, -0.5 * t * t) * inv + 2.0 * amp * q[near]
    )
    return e_abs
