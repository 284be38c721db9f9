"""Closed-form asymptotic performance of the precoding pipelines.

Three characterizations, all parameterized by the saddle point of
:mod:`boxprec.saddle`:

- :func:`box_theory`: the box-constrained precoder itself (transmit power,
  per-user signal/distortion decomposition, SDNR lower bound, BER).
- :func:`quant_theory`: the one-bit quantized transmit vector
  ``x_q = level * sign(x_hat)``, rigorous for ``target_power = 1``.
- :func:`bussgang_theory`: the classical Bussgang/Gaussian-decomposition
  heuristic for the same quantized system.  It agrees with
  :func:`quant_theory` as ``amp -> inf`` and deviates for finite ``amp``;
  quantifying that gap is the point of carrying both.

Per-user received observables decompose as ``sig_coef * symbol`` plus a
zero-mean Gaussian distortion; BER statements assume symbols are detected
by the sign of the (scaled) observation.  Where a field of their record
would overflow or lose its meaning (``inf``, NaN, a division by an
underflowed zero), the three functions raise
:class:`~boxprec.errors.DomainError` instead of returning the degraded
number.
"""

from __future__ import annotations

import math

import numpy as np

from . import saddle
from ._record import record
from .errors import DomainError
from .moments import _SQRT2, _each, q_tail
from .saddle import _RESIDUAL_TOL, SaddlePoint, SystemParams, saddle_residuals

__all__ = [
    "BoxTheory",
    "BussgangTheory",
    "QuantTheory",
    "box_theory",
    "bussgang_theory",
    "quant_theory",
    "snr_tx",
]

_E_ABS_GAUSS = math.sqrt(2.0 / math.pi)  # E|H| for standard normal H


def _check_solution(params: SystemParams, sp: SaddlePoint) -> None:
    """Verify that ``sp`` actually solves the system for ``params``.

    Residuals are recomputed from ``params``, ``sp.tau`` and ``sp.beta``
    so that a mismatched (params, saddle) pair cannot slip through.  The
    one pair that skips them is the pair :func:`~boxprec.saddle.solve_saddle`
    returned last, recognised by identity: that very ``params`` object
    with that very ``sp`` object.  The solver applied this same test to
    these same floats before returning the point, and both records are
    frozen (:func:`~boxprec._record.record` keeps the dataclass's frozen
    ``__setattr__`` and ``__delattr__``, so a field is written only while
    its record is built), so the check refuses exactly the pairs it
    would refuse without the shortcut.  Any other pair, an equal copy of
    either half included, is checked in full.
    """
    last_params, last_sp = saddle._last_solved
    if last_params is params and last_sp is sp:
        return
    _, _, r_power, r_beta = saddle_residuals(params, sp.tau, sp.beta)
    if abs(r_power) > _RESIDUAL_TOL or abs(r_beta) > _RESIDUAL_TOL:
        raise DomainError(
            "saddle point does not solve these params "
            f"(residuals {r_power:.3e}, {r_beta:.3e})"
        )


def _refuse_nonfinite(out) -> None:
    """Raise :class:`DomainError` naming the first non-finite field of
    ``out``, a theory record; return if there is none.

    The kernels call it only when the sum of their outputs is not finite:
    a non-finite term always makes it so, and finite terms can only by
    overflowing, which this then finds harmless.
    """
    for name in out.__slots__:
        value = getattr(out, name)
        if not math.isfinite(value):
            raise DomainError(
                f"{type(out).__name__}.{name} is not finite ({value!r})"
            )


@record
class BoxTheory:
    """Asymptotics of the box-constrained precoder.

    Attributes
    ----------
    power : float
        Per-antenna transmit power ``user_ratio * tau^2 - target_power``.
    sig_coef : float
        Coefficient of the intended symbol in the received observable.
    dist_std : float
        Standard deviation of the Gaussian distortion term.
    sdnr_lb : float
        Lower bound on per-user signal-to-distortion-and-noise ratio.
    ber : float
        Bit error rate of sign detection.
    rx_scale : float
        Receiver normalization ``1 / sig_coef``.
    """

    power: float
    sig_coef: float
    dist_std: float
    sdnr_lb: float
    ber: float
    rx_scale: float


@record
class QuantTheory:
    """Asymptotics of the one-bit quantized precoder (target_power = 1).

    ``sig_coef`` and ``dist_var`` are the signal coefficient and distortion
    variance of the per-user observable; ``rx_scale = 1 / sig_coef``.
    """

    sig_coef: float
    dist_var: float
    sdnr_lb: float
    ber: float
    rx_scale: float


@record
class BussgangTheory:
    """Bussgang-heuristic prediction for the quantized precoder.

    ``gain`` is the linear-equivalent gain of the quantizer, ``resid_var``
    the variance of the additive quantization residual
    ``level^2 (1 - 2/pi)``, ``noise_var`` the total Gaussian variance seen
    by the detector (distortion + residual + receiver noise).
    """

    gain: float
    resid_var: float
    sig_coef: float
    noise_var: float
    ber: float


def box_theory(params: SystemParams, sp: SaddlePoint) -> BoxTheory:
    """Performance of the box-constrained precoder at a solved saddle."""
    _check_solution(params, sp)
    delta = params.user_ratio
    rho = params.target_power
    ratio = sp.beta / (2.0 * sp.tau * delta)
    if ratio >= 1.0:
        raise DomainError(f"signal coefficient is nonpositive (beta/(2 tau delta) = {ratio})")
    power = delta * sp.tau * sp.tau - rho
    if power < 0.0:
        raise DomainError(f"negative asymptotic power {power}")
    sig_coef = math.sqrt(rho) * (1.0 - ratio)
    dist_std = sp.beta * math.sqrt(power) / (2.0 * sp.tau * delta)
    denom = dist_std * dist_std + params.noise_var
    if denom == 0.0:
        raise DomainError("zero distortion and zero noise: SDNR undefined")
    sdnr_lb = sig_coef * sig_coef / denom
    ber = q_tail(sig_coef / math.sqrt(denom))
    rx_scale = 1.0 / sig_coef
    out = BoxTheory(power, sig_coef, dist_std, sdnr_lb, ber, rx_scale)
    if not math.isfinite(power + sig_coef + dist_std + sdnr_lb + ber + rx_scale):
        _refuse_nonfinite(out)
    return out


def quant_theory(params: SystemParams, sp: SaddlePoint) -> QuantTheory:
    """Performance of the one-bit quantized precoder.

    Requires ``target_power == 1``: the quantized characterization is
    derived under a unit-power target constellation.
    """
    if params.target_power != 1.0:
        raise DomainError(
            f"quantized theory requires target_power = 1, got {params.target_power}"
        )
    _check_solution(params, sp)
    sig_coef, dist_var = _quant_law(
        sp.tau, sp.moments.e_abs, params.user_ratio, params.level
    )
    denom = dist_var + params.noise_var
    if denom <= 0.0:
        raise DomainError("nonpositive distortion-plus-noise variance")
    if sig_coef == 0.0:
        raise DomainError("signal coefficient underflows to 0")
    sdnr_lb = sig_coef * sig_coef / denom
    ber = q_tail(sig_coef / math.sqrt(denom))
    rx_scale = 1.0 / sig_coef
    out = QuantTheory(sig_coef, dist_var, sdnr_lb, ber, rx_scale)
    if not math.isfinite(sig_coef + dist_var + sdnr_lb + ber + rx_scale):
        _refuse_nonfinite(out)
    return out


def _quant_law(tau, e_abs, delta: float, level: float):
    """``(sig_coef, dist_var)`` of the one-bit observable at saddle ``tau``
    with ``E |X| = e_abs``, for floats or arrays of them."""
    td = tau * delta
    sig_coef = level * _E_ABS_GAUSS / td
    excess = tau * tau * delta - 1.0
    dist_var = level * level * (
        1.0
        - 2.0 * _E_ABS_GAUSS * e_abs / td
        + (2.0 / math.pi) * excess / (td * td)
    )
    return sig_coef, dist_var


def _quant_ber_array(
    tau: np.ndarray,
    e_abs: np.ndarray,
    delta: float,
    level: float,
    noise_var: float,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`quant_theory`'s ``ber`` over arrays of solved saddle points.

    ``tau`` and ``e_abs`` are the points' ``tau`` and ``moments.e_abs``
    at ``target_power = 1``.  The law is :func:`quant_theory`'s own
    :func:`_quant_law`, so every lane is its float.  Returns the BERs and
    the mask of lanes where :func:`quant_theory` returns: a positive
    denominator, a nonzero signal coefficient and finite outputs, the
    BER being finite wherever the other four are.
    """
    sig_coef, dist_var = _quant_law(tau, e_abs, delta, level)
    denom = dist_var + noise_var
    ok = (denom > 0.0) & (sig_coef != 0.0)
    for value in (sig_coef, dist_var, sig_coef * sig_coef / denom, 1.0 / sig_coef):
        ok &= np.isfinite(value)
    ber = np.full_like(tau, math.nan)
    ber[ok] = 0.5 * _each(math.erfc, sig_coef[ok] / np.sqrt(denom[ok]) / _SQRT2)
    return ber, ok


def bussgang_theory(params: SystemParams, sp: SaddlePoint) -> BussgangTheory:
    """Bussgang-decomposition prediction for the quantized precoder.

    Treats the precoder output entries as Gaussian with variance
    ``user_ratio tau^2 - 1``, passes them through the linear-equivalent
    model of the one-bit quantizer, and keeps the usual independence
    approximations.  Exact in the ``amp -> inf`` limit, heuristic
    otherwise.
    """
    if params.target_power != 1.0:
        raise DomainError(
            f"Bussgang model requires target_power = 1, got {params.target_power}"
        )
    _check_solution(params, sp)
    delta = params.user_ratio
    tau = sp.tau
    excess = delta * tau * tau - 1.0
    if excess <= 0.0:
        raise DomainError(f"user_ratio tau^2 must exceed 1, got excess {excess}")
    gain = params.level * _E_ABS_GAUSS / math.sqrt(excess)
    resid_var = params.level * params.level * (1.0 - 2.0 / math.pi)
    ratio = sp.beta / (2.0 * tau * delta)
    sig_coef = gain * (1.0 - ratio)
    dist_var = gain * gain * ratio * ratio * excess
    noise_var = dist_var + resid_var + params.noise_var
    if noise_var == 0.0:
        raise DomainError("zero distortion, residual and noise: BER undefined")
    ber = q_tail(sig_coef / math.sqrt(noise_var))
    out = BussgangTheory(gain, resid_var, sig_coef, noise_var, ber)
    if not math.isfinite(gain + resid_var + sig_coef + noise_var + ber):
        _refuse_nonfinite(out)
    return out


def snr_tx(
    params: SystemParams, which: str, sp: SaddlePoint | None = None
) -> float:
    """Transmit SNR of a pipeline: per-antenna power over noise variance.

    ``which`` selects the pipeline: ``"box"`` uses the asymptotic power of
    the box-constrained precoder (requires ``sp``), ``"quantized"`` uses
    the exact per-antenna power ``level^2``.  An SNR that overflows is a
    :class:`DomainError`, as a non-finite field of a theory record is.
    """
    if params.noise_var == 0.0:
        raise DomainError("transmit SNR undefined for noise_var = 0")
    if which == "quantized":
        snr = params.level * params.level / params.noise_var
    elif which == "box":
        if sp is None:
            raise DomainError("box transmit SNR needs the saddle point")
        _check_solution(params, sp)
        power = params.user_ratio * sp.tau * sp.tau - params.target_power
        snr = power / params.noise_var
    else:
        raise DomainError(f"unknown pipeline {which!r}")
    if not math.isfinite(snr):
        raise DomainError(f"{which} transmit SNR is not finite ({snr!r})")
    return snr
