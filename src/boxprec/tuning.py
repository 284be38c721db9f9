"""Operating-point tuning: power control and grid search over (reg, amp).

``tune_target_power`` inverts the monotone map from the target
constellation power to the asymptotic per-antenna transmit power.
``optimize_box`` and ``optimize_quant`` are deliberately exhaustive,
deterministic grid searches; ties resolve to the first point in grid
order with a strict improvement rule.  ``optimize_box`` tunes the power
at each reg in turn.  ``optimize_quant`` runs its whole (reg, amp) grid
as one array pass through the array twins of the saddle solver and the
quantized theory, which repeat the scalar arithmetic step by step; the
tests check every point bit for bit against ``solve_saddle`` and
``quant_theory``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SolverError
from .moments import _clip_terms
from .saddle import (
    SaddlePoint,
    SystemParams,
    _falling_root,
    _require_unique,
    _solve_saddle_array,
    _tau_beta,
    solve_saddle,
)
from .theory import _quant_ber_array, box_theory

__all__ = [
    "TuneResult",
    "optimize_box",
    "optimize_quant",
    "tune_level_for_snr",
    "tune_target_power",
]

_POWER_TOL = 1e-8
_DEFAULT_REG_GRID = tuple(np.logspace(-3.0, 2.0, 15))
_DEFAULT_AMP_GRID = tuple(np.logspace(math.log10(5e-2), math.log10(2e1), 25))


@dataclass(frozen=True, slots=True)
class TuneResult:
    """A tuned operating point.

    ``grid_trace`` records every evaluated point as ``(value, metric)``
    pairs, in evaluation order for grid searches and sorted by the tuned
    parameter for root finding, so curve shapes can be read straight off
    the trace.
    """

    params: SystemParams
    objective: float
    grid_trace: tuple[tuple, ...]


def _snr_power(noise_var: float, snr_db: float) -> float:
    """Per-antenna transmit power ``noise_var * 10^(dB/10)`` at ``snr_db`` dB.

    A power that overflows, or that underflows to 0 from a positive
    ``noise_var``, is a :class:`DomainError`.
    """
    try:
        power = noise_var * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        power = math.inf
    if math.isinf(power):
        raise DomainError(f"transmit SNR {snr_db!r} dB overflows")
    if power == 0.0 and noise_var > 0.0:
        raise DomainError(f"transmit SNR {snr_db!r} dB underflows")
    return power


def tune_level_for_snr(noise_var: float, snr_tx_db: float) -> float:
    """Quantizer level achieving a transmit SNR of ``snr_tx_db`` dB.

    The quantized pipeline transmits ``level^2`` per antenna, so
    ``level = sqrt(noise_var * 10^(dB/10))``; an SNR whose level
    overflows or underflows to 0 is a :class:`DomainError`.
    """
    if not noise_var > 0.0:
        raise DomainError(f"noise_var must be positive, got {noise_var!r}")
    return math.sqrt(_snr_power(noise_var, snr_tx_db))


def tune_target_power(params: SystemParams, power: float) -> TuneResult:
    """Find the target constellation power reaching transmit power ``power``.

    At the saddle the per-antenna transmit power ``user_ratio * tau^2 -
    rho`` equals ``E[X^2](alpha)``, which falls from ``amp^2`` to 0 as
    ``alpha`` grows.  So the saddle solver's safeguarded Newton iteration
    in ``alpha`` solves ``E[X^2](alpha) = power``: each iterate is the
    exact saddle of ``rho(alpha) = user_ratio * tau(alpha)^2 - E[X^2]``,
    the trace records those ``(rho, power)`` pairs, and the last one's
    ``rho`` is returned after a re-solve puts its power residual below
    1e-8.  With a finite box the transmit power saturates at ``amp^2``, so
    ``power`` must stay below it.  At very large ``reg / user_ratio`` the
    needed ``rho`` can pass 1e7, where rounding alone (``eps * rho``)
    exceeds the 1e-9 residual contract of :func:`solve_saddle` and the
    re-solve raises :class:`SolverError`.
    """
    return _tune_power_saddle(params, power)[0]


def _tune_power_saddle(
    params: SystemParams, power: float
) -> tuple[TuneResult, SaddlePoint]:
    """:func:`tune_target_power` and the saddle point of its tuned params."""
    if not (math.isfinite(power) and power > 0.0):
        raise DomainError(f"power must be positive and finite, got {power!r}")
    if math.isfinite(params.amp) and power >= params.amp * params.amp:
        raise DomainError(
            f"requested power {power} is not reachable under amp={params.amp} "
            f"(per-antenna power saturates at {params.amp ** 2})"
        )
    _require_unique(params)
    delta = params.user_ratio
    evals: list[tuple[float, float]] = []

    def power_gap(alpha: float) -> tuple[float, float, float]:
        e_sq, e_xh, m2, _ = _clip_terms(alpha, params.amp)
        tau = _tau_beta(alpha, e_xh, m2, delta, params.reg)[0]
        evals.append((delta * tau * tau - e_sq, e_sq))
        return e_sq - power, -2.0 * m2 / (alpha * alpha * alpha), power

    # E[X^2] <= 1/alpha^2, with equality without the box.
    _falling_root(power_gap, 1.0 / math.sqrt(power))
    root = evals[-1][0]
    if not root > 0.0:
        # At user_ratio = 1 without a ridge rho(alpha) falls like a
        # Gaussian tail, below rounding at small power.
        raise SolverError(f"power {power} needs a target power below resolution")
    tuned = replace(params, target_power=root)
    sp = solve_saddle(tuned)
    got = delta * sp.tau ** 2 - root
    if abs(got - power) > _POWER_TOL:
        raise SolverError(
            f"power residual {got - power:.3e} exceeds {_POWER_TOL} at rho={root}"
        )
    trace = tuple(sorted(dict(evals).items()))
    return TuneResult(params=tuned, objective=got, grid_trace=trace), sp


def optimize_box(
    params: SystemParams,
    snr_tx_db: float,
    reg_grid: tuple[float, ...] | None = None,
) -> TuneResult:
    """Pick the ridge weight minimizing box-precoder BER at fixed SNR.

    For every grid value the target power is re-tuned so the transmit SNR
    stays at ``snr_tx_db``; infeasible grid points enter the trace with a
    NaN metric.  Ties break to the smallest reg.  An SNR whose power
    overflows, or underflows to 0, is a :class:`DomainError`.
    """
    grid = _DEFAULT_REG_GRID if reg_grid is None else tuple(reg_grid)
    if not grid:
        raise DomainError("empty reg grid")
    power = _snr_power(params.noise_var, snr_tx_db)
    trace = []
    best: tuple[float, SystemParams] | None = None
    for reg in grid:
        try:
            res, sp = _tune_power_saddle(replace(params, reg=reg), power)
            ber = box_theory(res.params, sp).ber
        except (DomainError, SolverError):
            trace.append((reg, math.nan))
            continue
        trace.append((reg, ber))
        # Strict improvement keeps the first of tied points.
        if best is None or ber < best[0]:
            best = (ber, res.params)
    if best is None:
        raise SolverError("no feasible point on the reg grid")
    return TuneResult(params=best[1], objective=best[0], grid_trace=tuple(trace))


def optimize_quant(
    params: SystemParams,
    snr_tx_db: float,
    reg_grid: tuple[float, ...] | None = None,
    amp_grid: tuple[float, ...] | None = None,
) -> TuneResult:
    """Grid-search (reg, amp) minimizing quantized-precoder BER.

    The quantizer level is set from the SNR target and ``target_power``
    pinned to 1 (the quantized characterization's normalization).  The
    trace holds ``((reg, amp), ber)`` in grid order, reg-major, with the
    grid values as given and NaN where ``replace``, :func:`solve_saddle`
    or :func:`quant_theory` raises :class:`DomainError` or
    :class:`SolverError`; ties break to the smallest (reg, amp).

    The whole grid runs as one array pass (see :func:`_quant_grid`) that
    gives every point the scalar functions' float; the tests check it
    bit for bit against them.
    """
    regs = _DEFAULT_REG_GRID if reg_grid is None else tuple(reg_grid)
    amps = _DEFAULT_AMP_GRID if amp_grid is None else tuple(amp_grid)
    if not regs or not amps:
        raise DomainError("empty tuning grid")
    level = tune_level_for_snr(params.noise_var, snr_tx_db)
    points = [(reg, amp) for reg in regs for amp in amps]
    bers = _quant_grid(params, level, points)
    best = None
    for i, ber in enumerate(bers):
        if ber is not None and (best is None or ber < bers[best]):
            best = i
    if best is None:
        raise SolverError("no feasible point on the (reg, amp) grid")
    reg, amp = points[best]
    return TuneResult(
        params=replace(params, reg=reg, amp=amp, level=level, target_power=1.0),
        objective=bers[best],
        grid_trace=tuple(
            (point, math.nan if ber is None else ber) for point, ber in zip(points, bers)
        ),
    )


def _quant_grid(
    params: SystemParams, level: float, points: list[tuple[float, float]]
) -> list[float | None]:
    """Quantized BER at every ``(reg, amp)``, None where the scalar path raises.

    The scalar path is ``quant_theory(p, solve_saddle(p)).ber`` with ``p =
    replace(params, reg=reg, amp=amp, level=level, target_power=1.0)``.
    Points that ``SystemParams`` or :func:`_require_unique` reject are
    None.  The rest go through the array twins of the saddle solver and
    of :func:`quant_theory` together.  Their lanes divide as IEEE floats
    do, to inf or NaN where the scalar path's Python floats raise
    ``ZeroDivisionError`` (which ``solve_saddle`` turns into a
    ``SolverError``), and a lane counts as solved only where the final
    residual and variance checks pass, which NaN fails.
    Grid values are floats or ``np.float64``, whose arithmetic is the
    array's.
    """
    try:
        replace(params, level=level, target_power=1.0)
    except DomainError:
        return [None] * len(points)
    delta = params.user_ratio
    reg = np.array([r for r, _ in points], dtype=float)
    amp = np.array([a for _, a in points], dtype=float)
    # The per-point rules of SystemParams, then _require_unique's.
    valid = (
        np.isfinite(reg)
        & (reg >= 0.0)
        & (amp > 0.0)
        & ~((reg == 0.0) & (delta < 1.0))
        & ~((reg == 0.0) & (delta == 1.0) & np.isinf(amp))
    )
    lanes = np.flatnonzero(valid)
    with np.errstate(all="ignore"):
        tau, e_abs, solved = _solve_saddle_array(delta, 1.0, reg[lanes], amp[lanes])
        ber, ok = _quant_ber_array(
            tau[solved], e_abs[solved], delta, level, params.noise_var
        )
    bers: list[float | None] = [None] * len(points)
    for i, b in zip(lanes[solved][ok].tolist(), ber[ok].tolist()):
        bers[i] = b
    return bers
