import math
from dataclasses import fields, replace

import pytest

from boxprec import (
    BoxTheory,
    DomainError,
    SystemParams,
    box_theory,
    bussgang_theory,
    quant_theory,
    snr_tx,
    solve_saddle,
    theory,
)
from boxprec.moments import q_tail

PINNED = dict(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=0.09)


def pinned():
    p = SystemParams(**PINNED)
    return p, solve_saddle(p)


# The box, quantized and Bussgang fixtures at the pinned point are exact
# values: the saddle system was solved with mpmath at 50 significant
# digits (inputs taken as their binary doubles), the closed forms were
# evaluated at that precision, and the results were rounded to double.


def test_box_frozen_fixture():
    p, sp = pinned()
    bt = box_theory(p, sp)
    # power and dist_std go through delta tau^2 - rho, which cancels.
    assert math.isclose(bt.power, 0.04727024031540033, rel_tol=1e-13)
    assert math.isclose(bt.sig_coef, 0.4750610830277004, rel_tol=1e-14)
    assert math.isclose(bt.dist_std, 0.114130751261154, rel_tol=1e-13)
    assert math.isclose(bt.sdnr_lb, 2.1905480999144986, rel_tol=1e-14)
    assert math.isclose(bt.ber, 0.06942994742406328, rel_tol=1e-14)
    assert math.isclose(bt.rx_scale, 2.104992464604159, rel_tol=1e-14)


def test_box_internal_identities():
    p, sp = pinned()
    bt = box_theory(p, sp)
    assert math.isclose(bt.rx_scale, 1.0 / bt.sig_coef, rel_tol=1e-14)
    noise_plus_dist = bt.dist_std**2 + p.noise_var
    assert math.isclose(bt.sdnr_lb, bt.sig_coef**2 / noise_plus_dist, rel_tol=1e-14)
    assert math.isclose(bt.ber, q_tail(bt.sig_coef / math.sqrt(noise_plus_dist)), rel_tol=1e-14)
    # Transmit power is the squared dispersion in excess of the target.
    assert math.isclose(bt.power, p.user_ratio * sp.tau**2 - p.target_power, rel_tol=1e-9)
    assert math.isclose(bt.power, sp.moments.e_sq, rel_tol=1e-9)


def test_quant_frozen_fixture():
    p, sp = pinned()
    qt = quant_theory(p, sp)
    assert math.isclose(qt.sig_coef, 1.7433945433288933, rel_tol=1e-12)
    assert math.isclose(qt.dist_var, 0.5388058525872969, rel_tol=1e-12)
    assert math.isclose(qt.sdnr_lb, 4.833645426808426, rel_tol=1e-12)
    assert math.isclose(qt.ber, 0.013954779012422766, rel_tol=1e-10)
    assert math.isclose(qt.rx_scale, 1.0 / qt.sig_coef, rel_tol=1e-14)


def test_quant_known_unclipped_values():
    # delta=2, reg=0, amp=inf, level=1: signal coefficient is
    # sqrt(2/pi)/2 and the distortion variance 1 - 2/pi + (2/pi)(1/2).
    p = SystemParams(user_ratio=2.0, reg=0.0, amp=math.inf, level=1.0, noise_var=0.09)
    qt = quant_theory(p, solve_saddle(p))
    assert math.isclose(qt.sig_coef, 0.39894228040122293, rel_tol=1e-10)
    assert math.isclose(qt.dist_var, 0.52253517072448119, rel_tol=1e-10)


def test_bussgang_frozen_fixture():
    p, sp = pinned()
    bu = bussgang_theory(p, sp)
    assert math.isclose(bu.gain, 3.669831772669084, rel_tol=1e-12)
    assert math.isclose(bu.resid_var, 0.36338022763241862, rel_tol=1e-12)
    assert math.isclose(bu.sig_coef, 1.7433942564536407, rel_tol=1e-12)
    assert math.isclose(bu.noise_var, 0.6288077237701988, rel_tol=1e-12)
    assert math.isclose(bu.ber, 0.01395490830098339, rel_tol=1e-10)


def test_bussgang_exact_without_clipping():
    # With no clipping the precoder entries are Gaussian, where the
    # uncorrelated-distortion heuristic is exact: both characterizations
    # must coincide to float precision.
    for ratio, reg in ((0.5, 0.3), (0.2, 1.0), (2.0, 0.7)):
        p = SystemParams(user_ratio=ratio, reg=reg, amp=math.inf, level=0.8, noise_var=0.2)
        sp = solve_saddle(p)
        qt = quant_theory(p, sp)
        bu = bussgang_theory(p, sp)
        assert abs(qt.ber - bu.ber) < 1e-12
        assert math.isclose(qt.sig_coef, bu.sig_coef, rel_tol=1e-10)


def test_bussgang_gap_fades_as_box_opens():
    # The heuristic's error decays with the box; past amp ~ 8 the true
    # correction underflows doubles, so the decrease is non-strict.
    p0 = SystemParams(**PINNED)
    gaps = []
    for amp in (1.0, 2.0, 4.0, 10.0, 50.0, 100.0):
        p = replace(p0, amp=amp)
        sp = solve_saddle(p)
        gaps.append(abs(quant_theory(p, sp).ber - bussgang_theory(p, sp).ber))
    assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_quant_requires_unit_target_power():
    p = SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, target_power=2.0)
    sp = solve_saddle(p)
    with pytest.raises(DomainError):
        quant_theory(p, sp)
    with pytest.raises(DomainError):
        bussgang_theory(p, sp)


CHECKERS = (box_theory, quant_theory, bussgang_theory, lambda p, sp: snr_tx(p, "box", sp))
# Solved after the pinned point, it takes the solver's last pair.
OTHER = SystemParams(user_ratio=0.5, reg=0.3, amp=1.5, noise_var=0.09)


def _foreign(p, sp):
    """Pairs of which one half does not belong to the other."""
    pairs = [(replace(p, **{field: getattr(p, field) * 1.01}), sp)
             for field in ("user_ratio", "reg", "amp", "target_power")]
    pairs += [(SystemParams(user_ratio=0.2, reg=1.0, amp=2.0, noise_var=0.09), sp)]
    pairs += [(p, replace(sp, tau=sp.tau * 1.001)), (p, replace(sp, beta=sp.beta * 1.001))]
    return pairs


def test_theory_rejects_foreign_saddle_point():
    p = SystemParams(**PINNED)
    # A saddle point that does not satisfy this p's fixed point must be
    # refused; silent reuse across parameter sets was a real bug class.
    # Each foreign pair is tried right after solve_saddle returned the
    # genuine pair, whose check then skips the residuals, so a foreign
    # pair sharing either half of it must still be checked in full.
    # (The quantized and Bussgang models refuse target_power != 1 before
    # they get that far.)
    for checker in CHECKERS:
        for k in range(len(_foreign(p, solve_saddle(p)))):
            sp = solve_saddle(p)
            checker(p, sp)
            other_p, other_sp = _foreign(p, sp)[k]
            with pytest.raises(DomainError):
                checker(other_p, other_sp)
        # An older point, after the solver has returned another: refused
        # for the newer params, accepted for the params it solves.
        older = solve_saddle(p)
        solve_saddle(OTHER)
        with pytest.raises(DomainError):
            checker(OTHER, older)
        checker(p, older)
        # Params equal to the solved ones but a distinct object: checked
        # in full, and accepted.
        sp = solve_saddle(p)
        twin = SystemParams(**PINNED)
        assert twin == p and twin is not p
        checker(twin, sp)


def _bits(result):
    if isinstance(result, float):
        return result.hex()
    return tuple(getattr(result, f.name).hex() for f in fields(result))


def test_skipped_check_gives_the_bits_of_the_full_check(monkeypatch):
    calls = []
    real = theory.saddle_residuals

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(theory, "saddle_residuals", counted)
    p = SystemParams(**PINNED)
    for checker in CHECKERS:
        sp = solve_saddle(p)
        calls.clear()
        skipped = checker(p, sp)
        assert calls == []
        solve_saddle(OTHER)
        full = checker(p, sp)
        assert len(calls) == 1
        assert _bits(skipped) == _bits(full)


@pytest.mark.parametrize(
    "kernel, params, message",
    [
        # level^2 overflows into the distortion and residual variances.
        (quant_theory, dict(level=1e300), "QuantTheory.dist_var is not finite"),
        (bussgang_theory, dict(level=1e300), "BussgangTheory.resid_var is not finite"),
        # The signal coefficient underflows: to the smallest subnormal,
        # whose inverse overflows, and to 0.
        (quant_theory, dict(level=5e-324, user_ratio=2.0), "QuantTheory.rx_scale"),
        (quant_theory, dict(level=5e-324, user_ratio=5.0), "underflows to 0"),
        (bussgang_theory, dict(level=5e-324, noise_var=0.0), "BER undefined"),
    ],
)
def test_theory_refuses_degraded_numbers(kernel, params, message):
    p = SystemParams(**{**PINNED, **params})
    with pytest.raises(DomainError, match=message):
        kernel(p, solve_saddle(p))


def test_nonfinite_check_names_the_field_or_returns():
    with pytest.raises(DomainError, match=r"BoxTheory.sdnr_lb is not finite \(nan\)"):
        theory._refuse_nonfinite(BoxTheory(1.0, 1.0, 1.0, math.nan, math.inf, 1.0))
    # Finite fields whose sum overflows pass.
    theory._refuse_nonfinite(BoxTheory(1e308, 1e308, 1.0, 1.0, 0.5, 1.0))


def test_snr_tx_identities():
    p, sp = pinned()
    bt = box_theory(p, sp)
    assert math.isclose(snr_tx(p, "box", sp), bt.power / p.noise_var, rel_tol=1e-14)
    assert math.isclose(snr_tx(p, "quantized"), p.level**2 / p.noise_var, rel_tol=1e-14)
    with pytest.raises(DomainError):
        snr_tx(SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=0.0), "box", sp)


def test_snr_tx_refuses_a_nonfinite_snr():
    # level^2 overflows; a positive power over a subnormal noise_var does.
    loud = SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, level=1e300, noise_var=0.09)
    with pytest.raises(DomainError, match=r"quantized transmit SNR is not finite \(inf\)"):
        snr_tx(loud, "quantized")
    quiet = SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=5e-324)
    with pytest.raises(DomainError, match=r"box transmit SNR is not finite \(inf\)"):
        snr_tx(quiet, "box", solve_saddle(quiet))


def test_quant_sdnr_depends_only_on_tx_snr():
    # Holding level^2/noise_var fixed, the quantized SDNR must not move
    # with the noise floor.
    snr = 10.0 ** (5.0 / 10.0)
    values = []
    for noise_var in (0.01, 0.09, 1.0):
        level = math.sqrt(noise_var * snr)
        p = SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, level=level, noise_var=noise_var)
        values.append(quant_theory(p, solve_saddle(p)).sdnr_lb)
    assert abs(values[0] - values[1]) < 1e-10
    assert abs(values[1] - values[2]) < 1e-10
