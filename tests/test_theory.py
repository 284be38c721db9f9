import math
from dataclasses import replace

import pytest

from boxprec import (
    DomainError,
    SystemParams,
    box_theory,
    bussgang_theory,
    quant_theory,
    snr_tx,
    solve_saddle,
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


def test_theory_rejects_foreign_saddle_point():
    p, sp = pinned()
    # A saddle point that does not satisfy this p's fixed point must be
    # refused; silent reuse across parameter sets was a real bug class.
    # Each foreign call comes right after the genuine pair, which leaves
    # that pair's moments in clip_moments' memo.  (The quantized and
    # Bussgang models refuse target_power != 1 before they get that far.)
    foreign = [(replace(p, **{field: getattr(p, field) * 1.01}), sp)
               for field in ("user_ratio", "reg", "amp", "target_power")]
    foreign += [(SystemParams(user_ratio=0.2, reg=1.0, amp=2.0, noise_var=0.09), sp)]
    foreign += [(p, replace(sp, tau=sp.tau * 1.001)), (p, replace(sp, beta=sp.beta * 1.001))]
    checkers = (box_theory, quant_theory, bussgang_theory, lambda p, sp: snr_tx(p, "box", sp))
    for checker in checkers:
        for other_p, other_sp in foreign:
            checker(p, sp)
            with pytest.raises(DomainError):
                checker(other_p, other_sp)


def test_snr_tx_identities():
    p, sp = pinned()
    bt = box_theory(p, sp)
    assert math.isclose(snr_tx(p, "box", sp), bt.power / p.noise_var, rel_tol=1e-14)
    assert math.isclose(snr_tx(p, "quantized"), p.level**2 / p.noise_var, rel_tol=1e-14)
    with pytest.raises(DomainError):
        snr_tx(SystemParams(user_ratio=0.2, reg=1.0, amp=1.0, noise_var=0.0), "box", sp)


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
