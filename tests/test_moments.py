import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxprec.moments import ClipMoments, clip_moments, normal_pdf, q_tail

from oracles import moments_by_quadrature

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def test_q_tail_known_values():
    assert q_tail(0.0) == 0.5
    assert abs(q_tail(1.0) - 0.15865525393145707) < 1e-15
    assert abs(q_tail(-1.0) - 0.8413447460685429) < 1e-15
    assert q_tail(40.0) == 0.0  # underflows, never negative


def test_normal_pdf_peak():
    assert abs(normal_pdf(0.0) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-16


def test_frozen_unit_point():
    # alpha=1, amp=1: e_xh is 1 - 2Q(1) exactly.
    m = clip_moments(1.0, 1.0)
    assert abs(m.e_abs - 0.63125361962749282) < 1e-14
    assert abs(m.e_sq - 0.51605855096171338) < 1e-14
    assert abs(m.e_xh - 0.68268949213708596) < 1e-14
    assert abs(m.e_xh - (1.0 - 2.0 * q_tail(1.0))) < 1e-15


def test_unbounded_amp_is_plain_gaussian():
    for alpha in (0.3, 1.0, 7.5):
        m = clip_moments(alpha, math.inf)
        assert math.isclose(m.e_abs, SQRT_2_OVER_PI / alpha, rel_tol=1e-14)
        assert math.isclose(m.e_sq, 1.0 / alpha**2, rel_tol=1e-14)
        assert math.isclose(m.e_xh, 1.0 / alpha, rel_tol=1e-14)


def test_matches_quadrature_on_log_grid():
    alphas = np.logspace(-2, 2, 9)
    amps = np.logspace(-2, 2, 9)
    for alpha in alphas:
        for amp in amps:
            closed = clip_moments(float(alpha), float(amp))
            e_abs, e_sq, e_xh = moments_by_quadrature(float(alpha), float(amp))
            assert abs(closed.e_abs - e_abs) < 1e-10
            assert abs(closed.e_sq - e_sq) < 1e-10
            assert abs(closed.e_xh - e_xh) < 1e-10


def test_series_erf_seam_is_smooth():
    # The truncated second moment switches formulas at t = 0.1; the two
    # branches must agree through the seam at float resolution.
    alpha = 1.0
    for amp in (0.0999999, 0.1, 0.1000001):
        closed = clip_moments(alpha, amp)
        _, e_sq, _ = moments_by_quadrature(alpha, amp)
        assert abs(closed.e_sq - e_sq) < 1e-13


def test_small_t_has_no_cancellation():
    # At t = 1e-6 the naive erf form loses ~12 digits; the series keeps
    # full precision: m2(t) -> t^3 * sqrt(2/pi) / 3.
    m = clip_moments(1.0, 1e-6)
    exact_m2 = SQRT_2_OVER_PI * (1e-18 / 3.0)
    e_sq_exact = exact_m2 + 2.0 * 1e-12 * q_tail(1e-6)
    assert abs(m.e_sq - e_sq_exact) <= 1e-15 * e_sq_exact + 1e-30


def test_e_sq_monotone_in_amp_up_to_limit():
    alpha = 0.8
    amps = np.logspace(-2, 2, 40)
    values = [clip_moments(alpha, float(a)).e_sq for a in amps]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= 1.0 / alpha**2 + 1e-15


def test_infinite_alpha_collapses_to_zero():
    m = clip_moments(math.inf, 1.0)
    assert m == ClipMoments(e_abs=0.0, e_sq=0.0, e_xh=0.0)


def test_rejects_bad_arguments():
    for alpha, amp in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            clip_moments(alpha, amp)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=1e-3, max_value=1e3),
    amp=st.floats(min_value=1e-3, max_value=1e3),
)
def test_moment_bounds_hold_everywhere(alpha, amp):
    m = clip_moments(alpha, amp)
    cap = min(amp * amp, 1.0 / (alpha * alpha))
    assert 0.0 < m.e_sq <= cap * (1.0 + 1e-12)
    assert 0.0 < m.e_abs <= min(amp, SQRT_2_OVER_PI / alpha) * (1.0 + 1e-12)
    # Clipping only sheds mass, never flips the correlation sign.
    assert 0.0 < m.e_xh <= 1.0 / alpha * (1.0 + 1e-12)


def _bits(m: ClipMoments) -> tuple[str, str, str]:
    return (m.e_abs.hex(), m.e_sq.hex(), m.e_xh.hex())


_ARG = st.floats(min_value=1e-3, max_value=1e3) | st.just(math.inf)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(_ARG, _ARG), min_size=1, max_size=4),
    picks=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
)
def test_memo_returns_the_bits_of_a_fresh_evaluation(pairs, picks):
    # Picks repeat pairs both back to back (memo hits) and after another
    # pair has taken the single entry (misses).
    for i in picks:
        alpha, amp = pairs[i % len(pairs)]
        assert _bits(clip_moments(alpha, amp)) == _bits(clip_moments.__wrapped__(alpha, amp))


def test_memo_keeps_only_the_last_evaluation():
    first = clip_moments(0.7, 1.3)
    assert clip_moments(0.7, 1.3) is first
    clip_moments(0.7, math.inf)
    again = clip_moments(0.7, 1.3)
    assert again is not first and again == first
    with pytest.raises(ValueError):
        clip_moments(0.7, -1.3)
