"""End-to-end acceptance gate.

One test per criterion, numbered; each prints a one-line detail record
with the measured quantities before asserting, so the log carries the
numbers either way.  Budgets are asserted where a runtime bound is part
of the criterion.
"""

import csv
import math
import shutil
import time
from dataclasses import replace

import numpy as np
import pytest

from boxprec import (
    SystemParams,
    box_theory,
    bussgang_theory,
    clip_moments,
    cli,
    empirical_metrics,
    generate_realization,
    quant_theory,
    run_experiment,
    solve_box_qp,
    solve_saddle,
    tune_level_for_snr,
)
import golden
from oracles import box_qp_by_enumeration, moments_by_quadrature

TUNED_OPTIMUM = SystemParams(
    user_ratio=0.2,
    reg=0.001,
    amp=0.47287080450158786,
    level=0.53348382301167685,
    noise_var=0.09,
    target_power=1.0,
)


@pytest.fixture(scope="module")
def fig3_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fig3")
    first, second = tmp / "first.csv", tmp / "second.csv"
    for out in (first, second):
        code = cli.main(["run", "--preset", "fig3", "--out", str(out)])
        assert code == 0
    with open(first, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return first, second, rows


def test_criterion_01_saddle_exactness():
    t0 = time.perf_counter()
    sp = solve_saddle(
        SystemParams(user_ratio=2.0, reg=0.0, amp=math.inf, target_power=1.0)
    )
    err = max(abs(sp.tau - 1.0), abs(sp.beta - 2.0))
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(100):
        p = SystemParams(
            user_ratio=10.0 ** rng.uniform(-1.3, 0.7),
            reg=10.0 ** rng.uniform(-3.0, 2.0),
            amp=math.inf if rng.random() < 0.2 else 10.0 ** rng.uniform(-1.0, 1.0),
            target_power=10.0 ** rng.uniform(-1.0, 1.0),
        )
        s = solve_saddle(p)
        worst = max(worst, abs(s.residual_power), abs(s.residual_beta))
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 01: closed-form error {err:.2e} (tol 1e-8), worst grid "
        f"residual {worst:.2e} (tol 1e-9), {elapsed:.2f}s (budget 1s)"
    )
    assert err < 1e-8
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_02_moment_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in np.logspace(-2.0, 2.0, 9):
        for amp in np.logspace(-2.0, 2.0, 9):
            got = clip_moments(alpha, amp)
            ref = moments_by_quadrature(alpha, amp)
            worst = max(
                worst,
                abs(got.e_abs - ref[0]),
                abs(got.e_sq - ref[1]),
                abs(got.e_xh - ref[2]),
            )
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 02: worst closed-form vs quadrature gap {worst:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s (budget 10s)"
    )
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_03_qp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst_cost = worst_kkt = 0.0
    for k in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 3))
        p = SystemParams(
            user_ratio=m / n,
            reg=10.0 ** rng.uniform(-2.0, 1.0),
            amp=10.0 ** rng.uniform(-0.7, 0.5),
            target_power=10.0 ** rng.uniform(-0.5, 0.5),
            n_antennas=n,
        )
        real = generate_realization(p, 6000 + k)
        sol = solve_box_qp(real, p)
        _, c_ref = box_qp_by_enumeration(
            real.channel, real.symbols, p.reg, p.amp, p.target_power
        )
        worst_cost = max(worst_cost, abs(sol.cost - c_ref))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 03: worst cost gap {worst_cost:.2e} (tol 1e-8), worst "
        f"KKT {worst_kkt:.2e} (tol 1e-9), {elapsed:.2f}s (budget 30s)"
    )
    assert worst_cost < 1e-8
    assert worst_kkt < 1e-9
    assert elapsed < 30.0


def test_criterion_04_power_curve_shape():
    t0 = time.perf_counter()
    rhos = np.logspace(math.log10(0.05), 1.0, 8)
    worst_rel = 0.0
    for amp in (0.5, 1.0, 2.0):
        powers = []
        for rho in rhos:
            p = SystemParams(
                user_ratio=0.2,
                reg=1.0,
                amp=amp,
                target_power=float(rho),
                n_antennas=800,
            )
            pw = box_theory(p, solve_saddle(p)).power
            powers.append(pw)
            rep = run_experiment(p, trials=10, base_seed=12000, workers=1)
            worst_rel = max(worst_rel, abs(rep.power_box - pw) / pw)
        assert all(b > a for a, b in zip(powers, powers[1:])), (
            f"power not strictly increasing at amp={amp}: {powers}"
        )
        assert max(powers) < amp * amp
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 04: transmit power strictly rising and < A^2 on all 3 "
        f"curves, worst empirical deviation {100 * worst_rel:.2f}% "
        f"(tol 5%), {elapsed:.0f}s (budget 300s)"
    )
    assert worst_rel < 0.05
    assert elapsed < 300.0


def test_criterion_05_quantized_ber_agreement(fig3_runs):
    _, _, rows = fig3_runs
    assert len(rows) == 10
    hits = 0
    worst_z = 0.0
    for row in rows:
        z = abs(float(row["emp_ber_quant"]) - float(row["quant_ber"]))
        se = float(row["emp_ber_quant_se"])
        if z <= 3.0 * se:
            hits += 1
        worst_z = max(worst_z, z / se)
    bers = [float(r["quant_ber"]) for r in rows]
    argmin = bers.index(min(bers))
    print(
        f"criterion 05: {hits}/10 points within 3 SE (need 9, max |z| "
        f"{worst_z:.2f}), theory minimum at sweep index {argmin} (interior)"
    )
    assert hits >= 9
    assert 0 < argmin < len(bers) - 1


def test_criterion_06_noise_invariance():
    vals = []
    for sigma2 in (0.01, 0.09, 1.0):
        p = SystemParams(
            user_ratio=0.2,
            reg=1.0,
            amp=1.0,
            level=tune_level_for_snr(sigma2, 5.0),
            noise_var=sigma2,
        )
        vals.append(quant_theory(p, solve_saddle(p)).sdnr_lb)
    spread = (max(vals) - min(vals)) / vals[0]
    print(
        f"criterion 06: quantized SDNR lower bound spread {spread:.2e} over "
        f"sigma^2 in {{0.01, 0.09, 1.0}} at 5 dB (tol 1e-10)"
    )
    assert spread < 1e-10


def test_criterion_07_bussgang_dichotomy():
    p_wide = SystemParams(
        user_ratio=2.0,
        reg=0.0,
        amp=100.0,
        level=tune_level_for_snr(0.09, 5.0),
        noise_var=0.09,
    )
    sp = solve_saddle(p_wide)
    gap_wide = abs(
        bussgang_theory(p_wide, sp).ber - quant_theory(p_wide, sp).ber
    )
    sp_opt = solve_saddle(TUNED_OPTIMUM)
    gap_opt = abs(
        bussgang_theory(TUNED_OPTIMUM, sp_opt).ber
        - quant_theory(TUNED_OPTIMUM, sp_opt).ber
    )
    print(
        f"criterion 07: BER gap {gap_wide:.2e} at A=100 (tol 1e-6) vs "
        f"{gap_opt:.4f} at the tuned optimum (threshold 0.02)"
    )
    assert gap_wide < 1e-6
    assert gap_opt > 0.02


def test_criterion_08_wasserstein_convergence():
    t0 = time.perf_counter()
    sp = solve_saddle(TUNED_OPTIMUM)
    box = box_theory(TUNED_OPTIMUM, sp)
    quant = quant_theory(TUNED_OPTIMUM, sp)
    wins_box = wins_quant = 0
    for seed in range(31000, 31025):
        w2 = {}
        for n in (200, 1000):
            p = replace(TUNED_OPTIMUM, n_antennas=n)
            real = generate_realization(p, seed)
            sol = solve_box_qp(real, p)
            m = empirical_metrics(real, sol, p, box, quant)
            w2[n] = (m.w2_box, m.w2_quant)
        wins_box += w2[1000][0] < w2[200][0]
        wins_quant += w2[1000][1] < w2[200][1]
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 08: W2 shrank from n=200 to n=1000 on {wins_box}/25 box "
        f"and {wins_quant}/25 quantized seed pairs (need 20), {elapsed:.0f}s "
        f"(budget 600s)"
    )
    assert wins_box >= 20
    assert wins_quant >= 20
    assert elapsed < 600.0


def test_criterion_09_jensen_ordering(fig3_runs):
    _, _, rows = fig3_runs
    for row in rows:
        assert float(row["emp_sdnr_avg_box"]) >= float(row["emp_sdnr_lb_box"])
        assert float(row["emp_sdnr_avg_quant"]) >= float(row["emp_sdnr_lb_quant"])
    extra = []
    for seed, rho in ((1, 1.0), (2, 2.5)):
        p = SystemParams(
            user_ratio=0.2,
            reg=1.0,
            amp=1.0,
            noise_var=0.09,
            target_power=rho,
            n_antennas=200,
        )
        rep = run_experiment(p, trials=4, base_seed=7000 * seed, workers=1)
        extra.append(rep.sdnr_avg_box - rep.sdnr_lb_box)
        assert rep.sdnr_avg_box >= rep.sdnr_lb_box
        if rep.sdnr_avg_quant is not None:
            assert rep.sdnr_avg_quant >= rep.sdnr_lb_quant
    print(
        f"criterion 09: averaged SDNR >= lower bound on all 10 emitted fig3 "
        f"rows and 2 fresh reports (margins {min(extra):.3f}+)"
    )


def test_criterion_10_determinism(fig3_runs):
    first, second, _ = fig3_runs
    same = first.read_bytes() == second.read_bytes()
    print(
        f"criterion 10: two fig3 runs, {first.stat().st_size} bytes each, "
        f"byte-identical: {same}"
    )
    assert same


def _assert_golden(preset: str, out) -> None:
    key = golden.environment_key(out)
    entry = golden.entry_for(preset, key)
    if entry is None:
        pytest.skip(f"tests/golden.json has no {preset} entry for {key}")
    assert golden.mismatches(entry, out) == []


def test_fig3_matches_golden_digests(fig3_runs):
    _assert_golden("fig3", fig3_runs[0])


@pytest.mark.parametrize("preset", ["fig1", "fig2"])
def test_theory_presets_match_golden_digests(tmp_path, preset):
    # The theory-only presets run in about 0.3 s each.
    out = tmp_path / f"{preset}.csv"
    assert cli.main(["run", "--preset", preset, "--out", str(out)]) == 0
    _assert_golden(preset, out)


def test_golden_digests_catch_a_tampered_empirical_cell(fig3_runs, tmp_path):
    # One emp_* cell moved by 1e-3: the CSV digest no longer matches.
    first, _, _ = fig3_runs
    entry = golden.entry_for("fig3", golden.environment_key(first)) or golden.digests(first)
    copy = tmp_path / "fig3.csv"
    shutil.copyfile(first, copy)
    shutil.copyfile(f"{first}.meta.json", f"{copy}.meta.json")
    assert golden.mismatches(entry, copy) == []
    lines = copy.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    col = header.index("emp_ber_box")
    cells[col] = repr(float(cells[col]) + 1e-3)
    lines[1] = ",".join(cells)
    copy.write_text("\n".join(lines) + "\n")
    problems = golden.mismatches(entry, copy)
    assert len(problems) == 1 and problems[0].startswith("csv_sha256")
