"""Where the Bussgang approximation breaks and the exact theory holds.

The classic way to analyze one-bit precoding is the Bussgang
decomposition: model the quantized signal as a linear gain on the input
plus uncorrelated noise.  That model is exact when the precoder output
is Gaussian, which happens only when the box is so wide it never clips.
With a finite box the output distribution is a clipped Gaussian with
mass piled at +-A, and the Bussgang BER prediction drifts away from the
exact asymptotic law precisely in the regime where the box is doing its
job.  Monte Carlo sides with the exact law.

Run with --trials 0 to skip the simulation and print theory only.
"""

import argparse

import numpy as np

from boxprec import (
    SystemParams,
    bussgang_theory,
    quant_theory,
    run_experiment,
    solve_saddle,
    tune_level_for_snr,
)

NOISE = 0.09
LEVEL = tune_level_for_snr(NOISE, 5.0)  # 5 dB transmit SNR
AMPS = np.logspace(-1, 1, 10)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10,
                        help="Monte Carlo trials per point (0 disables)")
    parser.add_argument("--antennas", type=int, default=500)
    args = parser.parse_args()

    print(f"quantizer level L = {LEVEL:.6f} (5 dB over noise_var {NOISE})")
    header = "    A        exact BER    bussgang BER    gap"
    if args.trials:
        header += f"       MC BER (n={args.antennas})"
    print(header)

    rows = []
    for j, amp in enumerate(AMPS):
        p = SystemParams(user_ratio=0.2, reg=0.001, amp=float(amp), level=LEVEL,
                         noise_var=NOISE, n_antennas=args.antennas)
        sp = solve_saddle(p)
        exact = quant_theory(p, sp).ber
        buss = bussgang_theory(p, sp).ber
        line = (f"  {amp:7.3f}   {exact:.6e}   {buss:.6e}   "
                f"{abs(buss - exact):.2e}")
        if args.trials:
            rep = run_experiment(p, trials=args.trials, base_seed=7000 + 50 * j)
            line += f"   {rep.ber_quant:.6e} +- {rep.ber_quant_se:.1e}"
            rows.append((exact, buss, rep.ber_quant, rep.ber_quant_se))
        print(line)

    # The exact curve has an interior optimum in A: too small a box starves
    # the signal, too large a box wastes the quantizer's dynamic range.
    exact_curve = []
    for amp in AMPS:
        p = SystemParams(user_ratio=0.2, reg=0.001, amp=float(amp), level=LEVEL,
                         noise_var=NOISE)
        exact_curve.append(quant_theory(p, solve_saddle(p)).ber)
    best = int(np.argmin(exact_curve))
    print(f"\nexact theory minimizes BER at A = {AMPS[best]:.3f} "
          f"(sweep index {best} of {len(AMPS) - 1}, interior)")

    if args.trials:
        # Score both predictions against the measurements: count how often
        # each lands within 3 standard errors of the Monte Carlo estimate.
        hit_exact = sum(abs(mc - ex) <= 3 * se for ex, _, mc, se in rows)
        hit_buss = sum(abs(mc - bu) <= 3 * se for _, bu, mc, se in rows)
        print(f"within 3 SE of Monte Carlo: exact {hit_exact}/{len(rows)}, "
              f"bussgang {hit_buss}/{len(rows)}")


if __name__ == "__main__":
    main()
