"""Transmit power under a box: theory curve vs finite-size measurements.

Sweeping the constellation power rho with the box held fixed shows the
defining effect of the amplitude constraint: the per-antenna transmit
power P = delta tau^2 - rho rises with rho but can never cross A^2, so
the curve bends and saturates where an unconstrained ridge precoder
would keep growing.  Finite simulations at n = 400 sit on the asymptote
to within a fraction of a percent.
"""

import numpy as np

from boxprec import SystemParams, box_theory, run_experiment, solve_saddle

RHOS = np.logspace(np.log10(0.05), 1.0, 8)
AMPS = (0.5, 1.0, 2.0)
TRIALS = 5
N = 400


def main():
    print(f"theory (infinite n) vs Monte Carlo (n={N}, {TRIALS} trials)")
    for amp in AMPS:
        print(f"\nbox amplitude A = {amp}  (ceiling A^2 = {amp * amp})")
        print("    rho     P theory    P empirical   rel err")
        for j, rho in enumerate(RHOS):
            p = SystemParams(user_ratio=0.2, reg=1.0, amp=amp,
                             target_power=float(rho), n_antennas=N)
            theory = box_theory(p, solve_saddle(p)).power
            rep = run_experiment(p, trials=TRIALS, base_seed=100 * j)
            rel = abs(rep.power_box - theory) / theory
            print(f"  {rho:7.3f}   {theory:9.6f}   {rep.power_box:9.6f}"
                  f"   {rel:8.2e}")

    # The same sweep makes the saturation visible at a glance: the A = 0.5
    # curve flattens first, the A = 2 curve barely bends over this range.
    print("\nsaturation summary (theory power at the sweep ends):")
    for amp in AMPS:
        lo = SystemParams(user_ratio=0.2, reg=1.0, amp=amp,
                          target_power=float(RHOS[0]))
        hi = SystemParams(user_ratio=0.2, reg=1.0, amp=amp,
                          target_power=float(RHOS[-1]))
        p_lo = box_theory(lo, solve_saddle(lo)).power
        p_hi = box_theory(hi, solve_saddle(hi)).power
        print(f"  A={amp}: P({RHOS[0]:.2f})={p_lo:.4f}  "
              f"P({RHOS[-1]:.1f})={p_hi:.4f}  headroom "
              f"{(1 - p_hi / amp ** 2) * 100:5.1f}% below A^2")


if __name__ == "__main__":
    main()
