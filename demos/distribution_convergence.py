"""Entrywise law of the precoder: clipped Gaussian, sharper as n grows.

The asymptotic theory says more than scalar averages: the empirical
distribution of the solved precoder entries converges to the clipped
Gaussian clamp(H/alpha*, +-A), and the distortion-vs-symbol pairs
converge to a two-component Gaussian mixture.  This script measures the
Wasserstein-2 distance of the distortion law and a histogram tail mass
check on the entry law at growing n, then drops a histogram overlay to
distribution_convergence.png when matplotlib is available.
"""

import numpy as np

from boxprec import (
    SystemParams,
    box_theory,
    empirical_metrics,
    generate_realization,
    q_tail,
    quant_theory,
    solve_box_qp,
    solve_saddle,
)

# A deliberately clipped operating point: small ridge, tight box, so a
# large fraction of entries sit exactly on the boundary.
BASE = SystemParams(user_ratio=0.2, reg=0.001, amp=0.47287080450158786,
                    level=0.53348382301167685, noise_var=0.09)
sp = solve_saddle(BASE)
box = box_theory(BASE, sp)
quant = quant_theory(BASE, sp)

atom = 2.0 * q_tail(sp.alpha * BASE.amp)  # predicted mass at the two walls
print(f"alpha* = {sp.alpha:.6f}; predicted boundary mass {atom:.4f}")
print("\n    n     W2 box      W2 quant    wall mass (pred "
      f"{atom:.4f})        [mean of 5 seeds]")

last = None
for n in (100, 400, 1600):
    p = SystemParams(user_ratio=0.2, reg=0.001, amp=BASE.amp,
                     level=BASE.level, noise_var=0.09, n_antennas=n)
    w2b, w2q, walls = [], [], []
    for seed in range(2024, 2029):
        real = generate_realization(p, seed)
        sol = solve_box_qp(real, p)
        m = empirical_metrics(real, sol, p, box, quant)
        w2b.append(m.w2_box)
        w2q.append(m.w2_quant)
        walls.append(np.mean(np.abs(sol.x_hat) >= BASE.amp * (1 - 1e-9)))
        last = sol
    print(f"  {n:5d}   {np.mean(w2b):.6f}   {np.mean(w2q):.6f}"
          f"   {np.mean(walls):.4f}")

# Histogram overlay for the largest n: interior entries follow the
# Gaussian density alpha*phi(alpha*x); the walls carry point masses.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the figure")
else:
    x = last.x_hat
    grid = np.linspace(-BASE.amp, BASE.amp, 400)
    dens = sp.alpha * np.exp(-0.5 * (sp.alpha * grid) ** 2) / np.sqrt(2 * np.pi)
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.hist(x, bins=80, density=True, alpha=0.45, label="solved entries")
    ax.plot(grid, dens, lw=2, label="clipped-Gaussian interior density")
    for side in (-BASE.amp, BASE.amp):
        ax.axvline(side, color="k", lw=0.8, ls="--")
    ax.set_xlabel("precoder entry")
    ax.set_ylabel("density")
    ax.set_title(f"entry law at n={len(x)}; boundary atoms hold "
                 f"{atom:.1%} of the mass")
    ax.legend()
    fig.tight_layout()
    fig.savefig("distribution_convergence.png", dpi=120)
    print("\nwrote distribution_convergence.png")
