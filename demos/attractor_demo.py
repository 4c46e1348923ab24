#!/usr/bin/env python3
"""Cantor-attractor geometry at the accumulation parameter.

At the end of the cascade the attractor is a minimal Cantor set: 2^m
orbit clusters at stage m, cyclically permuted by the map, each splitting
in two at the next stage.  The largest cluster diameter shrinks by the
universal factor 0.3995... per generation, for the logistic interval map
and for the Henon map alike.
"""

import numpy as np

from renormlab import attractor, cascade

logistic = cascade.logistic_family()
res = cascade.run_cascade(logistic, 12)
t_inf = res.t_inf
print(f"logistic accumulation parameter: {t_inf:.10f}")

tree = attractor.build_atoms(logistic, t_inf, 8, 2 ** 17)
diams = attractor.atom_diameters(tree)
ratios, lam_est = attractor.scaling_ratios(diams)
print(f"  {'m':>2} {'atoms':>6} {'max diameter':>14} {'ratio':>9}")
for m, d in enumerate(diams):
    r = f"{ratios[m - 1]:9.5f}" if m >= 1 else ""
    print(f"  {m:>2} {2 ** m:>6} {d:14.8f} {r}")
print(f"  scaling-constant estimate: {lam_est:.5f}  (universal value 0.3995...)")

henon = cascade.henon_family()
res_h = cascade.run_cascade(henon, 9)
t_h = res_h.t_inf
tree_h = attractor.build_atoms(henon, t_h, 6, 2 ** 15)
ratios_h, lam_h = attractor.scaling_ratios(attractor.atom_diameters(tree_h))
print(f"\nHenon accumulation parameter: {t_h:.8f}")
print(f"  ratios: {np.round(ratios_h, 5)}")
print(f"  scaling-constant estimate: {lam_h:.5f}")

print("\nperiodic orbits at the logistic accumulation (all repellers):")
for rep in attractor.verify_periodic_saddles(logistic, res, t_inf, [0, 1, 2, 3]):
    mult = abs(rep.multipliers[0]) if rep.multipliers else float("nan")
    print(f"  period {2 ** rep.level:>2}: {rep.classification:9s} |multiplier| = {mult:.4f}")

print("\nperiodic orbits at the Henon accumulation (saddles):")
for rep in attractor.verify_periodic_saddles(henon, res_h, t_h, [0, 1, 2]):
    mags = np.sort(np.abs(rep.multipliers))[::-1]
    print(f"  period {2 ** rep.level:>2}: {rep.classification:9s} |eigs| = "
          + ", ".join(f"{m:.4f}" for m in mags))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    for m, (lo, hi) in enumerate(zip(tree.lo, tree.hi)):
        for x0, x1 in zip(lo[:, 0], hi[:, 0]):
            ax.plot([x0, x1], [m, m], lw=3)
    ax.set_xlabel("x")
    ax.set_ylabel("generation")
    ax.set_title("nested atoms of the logistic Cantor attractor")
    fig.tight_layout()
    fig.savefig("attractor_atoms.png", dpi=120)
    print("\nwrote attractor_atoms.png")
except ImportError:
    print("\n(matplotlib not available; skipping the plot)")
