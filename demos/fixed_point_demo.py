#!/usr/bin/env python3
"""Solve the doubling-renormalization fixed point and inspect it.

The unique normalized even unimodal map phi0 with phi0(0) = 1 satisfies
phi0(1)^-1 * phi0(phi0(phi0(1) x)) = phi0(x).  Newton in coefficient space
finds it in a handful of iterations; -phi0(1) is the universal spatial
constant 0.3995..., and the linearized operator's expanding eigenvalue on
the normalized slice is the universal parameter-scaling constant.
"""

import numpy as np

from renormlab import renorm1d, series

fp = renorm1d.solve_fixed_point(degree=40)
phi = fp.phi0

print("Newton iterations:", fp.newton_iters)
print("step norms:       ", " ".join(f"{s:.2e}" for s in fp.step_norms))
print(f"functional residual sup|R(phi)-phi| = {fp.residual:.3e}")
print(f"spatial constant  -phi(1) = {fp.lam:.12f}")
print(f"phi''(0) = {2 * phi.coeffs[1]:+.6f}  (negative: quadratic maximum)")
print("\nleading even-series coefficients:")
for j, c in enumerate(phi.coeffs[:8]):
    print(f"  c_{j} = {c:+.12f}")

lin = renorm1d.linearize(phi)
print(f"\nexpanding eigenvalue on the normalized slice: {lin.leading_eigenvalue:.9f}")
print(f"expanding directions: full space {lin.expanding_count} "
      f"(one is the scaling direction), pinned slice {lin.pinned_expanding_count}")

# the fixed point really is fixed: R phi = phi(1)^-1 phi(phi(phi(1) x))
rescaled = renorm1d.renormalize(phi)
print(f"\nsup distance of rescaled second iterate from phi: "
      f"{series.sup_distance(rescaled, phi):.3e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    xs = np.linspace(-1, 1, 801)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(xs, series.evaluate(phi, xs), label="phi0")
    ax.plot(xs, series.evaluate(rescaled, xs), "--", label="rescaled second iterate")
    ax.axhline(-fp.lam, color="gray", lw=0.6)
    ax.set_xlabel("x")
    ax.legend()
    fig.tight_layout()
    fig.savefig("fixed_point.png", dpi=120)
    print("wrote fixed_point.png")
except ImportError:
    print("(matplotlib not available; skipping the plot)")
