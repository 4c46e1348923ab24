#!/usr/bin/env python3
"""Doubling renormalization of the standard map of the 2-disk.

The standard endomorphism (x, y) -> (y, phi0(y)) collapses the disk onto
the graph of the interval fixed point.  A renormalization disk D1 must
satisfy two sampled conditions: psi(D1) disjoint from D1, psi^2(D1)
strictly inside it.  The search below finds such a disk, renormalizes
(affine chart + degree-8 polynomial refit), and repeats four times; the
margins stay healthy at every level, which is the doubling-renormalizable
structure made quantitative.
"""

import numpy as np

from renormlab import renorm1d, renorm_nd

fp = renorm1d.solve_fixed_point(degree=20)
psi = renorm_nd.standard_fct_map(2, fp.phi0)
reference = renorm_nd.DiskND(np.zeros(2), 0.8 * np.eye(2))

cur = psi
start = np.array([0.3, 0.5])
for level in range(1, 5):
    found = renorm_nd.search_renorm_disk(cur, start=start)
    chk = found.check
    dist = renorm_nd.distance_to_standard(cur, fp.phi0, reference)
    print(f"level {level}:")
    print(f"  disk center {np.round(found.disk.center, 4)}, "
          f"semi-axis lengths {np.round(np.linalg.svd(found.disk.linear, compute_uv=False), 4)}")
    print(f"  disjoint margin {chk.disjoint_margin:.4f}, "
          f"inside margin {chk.inside_margin:.4f}")
    print(f"  sup distance from the standard form (diagnostic): {dist:.4f}")
    cur = renorm_nd.renormalize_nd(cur, found.disk)
    print(f"  refit residual of the renormalized map: {cur.fit_residual:.2e}")
    start = np.array([0.1, 0.1])

# the renormalized dynamics is still driven by the interval map: compare the
# renormalized map against the exact second iterate pulled through the chart
found = renorm_nd.search_renorm_disk(psi, start=np.array([0.3, 0.5]))
disk = found.disk
rpsi = renorm_nd.renormalize_nd(psi, disk)
w = np.column_stack([np.zeros(9), np.linspace(-1, 1, 9)])
y = disk.chart(w)[:, 1]
from renormlab import series  # noqa: E402
exact = np.column_stack([series.evaluate(fp.phi0, y),
                         series.evaluate(fp.phi0, series.evaluate(fp.phi0, y))])
exact_chart = (exact - disk.center) @ np.linalg.inv(disk.linear).T
print("\nrenormalized map vs exact second iterate along the driving axis:")
print("  max deviation:", np.max(np.abs(rpsi(w) - exact_chart)))
