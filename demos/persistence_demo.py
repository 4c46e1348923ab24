#!/usr/bin/env python3
"""Persistence of the accumulation phenomenon along families of maps.

a(family) is the parameter where the family reaches its doubling
accumulation; b(chi) is a(.) of the linear family through chi in a fixed
transversal direction.  Three identities make b a codimension-one chart:
b vanishes at the base map, shifting the family by t0 shifts a by -t0,
and the derivative of b along the transversal direction is exactly -1.
The derivatives are exact for the depth-N b: each t_N's tangent comes from
its own Newton system, with no step size.  None of this uses closeness to
the standard interval map: the same chart machinery runs on the Henon
family.
"""

from renormlab import cascade, persistence

logistic = cascade.logistic_family()
chart = persistence.build_chart(logistic, depth=8)
print(f"base: logistic family recentered at its accumulation "
      f"(a_inf = {chart.t_inf:.8f})")

psi0 = chart.family.map_at(0.0)
print(f"\nb(psi0)                = {persistence.chart_b(chart, psi0):+.2e}")
# the family through psi0 + mu * v0 is the family itself, shifted by mu, so
# these probes check the solver, not how far the chart extends
for mu in (0.01, -0.02, 0.05):
    b = persistence.chart_b(chart, psi0 + mu * chart.v0)
    print(f"b(psi0 + {mu:+.2f} * v0)   = {b:+.6f}   (expected {-mu:+.6f})")

cubic = cascade.MapND([[3]], [[1.0]])
_, grads = persistence.chart_gradient(chart, [chart.v0, 2.0 * chart.v0, cubic])
print(f"\ndb along v0            = {grads[0]:+.15f}   (the transversal -1)")
print(f"db along 2*v0          = {grads[1]:+.15f}   (homogeneity)")
print(f"db along x^3           = {grads[2]:+.15f}   (a transversal direction)")

dev = persistence.verify_shift_property(logistic, [-0.05, 0.05], chart.cascade)
print(f"\nshift law |a((t0)*F) - a(F) + t0|, t0 = +-0.05: max deviation {dev:.2e}")

print("\nsame identities for the Henon family (depth 6):")
chart_h = persistence.build_chart(cascade.henon_family(), depth=6)
dev_h = persistence.verify_shift_property(cascade.henon_family(), [0.02], chart_h.cascade)
print(f"  shift-law deviation: {dev_h:.2e}")
grad_h, = persistence.chart_gradient(chart_h, [chart_h.v0])[1]
print(f"  b(psi0) = {persistence.chart_b(chart_h, chart_h.family.map_at(0.0)):+.2e}")
print(f"  db along v0 = {grad_h:+.15f}")
