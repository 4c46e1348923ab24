#!/usr/bin/env python3
"""Period-doubling cascades and the universal gap ratio.

The logistic interval family and the dissipative Henon family both lose
their period-2^N sinks through multiplier -1 crossings.  The doubling
parameters accumulate geometrically, and the gap ratios of both families
approach the same constant, which is also the expanding eigenvalue of the
renormalization operator: three estimates, one number.
"""

from renormlab import cascade, renorm1d

print("logistic family a*x*(1-x):")
log = cascade.run_cascade(cascade.logistic_family(), 10)
print(f"  {'N':>2} {'t_N':>18} {'delta_N':>12}")
for level, t in enumerate(log.params):
    d = (f"{log.delta_estimates[level - 1]:12.7f}"
         if 1 <= level <= len(log.delta_estimates) else "")
    print(f"  {level:>2} {t:18.12f} {d}")
print(f"  accumulation t_inf = {log.t_inf:.10f}  (+- {log.t_inf_error:.1e})")

print("\nHenon family (x, y) -> (1 - a x^2 + y, 0.3 x):")
hen = cascade.run_cascade(cascade.henon_family(), 7)
for level, t in enumerate(hen.params):
    d = (f"{hen.delta_estimates[level - 1]:12.7f}"
         if 1 <= level <= len(hen.delta_estimates) else "")
    print(f"  {level:>2} {t:18.12f} {d}")
print(f"  accumulation t_inf = {hen.t_inf:.10f}")

fp = renorm1d.solve_fixed_point(degree=40)
lead = renorm1d.linearize(fp.phi0).leading_eigenvalue
print("\nuniversality cross-check:")
print(f"  operator eigenvalue : {lead:.8f}")
print(f"  logistic gap ratio  : {log.delta_estimates[-1]:.8f}")
print(f"  Henon gap ratio     : {hen.delta_estimates[-1]:.8f}")

print("\nroute to chaos (largest Lyapunov exponent):")
fam = cascade.logistic_family()
for t in (3.2, 3.5, log.t_inf, log.t_inf + 0.05, log.t_inf + 0.1, 3.7, 4.0):
    lam = cascade.lyapunov_exponent(fam, t, n_iter=20000)
    side = "sink side" if t < log.t_inf else "chaos side"
    print(f"  a = {t:.6f}: lyapunov = {lam:+.4f}   ({side})")
