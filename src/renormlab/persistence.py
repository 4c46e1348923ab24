"""Numerical persistence charts for the doubling-accumulation phenomenon.

"Exhibits the attractor" is replaced by its finite, checkable surrogate:
the family reaches its depth-N doubling accumulation at some parameter.
The function a(family) returns that parameter.  Every family is psi0 + t v0
around its accumulation map psi0, and b(chi) = a of the family chi + t v0
through chi along that same transversal direction v0.  b vanishes exactly
on the local codimension-one manifold surrogate, b(psi0) = 0 at the base
point, the shift law a(shifted by t0) = a - t0 holds to solver
precision, and the directional derivative of b along v0 is -1.

That last identity holds by construction at any distance from psi0:
the family through chi = psi0 + h v0 is the family itself, shifted by h,
so b(chi) = -h to solver precision wherever its cascade runs, and no probe
along v0 can tell how far the chart stays valid.  What b says about the
manifold comes from directions transversal to v0.

The gradient of b is the exact derivative of the depth-N b, not a
difference quotient: every t_N's derivative along a direction w comes from
the linearization of the Newton system that defines t_N, read off the
converged cascade, and is carried through the same extrapolation that
gives a.  One cascade, the chart's own, gives b(psi0) and its derivatives
along any number of directions: the family through psi0 along v0 is the
chart's generating family shifted in t, so b(psi0) = 0 by construction and
no t_N's derivative moves.

b is computed through cascades, not through renormalization distance to
the 1-D fixed point, so the same chart machinery works for families far
from the standard map (Henon included).
"""

from dataclasses import dataclass

from .cascade import (CascadeResult, OneParamFamily, _diff, cascade_tangents, linear_family,
                      recenter, run_cascade)
from .errors import InsufficientDataError


def persistence_a(fam, depth):
    """The parameter where the family attains its depth-limited doubling
    accumulation, in the family's own coordinate."""
    if depth < 4:
        raise InsufficientDataError("depth must be >= 4 for the extrapolation")
    return run_cascade(fam, depth).t_inf


def verify_shift_property(fam, t0_list, base):
    """max over t0 of |a((t0)*family) - (a(family) - t0)|, given base, the
    family's own cascade (a chart's), whose depth and t_inf = a(family) it
    uses.  A shift only relabels t, so each shifted cascade starts every
    level from base's converged orbit at t_N - t0; its own Newton solves
    still decide each t_N."""
    depth = len(base.params) - 1
    if depth < 4:
        raise InsufficientDataError("depth must be >= 4 for the extrapolation")
    worst = 0.0
    for t0 in t0_list:
        seeds = [(x, _diff(t, t0)) for x, t in zip(base.orbits, base.params)]
        shifted = run_cascade(recenter(fam, t0), depth, seeds=seeds).t_inf
        worst = max(worst, abs(shifted - (base.t_inf - t0)))
    return worst


@dataclass(frozen=True)
class PersistenceChart:
    """Chart data for b around a base map psi0 with transversal v0.

    family is the generating family recentered at its accumulation, so
    psi0 is its map at parameter 0 and v0 its direction; its bracket0,
    gap_hint and start_at configure the cascades of the linear families
    {chi + t v0}.  generator is the generating family itself and cascade
    its own cascade, in its own parameter: its depth stands in for
    "infinitely renormalizable", and its t_inf is a(generator) at that
    depth.
    """
    family: OneParamFamily
    cascade: CascadeResult
    generator: OneParamFamily

    @property
    def depth(self):
        return len(self.cascade.params) - 1

    @property
    def t_inf(self):
        return self.cascade.t_inf

    @property
    def v0(self):
        return self.family.direction

    def family_through(self, chi):
        fam = self.family
        return linear_family(chi, self.v0, fam.bracket0, fam.gap_hint, fam.start_at)


def build_chart(fam, depth):
    """Chart at the family's accumulation map, direction = d psi_t / dt.

    Recenters the family so parameter 0 is the accumulation, and keeps the
    family and its cascade for chart_gradient.
    """
    if depth < 6:
        raise InsufficientDataError("chart depth must be >= 6")
    res = run_cascade(fam, depth)
    return PersistenceChart(recenter(fam, res.t_inf), res, fam)


def chart_b(chart, chi):
    """b(chi) using the chart's stored cascade configuration."""
    return persistence_a(chart.family_through(chi), chart.depth)


def chart_gradient(chart, probe_dirs):
    """b at the base map and its directional derivatives along the probe
    directions, from the chart's own cascade, with no new solve.

    b(psi0) is 0.0: the family through psi0 along v0 is the chart's
    family, whose accumulation sits at parameter t_inf - t_inf.  Each
    derivative is the exact derivative of the depth-N b, read off the
    chart's converged cascade by cascade_tangents, with no step size; a
    shift in t moves no t_N's derivative.  Along v0 it is -1 (the
    transversal normalization) and along a zero probe exactly 0.  Returns
    (b, one derivative per probe direction).
    """
    return 0.0, list(cascade_tangents(chart.generator, chart.cascade, probe_dirs))
