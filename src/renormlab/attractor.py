"""Nested atoms of the Cantor attractor at the doubling accumulation.

At the accumulation parameter the orbit of the critical region visits 2^m
well-separated clusters at stage m, cyclically permuted by the map, and the
clusters nest two-into-one down the generations.  The atoms here are those
orbit clusters (indexed by iterate mod 2^m) with axis-aligned bounding
boxes; the per-generation maximum diameter shrinks at an asymptotic rate
that approaches the universal spatial constant 0.3995... from the 1-D
fixed point.

Atoms are realized from a single long orbit rather than from images of the
renormalization disks: that works unchanged for any family and directly
witnesses the attractor.  The disk-chain view stays available through
renorm_nd for the standard map.
"""

import math
from dataclasses import dataclass

import numpy as np

# run_cascade stays importable from here: benchmark/test_tracer.py traces a
# cascade through attractor.run_cascade
from .cascade import orbit, orbit_multiplier, periodic_orbit, run_cascade
from .errors import InsufficientDataError, RenormLabError, ResolutionError

MAX_GENERATIONS = 12
TRANSIENT = 4096        # orbit steps dropped before the atoms' points are kept


@dataclass(frozen=True)
class AtomTree:
    lo: tuple       # lo[m], hi[m]: read-only (2^m, dim) corners of generation m's
    hi: tuple       # boxes; row p is orbit phase p, which the map sends to p+1 mod 2^m
    points: np.ndarray       # the sampled orbit, shape (n_points, dim)


def build_atoms(fam, t, generations, n_points):
    """Cluster a long critical orbit, after TRANSIENT steps, into the nested
    atom hierarchy.

    Generation m holds the bounding boxes of the 2^m clusters of orbit
    points indexed by iterate mod 2^m.  Each box is the union of its two
    children's, so once generation m - 1 is disjoint, atoms of generation m
    with different parents are too, and only siblings p and p + 2^(m-1)
    are compared.  Raises ResolutionError, naming the first overlapping
    pair of the coarsest such generation, if two same-generation boxes
    overlap (more points, or a parameter closer to the accumulation,
    resolves that).
    """
    if generations < 1 or generations > MAX_GENERATIONS:
        raise ValueError(f"generations must be in [1, {MAX_GENERATIONS}]")
    if n_points < 2 ** (generations + 6):
        raise ValueError(
            f"need n_points >= 2^(generations+6) = {2 ** (generations + 6)}")
    pts = orbit(fam.map_at(t), fam.start_at(t), TRANSIENT + n_points,
                keep=n_points)[1]

    # the finest generation's boxes from one min and one max over the orbit:
    # phase p's points are rows p, p + k, ..., a (q, k) grid, then r more
    k = 2 ** generations
    q, r = divmod(n_points, k)
    grid = pts[:q * k].reshape(q, k, -1)
    lo, hi = grid.min(axis=0), grid.max(axis=0)
    np.minimum(lo[:r], pts[q * k:], out=lo[:r])
    np.maximum(hi[:r], pts[q * k:], out=hi[:r])
    los, his = [lo], [hi]
    while len(lo) > 1:
        # phase p of generation m is phases p and p + 2^m of generation m + 1
        k = len(lo) // 2
        lo, hi = np.minimum(lo[:k], lo[k:]), np.maximum(hi[:k], hi[k:])
        los.insert(0, lo)
        his.insert(0, hi)
    for gen, (lo, hi) in enumerate(zip(los, his)):
        lo.flags.writeable = hi.flags.writeable = False
        # siblings are disjoint when they are separated along some axis
        h = len(lo) // 2
        near = ~((hi[:h] < lo[h:]) | (hi[h:] < lo[:h])).any(axis=1)
        if near.any():
            p = int(np.argmax(near))
            raise ResolutionError(
                f"generation {gen}: atoms {p} and {p + h} overlap; "
                "use more points or a parameter closer to the accumulation")
    return AtomTree(tuple(los), tuple(his), pts)


def box_diameters(lo, hi):
    """Diagonal length of each box, row by row, with the bytes of
    np.linalg.norm on each row alone (a norm along an axis differs)."""
    d = hi - lo
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def atom_diameters(tree):
    """Per-generation maximum atom diameter d_m."""
    return [float(box_diameters(lo, hi).max()) for lo, hi in zip(tree.lo, tree.hi)]


def scaling_ratios(diameters):
    """Consecutive ratios d_(m+1)/d_m; the last one estimates the universal
    spatial constant."""
    if len(diameters) < 3:
        raise InsufficientDataError("need at least 3 generations of diameters")
    ratios = [diameters[i + 1] / diameters[i] for i in range(len(diameters) - 1)]
    return ratios, ratios[-1]


@dataclass(frozen=True)
class SaddleReport:
    level: int
    found: bool
    classification: str      # 'sink' | 'saddle' | 'repeller' | 'not-found'
    multipliers: tuple
    orbit: tuple             # the orbit's points at t, each of shape (n,)


def _classify(mults):
    mags = [abs(m) for m in mults]
    if all(v < 1 for v in mags):
        return "sink"
    if all(v > 1 for v in mags):
        return "repeller"
    return "saddle"


def verify_periodic_saddles(fam, res, t, levels):
    """Continue the period-2^N orbits of res, fam's cascade, to parameter t
    and classify them there.

    res holds each period-2^N orbit converged at its doubling parameter
    t_N, where the sink flips; it generically survives to t as a repeller
    (1-D) or saddle (n-D).  The continuation solves the orbit afresh at
    steps of half its window (t_(N-1), t_N), t_(-1) the lower end of
    fam.bracket0, each from the whole orbit of the step before.
    InsufficientDataError for a level deeper than res.
    """
    levels = sorted(levels)
    if levels and levels[-1] >= len(res.params):
        raise InsufficientDataError(
            f"level {levels[-1]} is deeper than the cascade's {len(res.params) - 1}")
    ends = (fam.bracket0[0],) + res.params
    reports = []
    for lv in levels:
        try:
            orbit, t_n = res.orbits[lv], ends[lv + 1]
            steps = max(1, math.ceil(2 * abs(t - t_n) / (t_n - ends[lv])))
            for s in np.linspace(t_n, t, steps + 1)[1:]:
                orbit = periodic_orbit(fam, s, 2 ** lv, orbit)
            mults = orbit_multiplier(fam, t, orbit)
            reports.append(SaddleReport(lv, True, _classify(mults),
                                        tuple(mults), tuple(orbit)))
        except RenormLabError:
            reports.append(SaddleReport(lv, False, "not-found", (), ()))
    return reports
