"""Polynomial maps of the n-disk and their doubling renormalization.

A region is an affine image of the closed unit ball (DiskND).  A map is a
cascade.MapND: an integer exponent table with one row per monomial and a
coefficient matrix with one column per output coordinate.  Doubling
renormalizability of psi on a disk D1 means psi(D1) is disjoint from D1
while psi^2(D1) lands strictly inside it; both conditions are checked on a
deterministic low-discrepancy sample of D1 and reported as signed margins
in chart-norm units, so a pass is quantified evidence, not a proof.

The change of variables is restricted to affine charts.  That is enough to
exhibit the doubling phenomenon; the polynomial refit of the renormalized
map absorbs what a nonlinear chart would have straightened out.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .cascade import MapND, orbit
from .errors import DimensionError, DiskError, RefitError, RangeError
from .series import AnalyticUnimodal

_FIRST_STRIDE = 32    # every candidate is first scored on every 32nd ball point
_BOUND_CHUNK = 1024   # candidates per call of that first stage; a 2-D round is one call
_PRUNE_CHUNK = 64     # candidates per call of each later stage
SEARCH_SAMPLES = 512  # ball points a disk search scores each candidate on
SEARCH_ROUNDS = 2     # refinements of a disk search's grid after its first round
REFIT_DEGREE = 8      # total degree of the refit of a renormalized map
REFIT_TOL = 1e-3      # largest refit residual of a renormalized map, in chart units


# ---------------------------------------------------------------------------
# maps

def standard_fct_map(n, phi0):
    """The endomorphism (x1, ..., xn) -> (xn, 0, ..., 0, phi0(xn)).

    Collapses the n-disk onto the graph of the unimodal map phi0 with
    infinite transverse contraction.
    """
    if n < 2:
        raise DimensionError("the standard map needs n >= 2")
    if not isinstance(phi0, AnalyticUnimodal):
        raise TypeError("phi0 must be an AnalyticUnimodal series")
    powers = [1] + list(range(0, 2 * phi0.trunc_degree + 1, 2))
    exps = np.zeros((len(powers), n), dtype=np.intp)
    exps[:, -1] = powers
    coeffs = np.zeros((len(powers), n))
    coeffs[0, 0] = 1.0
    coeffs[1:, -1] = phi0.coeffs
    return MapND(exps, coeffs)


# ---------------------------------------------------------------------------
# disks and deterministic ball sampling

class DiskND:
    """Affine image of the closed unit ball: {center + linear @ u : |u| <= 1}."""

    def __init__(self, center, linear):
        center = np.asarray(center, dtype=float)
        linear = np.asarray(linear, dtype=float)
        n = center.size
        if n < 2:
            raise DimensionError("DiskND needs dimension n >= 2")
        if linear.shape != (n, n):
            raise DiskError(f"linear part must be {n}x{n}")
        if abs(np.linalg.det(linear)) <= 1e-12:
            raise DiskError("linear part is singular (|det| <= 1e-12)")
        self.center = center
        self.linear = linear
        self.dim = n
        self._inv = np.linalg.inv(linear)

    def chart(self, ball_pts):
        """Map reference-ball points into the disk."""
        return np.asarray(ball_pts, dtype=float) @ self.linear.T + self.center

    def to_json_dict(self):
        return {"center": self.center.tolist(), "linear": self.linear.tolist()}


def _halton(count, base):
    """Points 1..count in base `base`, a digit of all at a time."""
    seq, x, f = np.zeros(count), np.arange(1, count + 1), 1.0
    while x.any():
        f /= base
        seq += f * (x % base)
        x //= base
    return seq


def _first_primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % q for q in primes):
            primes.append(k)
        k += 1
    return primes


def _halton_bases(n):
    """Distinct Halton bases of the n axes and of the radius.

    Axis k takes the (k+2)-th prime: 3, 5, 7, ...  The radius takes the
    next prime after the axes' up to n = 8, and 2 from n = 9 on.  (The
    circle, n = 2, has its own parametrization, in base 2.)
    """
    primes = _first_primes(n + 2)
    return primes[1:n + 1], primes[n + 1] if n <= 8 else 2


@functools.lru_cache(maxsize=64)
def ball_samples(n, count):
    """Deterministic low-discrepancy points of the unit n-ball, read-only
    and shared by identical calls.

    Half interior (radius u^(1/n)), half on the boundary sphere; Halton
    sequences throughout, each coordinate and the radius with its own base.
    The circle's directions are angles; from n = 3 on they are normalized
    vectors of Gaussian coordinates.
    """
    axis_bases, radius_base = _halton_bases(n)
    if n == 2:
        theta = 2 * np.pi * _halton(count, 2)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        from statistics import NormalDist   # 0.3 MB with fractions and decimal: not for 2-D
        nd = NormalDist()
        cols = []
        for base in axis_bases:
            u = _halton(count, base)
            cols.append([nd.inv_cdf(min(max(v, 1e-12), 1 - 1e-12)) for v in u])
        dirs = np.array(cols).T
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    m = count // 2
    radii = np.ones(count)
    radii[:m] = _halton(m, radius_base) ** (1.0 / n)
    pts = dirs * radii[:, None]
    pts.setflags(write=False)
    return pts


# ---------------------------------------------------------------------------
# renormalizability check and renormalization

@dataclass(frozen=True)
class RenormCheck:
    disjoint_ok: bool
    image_inside_ok: bool
    disjoint_margin: float   # min chart norm of psi(D1) minus 1
    inside_margin: float     # 1 minus max chart norm of psi^2(D1)

    @property
    def passed(self):
        return self.disjoint_ok and self.image_inside_ok

    def to_json_dict(self):
        return {"disjoint_ok": self.disjoint_ok,
                "image_inside_ok": self.image_inside_ok,
                "disjoint_margin": self.disjoint_margin,
                "inside_margin": self.inside_margin}


def check_renormalizable(psi, d1, samples=2048):
    """Sampled test of psi(D1) disjoint from D1 and psi^2(D1) inside it."""
    if samples < 1000:
        raise ValueError("need at least 1000 sample points for the margins")
    disjoint_margin, inside_margin = (float(m[0]) for m in _batched_margins(
        psi, d1.center[None], d1.linear[None], ball_samples(d1.dim, samples))[:2])
    return RenormCheck(disjoint_margin > 0, inside_margin > 0,
                       disjoint_margin, inside_margin)


def _refit_basis(ball):
    """The monomials of total degree <= REFIT_DEGREE and their values at
    the ball's points, multiplied axis by axis out of one table of powers,
    in the ball's memory order: the refit's matrix products round by it."""
    exps = np.array([e for e in itertools.product(range(REFIT_DEGREE + 1), repeat=ball.shape[1])
                     if sum(e) <= REFIT_DEGREE])
    powers = ball[:, :, None] ** np.arange(REFIT_DEGREE + 1)
    cols = np.empty_like(ball, shape=(len(ball), len(exps)))
    cols[:] = powers[:, 0, exps[:, 0]]
    for ax in range(1, ball.shape[1]):
        cols *= powers[:, ax, exps[:, ax]]
    return exps, cols


def renormalize_nd(psi, xi):
    """R psi = xi^-1 o psi o psi o xi, refit to total degree <= REFIT_DEGREE.

    xi is the affine chart of the renormalization disk D1 (a DiskND).  The
    refit is a least-squares polynomial over 2048 sampled ball points; its
    max residual is attached to the result as `fit_residual` and must stay
    below REFIT_TOL, else RefitError.
    """
    if not isinstance(xi, DiskND):
        raise DiskError("xi must be a DiskND (affine chart of D1)")
    ball = ball_samples(xi.dim, 2048)
    pts = xi.chart(ball)
    with np.errstate(over="ignore", invalid="ignore"):
        im2 = psi(psi(pts))
    if not np.all(np.isfinite(im2)):
        raise RangeError("psi^2 is not finite on the sampled disk")
    target = (im2 - xi.center) @ xi._inv.T
    exps, cols = _refit_basis(ball)
    coeffs, *_ = np.linalg.lstsq(cols, target, rcond=None)
    worst = float(np.max(np.abs(cols @ coeffs - target)))
    if worst > REFIT_TOL:
        raise RefitError(
            f"refit residual {worst:.3e} exceeds {REFIT_TOL:.1e}", residual=worst)
    out = MapND(exps, coeffs)
    out.fit_residual = worst
    return out


# ---------------------------------------------------------------------------
# disk searches

@dataclass(frozen=True)
class DiskSearch:
    found: bool
    disk: DiskND | None
    check: RenormCheck
    tried: int
    scored: int     # candidate x ball-point evaluations of the margins


def _batched_margins(psi, centers, linears, ball):
    """Margins for many candidate disks at once, on the ball points (s, n),
    and for each candidate the index into ball of its least |psi| and of
    its largest |psi^2|."""
    nc, n = centers.shape
    inv = np.linalg.inv(linears)
    pts = (linears @ ball.T).transpose(0, 2, 1) + centers[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        # each array is dropped once used: in the bound pass they set the
        # peak memory of a disk search
        im1 = psi(pts.reshape(-1, n))
        del pts
        sq1 = _sq_chart_norms(im1.reshape(nc, -1, n), centers, inv)
        im2 = psi(im1)
        del im1
        sq2 = _sq_chart_norms(im2.reshape(nc, -1, n), centers, inv)
    # the root commutes with min and max, so it is taken per candidate
    return (np.sqrt(sq1.min(axis=1)) - 1.0, 1.0 - np.sqrt(sq2.max(axis=1)),
            sq1.argmin(axis=1), sq2.argmax(axis=1))


def _best_candidate(psi, centers, linears, ball, carried, tally, critical):
    """Index and value of the largest min(disjoint, inside) margin on the
    ball points, the lowest index on ties: np.argmax over the full margins
    of every candidate, without computing most of them.

    The ball points are scored in nested stages: every _FIRST_STRIDE-th
    point, then the points halfway between, and so on down to every point.
    A candidate's critical points in a stage are those of its least |psi|
    and largest |psi^2| there.
    The min of a candidate's stage values bounds its full value from above
    and, once every stage is scored, is that value to the bit: the root and
    the subtraction in the margins are monotone, so they commute with min
    and max.  Every candidate takes the first stage and, in a call of its
    own, the carried ball indices, _BOUND_CHUNK at a time.  In descending
    order of that bound, the first candidate takes every stage alone and
    becomes the incumbent.  Then, _PRUNE_CHUNK at a time, a candidate takes
    the critical points of every incumbent so far, then each next stage,
    only while it can beat the incumbent's full value or tie it at a lower
    index.  Carried and critical points repeat points of the stages, which
    changes no minimum.  MapND evaluates each row independently of the
    others, so chunks and stages change no margin.  Each margins call
    appends its candidate x ball-point count to tally; critical receives
    the winner's critical points, at most 2 a stage.
    """
    stride, stages = _FIRST_STRIDE, [np.arange(0, len(ball), _FIRST_STRIDE)]
    while stride > 1:
        stages.append(np.arange(stride // 2, len(ball), stride))
        stride //= 2
    # per candidate and stage, the ball indices of its least |psi| and
    # largest |psi^2|; the last column is the critical points' stage
    extremes = np.empty((len(centers), len(stages) + 1, 2), dtype=np.intp)
    carried = np.asarray(carried, dtype=np.intp)

    def score(idx, points):
        c, l = centers[idx], linears[idx]
        tally.append(len(c) * len(points))
        disjoint, inside, low, high = _batched_margins(psi, c, l, ball[points])
        return np.minimum(disjoint, inside), np.column_stack([points[low], points[high]])

    value = np.empty(len(centers))
    for s in range(0, len(centers), _BOUND_CHUNK):
        idx = slice(s, s + _BOUND_CHUNK)
        value[idx], extremes[idx, 0] = score(idx, stages[0])
        if len(carried):
            value[idx] = np.minimum(value[idx], score(idx, carried)[0])
    order = np.argsort(-value, kind="stable")
    best = (-np.inf, -np.inf)        # (value, -index), below every candidate
    marked = np.zeros(len(ball), dtype=bool)     # every incumbent's critical points
    for s, e in itertools.pairwise([0, *range(1, len(order), _PRUNE_CHUNK), len(order)]):
        idx = order[s:e]
        if (value[idx[0]], -idx[0]) < best:
            break
        for k in (-1, *range(1, len(stages))):
            points = np.flatnonzero(marked) if k < 0 else stages[k]
            idx = idx[(value[idx] > best[0]) | ((value[idx] == best[0]) & (-idx > best[1]))]
            if not len(idx):
                break
            if len(points):
                stage_value, extremes[idx, k] = score(idx, points)
                value[idx] = np.minimum(value[idx], stage_value)
        if len(idx) and (top := max(zip(value[idx].tolist(), (-idx).tolist()))) > best:
            best = top
            marked[extremes[-top[1], :-1]] = True
    critical.extend(sorted(set(extremes[-best[1], :-1].ravel().tolist())))
    return -best[1], best[0]


def _sq_chart_norms(im, centers, inv):
    """Squared chart norms (nc, s) of images im (nc, s, n), each in its own
    candidate's chart; values that are not finite become inf."""
    rel = inv @ (im - centers[:, None, :]).transpose(0, 2, 1)     # (nc, n, s)
    sq = sum(rel[:, i] ** 2 for i in range(rel.shape[1]))
    return np.where(np.isfinite(sq), sq, np.inf)


def distance_to_standard(psi, phi0, disk, samples=2048):
    """Sup distance between psi and the standard map over a sampled disk.

    A diagnostic with no pass threshold: quantifies how far a (renormalized)
    map sits from the standard graph endomorphism in its own coordinates.
    """
    std = standard_fct_map(psi.dim, phi0)
    pts = disk.chart(ball_samples(disk.dim, samples))
    with np.errstate(over="ignore", invalid="ignore"):
        diff = psi(pts) - std(pts)
    diff = np.where(np.isfinite(diff), diff, np.inf)
    return float(np.max(np.linalg.norm(diff, axis=1)))


def attractor_cloud(psi, start):
    """2500 orbit points of psi from start after 500 steps, for locating its
    attractor; EscapeError if the orbit escapes."""
    return orbit(psi, start, 3000, keep=2500)[1]


def search_renorm_disk(psi, start, verify_samples=2048):
    """Unseeded renormalization-disk search.

    Samples the attractor from start, splits it into the two
    first-generation parity clusters, and scans ellipse parameters around
    each cluster in the frame of its principal axes, refining the grid
    SEARCH_ROUNDS times around the best candidate, on SEARCH_SAMPLES ball
    points.  _best_candidate's staged scan picks each round's best, scoring
    every candidate first on the critical points of the last round's winner
    of the same parity; the best of all rounds (the first, if every margin
    is -inf) is verified on verify_samples points and returned as a
    DiskSearch, whose `scored` counts candidate x ball-point evaluations.
    ValueError before any search for verify_samples < 1000; RangeError if
    no round had a candidate.
    """
    if verify_samples < 1000:
        raise ValueError("need at least 1000 verify sample points")
    cloud = attractor_cloud(psi, start)
    ball = ball_samples(psi.dim, SEARCH_SAMPLES)
    best = (-np.inf, None, None)
    tried, scored = 0, []
    for parity in (0, 1):
        sub = cloud[parity::2]
        center0 = sub.mean(axis=0)
        frame = np.linalg.eigh(np.cov(sub.T))[1][:, ::-1].T   # principal axes, largest first
        coords = (sub - center0) @ frame.T
        ws = (coords.max(axis=0) - coords.min(axis=0)) / 2
        ws = np.maximum(ws, 0.12 * max(float(np.max(ws)), 1e-3))
        c_grid = [np.linspace(-0.6, 0.6, 5) * ws[i] for i in range(psi.dim)]
        a_grid = [np.linspace(0.6, 2.4, 6) * ws[i] for i in range(psi.dim)]
        spread_c = [g[1] - g[0] for g in c_grid]
        spread_a = [g[1] - g[0] for g in a_grid]
        carried = []      # the last round's winner's critical points
        for rnd in range(SEARCH_ROUNDS + 1):
            # the grid in itertools.product order, center offsets outer,
            # without the singular linear parts; frame.T * ax is
            # frame.T @ diag(ax) but for a -0 entry, which the matrix
            # product sums onto +0, and so does + 0.0
            offsets = np.array([frame.T @ c for c in itertools.product(*c_grid)])
            axes = np.array(list(itertools.product(*a_grid)))
            shapes = frame.T * axes[:, None, :] + 0.0
            shapes = shapes[np.abs(np.linalg.det(shapes)) > 1e-12]
            if not len(shapes):
                break
            centers = np.repeat(center0 + offsets, len(shapes), axis=0)
            linears = np.tile(shapes, (len(offsets), 1, 1))
            tried += len(centers)
            i, value = _best_candidate(psi, centers, linears, ball, carried, scored,
                                       critical := [])
            carried = critical
            if value > best[0] or best[1] is None:
                best = (value, centers[i], linears[i])
            # shrink the grids around the round's winner
            cb = frame @ (centers[i] - center0)
            ab = np.abs(np.diag(frame @ linears[i]))
            c_grid = [cb[k] + np.linspace(-1, 1, 5) * spread_c[k] / (3 ** (rnd + 1))
                      for k in range(psi.dim)]
            a_grid = [np.maximum(ab[k] + np.linspace(-1, 1, 5)
                                 * spread_a[k] / (3 ** (rnd + 1)), 1e-4)
                      for k in range(psi.dim)]
    if best[1] is None:
        raise RangeError("disk search found no candidates")
    disk = DiskND(best[1], best[2])
    check = check_renormalizable(psi, disk, verify_samples)
    return DiskSearch(check.passed, disk if check.passed else None, check, tried, sum(scored))
