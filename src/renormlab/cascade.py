"""One-parameter families, periodic orbits, and period-doubling cascades.

A doubling event is detected as the parameter where the leading real
multiplier of the period-2^N orbit crosses -1: the sink hands its stability
to a sink of double period and survives as a saddle.  Successive doubling
parameters shrink geometrically, so brackets for level N+1 are seeded from
the last gap, and the accumulation parameter is produced by Aitken
extrapolation of the t_N sequence.

Builtin families: the logistic interval family a*x*(1-x) and the dissipative
Henon family (x, y) -> (1 - a x^2 + y, b x); plus families linear in a fixed
direction, psi_t = base + t*direction, used by the persistence module.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (ESCAPE_LIMIT, BracketError, ComplexMultiplierError,
                     ContinuationError, EscapeError, InsufficientDataError,
                     NoConvergenceError, RenormLabError, WrongPeriodError)

DISTINCT_TOL = 1e-10
ESCAPE_CHECK = 256      # images stepped between two escape checks
MAX_LEVEL = 16          # deepest cascade level: period 2^16, where the logistic cascade is lost


# ---------------------------------------------------------------------------
# concrete map objects

class Map1D:
    """Polynomial interval map p(x) = sum coeffs[k] x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)

    def __call__(self, x):
        r = 0.0
        for c in reversed(self.coeffs):
            r = r * x + c
        return r

    def deriv(self, x):
        r = 0.0
        for k in range(len(self.coeffs) - 1, 0, -1):
            r = r * x + k * self.coeffs[k]
        return r

    def __add__(self, other):
        if not isinstance(other, Map1D):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] += c
        return Map1D(a)

    def __mul__(self, s):
        return Map1D([c * float(s) for c in self.coeffs])

    __rmul__ = __mul__


class Henon:
    """(x, y) -> (1 - a x^2 + y, b x)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0.3):
        self.a = float(a)
        self.b = float(b)

    def __call__(self, pt):
        x, y = pt
        return (1.0 - self.a * x * x + y, self.b * x)

    def jac(self, pts):
        """Derivative at one point (2,) -> (2, 2), or at each row of a stack
        (m, 2) -> (m, 2, 2)."""
        x = np.asarray(pts, dtype=float)[..., 0]
        out = np.zeros(x.shape + (2, 2))
        out[..., 0, 0] = -2.0 * self.a * x
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = self.b
        return out

    def __add__(self, other):
        # the parameter direction is d/da, so adding it shifts a
        if isinstance(other, _HenonDirection):
            return Henon(self.a + other.scale, self.b)
        return NotImplemented


class _HenonDirection:
    """d/da of the Henon family, scaled: (x, y) -> scale * (-x^2, 0)."""

    __slots__ = ("scale",)

    def __init__(self, scale=1.0):
        self.scale = float(scale)

    def __call__(self, pt):
        return (-self.scale * pt[0] * pt[0], 0.0)

    def __mul__(self, s):
        return _HenonDirection(self.scale * float(s))

    __rmul__ = __mul__


@dataclass(frozen=True)
class OneParamFamily:
    """C^1 assignment t -> psi_t with an evaluable parameter derivative.

    map_at(t) returns the map at parameter t (callable; 1-D maps expose
    .deriv, n-D maps expose .jac at one point or at a stack of points).  bracket0 must bracket the first
    doubling (the period-1 orbit's multiplier crossing -1) and gap_hint
    estimates the first inter-doubling gap, which seeds level-1 brackets.
    """
    kind: str
    dim: int
    map_at: Callable
    deriv_at: Callable
    param_range: tuple
    bracket0: tuple
    gap_hint: float
    start_at: Callable
    base: object = None
    direction: object = None


def logistic_family(window=(2.5, 4.0)):
    return OneParamFamily(
        kind="logistic", dim=1,
        map_at=lambda a: Map1D((0.0, a, -a)),
        deriv_at=lambda a: Map1D((0.0, 1.0, -1.0)),
        param_range=tuple(window),
        bracket0=(2.8, 3.2),
        gap_hint=0.45,
        start_at=lambda a: 0.5,
    )


def henon_family(b=0.3, window=(0.1, 1.4)):
    def start(a):
        disc = (1.0 - b) ** 2 + 4.0 * a
        x = (-(1.0 - b) + math.sqrt(disc)) / (2.0 * a) if a != 0 else 0.0
        return (x + 1e-3, b * x)

    return OneParamFamily(
        kind="henon", dim=2,
        map_at=lambda a: Henon(a, b),
        deriv_at=lambda a: _HenonDirection(),
        param_range=tuple(window),
        bracket0=(0.25, 0.55),
        gap_hint=0.55,
        start_at=start,
    )


def linear_family(base, direction, bracket0, gap_hint, start_at,
                  window=(-1.0, 1.0), dim=1, kind="linear"):
    """psi_t = base + t*direction for objects supporting + and scalar *."""
    return OneParamFamily(
        kind=kind, dim=dim,
        map_at=lambda t: base + t * direction,
        deriv_at=lambda t: direction,
        param_range=tuple(window),
        bracket0=tuple(bracket0),
        gap_hint=gap_hint,
        start_at=start_at,
        base=base, direction=direction,
    )


def shift_family(fam, t0):
    """(t0)*Psi: the family t -> psi_(t+t0); windows shift accordingly."""
    if abs(t0) >= 0.5:
        raise ValueError("|t0| must be < 0.5 for a shift; use recenter() to move far")
    return recenter(fam, t0)


def recenter(fam, t0):
    """Reparametrize so the new parameter 0 sits at the old parameter t0."""
    lo, hi = fam.param_range
    b0, b1 = fam.bracket0
    return replace(
        fam,
        kind=fam.kind,
        map_at=lambda t: fam.map_at(t + t0),
        deriv_at=lambda t: fam.deriv_at(t + t0),
        param_range=(lo - t0, hi - t0),
        bracket0=(b0 - t0, b1 - t0),
        start_at=lambda t: fam.start_at(t + t0),
    )


# ---------------------------------------------------------------------------
# orbits and multipliers

def _is_1d(fam):
    return fam.dim == 1


def orbit(m, x, steps, keep=0):
    """Apply m steps times from x; return the last point and, as the rows of
    a (keep, n) array, the last `keep` points of the orbit x, m(x), ...

    keep may be steps + 1, which keeps the start point too.  Points may be
    floats (Map1D), tuples (Henon) or arrays (MapND): m is applied to its own
    outputs, exactly as in a plain loop.  Raises EscapeError, with the
    1-based step of the first escaped image, once an image is not finite or
    has a coordinate beyond ESCAPE_LIMIT.  The check runs once per block of
    ESCAPE_CHECK images, so m may see escaped points before it raises.
    """
    if not 0 <= keep <= steps + 1:
        raise ValueError("keep must be in [0, steps + 1]")
    n = np.size(x)
    kept = np.empty((keep, n))
    first = steps + 1 - keep            # orbit index of kept[0]
    if first == 0:
        kept[0] = np.reshape(x, n)
    done = 0
    while done < steps:
        with np.errstate(over="ignore", invalid="ignore"):
            block = [x := m(x) for _ in range(min(ESCAPE_CHECK, steps - done))]
        imgs = np.reshape(np.asarray(block, dtype=float), (len(block), n))
        ok = (np.abs(imgs) <= ESCAPE_LIMIT).all(axis=1)      # also catches nan
        if not ok.all():
            step = done + int(np.flatnonzero(~ok)[0]) + 1
            raise EscapeError(f"orbit escaped at step {step}", step=step)
        skip = max(first - done - 1, 0)     # block rows before the kept tail
        if skip < len(block):
            kept[done + 1 + skip - first:done + 1 + len(block) - first] = imgs[skip:]
        done += len(block)
    return x, kept


def _newton_orbit_1d(m, x0, period, tol, max_iter):
    x = float(x0)
    prev = math.inf
    for _ in range(max_iter):
        y = x
        dprod = 1.0
        for _ in range(period):
            dprod *= m.deriv(y)
            y = m(y)
        g = y - x
        dg = dprod - 1.0
        if abs(dg) < 1e-14:
            raise NoConvergenceError("degenerate Newton derivative", last=x)
        step = -g / dg
        x += step
        if not math.isfinite(x) or abs(x) > ESCAPE_LIMIT:
            raise NoConvergenceError("Newton iterate escaped", last=x)
        if abs(step) < tol:
            return x
        # long orbits evaluate with rounding amplified by partial derivative
        # products; accept stagnation at that noise floor
        if abs(step) < 1e-8 and abs(step) >= 0.5 * prev:
            return x
        prev = abs(step)
    raise NoConvergenceError(f"no orbit convergence after {max_iter} iterations",
                             last=x, residual=abs(step))


def _chain(jacs):
    """J[p-1] @ ... @ J[0] for a (p, n, n) stack, by pairwise batched
    products: ceil(log2 p) rounds instead of p single products."""
    while len(jacs) > 1:
        even = len(jacs) & ~1
        prod = jacs[1:even:2] @ jacs[0:even:2]
        jacs = np.concatenate([prod, jacs[even:]]) if even < len(jacs) else prod
    return jacs[0]


def _newton_orbit_nd(m, x0, period, tol, max_iter):
    x = np.asarray(x0, dtype=float)
    n = x.size
    prev = math.inf
    for _ in range(max_iter):
        try:
            pts = orbit(m, x.tolist(), period, keep=period + 1)[1]
        except EscapeError as exc:
            raise NoConvergenceError("orbit escaped inside Newton", last=x) from exc
        g = pts[-1] - x
        with np.errstate(over="ignore", invalid="ignore"):
            jac = _chain(m.jac(pts[:-1]))
        if not np.all(np.isfinite(jac)):
            raise NoConvergenceError("Jacobian overflow inside Newton", last=x)
        try:
            step = np.linalg.solve(jac - np.eye(n), -g)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular orbit Jacobian: {exc}", last=x)
        x = x + step
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > ESCAPE_LIMIT:
            raise NoConvergenceError("Newton iterate escaped", last=x)
        sn = float(np.max(np.abs(step)))
        if sn < tol:
            return x
        if sn < 1e-8 and sn >= 0.5 * prev:
            return x
        prev = sn
    raise NoConvergenceError(f"no orbit convergence after {max_iter} iterations",
                             last=x, residual=float(np.max(np.abs(step))))


def periodic_orbit(fam, t, period, guess, tol=1e-13, max_iter=80):
    """Newton solve of psi_t^period(x) = x; returns the full orbit.

    The orbit must consist of `period` distinct points; if it closes up
    early the period is a proper divisor and WrongPeriodError reports it.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    m = fam.map_at(t)
    newton = _newton_orbit_1d if _is_1d(fam) else _newton_orbit_nd
    pts = orbit(m, newton(m, guess, period, tol, max_iter), period - 1,
                keep=period)[1]
    close = np.flatnonzero(np.max(np.abs(pts[1:] - pts[0]), axis=1) < DISTINCT_TOL)
    if close.size:
        i = int(close[0]) + 1
        raise WrongPeriodError(
            f"orbit closes after {i} steps, not {period}", true_period=i)
    return pts[:, 0].tolist() if _is_1d(fam) else list(pts)


def orbit_multiplier(fam, t, orbit):
    """Eigenvalues of the derivative of the return map along the orbit."""
    m = fam.map_at(t)
    if _is_1d(fam):
        prod = 1.0
        for x in orbit:
            prod *= m.deriv(x)
        return [prod]
    eigs = np.linalg.eigvals(_chain(m.jac(orbit)))
    return list(eigs[np.argsort(-np.abs(eigs))])


def _leading_real_multiplier(fam, t, orbit):
    mults = orbit_multiplier(fam, t, orbit)
    lead = mults[0]
    if isinstance(lead, complex) or isinstance(lead, np.complexfloating):
        if abs(np.imag(lead)) > 1e-8 * max(1.0, abs(np.real(lead))):
            raise ComplexMultiplierError(
                f"leading multiplier {lead} is a complex pair; "
                "doubling detection needs a real eigenvalue near -1")
        lead = np.real(lead)
    return float(lead)


def _orbit_by_iteration(fam, t, period, n_settle=6000):
    """Stable orbit at parameter t found by plain iteration, then polished."""
    x = orbit(fam.map_at(t), fam.start_at(t), n_settle)[0]
    return periodic_orbit(fam, t, period, x if _is_1d(fam) else np.asarray(x))


def _continue_orbit(fam, t_from, t_to, period, orbit, max_sub=64):
    """Continue a periodic orbit in the parameter by Newton stepping."""
    sub = 1
    while sub <= max_sub:
        try:
            cur = orbit
            for i in range(1, sub + 1):
                t = t_from + (t_to - t_from) * i / sub
                pts = periodic_orbit(fam, t, period, cur[0])
                cur = pts
            return cur
        except (NoConvergenceError, WrongPeriodError):
            sub *= 2
    raise ContinuationError(
        f"orbit of period {period} lost between t={t_from:.6g} and t={t_to:.6g}")


def find_doubling_bifurcation(fam, level, bracket, orbit_lo=None,
                              mult_tol=1e-9):
    """Parameter where the period-2^level orbit's multiplier crosses -1.

    Bisection on multiplier + 1 with the orbit continued from the nearest
    solved parameter, then a secant polish.  The multiplier tolerance is
    floored by the attainable parameter resolution (one ulp brackets).
    """
    period = 2 ** level
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not t_lo < t_hi:
        raise BracketError(f"empty bracket ({t_lo}, {t_hi})")
    orb_lo = orbit_lo if orbit_lo is not None else _orbit_by_iteration(fam, t_lo, period)
    m_lo = _leading_real_multiplier(fam, t_lo, orb_lo)
    if m_lo + 1.0 <= 0:
        raise BracketError(
            f"orbit already unstable at t_lo={t_lo:.6g} (multiplier {m_lo:.6g})")
    orb_hi = _continue_orbit(fam, t_lo, t_hi, period, orb_lo)
    m_hi = _leading_real_multiplier(fam, t_hi, orb_hi)
    if m_hi + 1.0 >= 0:
        raise BracketError(
            f"no multiplier sign change on the bracket: m(t_hi)={m_hi:.6g}")

    lo, hi = t_lo, t_hi
    f_lo, f_hi = m_lo + 1.0, m_hi + 1.0
    orb = orb_lo
    t_near = t_lo
    while hi - lo > 4 * np.spacing(max(abs(lo), abs(hi), 1.0)):
        mid = 0.5 * (lo + hi)
        orb = _continue_orbit(fam, t_near, mid, period, orb)
        t_near = mid
        f_mid = _leading_real_multiplier(fam, mid, orb) + 1.0
        if abs(f_mid) < mult_tol:
            return mid
        if f_lo * f_mid < 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    # secant polish inside the final bracket
    t_star = lo - f_lo * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else lo
    return min(max(t_star, lo), hi)


@dataclass(frozen=True)
class CascadeResult:
    doubling_params: tuple        # ((level, t_level), ...)
    delta_estimates: tuple        # gap ratios, one per interior level
    t_inf: float
    t_inf_error: float

    @property
    def params(self):
        return [t for _, t in self.doubling_params]


@dataclass(frozen=True)
class AccumulationEstimate:
    value: float
    error: float


def accumulation_parameter(sequence, delta=None):
    """Iterated Aitken extrapolation of the doubling-parameter sequence.

    Exact for geometric sequences.  The attached error estimate is the
    geometric-tail bound |t_inf - t_last| / (delta - 1).
    """
    if isinstance(sequence, CascadeResult):
        seq = sequence.params
    else:
        seq = [float(v) for v in sequence]
    if len(seq) < 4:
        raise InsufficientDataError(
            f"need at least 4 doubling parameters, got {len(seq)}")
    cur = list(seq)
    while len(cur) >= 3:
        nxt = []
        for i in range(len(cur) - 2):
            d1 = cur[i + 1] - cur[i]
            d2 = cur[i + 2] - cur[i + 1]
            den = d2 - d1
            if abs(den) < 1e-15 * max(abs(cur[i + 2]), 1.0):
                nxt = []
                break
            nxt.append(cur[i + 2] - d2 * d2 / den)
        if not nxt:
            break
        cur = nxt
    value = cur[-1]
    if delta is None:
        gaps = np.diff(seq)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = abs(gaps[-2] / gaps[-1]) if abs(gaps[-1]) > 0 else 4.0
    delta = max(float(delta), 1.0 + 1e-9)
    err = abs(value - seq[-1]) * (1.0 / delta) / (1.0 - 1.0 / delta)
    return AccumulationEstimate(float(value), float(err))


def run_cascade(fam, n_max, mult_tol=1e-9):
    """Doubling parameters t_0 .. t_n_max, gap ratios, and the accumulation.

    Level-(N+1) brackets are seeded from the last gap: the lower end sits
    just past t_N and the upper end halfway through the previous gap, which
    always covers the next doubling once gaps shrink faster than 2.
    On failure the exception carries the completed prefix in `.completed`.
    """
    ts = []
    orbit = None
    try:
        t0 = find_doubling_bifurcation(fam, 0, fam.bracket0, mult_tol=mult_tol)
        ts.append(t0)
        for level in range(1, n_max + 1):
            if len(ts) >= 2:
                # gaps shrink by roughly the universal ratio; half the last
                # gap always covers the next doubling
                gap = ts[-1] - ts[-2]
                lo = ts[-1] + 0.08 * gap
                hi = ts[-1] + 0.5 * gap
            else:
                # provisional: gap_hint estimates the first gap itself
                lo = ts[-1] + 0.15 * fam.gap_hint
                hi = min(ts[-1] + 1.4 * fam.gap_hint, fam.param_range[1])
            period = 2 ** level
            orbit = _orbit_by_iteration(fam, lo, period)
            t_level = find_doubling_bifurcation(fam, level, (lo, hi),
                                                orbit_lo=orbit, mult_tol=mult_tol)
            ts.append(t_level)
    except RenormLabError as exc:
        exc.completed = tuple(enumerate(ts))
        raise
    gaps = np.diff(ts)
    deltas = tuple(float(gaps[i] / gaps[i + 1]) for i in range(len(gaps) - 1))
    if len(ts) >= 4:
        acc = accumulation_parameter(ts, delta=deltas[-1] if deltas else None)
        t_inf, t_err = acc.value, acc.error
    else:
        t_inf, t_err = ts[-1], float("nan")
    return CascadeResult(tuple(enumerate(ts)), deltas, t_inf, t_err)


def lyapunov_exponent(fam, t, n_transient=1000, n_iter=20000, x0=None):
    """Largest Lyapunov exponent of psi_t (QR-accumulated for n-D maps)."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    m = fam.map_at(t)
    if x0 is None:
        # nudge off the family's seed: the exact critical point can land on
        # an eventually-fixed orbit (logistic a=4: 0.5 -> 1 -> 0)
        x0 = fam.start_at(t)
        if _is_1d(fam):
            x0 = x0 + 0.0137
        else:
            x0 = np.asarray(x0, dtype=float) + np.array([0.0137] + [0.0] * (fam.dim - 1))
    # the derivative is taken at the n_iter points before each step; the
    # step after the last one is kept only for its escape check
    pts = orbit(m, x0, n_transient + n_iter, keep=n_iter + 1)[1][:-1]
    total = 0.0
    if _is_1d(fam):
        for x in pts[:, 0].tolist():
            total += math.log(max(abs(m.deriv(x)), 1e-300))
        return total / n_iter
    q = np.eye(fam.dim)
    for jac in m.jac(pts):
        q, r = np.linalg.qr(jac @ q)
        total += math.log(max(abs(r[0, 0]), 1e-300))
    return total / n_iter
