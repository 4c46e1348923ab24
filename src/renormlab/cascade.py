"""One-parameter families, periodic orbits, and period-doubling cascades.

A doubling parameter t_N is where the multiplier of the period-2^N orbit
crosses -1: the sink hands its stability to a sink of double period and
survives as a saddle.  t_N is one Newton solve of the standard
period-doubling defining system for cycles of maps, in all p = 2^N orbit
points and t: the cyclic orbit equations x_(i+1) = psi_t(x_i) plus the
doubling row det(M + I) = 0, M the monodromy matrix.  Each step is an
affine scan along the orbit in ceil(log2 p) batched rounds, closed by an
(n+1) x (n+1) bordered solve.  Residuals are double-double (orbit points
and t kept as hi + lo pairs), so the gaps between doubling parameters keep
their digits far below the ulp of t; one sparse pass over the nonzero
terms evaluates them.  A periodic orbit at a fixed parameter is the same
solve with t held fixed and no doubling row.

Level N+1 starts by branch switching at level N's flip (Kuznetsov, ch.
10): level N's orbit, traversed twice, moved along its flip eigenvector by
the square root of the predicted gap, so no orbit is settled by iteration
past level 1.  Successive doubling parameters shrink geometrically, so the
gap is predicted from the last one, and the accumulation parameter is
produced by Aitken extrapolation of the t_N sequence.  t_N's derivative
along a direction w of maps (the family psi_t + e*w) is one more
right-hand side of the Newton system, read off a converged cascade's
stored orbits by cascade_tangents, and the extrapolation carries those
derivatives in forward mode.

Every map is a MapND, a polynomial of R^n for any n >= 1, the interval
(n = 1) included.  Every family is affine in its parameter, psi_t = base +
t*slope, two coefficient matrices on one exponent table: the logistic
interval family a*x*(1-x), the dissipative Henon family (x, y) -> (1 - a x^2
+ y, b x), and the family through any map base along a direction, used by
the persistence module.

run_cascade keeps each family's deepest converged unseeded cascade and
serves any request no deeper from its first levels, bit for bit a fresh
solve's; seeded cascades bypass it, and a family cannot change after it.
"""

import functools
import math
import threading
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (ESCAPE_LIMIT, BracketError, DimensionError, EscapeError,
                     InsufficientDataError, NoConvergenceError, RenormLabError,
                     WrongPeriodError)

BLOCK = 2048            # points per block of a MapND or _dd_poly call: bounds their tables
DISTINCT_TOL = 1e-10
ESCAPE_CHECK = 2048     # images stepped between two escape checks
LYAPUNOV_TRANSIENT = 1000   # steps dropped before the exponent's average starts
MAX_LEVEL = 16          # deepest cascade level offered by the CLI: period 2^16
MAX_NEWTON = 12         # Newton iterations before an orbit solve gives up
MAX_SETTLE = 6000       # plain-iteration steps before a stable orbit is polished
UNROLL = 8              # steps per pass of a point-orbit kernel, for maps of at most UNROLL terms


@dataclass(frozen=True, eq=False)
class OneParamFamily:
    """The family psi_t = base + t * slope of polynomial maps of R^n.

    base and slope are coefficient matrices on one exponent table (M, n), as
    in MapND: map_at(t) is the MapND at parameter t and `direction` its
    derivative in t, the same for every t.  start_at(t) returns a point, a
    float when dim is 1.  bracket0 must bracket the first doubling (the
    period-1 orbit's multiplier crossing -1), with a sink at its lower end,
    and gap_hint estimates the first inter-doubling gap, which seeds level 1.

    A family compares and hashes by identity, and keeps read-only copies of
    its three tables: run_cascade keeps its cascade by the family object.
    """
    exponents: np.ndarray
    base: np.ndarray
    slope: np.ndarray
    param_range: tuple
    bracket0: tuple
    gap_hint: float
    start_at: Callable

    def __post_init__(self):
        for name in ("exponents", "base", "slope"):
            table = np.array(getattr(self, name))
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def dim(self):
        return self.exponents.shape[1]

    def map_at(self, t):
        return MapND(self.exponents, self.base + t * self.slope)

    @property
    def direction(self):
        return MapND(self.exponents, self.slope)


def logistic_family():
    """a x - a x^2."""
    return OneParamFamily(
        exponents=np.array([[1], [2]]), base=np.zeros((2, 1)), slope=np.array([[1.0], [-1.0]]),
        param_range=(2.5, 4.0), bracket0=(2.8, 3.2), gap_hint=0.45, start_at=lambda a: 0.5)


def henon_family(b=0.3):
    """(1 - a x^2 + y, b x).  Its first two doublings are known in closed
    form: the fixed point flips at a0 = 3(1-b)^2/4 and the 2-cycle (trace
    of M = -1 - b^2) at a1 = (1-b)^2 + (1+b)^2/4."""
    def start(a):
        disc = (1.0 - b) ** 2 + 4.0 * a
        if disc < 0:            # no real fixed point to start from: nan escapes at once
            return (math.nan, math.nan)
        x = (-(1.0 - b) + math.sqrt(disc)) / (2.0 * a) if a != 0 else 0.0
        return (x + 1e-3, b * x)

    a0 = 0.75 * (1.0 - b) ** 2
    a1 = (1.0 - b) ** 2 + 0.25 * (1.0 + b) ** 2
    return OneParamFamily(
        exponents=np.array([[0, 0], [2, 0], [0, 1], [1, 0]]),
        base=np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, b]]),
        slope=np.array([[0.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        param_range=(0.1, 1.4),
        # the fixed point exists for a > -(1-b)^2/4 and is a sink below a0
        bracket0=(a0 / 3.0, a0 + 0.5 * (a1 - a0)), gap_hint=a1 - a0, start_at=start)


def linear_family(base, direction, bracket0, gap_hint, start_at):
    """psi_t = base + t*direction, for MapNDs base and direction, on the
    parameter window (-1, 1)."""
    return OneParamFamily(*_one_table(base, direction), (-1.0, 1.0), tuple(bracket0),
                          gap_hint, start_at)


def recenter(fam, t0):
    """The family t -> psi_(t+t0): the new parameter 0 sits at the old t0,
    and the windows shift with it."""
    lo, hi = fam.param_range
    b0, b1 = fam.bracket0
    return replace(
        fam,
        base=fam.base + t0 * fam.slope,
        param_range=(lo - t0, hi - t0),
        bracket0=(b0 - t0, b1 - t0),
        start_at=lambda t: fam.start_at(t + t0),
    )


# ---------------------------------------------------------------------------
# double-double arithmetic (Dekker 1971): a value is the unevaluated sum
# hi + lo of two floats; numpy arrays and Python floats both work

def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b       # Veltkamp split by 2^27 + 1
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(ah, al, bh, bl):
    s, e = _two_sum(ah, bh)
    return _two_sum(s, e + (al + bl))


def _dd_mul(ah, al, bh, bl):
    p, e = _two_prod(ah, bh)
    return _two_sum(p, e + (ah * bl + al * bh))


class DoubleDouble(float):
    """A float, the high part of a double-double value, carrying its low
    part in `lo`."""

    __slots__ = ("lo",)

    def __new__(cls, hi, lo=0.0):
        self = super().__new__(cls, hi)
        self.lo = float(lo)
        return self


def _diff(a, b):
    """a - b to double-double accuracy, for floats or DoubleDoubles."""
    s, e = _two_sum(float(a), -float(b))
    return s + (e + (getattr(a, "lo", 0.0) - getattr(b, "lo", 0.0)))


# ---------------------------------------------------------------------------
# polynomial maps by their terms

@functools.lru_cache(maxsize=64)
def _jet_plan(parts):
    """Monomials of the jets of exponent tables, an (exponent bytes, shape,
    order) triple each, and per table and block the matrix taking the map's
    coefficients to the block's; see _jet."""
    tables = []
    for key, (m, n), order in parts:
        blocks = level = [(np.frombuffer(key, dtype=np.intp).reshape(m, n), np.eye(m))]
        for _ in range(order):
            level = [(np.where(np.arange(n) == j, np.maximum(e - 1, 0), e), w * e[:, j, None])
                     for e, w in level for j in range(n)]
            blocks = blocks + level
        tables.append(blocks)
    flat = [e for blocks in tables for e, _ in blocks]
    jet_exps, inverse = np.unique(np.vstack(flat), axis=0, return_inverse=True)
    rows = iter(np.split(inverse.ravel(), np.cumsum([len(e) for e in flat])))
    plans = [np.zeros((len(jet_exps), len(blocks), len(blocks[0][0]))) for blocks in tables]
    for plan, blocks in zip(plans, tables):
        for b, (_, w) in enumerate(blocks):
            np.add.at(plan[:, b], next(rows), w)
    return jet_exps, plans


def _jet(*parts):
    """Term table of maps and their partial derivatives, a (terms, order)
    pair each, on shared monomials.  The maps' columns follow each other;
    column (a, b) of a map holds block b of its output a, the blocks being
    f, then d/dx_j, then d2/dx_j dx_l (j, l row-major), up to its order."""
    jet_exps, plans = _jet_tables(*((t[0], order) for t, order in parts))
    return jet_exps, np.hstack([_jet_columns(plan, t[1]) for plan, (t, _) in zip(plans, parts)])


def _jet_tables(*parts):
    """_jet_plan of (exponents, order) pairs."""
    return _jet_plan(tuple((np.asarray(e, dtype=np.intp).tobytes(), np.shape(e), order)
                           for e, order in parts))


def _jet_columns(plan, coeffs):
    """A map's columns of a jet, from its plan and its coefficients."""
    return np.einsum("rbm,ma->rab", plan, coeffs).reshape(len(plan), -1)


@functools.lru_cache(maxsize=64)
def _dd_plan(key, shape, mask):
    """_dd_poly's layout for an exponent table and its mask of nonzero
    coefficients, cached like _jet_plan."""
    exps = np.frombuffer(key, dtype=np.intp).reshape(shape)
    mask = np.frombuffer(mask, dtype=bool).reshape(shape[0], -1)
    # x^e's factors by ascending axis, power-table rows e_ax * n + ax; a
    # constant, or a monomial without terms, reads row 0, x_1^0 = 1.  Rank r
    # multiplies the monomials of more than r factors by their factor r
    factors = [[d * shape[1] + ax for ax, d in enumerate(e) if d and m.any()] or [0]
               for e, m in zip(exps, mask)]
    ranks = [np.array([(j, f[r]) for j, f in enumerate(factors) if len(f) > r]).T
             for r in range(max(map(len, factors)))]
    # the columns by descending term count: rank r adds term r of the first widths[r]
    cols = np.argsort(-mask.sum(axis=0), kind="stable")
    rows = [np.flatnonzero(mask[:, c]) for c in cols]
    widths = [sum(len(t) > r for t in rows) for r in range(len(rows[0]))]
    terms = [(t[r], c) for r, w in enumerate(widths) for t, c in zip(rows[:w], cols)]
    top = max(1, max(map(max, factors)) // shape[1])
    return top, ranks, np.array(terms, dtype=np.intp).reshape(-1, 2).T, widths, np.argsort(cols)


def _dd_poly(terms, xh, xl):
    """The polynomial at every row of x = xh + xl, (p, n), in double-double:
    returns hi, lo of shape (p, n_out).  Entries are exact in relative terms
    even where they cancel to nearly 0, as f' does near a critical point.
    Row blocks of at most BLOCK, through one buffer, form each power of all
    axes at once, the monomials with terms factor by factor, every nonzero
    term's product in one call, and each column's sum in ascending monomial
    order, one rank at a time across columns.  A zero term would leave a
    normalized sum as it is, so skipping it keeps every bit."""
    exps, coeffs = np.asarray(terms[0], dtype=np.intp), terms[1]
    top, ranks, (rows, cols), widths, order = _dd_plan(
        exps.tobytes(), exps.shape, (coeffs != 0).tobytes())
    p, n = xh.shape
    c = coeffs[rows, cols][:, None]
    hi, lo = np.empty((p, coeffs.shape[1])), np.empty((p, coeffs.shape[1]))
    # the powers x_j^0 .. x_j^top of a block, row d * n + j, and its sums
    buf = [np.empty(h + (min(p, BLOCK),)) for h in [(2, (top + 1) * n)] + 2 * [hi.shape[1:]]]
    for s in range(0, p, BLOCK):
        pw, sh, sl = (b[..., :p - s] for b in buf)
        pw[:, :n] = [[[1.0]], [[0.0]]]
        pw[:, n:2 * n] = xh[s:s + BLOCK].T, xl[s:s + BLOCK].T
        for d in range(2 * n, len(pw[0]), n):
            pw[:, d:d + n] = _dd_mul(*pw[:, d - n:d], *pw[:, n:2 * n])
        mono = pw[:, ranks[0][1]]
        for j, f in ranks[1:]:
            mono[:, j] = _dd_mul(*mono[:, j], *pw[:, f])
        th, tl = _two_prod(mono[0, rows], c)
        tl += mono[1, rows] * c
        sh[:], sl[:] = 0.0, 0.0
        for w, a in zip(widths, np.cumsum([0] + widths)):
            sh[:w], sl[:w] = _dd_add(sh[:w], sl[:w], th[a:a + w], tl[a:a + w])
        hi[s:s + BLOCK], lo[s:s + BLOCK] = sh[order].T, sl[order].T
    return hi, lo


def _poly(terms, x):
    """The polynomial at every row of x (p, n) in binary64: (p, n_out).  A
    monomial without a nonzero coefficient reads 0.0, uncomputed."""
    exps, coeffs = terms
    used = coeffs.any(axis=1)
    # pow only for exponents of 2 or more: x^0 is 1.0 and x^1 is x, the bits
    # pow gives.  numpy squares, not pows, where an exponent reaches its loop
    # with stride 0, as a broadcast one can, and a square can differ from
    # pow in the last bit, so the exponents go in as floats of the bases' shape
    powers = np.ones((len(x), used.sum(), exps.shape[1]))
    one, high = exps[used] == 1, exps[used] >= 2
    powers[:, one] = x[:, np.nonzero(one)[1]]
    powers[:, high] = x[:, np.nonzero(high)[1]] ** np.tile(exps[used][high].astype(float),
                                                          (len(x), 1))
    # the table keeps every monomial, so the product groups its terms alike
    mono = np.zeros((len(x), len(exps)))
    mono[:, used] = np.prod(powers, axis=2)
    return mono @ coeffs


@functools.lru_cache(maxsize=64)
def _step_factory(key, shape):
    """make(coeffs) -> (step, run, W) for one exponent table, generated so
    that a step costs about as much as a hand-written map: step(x) is the map
    at one point in plain float arithmetic, with powers and monomials formed
    as in MapND._evaluate, and run(x, g) takes g passes of W copies of its
    statements, returning the last point and the images' coordinates, flat.
    W is UNROLL for at most UNROLL terms (monomials times coordinates), else 1."""
    exps = np.frombuffer(key, dtype=np.intp).reshape(shape)
    m, n = shape
    width = UNROLL if m * n <= UNROLL else 1

    def body(w):
        """step's statements, from the point v{w}_j to v{w+1}_i."""
        def power(j, p):
            return f"v{w}_{j}" if p == 1 else f"x{j}_{p}"

        lines = []
        for j in range(n):
            for p in range(2, int(exps[:, j].max()) + 1):
                half = 1 << (p - 1).bit_length() - 1         # the largest 2^i < p
                lines.append(f"{power(j, p)} = {power(j, p - half)} * {power(j, half)}")
        monos = []
        for k, e in enumerate(exps):
            factors = [power(j, e[j]) for j in range(n) if e[j]]
            if len(factors) > 1:
                lines.append(f"m{k} = {' * '.join(factors)}")
                factors = [f"m{k}"]
            monos.append(factors)
        for i in range(n):
            o = f"v{w + 1}_{i}"
            terms = [" * ".join([f"c{k * n + i}"] + f) for k, f in enumerate(monos)]
            # sums of at most 256 terms stay shallow enough to compile, and
            # still add left to right
            for s in range(0, len(terms), 256):
                lines.append(f"{o} = " + " + ".join(([o] if s else []) + terms[s:s + 256]))
        return lines

    def point(w):
        return f"v{w}_0" if n == 1 else "".join(f"v{w}_{j}, " for j in range(n))

    run = [ln for w in range(width) for ln in body(w)] + [
        "coords += " + "".join(f"v{w}_{j}, " for w in range(1, width + 1) for j in range(n)),
        f"{point(0)} = {point(width)}"]
    src = ("def make(c):\n    " + "".join(f"c{i}, " for i in range(m * n)) + "= c\n"
           f"    def step(x):\n        {point(0)} = x\n"
           + "".join(f"        {ln}\n" for ln in body(0)) + f"        return {point(1)}\n"
           f"    def run(x, passes):\n        {point(0)} = x\n        coords = []\n"
           "        for _ in range(passes):\n" + "".join(f"            {ln}\n" for ln in run)
           + f"        return ({point(0)}), coords\n    return step, run, {width}\n")
    namespace = {}
    exec(src, namespace)
    return namespace["make"]


_SCRATCH = threading.local()


def _scratch(size):
    """A float buffer of at least `size` entries for MapND's blocks,
    kept per thread between calls.  Its contents never outlive a call.  Fresh
    temporaries of a few MB cost more than the arithmetic, and whether malloc
    hands back pages already mapped for them depends on the heap's layout."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < size:
        buf = _SCRATCH.buf = np.empty(size)
    return buf


class MapND:
    """Polynomial map of R^n, n >= 1, stored sparse.

    Row k of exponents (M, n) is the monomial x1^e1 * ... * xn^en, and
    coeffs[k, i] is its coefficient in output coordinate i.  Calling the
    map evaluates an (m, n) block of points, or one n-point, in blocks of
    BLOCK: each block builds the powers of every axis once, gathers them
    into one monomial table shared by all output coordinates, and finishes
    with a single matrix product; a row's value does not depend on the
    other rows of the call.  `step` evaluates one point at a time, and
    orbit's kernel made with it several steps a call, bit for bit alike.
    """

    def __init__(self, exponents, coeffs):
        exps = np.asarray(exponents, dtype=np.intp)
        coeffs = np.asarray(coeffs, dtype=float)
        if exps.ndim != 2 or exps.shape[0] == 0:
            raise ValueError("exponents must be a non-empty (M, n) table")
        n = exps.shape[1]
        if n < 1:
            raise DimensionError("MapND needs dimension n >= 1")
        if np.any(exps < 0):
            raise ValueError("exponents must be >= 0")
        if coeffs.shape != exps.shape:
            raise ValueError("coeffs must have the shape of exponents")
        self.exponents = exps
        self.coeffs = coeffs
        self.dim = n
        self.fit_residual = None

    @functools.cached_property
    def _plan(self):
        """Layout of the power table, built on the first block call: per
        axis the rows x^0 .. x^top; the steps fill rows x^(k+1) .. x^(k+s)
        as x^1 .. x^s times x^k."""
        exps = self.exponents
        tops = exps.max(axis=0)
        offsets = np.concatenate([[0], np.cumsum(tops[:-1] + 1)])
        active = np.flatnonzero(tops)
        steps = []
        for off, top in zip(offsets, tops):
            k = 1
            while k < top:
                s = min(k, top - k)
                steps.append((slice(off + 1, off + 1 + s), off + k,
                              slice(off + k + 1, off + k + 1 + s)))
                k += s
        # a constant map gathers its monomials from the row x1^0 = 1
        gather = [offsets[ax] + exps[:, ax] for ax in active] or [offsets[:1] + exps[:, 0]]
        return int(offsets[-1] + tops[-1] + 1), offsets, active, steps, gather

    def __call__(self, pts):
        """Evaluate at an (m, n) array of points or a single n-point."""
        p = np.asarray(pts, dtype=float)
        single = p.ndim == 1
        if single:
            p = p[None, :]
        if p.ndim != 2 or p.shape[1] != self.dim:
            raise ValueError(f"points must have {self.dim} coordinates")
        out, = self._evaluate(p, (self.coeffs,))
        return out[0] if single else out

    def _evaluate(self, p, tables):
        """Each coefficient matrix in tables, on this map's exponents, at the
        rows of an (m, n) float array p, from one monomial table per block."""
        m = p.shape[0]
        if m % BLOCK == 1:
            # a one-row matrix product takes another BLAS kernel, which
            # rounds differently: a repeated row keeps every row's value
            # independent of the batch it came in
            p = np.vstack([p, p[-1:]])
        outs = [np.empty(p.shape) for _ in tables]
        rows, offsets, active, steps, gather = self._plan
        heights = (rows,) + 2 * (self.exponents.shape[0],)
        starts = (0, heights[0], heights[0] + heights[1])
        scratch = _scratch(sum(heights) * min(p.shape[0], BLOCK))
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, p.shape[0], BLOCK):
                blk = p[s:s + BLOCK]
                k = len(blk)
                # the powers (rows, k), the monomials (M, k) and a factor (M, k)
                table, mono, factor = (scratch[a * k:(a + h) * k].reshape(h, k)
                                       for a, h in zip(starts, heights))
                table[offsets] = 1.0
                table[offsets[active] + 1] = blk.T[active]
                for src, row, dst in steps:
                    np.multiply(table[src], table[row], out=table[dst])
                # mode="clip" lets take write into out directly ("raise" buffers it)
                np.take(table, gather[0], axis=0, out=mono, mode="clip")
                for idx in gather[1:]:
                    np.take(table, idx, axis=0, out=factor, mode="clip")
                    mono *= factor
                for coeffs, out in zip(tables, outs):
                    np.matmul(mono.T, coeffs, out=out[s:s + k])
        return [out[:m] for out in outs]

    @functools.cached_property
    def _kernels(self):
        """step, the orbit kernel run and its width W; see _step_factory."""
        exps = self.exponents
        return _step_factory(exps.tobytes(), exps.shape)(tuple(self.coeffs.ravel().tolist()))

    @property
    def step(self):
        """The map at one point: a float in and out when n is 1, otherwise a
        sequence of n floats in and a tuple out.  Agrees with __call__ up to
        the order of summation."""
        return self._kernels[0]

    @property
    def terms(self):
        return self.exponents, self.coeffs

    def jac(self, pts):
        """Binary64 derivative at one point (n,) -> (n, n), or at each row of
        a stack (m, n) -> (m, n, n); column j holds the partials along axis j."""
        x = np.asarray(pts, dtype=float)
        exps, coeffs = _jet((self.terms, 1))
        # the value block is dropped: zeroed, it leaves out the monomials only
        # it uses, such as a quadratic map's x^2, with their pow calls and the
        # 0 * inf of their overflow
        coeffs[:, ::self.dim + 1] = 0.0
        jet = _poly((exps, coeffs), x.reshape(-1, self.dim))
        return jet.reshape(x.shape + (-1,))[..., 1:]

    def __add__(self, other):
        if not isinstance(other, MapND) or other.dim != self.dim:
            return NotImplemented
        exps, a, b = _one_table(self, other)
        return MapND(exps, a + b)

    def __mul__(self, s):
        return MapND(self.exponents, self.coeffs * float(s))

    __rmul__ = __mul__


def _one_table(a, b):
    """The sorted union of two maps' exponent tables, and each map's
    coefficients on it."""
    exps, inverse = np.unique(np.vstack([a.exponents, b.exponents]), axis=0,
                              return_inverse=True)
    rows = inverse.reshape(-1)
    ca, cb = np.zeros(exps.shape), np.zeros(exps.shape)
    np.add.at(ca, rows[:len(a.exponents)], a.coeffs)
    np.add.at(cb, rows[len(a.exponents):], b.coeffs)
    return exps, ca, cb


# ---------------------------------------------------------------------------
# orbits and multipliers

def orbit(m, x, steps, keep=0):
    """Apply the MapND m steps times from x; return the last point and the
    last `keep` points of the orbit x, m(x), ..., stacked along axis 0.

    keep may be steps + 1, which keeps the start point too.  x is one point
    (a float when m is 1-D, else n coordinates), stepped by m's kernels bit
    for bit as by m.step, with kept points (keep, n); or a (P, n) block, one
    orbit per row, stepped by m(x), for which m may be any callable on
    blocks, with kept points (keep, P, n).  An image escapes when it is not
    finite or has a coordinate beyond ESCAPE_LIMIT.  One point raises
    EscapeError, with the 1-based step of the first escaped image: one
    kernel call makes ESCAPE_CHECK images at a time, which are then checked
    and scanned, so the map may see escaped points before it raises.  A
    block row reads nan from its first escaped image on, and EscapeError,
    with the step where the last row escaped, follows only once every row
    has escaped.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0 <= keep <= steps + 1:
        raise ValueError("keep must be in [0, steps + 1]")
    first = steps + 1 - keep            # orbit index of kept[0]
    if np.ndim(x) == 2:
        x = np.array(x, dtype=float)
        kept = np.empty((keep,) + x.shape)
        if first == 0:
            kept[0] = x
        with np.errstate(over="ignore", invalid="ignore"):
            for done in range(1, steps + 1):
                x = m(x)
                # also catches nan; reducing along a contiguous row is much
                # cheaper than along the short coordinate axis
                gone = ~np.ascontiguousarray((np.abs(x) <= ESCAPE_LIMIT).T).all(axis=0)
                if gone.all():
                    raise EscapeError(f"every orbit escaped by step {done}", step=done)
                x[gone] = np.nan
                if done >= first:
                    kept[done - first] = x
        return x, kept
    step, run, width = m._kernels
    pt = np.asarray(x, dtype=float).ravel().tolist()
    x = pt[0] if m.dim == 1 else tuple(pt)
    n = len(pt)
    kept = np.empty((keep, n))
    if first == 0:
        kept[0] = pt
    done = 0
    while done < steps:
        size = min(ESCAPE_CHECK, steps - done)
        # whole passes of width steps in one call, the rest one step a call
        x, coords = run(x, size // width)
        rest = [x := step(x) for _ in range(size % width)]
        coords += rest if n == 1 else sum(rest, ())
        imgs = np.fromiter(coords, float, size * n).reshape(size, n)
        ok = (np.abs(imgs) <= ESCAPE_LIMIT).all(axis=1)      # also catches nan
        if not ok.all():
            escaped = done + int(np.flatnonzero(~ok)[0]) + 1
            raise EscapeError(f"orbit escaped at step {escaped}", step=escaped)
        skip = max(first - done - 1, 0)     # block rows before the kept tail
        if skip < size:
            kept[done + 1 + skip - first:done + 1 + size - first] = imgs[skip:]
        done += size
    return x, kept


def _chain(jacs):
    """J[p-1] @ ... @ J[0] for a (p, ..., n, n) stack as (P, e), the product
    P * 2^e, in p - 1 products and ceil(log2 p) batched rounds: each round
    multiplies neighbours in pairs from the end and keeps an odd leftover
    at the front, which groups the products as _scan's last prefix does.
    Before each round every product is divided by the power of two that
    puts its largest entry in [0.5, 1), and e sums the powers, so no
    product leaves binary64's range.  The scaling is exact: P * 2^e has the
    unscaled product's bits wherever that one neither over- nor underflows."""
    exp = 0
    while True:
        scale = np.frexp(np.abs(jacs).max(axis=(-2, -1)))[1]
        exp = exp + scale.sum(axis=0)
        jacs = np.ldexp(jacs, -scale[..., None, None])
        if len(jacs) == 1:
            return jacs[0], exp
        odd = len(jacs) % 2
        jacs = np.concatenate([jacs[:odd], jacs[odd + 1::2] @ jacs[odd::2]])


def _scan(jacs, cols):
    """Prefix compositions of the affine maps z -> J[i] z + cols[i] w.

    Returns (P, V), where z -> P[k] z + V[k] w is the composite of maps 0..k:
    P[k] = J[k] @ ... @ J[0].  ceil(log2 p) batched rounds, each composing
    every map with the one d places before it (Hillis-Steele).
    """
    prod, off = jacs.copy(), cols.copy()
    d = 1
    while d < len(prod):
        off[d:] = prod[d:] @ off[:-d] + off[d:]
        prod[d:] = prod[d:] @ prod[:-d]
        d *= 2
    return prod, off


@functools.lru_cache(maxsize=8)
def _minor_index(n):
    """Index arrays and signs of the n^2 cofactors of an n x n matrix:
    a[rows, cols][j, i] is a without row i and column j."""
    keep = np.array([[k for k in range(n) if k != i] for i in range(n)], dtype=np.intp)
    signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    return keep[None, :, :, None], keep[:, None, None, :], signs


def _adjugate(a):
    """Transposed cofactor matrix: adj(A) A = det(A) I, also for singular A."""
    rows, cols, signs = _minor_index(a.shape[0])
    return signs * np.linalg.det(a[rows, cols])


def _doubling_row(mono, prefix, jacs, hess, d_jacs):
    """Value, orbit gradient (p, n) and derivatives along parameters of the
    doubling row det(M + I), from the prefix products P_k = J_(k-1)...J_0,
    the suffix products S_k = J_(p-1)...J_(k+1) and adj(M + I): by Jacobi's
    formula its derivative along any J_k is tr(P_k adj(M + I) S_k dJ_k).
    hess holds dJ_k/dx_j at every orbit point, and each entry of d_jacs
    the dJ_k of one parameter."""
    eye = np.eye(mono.shape[0])
    rev = np.swapaxes(jacs[:0:-1], 1, 2)            # J_(p-1)^T, ..., J_1^T
    suffix = np.swapaxes(_scan(rev, rev[:, :, :0])[0][::-1], 1, 2)
    weight = prefix @ _adjugate(mono + eye) @ np.concatenate([suffix, eye[None]])
    return (np.linalg.det(mono + eye), np.einsum("kba,kabj->kj", weight, hess),
            [np.einsum("kba,kab->", weight, d_jac) for d_jac in d_jacs])


def _slope_jets(fam, slopes):
    """_bordered's jet layout for slopes, which holds for a whole solve:
    the number of slopes, the shared monomials, psi_t's plan and the slopes'
    columns.  psi_t's own columns are formed at each step."""
    jet_exps, plans = _jet_tables((fam.exponents, 1 + len(slopes[:1])),
                                  *((w.exponents, 1) for w in slopes))
    return len(slopes), jet_exps, plans[0], [_jet_columns(plan, w.coeffs)
                                            for plan, w in zip(plans[1:], slopes)]


def _bordered(fam, slopes, xh, xl, th, tl):
    """The Newton system of the cyclic orbit equations x_(i+1) = psi_t(x_i),
    i mod p, at the orbit xh + xl (p, n) and t = th + tl, solved: an affine
    scan z_(i+1) = J_i z_i + b_i dt + r_i along the orbit, a column per
    right-hand side, closed by an (n+1) x (n+1) bordered solve.

    slopes, laid out by _slope_jets, are maps that move t.  None holds t
    fixed; the first, psi_t's own direction, frees t (tl enters as tl times
    it) and adds the doubling row det(M + I) = 0.  Each further w adds a
    right-hand side, the system's derivative along psi_t + e*w: w(x_i) in
    the orbit equations and tr(P_k adj(M + I) S_k Dw_k) in the doubling
    row.  The last is the residual, double-double like the Jacobians,
    rounded to binary64.  One _dd_poly call evaluates psi_t's jet and each
    slope's value and Jacobian on one table; only psi_t's value keeps its
    low part.
    Returns the largest residual, the Newton step's orbit part (p, n) and
    every right-hand side's dt (none when t is fixed); a singular system
    raises NoConvergenceError without `last`.
    """
    p, n = xh.shape
    eye = np.eye(n)
    count, jet_exps, plan, columns = slopes
    free = min(count, 1)                # 1 when t is an unknown
    jet = jet_exps, np.hstack([_jet_columns(plan, fam.map_at(th).coeffs), *columns])
    hi, lo = _dd_poly(jet, xh, xl)
    # psi_t's k columns, then n (1 + n) per slope, each copied contiguous as
    # the separate passes left them: the products below may round by layout
    k = n * (1 + n + free * n * n)
    hi, lo, *ds = (np.ascontiguousarray(v).reshape(p, n, -1) for v in [hi[:, :k], lo[:, :k]]
                   + [hi[:, c:c + n * (1 + n)] for c in range(k, hi.shape[1], n * (1 + n))])
    r = ((hi[:, :, 0] - np.concatenate([xh[1:], xh[:1]]))
         + (lo[:, :, 0] - np.concatenate([xl[1:], xl[:1]])))
    jacs = hi[:, :, 1:n + 1]
    if free:
        r += tl * ds[0][:, :, 0]
        jacs = jacs + tl * ds[0][:, :, 1:]
    prod, off = _scan(jacs, np.stack([d[:, :, 0] for d in ds] + [r], axis=-1))
    prefix = np.concatenate([eye[None], prod[:-1]])
    offset = np.concatenate([np.zeros((1,) + off.shape[1:]), off[:-1]])
    border = np.hstack([eye - prod[-1], -off[-1, :, :free]])
    rhs = off[-1, :, free:]
    res = float(np.max(np.abs(r)))
    if free:
        g, grad, rows = _doubling_row(prod[-1], prefix, jacs, hi[:, :, n + 1:].reshape(p, n, n, n),
                                      [d[:, :, 1:] for d in ds])
        res = max(res, abs(g))
        # the doubling row's entry in each column; the residual's is g itself
        lin = np.array([np.einsum("kj,kj->", grad, offset[:, :, c]) + row
                        for c, row in enumerate(rows + [g])])
        border = np.vstack([border, np.append(np.einsum("kj,kjl->l", grad, prefix), lin[0])])
        rhs = np.vstack([rhs, -lin[1:]])
    try:
        sol = np.linalg.solve(border, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"singular orbit system: {exc}", residual=res) from exc
    dx = prefix @ sol[:n, -1] + offset[:, :, -1]
    if free:
        dx += offset[:, :, 0] * sol[n, -1]
    return res, dx, sol[n:].ravel()


def _newton(fam, pts, t, doubling):
    """Multiple-shooting Newton solve of _bordered's system in all p points
    of `pts` (p, n), with t held fixed or, when `doubling`, free.

    Returns the orbit as high and low parts, each (p, n), and t as hi, lo;
    cascade_tangents solves the same system again at that solution.
    Raises NoConvergenceError after MAX_NEWTON iterations, on escape or on a
    singular step, and WrongPeriodError if the orbit closes up early.
    """
    xh = np.array(pts, dtype=float)
    p, n = xh.shape
    xl = np.zeros_like(xh)
    th, tl = float(t), 0.0
    prev = res = math.inf
    slopes = _slope_jets(fam, [fam.direction] if doubling else [])
    for _ in range(MAX_NEWTON):
        last = th if doubling else xh[0]
        with np.errstate(all="ignore"):
            try:
                res, dx, dts = _bordered(fam, slopes, xh, xl, th, tl)
            except NoConvergenceError as exc:
                exc.last = last
                raise
            dt = dts[-1] if doubling else 0.0
            xh, xl = _dd_add(xh, xl, dx, 0.0)
            th, tl = _dd_add(th, tl, dt, 0.0)
        if not (np.all(np.abs(xh) <= ESCAPE_LIMIT) and abs(th) <= ESCAPE_LIMIT):
            raise NoConvergenceError("Newton iterate escaped", last=last, residual=res)
        size = max(float(np.max(np.abs(dx))), abs(dt))
        # near the solution the correction shrinks until it stalls at the
        # rounding floor; one below 2^-56 of the values only refines the low
        # parts, and leaves an error far below binary64's resolution
        scale = max(1.0, abs(th), float(np.max(np.abs(xh))))
        if size <= 2.0 ** -56 * scale or (size <= 1e-10 and size >= 0.5 * prev):
            # the true period is the least divisor q of p that shifts the
            # whole orbit onto itself; one pair of close points is no proof
            small = [d for d in range(1, math.isqrt(p) + 1) if p % d == 0]
            for q in sorted(set(small + [p // d for d in small]))[:-1]:
                if np.max(np.abs(xh - np.roll(xh, -q, axis=0))) < DISTINCT_TOL:
                    raise WrongPeriodError(f"orbit closes after {q} steps, not {p}",
                                           true_period=q)
            return xh, xl, th, tl
        prev = size
    raise NoConvergenceError(f"no orbit convergence after {MAX_NEWTON} iterations",
                             last=last, residual=res)


def periodic_orbit(fam, t, period, guess):
    """The period-`period` orbit of psi_t, by multiple-shooting Newton: a
    (period, n) array for every n = fam.dim, the interval's n = 1 included.

    guess is the whole orbit (period x n values, in orbit order) or one
    point of it (n values), whose images start the solve; any other size
    raises ValueError.  The orbit must consist of `period` distinct points;
    if it closes up early the period is a proper divisor and
    WrongPeriodError reports it.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    start = np.asarray(guess, dtype=float)
    if start.size == period * fam.dim:
        start = start.reshape(period, fam.dim)
    elif start.size == fam.dim:
        try:
            start = orbit(fam.map_at(t), start.ravel(), period - 1, keep=period)[1]
        except EscapeError as exc:
            raise NoConvergenceError("starting orbit escaped", last=guess) from exc
    else:
        raise ValueError(f"guess must be one point ({fam.dim} values) or the whole orbit "
                         f"({period} x {fam.dim} values), not {start.size} values")
    return _newton(fam, start, t, doubling=False)[0]


def orbit_multiplier(fam, t, orbit):
    """Eigenvalues of the derivative M of the return map along the orbit,
    largest modulus first.

    eigvals resolves M's eigenvalues only to the scale of M's entries, so
    the least-modulus one is det(M) over the product of the others, det(M)
    the product of the Jacobians' determinants, formed by _chain.
    """
    jacs = fam.map_at(t).jac(np.reshape(orbit, (len(orbit), fam.dim)))
    eigs = np.linalg.eigvals(np.ldexp(*_chain(jacs)))
    eigs = eigs[np.argsort(-np.abs(eigs))]
    rest = np.prod(eigs[:-1])
    if rest != 0:
        det, exp = _chain(np.linalg.det(jacs)[:, None, None])
        # two powers of two: 2^exp alone may leave binary64's range
        eigs[-1] = det[0, 0] / rest * np.ldexp(1.0, exp // 2) * np.ldexp(1.0, exp - exp // 2)
    return list(eigs)


def _orbit_by_iteration(fam, t, period):
    """Stable orbit at parameter t found by plain iteration (64 periods, at
    most MAX_SETTLE steps) and the next period - 1 images, then polished."""
    settle = min(MAX_SETTLE, 64 * period)
    pts = orbit(fam.map_at(t), fam.start_at(t), settle + period - 1, keep=period)[1]
    return periodic_orbit(fam, t, period, pts)


def _flip_direction(fam, t, pts):
    """A doubling orbit (p, n) at its t_N, rolled so that point 0 has the
    smallest Jacobian norm, nearest the fold, and its flip direction w at
    unit RMS: w_0 spans the kernel of M + I, and w_(i+1) = J_i w_i, so
    w_(i+p) = -w_i.  Point 0's phase sets the conditioning of the next
    level's bordered solve."""
    jacs = fam.map_at(t).jac(pts)
    first = int(np.argmin(np.linalg.norm(jacs, axis=(1, 2))))
    pts, jacs = np.roll(pts, -first, axis=0), np.roll(jacs, -first, axis=0)
    prefix = _scan(jacs, jacs[..., :0])[0]
    adj = _adjugate(prefix[-1] + np.eye(fam.dim))
    v = adj[:, np.argmax(np.linalg.norm(adj, axis=0))]
    w = np.vstack([v, prefix[:-1] @ v])
    return pts, w / np.sqrt(np.mean(w * w))


def find_doubling_bifurcation(fam, level, bracket, seed=None):
    """Parameter where the period-2^level orbit's multiplier crosses -1.

    One Newton solve of the doubling system, started from the orbit at the
    bracket's lower end, where it is a sink, found there by iteration, or
    from a seed (points (2^level, n), t).  Returns the triple (t_N as a
    DoubleDouble, the converged orbit's high parts, its low parts), each
    part (2^level, n); a solution outside the bracket raises BracketError.
    """
    period = 2 ** level
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not t_lo < t_hi:
        raise BracketError(f"empty bracket ({t_lo}, {t_hi})")
    pts, t = (_orbit_by_iteration(fam, t_lo, period), t_lo) if seed is None else seed
    xh, xl, th, tl = _newton(fam, pts, t, doubling=True)
    if not t_lo < th < t_hi:
        raise BracketError(
            f"the period-{period} orbit doubles at t={th:.9g}, outside the "
            f"bracket ({t_lo:.6g}, {t_hi:.6g})")
    return DoubleDouble(th, tl), xh, xl


@dataclass(frozen=True)
class CascadeResult:
    """A converged cascade: entry N of params, orbits and orbit_lows
    belongs to level N."""
    params: tuple                 # the doubling parameters t_N, DoubleDoubles
    delta_estimates: tuple        # gap ratios, one per interior level
    t_inf: float
    t_inf_error: float
    # level N's converged orbit (2^N, n), high and low parts; arrays, so not in ==
    orbits: tuple = field(default=(), compare=False)
    orbit_lows: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class AccumulationEstimate:
    value: float
    error: float
    tangents: tuple = ()          # d value / de, given the terms' d/de


def accumulation_parameter(sequence, tangents=None):
    """Iterated Aitken extrapolation of the doubling-parameter sequence.

    Exact for geometric sequences.  Works on offsets from the last term, so
    DoubleDouble terms keep their low parts.  The attached error estimate
    is the geometric-tail bound |t_inf - t_last| / (delta - 1), delta the
    last gap ratio of the sequence, as run_cascade's delta_estimates[-1]
    reads it (4 when the last gap is 0).  Given the terms' derivatives
    along some directions, tangents (len, K), the value's are carried
    through the same recurrence in forward mode.
    """
    seq = list(sequence)
    if len(seq) < 4:
        raise InsufficientDataError(
            f"need at least 4 doubling parameters, got {len(seq)}")
    ref = seq[-1]
    cur = np.array([_diff(v, ref) for v in seq])
    tan = np.zeros((len(seq), 0)) if tangents is None else np.array(tangents, dtype=float)
    dcur = tan - tan[-1]
    scale = max(abs(float(ref)), 1.0)
    while len(cur) >= 3:
        d = np.diff(cur)
        den = np.diff(d)
        if np.any(np.abs(den) < 1e-15 * scale):
            break
        dd = np.diff(dcur, axis=0)
        dden = np.diff(dd, axis=0)
        # x2 - d2^2/den, and its derivative x2' - d2 (2 d2' den - d2 den') / den^2
        d2 = d[1:, None]
        dcur = dcur[2:] - d2 * (2.0 * dd[1:] * den[:, None] - d2 * dden) / (den * den)[:, None]
        cur = cur[2:] - d[1:] * d[1:] / den
    offset = float(cur[-1])
    last = _diff(seq[-1], seq[-2])
    delta = abs(_diff(seq[-2], seq[-3]) / last) if abs(last) > 0 else 4.0
    delta = max(delta, 1.0 + 1e-9)
    err = abs(offset) * (1.0 / delta) / (1.0 - 1.0 / delta)
    return AccumulationEstimate(float(ref) + (getattr(ref, "lo", 0.0) + offset),
                                float(err), tuple((tan[-1] + dcur[-1]).tolist()))


# the deepest converged unseeded cascade of each family, see run_cascade
_KEPT = weakref.WeakKeyDictionary()


def run_cascade(fam, n_max, seeds=None):
    """Doubling parameters t_0 .. t_n_max, gap ratios, and the accumulation.

    Level N+1 is bracketed just past t_N, between 0.08 and 0.5 of the last
    gap, which holds it once gaps shrink faster than 2; level 1 between
    0.15 and 1.4 gap_hint past t_0.  That bracket only accepts or rejects
    the solved t_1, so it may reach past the family's param_range, as it
    does for Henon maps with b < 0.  Levels 0 and 1 start from the sink
    that iteration finds at the bracket's lower end.  Every later level
    starts by branch switching at the flip of the one before: level N's
    orbit x, doubled, moved along its doubled flip direction (w, -w) by
    k sqrt(dt), at t_N + dt.  dt is the last gap over the last gap ratio
    (4.67 before one exists).  k is 2/3 of level N's own amplitude,
    |<(w, -w), y - (x, x)>| / |(w, -w)|^2 / sqrt(t_N - t_(N-1)) for its
    orbit y against level N-1's x and w: that amplitude shrinks by about
    2/3 per level.  seeds, one (points (2^N, n), t) per level, replace
    those starts, as when another cascade has converged nearby orbits; the
    same Newton solve, bracket and checks still decide every level.  Gaps,
    ratios and the extrapolation use the parameters' low parts.  Each
    level's converged orbit is kept, high and low parts, for
    cascade_tangents.  On failure the exception carries the completed
    prefix of doubling parameters in `.completed`.

    The deepest converged unseeded cascade of each family object is kept
    for the life of the family, its orbits read-only.  An unseeded request
    no deeper takes that cascade's first n_max + 1 levels instead of
    solving them again, bit for bit the levels of a fresh solve, since a
    level depends only on the levels before it; a deeper one solves from
    level 0 and is kept in its place.  Seeded calls neither read nor keep a
    cascade, and a failed call keeps nothing.  The family must not change
    after its first cascade, which OneParamFamily's read-only tables ensure.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if seeds is not None and [np.shape(x) for x, _ in seeds] != [
            (2 ** level, fam.dim) for level in range(n_max + 1)]:
        raise ValueError(f"seeds must be one (points (2^N, {fam.dim}), t) per level 0..{n_max}")
    kept = _KEPT.get(fam) if seeds is None else None
    reuse = kept is not None and n_max < len(kept.params)
    if reuse:
        ts, orbits, lows = (v[:n_max + 1] for v in (kept.params, kept.orbits, kept.orbit_lows))
    else:
        ts, orbits, lows = _solve_levels(fam, n_max, seeds)
    gaps = [_diff(b, a) for a, b in zip(ts, ts[1:])]
    deltas = tuple(gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1))
    if len(ts) >= 4:
        acc = accumulation_parameter(ts)
        t_inf, t_err = acc.value, acc.error
    else:                                   # too short to extrapolate
        t_inf = t_err = float("nan")
    res = CascadeResult(tuple(ts), deltas, t_inf, t_err, tuple(orbits), tuple(lows))
    if seeds is None and not reuse:        # deeper than any kept cascade
        for part in orbits + lows:
            part.flags.writeable = False
        _KEPT[fam] = res
    return res


def _solve_levels(fam, n_max, seeds):
    """Levels 0..n_max of run_cascade, solved: lists of the doubling
    parameters and of the converged orbits' high and low parts."""
    ts, orbits, lows = [], [], []
    try:
        for level in range(n_max + 1):
            if level == 0:
                lo, hi = fam.bracket0
            elif level == 1:
                # provisional: gap_hint estimates the first gap itself
                lo, hi = ts[-1] + 0.15 * fam.gap_hint, ts[-1] + 1.4 * fam.gap_hint
            else:
                gap = _diff(ts[-1], ts[-2])
                lo, hi = ts[-1] + 0.08 * gap, ts[-1] + 0.5 * gap
            seed = None if seeds is None else seeds[level]
            if seeds is None and level > 1:
                dt = gap / (_diff(ts[-2], ts[-3]) / gap if level > 2 else 4.67)
                x, w = flip
                seed = (np.vstack([x, x]) + (2.0 / 3.0) * k * math.sqrt(dt) * np.vstack([w, -w]),
                        float(ts[-1]) + dt)
            t, pts, low = find_doubling_bifurcation(fam, level, (lo, hi), seed=seed)
            ts.append(t)
            orbits.append(pts)
            lows.append(low)
            if level < n_max and seeds is None:
                if level:
                    # <(w, -w), y - (x, x)> = <w, y_front - y_back>: x cancels
                    w = flip[1]
                    k = (abs(np.sum(w * (pts[:len(w)] - pts[len(w):]))) / (2.0 * w.size)
                         / math.sqrt(_diff(ts[-1], ts[-2])))
                flip = _flip_direction(fam, t, pts)
    except RenormLabError as exc:
        exc.completed = tuple(ts)
        raise
    return ts, orbits, lows


def cascade_tangents(fam, res, directions):
    """The exact derivative of res.t_inf, fam's converged cascade, for the
    family psi_t + e*w at e = 0 of each MapND w in directions: by the
    implicit function theorem, each t_N's is one more right-hand side of
    its Newton system at the stored orbit, extrapolated like t_inf.
    InsufficientDataError for fewer than 4 levels."""
    if len(res.params) < 4:
        raise InsufficientDataError(f"need at least 4 levels, got {len(res.params)}")
    slopes = _slope_jets(fam, [fam.direction, *directions])
    tangents = [_bordered(fam, slopes, xh, xl, float(t), t.lo)[2][:-1]
                for t, xh, xl in zip(res.params, res.orbits, res.orbit_lows)]
    return accumulation_parameter(res.params, tangents).tangents


def lyapunov_exponent(fam, t, n_iter=20000):
    """Largest Lyapunov exponent of psi_t: the mean log growth per step of
    e1 carried along the orbit by the Jacobians, after LYAPUNOV_TRANSIENT
    steps that let the orbit settle on the attractor.

    e1 follows the first column of a per-step QR, so this is the QR
    exponent without a QR per step: the log of the length of P e1, P the
    product of all n_iter Jacobians, which _chain forms without leaving
    binary64's range.  An orbit through a zero Jacobian gets -inf.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    m = fam.map_at(t)
    # nudge off the family's seed: the exact critical point can land on an
    # eventually-fixed orbit (logistic a=4: 0.5 -> 1 -> 0)
    x0 = np.add(fam.start_at(t), 0.0137 * np.eye(fam.dim)[0])
    # the derivative is taken at the n_iter points before each step; the
    # step after the last one is kept only for its escape check
    pts = orbit(m, x0, LYAPUNOV_TRANSIENT + n_iter, keep=n_iter + 1)[1][:-1]
    prod, exp = _chain(m.jac(pts))
    size = float(np.sqrt(prod[:, 0] @ prod[:, 0]))
    if size == 0.0:
        return -math.inf
    return (math.log(2.0) * int(exp) + math.log(size)) / n_iter
