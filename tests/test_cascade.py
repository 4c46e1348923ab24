import dataclasses
import hashlib
import itertools
import math
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

from renormlab import cascade, cli
from renormlab.errors import (ESCAPE_LIMIT, BracketError, EscapeError,
                              InsufficientDataError, NoConvergenceError,
                              WrongPeriodError)

SQRT6 = math.sqrt(6.0)
# Briggs (1991), Math. Comp. 57: the doubling ratio and the logistic
# accumulation parameter
DELTA = 4.669201609102990
R_INF = 3.569945671870945


@pytest.fixture(scope="module")
def logistic_cascade16(logistic):
    return cascade.run_cascade(logistic, 16)


def attractor_period(fam, t, period_cap, settle=60000):
    """Period of the attracting cycle by plain iteration (no Newton)."""
    m = fam.map_at(t)
    x = fam.start_at(t)
    for _ in range(settle):
        x = m.step(x)
    x0 = x
    for p in range(1, period_cap + 1):
        x = m.step(x)
        if abs(x - x0) < 1e-7:
            return p
    return period_cap + 1


def scan_doubling_oracle(fam, t_lo, t_hi, period, resolution=5e-5):
    """Brute-force doubling locator: bisection on the attractor's period.

    Stops at `resolution`, above the critical-slowing zone where settling
    times diverge; completely independent of the Newton/continuation path.
    """
    assert attractor_period(fam, t_lo, 2 * period) == period
    assert attractor_period(fam, t_hi, 2 * period) > period
    lo, hi = t_lo, t_hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if attractor_period(fam, mid, 2 * period) <= period:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def superstable_oracle(fam, bracket, period):
    """Parameter where the critical orbit closes up: root of
    psi_t^period(1/2) - 1/2 by pure bisection.  No orbits, no settling."""
    def q(t):
        m = fam.map_at(t)
        x = 0.5
        for _ in range(period):
            x = m.step(x)
        return x - 0.5
    lo, hi = bracket
    qlo, qhi = q(lo), q(hi)
    assert qlo * qhi < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if q(mid) * qlo <= 0:
            hi = mid
        else:
            lo, qlo = mid, q(mid)
    return 0.5 * (lo + hi)


# brackets for the superstable parameters of periods 2, 4, ..., 64; the
# sequence accumulates at the same parameter as the doubling cascade
SUPERSTABLE_BRACKETS = [
    (3.20, 3.30), (3.49, 3.51), (3.550, 3.560), (3.5660, 3.5680),
    (3.56900, 3.56960), (3.56970, 3.56993),
]


# --- the shared orbit loop ------------------------------------------------

HENON = cascade.henon_family().map_at(1.4)
LOGISTIC = cascade.logistic_family().map_at(3.7)
# a coupled 3-D map: (x, y, z) -> (1 - 1.4 x^2 + y, 0.3 x + 0.1 z^2, 0.5 z + 0.2 x y)
COUPLED3 = cascade.MapND([[0, 0, 0], [2, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 2],
                          [0, 0, 1], [1, 1, 0]],
                         [[1.0, 0.0, 0.0], [-1.4, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 0.3, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.5],
                          [0.0, 0.0, 0.2]])
# 496 monomials: step sums them in more than one statement
WIDE = cascade.MapND(
    [(i, j) for i in range(31) for j in range(31 - i)],
    np.random.default_rng(9).normal(size=(496, 2)) / np.arange(1, 497)[:, None])


def hand_orbit(m, x, steps):
    pts = [x]
    for _ in range(steps):
        x = m.step(x)
        pts.append(x)
    return pts


def as_rows(pts, n):
    return np.array(pts, dtype=float).reshape(len(pts), n)


@pytest.mark.parametrize("m, x0", [
    (LOGISTIC, 0.3),
    (HENON, (0.1, 0.1)),
    (COUPLED3, np.array([0.1, 0.1, 0.1])),
    (WIDE, (0.1, 0.1)),
], ids=["n1", "n2", "n3", "wide"])
def test_orbit_matches_hand_loop(m, x0):
    steps, n = 2 * cascade.ESCAPE_CHECK + 37, np.size(x0)
    ref = hand_orbit(m, x0, steps)
    for keep in (0, 1, 300, steps, steps + 1):
        last, kept = cascade.orbit(m, x0, steps, keep=keep)
        assert np.array_equal(as_rows([last], n), as_rows(ref[-1:], n))
        assert kept.shape == (keep, n)
        assert np.array_equal(kept, as_rows(ref[len(ref) - keep:], n))
    # step counts that end inside, at and past the kernel's unrolled passes
    # of W steps and its escape checks
    w, check = m._kernels[2], cascade.ESCAPE_CHECK
    ref = hand_orbit(m, x0, 3 * check - 5)
    for steps in (0, 1, w - 1, w, w + 1, check - 1, check + 1, 3 * check - 5):
        last, kept = cascade.orbit(m, x0, steps, keep=steps + 1)
        assert np.array_equal(kept, as_rows(ref[:steps + 1], n))
        assert np.array_equal(as_rows([last], n), as_rows(ref[steps:steps + 1], n))


def test_unroll_width_follows_the_term_table():
    # W = UNROLL steps per kernel pass for at most UNROLL terms (monomials
    # times coordinates), else 1: the logistic map has 2 terms, Henon 8, and
    # the 45-monomial refit of a renormalized 2-D map 90
    refit = cascade.MapND([e for e in itertools.product(range(9), repeat=2) if sum(e) <= 8],
                          np.ones((45, 2)))
    assert cascade.UNROLL == 8
    assert [m._kernels[2] for m in (LOGISTIC, HENON, refit, COUPLED3, WIDE)] == [8, 8, 1, 1, 1]


def test_orbit_zero_steps():
    x0 = (0.1, 0.2)
    last, kept = cascade.orbit(HENON, x0, 0)
    assert last == x0 and kept.shape == (0, 2)
    last, kept = cascade.orbit(HENON, x0, 0, keep=1)
    assert np.array_equal(kept, [[0.1, 0.2]])


def test_orbit_rejects_keep_beyond_orbit():
    with pytest.raises(ValueError, match="keep must be"):
        cascade.orbit(HENON, (0.1, 0.2), 5, keep=7)


def test_orbit_rejects_negative_steps():
    for x0 in ((0.1, 0.2), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            cascade.orbit(HENON, x0, -1)


@pytest.mark.parametrize("step", [1, 3, 100, cascade.ESCAPE_CHECK, cascade.ESCAPE_CHECK + 1,
                                  cascade.ESCAPE_CHECK + 5, 3 * cascade.ESCAPE_CHECK - 5],
                         ids=["1", "3", "100", "check", "check+1", "check+5", "3check-5"])
def test_orbit_escape_step(step):
    # x -> x + 1 passes ESCAPE_LIMIT exactly at the given step
    shift = cascade.MapND([[0], [1]], [[1.0], [1.0]])
    with pytest.raises(EscapeError) as err:
        cascade.orbit(shift, ESCAPE_LIMIT - step + 1, 4 * cascade.ESCAPE_CHECK, keep=10)
    assert err.value.step == step
    assert str(step) in str(err.value)


def test_orbit_escape_step_nan():
    # x -> 1e300 x^2 - 1e300 x^2 + 1 + x (two rows for x^2) is x + 1 until
    # 1e300 x^2 overflows, at x = 13408, and then inf - inf = nan
    m = cascade.MapND([[2], [2], [0], [1]], [[1e300], [-1e300], [1.0], [1.0]])
    with pytest.raises(EscapeError) as err:
        cascade.orbit(m, 13408.0 - 300, 1000)
    assert err.value.step == 301


def test_orbit_escape_one_coordinate():
    # the second coordinate is 10^k after k steps; 1e11 is the first past 1e10
    m = cascade.MapND([[1, 0], [0, 1]], [[1.0, 0.0], [0.0, 10.0]])
    with pytest.raises(EscapeError) as err:
        cascade.orbit(m, (0.5, 1.0), 40)
    assert err.value.step == 11


@pytest.mark.parametrize("m, n", [(LOGISTIC, 1), (HENON, 2), (COUPLED3, 3), (WIDE, 2)],
                         ids=["n1", "n2", "n3", "wide"])
def test_step_matches_call_rows(m, n):
    pts = np.random.default_rng(n).uniform(-1.0, 1.0, (200, n))
    rows = m(pts)
    steps = as_rows([m.step(p[0] if n == 1 else p) for p in pts.tolist()], n)
    assert np.max(np.abs(steps - rows)) <= 1e-15 * np.max(np.abs(rows))


def test_block_orbit_escapes():
    # Henon(1.4) sends (3, 0) past ESCAPE_LIMIT at step 5, before the kept
    # window of images 7..12, and (1.3, 0) at step 9, inside it
    for x0, first in (((3.0, 0.0), 5), ((1.3, 0.0), 9)):
        with pytest.raises(EscapeError) as err:
            cascade.orbit(HENON, x0, 12)
        assert err.value.step == first
    # a block row steps through __call__, which sums in another order than
    # step: the rows agree with single orbits to rounding
    starts = np.array([[3.0, 0.0], [1.3, 0.0], [0.1, 0.1]])
    last, kept = cascade.orbit(HENON, starts, 12, keep=6)
    assert kept.shape == (6, 3, 2) and np.array_equal(last, kept[-1], equal_nan=True)
    assert np.isnan(kept[:, 0]).all()
    assert np.allclose(kept[:2, 1], cascade.orbit(HENON, starts[1], 8, keep=2)[1],
                       rtol=0, atol=1e-12)
    assert np.isnan(kept[2:, 1]).all()
    assert np.allclose(kept[:, 2], cascade.orbit(HENON, starts[2], 12, keep=6)[1],
                       rtol=0, atol=1e-12)
    # every row escaped: raised at the step where the last one did
    with pytest.raises(EscapeError) as err:
        cascade.orbit(HENON, starts[:2], 12, keep=6)
    assert err.value.step == 9


def test_lyapunov_escape_counts_from_orbit_start(logistic):
    # a = 4.5 sends the start point 0.5 + 0.0137 out of [0, 1] and on to
    # -infinity after the transient; the step counts the transient too
    m, x, step = logistic.map_at(4.5), 0.5 + 0.0137, 0
    while abs(x) <= ESCAPE_LIMIT:
        x, step = m.step(x), step + 1
    with pytest.raises(EscapeError) as err:
        cascade.lyapunov_exponent(logistic, 4.5, n_iter=100)
    assert err.value.step == step > 3


# --- batched Jacobians and the chain product --------------------------------

def sequential_product(jacs):
    prod = np.eye(jacs.shape[-1])
    for j in jacs:
        prod = j @ prod
    return prod


@pytest.mark.parametrize("p", [1, 2, 3, 7, 512])
def test_chain_matches_sequential_product(p):
    along_orbit = HENON.jac(cascade.orbit(HENON, (0.1, 0.1), 600, keep=p)[1])
    random3 = np.random.default_rng(p).normal(size=(p, 3, 3))
    for jacs in (along_orbit, random3):
        ref = sequential_product(jacs)
        got = np.ldexp(*cascade._chain(jacs))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_chain_groups_its_products_as_the_scan_does():
    # the pairwise product keeps the bits of the scan's last prefix, for
    # every length and dimension and for a batched stack
    def last_prefix(jacs):
        return cascade._scan(jacs, jacs[..., :0])[0][-1]
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for p in range(1, 130):
            jacs = rng.normal(size=(p, n, n))
            assert np.ldexp(*cascade._chain(jacs)).tobytes() == last_prefix(jacs).tobytes()
        batched = rng.normal(size=(141, 64, n, n)).swapaxes(0, 1)
        prod, exp = cascade._chain(batched)
        assert np.ldexp(prod, exp[:, None, None]).tobytes() == last_prefix(batched).tobytes()


def unscaled_chain(jacs):
    """The chain product's pairing without its scaling, as a reference."""
    while len(jacs) > 1:
        odd = len(jacs) % 2
        jacs = np.concatenate([jacs[:odd], jacs[odd + 1::2] @ jacs[odd::2]])
    return jacs[0]


def test_chain_is_the_unscaled_product_up_to_a_power_of_two():
    # scaling by powers of two is exact, so on stacks that neither
    # overflow nor underflow, P * 2^e is the unscaled product to the bit
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for p in range(1, 130):
            jacs = rng.normal(size=(p, n, n)) * 2.0 ** rng.integers(-20, 20, size=(p, 1, 1))
            prod, exp = cascade._chain(jacs)
            assert 0.5 <= np.max(np.abs(prod)) < 1.0
            assert np.ldexp(prod, exp).tobytes() == unscaled_chain(jacs).tobytes()


# --- the double-double polynomial kernel -----------------------------------

def dense_dd_poly(terms, xh, xl):
    """The double-double polynomial by one pass over every monomial, all
    columns at once: the reference that _dd_poly's sparse pass must match."""
    exps, coeffs = terms
    powers = [[None, (xh[:, ax], xl[:, ax])] for ax in range(xh.shape[1])]
    sh = np.zeros((xh.shape[0], coeffs.shape[1]))
    sl = np.zeros_like(sh)
    for e, c in zip(exps, coeffs):
        if not c.any():
            continue
        mono = None
        for ax in np.flatnonzero(e):
            pw = powers[ax]
            while len(pw) <= e[ax]:
                pw.append(cascade._dd_mul(*pw[-1], *pw[1]))
            mono = pw[e[ax]] if mono is None else cascade._dd_mul(*mono, *pw[e[ax]])
        if mono is None:
            sh, sl = cascade._dd_add(sh, sl, c, 0.0)
        else:
            th, tl = cascade._two_prod(mono[0][:, None], c)
            sh, sl = cascade._dd_add(sh, sl, th, tl + mono[1][:, None] * c)
    return sh, sl


# row 0 is the constant; mixed monomials such as x y and x^2 y^3
DD_EXPONENTS = [np.array([[0], [1], [2], [3], [7]]),
                np.array([[0, 0], [1, 0], [0, 1], [1, 1], [2, 3], [2, 0], [0, 4]]),
                np.array([[0, 0, 0], [1, 1, 1], [2, 0, 1], [0, 3, 0], [1, 0, 0], [1, 2, 3]])]


@pytest.mark.parametrize("p", [1, 2, 63, cascade.BLOCK + 1])
@pytest.mark.parametrize("exps", DD_EXPONENTS, ids=["n1", "n2", "n3"])
def test_dd_poly_matches_the_dense_pass_bit_for_bit(exps, p):
    rng = np.random.default_rng(p)
    coeffs = rng.normal(size=(len(exps), 6))
    coeffs[rng.random(coeffs.shape) < 0.3] = -0.0
    coeffs[1] = 0.0                         # a monomial without terms
    coeffs[:, 1], coeffs[:, 4] = 0.0, -0.0  # columns without terms
    xh = rng.uniform(-1.5, 1.5, size=(p, exps.shape[1]))
    xl = xh * rng.normal(size=xh.shape) * 2.0 ** -60
    xh[:2] = [[0.0], [-0.0]][:p]
    got, ref = cascade._dd_poly((exps, coeffs), xh, xl), dense_dd_poly((exps, coeffs), xh, xl)
    for g, r in zip(got, ref, strict=True):
        assert g.tobytes() == r.tobytes()


def test_one_dd_pass_per_newton_step(henon, monkeypatch):
    # a Newton step evaluates psi_t's jet and every slope's on one table
    calls = {"_bordered": 0, "_dd_poly": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(cascade, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(cascade, name, counted)
    res = cascade.run_cascade(henon, 6)
    assert calls["_dd_poly"] == calls["_bordered"] > 0
    calls.update(_bordered=0, _dd_poly=0)
    w = cascade.MapND([[3, 0]], [[1.0, 0.0]])
    cascade.cascade_tangents(henon, res, [henon.direction, w])
    assert calls == {"_bordered": 7, "_dd_poly": 7}


def cofactor_loop(a):
    """adj(A) one minor at a time: the cofactor definition."""
    n = a.shape[0]
    adj = np.empty_like(a)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjugate_matches_cofactor_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    mats = list(rng.normal(size=(50, n, n)))
    singular = rng.normal(size=(n, n))
    singular[-1] = 2.0 * singular[0]            # rank n - 1 when n >= 2
    mats += [singular, np.zeros((n, n)), np.eye(n), -np.eye(n)]
    for a in mats:
        ref = cofactor_loop(a)
        got = cascade._adjugate(a)
        assert got.shape == ref.shape
        # equal bit patterns: signed zeros count
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert np.allclose(got @ a, np.linalg.det(a) * np.eye(n), atol=1e-12)


def test_henon_jac_stack_matches_single_points():
    h = cascade.henon_family(0.25).map_at(1.3)
    pts = cascade.orbit(h, (0.1, 0.1), 40, keep=41)[1]
    stacked = h.jac(pts)
    assert stacked.shape == (41, 2, 2)
    assert np.array_equal(stacked, [h.jac(pt) for pt in pts])
    assert np.array_equal(h.jac((0.5, 7.0)), [[-1.3, 1.0], [0.25, 0.0]])


def test_jac_is_finite_where_only_the_value_overflows():
    # x^2 feeds only the value block, which jac drops: at (1e200, 0) it
    # overflows, and the partials -2ax, 1, b and 0 stay finite
    jac = cascade.henon_family().map_at(1.2).jac((1e200, 0.0))
    assert np.array_equal(jac, [[(-2 * 1.2) * 1e200, 1.0], [0.3, 0.0]])


def old_jac(m, pts):
    """jac before it left out the value block's monomials: the whole order-1
    jet at every point, powers by pow, value block dropped."""
    exps, coeffs = cascade._jet((m.terms, 1))
    powers = np.ones((len(pts),) + exps.shape)
    one, high = exps == 1, exps >= 2
    powers[:, one] = pts[:, np.nonzero(one)[1]]
    powers[:, high] = pts[:, np.nonzero(high)[1]] ** np.tile(exps[high].astype(float),
                                                            (len(pts), 1))
    return (np.prod(powers, axis=2) @ coeffs).reshape(len(pts), m.dim, -1)[..., 1:]


@pytest.mark.parametrize("name, t", [("henon", 1.05), ("henon", 1.2), ("henon", 1.25),
                                     ("henon", 1.3), ("logistic", 3.2), ("logistic", 3.5),
                                     ("logistic", 3.6), ("logistic", 3.7), ("logistic", 3.9)])
def test_jac_keeps_every_byte_on_lyapunov_orbits(request, name, t):
    # the points lyapunov_exponent(fam, t, n_iter=8000) takes Jacobians at
    fam = request.getfixturevalue(name)
    m = fam.map_at(t)
    x0 = np.add(fam.start_at(t), 0.0137 * np.eye(fam.dim)[0])
    pts = cascade.orbit(m, x0, cascade.LYAPUNOV_TRANSIENT + 8000, keep=8001)[1][:-1]
    assert m.jac(pts).tobytes() == old_jac(m, pts).tobytes()


def pow_poly(terms, x):
    """_poly with a pow for every (point, monomial, axis)."""
    exps, coeffs = terms
    return np.prod(x[:, None, :] ** exps, axis=2) @ coeffs


@pytest.mark.parametrize("name", ["logistic", "henon", "fold3d", "wide"])
def test_poly_keeps_every_bit_of_pow(request, name):
    # whole jets, values and first and second derivatives, at signed zeros,
    # +-1e10, infinities, nan, single points, whose one-row pow calls numpy
    # may square instead, and a spread of about 40,000 (point, monomial,
    # axis) entries, more than numpy's 8,192-element buffer, through which
    # pow_poly casts its integer exponents; WIDE has exponents to 30
    if name == "wide":
        m = WIDE
    else:
        fam = request.getfixturevalue(name)
        m = fam.map_at(fam.bracket0[1])
    special = [0.0, -0.0, 1e10, -1e10, np.inf, -np.inf, np.nan]
    grid = np.array(list(itertools.product(special, repeat=m.dim)))
    size = (40000 // m.terms[0].size, m.dim)
    spread = np.random.default_rng(m.dim).normal(scale=3.0, size=size)
    for order in (1, 2):
        terms = cascade._jet((m.terms, order))
        for x in [grid, spread, *spread[:64, None]]:
            with np.errstate(all="ignore"):
                assert cascade._poly(terms, x).tobytes() == pow_poly(terms, x).tobytes()


def test_newton_trial_orbit_escape_is_no_convergence():
    # Henon(6) sends (3, 0) past ESCAPE_LIMIT at step 4, inside the eight
    # points that start the period-8 solve
    fam = cascade.henon_family()
    with pytest.raises(NoConvergenceError) as err:
        cascade.periodic_orbit(fam, 6.0, 8, np.array([3.0, 0.0]))
    assert np.array_equal(err.value.last, [3.0, 0.0])
    assert isinstance(err.value.__cause__, EscapeError)


def test_orbit_solve_that_cannot_converge_stops_at_the_cap():
    # the period-4 orbit through (3, 0) of Henon(6) has no nearby solution
    fam = cascade.henon_family()
    with pytest.raises(NoConvergenceError, match=f"after {cascade.MAX_NEWTON} iterations") as err:
        cascade.periodic_orbit(fam, 6.0, 4, np.array([3.0, 0.0]))
    assert np.shape(err.value.last) == (2,) and err.value.residual > 0


def test_doubling_solve_without_solution_stops_at_the_cap():
    # psi_t(x, y) = ((t - 1) x - 0.1 y, 0.1 x + (t - 1) y): at the fixed point
    # 0, det(M + I) = t^2 + 0.01 never vanishes, so Newton on it wanders
    calls = []

    class Counted(cascade.OneParamFamily):
        def map_at(self, t):
            calls.append(t)
            return super().map_at(t)

    fam = Counted(
        exponents=np.array([[1, 0], [0, 1]]),
        base=np.array([[-1.0, 0.1], [-0.1, -1.0]]),
        slope=np.eye(2),
        param_range=(-2.0, 2.0), bracket0=(0.5, 1.0), gap_hint=0.1,
        start_at=lambda t: (0.0, 0.0))
    with pytest.raises(NoConvergenceError, match=f"after {cascade.MAX_NEWTON} iterations") as err:
        cascade.find_doubling_bifurcation(fam, 0, fam.bracket0)
    assert cascade.MAX_NEWTON <= 12
    # one map per Newton iteration, after the settle orbit and the one-step
    # fixed-parameter polish
    assert len(calls) == cascade.MAX_NEWTON + 2
    assert isinstance(err.value.last, float) and err.value.last == calls[-1]
    assert err.value.residual >= 0.01


# --- periodic orbits -------------------------------------------------------

def test_logistic_fixed_point(logistic):
    orbit = cascade.periodic_orbit(logistic, 2.0, 1, 0.6)
    assert orbit[:, 0].tolist() == [pytest.approx(0.5, abs=1e-13)]


def test_logistic_period_two(logistic):
    orbit = cascade.periodic_orbit(logistic, 3.2, 2, 0.5)[:, 0]
    assert len(orbit) == 2
    m = logistic.map_at(3.2)
    assert abs(m.step(m.step(orbit[0])) - orbit[0]) < 1e-12
    assert abs(m.step(orbit[0]) - orbit[1]) < 1e-12


def test_wrong_period_reports_divisor(logistic):
    with pytest.raises(WrongPeriodError) as err:
        cascade.periodic_orbit(logistic, 2.0, 2, 0.3)
    assert err.value.true_period == 1


@pytest.mark.parametrize("name", ["logistic", "henon", "fold3d"])
def test_periodic_orbit_is_a_period_by_dim_array(request, name):
    # from one point or from the whole orbit, in every dimension
    fam = request.getfixturevalue(name)
    res = cascade.run_cascade(fam, 2)
    for level, (t, pts) in enumerate(zip(res.params, res.orbits)):
        for guess in (pts, pts[0]):
            orbit = cascade.periodic_orbit(fam, t, 2 ** level, guess)
            assert isinstance(orbit, np.ndarray) and orbit.shape == (2 ** level, fam.dim)


@pytest.mark.parametrize("name, t, period, guess", [
    ("logistic", 3.2, 2, [0.5, 0.5, 0.5]), ("logistic", 3.2, 4, [[0.5, 0.5]]),
    ("henon", 1.0, 2, [0.6, 0.2, 0.1])], ids=["three-values", "row-of-two", "henon-three"])
def test_periodic_orbit_rejects_a_guess_of_another_size(request, name, t, period, guess):
    # a guess is one point (n values) or the whole orbit (period x n values)
    with pytest.raises(ValueError, match="guess must be one point"):
        cascade.periodic_orbit(request.getfixturevalue(name), t, period, guess)


def test_wrong_period_reports_divisor_henon(henon):
    # a = 0.3 is before the first doubling: the period-4 solve finds the
    # fixed point
    with pytest.raises(WrongPeriodError) as err:
        cascade.periodic_orbit(henon, 0.3, 4, np.array([0.6, 0.2]))
    assert err.value.true_period == 1


def test_henon_fixed_point_orbit(henon):
    orbit = cascade.periodic_orbit(henon, 1.4, 1, np.array([0.6, 0.2]))
    pt = orbit[0]
    img = henon.map_at(1.4)(pt)
    assert abs(img[0] - pt[0]) < 1e-12 and abs(img[1] - pt[1]) < 1e-12


# --- multipliers -----------------------------------------------------------

def test_superstable_multiplier(logistic):
    orbit = cascade.periodic_orbit(logistic, 2.0, 1, 0.6)
    assert cascade.orbit_multiplier(logistic, 2.0, orbit)[0] == pytest.approx(0.0, abs=1e-12)


def test_multiplier_minus_one_at_first_doubling(logistic):
    # f'(2/3) = 3 (1 - 4/3) = -1 exactly
    assert cascade.orbit_multiplier(logistic, 3.0, [2.0 / 3.0])[0] == pytest.approx(-1.0, abs=1e-12)


def test_henon_multiplier_product_is_jacobian_det(henon):
    orbit = cascade.periodic_orbit(henon, 1.4, 1, np.array([0.6, 0.2]))
    mults = cascade.orbit_multiplier(henon, 1.4, orbit)
    assert abs(mults[0]) > 1 > abs(mults[1])
    assert np.real(np.prod(mults)) == pytest.approx(-0.3, abs=1e-10)


def test_family_derivative_consistency(logistic, henon):
    # deriv matches finite differences of psi_t to O(h^2)
    h = 1e-5
    for fam, x in ((logistic, [0.37]), (henon, (0.3, 0.1))):
        t = 0.9
        fd = np.subtract(fam.map_at(t + h)(x), fam.map_at(t - h)(x)) / (2 * h)
        dv = fam.direction(x)
        assert np.allclose(fd, dv, atol=1e-9)


@pytest.mark.parametrize("name, ts", [
    ("logistic", (2.9, 3.57, 4.0)),
    ("henon", (0.3, 1.06, 1.4)),
    ("fold3d", (0.2, 0.92, 1.0)),
], ids=["logistic", "henon", "fold3d"])
def test_builtin_families_are_linear_in_t(request, name, ts):
    # bifdiag steps every parameter at once as psi_0 + t * d(psi_t)/dt
    family = request.getfixturevalue(name)
    pts = np.random.default_rng(5).uniform(-1.5, 1.5, (100, family.dim))
    base, slope = family.map_at(0.0)(pts), family.direction(pts)
    for t in ts:
        assert np.allclose(family.map_at(t)(pts), base + t * slope, rtol=0, atol=1e-14)
        assert np.array_equal(family.direction(pts), slope)


def _same_map(a, b):
    """Equal exponent tables and bit-identical coefficients."""
    return (np.array_equal(a.exponents, b.exponents)
            and a.coeffs.tobytes() == b.coeffs.tobytes())


def test_linear_family_map_is_base_plus_t_direction_bit_for_bit(henon):
    # the tables differ: the direction adds the monomial x y to the first output
    psi0 = henon.map_at(1.06)
    w = cascade.MapND([[1, 1], [2, 0]], [[1.0, 0.0], [0.25, -0.5]])
    base = psi0 + 1e-3 * w
    fam = cascade.linear_family(base, w, henon.bracket0, henon.gap_hint, henon.start_at)
    for t in (-0.7, -1e-3, 0.0, 0.123456789, 0.9):
        assert _same_map(fam.map_at(t), base + t * w)
    assert _same_map(fam.direction, w + 0.0 * base)


@pytest.mark.parametrize("family, t0, ts", [
    (cascade.logistic_family(), 3.5699456718709, (-0.6, -0.1, 0.0, 0.0137, 0.4)),
    (cascade.henon_family(), 1.0580491, (-0.9, -0.05, 0.0, 0.01, 0.3)),
], ids=["logistic", "henon"])
def test_recentered_map_is_the_map_at_the_shifted_parameter(family, t0, ts):
    centered = cascade.recenter(family, t0)
    for t in ts:
        assert _same_map(centered.map_at(t), family.map_at(t + t0))
    assert _same_map(centered.direction, family.direction)


def test_3d_family_cascade_accumulates_with_feigenbaum_delta(fold3d):
    res = cascade.run_cascade(fold3d, 9)
    assert abs(res.delta_estimates[-1] - DELTA) < 1e-4
    assert abs(res.t_inf - 0.924214) < 1e-6


# --- doubling detection ----------------------------------------------------

def test_first_doubling_exact(logistic):
    t0 = cascade.find_doubling_bifurcation(logistic, 0, (2.8, 3.2))[0]
    assert abs(t0 - 3.0) < 1e-13


def test_second_doubling_matches_oracle_and_algebra(logistic):
    t1 = cascade.find_doubling_bifurcation(logistic, 1, (3.2, 3.5))[0]
    assert t1 == pytest.approx(1.0 + SQRT6, abs=1e-13)
    oracle = scan_doubling_oracle(logistic, 3.40, 3.46, 2)
    assert t1 == pytest.approx(oracle, abs=1e-4)
    assert t1 == pytest.approx(3.449490, abs=1e-5)


def test_third_doubling_matches_oracle(logistic):
    t2 = cascade.find_doubling_bifurcation(logistic, 2, (3.50, 3.56))[0]
    oracle = scan_doubling_oracle(logistic, 3.52, 3.55, 4)
    assert t2 == pytest.approx(oracle, abs=1e-4)
    assert t2 == pytest.approx(3.544090, abs=1e-4)


def test_bracket_error(logistic):
    with pytest.raises(BracketError):
        cascade.find_doubling_bifurcation(logistic, 0, (2.0, 2.5))


def test_doubling_parameters_carry_low_parts(logistic):
    # hi + lo is closer to the exact anchors 3 and 1 + sqrt(6) than the
    # ulp of binary64 (4.4e-16 at 3.45) allows the high part alone to be
    getcontext().prec = 40
    for level, bracket, exact in ((0, (2.8, 3.2), Decimal(3)),
                                  (1, (3.2, 3.5), 1 + Decimal(6).sqrt())):
        t = cascade.find_doubling_bifurcation(logistic, level, bracket)[0]
        assert isinstance(t, cascade.DoubleDouble)
        assert abs(Decimal(float(t)) + Decimal(t.lo) - exact) < Decimal("1e-16")


# --- cascades --------------------------------------------------------------

def test_cascade_monotone_and_ratios(logistic_cascade10, henon_cascade7):
    for result in (logistic_cascade10, henon_cascade7):
        ts = result.params
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(d > 1 for d in result.delta_estimates)


def test_cascade_delta_convergence(logistic_cascade10):
    d = logistic_cascade10.delta_estimates
    assert abs(d[-1] - d[-2]) < 0.01 * d[-2]
    # |delta_{N+1} - delta_N| decreasing from N = 4 on
    diffs = [abs(b - a) for a, b in zip(d[3:], d[4:])]
    assert all(y <= x * 1.05 for x, y in zip(diffs, diffs[1:]))


def test_cascade_accumulation(logistic_cascade10):
    # Aitken oracle on independently scanned doubling parameters
    assert logistic_cascade10.t_inf == pytest.approx(3.569946, abs=1e-5)


def test_cascade_accumulation_vs_superstable_oracle(logistic, logistic_cascade10):
    # the superstable parameters accumulate at the same value; Aitken on the
    # purely bisected sequence is a fully independent estimate of it
    s = [superstable_oracle(logistic, br, 2 ** (n + 1))
         for n, br in enumerate(SUPERSTABLE_BRACKETS)]
    assert all(b > a for a, b in zip(s, s[1:]))
    acc = cascade.accumulation_parameter(s)
    assert acc.value == pytest.approx(logistic_cascade10.t_inf, abs=2e-5)
    # and the superstable gap ratios approach the same constant
    gaps = np.diff(s)
    assert gaps[-2] / gaps[-1] == pytest.approx(
        logistic_cascade10.delta_estimates[-1], rel=0.02)


def test_henon_universality(henon_cascade7, logistic_cascade10):
    d_h = henon_cascade7.delta_estimates[-1]
    d_l = logistic_cascade10.delta_estimates[-1]
    assert abs(d_h - d_l) < 0.02 * d_l


def test_logistic_delta_to_level_16(logistic_cascade16):
    # delta_N, the last ratio of a cascade to level N, against Briggs' delta
    d = logistic_cascade16.delta_estimates
    assert len(d) == 15
    for level in range(13, 17):
        assert abs(d[level - 2] - DELTA) < 1e-8, level
    assert abs(logistic_cascade16.t_inf - R_INF) < 1e-9


def test_gaps_use_low_parts(logistic_cascade16):
    ts = logistic_cascade16.params
    hi_only = (ts[-3] - ts[-2]) / (ts[-2] - ts[-1])
    assert abs(logistic_cascade16.delta_estimates[-1] - DELTA) < abs(hi_only - DELTA)


def test_henon_delta_no_worse(henon_cascade9):
    # the error of delta_9 before the double-double solve was 2.0144e-5
    assert abs(henon_cascade9.delta_estimates[-1] - DELTA) <= 2.0144e-5


@pytest.mark.parametrize("b, tol", [(-0.3, 1e-4), (-0.6, 1e-4), (-0.9, 0.01)])
def test_henon_cascade_with_negative_b(b, tol):
    # t_1 = (1 - b)^2 + (1 + b)^2 / 4 lies past param_range's 1.4 for these
    # b: the level-1 bracket reaches it all the same
    res = cascade.run_cascade(cascade.henon_family(b), 9)
    assert res.params[1] == pytest.approx((1 - b) ** 2 + 0.25 * (1 + b) ** 2, abs=1e-12)
    assert abs(res.delta_estimates[-1] - DELTA) < tol


@pytest.mark.parametrize("name", ["logistic", "henon", "fold3d"])
def test_unseeded_doubling_solve_is_the_cascade_start(request, name):
    # levels 0 and 1 of a cascade are the unseeded solve on the cascade's
    # own bracket, which starts from the sink at its lower end
    fam = request.getfixturevalue(name)
    res = cascade.run_cascade(fam, 1)
    t0 = res.params[0]
    brackets = (fam.bracket0, (t0 + 0.15 * fam.gap_hint, t0 + 1.4 * fam.gap_hint))
    for level, bracket in enumerate(brackets):
        t, xh, xl = cascade.find_doubling_bifurcation(fam, level, bracket)
        assert (t, t.lo) == (res.params[level], res.params[level].lo)
        assert xh.tobytes() == res.orbits[level].tobytes()
        assert xl.tobytes() == res.orbit_lows[level].tobytes()


def best_time(fn, runs=3):
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_cascade_time_budgets(logistic, henon):
    # logistic level 15 took 12.2 s with the bisecting solver and 0.75 s
    # with a settle orbit at every level; Henon level 9 took 0.40 s bisecting
    assert best_time(lambda: cascade.run_cascade(logistic, 15), runs=1) < 1.2
    assert best_time(lambda: cascade.run_cascade(henon, 9)) < 0.40


# d t_inf along (the family's direction, x^3 e_x), as float.hex
TANGENT_HEXES = {"logistic": ("-0x1.0000000000000p+0", "0x1.0079c9b64b048p-1"),
                 "henon": ("-0x1.0000000000000p+0", "0x1.ab4985dcdd63bp-1"),
                 "fold3d": ("-0x1.0000000000061p+0", "0x1.e2d5b773dab42p-1")}


@pytest.mark.parametrize("name, depth", [("logistic", 10), ("henon", 7), ("fold3d", 8)])
def test_tangents_leave_the_cascade_bit_identical(request, name, depth):
    # the tangents are read off a plain cascade, which they cannot change
    fam = request.getfixturevalue(name)
    w = cascade.MapND(np.eye(fam.dim, dtype=int)[:1] * 3, np.eye(fam.dim)[:1])   # x^3 e_x
    tangents = cascade.cascade_tangents(fam, cascade.run_cascade(fam, depth), [fam.direction, w])
    assert tuple(t.hex() for t in tangents) == TANGENT_HEXES[name]
    # moving along the family's own direction moves every t_N back by as much
    assert tangents[0] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_tangents_need_four_levels(logistic, n_max):
    res = cascade.run_cascade(logistic, n_max)
    assert math.isnan(res.t_inf)
    with pytest.raises(InsufficientDataError, match="at least 4"):
        cascade.cascade_tangents(logistic, res, [logistic.direction])


@pytest.mark.parametrize("name", ["logistic", "henon"])
@pytest.mark.parametrize("n_max", [0, 1, 2, 6])
def test_only_levels_0_and_1_settle_by_iteration(request, monkeypatch, name, n_max):
    # every later level starts from the last orbit, doubled along its flip
    calls = []
    settle = cascade._orbit_by_iteration

    def counted(fam, t, period):
        calls.append(period)
        return settle(fam, t, period)
    monkeypatch.setattr(cascade, "_orbit_by_iteration", counted)
    cascade.run_cascade(request.getfixturevalue(name), n_max)
    assert calls == [1, 2][:n_max + 1]


def count_newton_steps(monkeypatch, fam, n_max, **kw):
    """Newton iterations of a cascade, one bordered solve each: the period
    of each solve."""
    calls = []
    bordered = cascade._bordered

    def counted(*args):
        calls.append(len(args[2]))
        return bordered(*args)
    monkeypatch.setattr(cascade, "_bordered", counted)
    cascade.run_cascade(fam, n_max, **kw)
    return calls


def test_branch_switching_saves_newton_steps(logistic, henon, monkeypatch):
    # with a settle orbit and a fixed-t polish at every level these were
    # 120 and 92
    assert len(count_newton_steps(monkeypatch, logistic, 13)) <= 80
    assert len(count_newton_steps(monkeypatch, henon, 9)) <= 72
    # the extrapolation reads delta off the sequence as the cascade does
    for fam, n_max in ((logistic, 13), (henon, 9)):
        res = cascade.run_cascade(fam, n_max)
        acc = cascade.accumulation_parameter(res.params)
        assert (acc.value, acc.error) == (res.t_inf, res.t_inf_error)


def shift_seeds(res, t0):
    """The starts of the cascade of the family shifted by t0: res's
    converged orbits at its t_N - t0."""
    return [(x, cascade._diff(t, t0)) for x, t in zip(res.orbits, res.params)]


@pytest.mark.parametrize("name, depth", [("logistic", 8), ("henon", 6)])
@pytest.mark.parametrize("t0", [-0.05, 0.05])
def test_seeded_cascade_matches_unseeded(request, name, depth, t0):
    fam = request.getfixturevalue(name)
    shifted = cascade.recenter(fam, t0)
    seeds = shift_seeds(cascade.run_cascade(fam, depth), t0)
    seeded = cascade.run_cascade(shifted, depth, seeds=seeds)
    plain = cascade.run_cascade(shifted, depth)
    for a, b in zip(seeded.params, plain.params, strict=True):
        assert abs(cascade._diff(a, b)) <= 2e-16 * max(1.0, abs(b))
    assert seeded.t_inf == plain.t_inf
    assert [x.shape for x in seeded.orbits] == [x.shape for x, _ in seeds]


@pytest.mark.parametrize("name, depth", [("logistic", 8), ("henon", 6)])
@pytest.mark.parametrize("t0", [-0.05, 0.05])
def test_seeded_cascade_saves_newton_steps(request, monkeypatch, name, depth, t0):
    # a seed is a converged orbit of the same map: no settle orbit, no branch
    # switch, and a Newton solve that stops at its rounding floor
    fam = request.getfixturevalue(name)
    shifted = cascade.recenter(fam, t0)
    seeds = shift_seeds(cascade.run_cascade(fam, depth), t0)
    seeded = count_newton_steps(monkeypatch, shifted, depth, seeds=seeds)
    assert all(seeded.count(2 ** level) <= 3 for level in range(depth + 1))
    assert 2 * len(seeded) < len(count_newton_steps(monkeypatch, shifted, depth))


def test_seeds_of_wrong_count_or_shape_raise(logistic, henon):
    for fam in (logistic, henon):
        seeds = shift_seeds(cascade.run_cascade(fam, 4), 0.0)
        for bad in (seeds[:-1], seeds + seeds[-1:], [(x.ravel(), t) for x, t in seeds[:1]]
                    + seeds[1:], [(np.vstack([x, x]), t) for x, t in seeds]):
            with pytest.raises(ValueError, match="seeds must be"):
                cascade.run_cascade(fam, 4, seeds=bad)


# the high parts of logistic t_0 .. t_16 when every level started from a
# settle orbit polished at fixed t
LOGISTIC_T_HEX = (
    "0x1.8000000000000p+1", "0x1.b988e1409212fp+1", "0x1.c5a4c0be2c14fp+1",
    "0x1.c83e7f4ec0987p+1", "0x1.c8cd1bd11dc86p+1", "0x1.c8eba79873882p+1",
    "0x1.c8f23260a7137p+1", "0x1.c8f39910e5a4dp+1", "0x1.c8f3e5e2da669p+1",
    "0x1.c8f3f656b30d7p+1", "0x1.c8f3f9dcbf79ep+1", "0x1.c8f3fa9df06aap+1",
    "0x1.c8f3fac750942p+1", "0x1.c8f3fad02d187p+1", "0x1.c8f3fad212f13p+1",
    "0x1.c8f3fad27afeep+1", "0x1.c8f3fad29147ep+1")


def test_logistic_doubling_parameters_keep_their_high_parts(logistic_cascade16):
    for t, ref in zip(logistic_cascade16.params, LOGISTIC_T_HEX, strict=True):
        ref = float.fromhex(ref)
        assert abs(float(t) - ref) <= 2 * math.ulp(ref), (t.hex(), ref.hex())


def test_period_check_does_not_depend_on_point_0(logistic, logistic_cascade16):
    # the period-2^14 sink has a pair of points 1.3e-11 apart, the critical
    # value's lineage: rolled to start there, it is still a genuine orbit
    ts = logistic_cascade16.params
    t, period = 0.5 * (ts[13] + ts[14]), 2 ** 14
    pts = cascade._orbit_by_iteration(logistic, t, period)[:, 0]
    order = np.argsort(pts)
    first = int(np.argmin(np.diff(pts[order])))
    rolled = np.roll(pts, -int(order[first]))
    assert abs(rolled[0] - pts[order[first + 1]]) < cascade.DISTINCT_TOL
    assert len(cascade.periodic_orbit(logistic, t, period, rolled)) == period


# every t_N's high and low parts, and SHA-256 of the stored orbits' high
# and of their low parts
CASCADE_PINS = {
    "logistic": (
        ("0x1.8000000000000p+1", "0x1.26081087d5552p-55"),
        ("0x1.b988e1409212fp+1", "-0x1.f2f08cd64ff48p-53"),
        ("0x1.c5a4c0be2c150p+1", "-0x1.f0de54faed118p-53"),
        ("0x1.c83e7f4ec0987p+1", "0x1.49fc245b42a6dp-53"),
        ("0x1.c8cd1bd11dc86p+1", "0x1.45c19b637c578p-54"),
        ("0x1.c8eba79873882p+1", "0x1.fd89bc061a973p-55"),
        ("0x1.c8f23260a7137p+1", "0x1.c59c56cbff13cp-56"),
        ("0x1.c8f39910e5a4dp+1", "-0x1.d6754272e2c48p-54"),
        ("0x1.c8f3e5e2da669p+1", "0x1.389bb670aa74ap-53"),
        ("0x1.c8f3f656b30d7p+1", "0x1.9ef399c933ca7p-57"),
        ("0x1.c8f3f9dcbf79ep+1", "0x1.549418d814f95p-54"),
        ("0x1.c8f3fa9df06aap+1", "-0x1.84e6531a2ca34p-54"),
        ("0x1.c8f3fac750942p+1", "-0x1.19a316b7a0357p-54"),
        ("0x1.c8f3fad02d187p+1", "-0x1.e26cf6845fe5ep-53"),
        "e1a7e374f50b722c19d09850d98eff2b70f4200ae3d5ab04096b24310f3e59d4",
        "0c13de8d44d5fe508b83731fd034753f76e8d35f1d88a9010bb3cab90be3909b"),
    "henon": (
        ("0x1.7851eb851eb85p-2", "0x1.b89bdfbc95a00p-62"),
        ("0x1.d333333333334p-1", "-0x1.b8a84624d07a6p-55"),
        ("0x1.069e75b7377b2p+0", "-0x1.91681c8871ceap-54"),
        ("0x1.0d1692466d6abp+0", "0x1.a42885013a2eep-56"),
        ("0x1.0e7af6636e4c1p+0", "-0x1.7853250d833aap-54"),
        ("0x1.0ec772c406e62p+0", "0x1.d835b77d77f8ap-54"),
        ("0x1.0ed7d5f800f95p+0", "0x1.1c59bc37d32d3p-57"),
        ("0x1.0edb5889ff8fep+0", "0x1.c97320aa6e9aap-54"),
        ("0x1.0edc18fd32062p+0", "0x1.45d2ecf3c8894p-56"),
        ("0x1.0edc4234c40d8p+0", "-0x1.a1047593b8ae1p-54"),
        "48fc35a1d7d20e98f8071e8989a02c0f0d5c21d700c20cbfce8b8fe51854955d",
        "496ca097f0ce1e2351c142e9f1d159acdc81cfbd536bf868471942d99de37546")}


@pytest.mark.parametrize("name, depth", [("logistic", 13), ("henon", 9)])
def test_cascade_keeps_every_bit(request, name, depth):
    res = cascade.run_cascade(request.getfixturevalue(name), depth)
    *params, high, low = CASCADE_PINS[name]
    assert [(t.hex(), t.lo.hex()) for t in res.params] == params
    assert [hashlib.sha256(b"".join(x.tobytes() for x in part)).hexdigest()
            for part in (res.orbits, res.orbit_lows)] == [high, low]


def test_cascade_rejects_a_negative_level(logistic):
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        cascade.run_cascade(logistic, -1)


def test_cascade_error_carries_prefix(logistic):
    # no doubling exists in the window a in [1, 2]
    squeezed = dataclasses.replace(
        logistic, param_range=(1.0, 2.0), bracket0=(1.2, 1.8), gap_hint=0.2,
        start_at=lambda t: 0.5)
    with pytest.raises(BracketError) as err:
        cascade.run_cascade(squeezed, 3)
    assert err.value.completed == ()


def test_cascade_leaves_other_exceptions_untouched(logistic, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug")
    monkeypatch.setattr(cascade, "find_doubling_bifurcation", broken)
    with pytest.raises(TypeError) as err:
        cascade.run_cascade(logistic, 3)
    assert not hasattr(err.value, "completed")


# --- cascades between calls ----------------------------------------------
# run_cascade keeps nothing; cli._cascade keeps each family's deepest cascade
# in the process and serves shallower requests from its first levels

def test_family_compares_by_identity_and_is_immutable(logistic):
    other = dataclasses.replace(logistic)
    assert logistic == logistic and logistic != other
    assert hash(logistic) != hash(other)
    with pytest.raises(dataclasses.FrozenInstanceError):
        logistic.base = other.base


def test_every_run_cascade_call_solves(logistic, doubling_solves):
    res = cascade.run_cascade(logistic, 6)
    again = cascade.run_cascade(logistic, 6)
    assert doubling_solves == [logistic] * 14
    assert cascade_bits(again) == cascade_bits(res)
    del doubling_solves[:]
    # seeds at the converged orbits themselves: every level is solved again
    seeded = cascade.run_cascade(logistic, 6, seeds=shift_seeds(res, 0.0))
    assert doubling_solves == [logistic] * 7
    assert all(part.flags.writeable for part in res.orbits + seeded.orbits)


def cascade_bits(res):
    """Every number of a cascade, to the bit: params with their low parts,
    ratios, the accumulation and each orbit's high and low parts."""
    return ([(t.hex(), t.lo.hex()) for t in res.params],
            [d.hex() for d in res.delta_estimates], res.t_inf.hex(), res.t_inf_error.hex(),
            [(x.shape, x.tobytes()) for x in res.orbits + res.orbit_lows])


def cli_cfg(name):
    return {"family": name, "b": 0.3}


@pytest.mark.parametrize("name, depth, ks", [("logistic", 13, (0, 3, 8, 11)),
                                             ("henon", 9, (6, 8))])
def test_kept_cascade_serves_shallower_requests_bit_for_bit(request, cli_cascades,
                                                            doubling_solves, name, depth, ks):
    fam = request.getfixturevalue(name)
    deep = cli._cascade(cli_cfg(name), depth)
    for k in ks:
        del doubling_solves[:]
        served = cli._cascade(cli_cfg(name), k)
        assert doubling_solves == []
        assert cascade_bits(served) == cascade_bits(cascade.run_cascade(fam, k))
    del doubling_solves[:]
    assert cascade_bits(cli._cascade(cli_cfg(name), depth)) == cascade_bits(deep)
    assert doubling_solves == []


def test_kept_orbits_are_read_only(cli_cascades):
    res = cli._cascade(cli_cfg("logistic"), 3)
    served = cli._cascade(cli_cfg("logistic"), 2)
    for part in res.orbits + res.orbit_lows + served.orbits + served.orbit_lows:
        with pytest.raises(ValueError, match="read-only"):
            part[0, 0] = 0.0


def test_deeper_request_solves_and_is_kept(henon, cli_cascades, doubling_solves):
    cli._cascade(cli_cfg("henon"), 4)
    del doubling_solves[:]
    deeper = cli._cascade(cli_cfg("henon"), 7)
    assert len(doubling_solves) == 8
    assert len(cli_cascades) == 1 and cli_cascades["henon", (0.3).hex()] is deeper
    assert cascade_bits(deeper) == cascade_bits(cascade.run_cascade(henon, 7))
    del doubling_solves[:]
    served = cli._cascade(cli_cfg("henon"), 5)
    assert doubling_solves == []
    assert cascade_bits(served) == cascade_bits(cascade.run_cascade(henon, 5))


def test_failed_cascade_keeps_nothing(logistic, cli_cascades, monkeypatch):
    # level 1's bracket, from a tenth of the first gap, misses t_1
    monkeypatch.setattr(cli, "_family", lambda cfg: dataclasses.replace(logistic, gap_hint=0.045))
    kept = cli._cascade(cli_cfg("logistic"), 0)
    for _ in range(2):
        with pytest.raises(BracketError) as err:
            cli._cascade(cli_cfg("logistic"), 3)
        assert err.value.completed == kept.params
        assert len(cli_cascades) == 1 and cli_cascades["logistic", None] is kept
    cli_cascades.clear()
    monkeypatch.setattr(cli, "_family", lambda cfg: dataclasses.replace(logistic,
                                                                        bracket0=(1.2, 1.8)))
    for _ in range(2):
        with pytest.raises(BracketError) as err:
            cli._cascade(cli_cfg("logistic"), 3)
        assert err.value.completed == ()
    assert cli_cascades == {}


# --- accumulation extrapolation -------------------------------------------

def test_aitken_exact_on_geometric():
    seq = [1.0 - 4.0 ** (-n) for n in range(6)]
    acc = cascade.accumulation_parameter(seq)
    assert acc.value == pytest.approx(1.0, abs=1e-12)


def test_aitken_tangent_is_exact_on_geometric():
    # t_k = L - c q^k extrapolates to L whatever c and q, so the tangent of
    # t_inf is dL/de alone, for every direction of (dL, dc, dq)
    big_l, c, q = 3.5, 0.8, 1 / 4.669
    grads = np.array([[1.0, 0.0, 0.0], [0.7, 0.3, 0.05], [0.0, -2.0, 0.1]]).T
    k = np.arange(8.0)[:, None]
    seq = (big_l - c * q ** k)[:, 0]
    tangents = grads[0] - grads[1] * q ** k - c * k * q ** (k - 1) * grads[2]
    acc = cascade.accumulation_parameter(seq, tangents=tangents)
    assert acc.value == cascade.accumulation_parameter(seq).value
    assert np.allclose(acc.tangents, grads[0], rtol=0, atol=1e-12)


def test_aitken_insufficient_data():
    with pytest.raises(InsufficientDataError):
        cascade.accumulation_parameter([1.0, 2.0, 3.0])


def test_aitken_constant_sequence():
    acc = cascade.accumulation_parameter([2.0, 2.0, 2.0, 2.0])
    assert acc.value == 2.0


# --- Lyapunov exponents ----------------------------------------------------

def test_lyapunov_fully_chaotic(logistic):
    # conjugacy with the tent map pins the value at log 2
    lam = cascade.lyapunov_exponent(logistic, 4.0)
    assert lam == pytest.approx(math.log(2.0), abs=0.01)


def qr_lyapunov(fam, t, n_transient=1000, n_iter=8000):
    """The per-step QR exponent, as a reference."""
    m = fam.map_at(t)
    x0 = np.add(fam.start_at(t), 0.0137 * np.eye(fam.dim)[0])
    pts = cascade.orbit(m, x0, n_transient + n_iter, keep=n_iter + 1)[1][:-1]
    q, total = np.eye(fam.dim), 0.0
    for jac in m.jac(pts):
        q, r = np.linalg.qr(jac @ q)
        total += math.log(abs(r[0, 0]))
    return total / n_iter


@pytest.mark.parametrize("a", [1.06, 1.1, 1.2, 1.3])
def test_henon_lyapunov_matches_per_step_qr(henon, a):
    assert abs(cascade.lyapunov_exponent(henon, a, n_iter=8000) - qr_lyapunov(henon, a)) <= 1e-12


@pytest.mark.parametrize("a", [1.06, 1.2, 1.3])
def test_henon_lyapunov_matches_per_step_qr_at_every_length(henon, a):
    # the orbit's first n_iter points after the transient are the same for
    # every n_iter, so one QR pass gives the reference at each length
    m = henon.map_at(a)
    x0 = np.add(henon.start_at(a), 0.0137 * np.eye(2)[0])
    pts = cascade.orbit(m, x0, 1000 + 20000, keep=20001)[1][:-1]
    q, logs = np.eye(2), []
    for jac in m.jac(pts):
        q, r = np.linalg.qr(jac @ q)
        logs.append(math.log(abs(r[0, 0])))
    sums = np.cumsum(logs)
    for n in (1, 63, 65, 8001, 20000):
        assert abs(cascade.lyapunov_exponent(henon, a, n_iter=n) - sums[n - 1] / n) <= 1e-12


def test_lyapunov_of_a_product_past_binary64(henon, monkeypatch):
    # 4^20000 overflows binary64 long before the last factor
    four = 4.0 * np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(unscaled_chain(np.broadcast_to(four, (20000, 2, 2)))).any()
    monkeypatch.setattr(cascade.MapND, "jac", lambda self, x: np.broadcast_to(four, (len(x), 2, 2)))
    assert cascade.lyapunov_exponent(henon, 1.2) == pytest.approx(math.log(4.0), rel=1e-15)


@pytest.mark.parametrize("n_iter", [1, 100, 20000])
def test_lyapunov_through_a_zero_jacobian_is_minus_infinity(logistic, n_iter):
    # at t = 2 the orbit reaches the critical point 1/2 exactly and stays
    m = logistic.map_at(2.0)
    pts = cascade.orbit(m, 0.5 + 0.0137, 1000 + n_iter, keep=n_iter + 1)[1][:-1]
    assert (pts == 0.5).all()
    assert cascade.lyapunov_exponent(logistic, 2.0, n_iter=n_iter) == -math.inf


def test_lyapunov_binary64_jacobians_match_double_double(logistic, monkeypatch):
    # criterion 7's sink and chaos parameters, against the same exponent
    # from double-double Jacobians
    res = cascade.run_cascade(logistic, 6)
    ts = res.params
    params = ([0.5 * (a + b) for a, b in zip(ts[:5], ts[1:6])]
              + list(np.linspace(res.t_inf + 0.3 / 50, res.t_inf + 0.3, 50)))
    fast = [cascade.lyapunov_exponent(logistic, t, n_iter=8000) for t in params]
    monkeypatch.setattr(cascade, "_poly",
                        lambda terms, x: cascade._dd_poly(terms, x, np.zeros_like(x))[0])
    exact = [cascade.lyapunov_exponent(logistic, t, n_iter=8000) for t in params]
    assert np.max(np.abs(np.subtract(fast, exact))) <= 1e-12


@pytest.mark.parametrize("name, depth", [("logistic", 8), ("henon", 6)])
def test_orbit_multiplier_binary64_jacobians_match_double_double(request, monkeypatch, name,
                                                                 depth):
    # the period-2^N orbit, N = 0..depth, midway between t_(N-1) and t_N,
    # where it is a sink; t_(-1) is the first bracket's lower end
    fam = request.getfixturevalue(name)
    ts = [fam.bracket0[0], *cascade.run_cascade(fam, depth).params]
    cases = [(0.5 * (a + b), 2 ** n) for n, (a, b) in enumerate(zip(ts, ts[1:]))]
    orbits = [(t, cascade._orbit_by_iteration(fam, t, p)) for t, p in cases]
    fast = [cascade.orbit_multiplier(fam, t, orb) for t, orb in orbits]
    monkeypatch.setattr(cascade, "_poly",
                        lambda terms, x: cascade._dd_poly(terms, x, np.zeros_like(x))[0])
    for (t, orb), mults in zip(orbits, fast):
        exact = np.array(cascade.orbit_multiplier(fam, t, orb))
        # relative to the largest modulus: eigvals resolves a Henon orbit's
        # contracting multiplier, b^p / the other, only to that scale
        assert np.max(np.abs(np.subtract(mults, exact))) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("level", [4, 5, 6])
def test_henon_contracting_multiplier_is_resolved(henon, henon_cascade7, level):
    # det M = (-b)^p, so the contracting multiplier is (-b)^p / mu_1, far
    # below the scale of M's entries from period 32 on
    ts = henon_cascade7.params
    t, period = 0.5 * (ts[level - 1] + ts[level]), 2 ** level
    mu1, mu2 = cascade.orbit_multiplier(henon, t, cascade._orbit_by_iteration(henon, t, period))
    assert isinstance(mu2, float)
    assert mu2 == pytest.approx((-0.3) ** period / mu1, rel=1e-12, abs=0)


def test_lyapunov_sink_negative(logistic):
    assert cascade.lyapunov_exponent(logistic, 3.2, n_iter=10000) < 0


def test_lyapunov_past_accumulation_positive(logistic, logistic_cascade10):
    lam = cascade.lyapunov_exponent(logistic, logistic_cascade10.t_inf + 0.1)
    assert lam > 0


def test_lyapunov_split(logistic, logistic_cascade10):
    # negative at inter-doubling midpoints, mostly positive past t_inf
    ts = logistic_cascade10.params
    t_inf = logistic_cascade10.t_inf
    for a, b in zip(ts[:5], ts[1:6]):
        assert cascade.lyapunov_exponent(logistic, 0.5 * (a + b), n_iter=8000) < 0
    lo, hi = logistic.param_range
    window = 0.2 * (hi - lo)
    samples = np.linspace(t_inf + window / 50, t_inf + window, 50)
    positive = sum(cascade.lyapunov_exponent(logistic, t, n_iter=6000) > 0
                   for t in samples)
    assert positive >= 30
