"""Truncated even power series over [-1, 1].

A real analytic unimodal map with a quadratic critical point at the origin
is stored through its even representation phi(x) = g(x^2) = sum_j c_j x^(2j).
Only the coefficients of g are kept, which halves the coefficient count and
makes phi'(0) = 0 automatic.

Fits from sampled values use a fixed regularized pseudoinverse of the even
Vandermonde matrix.  The monomial basis on x^2 in [0, 1] turns severely
ill-conditioned past degree ~15, so the regularization (relative cutoff
1e-9) is what keeps the sample -> coefficients map smooth and reproducible;
function values are accurate to ~1e-10 even at degree 40, while individual
high-order coefficients of near-degenerate inputs are not identifiable in
binary64 by any method.
"""

import functools

import numpy as np

from .errors import DomainError

# truncation degrees above this are refused outright
MAX_DEGREE = 256

# relative singular-value cutoff of the fit pseudoinverse
FIT_RCOND = 1e-9


class AnalyticUnimodal:
    """Even power series phi(x) = sum_j coeffs[j] * x^(2j) on [-1, 1].

    coeffs[0] is phi(0).  When flagged `normalized`, phi(0) = 1 and
    phi''(0) = 2*coeffs[1] < 0 are enforced at construction.
    """

    __slots__ = ("coeffs", "normalized")

    def __init__(self, coeffs, normalized=False):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        if normalized:
            if c[0] != 1.0:
                raise ValueError("normalized series must have c0 = 1")
            if c.size < 2 or not c[1] < 0:
                raise ValueError("normalized series must have c1 < 0")
        c.setflags(write=False)
        self.coeffs = c
        self.normalized = bool(normalized)

    @property
    def trunc_degree(self):
        return self.coeffs.size - 1

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):
        head = np.array2string(self.coeffs[:4], precision=6)
        return (f"AnalyticUnimodal(K={self.trunc_degree}, coeffs={head}..., "
                f"normalized={self.normalized})")

    def __sub__(self, other):
        if not isinstance(other, AnalyticUnimodal):
            return NotImplemented
        a = np.zeros(max(self.coeffs.size, other.coeffs.size))
        a[: self.coeffs.size] = self.coeffs
        a[: other.coeffs.size] -= other.coeffs
        return AnalyticUnimodal(a)


def cheb_nodes(m):
    """m Chebyshev extrema of [-1, 1], strictly increasing."""
    if m < 2:
        return np.zeros(1)
    return -np.cos(np.pi * np.arange(m) / (m - 1))


def _eval_in_u(coeffs, u):
    # Horner in u = x^2
    r = np.zeros_like(u)
    for cj in coeffs[::-1]:
        r = r * u + cj
    return r


def evaluate(f, x):
    """phi(x) by Horner evaluation in u = x^2.  Accepts scalars or arrays."""
    xs = np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1 + 1e-12):
        raise DomainError(f"|x| > 1: x={x!r}")
    out = _eval_in_u(f.coeffs, xs**2)
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out


@functools.lru_cache(maxsize=64)
def _fit_operator(m, degree):
    """Cached (nodes, design matrix, pseudoinverse) for the default grids."""
    nodes = cheb_nodes(m)
    a = np.vander(nodes**2, degree + 1, increasing=True)
    return nodes, a, np.linalg.pinv(a, rcond=FIT_RCOND)


def _fit_values(values, m, degree):
    # the cached pinv on the default grid, then one refinement pass
    nodes, a, p = _fit_operator(m, degree)
    c = p @ values
    return c + p @ (values - a @ c)


def sup_norm(f):
    """max |phi| on 513 grid points of [-1, 1], Newton-polished at the best."""
    xs = np.linspace(-1.0, 1.0, 513)
    vals = np.abs(_eval_in_u(f.coeffs, xs**2))
    i = int(np.argmax(vals))
    best = vals[i]
    # polish: one Newton step on (phi^2)' = 0
    x0 = xs[i]
    p = _eval_in_u(f.coeffs, np.array(x0**2))
    c = f.coeffs
    if c.size >= 2:
        j = np.arange(1, c.size)
        gp = _eval_in_u(c[1:] * j, np.array(x0**2))
        dp = 2 * x0 * gp
        if c.size >= 3:
            gpp = _eval_in_u(c[2:] * j[1:] * (j[1:] - 1), np.array(x0**2))
        else:
            gpp = 0.0
        ddp = 2 * gp + 4 * x0**2 * gpp
        denom = dp * dp + p * ddp
        if abs(denom) > 1e-300:
            x1 = x0 - (p * dp) / denom
            if abs(x1) <= 1.0:
                best = max(best, abs(float(_eval_in_u(c, np.array(x1**2)))))
    return float(best)


def sup_distance(f, g):
    """sup-norm distance between two series on [-1, 1]."""
    return sup_norm(f - g)
