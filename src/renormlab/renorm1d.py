"""Doubling renormalization of even unimodal series and its fixed point.

The operator takes f to f(1)^-1 * f(f(f(1)*x)), refit to a truncated even
series.  Its normalized fixed point is found by a damped Newton iteration in
coefficient space with the c0 = 1 component pinned, and the operator's
derivative comes from the chain rule through the sampled values, exact up
to rounding; Newton and the linearization share it.

On the full coefficient space the derivative carries one extra expanding
eigenvalue produced by the scaling/normalization direction (numerically
about 6.2645, the square of the inverse spatial constant), on top of the
expanding eigenvalue of the normalized problem.  The reported
leading_eigenvalue is therefore the dominant eigenvalue of the c0-pinned
slice, which is the one a parameter cascade can be checked against, while
expanding counts are reported for both the full matrix and the slice.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (LinearizationError, NoConvergenceError, RangeError,
                     SingularScalingError)
from .series import (AnalyticUnimodal, MAX_DEGREE, _eval_in_u, _fit_operator,
                     _fit_values, evaluate, sup_distance, sup_norm)

DEFAULT_DEGREE = 40
DEFAULT_TOL = 1e-10
DEFAULT_INITIAL = (1.0, -1.4)


@dataclass(frozen=True)
class FixedPointResult:
    phi0: AnalyticUnimodal
    lam: float                    # -phi0(1)
    residual: float               # sup norm of R(phi0) - phi0
    newton_iters: int
    step_norms: tuple = field(default=())


@dataclass(frozen=True)
class LinearizationResult:
    jacobian: np.ndarray          # (K+1) x (K+1), full coefficient space
    leading_eigenvalue: float     # dominant eigenvalue of the pinned slice
    expanding_count: int          # |eig| > 1 over the full matrix
    pinned_expanding_count: int   # |eig| > 1 with the c0 row/column removed
    eigen_gap: float              # |lead| - |second| on the pinned slice


def _sample(c, degree):
    """s = g(1), the fit grid size m, u = (s x)^2 at its nodes and g(u)."""
    s = float(_eval_in_u(c, np.array(1.0)))
    if abs(s) < 1e-13:
        raise SingularScalingError("f(1) = 0: cannot rescale by f(1)")
    if abs(s) > 1.0 + 1e-3:
        raise RangeError(f"|f(1)| = {abs(s):.6g} > 1: rescaled domain escapes [-1, 1]")
    m = 2 * max(degree, 1) + 1
    nodes, _, _ = _fit_operator(m, degree)
    u = (s * nodes) ** 2
    inner = _eval_in_u(c, u)
    # small analytic slack: perturbed maps may overshoot the interval a hair
    if np.max(np.abs(inner)) > 1.0 + 1e-3:
        raise RangeError(
            f"orbit escapes the domain: |f(f(1)x)| reaches {np.max(np.abs(inner)):.6g}")
    return s, m, u, inner


def _renorm_coeffs(c, degree):
    """Coefficient image of the doubling operator; c is a plain array."""
    s, m, _, inner = _sample(c, degree)
    return _fit_values(_eval_in_u(c, inner**2) / s, m, degree)


def _renorm_jacobian(c, degree):
    """Exact derivative of _renorm_coeffs at c, by the chain rule.

    The fit is linear in the samples v = g(w)/s, w = g(u)^2, u = s^2 x^2,
    s = g(1), so dv/dc_j = (w^j + 2 g(u) g'(w) (u^j + 2 u g'(u)/s) - v) / s.
    """
    s, m, u, inner = _sample(c, degree)
    w, k = inner**2, c.size
    dg = c[1:] * np.arange(1, k)            # coefficients of g'
    d_inner = np.vander(u, k, increasing=True) + (2 * u * _eval_in_u(dg, u) / s)[:, None]
    dv = (np.vander(w, k, increasing=True) + (2 * inner * _eval_in_u(dg, w))[:, None] * d_inner
          - (_eval_in_u(c, w) / s)[:, None]) / s
    return _fit_values(dv, m, degree)


def renormalize(f):
    """R f = f(1)^-1 * f(f(f(1) x)) as an even series of f's own degree."""
    if f.trunc_degree > MAX_DEGREE:
        raise ValueError(f"degree must be at most {MAX_DEGREE}")
    return AnalyticUnimodal(_renorm_coeffs(f.coeffs, f.trunc_degree))


def residual(f):
    """sup norm of R f - f, the distance from being a fixed point."""
    return sup_distance(renormalize(f), f)


def lambda_of(phi0):
    """The number -phi0(1); equals 0.3995... at the solved fixed point."""
    return -evaluate(phi0, 1.0)


def solve_fixed_point(degree=DEFAULT_DEGREE, tol=DEFAULT_TOL, max_iters=25):
    """Newton solve of R(phi) = phi on the normalized slice c0 = 1, from
    DEFAULT_INITIAL, 1 - 1.4 x^2.

    The c0 component is pinned (the normalization replaces that equation;
    R preserves f(0) = 1 exactly) and the Jacobian of the remaining system
    is the exact one, restricted to that slice.  Stopping and the reported
    residual use the measure of `residual`, taken once per iterate.  Every
    step is a full Newton step; one that neither halves the residual nor
    brings it below tol has stalled on rounding or left the basin, and
    raises NoConvergenceError with the iterate before it.
    """
    if degree < 1 or degree > MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}]")

    c = np.zeros(degree + 1)
    c[:len(DEFAULT_INITIAL)] = DEFAULT_INITIAL

    steps = []
    gap = _renorm_coeffs(c, degree) - c     # R f - f, whose sup norm is residual(f)
    res = sup_norm(AnalyticUnimodal(gap))
    for it in range(max_iters + 1):
        if res < tol:
            phi0 = AnalyticUnimodal(c, normalized=True)
            return FixedPointResult(phi0, lambda_of(phi0), res, it, tuple(steps))
        if it == max_iters:
            break
        jac = _renorm_jacobian(c, degree)[1:, 1:] - np.eye(degree)
        try:
            step = np.linalg.solve(jac, -gap[1:])
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular Newton Jacobian: {exc}",
                                     last=AnalyticUnimodal(c), residual=res)
        c_try = c.copy()
        c_try[1:] += step
        try:
            gap_try = _renorm_coeffs(c_try, degree) - c_try
        except (RangeError, SingularScalingError):
            raise NoConvergenceError("Newton left the operator's domain",
                                     last=AnalyticUnimodal(c), residual=res)
        res_try = sup_norm(AnalyticUnimodal(gap_try))
        if not (res_try <= res / 2 or res_try < tol):
            raise NoConvergenceError(
                f"Newton stalled at residual {res:.3e} (tol {tol:.1e}): "
                f"a full step did not halve it", last=AnalyticUnimodal(c), residual=res)
        steps.append(float(np.max(np.abs(step))))
        c, gap, res = c_try, gap_try, res_try

    raise NoConvergenceError(
        f"no convergence after {max_iters} iterations (residual {res:.3e})",
        last=AnalyticUnimodal(c), residual=res)


def linearize(phi0):
    """Exact Jacobian of R at phi0, a fixed point to residual 1e-6, with its
    spectral summary.

    Degenerate inputs (e.g. the constant series) yield a near-zero Jacobian
    and a sub-unit leading eigenvalue rather than an error.
    """
    if residual(phi0) >= 1e-6:
        raise LinearizationError("phi0 is not a solved fixed point (residual >= 1e-06)")
    jac = _renorm_jacobian(phi0.coeffs, phi0.trunc_degree)
    full_eigs = np.linalg.eigvals(jac)
    pinned_eigs = np.linalg.eigvals(jac[1:, 1:])
    # largest magnitude first; the appended 0 is the second of a 1x1 slice
    lead, second = np.append(pinned_eigs[np.argsort(-np.abs(pinned_eigs))], 0.0)[:2]
    return LinearizationResult(
        jacobian=jac,
        leading_eigenvalue=float(lead.real),
        expanding_count=int(np.sum(np.abs(full_eigs) > 1.0)),
        pinned_expanding_count=int(np.sum(np.abs(pinned_eigs) > 1.0)),
        eigen_gap=float(abs(lead) - abs(second)),
    )
