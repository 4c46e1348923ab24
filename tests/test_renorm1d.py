from fractions import Fraction

import numpy as np
import pytest

from renormlab import renorm1d, series
from renormlab.errors import LinearizationError, NoConvergenceError, SingularScalingError


def _rational_renorm_quadratic(c0, c1):
    """Exact-rational oracle for R f with f(x) = c0 + c1 x^2.

    R f(x) = s^-1 f(f(s x)), s = f(1); expanded symbolically in u = x^2.
    Returns the coefficients of 1, u, u^2.
    """
    c0, c1 = Fraction(c0), Fraction(c1)
    s = c0 + c1
    # inner g(u) = c0 + c1 s^2 u ; outer c0 + c1 * inner^2, all over s
    a0 = c0 + c1 * c0 * c0
    a1 = c1 * 2 * c0 * (c1 * s * s)
    a2 = c1 * (c1 * s * s) ** 2
    return [a0 / s, a1 / s, a2 / s]


ORACLE_COEFFS = _rational_renorm_quadratic(1, Fraction(-3, 2))
# frozen from the oracle: [1, -2.25, 0.421875]
assert ORACLE_COEFFS == [Fraction(1), Fraction(-9, 4), Fraction(27, 64)]


def test_renormalize_quadratic_example():
    f = series.AnalyticUnimodal([1.0, -1.5, 0.0])
    out = renorm1d.renormalize(f)
    assert np.allclose(out.coeffs, [1.0, -2.25, 0.421875], atol=1e-12)
    assert np.allclose(out.coeffs, [float(c) for c in ORACLE_COEFFS], atol=1e-12)


def test_renormalize_fixed_point(phi40):
    phi = phi40.phi0
    out = renorm1d.renormalize(phi)
    assert series.sup_distance(out, phi) < 1e-8


def test_renormalize_singular_scaling():
    with pytest.raises(SingularScalingError):
        renorm1d.renormalize(series.AnalyticUnimodal([1.0, -1.0]))


def test_residual_fixed_point(phi40):
    assert renorm1d.residual(phi40.phi0) < 1e-8


def test_residual_quadratic():
    # coefficient gap at degree 2 is (0, -0.75, 0.421875); well above 0.1
    f = series.AnalyticUnimodal([1.0, -1.5, 0.0])
    gap = renorm1d.renormalize(f) - f
    assert np.allclose(gap.coeffs, [0.0, -0.75, 0.421875], atol=1e-12)
    assert renorm1d.residual(f) > 0.1


def test_residual_constant_is_zero():
    f = series.AnalyticUnimodal([1.0, 0.0])
    assert renorm1d.residual(f) < 1e-14


def test_solve_lambda_value(phi40):
    assert phi40.lam == pytest.approx(0.3995, abs=5e-4)
    assert 0.0 < phi40.lam < 1.0
    assert phi40.residual < 1e-8
    assert phi40.phi0.normalized


def test_solve_negative_curvature(phi40):
    # phi0''(0) = 2 c1 < 0
    assert phi40.phi0.coeffs[1] < 0


def test_solve_single_fixed_point_above_lambda(phi40):
    # bisection oracle on phi0(x) - x over [0, 1]
    phi = phi40.phi0
    xs = np.linspace(0.0, 1.0, 2001)
    vals = series.evaluate(phi, xs) - xs
    crossings = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    assert len(crossings) == 1
    lo, hi = xs[crossings[0]], xs[crossings[0] + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (series.evaluate(phi, mid) - mid) * (series.evaluate(phi, lo) - lo) <= 0:
            hi = mid
        else:
            lo = mid
    x_star = 0.5 * (lo + hi)
    assert x_star > phi40.lam


def test_truncation_stability(phi40, phi20):
    fp30 = renorm1d.solve_fixed_point(degree=30)
    assert abs(fp30.lam - phi40.lam) < 1e-6


def test_newton_quadratic_tail(phi40):
    steps = [s for s in phi40.step_norms if s > 1e-12]
    assert len(steps) >= 2
    for s_prev, s_next in zip(steps, steps[1:]):
        assert s_next <= 1e3 * s_prev * s_prev


@pytest.mark.parametrize("degree, iters", [(2, 3), (4, 4), (9, 4), (20, 4), (40, 4),
                                           (80, 4), (160, 4)])
def test_newton_iterations_at_the_default_tol(degree, iters):
    # every full step here shrinks the residual tenfold or more, so the
    # stall rule never fires
    fp = renorm1d.solve_fixed_point(degree=degree)
    assert fp.newton_iters == iters and fp.residual < renorm1d.DEFAULT_TOL


def test_newton_stall_raises_early(monkeypatch):
    # at degree 40 the residual bottoms out near 1.3e-13 after 4 steps; a
    # tol below that stops at the first step that fails to halve it, not
    # after max_iters
    steps, jacobian = [], renorm1d._renorm_jacobian
    monkeypatch.setattr(renorm1d, "_renorm_jacobian",
                        lambda *a: steps.append(a) or jacobian(*a))
    with pytest.raises(NoConvergenceError, match=r"stalled at residual 1\.318e-13 "
                                                 r"\(tol 1\.0e-14\)") as err:
        renorm1d.solve_fixed_point(degree=40, tol=1e-14)
    assert len(steps) <= 6
    assert 1e-14 <= err.value.residual < 2e-13
    assert renorm1d.residual(err.value.last) == err.value.residual


def test_double_renormalization_stays(phi40):
    phi = phi40.phi0
    once = renorm1d.renormalize(phi)
    twice = renorm1d.renormalize(once)
    assert series.sup_distance(twice, once) < 1e-7
    assert series.sup_distance(twice, phi) < 1e-7


def test_lambda_of_values(phi40):
    assert renorm1d.lambda_of(phi40.phi0) == pytest.approx(0.3995, abs=5e-4)
    assert renorm1d.lambda_of(series.AnalyticUnimodal([1.0, -1.0])) == 0.0
    assert renorm1d.lambda_of(series.AnalyticUnimodal([1.0, -1.5])) == pytest.approx(0.5, abs=0)


def test_linearize_spectrum(phi40):
    lin = renorm1d.linearize(phi40.phi0)
    assert lin.leading_eigenvalue > 1.0
    assert lin.jacobian.shape == (41, 41)
    assert lin.expanding_count >= 1
    # on the normalized slice exactly one direction expands
    assert lin.pinned_expanding_count == 1
    pinned_eigs = np.linalg.eigvals(lin.jacobian[1:, 1:])
    assert int(np.sum(np.abs(pinned_eigs) > 1.0)) == 1
    assert lin.eigen_gap > 1.0


def test_linearize_cross_validates_cascade(phi40, logistic_cascade10):
    lin = renorm1d.linearize(phi40.phi0)
    delta_cascade = logistic_cascade10.delta_estimates[-1]
    assert abs(lin.leading_eigenvalue - delta_cascade) < 0.01 * delta_cascade


def test_linearize_degenerate_constant():
    # must not crash: either a clean error or all eigenvalues <= 1
    try:
        lin = renorm1d.linearize(series.AnalyticUnimodal([1.0, 0.0]))
    except LinearizationError:
        return
    assert abs(lin.leading_eigenvalue) <= 1.0
    assert lin.expanding_count == 0


def test_linearize_rejects_nonfixed_points():
    with pytest.raises(LinearizationError):
        renorm1d.linearize(series.AnalyticUnimodal([1.0, -1.5]))


def test_jacobian_central_difference_order():
    # halving h divides the truncation error by ~4 (second-order stencil)
    k = 12
    fp = renorm1d.solve_fixed_point(degree=k)
    c = fp.phi0.coeffs

    def jac(h):
        out = np.empty((k + 1, k + 1))
        for j in range(k + 1):
            cp = c.copy(); cp[j] += h
            cm = c.copy(); cm[j] -= h
            out[:, j] = (renorm1d._renorm_coeffs(cp, k)
                         - renorm1d._renorm_coeffs(cm, k)) / (2 * h)
        return out

    j1, j2, j4 = jac(4e-4), jac(2e-4), jac(1e-4)
    num = np.linalg.norm(j1 - j2)
    den = np.linalg.norm(j2 - j4)
    assert 2.5 < num / den < 5.5

    # the stencil converges to the exact Jacobian at the same rate; distances
    # are taken as functions on the fit grid, since single coefficients carry
    # the fit's rounding amplified by 1/h
    exact = renorm1d._renorm_jacobian(c, k)
    _, a, _ = series._fit_operator(2 * k + 1, k)
    d1, d2, d4 = (np.linalg.norm(a @ (j - exact)) for j in (j1, j2, j4))
    assert 3.5 < d1 / d2 < 4.5
    assert 3.5 < d2 / d4 < 4.5
    assert np.array_equal(renorm1d.linearize(fp.phi0).jacobian, exact)


# Briggs (1991), Math. Comp. 57, "A precise calculation of the Feigenbaum
# constants"
BRIGGS_DELTA = 4.669201609102990
BRIGGS_ALPHA = 2.502907875095893


@pytest.mark.parametrize("degree", [20, 40, 80, 120])
def test_operator_accuracy_against_briggs(degree):
    fp = renorm1d.solve_fixed_point(degree=degree)
    assert abs(fp.lam - 1.0 / BRIGGS_ALPHA) < 1e-11
    lead = renorm1d.linearize(fp.phi0).leading_eigenvalue
    assert abs(lead - BRIGGS_DELTA) < 1e-10
