import json

import numpy as np
import pytest

from renormlab import cli, renorm1d, series
from renormlab.errors import DomainError


def test_eval_constant():
    f = series.AnalyticUnimodal([1.0])
    assert series.evaluate(f, 0.7) == 1.0


def test_eval_parabola_at_one():
    f = series.AnalyticUnimodal([1.0, -1.0])
    assert series.evaluate(f, 1.0) == 0.0


def test_eval_fixed_point_at_one(phi40):
    # the universal value -phi0(1) = 0.3995...
    assert series.evaluate(phi40.phi0, 1.0) == pytest.approx(-0.3995, abs=5e-4)


def test_eval_domain_error():
    f = series.AnalyticUnimodal([1.0, -1.0])
    with pytest.raises(DomainError):
        series.evaluate(f, 1.5)


def test_eval_matches_monomial_sum():
    rng = np.random.default_rng(3)
    c = rng.uniform(-2, 2, 9)
    f = series.AnalyticUnimodal(c)
    xs = rng.uniform(-1, 1, 50)
    direct = sum(cj * xs ** (2 * j) for j, cj in enumerate(c))
    assert np.max(np.abs(series.evaluate(f, xs) - direct)) < 1e-13


def test_eval_vectorized_scalar_consistency():
    f = series.AnalyticUnimodal([0.3, -0.8, 0.05])
    xs = np.linspace(-1, 1, 7)
    vec = series.evaluate(f, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert series.evaluate(f, float(x)) == pytest.approx(v, abs=0)


def test_normalized_flag_validation():
    with pytest.raises(ValueError):
        series.AnalyticUnimodal([1.0, 0.5], normalized=True)
    with pytest.raises(ValueError):
        series.AnalyticUnimodal([0.9, -1.0], normalized=True)
    f = series.AnalyticUnimodal([1.0, -1.4], normalized=True)
    assert f.normalized and f.trunc_degree == 1


def test_fit_exact_parabola():
    f = series.AnalyticUnimodal([1.0, -1.0])
    out = series._fit_values(series.evaluate(f, series.cheb_nodes(8)), 8, 3)
    assert np.allclose(out, [1.0, -1.0, 0.0, 0.0], atol=1e-12)


def test_fit_constant():
    out = series._fit_values(np.ones(4), 4, 0)
    assert np.allclose(out, [1.0], atol=1e-14)


def test_fit_round_trip_fixed_point(phi40):
    # the represented function round-trips to machine noise; individual
    # coefficients are limited by the degree-40 monomial conditioning
    phi = phi40.phi0
    k = phi.trunc_degree
    m = 2 * k + 1
    out = series.AnalyticUnimodal(
        series._fit_values(series.evaluate(phi, series.cheb_nodes(m)), m, k))
    assert series.sup_distance(out, phi) < 1e-12
    # binary64 floor: the pseudoinverse amplifies sampling rounding by the
    # inverse of its singular-value cutoff (~5e-9 at degree 40)
    assert np.max(np.abs(out.coeffs - phi.coeffs)) < 1e-7


@pytest.mark.parametrize("degree", [0, 1, 2, 4, 6, 8])
def test_fit_round_trip_random(degree):
    # coefficient recovery to 1e-10 whenever the sampled function is an even
    # polynomial of degree <= fit degree (monomial conditioning caps this
    # guarantee near degree ~10 in binary64)
    rng = np.random.default_rng(degree)
    for _ in range(10):
        c = rng.uniform(-2, 2, degree + 1)
        f = series.AnalyticUnimodal(c)
        m = 2 * degree + 1 if degree else 2
        out = series._fit_values(series.evaluate(f, series.cheb_nodes(m)), m, degree)
        assert np.max(np.abs(out - c)) < 1e-10


def test_sup_norm_values():
    assert series.sup_norm(series.AnalyticUnimodal([1.0, -1.0])) == pytest.approx(1.0, abs=1e-12)
    assert series.sup_norm(series.AnalyticUnimodal([0.0])) == 0.0
    assert series.sup_norm(series.AnalyticUnimodal([1.0, -2.0])) == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_interior_max():
    # |0.421875 u^2 - 0.75 u| peaks at u = 8/9, between grid nodes
    f = series.AnalyticUnimodal([0.0, -0.75, 0.421875])
    assert series.sup_norm(f) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_serialization_round_trip(tmp_path):
    # fixpoint --coeffs-out writes the bare coefficient array, every float
    # to the bit
    path = tmp_path / "phi.coeffs.json"
    assert cli.main(["fixpoint", "--degree", "8", "--no-timestamp", "--coeffs-out", str(path),
                     "--out", str(tmp_path / "fp.json")]) == 0
    data = json.loads(path.read_text())
    assert isinstance(data, list) and data[0] == 1.0
    assert np.array_equal(data, renorm1d.solve_fixed_point(degree=8).phi0.coeffs)
