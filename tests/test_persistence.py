import dataclasses

import numpy as np
import pytest

from renormlab import cascade, persistence
from renormlab.errors import BracketError, InsufficientDataError


@pytest.fixture(scope="module")
def chart(logistic):
    return persistence.build_chart(logistic, depth=8)


def test_a_vanishes_at_recentered_base(logistic):
    t_inf = persistence.persistence_a(logistic, 8)
    centered = cascade.recenter(logistic, t_inf)
    assert abs(persistence.persistence_a(centered, 8)) < 1e-5


def test_a_shift_law_single(logistic):
    t_inf = persistence.persistence_a(logistic, 8)
    shifted = cascade.recenter(logistic, 0.05)
    assert persistence.persistence_a(shifted, 8) == pytest.approx(t_inf - 0.05, abs=1e-5)


def test_a_without_doublings_raises(logistic):
    low = dataclasses.replace(
        logistic, param_range=(1.0, 2.0), bracket0=(1.2, 1.8), gap_hint=0.2,
        start_at=lambda t: 0.5)
    with pytest.raises(BracketError):
        persistence.persistence_a(low, 6)


def test_shift_family_zero_is_identity(logistic):
    shifted = cascade.recenter(logistic, 0.0)
    for t in np.linspace(2.9, 3.6, 10):
        assert shifted.map_at(t).step(0.37) == logistic.map_at(t).step(0.37)


def test_shift_twice_is_identity(logistic):
    twice = cascade.recenter(cascade.recenter(logistic, 0.05), -0.05)
    for t in np.linspace(2.9, 3.6, 10):
        assert twice.map_at(t).step(0.41) == pytest.approx(logistic.map_at(t).step(0.41), abs=1e-15)


def test_shift_is_reparametrization(logistic):
    shifted = cascade.recenter(logistic, 0.05)
    assert shifted.map_at(0.0).step(0.3) == logistic.map_at(0.05).step(0.3)


def test_shift_property_logistic(logistic):
    dev = persistence.verify_shift_property(logistic, [-0.05, 0.05],
                                           cascade.run_cascade(logistic, 8))
    assert dev < 1e-5


def test_shift_property_henon(henon):
    dev = persistence.verify_shift_property(henon, [0.02], cascade.run_cascade(henon, 6))
    assert dev < 1e-4


def test_shift_law_seeds_do_not_decide_the_answer():
    # the b = 0.3 cascade seeds the shifted cascades of the b = 0.3001
    # family; their own Newton solves still move every level to that family,
    # so the deviation is the two families' difference in t_inf
    base = cascade.run_cascade(cascade.henon_family(0.3), 6)
    other = cascade.henon_family(0.3001)
    diff = abs(cascade.run_cascade(other, 6).t_inf - base.t_inf)
    assert diff > 1e-6
    for t0 in (-0.05, 0.05):
        dev = persistence.verify_shift_property(other, [t0], base)
        assert dev == pytest.approx(diff, abs=1e-12)


def test_chart_keeps_its_cascade(logistic, chart):
    res = cascade.run_cascade(logistic, 8)
    assert chart.cascade == res and chart.depth == 8 and chart.t_inf == res.t_inf
    assert [x.shape for x in chart.cascade.orbits] == [(2 ** n, 1) for n in range(9)]


def test_b_zero_at_base(chart):
    # an independent cascade of the family through psi0 puts psi0 on M
    assert abs(persistence.chart_b(chart, chart.family.map_at(0.0))) <= 1e-14


def test_b_linear_along_v0(chart):
    for mu in (0.01, -0.02):
        b = persistence.chart_b(chart, chart.family.map_at(0.0) + mu * chart.v0)
        assert b == pytest.approx(-mu, abs=1e-5)


def test_manifold_chart_b_function(chart):
    # b(chi) is a of the linear family {chi + t v0} in the chart's own
    # cascade configuration
    chi = chart.family.map_at(0.0) + 0.01 * chart.v0
    fam = cascade.linear_family(chi, chart.v0, chart.family.bracket0,
                                chart.family.gap_hint, chart.family.start_at)
    val = persistence.chart_b(chart, chi)
    assert val == persistence.persistence_a(fam, chart.depth)
    assert val == pytest.approx(-0.01, abs=1e-5)


def test_chart_cascade_makes_no_map_sums(chart, monkeypatch):
    # the family through chi merges its tables once, when it is built
    chi = chart.family.map_at(0.0) + 0.01 * chart.v0
    sums = []
    add = cascade.MapND.__add__
    monkeypatch.setattr(cascade.MapND, "__add__", lambda a, b: sums.append(1) or add(a, b))
    assert persistence.chart_b(chart, chi) == pytest.approx(-0.01, abs=1e-5)
    assert sums == []


def test_gradient_along_v0_is_minus_one(chart):
    b, grad = persistence.chart_gradient(chart, [chart.v0])
    assert grad[0] == pytest.approx(-1.0, abs=1e-12)
    assert b == 0.0 and abs(persistence.chart_b(chart, chart.family.map_at(0.0))) <= 1e-14


def test_gradient_zero_direction(chart):
    grad = persistence.chart_gradient(chart, [0.0 * chart.v0])[1]
    assert grad[0] == 0.0


def test_gradient_homogeneity(chart):
    grad = persistence.chart_gradient(chart, [2.0 * chart.v0])[1]
    assert grad[0] == pytest.approx(-2.0, abs=1e-12)


def monomial(exponent, dim):
    """The direction x^exponent e_x."""
    return cascade.MapND([exponent], [[1.0] + [0.0] * (dim - 1)])


TRANSVERSALS = pytest.mark.parametrize("name, depth, exponents", [
    ("logistic", 8, [(3,)]),                    # x^3 e_x
    ("henon", 6, [(3, 0)]),                     # x^3 e_x
    ("fold3d", 8, [(0, 0, 1), (1, 1, 0)]),      # z e_x and xy e_x
])


@TRANSVERSALS
def test_gradient_matches_richardson_central_differences(request, name, depth, exponents):
    fam = request.getfixturevalue(name)
    chart = persistence.build_chart(fam, depth)
    dirs = [monomial(e, fam.dim) for e in exponents]
    grads = persistence.chart_gradient(chart, dirs)[1]
    psi0 = chart.family.map_at(0.0)

    def central(w, h):
        return (persistence.chart_b(chart, psi0 + h * w)
                - persistence.chart_b(chart, psi0 + (-h) * w)) / (2 * h)

    for w, grad in zip(dirs, grads):
        richardson = (4 * central(w, 5e-4) - central(w, 1e-3)) / 3
        assert abs(grad - richardson) < 1e-5


@TRANSVERSALS
def test_chart_gradient_solves_nothing(request, doubling_solves, name, depth, exponents):
    # the gradient is read off the chart's cascade; a re-solve of the family
    # through psi0 gives the same tangents to rounding
    fam = request.getfixturevalue(name)
    chart = persistence.build_chart(fam, depth)
    dirs = [monomial(e, fam.dim) for e in exponents]
    del doubling_solves[:]
    b, grads = persistence.chart_gradient(chart, dirs)
    assert b == 0.0 and doubling_solves == []
    through = chart.family_through(chart.family.map_at(0.0))
    again = cascade.cascade_tangents(through, cascade.run_cascade(through, depth), dirs)
    assert np.max(np.abs(np.subtract(grads, again))) <= 1e-11


def test_membership_consistency(chart):
    # b(chi) ~ 0 iff the family through chi accumulates at t ~ 0
    chi = chart.family.map_at(0.0)
    assert abs(persistence.chart_b(chart, chi)) < 1e-5
    fam = chart.family_through(chi)
    res = cascade.run_cascade(fam, chart.depth)
    assert abs(res.t_inf) < 1e-4


def test_chart_depth_validation(logistic):
    with pytest.raises(InsufficientDataError):
        persistence.build_chart(logistic, depth=4)
    with pytest.raises(InsufficientDataError):
        persistence.persistence_a(logistic, 2)
    with pytest.raises(InsufficientDataError):
        persistence.verify_shift_property(logistic, [0.01], cascade.run_cascade(logistic, 3))


def test_gradient_transverse_free_direction(chart):
    # a direction with no component along the cascade parameter: the pure
    # quadratic x^2 direction reparametrizes the logistic family nonlinearly,
    # so probe with the family's own direction minus itself
    w = chart.v0 + (-1.0) * chart.v0
    grad = persistence.chart_gradient(chart, [w])[1]
    assert grad[0] == 0.0


def test_chart_works_in_2d(henon):
    chart2 = persistence.build_chart(henon, depth=6)
    assert abs(persistence.chart_b(chart2, chart2.family.map_at(0.0))) < 1e-4
    grad = persistence.chart_gradient(chart2, [chart2.v0])[1][0]
    assert grad == pytest.approx(-1.0, abs=1e-12)
