from types import SimpleNamespace

import numpy as np
import pytest

from renormlab import attractor, cascade
from renormlab.errors import InsufficientDataError, ResolutionError

LAMBDA_UNIVERSAL = 0.3995


@pytest.fixture(scope="module")
def logistic_tree(logistic, logistic_cascade12):
    return attractor.build_atoms(logistic, logistic_cascade12.t_inf, 8, 2 ** 17)


@pytest.fixture(scope="module")
def henon_tree(henon, henon_cascade9):
    return attractor.build_atoms(henon, henon_cascade9.t_inf, 6, 2 ** 15)


def counts(tree):
    return [(len(lo), len(hi)) for lo, hi in zip(tree.lo, tree.hi)]


def nested(tree, m):
    # child p of generation m + 1 lies in parent p mod 2^m
    lo, hi = np.tile(tree.lo[m], (2, 1)), np.tile(tree.hi[m], (2, 1))
    return (np.all(tree.lo[m + 1] >= lo - 1e-12)
            and np.all(tree.hi[m + 1] <= hi + 1e-12))


def test_two_atoms_at_first_generation(logistic, logistic_cascade12):
    tree = attractor.build_atoms(logistic, logistic_cascade12.t_inf, 1, 2 ** 8)
    assert counts(tree)[1] == (2, 2)


def test_atom_counts(logistic_tree):
    assert counts(logistic_tree) == [(2 ** m, 2 ** m) for m in range(9)]


def test_atoms_disjoint_by_construction(logistic_tree):
    # build_atoms compares siblings only; re-verify every pair of boxes here
    for lo, hi in zip(logistic_tree.lo, logistic_tree.hi):
        apart = ((hi[:, None] < lo) | (hi < lo[:, None])).any(axis=2)
        assert (apart | np.eye(len(lo), dtype=bool)).all()


def test_atoms_nested(logistic_tree):
    for m in range(8):
        assert nested(logistic_tree, m)


def test_atoms_cyclically_permuted(logistic, logistic_cascade12, logistic_tree):
    # psi maps points of atom k into atom k+1 mod 2^m, checked on samples
    m = logistic.map_at(logistic_cascade12.t_inf)
    for gen_idx in (3, 6):
        lo, hi = logistic_tree.lo[gen_idx], logistic_tree.hi[gen_idx]
        k_count = len(lo)
        pts = logistic_tree.points
        for k in (0, 1, k_count // 2):
            cluster = pts[k::k_count][:50, 0]
            target = (k + 1) % k_count
            for x in cluster:
                y = m.step(x)
                assert lo[target, 0] - 1e-9 <= y <= hi[target, 0] + 1e-9


def test_diameters_strictly_decreasing(logistic_tree):
    d = attractor.atom_diameters(logistic_tree)
    assert all(b < a for a, b in zip(d, d[1:]))
    assert d[0] == pytest.approx(np.linalg.norm(logistic_tree.hi[0][0] - logistic_tree.lo[0][0]))


def test_ratio_structure(logistic_tree):
    d = attractor.atom_diameters(logistic_tree)
    ratios, lam_est = attractor.scaling_ratios(d)
    assert lam_est == ratios[-1]
    # stabilization: successive ratio changes shrink from generation 4 on
    diffs = [abs(b - a) for a, b in zip(ratios[3:], ratios[4:])]
    assert all(y <= x * 1.1 for x, y in zip(diffs, diffs[1:]))


def test_logistic_ratio_near_universal(logistic_tree):
    d = attractor.atom_diameters(logistic_tree)
    _, lam_est = attractor.scaling_ratios(d)
    assert abs(lam_est - LAMBDA_UNIVERSAL) < 0.15 * LAMBDA_UNIVERSAL
    # the deeper pair of generations is itself within 15%
    assert abs(d[8] / d[7] - LAMBDA_UNIVERSAL) < 0.15 * LAMBDA_UNIVERSAL


def test_henon_ratio_near_universal(henon_tree):
    d = attractor.atom_diameters(henon_tree)
    assert all(b < a for a, b in zip(d, d[1:]))
    _, lam_est = attractor.scaling_ratios(d)
    assert abs(lam_est - LAMBDA_UNIVERSAL) < 0.20 * LAMBDA_UNIVERSAL


def test_henon_atoms_disjoint_and_nested(henon_tree):
    assert counts(henon_tree) == [(2 ** m, 2 ** m) for m in range(7)]
    for m in range(6):
        assert nested(henon_tree, m)


def test_scaling_ratios_geometric_input():
    ratios, lam_est = attractor.scaling_ratios([0.4 ** m for m in range(6)])
    assert np.allclose(ratios, 0.4)
    assert lam_est == pytest.approx(0.4)


def test_scaling_ratios_insufficient():
    with pytest.raises(InsufficientDataError):
        attractor.scaling_ratios([1.0, 0.4])


def test_build_atoms_validates_points(logistic, logistic_cascade12):
    with pytest.raises(ValueError):
        attractor.build_atoms(logistic, logistic_cascade12.t_inf, 8, 100)


@pytest.mark.parametrize("family, gens", [("logistic", 6), ("henon", 5)])
def test_atoms_match_per_phase_boxes(request, family, gens):
    # n_points need not be a multiple of 2^m: the leftover rows fall to the
    # first phases
    fam = request.getfixturevalue(family)
    t = request.getfixturevalue({"logistic": "logistic_cascade12",
                                 "henon": "henon_cascade9"}[family]).t_inf
    for n_points in (2 ** (gens + 6) + 3, 2 ** (gens + 9) - 1):
        tree = attractor.build_atoms(fam, t, gens, n_points)
        pts = tree.points
        assert pts.shape == (n_points, fam.dim)
        assert counts(tree) == [(2 ** m, 2 ** m) for m in range(gens + 1)]
        for m, (lo, hi) in enumerate(zip(tree.lo, tree.hi)):
            k = 2 ** m
            for p in range(k):
                cluster = pts[p::k]
                assert lo[p].tobytes() == cluster.min(axis=0).tobytes()
                assert hi[p].tobytes() == cluster.max(axis=0).tobytes()


def test_atoms_share_no_writable_table(henon, henon_cascade9):
    tree = attractor.build_atoms(henon, henon_cascade9.t_inf, 3, 2 ** 10)
    for table in tree.lo + tree.hi:
        with pytest.raises(ValueError):
            table[0, 0] = 99.0


@pytest.mark.parametrize("family, t, first", [
    ("logistic", 3.5, (3, 0, 4)),      # a period-4 sink: generation 3 closes in
    ("logistic", 3.55, None),          # a period-8 sink resolves all 3 generations
    ("logistic", 3.6, (2, 0, 2)),      # two-band chaos: generation 2 does not separate
    ("henon", 0.95, (3, 0, 4))])       # a period-4 sink of the Henon map
def test_overlap_names_first_pair(request, family, t, first):
    # build_atoms passes, or names the pair a plain double loop over every
    # pair of boxes finds first, coarsest generation first
    fam = request.getfixturevalue(family)
    gens, n = 3, 2 ** 10
    pts = cascade.orbit(fam.map_at(t), fam.start_at(t), 4096 + n, keep=n)[1]
    found = None
    for gen in range(gens + 1):
        k = 2 ** gen
        boxes = [(pts[p::k].min(axis=0), pts[p::k].max(axis=0)) for p in range(k)]
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)
                 if not (np.any(boxes[i][1] < boxes[j][0]) or np.any(boxes[j][1] < boxes[i][0]))]
        if pairs:
            found = (gen, *pairs[0])
            break
    assert found == first
    if first is None:
        attractor.build_atoms(fam, t, gens, n)
    else:
        with pytest.raises(ResolutionError, match=r"generation %d: atoms %d and %d overlap" % first):
            attractor.build_atoms(fam, t, gens, n)


def test_overlap_names_pair_after_the_first_atom():
    # a linear 5-D map whose second coordinate y has the period-4 pattern
    # values[p % 4] at sample p (image p + 1; build_atoms' transient is
    # whole cycles of it), so phases 1 and 3 coincide in y and every other
    # pair is apart.  The other coordinates are a step
    # counter x and the next three pattern values, each plus x: they keep
    # all boxes overlapping along those axes.  (x, y, v2, v3, v4) ->
    # (x + 1, v2 - x, v3 + 1, v4 + 1, y + x + 1)
    exps = np.vstack([np.zeros(5, dtype=int), np.eye(5, dtype=int)])
    coeffs = np.array([[1.0, 0.0, 1.0, 1.0, 1.0],       # constant
                       [1.0, -1.0, 0.0, 0.0, 1.0],      # x
                       [0.0, 0.0, 0.0, 0.0, 1.0],       # y
                       [0.0, 1.0, 0.0, 0.0, 0.0],       # v2
                       [0.0, 0.0, 1.0, 0.0, 0.0],       # v3
                       [0.0, 0.0, 0.0, 1.0, 0.0]])      # v4
    values = (0.0, 1.0, 0.1, 1.0)
    fam = SimpleNamespace(map_at=lambda t: cascade.MapND(exps, coeffs),
                          start_at=lambda t: (0.0,) + values[3:] + values[:3], dim=5)
    pts = cascade.orbit(fam.map_at(0.0), fam.start_at(0.0), 256, keep=256)[1]
    assert np.allclose(pts[:, 1], np.resize(values, 256), rtol=0, atol=1e-12)
    with pytest.raises(ResolutionError, match="generation 2: atoms 1 and 3 overlap"):
        attractor.build_atoms(fam, 0.0, 2, 256)


@pytest.mark.parametrize("t, gens, first", [(3.5, 3, (3, 0, 4)), (3.5, 4, (3, 0, 4)),
                                             (3.55, 4, (4, 0, 8))])
def test_overlap_at_the_finest_generations_is_checked_coarsest_first(logistic, t, gens, first):
    # a period-2^(g-1) sink: generation g - 1 holds its distinct points, and
    # at g and finer, phases p and p + 2^(g-1) close in on the same point.
    # The boxes are nested from the finest generation, and the first
    # overlapping generation is still the one named
    n = 2 ** (gens + 6)
    pts = cascade.orbit(logistic.map_at(t), logistic.start_at(t), 4096 + n, keep=n)[1]
    k = 2 ** gens
    boxes = [(pts[p::k].min(), pts[p::k].max()) for p in (0, k // 2)]
    assert boxes[0][0] <= boxes[1][1] and boxes[1][0] <= boxes[0][1]
    attractor.build_atoms(logistic, t, first[0] - 1, n)
    with pytest.raises(ResolutionError, match=r"generation %d: atoms %d and %d overlap" % first):
        attractor.build_atoms(logistic, t, gens, n)


def test_periodic_saddles_logistic(logistic, logistic_cascade12):
    reports = attractor.verify_periodic_saddles(
        logistic, logistic_cascade12, logistic_cascade12.t_inf, [0, 1, 2])
    assert [r.level for r in reports] == [0, 1, 2]
    for r in reports:
        assert r.found
        assert r.classification == "repeller"
        assert abs(r.multipliers[0]) > 1


def test_periodic_saddles_henon(henon, henon_cascade9):
    reports = attractor.verify_periodic_saddles(
        henon, henon_cascade9, henon_cascade9.t_inf, [0, 1])
    for r in reports:
        assert r.found
        assert r.classification == "saddle"
        mags = sorted(abs(m) for m in r.multipliers)
        assert mags[0] < 1 < mags[1]


def test_periodic_saddles_henon_negative_b():
    # the orientation-reversing Henon map: its t_1 lies past param_range
    fam = cascade.henon_family(-0.3)
    res = cascade.run_cascade(fam, 9)
    reports = attractor.verify_periodic_saddles(fam, res, res.t_inf, [0, 1, 2])
    assert [(r.found, r.classification) for r in reports] == 3 * [(True, "saddle")]


def test_periodic_saddles_continue_the_cascade_orbits(logistic, monkeypatch, doubling_solves):
    # only the cascade's levels 0 and 1 settle an orbit by iteration, and
    # the check solves no cascade and settles no orbit of its own
    settles, settle = [], cascade._orbit_by_iteration

    def counted_settle(fam, t, period):
        settles.append(period)
        return settle(fam, t, period)
    monkeypatch.setattr(cascade, "_orbit_by_iteration", counted_settle)
    res = cascade.run_cascade(logistic, 2)
    del doubling_solves[:]
    reports = attractor.verify_periodic_saddles(logistic, res, 3.5, [0, 1, 2])
    assert settles == [1, 2] and doubling_solves == []
    assert [r.classification for r in reports] == ["repeller", "repeller", "sink"]


def test_periodic_saddles_need_the_levels_in_the_cascade(logistic):
    res = cascade.run_cascade(logistic, 2)
    with pytest.raises(InsufficientDataError, match="level 3 is deeper than the cascade's 2"):
        attractor.verify_periodic_saddles(logistic, res, 3.5, [0, 3])


def test_sink_classified_at_stable_parameter(logistic):
    orbit = cascade.periodic_orbit(logistic, 3.2, 2, 0.5)
    mults = cascade.orbit_multiplier(logistic, 3.2, orbit)
    assert abs(mults[0]) < 1
    reports = attractor.verify_periodic_saddles(logistic, cascade.run_cascade(logistic, 1), 3.2,
                                                [1])
    assert reports[0].classification == "sink"


def test_periodic_saddles_let_bugs_propagate(logistic, monkeypatch):
    # only renormlab errors mean "not found"; anything else is a bug
    def broken(*args, **kwargs):
        raise TypeError("bug")
    monkeypatch.setattr(attractor, "periodic_orbit", broken)
    with pytest.raises(TypeError):
        attractor.verify_periodic_saddles(logistic, cascade.run_cascade(logistic, 0), 3.2, [0])
