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


def test_two_atoms_at_first_generation(logistic, logistic_cascade12):
    tree = attractor.build_atoms(logistic, logistic_cascade12.t_inf, 1, 2 ** 8)
    assert len(tree.generations[1]) == 2


def test_atom_counts(logistic_tree):
    assert [len(g) for g in logistic_tree.generations] == [2 ** m for m in range(9)]


def test_atoms_disjoint_by_construction(logistic_tree):
    # build_atoms raises on overlap; re-verify the bounding boxes here
    for gen in logistic_tree.generations:
        for i, a in enumerate(gen):
            for b in gen[i + 1:]:
                assert np.any(a.hi < b.lo) or np.any(b.hi < a.lo)


def test_atoms_nested(logistic_tree):
    for m in range(8):
        parents = logistic_tree.generations[m]
        for child in logistic_tree.generations[m + 1]:
            assert parents[child.index % 2 ** m].contains(child)


def test_atoms_cyclically_permuted(logistic, logistic_cascade12, logistic_tree):
    # psi maps points of atom k into atom k+1 mod 2^m, checked on samples
    m = logistic.map_at(logistic_cascade12.t_inf)
    for gen_idx in (3, 6):
        atoms = logistic_tree.generations[gen_idx]
        k_count = len(atoms)
        pts = logistic_tree.points
        for k in (0, 1, k_count // 2):
            cluster = pts[k::k_count][:50, 0]
            target = atoms[(k + 1) % k_count]
            for x in cluster:
                y = m.step(x)
                assert target.lo[0] - 1e-9 <= y <= target.hi[0] + 1e-9


def test_diameters_strictly_decreasing(logistic_tree):
    d = attractor.atom_diameters(logistic_tree)
    assert all(b < a for a, b in zip(d, d[1:]))
    assert d[0] == pytest.approx(logistic_tree.generations[0][0].diameter)


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
    assert [len(g) for g in henon_tree.generations] == [2 ** m for m in range(7)]
    for m in range(6):
        parents = henon_tree.generations[m]
        for child in henon_tree.generations[m + 1]:
            assert parents[child.index % 2 ** m].contains(child)


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
    # first phases, which then count one point more
    fam = request.getfixturevalue(family)
    t = request.getfixturevalue({"logistic": "logistic_cascade12",
                                 "henon": "henon_cascade9"}[family]).t_inf
    for n_points in (2 ** (gens + 6) + 3, 2 ** (gens + 9) - 1):
        tree = attractor.build_atoms(fam, t, gens, n_points)
        pts = tree.points
        assert pts.shape == (n_points, fam.dim)
        for m, atoms in enumerate(tree.generations):
            k = 2 ** m
            assert [a.index for a in atoms] == list(range(k))
            for p, atom in enumerate(atoms):
                cluster = pts[p::k]
                assert atom.generation == m and atom.count == len(cluster)
                assert type(atom.count) is int
                assert atom.lo.tobytes() == cluster.min(axis=0).tobytes()
                assert atom.hi.tobytes() == cluster.max(axis=0).tobytes()


def test_atoms_share_no_writable_table(henon, henon_cascade9):
    tree = attractor.build_atoms(henon, henon_cascade9.t_inf, 3, 2 ** 10)
    atoms = tree.generations[3]
    before = [(a.lo.copy(), a.hi.copy()) for a in atoms]
    for field in ("lo", "hi"):
        try:
            getattr(atoms[2], field)[0] = 99.0
        except ValueError:
            continue
        assert all(np.array_equal(a.lo, lo) and np.array_equal(a.hi, hi)
                   for a, (lo, hi) in zip(atoms, before) if a is not atoms[2])


def test_overlap_names_first_pair(logistic):
    # two-band chaos: generation 1 separates, generation 2 does not; the
    # reported pair is the first one a plain double loop over boxes finds
    t, gens, n = 3.6, 3, 2 ** 10
    pts = cascade.orbit(logistic.map_at(t), logistic.start_at(t), 4096 + n, keep=n)[1]
    first = None
    for gen in range(gens + 1):
        k = 2 ** gen
        boxes = [(pts[p::k].min(axis=0), pts[p::k].max(axis=0)) for p in range(k)]
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)
                 if not (np.any(boxes[i][1] < boxes[j][0]) or np.any(boxes[j][1] < boxes[i][0]))]
        if pairs:
            first = (gen, *pairs[0])
            break
    assert first is not None and first[0] == 2 and first[1:] != (0, 1)
    with pytest.raises(ResolutionError, match=r"generation %d: atoms %d and %d overlap" % first):
        attractor.build_atoms(logistic, t, gens, n)


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


@pytest.mark.parametrize("chunk", [1, 8])
def test_overlap_check_in_chunks_names_the_first_pair(logistic, monkeypatch, chunk):
    # generation 2's four boxes compared max(1, chunk // 4) rows at a time:
    # 1 or 2 rows per batch name the same pair as the whole triangle
    monkeypatch.setattr(attractor, "PAIR_CHUNK", chunk)
    test_overlap_names_first_pair(logistic)
    test_overlap_names_pair_after_the_first_atom()


def test_periodic_saddles_logistic(logistic, logistic_cascade12):
    reports = attractor.verify_periodic_saddles(
        logistic, logistic_cascade12.t_inf, [0, 1, 2])
    assert [r.level for r in reports] == [0, 1, 2]
    for r in reports:
        assert r.found
        assert r.classification == "repeller"
        assert abs(r.multipliers[0]) > 1


def test_periodic_saddles_henon(henon, henon_cascade9):
    reports = attractor.verify_periodic_saddles(
        henon, henon_cascade9.t_inf, [0, 1])
    for r in reports:
        assert r.found
        assert r.classification == "saddle"
        mags = sorted(abs(m) for m in r.multipliers)
        assert mags[0] < 1 < mags[1]


def test_periodic_saddles_henon_negative_b():
    # the orientation-reversing Henon map: its t_1 lies past param_range
    fam = cascade.henon_family(-0.3)
    reports = attractor.verify_periodic_saddles(fam, cascade.run_cascade(fam, 9).t_inf, [0, 1, 2])
    assert [(r.found, r.classification) for r in reports] == 3 * [(True, "saddle")]


def test_periodic_saddles_continue_the_cascade_orbits(logistic, monkeypatch):
    # one cascade to the deepest level asked for; only its levels 0 and 1
    # settle an orbit by iteration, and the check settles none of its own
    depths, settles = [], []
    run, settle = attractor.run_cascade, cascade._orbit_by_iteration

    def counted_run(fam, n_max):
        depths.append(n_max)
        return run(fam, n_max)

    def counted_settle(fam, t, period):
        settles.append(period)
        return settle(fam, t, period)
    monkeypatch.setattr(attractor, "run_cascade", counted_run)
    monkeypatch.setattr(cascade, "_orbit_by_iteration", counted_settle)
    reports = attractor.verify_periodic_saddles(logistic, 3.5, [0, 1, 2])
    assert depths == [2] and settles == [1, 2]
    assert [r.classification for r in reports] == ["repeller", "repeller", "sink"]


def test_sink_classified_at_stable_parameter(logistic):
    orbit = cascade.periodic_orbit(logistic, 3.2, 2, 0.5)
    mults = cascade.orbit_multiplier(logistic, 3.2, orbit)
    assert abs(mults[0]) < 1
    reports = attractor.verify_periodic_saddles(logistic, 3.2, [1])
    assert reports[0].classification == "sink"


def test_periodic_saddles_let_bugs_propagate(logistic, monkeypatch):
    # only renormlab errors mean "not found"; anything else is a bug
    def broken(*args, **kwargs):
        raise TypeError("bug")
    monkeypatch.setattr(attractor, "periodic_orbit", broken)
    with pytest.raises(TypeError):
        attractor.verify_periodic_saddles(logistic, 3.2, [0])
