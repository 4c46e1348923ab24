"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Tolerances and runtime budgets are fixed
here; every computation that a budget covers happens inside the timer."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from renormlab import (attractor, cascade, persistence, renorm1d, renorm_nd,
                       series)

LAMBDA_UNIVERSAL = 0.3995


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_fixed_point(tmp_path):
    """fixpoint at degree 40: residual < 1e-8, lambda = 0.3995 +- 5e-4, < 30 s."""
    out = tmp_path / "fp.json"
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "renormlab", "fixpoint", "--degree", "40",
         "--tol", "1e-8", "--out", str(out), "--no-timestamp"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    ok = r.returncode == 0
    lam = residual = float("nan")
    if ok:
        rep = json.loads(out.read_text())
        lam, residual = rep["lambda"], rep["residual"]
        ok = residual < 1e-8 and abs(lam - LAMBDA_UNIVERSAL) <= 5e-4 and elapsed < 30
    report(1, ok, f"lambda={lam:.7f} residual={residual:.2e} time={elapsed:.1f}s")


def test_criterion_2_universality():
    """operator eigenvalue, logistic delta (N=10), Henon delta (N=7) agree
    pairwise within 2%, < 2 min total."""
    t0 = time.perf_counter()
    fp = renorm1d.solve_fixed_point(degree=40)
    lead = renorm1d.linearize(fp.phi0).leading_eigenvalue
    d_log = cascade.run_cascade(cascade.logistic_family(), 10).delta_estimates[-1]
    d_hen = cascade.run_cascade(cascade.henon_family(), 7).delta_estimates[-1]
    elapsed = time.perf_counter() - t0
    vals = (lead, d_log, d_hen)
    ok = all(abs(a - b) <= 0.02 * min(a, b)
             for i, a in enumerate(vals) for b in vals[i + 1:])
    ok = ok and elapsed < 120
    report(2, ok, f"eig={lead:.6f} logistic={d_log:.6f} henon={d_hen:.6f} "
                  f"time={elapsed:.1f}s")


def test_criterion_3_exact_anchors():
    """logistic t1 = 3.0 to 1e-13 and t2 = 3.449490 +- 1e-5, < 10 s."""
    fam = cascade.logistic_family()
    t0 = time.perf_counter()
    t1 = cascade.find_doubling_bifurcation(fam, 0, (2.8, 3.2))[0]
    t2 = cascade.find_doubling_bifurcation(fam, 1, (3.2, 3.5))[0]
    elapsed = time.perf_counter() - t0
    ok = abs(t1 - 3.0) < 1e-13 and abs(t2 - 3.449490) <= 1e-5 and elapsed < 10
    report(3, ok, f"t1={t1!r} t2={t2:.7f} (1+sqrt6={1 + math.sqrt(6):.7f}) "
                  f"time={elapsed:.1f}s")


def _tree_structure_ok(tree, generations):
    for lo, hi in zip(tree.lo, tree.hi):
        apart = ((hi[:, None] < lo) | (hi < lo[:, None])).any(axis=2)
        if not (apart | np.eye(len(lo), dtype=bool)).all():
            return False
    for m in range(generations):
        # child p of generation m + 1 lies in parent p mod 2^m
        lo, hi = np.tile(tree.lo[m], (2, 1)), np.tile(tree.hi[m], (2, 1))
        if not (np.all(tree.lo[m + 1] >= lo - 1e-12) and np.all(tree.hi[m + 1] <= hi + 1e-12)):
            return False
    return True


def test_criterion_4_attractor_geometry():
    """logistic: 8 generations disjoint/nested/permuted, final ratio within
    15% of 0.3995; Henon: 6 generations within 20%; < 1 min."""
    t0 = time.perf_counter()
    logistic = cascade.logistic_family()
    t_log = cascade.run_cascade(logistic, 12).t_inf
    tree_l = attractor.build_atoms(logistic, t_log, 8, 2 ** 17)
    d_l = attractor.atom_diameters(tree_l)
    ratio_l = d_l[8] / d_l[7]
    henon = cascade.henon_family()
    t_hen = cascade.run_cascade(henon, 9).t_inf
    tree_h = attractor.build_atoms(henon, t_hen, 6, 2 ** 15)
    d_h = attractor.atom_diameters(tree_h)
    ratio_h = d_h[6] / d_h[5]
    elapsed = time.perf_counter() - t0
    ok = (_tree_structure_ok(tree_l, 8)
          and _tree_structure_ok(tree_h, 6)
          and abs(ratio_l - LAMBDA_UNIVERSAL) <= 0.15 * LAMBDA_UNIVERSAL
          and abs(ratio_h - LAMBDA_UNIVERSAL) <= 0.20 * LAMBDA_UNIVERSAL
          and elapsed < 60)
    report(4, ok, f"logistic ratio={ratio_l:.4f} henon ratio={ratio_h:.4f} "
                  f"time={elapsed:.1f}s")


def test_criterion_5_persistence_identities():
    """b(psi0) = 0 +- 1e-5; shift law to 1e-5 for t0 = +-0.05; directional
    derivative along v0 = -1 +- 1e-12; < 2 min."""
    t0 = time.perf_counter()
    logistic = cascade.logistic_family()
    chart = persistence.build_chart(logistic, cascade.run_cascade(logistic, 8))
    # chart_gradient's b is 0 by construction; b(psi0) is an independent
    # cascade of the family through psi0
    b0 = persistence.chart_b(chart, chart.family.map_at(0.0))
    _, (grad,) = persistence.chart_gradient(chart, [chart.v0])
    shift_dev = persistence.verify_shift_property(logistic, [-0.05, 0.05], chart.cascade)
    elapsed = time.perf_counter() - t0
    ok = (abs(b0) <= 1e-5 and shift_dev < 1e-5
          and abs(grad + 1.0) <= 1e-12 and elapsed < 120)
    report(5, ok, f"b(psi0)={b0:.2e} shift_dev={shift_dev:.2e} "
                  f"db/dv0={grad:.6f} time={elapsed:.1f}s")


def test_criterion_6_nd_renormalizability():
    """standard 2-D map: margins > 1e-3 on a constructed disk, recursively
    for 4 successive renormalizations; < 1 min."""
    t0 = time.perf_counter()
    fp = renorm1d.solve_fixed_point(degree=16)
    psi = renorm_nd.standard_fct_map(2, fp.phi0)
    margins = []
    cur = psi
    start = np.array([0.3, 0.5])
    ok = True
    for m in range(1, 5):
        found = renorm_nd.search_renorm_disk(cur, start=start)
        if not (found.found and found.check.disjoint_margin > 1e-3
                and found.check.inside_margin > 1e-3):
            ok = False
            break
        margins.append((round(found.check.disjoint_margin, 4),
                        round(found.check.inside_margin, 4)))
        cur = renorm_nd.renormalize_nd(cur, found.disk)
        start = np.array([0.1, 0.1])
    elapsed = time.perf_counter() - t0
    ok = ok and len(margins) == 4 and elapsed < 60
    report(6, ok, f"(disjoint, inside) margins per level={margins} "
                  f"time={elapsed:.1f}s")


def test_criterion_7_route_to_chaos():
    """Lyapunov exponent < 0 at 5 inter-doubling parameters, > 0 at >= 60%
    of 50 samples in (t_inf, t_inf + 0.2 * window); < 1 min."""
    t0 = time.perf_counter()
    logistic = cascade.logistic_family()
    res = cascade.run_cascade(logistic, 6)
    ts = res.params
    sink_ok = all(
        cascade.lyapunov_exponent(logistic, 0.5 * (a + b), n_iter=8000) < 0
        for a, b in zip(ts[:5], ts[1:6]))
    lo, hi = logistic.param_range
    window = 0.2 * (hi - lo)
    samples = np.linspace(res.t_inf + window / 50, res.t_inf + window, 50)
    positive = sum(cascade.lyapunov_exponent(logistic, t, n_iter=8000) > 0
                   for t in samples)
    elapsed = time.perf_counter() - t0
    ok = sink_ok and positive >= 30 and elapsed < 60
    report(7, ok, f"sinks_negative={sink_ok} chaotic={positive}/50 "
                  f"time={elapsed:.1f}s")


def test_criterion_8_invariant_suite():
    """every module's invariants pass as automated property tests."""
    tests_dir = Path(__file__).parent
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "pytest", str(tests_dir), "-q",
         "--ignore", str(tests_dir / "test_acceptance.py")],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    tail = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
    report(8, r.returncode == 0, f"property suite: {tail} time={elapsed:.1f}s")
