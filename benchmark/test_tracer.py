"""Self-checks of the benchmark's own code (not part of tests/).

    PYTHONPATH=src python3 -m pytest -q benchmark/test_tracer.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import renormlab.cli  # noqa: E402,F401
from renormlab import attractor, cascade, cli, persistence  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracer as tracer_mod  # noqa: E402


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    originals = (cascade.run_cascade, attractor.run_cascade,
                 persistence.run_cascade, cli.main, renormlab.cli.renorm_nd.MapND.__call__)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert cascade.run_cascade is not originals[0]
        assert attractor.run_cascade is cascade.run_cascade
        assert persistence.run_cascade is cascade.run_cascade
    finally:
        unrestored = tr.uninstall()
    assert unrestored == []
    assert (cascade.run_cascade, attractor.run_cascade, persistence.run_cascade,
            cli.main, renormlab.cli.renorm_nd.MapND.__call__) == originals


def test_traced_result_is_identical_and_spans_add_up():
    fam = cascade.logistic_family()
    plain = cascade.run_cascade(fam, 5)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        traced = tr.operation("cascade", lambda: attractor.run_cascade(fam, 5))
    finally:
        tr.uninstall()
    assert repr(traced) == repr(plain)
    m = tr.layer_metrics({})
    assert m["cascade.run_cascade.calls"] == 1
    assert m["cascade.periodic_orbit.calls"] > 0
    assert m["cascade.periodic_orbit.max_period"] == 32
    top = tr.spans[0][2] - tr.spans[0][1]
    assert tr.problems(top) == []
    assert abs(sum(tr.self_times()) - top) < 1e-9


def test_self_time_subtracts_children_only():
    tr = tracer_mod.Tracer()
    tr.spans = [["op.x", 0.0, 10.0, -1, "x", False],
                ["cli.main", 1.0, 9.0, 0, "x", False],
                ["cascade.run_cascade", 2.0, 5.0, 1, "x", False],
                ["cascade.periodic_orbit", 3.0, 4.0, 2, "x", True]]
    assert tr.self_times() == [2.0, 5.0, 2.0, 1.0]
    m = tr.layer_metrics({"c": {"report_bytes": 7, "csv_rows": 3}})
    assert m["cascade.run_cascade.s"] == 3.0
    assert m["cascade.periodic_orbit.raised"] == 1
    assert m["cascade.periodic_orbit.useful_ratio"] == 0.0
    assert (m["cli.report_bytes"], m["cli.csv_rows"]) == (7, 3)
    assert tr.problems(10.0) == []
    assert tr.problems(12.0) != []


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sess = {"session_s": 1.0, "session_norm_s": 1.0, "slowness": 1.0, "peak_rss_mb": 1.0,
            "err_ratio_max": 1.0, "accuracy": {}, "ops": [{"name": "cascade", "s": 1.0}]}
    traced = {"layers": tracer_mod.Tracer().layer_metrics({}), "session_s": 1.0,
              "spans": 0, "bindings": 0}
    layers = run._layers([sess], traced)
    assert {m["name"] for m in bench["per_layer"]} <= set(layers)
    detail = run._detail([sess], [0.1], 1, [])
    assert {m["name"] for m in bench["end_to_end"]} <= set(detail)


def test_reference_sample_times_every_kernel_each_round():
    slowness = reference.sample()
    assert len(slowness) == reference.ROUNDS * len(reference.KERNELS)
    assert min(slowness) > 0
    assert session.NORMALISED <= set(run.WORKLOADS)


def test_seed_zero_inputs_and_jitter_ranges():
    base = session.build_inputs("interval", 0)
    assert base["shift"] == 0.05 and base["tmin"] == 2.9 and base["tmax"] == 4.0
    assert set(base["sink_u"]) == {0.5} and set(base["chaos_v"]) == {0.0}
    for seed in range(1, 20):
        inp = session.build_inputs("henon", seed)
        assert inp == session.build_inputs("henon", seed)
        assert 0.04 <= inp["shift"] <= 0.06 and 1.3 <= inp["tmax"] <= 1.4


def test_err_ratio_is_one_at_seed_errors_and_takes_the_worst():
    for wl, errs in session.SEED_ERRORS.items():
        assert session.err_ratio_max(wl, errs) == 1.0
        assert session.err_ratio_max(wl, {}) is None
    seed = session.SEED_ERRORS["interval"]
    # one error 100x better does not hide another 1.2x worse
    errs = dict(seed, lambda_err=seed["lambda_err"] * 1.2,
                delta_cascade_err=seed["delta_cascade_err"] / 100)
    assert abs(session.err_ratio_max("interval", errs) - 1.2) < 1e-12
    # nd_margin_min is better when higher: a halved margin doubles the ratio
    margin = session.SEED_ERRORS["ndisk"]["nd_margin_min"]
    assert abs(session.err_ratio_max("ndisk", {"nd_margin_min": margin / 2}) - 2.0) < 1e-12


def test_run_without_source_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "ndisk",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_key_names_source_inputs_and_numeric_stack():
    versions = {"python": "3", "numpy": "2", "blas": "openblas 0.3"}
    key = run._reference_key("abc", versions)
    assert key == run._reference_key("abc", dict(versions))
    assert key != run._reference_key("abd", versions)
    assert key != run._reference_key("abc", dict(versions, numpy="3"))
    assert key != run._reference_key("abc", dict(versions, blas="mkl"))
