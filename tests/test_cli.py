import csv
import hashlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renormlab import attractor, cascade, cli, persistence, renorm1d
from renormlab.errors import EscapeError, NoConvergenceError, WrongPeriodError


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "renormlab", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_fixpoint_report(tmp_path):
    out = tmp_path / "fp.json"
    coeffs = tmp_path / "phi.coeffs.json"
    r = run_cli("fixpoint", "--degree", "12", "--out", str(out),
                "--coeffs-out", str(coeffs), "--no-timestamp")
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"lambda", "delta", "unstable_directions", "residual",
                           "newton_iters", "coeffs"}
    assert abs(report["lambda"] - 0.3995) < 5e-4
    assert report["residual"] < 1e-8
    raw = json.loads(coeffs.read_text())
    assert isinstance(raw, list) and raw[0] == 1.0


# Briggs (1991), Math. Comp. 57
DELTA = 4.669201609102990


@pytest.mark.parametrize("degree", [8, 20, 40, 80, 120])
def test_fixpoint_reports_delta_and_one_unstable_direction(tmp_path, degree):
    # phi0 has one expanding direction on the normalized slice, with
    # eigenvalue delta: its stable manifold has codimension one
    out = tmp_path / "fp.json"
    assert cli.main(["fixpoint", "--degree", str(degree), "--no-timestamp",
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["unstable_directions"] == 1
    assert abs(report["delta"] - DELTA) <= 3e-11


def test_fixpoint_too_loose_to_linearize_reports_null(tmp_path):
    # a residual of 1e-6 or more is refused by linearize, not by fixpoint
    out = tmp_path / "fp.json"
    assert cli.main(["fixpoint", "--tol", "1e-4", "--no-timestamp", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert 1e-6 <= report["residual"] < 1e-4
    assert report["delta"] is None and report["unstable_directions"] is None


def test_fixpoint_bad_degree_exits_2():
    r = run_cli("fixpoint", "--degree", "0")
    assert r.returncode == 2


def test_unknown_flag_exits_2():
    r = run_cli("fixpoint", "--frobnicate")
    assert r.returncode == 2


def test_cascade_csv(tmp_path):
    out = tmp_path / "c.json"
    csv_path = tmp_path / "c.csv"
    r = run_cli("cascade", "--family", "logistic", "--nmax", "3",
                "--out", str(out), "--csv", str(csv_path), "--no-timestamp")
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["doubling_params"][0] == [0, 3.0]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "level,t,delta"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and abs(float(first[1]) - 3.0) < 1e-9


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        r = run_cli("cascade", "--nmax", "2", "--out", str(path), "--no-timestamp")
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_present_by_default(tmp_path):
    out = tmp_path / "t.json"
    r = run_cli("cascade", "--nmax", "2", "--out", str(out))
    assert r.returncode == 0
    assert "timestamp" in json.loads(out.read_text())


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("degree=10\ntol=1e-7\n")
    out = tmp_path / "fp.json"
    # flag overrides the config's degree; tol comes from the config
    r = run_cli("fixpoint", "--config", str(cfg), "--degree", "8",
                "--out", str(out), "--no-timestamp")
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert len(report["coeffs"]) == 9


def test_computation_error_exits_1(tmp_path):
    # atoms cannot be disjoint at a plain period-4 parameter
    out = tmp_path / "atoms.json"
    r = run_cli("attractor", "--t", "3.5", "--generations", "8",
                "--points", "16384", "--out", str(out))
    assert r.returncode == 1
    err = json.loads(r.stdout)
    assert err["error"] == "ResolutionError"
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("argv", [
    ["cascade", "--nmax", "3", "--out"],
    ["cascade", "--nmax", "3", "--out", "{other}", "--csv"],
    ["bifdiag", "--tn", "10", "--keep", "5", "--transient", "10", "--csv"],
    ["fixpoint", "--degree", "8", "--out", "{other}", "--coeffs-out"],
    ["cascade", "--nmax", "3", "--csv", "{other}", "--out"],
    ["fixpoint", "--degree", "8", "--coeffs-out", "{other}", "--out"],
], ids=["out", "csv", "bifdiag-csv", "coeffs-out", "out-after-csv", "out-after-coeffs"])
def test_unwritable_output_path_is_an_error_object(tmp_path, capsys, argv, where):
    # a path in a missing directory, or one that is a directory, exits 1 with
    # one JSON error object on stdout and nothing else: no traceback, no
    # report, and no file left, temporary files and a file the run wrote
    # before the failing one included; the message names the path given
    bad = tmp_path / "taken" if where == "directory" else tmp_path / "missing" / "x"
    if where == "directory":
        bad.mkdir()
    argv = [arg.replace("{other}", str(tmp_path / "other")) for arg in argv]
    assert cli.main([*argv, str(bad), "--no-timestamp"]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == ("IsADirectoryError" if where == "directory"
                            else "FileNotFoundError")
    assert err["message"].endswith(f": {str(bad)!r}")
    assert [p.name for p in tmp_path.rglob("*")] == (["taken"] if where == "directory" else [])


def test_attractor_report(tmp_path):
    out = tmp_path / "atoms.json"
    csv_path = tmp_path / "atoms.csv"
    r = run_cli("attractor", "--generations", "4", "--points", "8192",
                "--out", str(out), "--csv", str(csv_path), "--no-timestamp")
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["atom_counts"] == [1, 2, 4, 8, 16]
    assert abs(report["lambda_estimate"] - 0.3995) < 0.15 * 0.3995
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "generation,index,center_0,diameter"
    assert len(lines) == 1 + 1 + 2 + 4 + 8 + 16


def test_manifold_report(tmp_path):
    out = tmp_path / "m.json"
    r = run_cli("manifold", "--depth", "6", "--out", str(out), "--no-timestamp")
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert abs(report["b_value"]) < 1e-5
    assert report["shift_check"] < 1e-5
    grads = dict(report["gradient"])
    assert abs(grads["v0"] + 1.0) < 1e-12
    assert abs(grads["2*v0"] + 2.0) < 1e-12


# sha256 of the files each command writes under --no-timestamp
REPORT_PINS = [
    (("attractor", "--generations", "4", "--points", "2048"),
     "7ad1a0e94d789c311ca3838a92e12be26ba9ba5edc10fcdc189266db2880cdc1",
     "7abaede63f53f5e960f24bb0adea1472bb8203eca69e399f07c4ee8e9e6d735d"),
    (("attractor", "--family", "henon", "--generations", "4", "--points", "2048"),
     "f6c076ea43a37fdcf9b61171b4b46b29d197a310a33cba8cc3c509dc66441d4a",
     "bc6383445db7298bde5804d2edcf83e5bf352c4cca9347e9efae9e648b41591f"),
    (("bifdiag", "--tn", "50"),
     None, "e6f1885ef8dd9caaaed39334683dbf949e8be67e577383c7fa8091d0a49048c7"),
    (("bifdiag", "--family", "henon", "--tn", "50"),
     None, "7c2d08f9bb6381cef655aa230838d7928d7858384b2590dd72630b38f75ac2e8"),
]


@pytest.mark.parametrize("argv, report_sha, csv_sha", REPORT_PINS,
                         ids=["attractor", "attractor-henon", "bifdiag", "bifdiag-henon"])
def test_reports_keep_every_byte(tmp_path, capsys, argv, report_sha, csv_sha):
    # bifdiag writes no --out report: its JSON goes to stdout
    report, table = tmp_path / "r.json", tmp_path / "r.csv"
    out = ["--out", str(report)] if report_sha else []
    assert cli.main([*argv, *out, "--csv", str(table), "--no-timestamp"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(table.read_bytes()).hexdigest() == csv_sha
    if report_sha:
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha


def test_bifdiag_csv(tmp_path):
    csv_path = tmp_path / "bif.csv"
    r = run_cli("bifdiag", "--tn", "30", "--keep", "10", "--transient", "150",
                "--csv", str(csv_path), "--no-timestamp")
    assert r.returncode == 0, r.stderr
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) > 200


def test_bifdiag_drops_escaping_parameters(tmp_path):
    # past a = 4 the logistic orbit leaves [0, 1] and escapes
    csv_path = tmp_path / "bif.csv"
    r = run_cli("bifdiag", "--tmin", "3.9", "--tmax", "4.3", "--tn", "41",
                "--keep", "5", "--csv", str(csv_path), "--no-timestamp")
    assert r.returncode == 0, r.stderr
    ts = {float(line.split(",")[0])
          for line in csv_path.read_text().strip().splitlines()[1:]}
    assert max(ts) <= 4.0 and len(ts) == 11
    assert json.loads(r.stdout)["rows"] == 55


@pytest.mark.parametrize("family, tmin, tmax", [
    ("logistic", 2.9, 3.5), ("henon", 0.3, 1.0)])
def test_bifdiag_column_matches_single_orbit_at_sinks(tmp_path, capsys, family, tmin, tmax):
    # the block of all parameters, one row each, gives every column of a
    # single-parameter orbit; at sinks they agree far below plotting scale
    csv_path = tmp_path / "bif.csv"
    assert cli.main(["bifdiag", "--family", family, "--tmin", repr(tmin), "--tmax",
                     repr(tmax), "--tn", "7", "--csv", str(csv_path), "--no-timestamp"]) == 0
    lines = csv_path.read_text().strip().splitlines()[1:]
    assert json.loads(capsys.readouterr().out)["rows"] == len(lines) == 7 * 80
    fam = cascade.logistic_family() if family == "logistic" else cascade.henon_family()
    for i, t in enumerate(np.linspace(tmin, tmax, 7)):
        col = [float(line.split(",")[1]) for line in lines[80 * i:80 * (i + 1)]]
        assert {line.split(",")[0] for line in lines[80 * i:80 * (i + 1)]} == {repr(float(t))}
        ref = cascade.orbit(fam.map_at(t), fam.start_at(t), 480, keep=80)[1][:, 0]
        assert np.max(np.abs(np.array(col) - ref)) <= 1e-9


@pytest.mark.parametrize("family, window, reversed_flag", [
    ("logistic", [2.5, 4.0], ("--tmax", "2.5")), ("henon", [0.1, 1.4], ("--tmin", "1.4"))])
def test_bifdiag_defaults_to_the_family_window(tmp_path, capsys, family, window, reversed_flag):
    # no --tmin/--tmax: the family's own param_range, where no orbit escapes
    assert cli.main(["bifdiag", "--family", family, "--csv", str(tmp_path / "bif.csv"),
                     "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["t_range"] == window and report["rows"] == 400 * 80
    # the order check compares the values used: one flag against one family end
    r = usage_error("bifdiag", "--family", family, *reversed_flag)
    assert "--tmin must be < --tmax" in r.stderr


def test_bifdiag_every_orbit_escaping_exits_zero(tmp_path, capsys):
    csv_path = tmp_path / "bif.csv"
    assert cli.main(["bifdiag", "--tmin", "4.5", "--tmax", "5.0", "--tn", "6",
                     "--csv", str(csv_path), "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 0
    assert csv_path.read_text().strip() == "t,x"


def test_bifdiag_henon_drops_parameters_without_a_fixed_point(tmp_path, capsys):
    # below a = -(1 - b)^2 / 4 no real fixed point gives the orbit a start
    csv_path = tmp_path / "bif.csv"
    assert cli.main(["bifdiag", "--family", "henon", "--tmin", "-1", "--tmax", "1",
                     "--tn", "21", "--csv", str(csv_path), "--no-timestamp"]) == 0
    lines = csv_path.read_text().strip().splitlines()[1:]
    assert json.loads(capsys.readouterr().out)["rows"] == len(lines) > 0
    assert min(float(line.split(",")[0]) for line in lines) > -0.7 ** 2 / 4


def test_attractor_henon_without_a_fixed_point_is_an_escape_error(capsys):
    assert cli.main(["attractor", "--family", "henon", "--t", "-0.5",
                     "--no-timestamp"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "EscapeError"


def usage_error(*args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    return r


def test_bifdiag_jobs_flag_is_gone():
    usage_error("bifdiag", "--jobs", "2")


def test_attractor_too_few_points_exits_2():
    r = usage_error("attractor", "--points", "10", "--generations", "2")
    assert "--points" in r.stderr


def test_bifdiag_empty_range_exits_2():
    usage_error("bifdiag", "--tmin", "4", "--tmax", "2.9")


@pytest.mark.parametrize("args", [
    ("bifdiag", "--tmin", "0", "--tmax", "inf"),
    ("cascade", "--family", "henon", "--b", "nan"),
    ("fixpoint", "--tol", "inf"),
    ("attractor", "--t=-inf"),
    ("manifold", "--shifts", "0.05", "nan"),
], ids=["tmax-inf", "b-nan", "tol-inf", "t-minus-inf", "shifts-nan"])
def test_non_finite_float_flags_are_usage_errors(args):
    r = usage_error(*args)
    assert "invalid finite value" in r.stderr


def test_bifdiag_negative_keep_exits_2():
    usage_error("bifdiag", "--keep", "-3")


def test_bifdiag_negative_transient_exits_2():
    usage_error("bifdiag", "--transient", "-1")


def test_bifdiag_config_values_are_validated(tmp_path):
    for text in ("tmin = 4\ntmax = 2.9\n", "transient = -5\n"):
        cfg = tmp_path / "bif.cfg"
        cfg.write_text(text)
        usage_error("bifdiag", "--config", str(cfg))


def test_levels_above_max_level_are_usage_errors(tmp_path):
    # MAX_LEVEL = 16: period 65536, where the logistic cascade already fails
    assert "--nmax must be in [0, 16]" in usage_error("cascade", "--nmax", "17").stderr
    assert "--depth must be in [6, 16]" in usage_error("manifold", "--depth", "17").stderr
    for cmd, key in (("cascade", "nmax"), ("manifold", "depth")):
        cfg = tmp_path / f"{cmd}.cfg"
        cfg.write_text(f"{key} = 17\n")
        usage_error(cmd, "--config", str(cfg))


def test_ndcheck_single_level(tmp_path):
    out = tmp_path / "nd.json"
    r = run_cli("ndcheck", "--levels", "1", "--degree", "16",
                "--out", str(out), "--no-timestamp")
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["all_passed"]
    level = report["levels"][0]
    assert level["check"]["disjoint_margin"] > 1e-3
    assert level["check"]["inside_margin"] > 1e-3
    assert "disk" in level


def test_degree_above_series_bound_is_a_usage_error():
    for cmd in ("fixpoint", "ndcheck"):
        r = run_cli(cmd, "--degree", "300")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert "--degree must be in [1, 256]" in r.stderr


def test_manifold_shift_out_of_range_is_a_usage_error(tmp_path):
    r = usage_error("manifold", "--shifts", "0.6")
    assert "--shifts must each lie in (-0.5, 0.5)" in r.stderr
    cfg = tmp_path / "m.cfg"
    cfg.write_text("shifts = 0.05,-0.5\n")
    usage_error("manifold", "--config", str(cfg))


def test_error_object_carries_numeric_fields():
    r = run_cli("fixpoint", "--max-iters", "1")
    assert r.returncode == 1
    err = json.loads(r.stdout)
    assert err["error"] == "NoConvergenceError"
    assert 0 < err["residual"] < 1e-2
    # the last iterate is a series: its coefficients, one per even power
    degree = renorm1d.DEFAULT_DEGREE
    assert len(err["last"]) == degree + 1
    assert all(isinstance(c, float) for c in err["last"]) and err["last"][0] == 1.0


@pytest.mark.parametrize("exc, field, value", [
    (EscapeError("escaped", step=7), "step", 7),
    (WrongPeriodError("closes early", true_period=2), "true_period", 2),
])
def test_error_object_serializes_step_and_true_period(monkeypatch, capsys,
                                                      exc, field, value):
    def fail(cfg):
        raise exc
    monkeypatch.setitem(cli._COMMANDS, "cascade", cli._COMMANDS["cascade"]._replace(run=fail))
    assert cli.main(["cascade"]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err == {"error": type(exc).__name__, "message": str(exc), field: value}


@pytest.mark.parametrize("last, listed", [
    (np.array([0.25, -1.5]), [0.25, -1.5]),
    (3.5, [3.5]),
], ids=["array", "float"])
def test_error_object_serializes_last(monkeypatch, capsys, last, listed):
    def fail(cfg):
        raise NoConvergenceError("stalled", last=last, residual=0.5)
    monkeypatch.setitem(cli._COMMANDS, "cascade", cli._COMMANDS["cascade"]._replace(run=fail))
    assert cli.main(["cascade"]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err == {"error": "NoConvergenceError", "message": "stalled",
                   "last": listed, "residual": 0.5}


@pytest.mark.parametrize("cmd, text", [
    ("fixpoint", "degree = abc\n"),
    ("manifold", "shifts =\n"),
    ("cascade", "family = cubic\n"),
    ("bifdiag", "tmin = 0\ntmax = inf\n"),
], ids=["bad-int", "empty-list", "bad-choice", "non-finite"])
def test_bad_config_value_is_a_usage_error(tmp_path, cmd, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    r = usage_error(cmd, "--config", str(cfg))
    assert "bad config file" in r.stderr


def test_cascade_reaches_level_16(tmp_path):
    out = tmp_path / "c16.json"
    r = run_cli("cascade", "--nmax", "16", "--out", str(out), "--no-timestamp")
    assert r.returncode == 0, r.stdout + r.stderr
    report = json.loads(out.read_text())
    assert [lvl for lvl, _ in report["doubling_params"]] == list(range(17))
    assert abs(report["delta_estimates"][-1] - DELTA) < 1e-8


@pytest.mark.parametrize("b", [0.3, 0.6, 0.9])
def test_henon_first_doublings_follow_b(tmp_path, b):
    # the fixed point flips at a0 = 3(1-b)^2/4, the 2-cycle at
    # a1 = (1-b)^2 + (1+b)^2/4, where the trace of its M is -1 - b^2
    out = tmp_path / "h.json"
    r = run_cli("cascade", "--family", "henon", "--b", repr(b), "--nmax", "1",
                "--out", str(out), "--no-timestamp")
    assert r.returncode == 0, r.stdout + r.stderr
    (_, t0), (_, t1) = json.loads(out.read_text())["doubling_params"]
    assert abs(t0 - 0.75 * (1 - b) ** 2) < 1e-12
    assert abs(t1 - ((1 - b) ** 2 + 0.25 * (1 + b) ** 2)) < 1e-12


@pytest.mark.parametrize("b, delta9", [(0.6, 4.66912), (0.9, 4.66729)])
def test_henon_large_b_cascades_reach_level_9(tmp_path, b, delta9):
    # a settle orbit from the fixed point, a saddle by then, escaped at
    # levels 3 and 2; branch switching never leaves the last orbit
    out = tmp_path / "h.json"
    r = run_cli("cascade", "--family", "henon", "--b", repr(b), "--nmax", "9",
                "--out", str(out), "--no-timestamp")
    assert r.returncode == 0, r.stdout + r.stderr
    report = json.loads(out.read_text())
    assert [lvl for lvl, _ in report["doubling_params"]] == list(range(10))
    assert abs(report["delta_estimates"][-1] - delta9) < 1e-5


def test_henon_deep_levels_fail_as_typed_errors():
    # whatever level the cascade reaches, a failure is a JSON error object,
    # never a traceback
    r = run_cli("cascade", "--family", "henon", "--b", "0.9", "--nmax", "4",
                "--no-timestamp")
    assert r.returncode in (0, 1) and "Traceback" not in r.stderr
    if r.returncode == 1:
        assert set(json.loads(r.stdout)) >= {"error", "message"}


def test_config_t_gives_the_flag_report(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("t = 3.5699456718709\n")
    by_config, by_flag = tmp_path / "config.json", tmp_path / "flag.json"
    assert cli.main(["attractor", "--config", str(cfg), "--generations", "3",
                     "--out", str(by_config), "--no-timestamp"]) == 0
    assert cli.main(["attractor", "--t", "3.5699456718709", "--generations", "3",
                     "--out", str(by_flag), "--no-timestamp"]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()


def test_attractor_generations_outside_two_to_max_are_usage_errors():
    # scaling_ratios needs three diameters, so one generation could never succeed
    msg = f"--generations must be in [2, {attractor.MAX_GENERATIONS}]"
    for gens in (1, attractor.MAX_GENERATIONS + 1):
        assert msg in usage_error("attractor", "--generations", str(gens)).stderr


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in a report")
    return json.loads(text, parse_constant=reject)


def test_reports_write_non_finite_numbers_as_null(tmp_path, monkeypatch, capsys):
    # two doubling levels give no accumulation error estimate
    assert cli.main(["cascade", "--nmax", "2", "--no-timestamp"]) == 0
    assert strict_json(capsys.readouterr().out)["t_inf_error"] is None
    # a failed ndcheck level can carry an inside margin of -inf
    report = {"levels": [{"check": {"inside_margin": -np.inf}, "distance": np.float64(np.nan)}],
              "all_passed": False, "pair": (np.inf, 1.5)}
    monkeypatch.setitem(cli._COMMANDS, "ndcheck", cli._COMMANDS["ndcheck"]._replace(
        run=lambda cfg: (report, {})))
    out = tmp_path / "nd.json"
    assert cli.main(["ndcheck", "--out", str(out), "--no-timestamp"]) == 0
    assert strict_json(out.read_text()) == {
        "levels": [{"check": {"inside_margin": None}, "distance": None}],
        "all_passed": False, "pair": [None, 1.5]}


def test_error_object_writes_non_finite_numbers_as_null(monkeypatch, capsys):
    def fail(cfg):
        raise NoConvergenceError("diverged", last=np.array([np.nan, 1.0]), residual=np.inf)
    monkeypatch.setitem(cli._COMMANDS, "cascade", cli._COMMANDS["cascade"]._replace(run=fail))
    assert cli.main(["cascade"]) == 1
    assert strict_json(capsys.readouterr().out) == {
        "error": "NoConvergenceError", "message": "diverged", "last": [None, 1.0],
        "residual": None}


# -- tests driven by the option table: a new option is covered by them --------

@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_defaults_pass_their_own_checks(name):
    options = cli._COMMANDS[name].options
    cfg = {opt.name: opt.default for opt in options}
    assert [opt.error(cfg) for opt in options] == [None] * len(options)


def sample_values(opt):
    """Text of a value other than the option's default, one item per flag value."""
    if opt.choices:
        return [next(c for c in opt.choices if c != opt.default)]
    if opt.many:
        return ["0.125", "-0.25"]
    return [{int: "7", cli.finite: "0.375", str: "x.out"}[opt.type]]


@pytest.mark.parametrize("name, opt", [
    (name, opt) for name, cmd in cli._COMMANDS.items() for opt in cmd.options
], ids=lambda v: v if isinstance(v, str) else v.name)
def test_config_file_and_flag_give_the_same_cfg(tmp_path, name, opt):
    values = sample_values(opt)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{opt.name} = {','.join(values)}\n")
    parser = cli._build_parser()
    by_flag = cli._settings(parser, [name, opt.flag, *values])
    assert cli._settings(parser, [name, "--config", str(cfg_file)]) == by_flag
    assert by_flag[1][opt.name] != opt.default


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("renormlab ")]
    assert len(lines) >= 6
    parser = cli._build_parser()
    for line in lines:
        cmd, cfg, _ = cli._settings(parser, shlex.split(line)[1:])
        assert [opt.error(cfg) for opt in cmd.options] == [None] * len(cmd.options), line


# -- CSV bytes against csv.writer, and the reports' keys -----------------------

def csv_writer_bytes(rows):
    """The reference: csv.writer over the rows, as the CSVs were first written."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def record(monkeypatch, module, name):
    """Replace module.name by a wrapper that keeps the results it returns."""
    results, fn = [], getattr(module, name)

    def wrapper(*args, **kw):
        results.append(fn(*args, **kw))
        return results[-1]
    monkeypatch.setattr(module, name, wrapper)
    return results


@pytest.mark.parametrize("family, nmax", [("logistic", 5), ("henon", 4)])
def test_cascade_csv_bytes_match_csv_writer(tmp_path, monkeypatch, family, nmax):
    runs = record(monkeypatch, cascade, "run_cascade")
    path = tmp_path / "c.csv"
    assert cli.main(["cascade", "--family", family, "--nmax", str(nmax), "--csv", str(path),
                     "--out", str(tmp_path / "c.json"), "--no-timestamp"]) == 0
    (res,) = runs
    d = res.delta_estimates
    rows = [["level", "t", "delta"]] + [
        [level, repr(t), repr(d[level - 1]) if 1 <= level <= len(d) else ""]
        for level, t in enumerate(res.params)]
    assert path.read_bytes() == csv_writer_bytes(rows)


@pytest.mark.parametrize("family, gens", [("logistic", 3), ("henon", 2)])
def test_attractor_csv_bytes_match_csv_writer(tmp_path, monkeypatch, family, gens):
    trees = record(monkeypatch, attractor, "build_atoms")
    path = tmp_path / "a.csv"
    assert cli.main(["attractor", "--family", family, "--generations", str(gens),
                     "--csv", str(path), "--out", str(tmp_path / "a.json"),
                     "--no-timestamp"]) == 0
    (tree,) = trees
    dim = tree.points.shape[1]
    rows = [["generation", "index"] + [f"center_{i}" for i in range(dim)] + ["diameter"]]
    rows += [[a.generation, a.index] + [repr(float(c)) for c in a.center]
             + [repr(float(a.diameter))] for gen in tree.generations for a in gen]
    assert path.read_bytes() == csv_writer_bytes(rows)


@pytest.mark.parametrize("family, tmin, tmax, tn, transient, keep, nudge, n_rows", [
    ("logistic", 3.9, 4.3, 41, 400, 5, False, 11 * 5),  # the columns past a = 4 escape
    ("logistic", 4.5, 5.0, 6, 400, 80, False, 0),       # every column escapes
    ("logistic", 1e-05, 0.5, 3, 5, 3, False, 3 * 3),    # exponent-form t and x
    ("henon", 0.3, 1.4, 9, 50, 4, False, 9 * 4),
    # exact cycles of length 1, 2, 2 and 2, with a remainder of 7, then a
    # period-4 sink longer than keep / 2, written in full
    ("logistic", 2.3, 3.5, 5, 400, 7, False, 5 * 7),
    ("logistic", 3.83, 3.84, 5, 400, 80, False, 5 * 80),  # the period-3 window
    # the same cycles with every last kept value one ulp up: no column repeats
    ("logistic", 2.3, 3.2, 4, 400, 7, True, 4 * 7),
    # the benchmark's windows
    ("henon", 0.3, 1.4, 2000, 400, 80, False, 2000 * 80),
    ("logistic", 2.9, 4.0, 2000, 400, 80, False, 2000 * 80),
], ids=["some-escape", "all-escape", "exponent-form", "henon", "sinks-1-2-4",
        "period-3-window", "cycle-but-last", "henon-benchmark", "logistic-benchmark"])
def test_bifdiag_csv_bytes_match_csv_writer(tmp_path, monkeypatch, capsys, family, tmin,
                                            tmax, tn, transient, keep, nudge, n_rows):
    if nudge:
        orbit = cascade.orbit

        def nudged(*args, **kw):
            x, kept = orbit(*args, **kw)
            kept[-1] = np.nextafter(kept[-1], np.inf)
            return x, kept
        monkeypatch.setattr(cascade, "orbit", nudged)
    orbits = record(monkeypatch, cascade, "orbit")
    path = tmp_path / "b.csv"
    assert cli.main(["bifdiag", "--family", family, "--tmin", repr(tmin), "--tmax",
                     repr(tmax), "--tn", str(tn), "--transient", str(transient),
                     "--keep", str(keep), "--csv", str(path), "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["family"] == family and "families" not in report
    # the orbit raised when every parameter escaped, so nothing was recorded
    rows = [["t", "x"]]
    for t, col in zip(np.linspace(tmin, tmax, tn), orbits[0][1][:, :, 0].T if orbits else []):
        if not np.isnan(col[-1]):
            rows.extend([repr(float(t)), repr(v)] for v in col.tolist())
    data = path.read_bytes()
    assert data == csv_writer_bytes(rows)
    assert report["rows"] == len(rows) - 1 == n_rows
    if tmin == 1e-05:
        assert data.startswith(b"t,x\r\n1e-05,2.49") and b"e-31\r\n" in data


def test_fields_write_repr_text():
    # bifdiag's value texts against repr, on about 10^6 values: the rows it
    # writes hold ",repr(x)\r\n", and it writes every value with
    # 1e-4 <= |x| < 2^50 outside Ryu's general case, where 4m 5^i / 2^q is an
    # integer (m the significand, x = 4m 2^-e, q = floor(e log10 5) - 1,
    # i = e - q), and no other
    rng = np.random.default_rng(20)
    signs = rng.choice([-1.0, 1.0], 200_000)
    twos = np.ldexp(1.0, np.arange(-14, 55))
    edges = np.array([1e-4, 1e16, 2.0 ** 53, 2.0 ** 50, 0.3, 1 / 3, 9999999999999998.0])
    special = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan])
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 250_000, dtype=np.uint64).view(float),
        rng.uniform(-1.5, 1.5, 250_000),
        signs * np.exp(rng.uniform(np.log(1e-4), np.log(1e16), 200_000)),
        rng.integers(-10 ** 6, 10 ** 6, 200_000) / 10.0 ** rng.integers(0, 9, 200_000),
        *(np.nextafter(x, to) for x in (twos, edges) for to in (-np.inf, np.inf)),
        twos, -twos, edges, -edges, special])
    out = np.empty((len(values), 4), dtype=np.uint64)
    lens, written = np.empty(len(values), dtype=int), np.empty(len(values), dtype=bool)
    for s in range(0, len(values), cli.TEXT_BLOCK):
        lens[s:s + cli.TEXT_BLOCK], written[s:s + cli.TEXT_BLOCK] = cli._fields(
            values[s:s + cli.TEXT_BLOCK], out[s:s + cli.TEXT_BLOCK])
    bits = np.abs(values).view(np.uint64)
    e = 1077 - (bits >> 52).astype(np.int64)
    m = bits & (1 << 52) - 1 | 1 << 52
    q = np.floor(e * np.log10(5)).astype(np.int64) - 1
    twos_in_m = np.log2((m & -m.view(np.int64).view(np.uint64)).astype(float))
    in_range = (np.abs(values) >= 1e-4) & (np.abs(values) < 2.0 ** 50)
    assert np.array_equal(written, in_range & (twos_in_m < q - 2))
    assert written[250_000:450_000].mean() > 0.999
    texts = [f",{x!r}\r\n" for x in values[written].tolist()]
    assert out[written].tobytes().translate(None, b"\0").decode() == "".join(texts)
    assert lens[written].tolist() == list(map(len, texts))


@pytest.mark.parametrize("family, tmin, tmax", [
    ("logistic", 2.9, 4.3),     # the columns past a = 4 escape
    ("henon", -0.5, 1.6),       # no fixed point below -(1 - b)^2 / 4; escapes past 1.43
    ("fold3d", -1.0, 2.5),
])
def test_bifdiag_steps_base_and_slope_on_one_table(request, tmp_path, monkeypatch, capsys,
                                                    family, tmin, tmax):
    # bifdiag evaluates base and slope on one monomial table per block: the
    # kept block is bit for bit the orbit of base(x) + t * slope(x) from two
    # map calls, escaped (nan) rows included, from the same start rows
    if family == "fold3d":
        fam = request.getfixturevalue("fold3d")
        monkeypatch.setattr(cli, "_family", lambda cfg: fam)
    else:
        fam = cli._family({"family": family, "b": 0.3})
    calls, orbit = [], cascade.orbit

    def recorded(m, x, steps, keep=0):
        calls.append((x.copy(), orbit(m, x, steps, keep=keep)[1]))
        return None, calls[-1][1]
    monkeypatch.setattr(cascade, "orbit", recorded)
    assert cli.main(["bifdiag", "--family", "henon" if family == "henon" else "logistic",
                     "--tmin", repr(tmin), "--tmax", repr(tmax), "--tn", "300",
                     "--csv", str(tmp_path / "b.csv"), "--no-timestamp"]) == 0
    capsys.readouterr()
    (starts, kept), = calls
    ts = np.linspace(tmin, tmax, 300)
    ref_starts = np.array([np.reshape(fam.start_at(t), fam.dim) for t in ts])
    assert starts.tobytes() == ref_starts.tobytes()
    base, slope = cascade.MapND(fam.exponents, fam.base), fam.direction
    ref = orbit(lambda x: base(x) + ts[:, None] * slope(x), ref_starts, 480, keep=80)[1]
    assert kept.tobytes() == ref.tobytes()
    escaped = np.isnan(kept[-1, :, 0])
    assert 0 < escaped.sum() < 300
    if family == "henon":
        assert np.isnan(starts[ts < -0.7 ** 2 / 4]).all() and (ts < -0.7 ** 2 / 4).any()


def test_manifold_runs_each_cascade_once(tmp_path, monkeypatch):
    # build_chart and two shifts: a(family) is computed once and shared by
    # the chart, the gradients' tangents and the shift check
    calls = record(monkeypatch, persistence, "run_cascade")
    assert cli.main(["manifold", "--depth", "6", "--out", str(tmp_path / "m.json"),
                     "--no-timestamp"]) == 0
    assert len(calls) == 3


@pytest.mark.parametrize("nmax", [0, 1, 2])
def test_cascade_too_short_to_extrapolate_has_no_t_inf(capsys, nmax):
    assert cli.main(["cascade", "--nmax", str(nmax), "--no-timestamp"]) == 0
    report = strict_json(capsys.readouterr().out)
    assert len(report["doubling_params"]) == nmax + 1
    assert report["t_inf"] is None and report["t_inf_error"] is None


@pytest.mark.parametrize("family, nmax, gens, depth, manifold_solves", [
    ("henon", 9, 6, 6, 14), ("logistic", 10, 6, 8, 18)])
def test_session_solves_its_family_cascade_once(tmp_path, doubling_solves, family, nmax, gens,
                                                 depth, manifold_solves):
    # attractor and manifold take their levels from cascade's, and manifold's
    # gradients read the chart's; it still solves the two shifts' cascades,
    # depth + 1 levels each
    session = [["cascade", "--nmax", str(nmax)],
               ["attractor", "--generations", str(gens), "--csv", str(tmp_path / "a.csv")],
               ["manifold", "--depth", str(depth)]]

    def run(argv):
        """The command's report and CSV, if it writes one."""
        for path in tmp_path.iterdir():
            path.unlink()
        assert cli.main([*argv, "--family", family, "--out", str(tmp_path / "r.json"),
                         "--no-timestamp"]) == 0
        return [path.read_bytes() for path in sorted(tmp_path.iterdir())]

    shared = cli._family({"family": family, "b": 0.3})
    outputs, solves = [], []
    for argv in session:
        del doubling_solves[:]
        outputs.append(run(argv))
        solves.append((len(doubling_solves), doubling_solves.count(shared)))
    assert solves == [(nmax + 1,) * 2, (0, 0), (manifold_solves, 0)]
    # each command's files are those it writes with nothing kept
    for argv, files in zip(session, outputs):
        cascade._KEPT.clear()
        assert run(argv) == files


def test_families_are_built_once_per_family_and_b():
    henon = cli._family({"family": "henon", "b": 0.3})
    assert cli._family({"family": "henon", "b": 0.3}) is henon
    assert cli._family({"family": "henon", "b": 0.6}) is not henon
    # 0.0 == -0.0, but the maps differ in the sign of their zeros
    zero = cli._family({"family": "henon", "b": 0.0})
    assert cli._family({"family": "henon", "b": -0.0}) is not zero
    assert cli._family({"family": "logistic", "b": 0.3}) is not henon
