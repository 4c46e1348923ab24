"""Command-line front end: reproducible runs with JSON/CSV reports.

Subcommands: fixpoint, cascade, attractor, ndcheck, manifold, bifdiag.
Flags override values from an optional key=value config file; there is no
environment-variable configuration.  Reports are deterministic given the
same config (the timestamp field can be disabled for byte-identical runs).
Computation failures exit 1 with a machine-readable error object; partial
reports only ever appear with a .partial suffix.
"""

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import attractor as attractor_mod
from . import cascade as cascade_mod
from . import persistence as persistence_mod
from . import renorm1d, renorm_nd, series
from .errors import EscapeError, RenormLabError

_DEFAULTS = {
    "fixpoint": {"degree": renorm1d.DEFAULT_DEGREE, "tol": renorm1d.DEFAULT_TOL,
                 "max_iters": 25, "out": None, "coeffs_out": None},
    "cascade": {"family": "logistic", "nmax": 10, "b": 0.3, "out": None,
                "csv": None},
    "attractor": {"family": "logistic", "generations": 8, "points": 0,
                  "t": None, "b": 0.3, "out": None, "csv": None},
    "ndcheck": {"degree": 20, "levels": 4, "samples": 2048, "out": None},
    "manifold": {"family": "logistic", "depth": 8, "h": 1e-3, "b": 0.3,
                 "shifts": [-0.05, 0.05], "out": None},
    "bifdiag": {"family": "logistic", "tmin": 2.9, "tmax": 4.0, "tn": 400,
                "transient": 400, "keep": 80, "csv": "bifdiag.csv"},
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file; flags override it")
    common.add_argument("--no-timestamp", action="store_true",
                        default=argparse.SUPPRESS,
                        help="omit the timestamp field for byte-identical reruns")

    p = argparse.ArgumentParser(
        prog="renormlab",
        description="period-doubling renormalization laboratory",
        parents=[common])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fixpoint", argument_default=argparse.SUPPRESS,
                        parents=[common],
                        help="solve the doubling-renormalization fixed point")
    sp.add_argument("--degree", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--max-iters", type=int, dest="max_iters")
    sp.add_argument("--out")
    sp.add_argument("--coeffs-out", dest="coeffs_out",
                    help="also write the bare coefficient array (*.coeffs.json)")

    sp = sub.add_parser("cascade", argument_default=argparse.SUPPRESS,
                        parents=[common], help="doubling parameters, ratios, accumulation")
    sp.add_argument("--family", choices=("logistic", "henon"))
    sp.add_argument("--nmax", type=int)
    sp.add_argument("--b", type=float, help="Henon dissipation")
    sp.add_argument("--out")
    sp.add_argument("--csv", help="write (N, t_N, delta_N) rows")

    sp = sub.add_parser("attractor", argument_default=argparse.SUPPRESS,
                        parents=[common], help="atom hierarchy at the accumulation parameter")
    sp.add_argument("--family", choices=("logistic", "henon"))
    sp.add_argument("--generations", type=int)
    sp.add_argument("--points", type=int, help="orbit points (0 = auto)")
    sp.add_argument("--t", type=float, help="parameter (default: computed accumulation)")
    sp.add_argument("--b", type=float)
    sp.add_argument("--out")
    sp.add_argument("--csv", help="per-atom rows (generation, index, center, diameter)")

    sp = sub.add_parser("ndcheck", argument_default=argparse.SUPPRESS,
                        parents=[common], help="renormalizability of the standard 2-D map, recursively")
    sp.add_argument("--degree", type=int, help="series degree of the 1-D fixed point")
    sp.add_argument("--levels", type=int, help="successive renormalizations to verify")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("manifold", argument_default=argparse.SUPPRESS,
                        parents=[common], help="persistence chart: b, gradient, shift law")
    sp.add_argument("--family", choices=("logistic", "henon"))
    sp.add_argument("--depth", type=int)
    sp.add_argument("--h", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--shifts", type=float, nargs="+")
    sp.add_argument("--out")

    sp = sub.add_parser("bifdiag", argument_default=argparse.SUPPRESS,
                        parents=[common], help="bifurcation-diagram (t, x) sample CSV")
    sp.add_argument("--family", choices=("logistic", "henon"))
    sp.add_argument("--tmin", type=float)
    sp.add_argument("--tmax", type=float)
    sp.add_argument("--tn", type=int)
    sp.add_argument("--transient", type=int)
    sp.add_argument("--keep", type=int)
    sp.add_argument("--csv")
    return p


def _load_config(path):
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _coerce(value, like):
    if isinstance(like, bool):
        return value.lower() in ("1", "true", "yes")
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    if isinstance(like, list):
        return [float(v) for v in value.split(",")]
    return value


def _family(cfg):
    if cfg["family"] == "logistic":
        return cascade_mod.logistic_family()
    return cascade_mod.henon_family(b=cfg.get("b", 0.3))


def _write_report(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        tmp = out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    else:
        sys.stdout.write(text)


def _write_csv(rows, header, path):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    os.replace(tmp, path)


def _cmd_fixpoint(cfg):
    result = renorm1d.solve_fixed_point(degree=cfg["degree"], tol=cfg["tol"],
                                        max_iters=cfg["max_iters"])
    if cfg.get("coeffs_out"):
        series.save_coeffs(result.phi0, cfg["coeffs_out"])
    return {
        "lambda": result.lam,
        "residual": result.residual,
        "newton_iters": result.newton_iters,
        "coeffs": [float(c) for c in result.phi0.coeffs],
    }, None, None


def _cascade_rows(res):
    d = res.delta_estimates
    return [[level, repr(t), repr(d[level - 1]) if 1 <= level <= len(d) else ""]
            for level, t in res.doubling_params]


def _cmd_cascade(cfg):
    fam = _family(cfg)
    res = cascade_mod.run_cascade(fam, cfg["nmax"])
    report = {
        "family": cfg["family"],
        "doubling_params": [[lvl, t] for (lvl, t) in res.doubling_params],
        "delta_estimates": list(res.delta_estimates),
        "t_inf": res.t_inf,
        "t_inf_error": res.t_inf_error,
    }
    rows = _cascade_rows(res) if cfg.get("csv") else None
    return report, rows, ["level", "t", "delta"]


def _cmd_attractor(cfg):
    fam = _family(cfg)
    gens = cfg["generations"]
    t = cfg.get("t")
    if t is None:
        t = cascade_mod.run_cascade(fam, max(gens + 2, 8)).t_inf
    pts = cfg.get("points") or 2 ** (gens + 9)
    tree = attractor_mod.build_atoms(fam, t, gens, pts)
    diams = attractor_mod.atom_diameters(tree)
    ratios, lam_est = attractor_mod.scaling_ratios(diams)
    report = {
        "family": cfg["family"],
        "parameter": t,
        "generations": gens,
        "orbit_points": pts,
        "atom_counts": [len(g) for g in tree.generations],
        "max_diameters": diams,
        "diameter_ratios": ratios,
        "lambda_estimate": lam_est,
    }
    rows = None
    if cfg.get("csv"):
        rows = []
        for gen in tree.generations:
            for a in gen:
                rows.append([a.generation, a.index]
                            + [repr(float(c)) for c in a.center]
                            + [repr(float(a.diameter))])
        dim = tree.points.shape[1]
        header = ["generation", "index"] + [f"center_{i}" for i in range(dim)] + ["diameter"]
        return report, rows, header
    return report, None, None


def _cmd_ndcheck(cfg):
    fp = renorm1d.solve_fixed_point(degree=cfg["degree"])
    psi = renorm_nd.standard_fct_map(2, fp.phi0)
    reference = renorm_nd.DiskND(np.zeros(2), 0.8 * np.eye(2))
    levels = []
    cur = psi
    start = np.array([0.3, 0.5])
    for m in range(1, cfg["levels"] + 1):
        found = renorm_nd.search_renorm_disk(cur, start=start,
                                             verify_samples=cfg["samples"])
        # diagnostic only: how far this level sits from the standard form
        dist = renorm_nd.distance_to_standard(cur, fp.phi0, reference,
                                              cfg["samples"])
        if not found.found:
            levels.append({"level": m, "passed": False,
                           "distance_to_standard": dist,
                           "check": found.check.to_json_dict()})
            break
        levels.append({"level": m, "passed": True,
                       "distance_to_standard": dist,
                       "check": found.check.to_json_dict(),
                       "disk": found.disk.to_json_dict()})
        cur = renorm_nd.renormalize_nd(cur, found.disk, degree=8)
        start = np.array([0.1, 0.1])
    return {"lambda": fp.lam, "levels": levels,
            "all_passed": all(lv["passed"] for lv in levels)}, None, None


def _cmd_manifold(cfg):
    fam = _family(cfg)
    chart = persistence_mod.build_chart(fam, cfg["depth"])
    b0 = persistence_mod.chart_b(chart, chart.psi0)
    grads = persistence_mod.chart_gradient(
        chart, [chart.v0, 2.0 * chart.v0], h=cfg["h"])
    shift_dev = persistence_mod.verify_shift_property(fam, cfg["shifts"],
                                                      cfg["depth"])
    return {
        "family": cfg["family"],
        "depth": cfg["depth"],
        "b_value": b0,
        "gradient": [["v0", grads[0]], ["2*v0", grads[1]]],
        "shift_check": shift_dev,
    }, None, None


def _cmd_bifdiag(cfg):
    fam = _family(cfg)
    ts = np.linspace(cfg["tmin"], cfg["tmax"], cfg["tn"])
    # both families are linear in t, so all parameters step as one block of
    # rows, psi_0(x) + t * d(psi_t)/dt(x); an escaped row reads nan
    base, slope = fam.map_at(0.0), fam.deriv_at(0.0)
    starts = np.array([np.reshape(fam.start_at(t), fam.dim) for t in ts])
    try:
        kept = cascade_mod.orbit(lambda x: base(x) + ts[:, None] * slope(x), starts,
                                 cfg["transient"] + cfg["keep"], keep=cfg["keep"])[1]
    except EscapeError:                     # every orbit escaped
        kept = np.full((cfg["keep"], ts.size, fam.dim), np.nan)
    rows = []
    for t, col in zip(ts, kept[:, :, 0].T):
        if not np.isnan(col[-1]):           # the orbit never escaped
            label = repr(float(t))
            rows.extend([label, repr(v)] for v in col.tolist())
    return {"rows": len(rows), "families": cfg["family"],
            "t_range": [cfg["tmin"], cfg["tmax"]]}, rows, ["t", "x"]


_COMMANDS = {
    "fixpoint": _cmd_fixpoint,
    "cascade": _cmd_cascade,
    "attractor": _cmd_attractor,
    "ndcheck": _cmd_ndcheck,
    "manifold": _cmd_manifold,
    "bifdiag": _cmd_bifdiag,
}


def _validate(parser, cmd, cfg):
    degree_check = ("degree", lambda v: 1 <= v <= series.MAX_DEGREE,
                    f"--degree must be in [1, {series.MAX_DEGREE}]")
    checks = {
        "fixpoint": [degree_check,
                     ("tol", lambda v: v > 0, "--tol must be > 0"),
                     ("max_iters", lambda v: v >= 1, "--max-iters must be >= 1")],
        "cascade": [("nmax", lambda v: 0 <= v <= cascade_mod.MAX_LEVEL,
                     f"--nmax must be in [0, {cascade_mod.MAX_LEVEL}]")],
        "attractor": [("generations", lambda v: 1 <= v <= 12,
                       "--generations must be in [1, 12]"),
                      ("points", lambda v: v == 0 or v >= 2 ** (cfg["generations"] + 6),
                       "--points must be 0 (auto) or at least 2^(generations+6)")],
        "ndcheck": [("levels", lambda v: v >= 1, "--levels must be >= 1"),
                    ("samples", lambda v: v >= 1000, "--samples must be >= 1000"),
                    degree_check],
        "manifold": [("depth", lambda v: 6 <= v <= cascade_mod.MAX_LEVEL,
                      f"--depth must be in [6, {cascade_mod.MAX_LEVEL}]"),
                     ("h", lambda v: v > 0, "--h must be > 0"),
                     ("shifts", lambda v: all(abs(t) < 0.5 for t in v),
                      "--shifts must each lie in (-0.5, 0.5)")],
        "bifdiag": [("tn", lambda v: v >= 2, "--tn must be >= 2"),
                    ("tmax", lambda v: cfg["tmin"] < v, "--tmin must be < --tmax"),
                    ("transient", lambda v: v >= 0, "--transient must be >= 0"),
                    ("keep", lambda v: v >= 1, "--keep must be >= 1")],
    }
    for key, ok, msg in checks.get(cmd, []):
        if key in cfg and not ok(cfg[key]):
            parser.error(msg)


def main(argv=None):
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    cmd = args.pop("command")
    config_path = args.pop("config", None)

    cfg = dict(_DEFAULTS[cmd])
    if config_path:
        try:
            cfg.update((key, _coerce(val, cfg[key]))
                       for key, val in _load_config(config_path).items() if key in cfg)
        except (OSError, ValueError) as exc:
            parser.error(f"bad config file: {exc}")
    timestamp = not args.pop("no_timestamp", False)
    cfg.update(args)
    _validate(parser, cmd, cfg)

    try:
        report, rows, header = _COMMANDS[cmd](cfg)
    except RenormLabError as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        err.update((k, getattr(exc, k)) for k in ("residual", "step", "true_period")
                   if getattr(exc, k, None) is not None)
        # the last iterate, when it is numeric (a point, an orbit or a
        # parameter) or a series, as its coefficients
        last = getattr(exc, "last", None)
        if isinstance(last, series.AnalyticUnimodal):
            last = last.coeffs
        if isinstance(last, (float, np.ndarray)):
            err["last"] = np.ravel(last).tolist()
        completed = getattr(exc, "completed", None)
        if completed and cfg.get("out"):
            _write_report({"error": err, "completed_prefix": list(completed)},
                          cfg["out"] + ".partial")
        sys.stdout.write(json.dumps(err, sort_keys=True) + "\n")
        return 1
    if timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _write_report(report, cfg.get("out"))
    if rows is not None and cfg.get("csv"):
        _write_csv(rows, header, cfg["csv"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
