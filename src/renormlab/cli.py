"""Command-line front end: reproducible runs with JSON/CSV reports.

Subcommands: fixpoint, cascade, attractor, ndcheck, manifold, bifdiag.
Flags override values from an optional key=value config file; there is no
environment-variable configuration.  Reports are deterministic given the
same config (the timestamp field can be disabled for byte-identical runs),
and do not depend on what ran before in the process: commands in one
process share each family's cascade (see _family), whose levels are those
a fresh solve gives, bit for bit.
Computation failures, and output files that cannot be written, exit 1
with a machine-readable error object and leave no output file that the run
wrote; partial reports only ever appear with a .partial suffix.  Every
output file is written through _write.
"""

import argparse
import contextlib
import functools
import json
import math
import operator
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import attractor as attractor_mod
from . import cascade as cascade_mod
from . import persistence as persistence_mod
from . import renorm1d, renorm_nd, series
from .errors import EscapeError, LinearizationError, RenormLabError


class Option(NamedTuple):
    """One option of a subcommand: the flag --name and the config-file key name."""
    name: str
    type: object = str          # converts one flag or config-file value
    default: object = None
    help: str = None
    choices: tuple = None
    many: bool = False          # a list: flag values, or comma-separated in a config file
    check: tuple = None         # (ok(value, cfg), rule): ok may read the other options

    @property
    def flag(self):
        return "--" + self.name.replace("_", "-")

    def parse(self, text):
        """A config-file value, converted and checked against the choices like the flag."""
        if self.many:
            return [self.type(v) for v in text.split(",")]
        value = self.type(text)
        if self.choices and value not in self.choices:
            raise ValueError(f"{self.name} = {text!r} is not one of {', '.join(self.choices)}")
        return value

    def error(self, cfg):
        """The usage error of this option's value in the merged config, or None."""
        if self.check and not self.check[0](cfg[self.name], cfg):
            return f"{self.flag} {self.check[1]}"
        return None


class Command(NamedTuple):
    run: object                 # cfg -> (report, {file option: text chunks})
    help: str
    options: list


def _family(cfg):
    # bifdiag has no --b and takes the Henon family's own default
    b = cfg.get("b")
    return _built_family(cfg["family"], None if b is None else b.hex())


@functools.lru_cache(maxsize=8)
def _built_family(name, b_hex):
    """One family object per family and b in a process, so that its commands
    share the cascade run_cascade keeps for it.  b comes as float.hex, which
    tells -0.0 from 0.0 where == does not."""
    if name == "logistic":
        return cascade_mod.logistic_family()
    return cascade_mod.henon_family(**{} if b_hex is None else {"b": float.fromhex(b_hex)})


def _json(obj, **kw):
    """Strict JSON: a non-finite number, which json writes as NaN or Infinity, is null."""
    finite = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(finite, allow_nan=False, sort_keys=True, **kw)


def _write(path, chunks):
    """Write text chunks through a temporary file, so it is either whole or
    absent; the temporary file does not outlive a failure, and an OSError
    names path, not the temporary file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)


def _csv_line(fields):
    """One CSV line, byte for byte as csv.writer writes it: every field is an
    int, a float repr or "", so none needs quoting, and no line is one empty
    field."""
    return ",".join(map(str, fields)) + "\r\n"


def _csv(header, chunks):
    """CSV text: the header line, then chunks of whole lines."""
    yield _csv_line(header)
    yield from chunks


def _write_report(report, out):
    text = _json(report, indent=2) + "\n"
    if out:
        _write(out, [text])
    else:
        sys.stdout.write(text)


def _cmd_fixpoint(cfg):
    result = renorm1d.solve_fixed_point(degree=cfg["degree"], tol=cfg["tol"],
                                        max_iters=cfg["max_iters"])
    coeffs = result.phi0.coeffs.tolist()
    # a fixed point solved to a loose --tol may be too coarse to linearize
    try:
        lin = renorm1d.linearize(result.phi0)
        delta, unstable = lin.leading_eigenvalue, lin.pinned_expanding_count
    except LinearizationError:
        delta = unstable = None
    return {
        "lambda": result.lam,
        "delta": delta,
        "unstable_directions": unstable,
        "residual": result.residual,
        "newton_iters": result.newton_iters,
        "coeffs": coeffs,
    }, {"coeffs_out": [json.dumps(coeffs)]}


def _cmd_cascade(cfg):
    res = cascade_mod.run_cascade(_family(cfg), cfg["nmax"])
    d = res.delta_estimates
    rows = ((level, repr(t), repr(d[level - 1]) if 1 <= level <= len(d) else "")
            for level, t in enumerate(res.params))
    report = {
        "family": cfg["family"],
        "doubling_params": [[lvl, t] for lvl, t in enumerate(res.params)],
        "delta_estimates": list(res.delta_estimates),
        "t_inf": res.t_inf,
        "t_inf_error": res.t_inf_error,
    }
    return report, {"csv": _csv(("level", "t", "delta"), map(_csv_line, rows))}


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
    if not cfg["csv"]:
        return report, {}
    rows = ((a.generation, a.index, *map(repr, a.center.tolist()), repr(float(a.diameter)))
            for gen in tree.generations for a in gen)
    dim = tree.points.shape[1]
    return report, {"csv": _csv(("generation", "index", *(f"center_{i}" for i in range(dim)),
                                 "diameter"), map(_csv_line, rows))}


def _cmd_ndcheck(cfg):
    fp = renorm1d.solve_fixed_point(degree=cfg["degree"])
    reference = renorm_nd.DiskND(np.zeros(2), 0.8 * np.eye(2))
    levels = []
    cur = renorm_nd.standard_fct_map(2, fp.phi0)
    start = np.array([0.3, 0.5])
    for m in range(1, cfg["levels"] + 1):
        found = renorm_nd.search_renorm_disk(cur, start=start,
                                             verify_samples=cfg["samples"])
        # diagnostic only: how far this level sits from the standard form
        dist = renorm_nd.distance_to_standard(cur, fp.phi0, reference,
                                              cfg["samples"])
        levels.append({"level": m, "passed": found.found, "distance_to_standard": dist,
                       "check": found.check.to_json_dict()})
        if not found.found:
            break
        levels[-1]["disk"] = found.disk.to_json_dict()
        cur = renorm_nd.renormalize_nd(cur, found.disk)
        start = np.array([0.1, 0.1])
    return {"lambda": fp.lam, "levels": levels,
            "all_passed": all(lv["passed"] for lv in levels)}, {}


def _cmd_manifold(cfg):
    fam = _family(cfg)
    chart = persistence_mod.build_chart(fam, cfg["depth"])
    b0, grads = persistence_mod.chart_gradient(chart, [chart.v0, 2.0 * chart.v0])
    shift_dev = persistence_mod.verify_shift_property(fam, cfg["shifts"], chart.cascade)
    return {
        "family": cfg["family"],
        "depth": cfg["depth"],
        "b_value": b0,
        "gradient": [["v0", grads[0]], ["2*v0", grads[1]]],
        "shift_check": shift_dev,
    }, {}


def _t_window(cfg):
    """bifdiag's (tmin, tmax): each flag, or else the family's param_range end."""
    return tuple(fam_end if cfg[key] is None else cfg[key]
                 for key, fam_end in zip(("tmin", "tmax"), _family(cfg).param_range))


def _cmd_bifdiag(cfg):
    fam = _family(cfg)
    tmin, tmax = _t_window(cfg)
    ts = np.linspace(tmin, tmax, cfg["tn"])
    # all parameters step as one block of rows, base(x) + t * slope(x) from
    # one monomial table; an escaped row reads nan
    table = fam.direction

    def step(x):
        base, slope = table._evaluate(x, (fam.base, fam.slope))
        return base + ts[:, None] * slope

    starts = np.array([fam.start_at(t) for t in ts.tolist()]).reshape(ts.size, fam.dim)
    try:
        kept = cascade_mod.orbit(step, starts, cfg["transient"] + cfg["keep"], keep=cfg["keep"])[1]
    except EscapeError:                     # every orbit escaped
        kept = np.full((cfg["keep"], ts.size, fam.dim), np.nan)
    x, keep = kept[:, :, 0], cfg["keep"]
    # each column's least exact cycle s <= keep/2, x[s:] == x[:-s] bit for bit
    # (repr tells -0.0 from 0.0, == does not), 0 for none
    bits, period = kept.view(np.int64)[:, :, 0], np.zeros(ts.size, dtype=int)
    for s in range(keep // 2, 0, -1):
        period[(bits[s:] == bits[:-s]).all(axis=0)] = s

    def chunk(p, col, s):
        """The lines "t,x" of a column's kept points: those of its first s
        values, keep // s times over, then the first keep % s of them."""
        reps = list(map(repr, col[:s].tolist()))

        def lines(n):
            return p + ("\r\n" + p).join(reps[:n]) + "\r\n" if n else ""
        return lines(s) * (keep // s) + lines(keep % s)

    alive = np.flatnonzero(~np.isnan(x[-1]))      # the orbits that never escaped
    chunks = (chunk(repr(t) + ",", x[:, j], int(period[j]) or keep)
              for j, t in zip(alive.tolist(), ts[alive].tolist()))
    return {"rows": alive.size * keep, "family": cfg["family"],
            "t_range": [tmin, tmax]}, {"csv": _csv(("t", "x"), chunks)}


def finite(text):
    """The type of every float option: nan and inf are usage errors."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _within(lo, hi=None):
    """The check of a closed integer range, [lo, hi] or, without hi, [lo, inf)."""
    if hi is None:
        return (lambda v, _: v >= lo, f"must be >= {lo}")
    return (lambda v, _: lo <= v <= hi, f"must be in [{lo}, {hi}]")


_POSITIVE = (lambda v, _: v > 0, "must be > 0")

# Every option of every subcommand, declared once: the subparsers, the defaults,
# config-file parsing and the usage checks are all built from these rows.
_DEGREE = Option("degree", int, renorm1d.DEFAULT_DEGREE, check=_within(1, series.MAX_DEGREE))
_FAMILY = Option("family", default="logistic", choices=("logistic", "henon"))
_B = Option("b", finite, 0.3, "Henon dissipation")
_OUT = Option("out", help="JSON report file (default: stdout)")

_COMMANDS = {
    "fixpoint": Command(_cmd_fixpoint, "solve the doubling-renormalization fixed point", [
        _DEGREE,
        Option("tol", finite, renorm1d.DEFAULT_TOL, check=_POSITIVE),
        Option("max_iters", int, 25, check=_within(1)),
        _OUT,
        Option("coeffs_out", help="also write the bare coefficient array (*.coeffs.json)")]),
    "cascade": Command(_cmd_cascade, "doubling parameters, ratios, accumulation", [
        _FAMILY,
        Option("nmax", int, 10, check=_within(0, cascade_mod.MAX_LEVEL)),
        _B, _OUT,
        Option("csv", help="write (N, t_N, delta_N) rows")]),
    "attractor": Command(_cmd_attractor, "atom hierarchy at the accumulation parameter", [
        _FAMILY,
        Option("generations", int, 8, check=_within(2, attractor_mod.MAX_GENERATIONS)),
        Option("points", int, 0, "orbit points (0 = auto)",
               check=(lambda v, cfg: v == 0 or v >= 2 ** (cfg["generations"] + 6),
                      "must be 0 (auto) or at least 2^(generations+6)")),
        Option("t", finite, None, "parameter (default: computed accumulation)"),
        _B, _OUT,
        Option("csv", help="per-atom rows (generation, index, center, diameter)")]),
    "ndcheck": Command(_cmd_ndcheck, "renormalizability of the standard 2-D map, recursively", [
        _DEGREE._replace(default=20, help="series degree of the 1-D fixed point"),
        Option("levels", int, 4, "successive renormalizations to verify", check=_within(1)),
        Option("samples", int, 2048, check=_within(1000)),
        _OUT]),
    "manifold": Command(_cmd_manifold, "persistence chart: b, gradient, shift law", [
        _FAMILY,
        Option("depth", int, 8, check=_within(6, cascade_mod.MAX_LEVEL)),
        _B,
        Option("shifts", finite, (-0.05, 0.05), many=True,
               check=(lambda v, _: all(abs(t) < 0.5 for t in v), "must each lie in (-0.5, 0.5)")),
        _OUT]),
    "bifdiag": Command(_cmd_bifdiag, "bifurcation-diagram (t, x) sample CSV", [
        _FAMILY,
        Option("tmin", finite, None, "default: the family's param_range",
               check=(lambda _, cfg: operator.lt(*_t_window(cfg)), "must be < --tmax")),
        Option("tmax", finite, None, "default: the family's param_range"),
        Option("tn", int, 400, check=_within(2)),
        Option("transient", int, 400, check=_within(0)),
        Option("keep", int, 80, check=_within(1)),
        Option("csv", default="bifdiag.csv")]),
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
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS,
                            parents=[common], help=cmd.help)
        for opt in cmd.options:
            sp.add_argument(opt.flag, dest=opt.name, type=opt.type, choices=opt.choices,
                            nargs="+" if opt.many else None, help=opt.help)
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


def _settings(parser, argv):
    """The command, its config (defaults < config file < flags) and the timestamp switch."""
    args = vars(parser.parse_args(argv))
    cmd = _COMMANDS[args.pop("command")]
    cfg = {opt.name: opt.default for opt in cmd.options}
    config_path = args.pop("config", None)
    if config_path:
        try:
            given = _load_config(config_path)
            cfg.update((opt.name, opt.parse(given[opt.name]))
                       for opt in cmd.options if opt.name in given)
        except (OSError, ValueError) as exc:
            parser.error(f"bad config file: {exc}")
    timestamp = not args.pop("no_timestamp", False)
    cfg.update(args)
    return cmd, cfg, timestamp


def main(argv=None):
    parser = _build_parser()
    cmd, cfg, timestamp = _settings(parser, argv)
    for opt in cmd.options:
        msg = opt.error(cfg)
        if msg:
            parser.error(msg)

    written = []
    try:
        report, files = cmd.run(cfg)
        if timestamp:
            report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        # the files first: a report means every file is written
        for name, chunks in files.items():
            if cfg.get(name):
                _write(cfg[name], chunks)
                written.append(cfg[name])
        _write_report(report, cfg.get("out"))
    except (RenormLabError, OSError) as exc:
        # a failed run leaves none of its files behind
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
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
        # the error object on stdout is the run's outcome, whether or not
        # its partial report can be written
        if completed and cfg.get("out"):
            with contextlib.suppress(OSError):
                _write_report({"error": err, "completed_prefix": list(enumerate(completed))},
                              cfg["out"] + ".partial")
        sys.stdout.write(_json(err) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
