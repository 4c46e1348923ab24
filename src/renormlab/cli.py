"""Command-line front end: reproducible runs with JSON/CSV reports.

Subcommands: fixpoint, cascade, attractor, ndcheck, manifold, bifdiag.
Flags override values from an optional key=value config file; there is no
environment-variable configuration.  Reports are deterministic given the
same config (the timestamp field can be disabled for byte-identical runs),
and do not depend on what ran before in the process: commands in one
process share each family's deepest cascade (see _cascade), whose first
levels are those a fresh solve gives, bit for bit.
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
    if cfg["family"] == "logistic":
        return cascade_mod.logistic_family()
    # bifdiag has no --b and takes the Henon family's own default
    return cascade_mod.henon_family(**{"b": cfg["b"]} if "b" in cfg else {})


# the deepest cascade solved in this process, per (family, b.hex() or None
# for logistic): float.hex tells -0.0 from 0.0, where == does not
_CASCADES = {}


def _cascade(cfg, n_max):
    """The cascade of cfg's family to level n_max: the first levels of the
    one kept for it when that is deep enough, bit for bit a fresh solve's,
    else a fresh solve, kept in its place.  Kept orbits are read-only, as
    later commands read the same arrays; a failed solve keeps nothing."""
    key = (cfg["family"], None if cfg["family"] == "logistic" else cfg["b"].hex())
    kept = _CASCADES.get(key)
    if kept is not None and n_max < len(kept.params):
        return cascade_mod.cascade_result(
            *(v[:n_max + 1] for v in (kept.params, kept.orbits, kept.orbit_lows)))
    res = cascade_mod.run_cascade(_family(cfg), n_max)
    for part in res.orbits + res.orbit_lows:
        part.flags.writeable = False
    _CASCADES[key] = res
    return res


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


# bifdiag's numbers are written without a repr call each, byte for byte as
# repr writes them: the shortest decimal that reads back as x, the nearest of
# those if several, positional for 1e-4 <= |x| < 1e16.  Ryu (Adams, PLDI 2018)
# finds those digits with integer arithmetic.  With x = 4m 2^-e (m of 53
# bits), q = floor(e log10 5) - 1 and i = e - q, x and its rounding
# interval's bounds, scaled by 10^(q - e), are (4m + {0, +2, -2}) 5^i / 2^q;
# for |x| >= 1e-4, i <= 22, so the products are exact in two words.  In Ryu's
# common case, where the scaled x is not an integer, the digits are those of
# the scaled x without its last k, k the most that leave the scaled bounds
# apart, rounded to nearest.  A column with any other number (zero, |x| <
# 1e-4, |x| >= 2^50, non-finite, or in Ryu's general case, which takes in the
# powers of two, whose lower bound is nearer) is written by repr.
TEXT_BLOCK = 4096               # CSV lines made per block of bifdiag's text
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# per e of x = 4m 2^-e (m of 53 bits): Ryu's q = floor(e log10 5) - 1, and
# 5^i for i = e - q, also as a float times 2^-64
_RYU_Q = (np.arange(69) * 732923 >> 20) - 1
_RYU_F = 5 ** (np.arange(69) - _RYU_Q).astype(np.uint64)
_RYU_FS = _RYU_F * 2.0 ** -64


def _scaled(a):
    """Each float 1e-4 <= a < 2^50, a = 4m 2^-e with m of 53 bits, and the
    bounds of its rounding interval, scaled by 10^(q - e) with Ryu's q:
    e, q, the floors vr, vp and vm of (4m + {0, +2, -2}) 5^i / 2^q, i = e - q,
    and whether vr is not an integer, Ryu's common case."""
    bits = a.view(np.uint64)
    e = 1077 - (bits >> 52).view(np.int64)
    m = bits & (1 << 52) - 1 | 1 << 52
    q, f = _RYU_Q[e], _RYU_F[e]
    # m f as hi 2^64 + lo: lo wraps, exactly, and hi is m f 2^-64 - lo 2^-64
    # rounded to an integer, from floats 2^-10 or less apart from it
    lo = m * f
    hi = np.rint(m.astype(float) * _RYU_FS[e] - lo.astype(float) * 2.0 ** -64).astype(np.uint64)
    # in place, vr = floor(4 m f / 2^q) and twice the remainder of
    # m f / 2^(q - 2); (4m +- 2) 5^i is 2 mod 4, and q >= 2, so the bounds
    # are never integers
    shift = (q - 2).astype(np.uint64)
    hi <<= 64 - shift
    hi |= lo >> shift
    lo &= (1 << shift) - 1
    lo <<= 1
    vr, rem, f = hi.view(np.int64), lo.view(np.int64), f.view(np.int64)
    return e, q, vr, vr + (rem + f >> q - 1), vr + (rem - f >> q - 1), rem != 0


def _dropped(vp, vm, common):
    """How many digits Ryu drops: the most k for which a multiple of 10^k
    lies in (vm, vp]."""
    gap = vp - vm
    # the last four digits of vp, and the gap capped at 10^4, in int32
    low = (vp - vp // 10 ** 4 * 10 ** 4).astype(np.int32)
    cap = np.minimum(gap, 10 ** 4).astype(np.int32)
    k = sum(((low - low // p * p) < cap).view(np.int8) for p in (10, 100, 1000, 10000))
    k = k.astype(np.intp)
    more = np.flatnonzero((k == 4) & common)
    while more.size:
        # vp < 10^19: no multiple of 10^19 lies in (vm, vp]
        more = more[(k[more] < 18) & (vp[more] % _POW10[np.minimum(k[more] + 1, 18)] < gap[more])]
        k[more] += 1
    return k


def _shortest(a):
    """Ryu's digits of each float 1e-4 <= a < 2^50: whether its common case
    holds, the digits as a 17-digit integer padded with zeros on the right,
    their count n and the decimal point's position D: a is 0.d1d2... times
    10^D."""
    e, q, vr, vp, vm, common = _scaled(a)
    k = _dropped(vp, vm, common)
    scale = _POW10[k]
    v = vr // scale
    dropped = vr - v * scale
    # round up where the kept digits are vm's, or the dropped ones >= half
    v += (dropped >= vr - vm) | (2 * dropped >= scale)
    # vr has 18 or 19 digits; rounding up may carry into one more
    n = 18 + (vr >= 10 ** 18) - k
    n += v == _POW10[n]
    return common, v * _POW10[17 - n], n, n + k + q - e


@functools.lru_cache(maxsize=1)
def _text_tables():
    """_fields' tables: the 4-digit groups 0000 .. 9999 as words, and per
    key (digits kept, sign, D) the word masks of x's digits unshifted and
    shifted by one byte and the constant bytes, each (4, keys), and the
    text's length."""
    digit = np.arange(48, 58, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    # a row's 32 bytes: ",", the sign, "0." and zeros for D <= 0, the
    # digits from byte 7 with "." inserted at byte 7 + D for D > 0, "\r\n"
    lim, neg, d = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(1, 18), [0, 1], np.arange(-3, 17), indexing="ij"))
    p, at = np.arange(32), 7 + np.maximum(d, 0)
    const = np.zeros((len(d), 32), dtype=np.uint8)
    const[:, :4] = np.hstack([np.full_like(d, 44), 45 * neg, 48 * (d <= 0), 46 * (d <= 0)])
    const[:, 4:7] = 48 * (d <= -np.arange(1, 4))
    const[:, 25:27] = [13, 10]
    const[(p == at) & (d > 0)] = 46
    masks = [(p < np.minimum(at, 7 + lim)), (p > at) & (p < 8 + lim)]
    return (quads.reshape(-1, 4).view(np.uint32).ravel().astype(np.uint64),
            *(a.view(np.uint64).T.copy() for a in [m.astype(np.uint8) * 255 for m in masks] + [const]),
            (const != 0).sum(axis=1) + lim.ravel())


def _fields(x, out):
    """Write "," and x as repr writes it, then CRLF, for each float x in
    Ryu's common case with 1e-4 <= |x| < 2^50, into its row of out, (len(x),
    4) uint64 NUL-padded; returns the texts' lengths and where they were
    written.  Other rows hold some text or none."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 2.0 ** 50)
    if not fast.any():
        return np.zeros(len(x), dtype=np.intp), fast
    common, v, n, d = _shortest(np.where(fast, a, 1 / 3))
    quads, keep, shifted, const, lengths = _text_tables()
    key = (np.maximum(n, d + 1) - 1) * 40 + (x < 0) * 20 + d + 3
    # the digits from byte 7: the leading one, then four groups of four
    lead = v // 10 ** 16
    v -= lead * 10 ** 16
    hi = v // 10 ** 8
    lo = v - hi * 10 ** 8
    lead = (lead + 48).astype(np.uint64)
    hi4, lo4 = hi // 10 ** 4, lo // 10 ** 4
    x1 = quads[hi4] | quads[hi - hi4 * 10 ** 4] << 32
    x2 = quads[lo4] | quads[lo - lo4 * 10 ** 4] << 32
    out[:, 0] = lead << 56 & keep[0][key] | const[0][key]
    out[:, 1] = x1 & keep[1][key] | (x1 << 8 | lead) & shifted[1][key] | const[1][key]
    out[:, 2] = x2 & keep[2][key] | (x2 << 8 | x1 >> 56) & shifted[2][key] | const[2][key]
    out[:, 3] = x2 >> 56 & shifted[3][key] | const[3][key]
    return lengths[key], fast & common


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
    res = _cascade(cfg, cfg["nmax"])
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
        t = _cascade(cfg, max(gens + 2, 8)).t_inf
    pts = cfg.get("points") or 2 ** (gens + 9)
    tree = attractor_mod.build_atoms(fam, t, gens, pts)
    diams = attractor_mod.atom_diameters(tree)
    ratios, lam_est = attractor_mod.scaling_ratios(diams)
    report = {
        "family": cfg["family"],
        "parameter": t,
        "generations": gens,
        "orbit_points": pts,
        "atom_counts": [len(lo) for lo in tree.lo],
        "max_diameters": diams,
        "diameter_ratios": ratios,
        "lambda_estimate": lam_est,
    }
    if not cfg["csv"]:
        return report, {}
    rows = ((m, p, *map(repr, c), repr(d))
            for m, (lo, hi) in enumerate(zip(tree.lo, tree.hi))
            for p, (c, d) in enumerate(zip(((lo + hi) / 2).tolist(),
                                           attractor_mod.box_diameters(lo, hi).tolist())))
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
    chart = persistence_mod.build_chart(fam, _cascade(cfg, cfg["depth"]))
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
    # (repr tells -0.0 from 0.0, == does not), 0 for none: s walks upward
    # over the columns with no cycle yet, in full only where x[s] == x[0]
    bits, period = kept.view(np.int64)[:, :, 0], np.zeros(ts.size, dtype=int)
    pending = np.arange(ts.size)
    for s in range(1, keep // 2 + 1):
        near = pending[bits[s, pending] == bits[0, pending]]
        period[near[(bits[s:, near] == bits[:-s, near]).all(axis=0)]] = s
        pending = pending[period[pending] == 0]

    alive = np.flatnonzero(~np.isnan(x[-1]))      # the orbits that never escaped
    return {"rows": alive.size * keep, "family": cfg["family"],
            "t_range": [tmin, tmax]}, {"csv": _csv(("t", "x"), _bifdiag_lines(
                ts[alive], x, alive, np.where(period[alive] > 0, period[alive], keep)))}


def _bifdiag_lines(ts, x, cols, counts):
    """bifdiag's CSV lines "t,x" for the columns cols of x, the kept points
    (keep, columns), with t from ts: the lines of each column's first
    counts[j] values, keep // counts[j] times over, then the first
    keep % counts[j] of them.

    Made a block of columns at a time, in buffers kept for the call: each
    line's t text is gathered, each value's text formed by _fields, and one
    pass drops the padding.  A column whose t or any value _fields leaves
    out is written by repr."""
    keep = len(x)
    tw = np.empty((len(ts), 4), dtype=np.uint64)
    tlen, tfast = _fields(ts, tw)
    # t's text alone, one byte down: its "," and "\r\n" drop out
    tw = (tw[:, :3] >> 8) | (tw[:, 1:] << 56)
    tlen -= 3
    ends = np.cumsum(counts)
    buf = np.empty((max(TEXT_BLOCK, keep), 7), dtype=np.uint64)
    c0 = start = 0
    while c0 < len(ts):
        c1 = max(c0 + 1, int(np.searchsorted(ends, start + TEXT_BLOCK, side="right")))
        stop = int(ends[c1 - 1])
        rows, n = buf[:stop - start], counts[c0:c1]
        first = ends[c0:c1] - n - start     # each column's first line in the block
        col = np.repeat(np.arange(c0, c1), n)             # each line's column
        values = x[np.arange(stop - start) - first[col - c0], cols[col]]
        xlen, fast = _fields(values, rows[:, 3:])
        fast = np.logical_and.reduceat(fast, first) & tfast[c0:c1]
        if fast.any():
            np.take(tw, col, axis=0, out=rows[:, :3])
            text = rows.tobytes().translate(None, b"\0").decode("ascii")
            # the offsets of each column's first line, of its line counts
            # lines on, and of its line keep % counts lines on
            at = np.concatenate([[0], np.cumsum(tlen[col] + xlen)])
            a, b, c = (at[first + d].tolist() for d in (0, n, keep % n))
        else:
            a = b = c = [0] * len(n)
        # a run of columns without a cycle is one slice of the text
        plain = fast & (n == keep)
        runs = np.flatnonzero(~plain | ~np.concatenate([[False], plain[:-1]])).tolist()
        t, s, first, plain, fast = (v.tolist() for v in (ts[c0:c1], n, first, plain, fast))
        for i, j in zip(runs, runs[1:] + [len(s)]):
            if plain[i]:
                yield text[a[i]:b[j - 1]]
            elif fast[i]:
                yield text[a[i]:b[i]] * (keep // s[i]) + text[a[i]:c[i]]
            else:
                p = repr(t[i]) + ","
                reps = list(map(repr, values[first[i]:first[i] + s[i]].tolist()))
                rest, sep = keep % s[i], "\r\n" + p
                yield (p + sep.join(reps) + "\r\n") * (keep // s[i]) + (
                    p + sep.join(reps[:rest]) + "\r\n" if rest else "")
        # the block's text goes before the next block's is made
        c0, start, text = c1, stop, None


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
