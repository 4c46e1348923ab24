"""The benchmark's workloads: one researcher's session of experiments.

A session is a closed loop with one client: each experiment (an
*operation*) starts when the previous one has finished.  Every operation is
a call into a public renormlab function, either ``renormlab.cli.main`` with
``--no-timestamp --out <file>`` or a library function, and its output is
checked against the literature constants and the tolerances of
``tests/test_acceptance.py``.

Seed 0 gives the inputs documented in ``benchmark/README.md``.  Other seeds
jitter only inputs that leave the amount of work unchanged: the Lyapunov
sample parameters, the ``manifold --shifts`` magnitudes and the ``bifdiag``
range endpoints.  The benchmark generates those inputs; the library only
receives them.

This module imports renormlab only inside functions, so that ``run.py`` can
put the measured checkout's ``src/`` on ``sys.path`` first.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random

# Literature values: Briggs (1991), Math. Comp. 57, "A precise calculation
# of the Feigenbaum constants".
DELTA = 4.669201609102990
ALPHA = 2.502907875095893
R_INF = 3.569945671870945
LAMBDA = 1.0 / ALPHA

# Accuracy errors measured at the commit that introduced the benchmark.
# err_ratio_max divides each of a workload's errors by these and keeps the
# worst ratio, so it reads 1.0 there and its bound holds for every error.  The atom-ratio
# error is left out: it compares a generation-9 estimate with the limit
# constant, so it measures truncation, not how well the code computes.
SEED_ERRORS = {
    "interval": {"lambda_err": 2.400015741699235e-10,
                 "delta_op_err": 3.0685409768693717e-09,
                 "delta_cascade_err": 5.998351038982719e-06},
    "henon": {"delta_cascade_err": 2.0143808238337613e-05},
    "ndisk": {"nd_margin_min": 0.1682242707214917},
}
# nd_margin_min is better when higher, so its ratio is inverted.
HIGHER_IS_BETTER = {"nd_margin_min"}
# Operations whose inputs depend on the seed; the others repeat exactly.
JITTERED = {"manifold", "lyapunov", "bifdiag"}

# Workloads whose session_norm_s divides by the host's slowness (see
# reference.py).  ndisk's batched numpy work does not follow the drift of
# the reference kernels (its sessions varied 6.6% where the reference
# varied 17%), so dividing would only add the reference's noise.
NORMALISED = {"interval", "henon"}

OPERATOR_DEGREES = (20, 40, 80, 120)
# The CLI's least depth: 2.6 s instead of 14 s at the default depth 8, so a
# run holds several Henon sessions and the same code paths are still timed.
HENON_MANIFOLD_DEPTH = 6
LYAPUNOV_ITERS = 8000


class GateError(Exception):
    """An operation ran but its output misses a correctness gate."""


def _check(ok, message):
    if not ok:
        raise GateError(message)


def build_inputs(workload, seed):
    """The workload's generated inputs; seed 0 gives the documented ones."""
    rng = random.Random(seed)

    def jitter(at_seed0, lo, hi):
        return at_seed0 if seed == 0 else rng.uniform(lo, hi)

    if workload == "interval":
        return {
            "shift": jitter(0.05, 0.04, 0.06),
            "sink_u": [jitter(0.5, 0.35, 0.65) for _ in range(5)],
            "chaos_v": [jitter(0.0, 0.0, 0.5) for _ in range(50)],
            "tmin": jitter(2.9, 2.85, 2.95),
            "tmax": jitter(4.0, 3.9, 4.0),
        }
    if workload == "henon":
        return {
            "shift": jitter(0.05, 0.04, 0.06),
            "chaos_v": [jitter(0.0, 0.0, 0.5) for _ in range(4)],
            "tmin": jitter(0.3, 0.25, 0.35),
            "tmax": jitter(1.4, 1.3, 1.4),
        }
    if workload == "ndisk":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


class Session:
    """Runs one workload's operations and keeps their outputs and accuracy."""

    def __init__(self, workload, inputs, tmpdir):
        self.workload = workload
        self.inputs = inputs
        self.tmpdir = tmpdir
        self.accuracy = {}
        self.reports = {}      # op name -> report bytes and CSV rows written
        self._cascade = None

    def operations(self):
        """(name, callable) pairs in the order the session runs them."""
        if self.workload == "interval":
            return [("operator", self.operator),
                    ("cascade", lambda: self.cascade("logistic", 13)),
                    ("attractor", lambda: self.attractor("logistic", 9, 0.15)),
                    ("manifold", lambda: self.manifold("logistic", 8)),
                    ("lyapunov", self.lyapunov_logistic),
                    ("bifdiag", lambda: self.bifdiag("logistic"))]
        if self.workload == "henon":
            return [("cascade", lambda: self.cascade("henon", 9)),
                    ("attractor", lambda: self.attractor("henon", 6, 0.20)),
                    ("manifold", lambda: self.manifold("henon", HENON_MANIFOLD_DEPTH)),
                    ("lyapunov", self.lyapunov_henon),
                    ("bifdiag", lambda: self.bifdiag("henon"))]
        return [("ndcheck", lambda: self.ndcheck(2))]

    # -- command-line experiments ------------------------------------------

    def _cli(self, name, argv, csv=False):
        """Run one CLI command; returns its parsed report and all bytes written.

        ``bifdiag`` has no ``--out`` and prints its report, so the report is
        read from the captured standard output when ``csv`` is set.
        """
        from renormlab import cli

        args = list(argv) + ["--no-timestamp"]
        out = os.path.join(self.tmpdir, f"{name}.json")
        csv_path = os.path.join(self.tmpdir, f"{name}.csv")
        args += ["--csv", csv_path] if csv else ["--out", out]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(args)
        _check(code == 0, f"renormlab {' '.join(argv)} exited {code}: "
                          f"{printed.getvalue().strip()}")
        if csv:
            data = printed.getvalue().encode()
            with open(csv_path, "rb") as fh:
                csv_data = fh.read()
        else:
            with open(out, "rb") as fh:
                data = fh.read()
            csv_data = b""
        self.reports[name] = {"report_bytes": len(data),
                              "csv_rows": max(csv_data.count(b"\n") - 1, 0)}
        return json.loads(data), data + csv_data

    def cascade(self, family, nmax):
        rep, raw = self._cli("cascade", ["cascade", "--family", family,
                                         "--nmax", str(nmax)])
        d_last = rep["delta_estimates"][-1]
        err = abs(d_last - DELTA)
        _check(err <= 0.02 * DELTA, f"cascade delta {d_last} not within 2%")
        if family == "logistic":
            _check(abs(rep["t_inf"] - R_INF) <= 1e-9,
                   f"logistic t_inf {rep['t_inf']!r} not within 1e-9 of r_inf")
        self.accuracy["delta_cascade_err"] = err
        self._cascade = rep
        return raw

    def attractor(self, family, generations, rel_tol):
        rep, raw = self._cli("attractor", ["attractor", "--family", family,
                                           "--generations", str(generations)])
        counts = rep["atom_counts"]
        _check(counts == [2 ** m for m in range(generations + 1)],
               f"atom counts {counts}")
        ratio = rep["diameter_ratios"][-1]
        err = abs(ratio - LAMBDA)
        _check(err <= rel_tol * LAMBDA, f"atom ratio {ratio} not within {rel_tol:.0%}")
        self.accuracy["atom_ratio_err"] = err
        return raw

    def manifold(self, family, depth):
        s = self.inputs["shift"]
        rep, raw = self._cli("manifold", ["manifold", "--family", family,
                                          "--depth", str(depth),
                                          "--shifts", repr(-s), repr(s)])
        _check(abs(rep["b_value"]) <= 1e-5, f"b(psi0) = {rep['b_value']}")
        _check(rep["shift_check"] < 1e-5, f"shift deviation {rep['shift_check']}")
        grad = dict(rep["gradient"])["v0"]
        _check(abs(grad + 1.0) <= 0.05, f"db/dv0 = {grad}")
        return raw

    def bifdiag(self, family):
        tmin, tmax = self.inputs["tmin"], self.inputs["tmax"]
        rep, raw = self._cli("bifdiag", ["bifdiag", "--family", family,
                                         "--tmin", repr(tmin), "--tmax", repr(tmax),
                                         "--tn", "2000"], csv=True)
        rows = self.reports["bifdiag"]["csv_rows"]
        _check(rep["rows"] == rows > 0, f"report rows {rep['rows']}, csv rows {rows}")
        return raw

    def ndcheck(self, levels):
        rep, raw = self._cli("ndcheck", ["ndcheck", "--levels", str(levels)])
        _check(rep["all_passed"] and len(rep["levels"]) == levels,
               f"ndcheck passed {len(rep['levels'])} of {levels} levels")
        margins = [min(lv["check"]["disjoint_margin"], lv["check"]["inside_margin"])
                   for lv in rep["levels"]]
        _check(min(margins) > 1e-3, f"ndcheck margins {margins}")
        self.accuracy["nd_margin_min"] = min(margins)
        return raw

    # -- library experiments -----------------------------------------------

    def operator(self):
        from renormlab import renorm1d

        out, lam_errs, delta_errs = [], [], []
        for d in OPERATOR_DEGREES:
            fp = renorm1d.solve_fixed_point(degree=d)
            lead = renorm1d.linearize(fp.phi0).leading_eigenvalue
            _check(fp.residual < 1e-8, f"degree {d}: residual {fp.residual}")
            lam_errs.append(abs(fp.lam - LAMBDA))
            delta_errs.append(abs(lead - DELTA))
            _check(lam_errs[-1] <= 5e-4, f"degree {d}: lambda {fp.lam}")
            _check(delta_errs[-1] <= 0.02 * DELTA, f"degree {d}: eigenvalue {lead}")
            out.append([d, fp.lam, fp.residual, fp.newton_iters, lead])
        self.accuracy["lambda_err"] = max(lam_errs)
        self.accuracy["delta_op_err"] = max(delta_errs)
        return _canonical(out)

    def _lyapunov(self, fam, params):
        from renormlab import cascade

        return [cascade.lyapunov_exponent(fam, t, n_iter=LYAPUNOV_ITERS)
                for t in params]

    def lyapunov_logistic(self):
        """Criterion 7's scan, with parameters taken from the cascade report."""
        from renormlab import cascade

        if self._cascade is None:
            raise GateError("no cascade report to take parameters from")
        ts = [t for _, t in self._cascade["doubling_params"]]
        t_inf = self._cascade["t_inf"]
        sinks = [a + u * (b - a) for a, b, u in zip(ts[:5], ts[1:6], self.inputs["sink_u"])]
        window = 0.3
        chaos = [t_inf + window * (i + 1 - v) / 50
                 for i, v in enumerate(self.inputs["chaos_v"])]
        fam = cascade.logistic_family()
        sink_exp = self._lyapunov(fam, sinks)
        chaos_exp = self._lyapunov(fam, chaos)
        _check(all(v < 0 for v in sink_exp), f"sink-side exponents {sink_exp}")
        positive = sum(v > 0 for v in chaos_exp)
        _check(positive >= 0.6 * len(chaos_exp),
               f"only {positive}/{len(chaos_exp)} chaos-side exponents positive")
        return _canonical([sinks, sink_exp, chaos, chaos_exp])

    def lyapunov_henon(self):
        from renormlab import cascade

        if self._cascade is None:
            raise GateError("no cascade report to take parameters from")
        a_inf = self._cascade["t_inf"]
        hi = 1.3
        params = [a_inf + (hi - a_inf) * (k + 1 - v) / 4
                  for k, v in enumerate(self.inputs["chaos_v"])]
        exps = self._lyapunov(cascade.henon_family(), params)
        _check(all(math.isfinite(v) for v in exps), f"Henon exponents {exps}")
        return _canonical([params, exps])


def _canonical(values):
    return json.dumps(values, sort_keys=True).encode()


def digest(data):
    return hashlib.sha256(data).hexdigest()


def err_ratio_max(workload, accuracy):
    """The worst, over the workload's accuracy errors, of error/seed error.

    Each error is floored at 1e-16 so that an exact result still gives a
    positive ratio; a missing error (its operation failed) gives None.
    """
    ratios = []
    for name, ref in SEED_ERRORS[workload].items():
        if name not in accuracy:
            return None
        val = max(accuracy[name], 1e-16)
        ratios.append(ref / val if name in HIGHER_IS_BETTER else val / ref)
    return max(ratios)
