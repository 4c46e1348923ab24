"""Outside-in layer trace: wraps renormlab's public functions from outside.

Each wrapped call records a span (name, start, end, parent span, operation,
raised) in memory; counts that only a result or an argument can give, such
as Newton iterations or orbit periods, are noted at the same boundary.
Nothing in renormlab is edited: the wrappers are bound over every module
attribute that holds the original function, because ``attractor`` and
``persistence`` import ``run_cascade`` by name, and are all restored by
``uninstall``.  Per-step calls such as ``Map1D.__call__`` are never
wrapped; ``MapND.__call__`` is, because it is batched.  No wrapped function
calls itself, so a name's span times add up without double counting.

No wrapped function is reached from ``bifdiag``'s worker threads (they
iterate ``Map1D``/``Henon`` only), so one call stack serves the process.
"""

import functools
import inspect
import sys
import time

# (module, attribute) pairs that are wrapped; "MapND.__call__" is a method.
TARGETS = (
    ("renorm1d", "solve_fixed_point"), ("renorm1d", "linearize"),
    ("cascade", "run_cascade"), ("cascade", "find_doubling_bifurcation"),
    ("cascade", "periodic_orbit"), ("cascade", "orbit_multiplier"),
    ("cascade", "lyapunov_exponent"),
    ("attractor", "build_atoms"),
    ("persistence", "persistence_a"), ("persistence", "build_chart"),
    ("persistence", "chart_gradient"), ("persistence", "verify_shift_property"),
    ("renorm_nd", "search_renorm_disk"), ("renorm_nd", "attractor_cloud"),
    ("renorm_nd", "check_renormalizable"), ("renorm_nd", "renormalize_nd"),
    ("renorm_nd", "distance_to_standard"), ("renorm_nd", "MapND.__call__"),
    ("cli", "main"),
)

# Commands whose cli.main self time is reported on its own.
CLI_COMMANDS = ("cascade", "attractor", "manifold", "bifdiag", "ndcheck")
OPERATIONS = ("operator", "cascade", "attractor", "manifold", "lyapunov",
              "bifdiag", "ndcheck")


def span_name(module, attr):
    return f"{module}.{attr.replace('.__call__', '.call')}"


def _note_solve(notes, args, result):
    notes["renorm1d.newton_iters"] += result.newton_iters


def _note_periodic_orbit(notes, args, result):
    key = "cascade.periodic_orbit.max_period"
    notes[key] = max(notes[key], args["period"])


def _note_build_atoms(notes, args, result):
    notes["attractor.orbit_points"] += args["n_points"]
    notes["attractor.box_pairs"] += sum(2 ** m * (2 ** m - 1) // 2
                                        for m in range(args["generations"] + 1))


def _note_search(notes, args, result):
    notes["renorm_nd.disk_candidates"] += result.tried


def _note_refit(notes, args, result):
    key = "renorm_nd.fit_residual_max"
    notes[key] = max(notes[key], result.fit_residual)


def _note_mapnd(notes, args, result):
    pts = args["pts"]
    single = getattr(pts, "ndim", 1) == 1
    notes["renorm_nd.MapND.call.points"] += 1 if single else len(pts)
    notes["renorm_nd.MapND.call.single_point_calls"] += single


NOTES = {
    "renorm1d.solve_fixed_point": _note_solve,
    "cascade.periodic_orbit": _note_periodic_orbit,
    "attractor.build_atoms": _note_build_atoms,
    "renorm_nd.search_renorm_disk": _note_search,
    "renorm_nd.renormalize_nd": _note_refit,
    "renorm_nd.MapND.call": _note_mapnd,
}
NOTE_KEYS = ("renorm1d.newton_iters", "cascade.periodic_orbit.max_period",
             "attractor.orbit_points", "attractor.box_pairs",
             "renorm_nd.disk_candidates", "renorm_nd.fit_residual_max",
             "renorm_nd.MapND.call.points",
             "renorm_nd.MapND.call.single_point_calls")


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, raised]
        self.notes = dict.fromkeys(NOTE_KEYS, 0)
        self.op = None
        self._stack = []
        self._bindings = []      # (owner, attribute, original)

    def _open(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def operation(self, name, fn):
        """Run one benchmark operation as a top-level span."""
        self.op = name
        rec = self._open(f"op.{name}")
        try:
            return fn()
        except BaseException:
            rec[5] = True
            raise
        finally:
            self._close(rec)
            self.op = None

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                self._close(rec)
            if note:
                note(self.notes, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == "renormlab" or k.startswith("renormlab.")]
        for module, attr in TARGETS:
            owner = sys.modules[f"renormlab.{module}"]
            if attr == "MapND.__call__":
                cls = owner.MapND
                orig = cls.__dict__["__call__"]
                self._bindings.append((cls, "__call__", orig))
                setattr(cls, "__call__", self._wrap(span_name(module, attr), orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(span_name(module, attr), orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._bindings.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        """Restore every binding; returns the ones that did not restore."""
        for owner, key, orig in self._bindings:
            setattr(owner, key, orig)
        return [f"{getattr(o, '__name__', o)}.{k}" for o, k, orig in self._bindings
                if (vars(o).get(k) is not orig)]

    @property
    def bindings(self):
        return len(self._bindings)

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def problems(self, session_s):
        """Consistency checks of the recorded spans against the session time."""
        out = []
        top = 0.0
        for i, (name, start, end, parent, op, raised) in enumerate(self.spans):
            if end is None or end < start:
                out.append(f"span {i} ({name}) never closed")
                return out
            if parent < 0:
                top += end - start
                if not name.startswith("op."):
                    out.append(f"span {i} ({name}) outside any operation")
            elif not (self.spans[parent][1] <= start and end <= self.spans[parent][2]):
                out.append(f"span {i} ({name}) not inside its parent")
        n_ops = sum(s[3] < 0 for s in self.spans)
        if abs(top - session_s) > 1e-3 * max(n_ops, 1):
            out.append(f"operation spans cover {top:.6f} s of a {session_s:.6f} s session")
        if abs(sum(self.self_times()) - top) > 1e-6 * max(top, 1.0):
            out.append("self times do not add up to the operation spans")
        return out

    def layer_metrics(self, reports):
        """Per-layer numbers of the traced session, keyed as in BENCHMARK.json.

        ``reports`` maps each command the session ran to the report bytes and
        CSV rows it wrote.
        """
        selfs = self.self_times()
        m = {}
        for module, attr in TARGETS:
            name = span_name(module, attr)
            m[f"{name}.s"] = 0.0
            m[f"{name}.self_s"] = 0.0
            m[f"{name}.calls"] = 0
            m[f"{name}.raised"] = 0
        for op in CLI_COMMANDS:
            m[f"cli.{op}.self_s"] = 0.0
        for i, (name, start, end, parent, op, raised) in enumerate(self.spans):
            if name.startswith("op."):
                continue
            m[f"{name}.s"] += end - start
            m[f"{name}.self_s"] += selfs[i]
            m[f"{name}.calls"] += 1
            m[f"{name}.raised"] += raised
            if name == "cli.main" and op in CLI_COMMANDS:
                m[f"cli.{op}.self_s"] += selfs[i]
        calls = m["cascade.periodic_orbit.calls"]
        m["cascade.periodic_orbit.useful_ratio"] = (
            (calls - m["cascade.periodic_orbit.raised"]) / calls if calls else 0.0)
        m.update(self.notes)
        m["cli.report_bytes"] = sum(r["report_bytes"] for r in reports.values())
        m["cli.csv_rows"] = sum(r["csv_rows"] for r in reports.values())
        return m

    def dump(self):
        """Spans relative to the first one, for writing out after the run."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, s - t0, e - t0, p, op, r] for n, s, e, p, op, r in self.spans]
