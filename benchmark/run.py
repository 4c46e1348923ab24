"""renormlab benchmark: one researcher's session of experiments per run.

    python3 benchmark/run.py --workload interval --seed 0 --seconds 42 --trace 0
    python3 benchmark/run.py --workload all      # every metric of every workload

A run measures the checkout this file sits in: it imports ``src/renormlab``
from there, never an installed copy.  Each session runs in a fresh Python
process (a closed loop with one client), and the run starts sessions while
one more still fits in ``--seconds``, at least one; metrics are medians
over the sessions.  ``session_norm_s`` is a session's wall time scaled by
how fast fixed reference work ran between its operations (see
``reference.py``), so that the host's drift cancels.  ``setup_s`` is the
median over several fresh processes of the time from process start to
renormlab imported and inputs built.

With ``--trace 1`` the run also makes one traced session in its own process
and reports the per-layer numbers; traced outputs must be bit-identical to
the untraced ones.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the full record (every per-operation time and accuracy value,
failures with their exception types, versions and host load).
``--workload all`` prints every metric of the three workloads and exits 1
if any operation failed a gate.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("interval", "henon", "ndisk")
SETUP_BATCH = 2              # set-up-only processes before each session and after the last
DEADLINE_S = 170.0          # a run must end within 180 s
OUT_DIR = os.path.join(ROOT, ".bench_out")
REF_DIR = os.path.join(ROOT, ".bench_ref")


# ---------------------------------------------------------------------------
# child processes: setup, one session, one traced session

def child_main(args):
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import renormlab.cli  # noqa: F401  (imports every layer)
    import session as session_mod

    inputs = session_mod.build_inputs(args.workload, args.seed)
    ready_at = time.monotonic()
    result = {"ready_at": ready_at}
    if args.child == "setup":
        print(json.dumps(result))
        return 0

    import numpy as np
    import resource

    import reference

    tracer = None
    if args.child == "traced":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    os.makedirs(OUT_DIR, exist_ok=True)
    ops = []
    slowness = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        sess = session_mod.Session(args.workload, inputs, tmp)
        for name, fn in sess.operations():
            slowness += reference.sample()
            t0 = time.perf_counter()
            try:
                raw = tracer.operation(name, fn) if tracer else fn()
            except (Exception, SystemExit) as exc:
                raw = None
                traceback.print_exc()
                rec = {"error": type(exc).__name__, "message": str(exc)[:300]}
            elapsed = time.perf_counter() - t0
            if raw is not None:
                rec = {"digest": session_mod.digest(raw)}
            rec.update(name=name, s=elapsed)
            ops.append(rec)
        slowness += reference.sample()
    session_s = sum(op["s"] for op in ops)
    slow = sum(slowness) / len(slowness)
    result.update(
        ops=ops,
        session_s=session_s,
        slowness=slow,
        session_norm_s=session_s / slow if args.workload in session_mod.NORMALISED
        else session_s,
        accuracy=sess.accuracy,
        err_ratio_max=session_mod.err_ratio_max(args.workload, sess.accuracy),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": platform.python_version(), "numpy": np.__version__,
                  "blas": _blas(np)},
    )
    if tracer:
        unrestored = tracer.uninstall()
        layers = tracer.layer_metrics(sess.reports)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.dump(), "notes": tracer.notes}, fh)
        result.update(layers=layers, spans=len(tracer.spans), bindings=tracer.bindings,
                      problems=tracer.problems(result["session_s"])
                      + [f"binding not restored: {b}" for b in unrestored])
    print(json.dumps(result))
    return 0


def _blas(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):    # show_config's layout differs between versions
        return "unknown"


# ---------------------------------------------------------------------------
# the run: spawn children, check outputs, aggregate

def _spawn(args, child, deadline):
    cmd = [sys.executable, os.path.abspath(__file__), "--child", child,
           "--workload", args.workload, "--seed", str(args.seed)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        return started, None, "Timeout"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return started, None, f"ChildExit{proc.returncode}"
    try:
        return started, json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return started, None, "BadChildOutput"


def _source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or None


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _reference_key(src_digest, versions):
    """Names the code that made a report: the source, the session's inputs
    and the numeric stack, so that only runs of the same ones are compared."""
    h = hashlib.sha256(src_digest.encode())
    with open(os.path.join(HERE, "session.py"), "rb") as fh:
        h.update(fh.read())
    h.update(json.dumps(versions, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _check_reference(workload, seed, key, ops):
    """Fail an operation whose report differs from the first run of this code."""
    import session as session_mod

    os.makedirs(REF_DIR, exist_ok=True)
    path = os.path.join(REF_DIR, f"{key}-{workload}.json")
    refs = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    changed = False
    for op in ops:
        if "digest" not in op:
            continue
        key = f"{op['name']}@{seed}" if op["name"] in session_mod.JITTERED else op["name"]
        if key not in refs:
            refs[key] = op["digest"]
            changed = True
        elif refs[key] != op["digest"]:
            op["error"] = "ReportChanged"
            op["message"] = "report differs from the first run of this source"
    if changed:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)


def _sample_setup(args, deadline, setup, failures):
    """Time SETUP_BATCH set-up-only processes.  Batches are taken between
    sessions, so setup_s samples the host across the run, not one moment."""
    for _ in range(SETUP_BATCH):
        started, res, err = _spawn(args, "setup", deadline)
        if res:
            setup.append(res["ready_at"] - started)
        else:
            failures.append({"op": "setup", "error": err})


def run_workload(args, bench):
    deadline = time.monotonic() + DEADLINE_S
    record = {"workload": args.workload, "seed": args.seed,
              "git_commit": _git_commit(), "src_sha256": _source_digest(),
              "nproc": os.cpu_count(), "loadavg_start": _loadavg()}
    failures, setup, sessions = [], [], []
    measure_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        _sample_setup(args, deadline, setup, failures)
        started, res, err = _spawn(args, "session", deadline)
        if res is None:
            failures.append({"op": "session", "error": err})
            break
        setup.append(res["ready_at"] - started)
        sessions.append(res)
        # start another session only while one more as long as the last
        # (with its set-up samples) still fits in --seconds, and only while
        # it (and the traced session) can finish well before the deadline
        last = time.monotonic() - t0
        now = time.monotonic()
        if now - measure_start + last > args.seconds:
            break
        if deadline - now < 1.5 * last * (2 if args.trace else 1):
            break
    _sample_setup(args, deadline, setup, failures)

    traced = None
    if args.trace:
        started, traced, err = _spawn(args, "traced", deadline)
        if traced is None:
            failures.append({"op": "traced", "error": err})

    # every failed process counts once in attempted, and so does every
    # operation and the trace self-check, so failed never exceeds attempted
    attempted = len(failures)

    # byte-identity: every session against the first, the first against
    # the reference store, the traced session against the untraced one
    if sessions:
        first = {op["name"]: op.get("digest") for op in sessions[0]["ops"]}
        key = _reference_key(record["src_sha256"], sessions[0]["versions"])
        _check_reference(args.workload, args.seed, key, sessions[0]["ops"])
        others = sessions[1:] + ([traced] if traced else [])
        for res in others:
            for op in res["ops"]:
                if "digest" in op and op["digest"] != first.get(op["name"]):
                    op["error"] = "TraceChangedOutput" if res is traced else "ReportChanged"
                    op["message"] = "report differs from the first session of this run"
    for res in sessions + ([traced] if traced else []):
        for op in res["ops"]:
            attempted += 1
            if "error" in op:
                failures.append({"op": op["name"], "error": op["error"],
                                 "message": op.get("message", "")})
    if traced:
        attempted += 1
        if traced["problems"]:
            failures.append({"op": "trace", "error": "TraceCheck",
                             "message": "; ".join(traced["problems"])})
    record["loadavg_end"] = _loadavg()
    record["sessions"] = len(sessions)
    record["setup_samples"] = len(setup)
    if sessions:
        record["versions"] = sessions[0]["versions"]

    detail = _detail(sessions, setup, attempted, failures)
    correct = not failures and bool(sessions) and (traced is not None or not args.trace)
    names = bench["per_layer" if args.trace else "end_to_end"]
    values = detail
    if args.trace:
        values = _layers(sessions, traced) if sessions and traced else {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names if values.get(m["name"]) is not None}
    record.update(detail=detail, failures=failures)
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": len(failures), "metrics": metrics}, record


def _median(values):
    return statistics.median(values) if values else None


def _detail(sessions, setup, attempted, failures):
    """Every per-workload metric of the README, as medians over the sessions."""
    d = {"session_norm_s": _median([s["session_norm_s"] for s in sessions]),
         "session_s": _median([s["session_s"] for s in sessions]),
         "slowness": _median([s["slowness"] for s in sessions]),
         "setup_s": _median(setup),
         "peak_rss_mb": _median([s["peak_rss_mb"] for s in sessions]),
         "failed_share": len(failures) / max(attempted, 1)}
    if sessions:
        d["err_ratio_max"] = sessions[0]["err_ratio_max"]
        for op in sessions[0]["ops"]:
            d[f"{op['name']}_s"] = _median(
                [o["s"] for s in sessions for o in s["ops"] if o["name"] == op["name"]])
        d.update(sessions[0]["accuracy"])
    return d


def _layers(sessions, traced):
    import tracer as tracer_mod

    layers = dict(traced["layers"])
    untraced = _median([s["session_s"] for s in sessions])
    for op in tracer_mod.OPERATIONS:
        times = [o["s"] for s in sessions for o in s["ops"] if o["name"] == op]
        layers[f"op.{op}.s"] = _median(times) or 0.0
    layers["trace.session_s"] = traced["session_s"]
    layers["trace.overhead_s"] = traced["session_s"] - untraced
    layers["trace.spans"] = traced["spans"]
    layers["trace.bindings"] = traced["bindings"]
    return layers


UNITS = {"session_norm_s": "s", "session_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "failed_share": "ratio", "err_ratio_max": "ratio", "slowness": "ratio",
         "lambda_err": "abs", "delta_op_err": "abs", "delta_cascade_err": "abs",
         "atom_ratio_err": "abs", "nd_margin_min": "chart"}


def run_all(args, bench):
    """Every end-to-end metric of every workload; exit 1 if any gate fails."""
    ok = True
    for wl in WORKLOADS:
        sub = argparse.Namespace(**{**vars(args), "workload": wl})
        result, record = run_workload(sub, bench)
        ok = ok and result["correct"]
        print(f"== {wl}  (seed {args.seed}, {record['sessions']} sessions, "
              f"src {record['src_sha256'][:12]}, commit {record['git_commit']})")
        for key, val in record["detail"].items():
            unit = UNITS.get(key, "s")
            print(f"  {key:20s} {val!r:>24} {unit}")
        for f in record["failures"]:
            print(f"  FAILED {f['op']}: {f['error']} {f.get('message', '')}")
        if args.trace:
            for key, val in result["metrics"].items():
                print(f"  {key:44s} {val['value']!r:>24} {val['unit']}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "session", "traced"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "renormlab", "__init__.py")):
        print(f"no renormlab source under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    sys.path.insert(0, HERE)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload == "all":
        return run_all(args, bench)
    result, record = run_workload(args, bench)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
