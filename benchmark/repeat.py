"""Repeat the benchmark over seeds and check that it is steady.

    python3 benchmark/repeat.py [--trace] [--write FILE]

Runs ``run.py`` with seeds 1-10 on every workload of BENCHMARK.json, then
prints, for every end-to-end metric, the median, the quartiles
(``statistics.quantiles``, n=4) and the spread (quartile distance over the
median) next to the metric's bound from BENCHMARK.json.  ``--trace`` adds
one traced run per workload; ``--write`` stores everything as a baseline
file.  Exits 1 if any run was not correct or any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if med else None,
            "values": values}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--trace", action="store_true")
    p.add_argument("--write")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    out = {}
    for wl in workloads:
        results, records = [], []
        for seed in SEEDS:
            record, result = one_run(wl, seed, bench["run_seconds"], 0)
            ok = ok and result["correct"]
            results.append(result)
            records.append(record)
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"sessions={record['sessions']} load={record['loadavg_start']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"runs": len(SEEDS), "seeds": [r["seed"] for r in records],
                 "sessions": [r["sessions"] for r in records],
                 "end_to_end": {}, "detail": {}}
        for name in bounds:
            s = summary([r["metrics"][name]["value"] for r in results])
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] <= bounds[name] / 3 else "  > bound/3"
            if s["spread"] > bounds[name]:
                ok, flag = False, "  > bound"
            print(f"  {name:18s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bounds[name]}{flag}")
        for key in records[0]["detail"]:
            vals = [r["detail"][key] for r in records]
            entry["detail"][key] = {k: v for k, v in summary(vals).items() if k != "values"}
        if args.trace:
            record, result = one_run(wl, SEEDS[0], bench["run_seconds"], 1)
            ok = ok and result["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"  traced: correct={result['correct']} overhead_s="
                  f"{entry['per_layer'].get('trace.overhead_s')}")
        entry["versions"] = records[0].get("versions")
        entry["src_sha256"] = records[0]["src_sha256"]
        entry["git_commit"] = records[0]["git_commit"]
        out[wl] = entry
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
