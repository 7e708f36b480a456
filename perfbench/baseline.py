#!/usr/bin/env python3
"""Records or compares benchmark baselines: medians and quartiles per metric.

    python3 perfbench/baseline.py record --out perfbench/baselines/x.json \\
        [--workloads open-batch,grow] [--seeds 1-10]
    python3 perfbench/baseline.py compare perfbench/baselines/x.json \\
        [--workloads ...] [--seeds 1-10]

`record` runs every workload once per seed (untraced) and writes, for each
end-to-end metric, the median, quartiles and spread (interquartile range
over median) of the values, plus the per-layer metrics of one traced run.
`compare` runs the same and reports, per workload and metric, the new
median against the baseline's and whether it is worse by more than the
metric's bound in BENCHMARK.json. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed,
                                                        proc.stderr[-4000:]))
    provenance = next((json.loads(l)["provenance"] for l in lines
                       if l.startswith('{"provenance"')), {})
    return provenance, json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
        med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def measure(spec, workloads, seeds):
    out = {}
    provenance = {}
    for w in workloads:
        values = {}
        failed = 0
        for seed in seeds:
            prov, report = run_once(w, seed, spec["run_seconds"])
            provenance = provenance or prov
            failed += report["failed"] + (0 if report["correct"] else 1)
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (w, seed), file=sys.stderr, flush=True)
        out[w] = {"failed": failed,
                  "metrics": {k: summarize(v) for k, v in values.items()}}
    return provenance, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("record", "compare"))
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("--out")
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    provenance, results = measure(spec, workloads, seeds)

    if args.mode == "record":
        # One traced run per workload, for the per-layer picture.
        for w in workloads:
            _, report = run_once(w, seeds[0], spec["run_seconds"], trace=1)
            results[w]["per_layer"] = {
                k: m["value"] for k, m in report["metrics"].items()}
        doc = {"provenance": provenance, "run_seconds": spec["run_seconds"],
               "seeds": seeds, "workloads": results}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for w, r in results.items():
            for name, s in r["metrics"].items():
                print("%-15s %-24s median %-12.6g spread %.4f" % (
                    w, name, s["median"], s["spread"]))
        return 0

    with open(args.baseline) as fh:
        base = json.load(fh)
    worse = 0
    for m in spec["end_to_end"]:
        for w in workloads:
            old = base["workloads"][w]["metrics"][m["name"]]["median"]
            now = results[w]["metrics"][m["name"]]
            new = now["median"]
            change = (new - old) / old if old else 0.0
            regress = -change if m["better"] == "higher" else change
            flag = "WORSE" if regress > m["bound"] else "ok"
            worse += flag == "WORSE"
            print("%-15s %-24s %12.6g -> %-12.6g %+7.2f%%  spread %.4f  %s" % (
                w, m["name"], old, new, 100 * change, now["spread"], flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
