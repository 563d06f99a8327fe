#!/usr/bin/env python3
"""Runs the benchmark over ten seeds and reports each metric's spread.

    python3 perfbench/record.py [--write --git-sha SHA]

Every workload in BENCHMARK.json runs once per seed, seeds 11 to 20. The
workloads take turns seed by seed, so a slow spell of the host falls on all
of them rather than on one workload's whole set. Each run lasts
BENCHMARK.json's run_seconds.

For every workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and the
median's change against the medians recorded in perfbench/baseline.json. It
flags a spread above a third of the metric's bound, and exits 1 when a run is
incorrect, when a spread other than setup_s's reaches its bound, or when a
median is worse than the recorded one by more than its bound. With --write the
medians and quartiles replace the recorded ones, stamped with hardware_cores
and the given git_sha.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(11, 21)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--git-sha", default="unknown")
    opts = parser.parse_args()
    path = os.path.join(HERE, "baseline.json")
    with open(path) as f:
        baseline = json.load(f)
    before = baseline.get("recorded", {}).get("workloads", {})

    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    ok = True
    for seed in SEEDS:
        for workload in workloads:
            result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}", flush=True)
                ok = False
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
                flush=True)

    recorded = {}
    for workload in workloads:
        recorded[workload] = {}
        print(f"{workload} ({len(SEEDS)} seeds x {spec['run_seconds']} s)")
        for m in spec["end_to_end"]:
            q1, median, q3 = statistics.quantiles(values[workload][m["name"]], n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s" and spread >= m["bound"]:
                ok = False
            change = ""
            old = before.get(workload, {}).get(m["name"])
            if old:
                rel = median / old["median"] - 1.0
                worse = -rel if m["better"] == "higher" else rel
                change = f" vs recorded {rel:+.4f}"
                if worse > m["bound"]:
                    change += " <-- worse than bound"
                    ok = False
            print(f"  {m['name']:<26} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound {m['bound']}){change}{flag}", flush=True)
            recorded[workload][m["name"]] = {"median": median, "q1": q1, "q3": q3}

    if opts.write:
        baseline["recorded"] = {
            "hardware_cores": os.cpu_count(),
            "git_sha": opts.git_sha,
            "seconds": spec["run_seconds"],
            "seeds": list(SEEDS),
            "workloads": recorded,
        }
        with open(path, "w") as f:
            f.write(json.dumps(baseline, indent=2) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
