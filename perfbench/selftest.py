#!/usr/bin/env python3
"""Self-test of the benchmark definition and driver.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed (names, units, bounds, a setup_s
metric), that a tiny run of every workload on its default seed passes the
pinned tiny digest and reports every end-to-end metric with its unit, that a
tiny traced run reports every per-layer metric, and that the datacenter
digest is identical at 1 and 4 shard workers. Exits 1 on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(why):
    print(f"selftest FAILED: {why}")
    sys.exit(1)


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200:
            fail(f"bad workload {w}")
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            if set(m) != keys:
                fail(f"{section} metric {m} keys")
            if not NAME.match(m["name"]) or m["name"] in names:
                fail(f"bad or repeated metric name {m['name']!r}")
            names.add(m["name"])
            if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
                fail(f"bad unit or direction in {m}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")


def run(workload, seed, trace=0, jobs=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited {done.returncode}")
    lines = done.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    digest = re.search(r"digest ([0-9a-f]{16})", "\n".join(lines[:-1]))
    return result, digest.group(1) if digest else None


def check_metrics(result, wanted, label):
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"),
                                                                         (int, float)):
            fail(f"{label}: metric {m['name']} missing or without unit {m['unit']}")
    if len(result["metrics"]) != len(wanted):
        fail(f"{label}: unexpected metrics")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "baseline.json")) as f:
        pins = json.load(f)["workloads"]
    check_spec(spec)
    print("BENCHMARK.json: names, units and bounds ok")

    for w in spec["workloads"]:
        seed = pins[w["name"]]["default_seed"]
        result, _ = run(w["name"], seed)
        check_metrics(result, spec["end_to_end"], f"{w['name']} tiny")
        print(f"{w['name']}: tiny run matches the pinned digest, every end-to-end metric present")
        result, _ = run(w["name"], seed, trace=1)
        check_metrics(result, spec["per_layer"], f"{w['name']} tiny traced")
        print(f"{w['name']}: tiny traced run reports every per-layer metric")

    digests = [run("datacenter", 7, jobs=jobs)[1] for jobs in (1, 4)]
    if digests[0] is None or digests[0] != digests[1]:
        fail(f"datacenter digest differs between 1 and 4 workers: {digests}")
    print(f"datacenter: digest {digests[0]} identical at 1 and 4 workers")
    print("selftest passed")


if __name__ == "__main__":
    main()
