#!/usr/bin/env python3
"""Rack-day benchmark of the Oasis simulator.

Run from the repository root:

    python3 perfbench/run.py --workload weekday-greedy --seed 1 --seconds 25 --trace 0

It builds perfbench/oasis_bench from the repository's src/ tree (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload as a closed loop of
rack-days for --seconds, checks every repetition's result digest, and prints
a table of metrics followed, as the last stdout line, by one JSON object:

    {"correct": ..., "attempted": <rack-days>, "failed": <rack-days>,
     "metrics": {<name>: {"value": ..., "unit": ...}}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs the
separate traced passes and reports the per-layer metrics. Build failures and
bad arguments exit non-zero without a result line.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("weekday-greedy", "weekend-local", "datacenter")
SETUP_LAUNCHES = 9  # extra set-up-only processes; setup_s is their median with the run's own
CHILD_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures and builds the driver; returns its path or exits 1."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    configure = ["cmake", "-S", HERE, "-B", build_dir]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build_dir, "--target", "oasis_bench", "-j", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            sys.exit(1)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return os.path.join(build_dir, "oasis_bench")


def child_env():
    # The simulator reads OASIS_* knobs (planner backend, profiler, checker,
    # jobs); the benchmark sets its own, so none may leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("OASIS_")}


def launch(binary, args):
    """Runs the driver once and returns its JSON record."""
    try:
        done = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        sys.exit(1)
    if done.returncode != 0:
        log(f"perfbench: driver exited with {done.returncode}")
        sys.exit(1)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def failed_reps(digests, reference, per_rep):
    """Rack-days of the repetitions whose digest differs from `reference`."""
    return per_rep * sum(1 for d in digests if d != reference)


def end_to_end(binary, args, baseline):
    setups = [launch(binary, [*args, "--mode", "setup"])["setup_s"]
              for _ in range(SETUP_LAUNCHES)]
    rec = launch(binary, [*args, "--mode", "run"])
    setups.append(rec["setup_s"])

    digests = rec["digests"]
    per_rep = int(rec["rack_days_per_rep"])
    pin = baseline.get("digest") if int(rec["seed"]) == baseline["default_seed"] else None
    if pin is not None and digests[0] != pin:
        failed = per_rep * len(digests)  # a pinned mismatch fails the whole run
        log(f"perfbench: digest {digests[0]} != pinned {pin}")
    else:
        failed = failed_reps(digests, digests[0], per_rep)

    samples = rec["rack_day_ms"]
    serial = rec["rack_day_ms_kind"] == "serial"
    if serial:
        # Every repetition runs the same rack-days in the same order: each
        # rack-day's time is its median over the repetitions, which filters
        # the host's transient slowdowns out of the distribution.
        reps = len(samples) // per_rep
        samples = [statistics.median(samples[r * per_rep + i] for r in range(reps))
                   for i in range(per_rep)]
        sample_note = f"n={per_rep} rack-days, each the median of {reps} runs, thread CPU-ms"
    else:
        sample_note = f"n={len(samples)} datacenter days, CPU-ms per rack-day"
    samples.sort()
    # Host seconds are CPU seconds, which leave out the share of the host
    # that other processes take; on a shared machine that share swings the
    # wall time of the four shard workers by a third.
    values = {
        "rack_days_per_s": rec["rack_days"] / rec["cpu_s"],
        "rack_day_ms.p50": quantile(samples, 0.50),
        "rack_day_ms.p90": quantile(samples, 0.90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rec["peak_rss_mb"],
        "energy_savings": rec["energy_savings"],
        "transition_delay_s.p99": rec["delay_p99_s"],
    }
    notes = {
        "rack_days_per_s": f"{rec['rack_days']} rack-days / {rec['cpu_s']:.3f} CPU-s "
                           f"(wall {rec['wall_s']:.3f} s)",
        "rack_day_ms.p50": sample_note,
        "rack_day_ms.p90": sample_note,
        "setup_s": f"median of n={len(setups)} launches",
        "transition_delay_s.p99": f"n={int(rec['delay_samples'])} delays, {per_rep} rack-days",
        "energy_savings": f"{per_rep} rack-days",
    }
    print(f"workload {rec['workload']} seed {int(rec['seed'])}: {len(digests)} repetitions "
          f"of {per_rep} rack-days, digest {digests[0]}"
          + (" (pinned)" if pin is not None else ""))
    return values, notes, rec["rack_days"], failed


# Every per-layer ratio and its base: numerator / denominator metrics.
RATIO_BASES = {
    "actuator.reintegrations_per_partial": ("actuator.reintegrations",
                                            "actuator.partial_migrations"),
    "sim.heap_pop_share": ("sim.heap_pop_s", "sim.profiled_run_s"),
    "sim.dispatch_share": ("sim.dispatch_s", "sim.profiled_run_s"),
    "exp.parallel_efficiency": ("exp.worker_busy_s", "exp.jobs_x_wall_s"),
    "exp.worker_idle_share": ("exp.worker_idle_s", "exp.worker_busy_s + exp.worker_idle_s"),
    "dc.vms_per_drain": ("dc.vms_drained", "dc.drains"),
    "prof.overhead_share": ("pass.prof_s", "pass.plain_s, minus 1"),
    "check.overhead_share": ("pass.check_s", "pass.plain_s, minus 1"),
}


def traced(binary, args, baseline):
    rec = launch(binary, [*args, "--mode", "traced"])
    plain = rec["plain_digests"]
    pin = baseline.get("digest") if int(rec["seed"]) == baseline["default_seed"] else None
    reference = pin if pin is not None else plain[0]
    days = int(rec["metrics"]["pass.rack_days"])
    split_days = int(rec["metrics"]["cluster.split_rack_days"])
    failed = int(rec["failed"])  # checker violations, datacenter split mismatches
    for name in ("plain_digests", "prof_digests", "check_digests"):
        failed += failed_reps(rec[name], reference, days)
    if rec["workload"] != "datacenter":
        failed += failed_reps(rec["split_digests"], reference, split_days)
    print(f"workload {rec['workload']} seed {int(rec['seed'])}: {int(rec['rounds'])} traced "
          f"rounds, digest {plain[0]}" + (" (pinned)" if pin is not None else ""))
    notes = {name: f"= {num} / {den}" for name, (num, den) in RATIO_BASES.items()}
    return rec["metrics"], notes, int(rec["attempted"]), min(failed, int(rec["attempted"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one rack-day (4 racks for datacenter), for the self-test")
    parser.add_argument("--jobs", type=int, default=0,
                        help="datacenter shard workers (default min(4, cores))")
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pins = load_json(os.path.join(HERE, "baseline.json"))
    baseline = dict(pins["workloads"][opts.workload])
    if opts.size == "tiny":
        baseline["digest"] = baseline.get("tiny_digest")
    binary = build()

    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds",
            str(opts.seconds), "--size", opts.size]
    if opts.jobs > 0:
        args += ["--jobs", str(opts.jobs)]
    if opts.trace:
        values, notes, attempted, failed = traced(binary, args, baseline)
        wanted = spec["per_layer"]
    else:
        values, notes, attempted, failed = end_to_end(binary, args, baseline)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            log(f"perfbench: metric {m['name']} missing")
            failed = attempted
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<36} {value:>16.6g} {m['unit']:<14} {note}")
    correct = failed == 0
    if not opts.trace:
        # End-to-end metrics are never zero on a healthy run.
        correct = correct and all(v["value"] > 0 for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": int(attempted), "failed": int(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
