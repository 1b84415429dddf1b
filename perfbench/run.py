#!/usr/bin/env python3
"""Builds and runs the octopus-mhs benchmark from the repository root.

One workload:
    python3 perfbench/run.py --workload offline-window --seed 1 --seconds 30 --trace 0
Every workload, untraced then traced, with the tracing overhead:
    python3 perfbench/run.py --all --seed 1 --seconds 30

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
named in BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`. The lines before it give the full stamped record and tables.
The exit code is non-zero when the build fails, an output check fails or
a named metric is missing; the binary refuses to run with OCTOPUS_THREADS,
OCTOPUS_KERNEL or OCTOPUS_CACHE set.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_VERSION = "perfbench/1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["offline-window", "serve-hysteresis", "serve-periodic"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(workload, seed, traced):
    rev = command_output(["git", "rev-parse", "HEAD"])
    status = command_output(["git", "status", "--porcelain"]) if rev else None
    return {
        "bench_version": BENCH_VERSION,
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "git_rev": rev or "unknown",
        "git_dirty": None if status is None else status != "",
        "nproc": os.cpu_count(),
        # The default config searches α sequentially on the calling thread.
        "worker_threads": 1,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
    }


def run_one(binary, workload, seed, seconds, traced):
    spans = os.path.join(target_dir(), "perfbench", f"spans-{workload}.ndjson")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--spans", spans]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload}: exited with code {done.returncode}")
    record = json.loads(lines[-1])
    record["meta"] = stamp(workload, seed, traced)
    return record


def load_json(path):
    with open(path) as f:
        return json.load(f)


def print_table(title, metrics, notes=None):
    print(title)
    for name, m in metrics.items():
        note = f"  {notes[name]}" if notes and name in notes else ""
        print(f"  {name:<28} {m['value']:>16.4f} {m['unit']:<6}{note}")


def report(record, targets):
    meta = record["meta"]
    print(f"== {meta['workload']} seed {meta['seed']} traced={meta['traced']} "
          f"digest {record['digest']} ops {record['attempted']} failed {record['failed']}")
    print_table("end to end:", record["end_to_end"])
    if meta["traced"]:
        notes = {k: f"-> {v['moves']} on {v['workload']}"
                 for k, v in targets["per_layer"].items()}
        print_table("per layer:", record["per_layer"], notes)
        print("self time per layer (ms):",
              {k: round(v, 1) for k, v in record.get("self_time_ms", {}).items()})
    print("record: " + json.dumps(record, sort_keys=True))


def contract(record, names, nonzero):
    """The last line: the metrics BENCHMARK.json names, and whether the run
    passed every check and produced every named metric."""
    source = record["per_layer"] if record["meta"]["traced"] else record["end_to_end"]
    metrics = {}
    correct = record["failed"] == 0
    for name in names:
        m = source.get(name)
        ok = m is not None and math.isfinite(m["value"]) and (m["value"] != 0 or not nonzero)
        if not ok:
            print(f"perfbench: metric {name} missing or invalid: {m}", file=sys.stderr)
            correct = False
        if m is not None:
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not args.all and not args.workload:
        p.error("give --workload or --all")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    targets = load_json(os.path.join(HERE, "targets.json"))
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    binary = build()

    if not args.all:
        record = run_one(binary, args.workload, args.seed, args.seconds, args.trace == 1)
        report(record, targets)
        names, nonzero = (layer_names, False) if args.trace else (e2e_names, True)
        result = contract(record, names, nonzero)
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)

    # --all: each workload untraced, then traced on the same inputs; the
    # traced run must produce the same outputs, and its end-to-end metrics
    # against the untraced ones give the tracing overhead.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    overhead = {}
    for w in WORKLOADS:
        plain = run_one(binary, w, args.seed, args.seconds, False)
        traced = run_one(binary, w, args.seed, args.seconds, True)
        for record in (plain, traced):
            report(record, targets)
            summary["attempted"] += record["attempted"]
            summary["failed"] += record["failed"]
        result = contract(plain, e2e_names, True)
        summary["correct"] &= result["correct"] and contract(traced, layer_names, False)["correct"]
        if plain["digest"] != traced["digest"]:
            print(f"perfbench: {w}: traced outputs differ from untraced", file=sys.stderr)
            summary["correct"] = False
        for name, m in result["metrics"].items():
            summary["metrics"][f"{w}.{name}"] = m
        overhead[w] = {name: traced["end_to_end"][name]["value"] / m["value"] - 1.0
                       for name, m in plain["end_to_end"].items()
                       if name in traced["end_to_end"] and m["value"]}
    print("tracing overhead (traced / untraced - 1):")
    for w, o in overhead.items():
        print(f"  {w}: " + ", ".join(f"{k} {v:+.1%}" for k, v in o.items()))
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
