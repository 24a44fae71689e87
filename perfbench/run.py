#!/usr/bin/env python3
"""Builds and runs the FrogWild end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload frogwild-topk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --check-fingerprints

The first form builds the benchmark package (`perfbench/Cargo.toml`, release
profile, offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload and passes its output through. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`; this
script checks that its metrics are exactly the ones `BENCHMARK.json` lists for
the mode (`end_to_end` with `--trace 0`, `per_layer` with `--trace 1`). A traced
run also writes a Chrome trace to `$CARGO_TARGET_DIR/perfbench-traces/`.

`--check-fingerprints` runs every workload briefly on the seeds recorded in
`perfbench/fingerprints.txt` and fails unless every deterministic counter equals
the recorded value exactly. See `perfbench/README.md`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.txt")
WORKLOADS = ("frogwild-topk", "graphlab-pr", "index-serve")


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Builds the benchmark binary and returns its path; exits on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=900)
    if done.returncode != 0:
        sys.exit(f"error: building the benchmark failed ({done.returncode})")
    return os.path.join(target_dir(), "release", "frogwild-perfbench")


def expected_metrics(trace):
    """`{name: unit}` of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    """Returns why the result line breaks the output contract, or None."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        return f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, " \
               f"extra {sorted(set(got) - set(want))}, units {sorted(set(got.items()) ^ set(want.items()))}"
    if result["attempted"] < 1 or not isinstance(result["failed"], int):
        return "attempted must be at least 1 and failed a whole number"
    return None


def run(binary, args, fingerprints=None):
    """Runs one workload, forwards its output, and returns the exit code. With
    `fingerprints`, the run also compares its counters with that file."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(target_dir(), "perfbench-traces")]
    if fingerprints:
        cmd += ["--fingerprint-check", fingerprints]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.rstrip("\n").split("\n")
    problem = validate(lines[-1], args.trace == 1) if done.returncode == 0 else None
    if problem:
        sys.stderr.write(done.stdout)
        sys.exit(f"error: {problem}")
    sys.stdout.write(done.stdout)
    return done.returncode


def check_fingerprints(binary):
    """Runs every recorded (workload, seed) pair briefly and compares counters."""
    with open(FINGERPRINTS) as f:
        pairs = sorted({tuple(line.split()[:2]) for line in f if line.strip()})
    status = 0
    for workload, seed in pairs:
        args = argparse.Namespace(workload=workload, seed=int(seed), seconds=1, trace=0)
        code = run(binary, args, FINGERPRINTS)
        print(f"fingerprint {workload} seed {seed}: {'ok' if code == 0 else 'FAILED'}",
              file=sys.stderr)
        status = status or code
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-fingerprints", action="store_true",
                        help="compare every workload's counters with fingerprints.txt")
    args = parser.parse_args()
    if not args.check_fingerprints and not args.workload:
        parser.error("--workload is required")
    binary = build()
    sys.exit(check_fingerprints(binary) if args.check_fingerprints else run(binary, args))


if __name__ == "__main__":
    main()
