#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--trace 0|1]
    python3 perfbench/run.py --record

Run from the repository root. Builds `repro` and the benchmark binary in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs
one benchmark run. The last line of standard output is the JSON result;
build output goes to standard error.

`--all` runs every workload in BENCHMARK.json for its `run_seconds` and
ends with one table of every metric, its unit and whether the run's
results checked out. `--record` rewrites `perfbench/fingerprints.txt`
from in-process reference runs.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "vm-experiments", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def run_all(bench, release, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seed, trace = flag(args, "--seed", "1"), flag(args, "--trace", "0")
    rows, ok = [], True
    for w in spec["workloads"]:
        cmd = bench + ["--workload", w["name"], "--seed", seed, "--seconds", str(spec["run_seconds"]),
                       "--trace", trace, "--repro", os.path.join(release, "repro"), "--root", ROOT]
        sys.stdout.flush()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            rows.append((w["name"], None))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        rows.append((w["name"], result))
    print("\n== all workloads (seed %s, trace %s) ==" % (seed, trace))
    for name, result in rows:
        if result is None:
            print(f"{name}: FAILED to run")
            continue
        verdict = "results verified" if result["correct"] else "RESULTS WRONG"
        print(f"{name}: {verdict}, {result['failed']}/{result['attempted']} failed")
        for metric, v in result["metrics"].items():
            print(f"  {metric:32s} {v['value']:>16.6g} {v['unit']}")
    sys.exit(0 if ok else 1)


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target_dir)
    release = os.path.join(target_dir, "release")
    bench = [os.path.join(release, "vm-perfbench")]
    args = sys.argv[1:]
    if args == ["--record"]:
        cmd = bench + ["record", "--root", ROOT]
    elif args[:1] == ["--all"]:
        run_all(bench, release, args)
    else:
        cmd = bench + args + ["--repro", os.path.join(release, "repro"), "--root", ROOT]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
