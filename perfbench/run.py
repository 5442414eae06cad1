#!/usr/bin/env python3
"""Fleet benchmark entry point.

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/ (which compiles the fsw
library from src/) into .bench_build/ on first use, runs the fleet_bench
binary with the workload's knobs from perfbench/workloads.json, and relays
its output. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Each result is also recorded, with the machine fingerprint (CPU
count, compiler, build type) and the commit, under .bench_results/;
perfbench/compare.py compares such records and refuses to compare across
fingerprints.

    python3 perfbench/run.py --selftest     # the benchmark's own tests

Without --seed the default seed from workloads.json is used; a gain found
while tuning is re-checked on its held-out seed, which tuning never uses.

Exits nonzero, without a result line, when the build fails, and nonzero
with correct=false when any request or plan check failed.
"""
import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RESULTS = ROOT / ".bench_results"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j4", "--target", target])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = logfile.read_text(errors="replace").splitlines()[-20:]
                log("build failed:\n" + "\n".join(tail))
                return None
    return BUILD / target


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return "git:" + got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def selftest():
    binary = build("bench_selftest")
    if binary is None:
        return 1
    rc = subprocess.run([str(binary)]).returncode
    unit = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                           str(HERE / "tests")])
    return 1 if rc or unit.returncode else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()

    config = json.loads((HERE / "workloads.json").read_text())
    knobs = config["workloads"].get(args.workload)
    if knobs is None:
        log(f"unknown workload {args.workload!r}; "
            f"known: {', '.join(config['workloads'])}")
        return 2
    seed = config["default_seed"] if args.seed is None else args.seed

    binary = build("fleet_bench")
    if binary is None:
        return 1
    commit = commit_id()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit]
    if "rate_per_s" in knobs:
        cmd += ["--rate", str(knobs["rate_per_s"])]
    if "time_scale" in knobs:
        cmd += ["--time-scale", str(knobs["time_scale"])]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"fleet_bench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        log(f"fleet_bench exited {proc.returncode} without a result")
        return proc.returncode or 1

    fingerprint = {"commit": commit}
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint.update(json.loads(line[len("fingerprint "):]))
    RESULTS.mkdir(exist_ok=True)
    record = {"fingerprint": fingerprint, "workload": args.workload,
              "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "result": result}
    name = f"{args.workload}-seed{seed}-trace{args.trace}-{int(time.time())}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
