#!/usr/bin/env python3
"""Summarise and compare fleet benchmark records (written by run.py).

    python3 perfbench/compare.py RECORDS...              # one set: spread
    python3 perfbench/compare.py BASE... --against HEAD...

A record set is any mix of record files and directories of them (as in
.bench_results/). For one set, prints per workload and metric the median
and the quartile spread (Q3 - Q1) / median. With --against, prints the head
median against the base median, as a signed change in the metric's "worse"
direction next to its bound from BENCHMARK.json, and exits 1 when any
metric got worse by more than its bound.

Refuses (exit 2) to compare records whose machine fingerprints differ:
CPU count, compiler and build type must match across every record; the
commit is what a comparison varies.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

FINGERPRINT_KEYS = ("cpus", "compiler", "build_type")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FingerprintMismatch(Exception):
    pass


def load(paths):
    records = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        records += [json.loads(f.read_text()) for f in files]
    return records


def machine(record):
    fp = record.get("fingerprint", {})
    return tuple(fp.get(k) for k in FINGERPRINT_KEYS)


def check_fingerprints(records):
    """Raises FingerprintMismatch unless every record ran on one machine."""
    seen = {machine(r) for r in records}
    if len(seen) > 1:
        raise FingerprintMismatch(
            "records come from different machines: " +
            "; ".join(str(dict(zip(FINGERPRINT_KEYS, m))) for m in sorted(seen, key=str)))


def by_metric(records):
    """{(workload, trace): {metric: [values]}}"""
    out = {}
    for r in records:
        group = out.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["result"]["metrics"].items():
            group.setdefault(name, []).append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def bounds():
    if not BENCHMARK.exists():
        return {}
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def summarise(records):
    for (workload, trace), metrics in sorted(by_metric(records).items()):
        print(f"{workload} (trace {trace}), {len(next(iter(metrics.values())))} runs")
        for name, values in metrics.items():
            print(f"  {name:44s} median {statistics.median(values):14.6g}"
                  f"  spread {spread(values):8.4f}")


def compare(base, head):
    spec = bounds()
    b, h = by_metric(base), by_metric(head)
    regressed = 0
    for key in sorted(set(b) & set(h)):
        print(f"{key[0]} (trace {key[1]})")
        for name in b[key]:
            if name not in h[key]:
                continue
            mb = statistics.median(b[key][name])
            mh = statistics.median(h[key][name])
            change = (mh - mb) / mb if mb else 0.0
            s = spec.get(name)
            if s is None:
                print(f"  {name:44s} {mb:12.6g} -> {mh:12.6g}")
                continue
            worse = change if s["better"] == "lower" else -change
            verdict = "worse" if worse > s["bound"] else "ok"
            regressed |= verdict == "worse"
            print(f"  {name:44s} {mb:12.6g} -> {mh:12.6g}  worse by {worse:+.4f}"
                  f" (bound {s['bound']}) {verdict}")
    return int(regressed)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", nargs="+")
    ap.add_argument("--against", nargs="+")
    args = ap.parse_args(argv)
    base = load(args.base)
    head = load(args.against) if args.against else []
    try:
        check_fingerprints(base + head)
    except FingerprintMismatch as e:
        print(f"compare.py: refusing: {e}", file=sys.stderr)
        return 2
    if not head:
        summarise(base)
        return 0
    return compare(base, head)


if __name__ == "__main__":
    sys.exit(main())
