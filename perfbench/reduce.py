#!/usr/bin/env python3
"""Summarises benchmark runs and checks each workload's predicted layer split.

Usage (from the root of a checkout, after some runs of perfbench/run.py):

    python3 perfbench/reduce.py [--results DIR] [--markdown]

Reads every run record under DIR (default .bench_build/perfbench/results),
groups them by workload and trace mode, and prints each metric's median
and its spread (distance between the first and third quartile as a share of
the median) over the runs. With traced (--trace 1) records present it then
checks that the per-layer counts show each workload doing the work it was
chosen for, using the medians over its traced runs, and exits 1 if a check
fails. The per-op split of traced spans into retry, body and commit time is
done by the perfbench binary itself (src/trace.cpp) before it writes the record.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_build" / "perfbench" / "results"

CKPT_COUNTS = ("pmem.ckpt_marks_per_op", "pmem.ckpt_mark_fences_per_op",
               "pmem.ckpt_lines_retired_per_ckpt")

# (metric, low, high): the workload's median must lie in [low, high].
EXPECT = {
    "kv-read-mostly": [("pmem.fences_per_op", 0.05, 0.2)]
                      + [(m, 0.0, 0.0) for m in CKPT_COUNTS],
    "kv-update-skewed": [("pmem.fences_per_op", 0.35, 0.65)]
                        + [(m, 0.0, 0.0) for m in CKPT_COUNTS],
    "index-scan-batch": [(m, 1e-9, float("inf")) for m in CKPT_COUNTS],
}
SW_SHARE_RATIO = 10.0  # index-scan-batch vs either kv workload


def check_run(workload, metrics):
    """Per-workload range checks; returns [(ok, text)]."""
    out = []
    for name, lo, hi in EXPECT.get(workload, []):
        v = metrics.get(name)
        if v is None:
            out.append((False, f"{workload}: {name} missing"))
            continue
        ok = lo <= v <= hi
        span = f"= {lo:g}" if lo == hi else f"in [{lo:g}, {hi:g}]"
        out.append((ok, f"{workload}: {name} = {v:.4g}, expected {span}"))
    return out


def check_cross(medians):
    """Cross-workload checks on per-workload medians; returns [(ok, text)]."""
    isb = medians.get("index-scan-batch", {}).get("core.sw_commit_share")
    out = []
    for kv in ("kv-read-mostly", "kv-update-skewed"):
        other = medians.get(kv, {}).get("core.sw_commit_share")
        if isb is None or other is None:
            continue
        ok = isb >= SW_SHARE_RATIO * other
        ratio = isb / other if other > 0 else float("inf")
        out.append((ok, f"core.sw_commit_share: index-scan-batch {isb:.4g} is {ratio:.3g}x "
                        f"{kv} {other:.4g}, expected >= {SW_SHARE_RATIO:g}x"))
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def load(results):
    groups = {}
    for p in sorted(results.glob("*.json")):
        rec = json.loads(p.read_text())
        prov = rec["provenance"]
        groups.setdefault((prov["workload"], prov["trace"]), []).append(rec)
    return groups


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", type=Path, default=RESULTS)
    ap.add_argument("--markdown", action="store_true", help="print tables as markdown")
    args = ap.parse_args()

    groups = load(args.results)
    if not groups:
        print(f"no run records under {args.results}", file=sys.stderr)
        return 2
    traced_medians = {}
    for (workload, trace), recs in sorted(groups.items()):
        seeds = sorted(r["provenance"]["seed"] for r in recs)
        failed = sum(r["failed"] for r in recs)
        print(f"\n{workload} trace={trace}: {len(recs)} runs, seeds {seeds}, failed ops {failed}")
        if args.markdown:
            print("\n| metric | unit | median | IQR/median |\n|---|---|---|---|")
        meds = {}
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
            med, iqr = spread(vals)
            meds[name] = med
            unit = recs[0]["metrics"][name]["unit"]
            if args.markdown:
                print(f"| `{name}` | {unit} | {med:.4g} | {100 * iqr:.1f}% |")
            else:
                print(f"  {name:40s} {med:12.5g} {unit:10s} IQR {100 * iqr:6.2f}%")
        if trace == 1:
            traced_medians[workload] = meds

    checks = []
    for workload, meds in sorted(traced_medians.items()):
        checks += check_run(workload, meds)
    checks += check_cross(traced_medians)
    if checks:
        print("\nlayer-split checks (medians of traced runs):")
        for ok, text in checks:
            print(f"  {'ok  ' if ok else 'FAIL'} {text}")
    return 0 if all(ok for ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
