#!/usr/bin/env python3
"""Runs one workload of the NV-HALT repo benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the library it compiles from src/) into
.bench_build/perfbench on first use, runs the perfbench binary, passes its
human-readable lines through, and prints as the last stdout line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end_to_end metrics
of BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1. The
binary's full record (every metric plus run provenance) is kept under
.bench_build/perfbench/results/. Exits non-zero, printing no result, when
the sources are missing, the build fails, the binary fails, or a metric
named in BENCHMARK.json is missing or carries another unit.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
import reduce  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "api" / "tm_factory.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def main():
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="only run the checker's planted-fault self-test")
    args = ap.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run([str(BINARY), "--self-test"]).returncode)
    if not args.workload:
        fail("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(BUILD), "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    record = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"perfbench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    if args.trace:
        # The traced run's per-layer counts should show the work the
        # workload was chosen for; a miss is reported, not failed.
        values = {k: v["value"] for k, v in record["metrics"].items()}
        record["layer_checks"] = [{"ok": ok, "check": text}
                                  for ok, text in reduce.check_run(args.workload, values)]
        for c in record["layer_checks"]:
            print(f"# layer split {'ok' if c['ok'] else 'MISS'}: {c['check']}")

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": bool(record["correct"]), "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
