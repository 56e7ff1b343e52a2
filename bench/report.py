"""Repeat benchmark runs and report each metric's median, quartiles and spread.

    python3 bench/report.py                          # every workload, seeds 1-10
    python3 bench/report.py --workloads oracle-sweep --seeds 1-5
    python3 bench/report.py --smoke                  # tiny sizes, checks the output

Each run is a fresh ``run.py`` process (one workload per interpreter, one at a
time).  For every workload the untraced runs give the end-to-end metrics;
one traced run on the first seed gives the per-layer metrics and the tracing
overhead (untraced against traced ops/s on that seed).  Spread is the
distance between the first and third quartile as a share of the median, the
measure the end-to-end bounds in ``BENCHMARK.json`` are set against.

``--smoke`` runs every workload at the tiny size and exits non-zero unless
every run is correct and prints every metric named in ``BENCHMARK.json`` with
its declared unit, plus the ``error_rate`` line.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int,
             profile: str) -> tuple[dict, str, float]:
    """(JSON result, full output, wall seconds of the whole process)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--profile", profile]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.monotonic() - start
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout, elapsed


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def smoke_errors(result: dict, text: str, declared: list[dict]) -> list[str]:
    errors = []
    if not result["correct"] or result["failed"]:
        errors.append(f"{result['failed']} of {result['attempted']} ops failed their check")
    if not any(line.startswith("error_rate ") and " ratio " in line for line in text.splitlines()):
        errors.append("no error_rate line")
    for entry in declared:
        got = result["metrics"].get(entry["name"])
        if got is None or got.get("unit") != entry["unit"]:
            errors.append(f"metric {entry['name']} missing or not in {entry['unit']}")
    return errors


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    profile = "full"
    seeds = _seeds(args.seeds)
    if args.smoke:
        profile, seeds, args.seconds = "tiny", [1, 2], 0.5

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    failures = []
    summary = {}
    for workload in args.workloads.split(","):
        runs, durations, rounds = [], [], []
        for seed in seeds:
            result, text, elapsed = run_once(workload, seed, args.seconds, 0, profile)
            runs.append(result)
            durations.append(elapsed)
            rounds.append(int(re.search(r": (\d+) rounds, ", text).group(1)))
            if args.smoke:
                failures += [f"{workload} seed {seed}: {e}"
                             for e in smoke_errors(result, text, SPEC["end_to_end"])]
        traced, text, traced_elapsed = run_once(workload, seeds[0], args.seconds, 1, profile)
        if args.smoke:
            failures += [f"{workload} traced: {e}"
                         for e in smoke_errors(traced, text, SPEC["per_layer"])]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {workload}: {len(runs)} runs ({profile}, {args.seconds:g} s each), "
              f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted}); "
              f"process wall median {statistics.median(durations):.1f} s, "
              f"max {max(durations):.1f} s, traced {traced_elapsed:.1f} s; "
              f"rounds median {statistics.median(rounds):g}, range {min(rounds)}-{max(rounds)}")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  n  unit")
        summary[workload] = {}
        for entry in SPEC["end_to_end"]:
            name = entry["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            summary[workload][name] = values
            print(f"  {name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>8.2%} "
                  f"{bounds[name]:>6.2f} {len(values):>2}  {entry['unit']}")
        print(f"  per-layer (traced, seed {seeds[0]}):")
        for entry in SPEC["per_layer"]:
            value = traced["metrics"][entry["name"]]["value"]
            print(f"  {entry['name']:<40} {value:>12.6g}  {entry['unit']}")
        untraced = runs[0]["metrics"]["ops_per_s"]["value"]
        with_trace = traced["metrics"]["trace.ops_per_s"]["value"]
        print(f"  trace.overhead {untraced / with_trace - 1:.2%} "
              f"(ops/s {untraced:.6g} untraced, {with_trace:.6g} traced, seed {seeds[0]})")
    print(json.dumps(summary))
    for f in failures:
        print(f"SMOKE FAILED {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
