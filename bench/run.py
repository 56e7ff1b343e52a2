"""Run one homext benchmark workload and print its metrics.

    python3 bench/run.py --workload atlas-exact --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: ``homext`` is imported from
``src/`` there, never from an installed copy.  One workload runs per process,
single-threaded, as a closed loop of rounds until ``--seconds`` of timed work
have passed (the last round always completes, so every run has the
workload's fixed mix).  Every op's output is checked after its round, outside
the timed region.

With ``--trace 0`` the end-to-end metrics declared in ``BENCHMARK.json`` are
reported; ``setup_s`` is the median over fresh interpreters that only import
and set up, spread over the run (between rounds, outside the timed region).
With ``--trace 1`` a span is recorded around every call into the library and
the per-layer metrics are reported; the spans are written to ``.bench_out/``
in the checkout.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import Recorder, clock, quantile_ms

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 120


def _import_homext() -> None:
    """Import homext from the checkout's ``src/``; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import homext
    except ImportError as exc:
        raise SystemExit(f"error: cannot import homext from {src}: {exc}")
    if Path(homext.__file__).resolve().parent != (src / "homext").resolve():
        raise SystemExit(f"error: homext imported from {homext.__file__}, not {src}")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is the smoke mode of the benchmark's test")
    p.add_argument("--probe", action="store_true",
                   help="set up only, then print the monotonic clock (used for setup_s)")
    return p.parse_args(argv)


class SetupProbes:
    """Set-up times of fresh interpreters that import, set up and stop.

    One probe runs before the timed loop and the rest between rounds, paced
    by the timed seconds, so that a slow or fast spell of a shared host moves
    a few samples rather than all of them.  ``setup_s`` is their median.
    """

    def __init__(self, args: argparse.Namespace):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", "0", "--profile", args.profile]
        self.seconds = args.seconds
        self.samples: list[float] = []

    def take(self, measured: float) -> None:
        """Probe until the share of probes taken matches the share of timed seconds."""
        share = min(1.0, measured / self.seconds) if self.seconds > 0 else 1.0
        while len(self.samples) < 1 + round((SETUP_PROBES - 1) * share):
            start = time.monotonic()
            done = subprocess.run(self.cmd, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
            if done.returncode != 0:
                raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
            self.samples.append(float(done.stdout.split()[-1]) - start)

    def median(self) -> float:
        return statistics.median(self.samples)


def _run_loop(workload, rec, seconds: float, between):
    """Closed loop over rounds until ``seconds`` of timed work, then the finale ops.

    Each round's outputs are checked as soon as it ends, outside the timed
    region, and then dropped, so the process's peak RSS is the library's.
    The loop runs at least ``workload.count_rounds`` rounds; the counts
    recorded by then are kept apart, so that counts such as
    ``engine.bounded.maps`` cover a fixed share of the work whatever the
    throughput.  ``between(measured)`` runs after every round, untimed.
    Returns (per-op latencies, failed ops, timed seconds, rounds run,
    counts of the first ``count_rounds`` rounds).
    """
    latencies: list[float] = []
    failed = 0

    def timed(batch) -> float:
        nonlocal failed
        outputs = []
        start = clock()
        for op in batch:
            rec.op_id = len(latencies)
            t0 = clock()
            try:
                outputs.append((op, rec.call(f"op.{op.kind}", op.run), None))
            except Exception as exc:  # counted in error_rate, the run goes on
                outputs.append((op, None, f"raised {exc!r}"))
            latencies.append(clock() - t0)
        elapsed = clock() - start
        failed += _check(outputs)
        return elapsed

    measured = 0.0
    rounds = 0
    window = None
    for batch in workload.rounds():
        measured += timed(batch)
        rounds += 1
        if rounds == workload.count_rounds:
            window = Counter(rec.counts)
        if measured >= seconds and window is not None:
            break
        between(measured)
    if window is None:  # the workload ran out of rounds first (tiny sizes)
        window = Counter(rec.counts)
    measured += timed(workload.finale())
    return latencies, failed, measured, rounds, window


def _check(outputs) -> int:
    failed = 0
    for op, out, err in outputs:
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a check that cannot run is a failed op
                err = f"check raised {exc!r}"
        if err:
            failed += 1
            print(f"FAILED {op.kind}: {err}", file=sys.stderr)
    return failed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, window: Counter, ops: int, wall: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts (0 for layers not called).

    Reported counts come from ``window``, the first ``count_rounds`` rounds,
    so they do not grow with throughput; rates and ratios use the whole run.
    """
    c = rec.counts
    m: dict[str, float] = {}

    def timing(span: str, *stats: str) -> None:
        d = rec.durations(span)
        values = {
            "calls": len(d),
            "busy_s": sum(d),
            "p50_ms": quantile_ms(d, 5),
            "p90_ms": quantile_ms(d, 9),
            "max_ms": max(d, default=0.0) * 1000.0,
        }
        for stat in stats:
            m[f"{span}.{stat}"] = values[stat]

    timing("engine.classify_finite", "calls", "busy_s", "p50_ms", "p90_ms")
    m["engine.classify_finite.local_maps"] = window["engine.classify_finite.local_maps"]
    m["engine.classify_finite.maps_per_s"] = _ratio(
        c["engine.classify_finite.local_maps"], m["engine.classify_finite.busy_s"])
    m["engine.classify_finite.warm_busy_s"] = rec.busy_s("engine.classify_finite.warm")
    m["claims.corpus.busy_s"] = rec.busy_s("claims.corpus")
    m["atlas.cli.busy_s"] = rec.busy_s("atlas.cli")
    m["atlas.records"] = window["atlas.records"]
    timing("graphs.canonical_form", "calls", "busy_s")

    timing("engine.decide_xy_bounded", "calls", "busy_s", "p90_ms")
    m["engine.bounded.maps"] = window["engine.bounded.maps"]
    m["engine.bounded.maps_per_s"] = _ratio(
        c["engine.bounded.maps"], m["engine.decide_xy_bounded.busy_s"])
    m["engine.bounded.certified"] = window["engine.bounded.certified"]
    m["engine.bounded.stuck_uncertified"] = window["engine.bounded.stuck_uncertified"]
    m["engine.bounded.certified_ratio"] = _ratio(
        c["engine.bounded.certified"],
        c["engine.bounded.certified"] + c["engine.bounded.stuck_uncertified"])
    m["generators.oracle.adj_calls"] = window["generators.oracle.adj_calls"]
    m["generators.structure.queries"] = window["generators.structure.queries"]

    timing("engine.extend_finite", "calls", "busy_s", "p50_ms", "p90_ms", "max_ms")
    outcomes = [s[5] for s in rec.spans if s[0] == "engine.extend_finite"]
    m["engine.extend_finite.found_ratio"] = _ratio(outcomes.count("found"), len(outcomes))
    m["engine.extend_finite.absent_busy_s"] = sum(
        s[2] - s[1] for s in rec.spans if s[0] == "engine.extend_finite" and s[5] == "absent")
    m["generators.build.busy_s"] = rec.busy_s("generators.build")
    timing("morphisms.classify_map", "calls", "busy_s")
    m["claims.separation.busy_s"] = rec.busy_s("claims.separation")

    timing("age.compute_age", "calls", "busy_s")
    m["age.compute_age.entries"] = window["age.compute_age.entries"]
    timing("age.check_criterion", "calls", "busy_s")
    m["age.check_property.busy_s"] = rec.busy_s("age.check_property")
    m["age.check_property.cases"] = window["age.check_property.cases"]
    m["age.check_property.unwitnessed"] = window["age.check_property.unwitnessed"]
    m["age.alpha_sigma.busy_s"] = rec.busy_s("age.alpha_sigma")

    m["trace.ops_per_s"] = _ratio(ops, wall)
    return m


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_homext()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    if args.probe:
        WORKLOADS[args.workload](args.seed, Recorder(False), args.profile, OUT_DIR)
        print(time.monotonic())
        return 0

    probes = None if traced else SetupProbes(args)
    if probes:
        probes.take(0.0)
    rec = Recorder(traced, outcomes={
        "engine.extend_finite": lambda r: "absent" if r is None else "found",
    })
    workload = WORKLOADS[args.workload](args.seed, rec, args.profile, OUT_DIR)
    latencies, failed, wall, rounds, window = _run_loop(
        workload, rec, args.seconds, probes.take if probes else lambda measured: None)
    if probes:
        probes.take(args.seconds)
    attempted = len(latencies)

    if traced:
        values = layer_metrics(rec, window, attempted, wall)
        declared = spec["per_layer"]
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        rec.write(trace_path)
        print(f"trace: {len(rec.spans)} spans written to {trace_path}")
    else:
        p90 = quantile_ms(latencies, 9)
        above = sum(1 for t in latencies if t * 1000.0 > p90)
        values = {
            "setup_s": probes.median(),
            "ops_per_s": attempted / wall,
            "op_p50_ms": quantile_ms(latencies, 5),
            "op_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
        print(f"op_p90_ms samples: n={attempted}, {above} above the 90th percentile")
    print(f"workload {args.workload} seed {args.seed} profile {args.profile}: "
          f"{rounds} rounds, {attempted} ops in {wall:.3f} s")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted})")
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
