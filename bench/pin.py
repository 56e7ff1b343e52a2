"""Regenerate ``expected.json``, the pinned outputs the benchmark checks against.

    python3 bench/pin.py ops        # atlas file digests, claims, sweeps, age (about 1 min)
    python3 bench/pin.py classify   # every 4- to 7-vertex class table (about 20 min)

Run it from the root of a checkout whose ``src/`` holds the code the pins
should describe; only the named sections of ``expected.json`` are replaced.
Pins are fingerprints of outputs that do not depend on the benchmark seed:
the atlas JSONL file, claim result lines, bounded sweep report lines, age
reports on the fixed inputs, and the 18-verdict table of every isomorphism
class the classification draw can reach.
"""

from __future__ import annotations

import itertools
import json
import sys

from run import OUT_DIR, _import_homext

_import_homext()

from homext.atlas import graphs_of_size  # noqa: E402
from homext.engine import classify_finite  # noqa: E402
from homext.formats import to_graph6  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import EXPECTED_PATH, SIZES, WORKLOADS, vector_fingerprint  # noqa: E402

# rounds that visit every pinned op: every (oracle, property) pair of the age scan
PIN_ROUNDS = {"age-scan": 12}
# ops on seeded inputs; their outputs are re-validated, and class tables are
# pinned by the ``classify`` section
SEEDED_OPS = {"classify", "warm-requery", "query", "tail"}


def pin_ops(recording: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    for profile in SIZES:
        for name, cls in WORKLOADS.items():
            w = cls(0, Recorder(False), profile, OUT_DIR)
            w.recording = recording
            batches = itertools.islice(w.rounds(), PIN_ROUNDS.get(name, 1))
            for op in [op for batch in batches for op in batch] + w.finale():
                if op.kind in SEEDED_OPS:
                    continue
                err = op.check(op.run())
                if err:
                    raise SystemExit(f"error: {name} {op.kind} check failed: {err}")


def pin_classify(recording: dict) -> None:
    sizes = sorted({s["atlas-exact"][k] for s in SIZES.values() for k in ("small_n", "large_n")})
    tables = recording.setdefault("classify", {})
    for n in sizes:
        for g in graphs_of_size(n):
            tables[to_graph6(g)] = vector_fingerprint(classify_finite(g))
        print(f"classify: pinned n={n}", file=sys.stderr)


def main(argv: list[str]) -> int:
    sections = {"ops": pin_ops, "classify": pin_classify}
    if not argv or any(a not in sections for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    recording: dict = {}
    for a in argv:
        sections[a](recording)
    pins = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    pins.update(recording)
    EXPECTED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
