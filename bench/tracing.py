"""Outside-in instrumentation: spans around the benchmark's own calls into homext.

Nothing inside ``homext`` is patched.  A :class:`Recorder` either passes calls
straight through (untraced runs, which give the end-to-end numbers) or records
one span per call: name, start, end, parent span and op id.  Spans stay in
memory until :meth:`Recorder.write` dumps them when the run ends.

Oracle predicate and structure-query counts come from :func:`counting_oracle`,
which rebuilds an oracle with the public ``OracleGraph(...)`` constructor
around counting wrappers.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from collections import Counter
from pathlib import Path

clock = time.perf_counter


class Recorder:
    """Times calls into the library; keeps spans only when ``traced``."""

    def __init__(self, traced: bool, outcomes: dict | None = None):
        self.traced = traced
        # span name -> function naming the outcome of a call's result
        self.outcomes = outcomes or {}
        # span id = index; each span is [name, start, end, parent id, op id, outcome]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id: int | str = "setup"
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; when tracing, record it as a span named ``name``."""
        if not self.traced:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op_id, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[5] = "raised"
            raise
        finally:
            span[2] = clock()
            self._stack.pop()
        if name in self.outcomes:
            span[5] = self.outcomes[name](result)
        return result

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def busy_s(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: Path) -> None:
        """Dump spans and counts as JSON (one span object per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"counts": dict(self.counts)}, sort_keys=True) + "\n")
            for sid, (name, start, end, parent, op, outcome) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "outcome": outcome,
                }) + "\n")


def quantile_ms(samples: list[float], q: int) -> float:
    """The ``q``-th decile of ``samples`` (seconds) in milliseconds; 0.0 when empty."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1000.0
    return statistics.quantiles(samples, n=10, method="inclusive")[q - 1] * 1000.0


class _CountingStructure:
    """Delegates the declared-structure queries and counts each one."""

    def __init__(self, inner, counts: Counter):
        self._inner = inner
        self._counts = counts

    def _ask(self, method: str, vertices):
        self._counts["generators.structure.queries"] += 1
        return getattr(self._inner, method)(vertices)

    def cone_candidates(self, zset):
        return self._ask("cone_candidates", zset)

    def cocone_candidates(self, wset):
        return self._ask("cocone_candidates", wset)

    def cone_witness(self, hset):
        return self._ask("cone_witness", hset)

    def cocone_witness(self, hset):
        return self._ask("cocone_witness", hset)


def counting_oracle(o, counts: Counter):
    """The same ``OracleGraph``, rebuilt so predicate calls and structure queries are counted."""
    inner = o.adjacency

    def adjacency(i: int, j: int) -> bool:
        counts["generators.oracle.adj_calls"] += 1
        return inner(i, j)

    structure = None if o.structure is None else _CountingStructure(o.structure, counts)
    # replace() goes through the OracleGraph constructor
    return dataclasses.replace(o, adjacency=adjacency, structure=structure)
