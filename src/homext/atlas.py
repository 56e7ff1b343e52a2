"""Exhaustive small-graph corpus and the JSONL atlas of membership vectors.

The corpus holds one canonical representative per isomorphism class through
seven vertices.  The classes on ``n`` vertices are the canonical forms of the
classes on ``n - 1`` vertices, each joined through a new vertex to each
subset (vertex augmentation; McKay, J. Algorithms 26, 1998).  Atlas
records are emitted one JSON object per line after a schema header; output
is byte-reproducible, so reruns can both be diffed and resumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, TextIO

from .engine import Verdict, classify_finite
from .formats import to_graph6
from .graphs import FiniteGraph, GraphError, canonical_form

ATLAS_SCHEMA = "homext-atlas/1"
ENUMERATION_CAP = 7
_CLASSES: dict[int, tuple[FiniteGraph, ...]] = {}  # the corpus on n vertices


def graphs_of_size(n: int) -> list[FiniteGraph]:
    """A fresh list of the canonical class representatives on ``n`` vertices, memoised per ``n``."""
    if n < 1:
        raise GraphError(f"size must be positive, got {n}")
    if n > ENUMERATION_CAP:
        raise GraphError(f"exhaustive enumeration beyond {ENUMERATION_CAP} vertices")
    if n not in _CLASSES:
        seen: dict[FiniteGraph, None] = {}
        for g in graphs_of_size(n - 1) if n > 1 else [FiniteGraph(0, ())]:
            for joined in range(1 << (n - 1)):  # the neighbours of the new vertex n - 1
                rows = tuple(r | (joined >> v & 1) << (n - 1) for v, r in enumerate(g.rows))
                seen.setdefault(canonical_form(FiniteGraph(n, (*rows, joined)))[0], None)
        _CLASSES[n] = tuple(sorted(seen, key=to_graph6))
    return list(_CLASSES[n])


def corpus_upto(n_max: int) -> list[tuple[str, FiniteGraph]]:
    """(id, graph) pairs for every isomorphism class on ``1..n_max`` vertices."""
    out = []
    for n in range(1, n_max + 1):
        for idx, g in enumerate(graphs_of_size(n)):
            out.append((f"n{n}g{idx:03d}", g))
    return out


@dataclass(frozen=True)
class AtlasRecord:
    """One classified graph; serializes to a single deterministic JSON line."""

    graph_id: str
    graph6: str
    n: int
    vector: dict[str, dict]
    provenance: dict
    bounds: dict

    def to_json(self) -> str:
        payload = {
            "id": self.graph_id,
            "graph6": self.graph6,
            "n": self.n,
            "vector": self.vector,
            "provenance": self.provenance,
            "bounds": self.bounds,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "AtlasRecord":
        d = json.loads(line)
        return AtlasRecord(
            d["id"], d["graph6"], d["n"], d["vector"], d["provenance"], d["bounds"]
        )


def _verdict_cell(v: Verdict) -> dict:
    cell: dict = {"status": v.status.value}
    if v.witness is not None:
        cell["witness"] = v.witness.serialize()
    if v.stuck is not None:
        cell["stuck"] = v.stuck
    if v.note:
        cell["note"] = v.note
    if v.certificate:
        cell["certificate"] = v.certificate
    return cell


def record_for(graph_id: str, g: FiniteGraph) -> AtlasRecord:
    vector = {code: _verdict_cell(v) for code, v in classify_finite(g).items()}
    return AtlasRecord(
        graph_id, to_graph6(g), g.n, vector, {"corpus": "exhaustive"}, {"mode": "finite-exact"}
    )


def atlas_records(n_max: int, *, skip_ids: Container[str] = ()) -> Iterator[AtlasRecord]:
    """Records of the corpus up to ``n_max``; ids in ``skip_ids`` are never classified.
    An ``n_max`` outside ``1..ENUMERATION_CAP`` raises :class:`GraphError` at the
    call, before a record is asked for."""
    if not 1 <= n_max <= ENUMERATION_CAP:
        raise GraphError(f"atlas size must be in 1..{ENUMERATION_CAP}, got {n_max}")
    corpus = corpus_upto(n_max)
    return (record_for(graph_id, g) for graph_id, g in corpus if graph_id not in skip_ids)


def write_atlas(records: Iterable[AtlasRecord], out: TextIO, *, header: bool = True) -> int:
    """Stream records as JSONL, after a schema header unless appending; returns records written."""
    if header:
        out.write(json.dumps({"schema": ATLAS_SCHEMA}, sort_keys=True) + "\n")
    written = 0
    for rec in records:
        out.write(rec.to_json() + "\n")
        written += 1
    return written


def read_atlas(lines: Iterable[str]) -> list[AtlasRecord]:
    """The records after the schema header; a line that does not parse raises GraphError."""
    records = []
    header_seen = False
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            if header_seen:
                records.append(AtlasRecord.from_json(line))
                continue
            schema = json.loads(line).get("schema")
        except (ValueError, KeyError, TypeError, AttributeError):
            raise GraphError(f"atlas line {number} is not a record") from None
        if schema != ATLAS_SCHEMA:
            raise GraphError(f"unknown atlas schema {schema!r}")
        header_seen = True
    return records


def existing_ids(lines: Iterable[str]) -> set[str]:
    """The ids of the records in ``lines``; a line that does not parse raises GraphError."""
    return {rec.graph_id for rec in read_atlas(lines)}
