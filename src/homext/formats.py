"""Graph serialization: the plain edge-list text format and graph6 strings.

Text format, bit-exact: first line ``"n m"`` (vertex and edge counts), then
``m`` lines ``"u v"`` with ``u < v`` sorted lexicographically, terminated by a
blank line.  graph6 follows the standard 6-bit encoding (optional
``>>graph6<<`` header accepted) for corpus interchange.
"""

from __future__ import annotations

from .graphs import FiniteGraph, GraphError

GRAPH6_HEADER = ">>graph6<<"
_PARSE_CAP = 4096


def emit_text(g: FiniteGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    lines.append("")
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> FiniteGraph:
    lines = [ln.strip() for ln in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise GraphError("empty graph text")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise GraphError(f"bad header line {lines[0]!r}") from exc
    if n > _PARSE_CAP:
        raise GraphError(f"vertex count {n} exceeds parser cap {_PARSE_CAP}")
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise GraphError(f"bad edge line {ln!r}") from exc
        if u >= v:
            raise GraphError(f"edge line {ln!r} not in u < v form")
        edges.append((u, v))
    if edges != sorted(edges):
        raise GraphError("edge lines not sorted lexicographically")
    return FiniteGraph.from_edges(n, edges, cap=max(n, 0))


def _g6_size(n: int) -> str:
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0))
    raise GraphError(f"vertex count {n} too large for graph6")


def to_graph6(g: FiniteGraph) -> str:
    """Encode as a graph6 string (no header)."""
    bits = []
    for j in range(1, g.n):
        col = g.rows[j]
        bits.extend(col >> i & 1 for i in range(j))
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return _g6_size(g.n) + "".join(chars)


def from_graph6(s: str) -> FiniteGraph:
    """Decode a graph6 string; a leading ``>>graph6<<`` header is allowed."""
    s = s.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise GraphError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":  # each character carries ord(c) - 63 in 0..63
        raise GraphError(f"invalid graph6 characters in {s!r}")
    if s[0] == "~":
        if len(s) < 4:
            raise GraphError("truncated graph6 size")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n > _PARSE_CAP:  # checked before the body is decoded
        raise GraphError(f"vertex count {n} exceeds parser cap {_PARSE_CAP}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphError(f"graph6 body length mismatch for n={n}")
    bits = []
    for c in body:
        d = ord(c) - 63
        bits.extend(d >> shift & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise GraphError("nonzero padding bits in graph6 body")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return FiniteGraph.from_edges(n, edges, cap=max(n, 0))
