"""Core graph types: finite graphs on bitset rows and oracle-presented countable graphs.

A :class:`FiniteGraph` is a simple undirected loopless graph on vertices
``0..n-1`` with adjacency stored as one bitmask per vertex.  An
:class:`OracleGraph` is a countably infinite graph given by a total, pure
adjacency predicate on pairs of naturals; it is analyzed through finite
truncations.  All types are immutable and all operations are pure, save one
memo: an oracle keeps the largest truncation :func:`oracle_truncate` validated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

VERTEX_CAP = 64
CANONICAL_CAP = 10


class GraphError(ValueError):
    """Invalid graph data or an operation outside its supported range."""


@dataclass(frozen=True)
class FiniteGraph:
    """Simple undirected loopless graph; ``rows[u]`` is the neighbor bitmask of ``u``."""

    n: int
    rows: tuple[int, ...]

    def adj(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def neighbors(self, u: int) -> tuple[int, ...]:
        return _bits(self.rows[u])

    @property
    def m(self) -> int:
        """Edge count."""
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges ``(u, v)`` with ``u < v`` in lexicographic order."""
        for u in range(self.n):
            r = self.rows[u] >> (u + 1) << (u + 1)
            for v in _bits(r):
                yield u, v

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def is_empty_graph(self) -> bool:
        return all(r == 0 for r in self.rows)

    @staticmethod
    def from_edges(
        n: int, edges: Iterable[tuple[int, int]], *, cap: int | None = None
    ) -> "FiniteGraph":
        """Build a graph from an edge list, validating the invariants.

        The default vertex cap is :data:`VERTEX_CAP`; pass an explicit ``cap``
        for larger desk-scale constructions.
        """
        cap = VERTEX_CAP if cap is None else cap
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        if n > cap:
            raise GraphError(f"vertex count {n} exceeds cap {cap}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return FiniteGraph(n, tuple(rows))


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def vertex_set(vertices: Iterable[int]) -> tuple[int, ...]:
    """Normalize to a strictly increasing vertex tuple, rejecting duplicates."""
    vs = tuple(vertices)
    if any(b <= a for a, b in zip(vs, vs[1:])):
        srt = tuple(sorted(set(vs)))
        if len(srt) != len(vs):
            raise GraphError(f"duplicate vertices in {vs}")
        vs = srt
    return vs


@dataclass(frozen=True)
class OracleGraph:
    """Countable graph given by a pure adjacency predicate on pairs of naturals.

    The predicate must be total, deterministic, irreflexive and symmetric.
    ``name`` labels the graph in reports and errors.  ``structure`` optionally
    carries the generator's declared structural facts (cone/co-cone
    confinement and witness rules) which bounded checkers use to certify
    verdicts that a truncation alone cannot settle.  A private field, outside
    ``repr`` and ``==`` and not copied by ``dataclasses.replace``, keeps the
    largest truncation validated so far.
    """

    adjacency: Callable[[int, int], bool]
    name: str
    structure: object | None = None
    # the largest truncation oracle_truncate validated; replace() starts empty
    _truncated: FiniteGraph = field(default=FiniteGraph(0, ()), init=False, repr=False, compare=False)

    def adj(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return bool(self.adjacency(i, j))


def induced_subgraph(g: FiniteGraph, s: Sequence[int]) -> FiniteGraph:
    """Subgraph induced on the vertex set ``s``; vertex ``i`` of the result is the
    ``i``-th smallest vertex of ``s`` (unordered input is sorted first, see :func:`vertex_set`)."""
    vs = vertex_set(s)
    if vs and not (vs[0] >= 0 and vs[-1] < g.n):
        raise GraphError(f"vertex {vs[0] if vs[0] < 0 else vs[-1]} out of range for n={g.n}")
    k = len(vs)
    rows = [0] * k
    for i, u in enumerate(vs):
        for j in range(i + 1, k):
            if g.rows[u] >> vs[j] & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return FiniteGraph(k, tuple(rows))


def complement(g: FiniteGraph) -> FiniteGraph:
    """Edge-complement on the same vertex set (irreflexive)."""
    full = (1 << g.n) - 1
    return FiniteGraph(
        g.n, tuple((full ^ r) & ~(1 << u) for u, r in enumerate(g.rows))
    )


def lex_product(g: FiniteGraph, h: FiniteGraph) -> FiniteGraph:
    """Lexicographic product: blocks of ``h``, fully joined along edges of ``g``.

    Vertex ``(a, b)`` is encoded as ``a * h.n + b``; ``(a, b)`` and ``(a', b')``
    are adjacent when ``a ~ a'`` in ``g``, or ``a = a'`` and ``b ~ b'`` in ``h``.
    """
    n = g.n * h.n
    if n > VERTEX_CAP:
        raise GraphError(f"product on {n} vertices exceeds cap {VERTEX_CAP}")
    rows = [0] * n
    block_full = (1 << h.n) - 1
    for a in range(g.n):
        base = a * h.n
        for b in range(h.n):
            r = h.rows[b] << base
            for a2 in _bits(g.rows[a]):
                r |= block_full << (a2 * h.n)
            rows[base + b] = r
    return FiniteGraph(n, tuple(rows))


def connected_components(g: FiniteGraph) -> list[tuple[int, ...]]:
    """Maximal connected vertex sets, sorted by least vertex."""
    seen = 0
    comps = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        comps.append(_bits(comp))
    return comps


def _refined_labels(g: FiniteGraph) -> list[tuple]:
    labels: list[tuple] = [(g.degree(v),) for v in range(g.n)]
    for _ in range(2):
        labels = [
            (labels[v], tuple(sorted(labels[u] for u in g.neighbors(v))))
            for v in range(g.n)
        ]
    return labels


def _encode_upper(g: FiniteGraph, pos: Sequence[int]) -> int:
    # pos[i] = original vertex placed at canonical position i
    enc = 0
    for i in range(g.n):
        ri = g.rows[pos[i]]
        for j in range(i + 1, g.n):
            enc = enc << 1 | (ri >> pos[j] & 1)
    return enc


def canonical_form(g: FiniteGraph) -> tuple[FiniteGraph, tuple[int, ...]]:
    """Canonical labeling: isomorphic graphs yield identical canonical graphs.

    Vertices are first partitioned by an iterated degree/neighborhood
    refinement; the canonical form is the minimum upper-triangle encoding over
    all orderings consistent with the refined partition.  Returns the
    canonical graph and the permutation ``perm`` with ``perm[v]`` the canonical
    position of input vertex ``v``.  Backtracking over a cell of
    indistinguishable vertices is factorial, so the size is capped at
    :data:`CANONICAL_CAP`.
    """
    if g.n > CANONICAL_CAP:
        raise GraphError(f"canonical form for n={g.n} exceeds cap {CANONICAL_CAP}")
    if g.n <= 1:
        return g, tuple(range(g.n))
    labels = _refined_labels(g)
    cells: dict[tuple, list[int]] = {}
    for v in range(g.n):
        cells.setdefault(labels[v], []).append(v)
    ordered_cells = [cells[key] for key in sorted(cells)]
    best_enc: int | None = None
    best_pos: tuple[int, ...] | None = None
    for parts in itertools.product(
        *(itertools.permutations(cell) for cell in ordered_cells)
    ):
        pos = tuple(itertools.chain.from_iterable(parts))
        enc = _encode_upper(g, pos)
        if best_enc is None or enc < best_enc:
            best_enc, best_pos = enc, pos
    assert best_pos is not None
    perm = [0] * g.n
    for i, v in enumerate(best_pos):
        perm[v] = i
    return relabel(g, perm), tuple(perm)


def relabel(g: FiniteGraph, perm: Sequence[int]) -> FiniteGraph:
    """Apply a permutation: vertex ``v`` of the input becomes ``perm[v]``."""
    rows = [0] * g.n
    for u in range(g.n):
        r = 0
        for v in _bits(g.rows[u]):
            r |= 1 << perm[v]
        rows[perm[u]] = r
    return FiniteGraph(g.n, tuple(rows))


def max_clique_size(g: FiniteGraph, *, stop_at: int | None = None) -> int:
    """Exact clique number by branch and bound on neighbor masks.

    With ``stop_at`` the search may return early once a clique that large is
    found; the result is then only a lower bound at or above ``stop_at``.
    """
    best = 0
    rows = g.rows

    def grow(size: int, allowed: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if stop_at is not None and best >= stop_at:
            return
        while allowed:
            if size + allowed.bit_count() <= best:
                return
            low = allowed & -allowed
            v = low.bit_length() - 1
            allowed ^= low
            grow(size + 1, allowed & rows[v])

    grow(0, (1 << g.n) - 1)
    return best


def max_independent_set_size(g: FiniteGraph) -> int:
    """Independence number, exact, via the clique search on the complement."""
    return max_clique_size(complement(g))


def oracle_truncate(o: OracleGraph, n: int) -> FiniteGraph:
    """Induced subgraph of an oracle graph on vertices ``0..n-1``.

    The predicate is probed on both orientations of every pair; asymmetry or a
    reflexive edge is reported as an error rather than silently repaired.
    The largest truncation validated so far is kept on ``o``, so a read of
    that size or smaller is a masked prefix of its rows and probes nothing; a
    larger read probes every pair again, and a read that raises keeps nothing.
    Anything but an :class:`OracleGraph` raises :class:`GraphError`.
    """
    if not isinstance(o, OracleGraph):
        raise GraphError(f"truncation reads an oracle graph, got {type(o).__name__}")
    if n < 0:
        raise GraphError(f"negative truncation size {n}")
    kept, mask = o._truncated, (1 << n) - 1
    if n <= kept.n:
        return FiniteGraph(n, tuple(r & mask for r in kept.rows[:n]))
    rows = [0] * n
    for i in range(n):
        if o.adjacency(i, i):
            raise GraphError(f"oracle {o.name!r} has a loop at {i}")
        for j in range(i + 1, n):
            ij = bool(o.adjacency(i, j))
            if ij != bool(o.adjacency(j, i)):
                raise GraphError(f"oracle {o.name!r} is asymmetric on ({i}, {j})")
            if ij:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    t = FiniteGraph(n, tuple(rows))
    object.__setattr__(o, "_truncated", t)  # the one write to a frozen OracleGraph
    return t
