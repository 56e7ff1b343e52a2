"""Constructions for every concrete graph family the analysis needs.

Finite families are returned as :class:`FiniteGraph`; countable ones as
:class:`OracleGraph` with a declared-structure object attached.  A structure
answers two kinds of questions the raw predicate cannot:

* confinement: a provably complete finite candidate list for the cones
  (common neighbors) or co-cones (common non-neighbors) of a finite vertex
  set, when the family's shape confines them;
* witnesses: a concrete cone/co-cone vertex, possibly beyond any truncation.

One helper, :func:`homext.engine._past_truncation`, asks these questions:
complete lists first, then a witness (the bounded engine asks only its list
half, since only a list certifies).  The predicate is then asked about the
listed vertices and the witness, so a structure is trusted only for the
completeness of its lists.

All generators are deterministic given their parameters and seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable

from .graphs import (
    FiniteGraph,
    GraphError,
    OracleGraph,
    _bits,
    induced_subgraph,
    lex_product,
    max_clique_size,
    oracle_truncate,
    relabel,
)

OMEGA = "omega"

GENERATOR_NAMES = ("k", "i", "comp", "rs", "rado", "knfree", "h3prime", "radoplus")


def complete(n: int) -> FiniteGraph:
    """Complete graph on ``n`` vertices."""
    return FiniteGraph.from_edges(n, itertools.combinations(range(n), 2))


def independent(n: int) -> FiniteGraph:
    """Edgeless graph on ``n`` vertices."""
    return FiniteGraph.from_edges(n, ())


class GraphStructure:
    """Declared structural facts; the base class certifies nothing."""

    def cone_candidates(self, zset: frozenset[int]) -> list[int] | None:
        """Complete finite candidate list for cones over ``zset``, or ``None``."""
        return None

    def cocone_candidates(self, wset: frozenset[int]) -> list[int] | None:
        """Complete finite candidate list for co-cones over ``wset``, or ``None``."""
        return None

    def cone_witness(self, hset: frozenset[int]) -> int | None:
        """Some cone over ``hset`` anywhere in the graph, or ``None``."""
        return None

    def cocone_witness(self, hset: frozenset[int]) -> int | None:
        """Some co-cone over ``hset`` anywhere in the graph, or ``None``."""
        return None


def cantor_unpair(i: int) -> tuple[int, int]:
    """Inverse of the Cantor pairing; ``i`` = position of ``(a, b)`` on the diagonals."""
    w = (math.isqrt(8 * i + 1) - 1) // 2
    b = i - w * (w + 1) // 2
    return w - b, b


@dataclass(frozen=True)
class CompositeStructure(GraphStructure):
    """Disjoint cliques: block count ``m`` and block size ``n`` (either omega)."""

    m: int | str
    n: int | str

    def block(self, v: int) -> int:
        if self.m == OMEGA and self.n == OMEGA:
            return cantor_unpair(v)[0]
        if self.m == OMEGA:
            return v // int(self.n)
        return v % int(self.m)

    def member(self, b: int, j: int) -> int:
        """Vertex ``j`` of block ``b`` (the inverse of :meth:`block`); increasing in ``j``."""
        if self.m == OMEGA and self.n == OMEGA:
            return (b + j) * (b + j + 1) // 2 + j
        if self.m == OMEGA:
            return b * int(self.n) + j
        return b + j * int(self.m)

    def cone_candidates(self, zset: frozenset[int]) -> list[int] | None:
        blocks = {self.block(v) for v in zset}
        if len(blocks) >= 2:
            return []  # adjacency never crosses blocks
        if self.n != OMEGA and self.m == OMEGA and blocks:  # cones over nothing: unconfined
            (b,) = blocks
            return [self.member(b, j) for j in range(int(self.n))]
        return None

    def cocone_candidates(self, wset: frozenset[int]) -> list[int] | None:
        if self.m == OMEGA:
            return None  # fresh blocks always remain
        blocks = {self.block(v) for v in wset}
        if len(blocks) >= int(self.m):
            return []  # every block is touched; no vertex avoids them all
        return None

    def cocone_witness(self, hset: frozenset[int]) -> int | None:
        touched = {self.block(v) for v in hset}
        if self.m != OMEGA and len(touched) >= int(self.m):
            return None
        # the least vertex of an untouched block: the first vertex of the least one
        return self.member(min(set(range(len(touched) + 1)) - touched), 0)

    def cone_witness(self, hset: frozenset[int]) -> int | None:
        blocks = {self.block(v) for v in hset}
        if len(blocks) >= 2:
            return None
        b = next(iter(blocks)) if blocks else 0
        size = len(hset) + 1 if self.n == OMEGA else int(self.n)  # one member is free
        for v in (self.member(b, j) for j in range(size)):
            if v not in hset:
                return v
        return None


def _truncated(g, size: int | None):
    """``g`` cut to its vertices ``0..size-1``: the induced prefix of a finite graph
    (all of it when it has at most ``size``), :func:`oracle_truncate` for an
    oracle; ``g`` itself when ``size`` is ``None``.  A negative size raises
    :class:`GraphError`."""
    if size is None:
        return g
    if size < 0:
        raise GraphError(f"negative truncation size {size}")
    if isinstance(g, OracleGraph):
        return oracle_truncate(g, size)
    return induced_subgraph(g, range(min(size, g.n)))


def composite(m: int | str, n: int | str):
    """Disjoint union of ``m`` cliques of size ``n`` (either may be ``OMEGA``).

    Finite ``m`` and ``n`` give a :class:`FiniteGraph` with contiguous blocks
    (empty when either is 0); 0 beside ``OMEGA`` raises :class:`GraphError`.
    Otherwise an :class:`OracleGraph` is returned: blocks are ``i // n`` for
    finite ``n``, ``i % m`` for finite ``m``, and Cantor-diagonal fibers when
    both are omega.  A prefix is read with :func:`oracle_truncate`, or cut by
    :func:`generate`'s ``truncate``.
    """
    for tok in (m, n):
        if tok != OMEGA and (not isinstance(tok, int) or tok < 0):
            raise GraphError(f"bad composite parameter {tok!r}")
    if OMEGA in (m, n) and 0 in (m, n):  # no vertices at all, and block() would divide by 0
        raise GraphError(f"composite parameter 0 beside {OMEGA}")
    if m != OMEGA and n != OMEGA:
        return lex_product(independent(int(m)), complete(int(n)))
    structure = CompositeStructure(m, n)

    def adjacency(i: int, j: int) -> bool:
        return i != j and structure.block(i) == structure.block(j)

    return OracleGraph(adjacency, name=f"comp({m},{n})", structure=structure)


@dataclass(frozen=True)
class RSStructure(GraphStructure):
    """Modular structure of the ``rs`` family.

    The low vertices ``0..n-1`` are independent; vertices at least ``n`` form
    a clique; low ``t`` is adjacent to high ``k`` exactly when
    ``k % n != t % n``.  Consequently any vertex set containing a high vertex
    has all of its co-cones among the low vertices.
    """

    n: int

    def cocone_candidates(self, wset: frozenset[int]) -> list[int] | None:
        if any(w >= self.n for w in wset):
            return list(range(self.n))
        return None

    def cone_candidates(self, zset: frozenset[int]) -> list[int] | None:
        lows = {z % self.n for z in zset if z < self.n}
        if len(lows) >= self.n and any(z < self.n for z in zset):
            return []  # no high vertex avoids every residue; lows are independent
        return None

    def cone_witness(self, zset: frozenset[int]) -> int | None:
        residues = {z % self.n for z in zset if z < self.n}
        if len(residues) >= self.n:
            return None
        free = min(set(range(self.n)) - residues) if residues else 0
        v = self.n + free
        while v in zset:
            v += self.n
        return v


def rs_graph(n: int) -> OracleGraph:
    """Modular clique-over-independent-set family on the naturals.

    Edges: both endpoints at least ``n`` (distinct), or a high endpoint and a
    low endpoint in different residue classes mod ``n``.
    """
    if n < 2:
        raise GraphError(f"rs requires n >= 2, got {n}")

    def adjacency(i: int, j: int) -> bool:
        if i == j:
            return False
        lo, hi = min(i, j), max(i, j)
        if lo >= n:
            return True
        if hi < n:
            return False
        return hi % n != lo % n

    return OracleGraph(adjacency, name=f"rs({n})", structure=RSStructure(n))


def _bit_cone(hset: Iterable[int]) -> int:
    """The BIT vertex whose bits are ``hset``, a cone over it (1 over nothing)."""
    return sum(1 << h for h in hset) or 1


def _bit_cocone(hset: Iterable[int]) -> int:
    """The BIT vertex ``2^(max + 1)``, adjacent to nothing below it (2 over nothing)."""
    return 1 << (max(hset, default=0) + 1)


class RadoBitStructure(GraphStructure):
    """BIT presentation: any finite positive/negative adjacency demand is realizable."""

    def cone_witness(self, hset: frozenset[int]) -> int | None:
        return _bit_cone(hset)

    def cocone_witness(self, hset: frozenset[int]) -> int | None:
        return _bit_cocone(hset)


def rado_bit() -> OracleGraph:
    """BIT graph: for ``i < j``, adjacent exactly when bit ``i`` of ``j`` is set."""

    def adjacency(i: int, j: int) -> bool:
        if i == j:
            return False
        lo, hi = min(i, j), max(i, j)
        return bool(hi >> lo & 1)

    return OracleGraph(adjacency, name="rado", structure=RadoBitStructure())


@dataclass(frozen=True)
class DominatedRadoStructure(GraphStructure):
    """BIT graph shifted up by one plus the dominating vertex 0; a witness is the
    BIT one over the set shifted down, shifted back up."""

    def cone_witness(self, hset: frozenset[int]) -> int | None:
        return _bit_cone(h - 1 for h in hset if h) + 1 if 0 in hset else 0

    def cocone_witness(self, hset: frozenset[int]) -> int | None:
        # nothing avoids the dominating vertex
        return None if 0 in hset else _bit_cocone(h - 1 for h in hset) + 1

    def cocone_candidates(self, wset: frozenset[int]) -> list[int] | None:
        if 0 in wset:
            return []  # the dominating vertex is adjacent to everything
        return None


def rado_plus_dominating(n: int) -> FiniteGraph:
    """BIT truncation on ``n - 1`` vertices plus a dominating vertex ``n - 1``: the
    oracle's prefix on ``n`` vertices with its vertex 0 moved last."""
    if n < 2:
        raise GraphError(f"radoplus requires n >= 2, got {n}")
    return relabel(oracle_truncate(rado_plus_dominating_oracle(), n), [n - 1, *range(n - 1)])


def rado_plus_dominating_oracle() -> OracleGraph:
    """Oracle presentation with the dominating vertex at index 0.

    Vertex ``i + 1`` plays the role of BIT vertex ``i``; vertex 0 is adjacent
    to everything.  (The finite generator keeps the dominating vertex last;
    an oracle needs it at a fixed index.)
    """
    rado = rado_bit()

    def adjacency(i: int, j: int) -> bool:
        if i == j:
            return False
        if i == 0 or j == 0:
            return True
        return rado.adj(i - 1, j - 1)

    return OracleGraph(adjacency, name="radoplus", structure=DominatedRadoStructure())


def is_clique_free(g: FiniteGraph, k: int) -> bool:
    """True when ``g`` contains no clique on ``k`` vertices."""
    return max_clique_size(g, stop_at=k) < k


_REQUEST_WINDOW = 12
_REQUEST_TOTAL_MAX = 5


def knfree_generic(n: int, size: int, seed: int = 0) -> FiniteGraph:
    """Staged clique-free graph approximating the generic one.

    Starting from a single vertex, extension requests ``(A, B)`` -- disjoint
    subsets of the early vertices with ``A`` free of cliques on ``n - 1``
    vertices -- are served in increasing order of ``|A| + |B|`` with a seeded
    shuffle among ties: each unwitnessed request gets a fresh vertex adjacent
    exactly to ``A``.  A request's witnesses are one AND of rows: ``rows[a]`` for
    ``a`` in ``A``, the complement of ``rows[b]`` without ``b`` for ``b`` in ``B``.
    Once every small request is witnessed the schedule restarts against the
    grown graph.  The output is verified ``K_n``-free before returning.
    """
    if n < 3:
        raise GraphError(f"knfree requires n >= 3, got {n}")
    if size < 1:
        raise GraphError(f"truncation size must be positive, got {size}")
    rng = random.Random(seed)
    rows: list[int] = [0]
    while len(rows) < size:
        grew = False
        for total in range(_REQUEST_TOTAL_MAX + 1):
            window = min(len(rows), _REQUEST_WINDOW)
            requests = []
            for a_size in range(total + 1):
                for aset in itertools.combinations(range(window), a_size):
                    rest = [v for v in range(window) if v not in aset]
                    for bset in itertools.combinations(rest, total - a_size):
                        requests.append((aset, bset))
            rng.shuffle(requests)
            for aset, bset in requests:
                if len(rows) >= size:
                    break
                witnesses = (1 << len(rows)) - 1
                for a in aset:
                    witnesses &= rows[a]
                for b in bset:
                    witnesses &= ~rows[b] & ~(1 << b)
                if witnesses or aset and not is_clique_free(
                        induced_subgraph(FiniteGraph(len(rows), tuple(rows)), aset), n - 1):
                    continue
                for a in aset:
                    rows[a] |= 1 << len(rows)
                rows.append(sum(1 << a for a in aset))
                grew = True
            if len(rows) >= size:
                break
        if not grew:
            raise GraphError(f"request schedule starved at {len(rows)} vertices")
    g = FiniteGraph(size, tuple(rows))
    if not is_clique_free(g, n):
        raise AssertionError("staged construction produced a forbidden clique")
    return g


def h3_prime(size: int, seed: int = 0) -> tuple[FiniteGraph, tuple[int, int, int]]:
    """Triangle-free graph with one nonedge whose common neighborhood is a point.

    Builds the staged triangle-free graph, picks the nonedge ``(u, v)`` with
    the most common neighbors, keeps one common neighbor ``w``, splits the
    remaining ones alternately by index into two classes, and deletes the
    edges from the first class to ``v`` and from the second class to ``u``.
    Returns the surgered graph together with ``(u, v, w)``.
    """
    rows = list(knfree_generic(3, size, seed).rows)
    best = min(((-(rows[u] & rows[v]).bit_count(), u, v)
                for u, v in itertools.combinations(range(size), 2) if not rows[u] >> v & 1),
               default=None)
    if best is None or -best[0] < 3:
        raise GraphError(
            f"no nonedge with 3 common neighbors at size {size}; increase the size"
        )
    _, u, v = best
    w, *rest = _bits(rows[u] & rows[v])
    for idx, x in enumerate(rest):
        cut = v if idx % 2 == 0 else u  # the even ones stay attached to u, the odd to v
        rows[x] &= ~(1 << cut)
        rows[cut] &= ~(1 << x)
    return FiniteGraph(size, tuple(rows)), (u, v, w)


def generate(name: str, params: Iterable[object], *, truncate: int | None = None, seed: int = 0):
    """Dispatch a generator by its command-line name, cut to ``truncate`` vertices
    when that is given (see :func:`_truncated`); a parameter that is not an
    integer (or ``w``/``omega`` for ``comp``) raises :class:`GraphError`."""
    params = list(params)

    def integer(p) -> int:
        try:
            return int(p)
        except (TypeError, ValueError):
            raise GraphError(f"generator {name!r}: bad parameter {p!r}") from None

    def want(count: int) -> list:
        if len(params) != count:
            raise GraphError(f"generator {name!r} expects {count} parameter(s)")
        return [OMEGA if name == "comp" and p in (OMEGA, "w") else integer(p) for p in params]

    builders = {
        "k": (1, complete), "i": (1, independent), "comp": (2, composite), "rs": (1, rs_graph),
        "rado": (0, rado_bit), "knfree": (2, lambda n, size: knfree_generic(n, size, seed)),
        "h3prime": (1, lambda size: h3_prime(size, seed)[0]), "radoplus": (1, rado_plus_dominating),
    }
    if name not in builders:
        raise GraphError(f"unknown generator {name!r}")
    count, build = builders[name]
    return _truncated(build(*want(count)), truncate)
