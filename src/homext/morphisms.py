"""Finite partial maps between vertex sets and their morphism classification.

A :class:`PartialMap` is a finite partial function on the vertex set of a
single ambient graph.  Maps are stored as sorted source/target pair lists so
that sparse domains over unbounded oracle vertices work the same way as dense
domains on finite graphs.  Every map is surjective onto its image by
construction, which is the only shape the extension machinery ever needs to
consider.  Every walk over local maps reads one stream, :func:`_local_maps`,
which yields each with its kind, kept as the map grows, over domains its
caller lists: the exact pass and the sweeps list them smaller sizes first,
:func:`enumerate_local_morphisms` and the star and dagger checks sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import combinations
from typing import Iterable, Iterator

from .graphs import FiniteGraph, GraphError


class MorphismKind(IntEnum):
    """Classification of a partial map, ordered by strength."""

    NOT_HOMOMORPHISM = 0
    HOMOMORPHISM = 1
    MONOMORPHISM = 2
    ISOMORPHISM = 3


class EndoKind(str, Enum):
    """Kinds of total endomorphisms a local morphism may extend to.

    H: homomorphism, M: monomorphism (injective), I: self-embedding
    (isomorphism onto an induced image), E: epimorphism (surjective),
    B: bimorphism (bijective homomorphism), A: automorphism.
    """

    H = "H"
    M = "M"
    I = "I"  # noqa: E741 - single-letter kind names are the domain vocabulary
    E = "E"
    B = "B"
    A = "A"

    @property
    def required_kind(self) -> MorphismKind:
        """Weakest local-morphism kind a map must have to extend to this kind."""
        return _REQUIRED[self]

    @property
    def needs_surjective(self) -> bool:
        return self in (EndoKind.E, EndoKind.B, EndoKind.A)

    def implies(self) -> tuple["EndoKind", ...]:
        """Kinds every endomorphism of this kind also has."""
        return _IMPLIES[self]


_REQUIRED = {
    EndoKind.H: MorphismKind.HOMOMORPHISM,
    EndoKind.E: MorphismKind.HOMOMORPHISM,
    EndoKind.M: MorphismKind.MONOMORPHISM,
    EndoKind.B: MorphismKind.MONOMORPHISM,
    EndoKind.I: MorphismKind.ISOMORPHISM,
    EndoKind.A: MorphismKind.ISOMORPHISM,
}

_IMPLIES = {
    EndoKind.A: (EndoKind.I, EndoKind.B, EndoKind.E),
    EndoKind.B: (EndoKind.M, EndoKind.E),
    EndoKind.I: (EndoKind.M,),
    EndoKind.M: (EndoKind.H,),
    EndoKind.E: (EndoKind.H,),
    EndoKind.H: (),
}

X_KINDS = (MorphismKind.ISOMORPHISM, MorphismKind.MONOMORPHISM, MorphismKind.HOMOMORPHISM)
Y_KINDS = (EndoKind.H, EndoKind.I, EndoKind.A, EndoKind.E, EndoKind.B, EndoKind.M)

X_NAMES = {
    MorphismKind.ISOMORPHISM: "I",
    MorphismKind.MONOMORPHISM: "M",
    MorphismKind.HOMOMORPHISM: "H",
}
X_BY_NAME = {v: k for k, v in X_NAMES.items()}


@dataclass(frozen=True, slots=True)
class PartialMap:
    """Finite partial vertex map as sorted ``(source, target)`` pairs."""

    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "PartialMap":
        ps = tuple(sorted(pairs))
        for (a, _), (b, _) in zip(ps, ps[1:]):
            if a == b:
                raise GraphError(f"source vertex {a} repeated")
        return PartialMap(ps)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.pairs)

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(sorted({t for _, t in self.pairs}))

    @property
    def values(self) -> tuple[int, ...]:
        """Targets in source order (may repeat)."""
        return tuple(t for _, t in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def is_injective(self) -> bool:
        return len({t for _, t in self.pairs}) == len(self.pairs)

    def extended(self, source: int, target: int) -> "PartialMap":
        return PartialMap.from_pairs(self.pairs + ((source, target),))

    def serialize(self) -> str:
        return ",".join(f"{s}->{t}" for s, t in self.pairs)

    @staticmethod
    def parse(text: str) -> "PartialMap":
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                s, t = chunk.split("->")
                pairs.append((int(s), int(t)))
            except ValueError as exc:
                raise GraphError(f"bad map chunk {chunk!r}") from exc
        return PartialMap.from_pairs(pairs)


def classify_map(g, f: PartialMap) -> MorphismKind:
    """Classify ``f`` within the ambient graph ``g`` (finite or oracle).

    Homomorphism: edges map to edges.  Monomorphism: additionally injective.
    Isomorphism: additionally nonedges map to nonedges.  A vertex outside
    the graph (negative, or past a finite graph's size) raises GraphError.
    """
    n = g.n if isinstance(g, FiniteGraph) else None
    for s, t in f.pairs:
        if s < 0 or t < 0 or n is not None and (s >= n or t >= n):
            where = "" if n is None else f" for n={n}"
            raise GraphError(f"map vertex pair ({s}, {t}) out of range{where}")
    pairs = f.pairs
    hom = True
    iso = True
    for i in range(len(pairs)):
        u, fu = pairs[i]
        for j in range(i + 1, len(pairs)):
            v, fv = pairs[j]
            e, fe = g.adj(u, v), g.adj(fu, fv)
            if e and not fe:
                hom = False
            if e != fe:
                iso = False
        if not hom:
            return MorphismKind.NOT_HOMOMORPHISM
    if not f.is_injective():
        return MorphismKind.HOMOMORPHISM
    return MorphismKind.ISOMORPHISM if iso else MorphismKind.MONOMORPHISM


def _step_mask(rows, pairs, target: int, side: str, kind, horizon_mask: int) -> int:
    """Bitmask of the ``d`` with ``f + (target -> d)`` of kind ``kind`` (extension
    side), or of the ``a`` outside the domain with ``f + (a -> target)`` of kind
    ``kind`` (preimage side, ``target`` outside the image).  Each pair of ``f``
    ANDs in one row or complemented row; ``rows`` cover every vertex involved.
    """
    mask = horizon_mask
    iso = kind is MorphismKind.ISOMORPHISM
    if side == "extension":
        mono = kind >= MorphismKind.MONOMORPHISM
        for u, fu in pairs:
            if rows[u] >> target & 1:
                mask &= rows[fu]
            elif iso:
                mask &= ~(rows[fu] | 1 << fu)
            elif mono:
                mask &= ~(1 << fu)
        return mask
    for u, fu in pairs:
        mask &= ~(1 << u)
        if not rows[fu] >> target & 1:
            mask &= ~rows[u]
        elif iso:
            mask &= rows[u]
    return mask


def _step_sets(rows, pairs, target: int, side: str, kind) -> tuple[frozenset[int], ...]:
    """The set form of :func:`_step_mask`, for candidates anywhere in the graph:
    ``(pos, neg, skip)`` such that a vertex is a candidate exactly when it lies
    outside ``skip``, is adjacent to every vertex of ``pos`` and to none of
    ``neg``.  ``rows`` cover ``target`` and every vertex of the map.
    """
    iso = kind is MorphismKind.ISOMORPHISM
    if side == "extension":
        mono = kind >= MorphismKind.MONOMORPHISM
        pos = frozenset(fu for u, fu in pairs if rows[u] >> target & 1)
        neg = frozenset(fu for u, fu in pairs if iso and not rows[u] >> target & 1)
        return pos, neg, frozenset(fu for _, fu in pairs if mono)
    pos = frozenset(u for u, fu in pairs if iso and rows[fu] >> target & 1)
    neg = frozenset(u for u, fu in pairs if not rows[fu] >> target & 1)
    return pos, neg, frozenset(u for u, _ in pairs)


def enumerate_local_morphisms(
    g: FiniteGraph, x: MorphismKind, k: int
) -> Iterator[PartialMap]:
    """All maps of kind at least ``x`` with domain size ``1..k``, each exactly once, in
    lexicographic order of ``(domain, values)``: :func:`_local_maps` over sorted domains."""
    if k < 1:
        raise GraphError(f"max domain size must be at least 1, got {k}")
    domains = sorted(all_subsets(range(g.n), min(k, g.n)))
    return (PartialMap(pairs) for pairs, _, _ in _local_maps(g.rows, domains, [x]))


def _local_maps(rows, domains: Iterable[tuple[int, ...]], floor: list[int], group=()):
    """``(pairs, domain mask, kind)`` of the maps on ``rows`` of kind at least ``floor[0]``
    (reread at every position: the consumer may raise it between maps), domain by
    sorted domain of ``domains``, in order of values.  A map stays injective while each
    new value's bit is outside the image, and an isomorphism while it also avoids the
    rows of the images of the non-neighbours.  ``group`` (reread at every domain)
    lists automorphisms as ``(mask of the v with a[v] = v, mask of the v with a[v] < v)``;
    a position keeps only the values least in their orbit under those fixing the values
    before it, so of each orbit of value tuples at least its least member is yielded."""
    iso, full, kinds = MorphismKind.ISOMORPHISM, (1 << len(rows)) - 1, tuple(MorphismKind)

    def rec(dom, pairs, dom_mask: int, image: int, kind: MorphismKind, group):
        # extends the prefix ``pairs`` of ``dom`` at its next vertex ``u``, fixed by ``group``
        u = dom[len(pairs)]
        last = len(pairs) + 1 == len(dom)
        blocked = 0  # values that break isomorphism: rows of non-neighbours' images
        if kind is iso:
            for q, fq in pairs:
                if not rows[q] >> u & 1:
                    blocked |= rows[fq]
        mask = _step_mask(rows, pairs, u, "extension", kinds[floor[0]], full)
        for _, lower in group:
            mask &= ~lower
        while mask:
            low = mask & -mask
            mask ^= low
            new_kind = MorphismKind.HOMOMORPHISM if image & low else kind
            if new_kind is iso and blocked & low:
                new_kind = MorphismKind.MONOMORPHISM
            if new_kind >= floor[0]:
                grown = pairs + ((u, low.bit_length() - 1),)
                if last:
                    yield grown, dom_mask | 1 << u, new_kind
                else:
                    fixing = [a for a in group if a[0] & low] if group else group
                    yield from rec(dom, grown, dom_mask | 1 << u, image | low, new_kind, fixing)

    for dom in domains:
        yield from rec(dom, (), 0, 0, iso, group)


def all_subsets(vertices: Iterable[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of size up to ``max_size``, smaller sizes first."""
    vs = tuple(vertices)
    for size in range(1, max_size + 1):
        yield from combinations(vs, size)
