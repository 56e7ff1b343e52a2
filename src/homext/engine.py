"""Deciding XY-homogeneity: exact on finite graphs, bounded on oracle graphs.

A graph is XY-homogeneous when every local morphism of kind X extends to a
total endomorphism of kind Y.  For finite graphs the decision is exact.  On
a finite graph an injective or surjective endomorphism is bijective, and a
bijective homomorphism maps the finitely many edges onto the edges, so it is
an automorphism: I = M = E = B = A as extension targets.  One loop per graph
over the stream of local maps (with their kinds, in (size, domain, values)
order) asks the extension search at step kinds H and A about them, yields
each distinct first failure of the six (X, H or A) pairs once, and stops
once all six are known.  Since f extends to kind Y exactly when a f b^-1
does, for automorphisms a and b, each first failure is least in its
Aut x Aut orbit, so from size two on the loop reads only lex-least domains
of Aut-orbits and values least under the automorphisms fixing the ones
before them (McKay's canonical augmentation); Aut comes from the same
kernel.  The 18 verdicts are read off those: every entry starts as HOLDS,
and each failure fills the entries it stands for (H's: Y = H; A's: I, M,
E, B, A) with one stuck vertex per step kind and one component note for
the surjective Ys.  The same search, which keeps nothing between queries,
answers :func:`extend_finite`.  It checks forward: each unassigned vertex
carries its candidate mask, every assignment narrows them, a branch that
empties one is refuted before it is entered, and the most-constrained
vertex is assigned next.  For oracle graphs a sweep starts a back-and-forth
schedule from each map of the same stream on the window's rows.  A schedule
reads the bitset rows of one truncation, so a malformed (asymmetric or
reflexive) oracle raises GraphError; a sweep runs each (map, step index)
state once, and builds traces only for the certified witnesses it keeps.
Past the truncation the schedule asks the generator's declared structure
for complete candidate lists only (the list half of the helper shared with
the age layer), and the predicate only about the listed vertices.  A
negative verdict is definite only when the stuck step's candidates are
confined to such a list and every one fails, otherwise it is UnknownAtBound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .graphs import FiniteGraph, GraphError, OracleGraph, _bits, connected_components
from .graphs import oracle_truncate
from .morphisms import (
    EndoKind,
    MorphismKind,
    PartialMap,
    X_BY_NAME,
    X_KINDS,
    X_NAMES,
    Y_KINDS,
    _local_maps,
    _step_mask,
    _step_sets,
    all_subsets,
    classify_map,
)

DECIDE_CAP = 7
DEFAULT_MAX_DOMAIN = 4
DEFAULT_HORIZON = 64
DEFAULT_DEPTH = 16
DEFAULT_WINDOW = 8


class Status(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown-at-bound"


@dataclass(frozen=True, slots=True)
class Verdict:
    """Three-valued outcome; failures carry a re-checkable witness."""

    status: Status
    witness: PartialMap | None = None
    stuck: int | None = None
    stuck_side: str | None = None
    certificate: str | None = None
    note: str | None = None
    bounds: dict | None = None
    details: tuple = ()

    @property
    def witnesses(self) -> tuple[PartialMap, ...]:
        """The witness of each ``(starting map, trace)`` of ``details``."""
        return tuple(trace.final for _, trace in self.details)

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    def report_line(self, x: MorphismKind, y: EndoKind) -> str:
        xn, yn = X_NAMES[x], y.value
        if self.status is Status.HOLDS:
            return f"HOLDS X={xn} Y={yn}"
        if self.status is Status.FAILS:
            stuck = "-" if self.stuck is None else str(self.stuck)
            line = f"FAIL X={xn} Y={yn} map={self.witness.serialize()} stuck={stuck}"
            if self.certificate:
                line += f" certificate={self.certificate}"
            if self.note:
                line += f" note={self.note}"
            return line
        return f"UNKNOWN X={xn} Y={yn} bounds={self.bounds}"


_RANK = {Status.HOLDS: 2, Status.UNKNOWN: 1, Status.FAILS: 0}


@dataclass(frozen=True, slots=True)
class MembershipVector:
    """One verdict per (X, Y) pair of the 18 morphism-extension classes; the exact
    vectors are cached and shared, so :func:`_classified` makes ``entries`` read-only."""

    entries: Mapping[tuple[MorphismKind, EndoKind], Verdict]

    def __repr__(self) -> str:
        return f"MembershipVector(entries={dict(self.entries)!r})"

    def get(self, code: str) -> Verdict:
        """Look up by a two-letter code such as ``"MB"``."""
        return self.entries[(X_BY_NAME[code[0]], EndoKind(code[1]))]

    def items(self) -> Iterator[tuple[str, Verdict]]:
        for x in X_KINDS:
            for y in Y_KINDS:
                yield X_NAMES[x] + y.value, self.entries[(x, y)]

    def monotonicity_violations(self) -> list[str]:
        """Order violations along both axes; empty on a lawful vector."""
        out = []
        rank = {k: _RANK[v.status] for k, v in self.entries.items()}
        for y in Y_KINDS:
            iso, mono, hom = (
                rank[(MorphismKind.ISOMORPHISM, y)],
                rank[(MorphismKind.MONOMORPHISM, y)],
                rank[(MorphismKind.HOMOMORPHISM, y)],
            )
            if not (iso >= mono >= hom):
                out.append(f"X-axis order broken at Y={y.value}")
        for x in X_KINDS:
            for y in Y_KINDS:
                for weaker in y.implies():
                    if rank[(x, y)] > rank[(x, weaker)]:
                        out.append(
                            f"Y-axis order broken: {X_NAMES[x]}{y.value} above "
                            f"{X_NAMES[x]}{weaker.value}"
                        )
        return out

    def table(self) -> str:
        return "\n".join(
            self.entries[(x, y)].report_line(x, y) for x in X_KINDS for y in Y_KINDS
        )


def _truncation(o: OracleGraph, f: PartialMap, *sizes: int) -> FiniteGraph:
    """Truncation of ``o`` covering every vertex of ``f`` and each of ``sizes``."""
    return oracle_truncate(o, max((*sizes, *(v + 1 for pair in f.pairs for v in pair))))


def _one_step(g, f: PartialMap, target: int, side: str, kind, horizon) -> tuple[int, ...]:
    _check_bounds(horizon=horizon)
    if target < 0 or isinstance(g, FiniteGraph) and target >= g.n:
        raise GraphError(f"vertex {target} out of range")
    if isinstance(g, FiniteGraph):
        t, horizon_mask = g, (1 << (g.n if horizon is None else min(horizon, g.n))) - 1
    elif horizon is None:
        raise GraphError("oracle graphs need an explicit horizon")
    else:
        t, horizon_mask = _truncation(g, f, horizon, target + 1), (1 << horizon) - 1
    if classify_map(t, f) < kind:
        raise GraphError("map is below the requested kind")
    return _bits(_step_mask(t.rows, f.pairs, target, side, kind, horizon_mask))


def one_step_extension(
    g, f: PartialMap, c: int, kind: MorphismKind, *, horizon: int | None = None
) -> tuple[int, ...]:
    """All targets ``d`` such that ``f + (c -> d)`` still has the given kind.

    For monomorphism kind and above, ``d`` must avoid the current image.
    Every ``d`` is below ``horizon`` if one is given; an oracle needs one,
    and is read from a truncation (which may raise).
    """
    if c in f.domain:
        raise GraphError(f"vertex {c} already in the domain")
    return _one_step(g, f, c, "extension", kind, horizon)


def one_step_preimage(
    g, f: PartialMap, b: int, kind: MorphismKind, *, horizon: int | None = None
) -> tuple[int, ...]:
    """All sources ``a`` outside the domain such that ``f + (a -> b)`` keeps the kind."""
    if b in f.values:
        raise GraphError(f"vertex {b} already in the image")
    return _one_step(g, f, b, "preimage", kind, horizon)


# ---------------------------------------------------------------------------
# Exact finite decisions


def _finite(g) -> FiniteGraph:
    """``g`` itself when it is finite; an oracle takes the bounded path instead."""
    if not isinstance(g, FiniteGraph):
        raise GraphError(f"exact decisions read a finite graph, got {type(g).__name__}; "
                         "an oracle takes the bounded path (decide_xy_bounded)")
    return g


def extend_finite(g: FiniteGraph, f: PartialMap, y: EndoKind) -> tuple[int, ...] | None:
    """A total endomorphism of kind ``y`` extending ``f``, or ``None``.

    E, B and A all search as A (a surjective endomorphism of a finite graph
    is an automorphism), so no surjectivity prune is needed.  The search is
    :func:`_extension`, the one the exact pass asks: the most-constrained
    unassigned vertex first, candidate values in ascending order.  ``None`` is
    an absence proof by exhaustion.
    """
    n = _finite(g).n
    kind = MorphismKind.ISOMORPHISM if y.needs_surjective else y.required_kind
    if classify_map(g, f) < kind:  # raises on a pair out of range
        return None
    total = _extension(g.rows, f.pairs, kind)
    if total is not None and y.needs_surjective:
        assert len(set(total)) == n
    return total


def total_endo_kinds(g: FiniteGraph, total: Iterable[int]) -> set[EndoKind]:
    """All endomorphism kinds a total vertex map satisfies (empty if not a hom)."""
    t = tuple(total)
    if len(t) != g.n:
        raise GraphError("total map must assign every vertex")
    kind = classify_map(g, PartialMap(tuple(enumerate(t))))
    # on a finite graph a surjective self-map is injective, so E needs a monomorphism
    return {
        y for y in EndoKind
        if kind >= y.required_kind and (kind >= MorphismKind.MONOMORPHISM or not y.needs_surjective)
    }


def _extension(rows, pairs, kind: MorphismKind) -> tuple[int, ...] | None:
    """A total map extending ``pairs`` (of kind ``kind``) whose every restriction has kind
    ``kind``, as its tuple of images, or ``None`` when there is none.

    Backtracking with forward checking: every unassigned vertex carries its candidate
    mask, one :func:`_step_mask` when the search starts, and each assignment ``v -> d``
    narrows the masks by the one-pair rule of :func:`_step_mask` (the neighbours of ``v``
    ``& rows[d]``; the non-neighbours ``& ~(1 << d)`` at MONOMORPHISM and
    ``& ~(rows[d] | 1 << d)`` at ISOMORPHISM).  A branch that leaves some vertex without
    a candidate is refuted before it is entered.  The narrowing pass also picks the next
    vertex: the most-constrained one, the least on ties; values go in ascending order,
    and the first total found is returned.
    """
    n = len(rows)
    assign = [-1] * n
    for u, fu in pairs:
        assign[u] = fu
    iso, mono = kind is MorphismKind.ISOMORPHISM, kind >= MorphismKind.MONOMORPHISM

    def search(cands: list[int], v: int) -> tuple[int, ...] | None:
        # v is the most-constrained unassigned vertex (-1 once none is left), and
        # every unassigned vertex has a candidate; a list passed down is never changed
        if v < 0:
            return tuple(assign)
        adjacent, mask = rows[v], cands[v]
        while mask:
            low = mask & -mask
            mask ^= low
            assign[v] = d = low.bit_length() - 1
            row = rows[d]
            non = ~(row | low) if iso else ~low if mono else -1
            nxt, best, least = cands[:], -1, n + 1
            for x in range(n):
                if assign[x] < 0:
                    nxt[x] = m = nxt[x] & (row if adjacent >> x & 1 else non)
                    if not m:
                        break  # a vertex without candidates: refuted
                    c = m.bit_count()
                    if c < least:
                        best, least = x, c
            else:
                total = search(nxt, best)
                if total is not None:
                    return total
        assign[v] = -1
        return None

    full, cands, best, least = (1 << n) - 1, [0] * n, -1, n + 1
    for x in range(n):
        if assign[x] < 0:
            cands[x] = m = _step_mask(rows, pairs, x, "extension", kind, full)
            c = m.bit_count()
            if c < least:
                best, least = x, c
    return search(cands, best) if least else None


def _component_confinement_note(comps: list[tuple[int, ...]], dom, vals) -> str | None:
    """Explain a surjectivity failure of the map ``dom -> vals`` through the
    components ``comps`` of the graph (as :func:`connected_components` lists
    them), when they are the obstruction."""
    if len(comps) < 2:
        return None
    comp_of = {v: idx for idx, comp in enumerate(comps) for v in comp}
    targets = {comp_of[t] for t in vals}
    coverable = len(targets) + len(comps) - len({comp_of[u] for u in dom})
    if coverable < len(comps):
        return (
            f"image confined to component(s) {sorted(targets)} of {len(comps)}; "
            f"at most {coverable} component(s) coverable"
        )
    return None


_FINITE_Y = (EndoKind.H, EndoKind.A)
_XY_KEYS = tuple((x, y) for x in X_KINDS for y in Y_KINDS)
_HOLDS = Verdict(Status.HOLDS)
# a finite target's step kinds, strongest first, and the (Y, step kind, surjective)
# its failure stands for
_STANDS_FOR = {
    y: (sorted({z.required_kind for z in ys}, reverse=True),
        tuple((z, z.required_kind, z.needs_surjective) for z in ys))
    for y, ys in ((EndoKind.H, (EndoKind.H,)), (EndoKind.A, Y_KINDS[1:]))
}


def _automorphisms(g: FiniteGraph) -> list[tuple[int, ...]]:
    """Every automorphism of ``g`` as its tuple of images, the identity first: the maps
    grown vertex by vertex from :func:`_step_mask` at ISOMORPHISM among equal degrees."""
    rows, maps, degrees = g.rows, [()], [row.bit_count() for row in g.rows]
    same = [sum(1 << w for w, e in enumerate(degrees) if e == d) for d in degrees]
    for v in range(g.n):
        maps = [f + ((v, d),) for f in maps for d in _bits(
            _step_mask(rows, f, v, "extension", MorphismKind.ISOMORPHISM, same[v]))]
    return [tuple(d for _, d in f) for f in maps]


def _first_failures(g: FiniteGraph) -> Iterator[tuple]:
    """Each distinct first failure once, as ``(y, xs, witness, kind, domain mask)``, for
    ``y`` in H and A: the first non-extendable local morphism of kind at least ``x``, for
    each ``x`` of ``xs``; a pair never yielded holds.

    One loop over the :func:`~homext.morphisms._local_maps` stream, whose
    floor is the weakest ``x`` not yet settled for some ``y``; the loop stops
    once all six pairs are settled.  A map below ``y``'s required kind (a
    non-isomorphism for A) fails without a query; every other map is one
    :func:`_extension` search at that kind.

    Its failing maps are unions of Aut x Aut orbits, so from size two on (Aut is found
    there) it visits only domains lex-least in their Aut-orbit, values as ``group`` keeps.
    """
    lowest = dict.fromkeys(_FINITE_Y, MorphismKind.HOMOMORPHISM)  # weakest unsettled x
    floor, group = [MorphismKind.HOMOMORPHISM], []

    def domains():
        yield from combinations(range(g.n), 1)
        auts = _automorphisms(g)[1:]
        group.extend((sum(1 << v for v, av in enumerate(a) if av == v),
                      sum(1 << v for v, av in enumerate(a) if av < v)) for a in auts)
        for size in range(2, g.n + 1):
            seen = set()  # the orbits of the domains yielded
            for dom in combinations(range(g.n), size):
                if sum(1 << v for v in dom) not in seen:
                    seen.update(sum(1 << a[v] for v in dom) for a in auts)
                    yield dom

    for pairs, dom_mask, kind in _local_maps(g.rows, domains(), floor, group):
        for y in _FINITE_Y:
            lo = lowest[y]
            if kind < lo:
                continue
            if kind < y.required_kind or _extension(g.rows, pairs, y.required_kind) is None:
                yield y, [x for x in X_KINDS if lo <= x <= kind], PartialMap(pairs), kind, dom_mask
                lowest[y] = kind + 1
                floor[0] = min(lowest.values())
                if floor[0] > MorphismKind.ISOMORPHISM:
                    return


@lru_cache(maxsize=4096)
def _classified(g: FiniteGraph) -> MembershipVector:
    """The 18 verdicts read off the at most six distinct failures of one
    :func:`_first_failures` pass.  Every entry starts as HOLDS, and each failure fills
    the entries of all its ``xs``: H's stands for Y = H, A's for I, M, E, B and A (the
    finite identity).  It computes one ``stuck`` per step kind (the least vertex
    outside its domain mask whose step at that kind has no candidate) and one
    component note for its surjective Ys, from components computed at most once per
    graph.  Equal verdicts share one object; the entries keep :data:`_XY_KEYS` order.
    """
    rows, full = g.rows, (1 << g.n) - 1
    entries = dict.fromkeys(_XY_KEYS, _HOLDS)
    comps, shared = None, {}  # shared maps (pairs, stuck, note) to a verdict
    for finite_y, xs, w, w_kind, dom_mask in _first_failures(g):
        note = None
        if finite_y is EndoKind.A:
            comps = comps or connected_components(g)
            note = _component_confinement_note(comps, w.domain, w.values)
        kinds, ys = _STANDS_FOR[finite_y]
        # strongest kind first: a vertex with a candidate at one kind has one at
        # every weaker kind, so each search resumes at the previous stuck vertex
        stucks, free = {}, full & ~dom_mask
        for kind in kinds:
            stucks[kind] = None
            if w_kind >= kind:
                while free:
                    c = (free & -free).bit_length() - 1
                    if not _step_mask(rows, w.pairs, c, "extension", kind, full):
                        stucks[kind] = c
                        break
                    free ^= 1 << c
        for y, kind, surj in ys:
            key = w.pairs, stucks[kind], note if surj else None
            v = shared.get(key)
            if v is None:
                v = shared[key] = Verdict(Status.FAILS, witness=w, stuck=key[1], note=key[2])
            for x in xs:
                entries[x, y] = v
    return MembershipVector(MappingProxyType(entries))


def decide_xy_finite(g: FiniteGraph, x: MorphismKind, y: EndoKind) -> Verdict:
    """Exact verdict: does every local morphism of kind ``x`` extend to kind ``y``?
    The ``(x, y)`` entry of :func:`classify_finite`."""
    return classify_finite(g).entries[(x, y)]


def classify_finite(g: FiniteGraph) -> MembershipVector:
    """All 18 verdicts at once, read off the six first failures (see
    :func:`_classified`).  A failure's witness is the first non-extendable map
    in (size, domain, images) order, so of minimal domain.  Size is capped at
    :data:`DECIDE_CAP`: a pass that does not stop early walks every local map
    that can be least in its Aut x Aut orbit (see :func:`_first_failures`).
    """
    if _finite(g).n > DECIDE_CAP:
        raise GraphError(f"exact classification for n={g.n} exceeds cap {DECIDE_CAP}")
    return _classified(g)


# ---------------------------------------------------------------------------
# Bounded oracle decisions


@dataclass(frozen=True)
class TraceStep:
    index: int
    side: str  # "extension" | "preimage"
    pair: tuple[int, int]
    rule: str


@dataclass
class ExtensionTrace:
    """Record of a bounded back-and-forth run from one starting map."""

    initial: PartialMap
    y: EndoKind
    header: str
    steps: list[TraceStep] = field(default_factory=list)
    final: PartialMap | None = None
    outcome: str = "depth-reached"  # | "stuck" | "horizon-exhausted"
    stuck_vertex: int | None = None
    stuck_side: str | None = None
    certificate: str | None = None


def _check_bounds(*, horizon=None, depth=None, window=None, k=None) -> None:
    # a bound below its least value would sweep nothing and report a vacuous unknown
    for name, value, least in (("horizon", horizon, 1), ("depth", depth, 0), ("window", window, 1),
                               ("max domain size", k, 1)):
        if value is not None and value < least:
            raise GraphError(f"{name} must be at least {least}, got {value}")


def _live(o: OracleGraph, v: int, pos, neg, skip) -> bool:
    return v not in skip and all(o.adj(v, u) for u in pos) and not any(o.adj(v, u) for u in neg)


def _listed_past_truncation(o: OracleGraph, pos, neg, skip, cocones_first: bool):
    """The list half of :func:`_past_truncation`: its answer from the first
    complete candidate list the structure declares, or ``(False, None)``
    without one.  A confinement is ``(co, set, listed)``: whether the list
    holds co-cones, the set they are taken over, and the list."""
    for co, s in [(True, neg), (False, pos)] if cocones_first else [(False, pos), (True, neg)]:
        listed = None if o.structure is None or not s else (
            o.structure.cocone_candidates(s) if co else o.structure.cone_candidates(s))
        if listed is not None:
            if any(_live(o, v, pos, neg, skip) for v in listed):
                return True, None
            return False, (co, s, listed)
    return False, None


def _past_truncation(
    o: OracleGraph, pos: frozenset[int], neg: frozenset[int], skip: frozenset[int]
) -> tuple[bool, tuple | None]:
    """Is there a vertex outside ``skip`` adjacent to all of ``pos`` and none of ``neg``?

    Asked once a truncation holds no such vertex, so the answer comes from
    the oracle's declared structure.  Complete candidate lists are asked
    first: cones over ``pos``, then co-cones over ``neg``, never over an
    empty set, since in an infinite graph every vertex is a cone and a
    co-cone over nothing.  Each listed vertex is tested with the predicate:
    ``(True, None)`` if one passes, else ``(False, (co, set, listed))``, a
    horizon-independent confinement that the bounded engine renders.  Without
    a list the structure's witness for the first non-empty set is tested,
    and no certificate is possible.
    """
    live, confined = _listed_past_truncation(o, pos, neg, skip, False)
    s = pos or neg
    if not live and confined is None and o.structure is not None and s:
        w = o.structure.cone_witness(s) if pos else o.structure.cocone_witness(s)
        live = w is not None and _live(o, w, pos, neg, skip)
    return live, confined


def back_and_forth(
    o: OracleGraph,
    f: PartialMap,
    y: EndoKind,
    *,
    depth: int = DEFAULT_DEPTH,
    horizon: int = DEFAULT_HORIZON,
    x: MorphismKind | None = None,
) -> ExtensionTrace:
    """Drive a bounded extension schedule for ``f`` toward a kind-``y`` endomorphism.

    Surjective targets alternate: even steps cover the least uncovered image
    vertex through a preimage search, odd steps extend the domain at its
    least missing vertex.  Non-surjective targets only extend the domain.
    Each step adds the least candidate inside the horizon; the schedule stops
    when the depth is reached, no candidate exists inside the horizon
    (``stuck``), or the truncation is entirely used up
    (``horizon-exhausted``).

    Steps preserve kind ``max(x, required kind of y)`` so that every prefix,
    in particular a stuck one, is itself a kind-``x`` morphism.  A stuck step
    is certified only when the candidate set at kind ``required(y)`` (the
    kind any restriction of a kind-``y`` endomorphism satisfies) is provably
    confined by the declared structure and exhausted; the stuck prefix is
    then a definite counterexample in its own right.

    The schedule reads the rows of one truncation of ``o`` (to the horizon
    and every vertex of ``f``), so each step's candidates are one AND of
    rows; an asymmetric or reflexive ``o`` raises :class:`GraphError`, and so
    does a horizon below 1 or a negative depth.  A stuck step is looked at
    past the truncation through :func:`_listed_past_truncation`.  The trace is
    built from the schedule's result by the builder that
    :func:`decide_xy_bounded` calls only for the witnesses it keeps.
    """
    _check_bounds(horizon=horizon, depth=depth)
    t = _truncation(o, f, horizon)
    f_kind = classify_map(t, f)
    kind = y.required_kind if x is None else max(x, y.required_kind)
    if f_kind < kind:
        raise GraphError(f"map is below the kind required for Y={y.value}")
    return _trace(f, y, kind, f_kind, _schedule(o, t.rows, f.pairs, y, kind, depth, horizon, {}))


def _schedule(o: OracleGraph, rows, f, y: EndoKind, kind, depth, horizon, memo):
    """The schedule of :func:`back_and_forth` from the pairs ``f`` at step kind ``kind``, on
    rows covering the horizon and ``f``: ``(added pairs in step order, outcome, stuck
    vertex, stuck side, confinement from :func:`_listed_past_truncation` or None)``.

    The rest depends only on the map and the step index, so the sweep's ``memo``
    maps each ``(state, step)`` reached to ``(run, offset)``: the remainder is
    ``run`` less its first ``offset`` pairs.  ``state`` packs the map into one
    integer, ``u``'s image plus 1 in bit field ``u``."""
    cert_kind = y.required_kind
    surj = y.needs_surjective
    horizon_mask = (1 << horizon) - 1
    width = len(rows).bit_length()
    domain = image = state = 0
    for u, fu in f:
        domain |= 1 << u
        image |= 1 << fu
        state |= fu + 1 << u * width
    pairs, start, seen = list(f), len(f), []
    rest, end = [], ("depth-reached", None, None, None)
    for step in range(depth):
        key = state, step
        if key in memo:
            run, offset = memo[key]
            rest, end = run[0][offset:], run[1:]
            break
        seen.append(key)
        side = "preimage" if surj and step % 2 == 0 else "extension"
        free = horizon_mask & ~(image if side == "preimage" else domain)
        if not free:
            end = "horizon-exhausted", None, None, None
            break
        target = (free & -free).bit_length() - 1
        mask = _step_mask(rows, pairs, target, side, kind, horizon_mask)
        if not mask:
            confined = None
            # certified only if the step is stuck at the weaker kind cert_kind too
            if not _step_mask(rows, pairs, target, side, cert_kind, horizon_mask):
                # only a complete list can confine, so no witness is asked for
                _, confined = _listed_past_truncation(
                    o, *_step_sets(rows, pairs, target, side, cert_kind), side == "preimage"
                )
            end = "stuck", target, side, confined
            break
        v = (mask & -mask).bit_length() - 1
        pair = (v, target) if side == "preimage" else (target, v)
        domain |= 1 << pair[0]
        image |= 1 << pair[1]
        state |= pair[1] + 1 << pair[0] * width
        pairs.append(pair)
    run = (pairs[start:] + rest, *end)
    memo.update((key, (run, offset)) for offset, key in enumerate(seen))
    return run


def _trace(f: PartialMap, y: EndoKind, kind, f_kind, run) -> ExtensionTrace:
    """The :class:`ExtensionTrace` of a :func:`_schedule` result ``run`` from ``f``."""
    added, outcome, stuck, stuck_side, confined = run
    surj = y.needs_surjective
    header = f"schedule for Y={y.value}: step kind {kind.name}"
    header += ", alternating preimage/extension" if surj else ", extension only"
    if surj and kind > y.required_kind:
        header += f" (preimage steps kept at {kind.name} so stuck prefixes stay valid witnesses)"
    elif y is EndoKind.E and f_kind is MorphismKind.ISOMORPHISM:
        header += " (isomorphism start driven by image-side preimage steps)"
    certificate = None
    if confined:
        co, s, listed = confined
        where = "preimage" if stuck_side == "preimage" else "image"
        over = f"{'co-cones' if co else 'cones'} over {sorted(s)} = {sorted(listed)}"
        certificate = f"{where} of {stuck} confined to {over}; exhausted"
    steps = []
    for i, pair in enumerate(added):
        side = "preimage" if surj and i % 2 == 0 else "extension"
        steps.append(TraceStep(i, side, pair, f"least {side} candidate"))
    return ExtensionTrace(
        initial=f, y=y, header=header, steps=steps,
        final=PartialMap(tuple(sorted((*f.pairs, *added)))), outcome=outcome,
        stuck_vertex=stuck, stuck_side=stuck_side, certificate=certificate,
    )


def decide_xy_bounded(
    o: OracleGraph,
    x: MorphismKind,
    y: EndoKind,
    *,
    k: int = DEFAULT_MAX_DOMAIN,
    horizon: int = DEFAULT_HORIZON,
    depth: int = DEFAULT_DEPTH,
    window: int | None = None,
) -> Verdict:
    """Bounded sweep: back-and-forth from every kind-``x`` map inside the window.

    Never returns Holds for an oracle graph.  The starting maps, with their
    kinds, come from the :func:`~homext.morphisms._local_maps` stream on the
    window's rows at floor ``x``.  The sweep is complete over its bounds:
    every starting map is driven to depth and every certified stuck prefix
    is collected.  A certified stuck prefix extends its starting map
    by kind-preserving steps, so it is itself a kind-``x`` morphism with no
    kind-``y`` extension anywhere in the graph: the verdict's witnesses are
    those prefix maps, and ``details`` pairs each with its starting map and
    trace, the only traces the sweep builds.  Uncertified stuck steps only
    contribute to the UnknownAtBound accounting.  One truncation, to
    ``max(horizon, window)``, serves every schedule and, as its prefix, the
    window (see :func:`back_and_forth`); later sweeps on ``o`` read it from
    the oracle's memo.  The schedules share one memo, dropped on return, keyed
    by the map packed into one integer and the step index (see
    :func:`_schedule`).  A window, horizon or ``k`` below 1 or a negative
    depth raises :class:`GraphError`.
    """
    _check_bounds(horizon=horizon, depth=depth, window=window, k=k)
    window = min(horizon, DEFAULT_WINDOW) if window is None else window
    t = oracle_truncate(o, max(horizon, window))
    definite: list[tuple[PartialMap, ExtensionTrace]] = []
    maps = stuck_uncertified = 0
    step_kind = max(x, y.required_kind)
    memo: dict = {}
    domains = all_subsets(range(window), min(k, window))
    for pairs, _, kind in _local_maps(oracle_truncate(o, window).rows, domains, [x]):
        maps += 1
        if kind < y.required_kind:
            # a restriction of a kind-y endomorphism always has kind
            # required(y); a strictly weaker map fails horizon-independently
            f = PartialMap(pairs)
            trace = ExtensionTrace(
                initial=f,
                y=y,
                header="kind obstruction",
                final=f,
                outcome="stuck",
                certificate=(
                    f"map kind {kind.name} below {y.required_kind.name}, the kind "
                    f"every restriction of a {y.value}-endomorphism has"
                ),
            )
            definite.append((f, trace))
            continue
        run = _schedule(o, t.rows, pairs, y, step_kind, depth, horizon, memo)
        if run[4]:  # a confinement certifies the stuck step
            f = PartialMap(pairs)
            definite.append((f, _trace(f, y, step_kind, kind, run)))
        elif run[1] == "stuck":
            stuck_uncertified += 1
    bounds = {
        "max_domain": k,
        "horizon": horizon,
        "depth": depth,
        "window": window,
        "maps": maps,
        "stuck_uncertified": stuck_uncertified,
    }
    if definite:
        first, trace = definite[0]
        return Verdict(
            Status.FAILS,
            witness=trace.final,
            stuck=trace.stuck_vertex,
            stuck_side=trace.stuck_side,
            certificate=trace.certificate,
            bounds=bounds,
            details=tuple(definite),
        )
    return Verdict(Status.UNKNOWN, bounds=bounds)
