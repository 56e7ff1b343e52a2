"""Age analysis: cone/co-cone classification, age orders, and derived criteria.

The age of a graph is the set of isomorphism types of its finite induced
subgraphs.  Each type is flagged by whether some copy has a cone (a vertex
adjacent to the whole copy), some copy has none, and dually for co-cones.
Two partial orders compare age members: existence of a surjective
homomorphism, and of a surjective monomorphism; between finite graphs of
equal size a surjection is a bijection, so the second is the first
restricted to equal sizes.  On those ingredients sit the closure criteria
for extension-homogeneity, the four extension properties, and the
independence/star statistics with their inequality.

Every search inside a truncation runs on its bitset rows.  The copies of
each size are walked depth first, holding only the path: a copy's pattern
key extends its prefix's by the new vertex's row bits on the members, and
its cone and co-cone masks are its prefix's with one row AND each.  Each call
canonicalises one copy per labelled pattern it meets and keeps nothing
afterwards.  The extension properties are one-point demands
``(pos, neg, skip)``: delta and therefore ask for a cone or a co-cone over
a copy, star and dagger for a forth or back step
(:func:`~homext.morphisms._step_sets`) of a map from the engine's stream
:func:`~homext.morphisms._local_maps`.  Those steps and the orders' searches
take candidates from its kernel :func:`~homext.morphisms._step_mask`.  A
case or copy left without a candidate in the truncation is absent on a
finite graph; on an oracle it looks past the truncation through the
engine's one helper
:func:`~homext.engine._past_truncation`: the declared structure is asked for
complete candidate lists first, then for a witness, and the predicate about
the listed vertices and the witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .formats import to_graph6
from .graphs import (
    FiniteGraph,
    GraphError,
    OracleGraph,
    _bits,
    canonical_form,
    complement,
    induced_subgraph,
    max_independent_set_size,
    oracle_truncate,
)
from .engine import (
    DEFAULT_WINDOW, _RANK, Status, Verdict, _check_bounds, _past_truncation, total_endo_kinds)
from .morphisms import (
    EndoKind, MorphismKind, PartialMap, _local_maps, _step_mask, _step_sets, all_subsets)

EMBEDDING_CAP = 500
# star and dagger on a finite graph walk at most sum_{s <= min(k, n)} C(n, s) n^s maps
PROPERTY_MAP_CAP = 1_000_000
PROPERTY_NAMES = ("delta", "therefore", "star", "dagger")


class Flag(Enum):
    YES = "Y"
    NO = "N"
    UNKNOWN = "U"


@dataclass
class AgeEntry:
    """One isomorphism type in the age, with its cone/co-cone flags."""

    graph: FiniteGraph  # canonical form
    size: int
    copies: int  # distinct realizing vertex sets seen (within the bound)
    kk: Flag = Flag.UNKNOWN  # some copy has a cone
    okk: Flag = Flag.UNKNOWN  # some copy has no cone at all
    hh: Flag = Flag.UNKNOWN  # some copy has a co-cone
    ohh: Flag = Flag.UNKNOWN  # some copy has no co-cone at all
    coned_copy: tuple[int, ...] | None = None
    cone_free_copy: tuple[int, ...] | None = None
    coconed_copy: tuple[int, ...] | None = None
    cocone_free_copy: tuple[int, ...] | None = None

    @property
    def graph6(self) -> str:
        return to_graph6(self.graph)

    def report_line(self) -> str:
        return (
            f"size={self.size} canon={self.graph6} kk={self.kk.value} "
            f"okk={self.okk.value} hh={self.hh.value} ohh={self.ohh.value}"
        )


def _as_source(source, horizon: int | None) -> tuple[FiniteGraph, OracleGraph | None]:
    """``(g, oracle)``: the graph searched and the oracle behind it, ``None``
    for a finite graph (whose horizon is ignored)."""
    if isinstance(source, FiniteGraph):
        return source, None
    if isinstance(source, OracleGraph):
        if horizon is None:
            raise GraphError("oracle age analysis needs a horizon")
        _check_bounds(horizon=horizon)
        return oracle_truncate(source, horizon), source
    raise GraphError(f"unsupported source {source!r}")


def _copies(rows, m: int, top: int):
    """``(subset, key, cone, cocone)`` for the subsets of ``range(m)`` of size 1 to
    ``top``, in :func:`~homext.morphisms.all_subsets` order: one depth-first walk
    per size, holding only the path.  Adding ``v`` to a prefix of length ``s``
    gives ``key << s | col`` (``col``: ``v``'s adjacency to the members, read
    off ``rows[v]``; a sentinel bit fixes the size), ``cone & rows[v]`` and
    ``cocone & ~(rows[v] | 1 << v)``, masks over all rows."""
    full = (1 << len(rows)) - 1
    for size in range(1, top + 1):
        path = [((), 1, full, full, iter(range(m - size + 1)))]
        while path:
            subset, key, cone, cocone, vs = path[-1]
            s = len(subset)
            for v in vs:  # position s holds at most m - size + s
                r, col = rows[v], 0
                for u in subset:
                    col = col << 1 | (r >> u & 1)
                copy = (subset + (v,), key << s | col, cone & r, cocone & ~(r | 1 << v))
                if s + 1 == size:
                    yield copy
                else:
                    path.append((*copy, iter(range(v + 1, m - size + s + 2))))
                    break
            else:
                path.pop()


def _cone_status(
    oracle: OracleGraph | None, subset: tuple[int, ...], *, co: bool
) -> tuple[bool, bool]:
    """(exists, definite_absence) for cones (or co-cones) over a copy with none
    in the truncation (:func:`_copies`): definite on a finite graph; an oracle
    asks :func:`~homext.engine._past_truncation`, definite only under a list."""
    if oracle is None:
        return False, True
    s, none = frozenset(subset), frozenset()
    live, confined = _past_truncation(oracle, none if co else s, s if co else none, s)
    return live, confined is not None


def compute_age(
    source,
    k: int,
    *,
    horizon: int | None = None,
    embedding_cap: int = EMBEDDING_CAP,
) -> list[AgeEntry]:
    """Isomorphism types of induced subgraphs of size up to ``k``, with flags.

    Types are deduplicated by canonical form, computed once per labelled
    pattern (an int key built column by column, see :func:`_copies`) met in
    this call.  The four flags are settled per copy: an existence flag turns
    Yes on the first verified cone/co-cone, an absence flag turns Yes on the
    first copy whose candidate set is provably exhausted; once both cone
    flags (or both co-cone flags) of a type are Yes, its later copies skip
    that search.  A No needs every copy examined the other way, so exceeding
    ``embedding_cap`` copies (at least 1) downgrades the universally
    quantified side to Unknown.
    """
    return _age_table(*_as_source(source, horizon), k, embedding_cap)


def _age_table(
    g: FiniteGraph, oracle: OracleGraph | None, k: int, embedding_cap: int
) -> list[AgeEntry]:
    if k < 1:
        raise GraphError(f"age bound must be at least 1, got {k}")
    if embedding_cap < 1:
        raise GraphError(f"embedding cap must be at least 1, got {embedding_cap}")
    yes = Flag.YES  # local: Flag.YES is a slow class attribute lookup
    entries: dict[FiniteGraph, AgeEntry] = {}
    by_pattern: dict[int, AgeEntry] = {}  # labelled pattern -> entry, this call only
    for subset, key, cone, cocone in _copies(g.rows, g.n, min(k, g.n)):
        entry = by_pattern.get(key)
        if entry is None:
            canon, _ = canonical_form(induced_subgraph(g, subset))
            entry = by_pattern[key] = entries.setdefault(canon, AgeEntry(canon, canon.n, 0))
        entry.copies += 1
        if entry.copies > embedding_cap:
            continue
        if entry.kk is not yes or entry.okk is not yes:
            found, absent = (True, False) if cone else _cone_status(oracle, subset, co=False)
            if found and entry.kk is not yes:
                entry.kk = yes
                entry.coned_copy = subset
            if absent and entry.okk is not yes:
                entry.okk = yes
                entry.cone_free_copy = subset
        if entry.hh is not yes or entry.ohh is not yes:
            found, absent = (True, False) if cocone else _cone_status(oracle, subset, co=True)
            if found and entry.hh is not yes:
                entry.hh = yes
                entry.coconed_copy = subset
            if absent and entry.ohh is not yes:
                entry.ohh = yes
                entry.cocone_free_copy = subset
    for entry in entries.values():
        # On a fully scanned finite source the flags are exhaustive: a flag
        # still Unknown means its existential never fired on any copy.
        if oracle is None and entry.copies <= embedding_cap:
            for attr in ("kk", "okk", "hh", "ohh"):
                if getattr(entry, attr) is Flag.UNKNOWN:
                    setattr(entry, attr, Flag.NO)
    return sorted(entries.values(), key=lambda e: (e.size, to_graph6(e.graph)))


def age_report(entries: list[AgeEntry]) -> str:
    """Entry lines followed by the definite breaks of the closure laws, if any."""
    lines = [e.report_line() for e in entries]
    laws = (("kk", order_preceq, True), ("hh", order_preceq, False))
    for a, b, (attr, _, _) in _breaks(entries, laws, (Flag.NO,)):
        lines.append(f"violation: coned {a.graph6} maps onto cone-free {b.graph6}" if attr == "kk"
                     else f"violation: cocone-free {b.graph6} maps onto coconed {a.graph6}")
    return "\n".join(lines)


def _breaks(entries: list[AgeEntry], laws, flags):
    """``(a, b, law)``, in that order, for each Yes entry ``a`` that is related under a
    closure law ``(attr, order, upward)`` to an entry ``b`` whose flag is in ``flags``:
    ``a`` below ``b`` in ``order`` (upward) or above it.  The order is asked only
    about such pairs."""
    for a in entries:
        for b in entries:
            for law in laws:
                attr, order, upward = law
                if getattr(a, attr) is Flag.YES and getattr(b, attr) in flags and (
                        order(a.graph, b.graph) if upward else order(b.graph, a.graph)):
                    yield a, b, law


def order_preceq(a: FiniteGraph, b: FiniteGraph) -> bool:
    """Existence of a surjective homomorphism from ``a`` onto ``b``.

    Each vertex of ``a`` takes its candidates from one engine kernel call,
    :func:`~homext.morphisms._step_mask`, over the rows of the disjoint union
    (``b``'s vertex ``d`` is ``a.n + d``); a branch is cut once the vertices
    left cannot cover the part of ``b`` outside the image."""
    if a.n < b.n:
        return False
    rows = a.rows + tuple(r << a.n for r in b.rows)
    onto = (1 << a.n + b.n) - (1 << a.n)

    def rec(pairs: tuple[tuple[int, int], ...], image: int) -> bool:
        pos = len(pairs)
        if (onto & ~image).bit_count() > a.n - pos:
            return False
        if pos == a.n:
            return True
        mask = _step_mask(rows, pairs, pos, "extension", MorphismKind.HOMOMORPHISM, onto)
        while mask:
            low = mask & -mask
            mask ^= low
            if rec(pairs + ((pos, low.bit_length() - 1),), image | low):
                return True
        return False

    return rec((), 0)


def order_sqsubseteq(a: FiniteGraph, b: FiniteGraph) -> bool:
    """Existence of a surjective monomorphism (a bijective homomorphism) ``a -> b``.

    Between finite graphs of equal size a surjective map is a bijection, so
    this is :func:`order_preceq` restricted to equal sizes."""
    return a.n == b.n and order_preceq(a, b)


@dataclass
class CriterionReport:
    which: str
    conditions: list[tuple[str, Verdict]]
    entries: list[AgeEntry]

    @property
    def verdict(self) -> Verdict:
        return min((v for _, v in self.conditions), key=lambda v: _RANK[v.status])

    def report(self) -> str:
        lines = [f"criterion {self.which}:"]
        for name, v in self.conditions:
            lines.append(f"  [{v.status.value}] {name}" + (f" ({v.note})" if v.note else ""))
        return "\n".join(lines)


def _flag_disjoint_condition(
    entries: list[AgeEntry], yes_attr: str, no_attr: str, label: str
) -> Verdict:
    unknown = False
    for e in entries:
        a, b = getattr(e, yes_attr), getattr(e, no_attr)
        if a is Flag.YES and b is Flag.YES:
            return Verdict(Status.FAILS, note=f"{label} overlap at {e.graph6}")
        if a is Flag.UNKNOWN or b is Flag.UNKNOWN:
            unknown = True
    return Verdict(Status.UNKNOWN if unknown else Status.HOLDS)


def _closure_condition(
    entries: list[AgeEntry],
    attr: str,
    order,
    *,
    upward: bool,
    label: str,
) -> Verdict:
    """Closure of a Yes-flagged set of entries under an age order.

    Upward closure: a Yes entry below a No entry is a violation.  Downward
    closure: a Yes entry above a No entry is a violation.  Unknown flags on
    either side leave the condition undecided at this bound; a Yes entry on
    the other side cannot break the law, so the order is not asked about it.
    """
    unknown = any(getattr(e, attr) is Flag.UNKNOWN for e in entries)
    for a, b, _ in _breaks(entries, ((attr, order, upward),), (Flag.NO, Flag.UNKNOWN)):
        if getattr(b, attr) is Flag.NO:
            return Verdict(
                Status.FAILS,
                note=f"{label}: {a.graph6} yes but {'above' if not upward else 'below'}-related {b.graph6} no",
            )
        unknown = True
    return Verdict(Status.UNKNOWN if unknown else Status.HOLDS)


def check_criterion(
    source,
    which: str,
    k: int,
    *,
    horizon: int | None = None,
    embedding_cap: int = EMBEDDING_CAP,
) -> CriterionReport:
    """Closure conditions on the age that characterize HH/HE/ME-homogeneity.

    HH: no age member both has a coned copy and a cone-free copy, and the
    coned members are upward-closed under the surjective-homomorphism order.
    HE adds the dual co-cone conditions with downward closure in the same
    order; ME uses the surjective-monomorphism order instead.  On finite
    inputs every condition is definite; on oracles a condition fails only on
    flag values that are certificate-backed, and is otherwise unknown.
    """
    which = which.upper()
    if which not in ("HH", "HE", "ME"):
        raise GraphError(f"unknown criterion {which!r}")
    g, oracle = _as_source(source, horizon)
    entries = _age_table(g, oracle, k, embedding_cap)
    conditions = [
        (
            "coned and cone-free age members disjoint",
            _flag_disjoint_condition(entries, "kk", "okk", "kk/okk"),
        ),
        (
            "coned members upward-closed under surjective-hom order",
            _closure_condition(entries, "kk", order_preceq, upward=True, label="kk up"),
        ),
    ]
    if which in ("HE", "ME"):
        order = order_preceq if which == "HE" else order_sqsubseteq
        order_name = "surjective-hom" if which == "HE" else "surjective-mono"
        conditions.append(
            (
                "coconed and cocone-free age members disjoint",
                _flag_disjoint_condition(entries, "hh", "ohh", "hh/ohh"),
            )
        )
        conditions.append(
            (
                f"coconed members downward-closed under {order_name} order",
                _closure_condition(entries, "hh", order, upward=False, label="hh down"),
            )
        )
    if oracle is not None:
        # the conditions quantify over the full age; a clean bounded scan
        # never settles them positively for an infinite graph
        conditions = [
            (
                name,
                Verdict(Status.UNKNOWN, note="no violation within bound")
                if v.status is Status.HOLDS
                else v,
            )
            for name, v in conditions
        ]
    return CriterionReport(which, conditions, entries)


@dataclass
class PropertyReport:
    which: str
    verdict: Verdict
    cases: int
    unwitnessed: int

    @property
    def all_witnessed(self) -> bool:
        return self.unwitnessed == 0 and self.verdict.status is not Status.FAILS


def check_property(
    source,
    which: str,
    k: int,
    *,
    horizon: int | None = None,
    window: int | None = None,
) -> PropertyReport:
    """Bounded check of one of the four extension properties.

    ``delta``: every subset of size up to ``k`` has a cone; ``therefore``:
    a co-cone.  ``star``: every surjective local monomorphism with domain
    size up to ``k`` extends one domain vertex at a time (image-side vertex
    outside the current image); ``dagger``: every surjective local
    homomorphism accepts a preimage for every vertex outside its image.
    Each case is a one-point demand (:func:`_property_cases`), and a case
    with no candidate in the truncation takes one path: a definite absence
    on a finite graph, a look past the truncation on an oracle.

    Finite graphs get definite verdicts for the bounded quantifiers.  For
    oracles, subsets and map domains range over ``window`` (default
    :data:`~homext.engine.DEFAULT_WINDOW`) and searches over ``horizon``;
    failures are definite only under a confinement certificate, and a clean
    sweep reports UnknownAtBound with the all-witnessed count.
    An oracle's window or horizon below 1 raises :class:`GraphError`.
    """
    if which not in PROPERTY_NAMES:
        raise GraphError(f"unknown property {which!r}")
    if k < 1:
        raise GraphError(f"property bound must be at least 1, got {k}")
    if not isinstance(source, FiniteGraph):
        _check_bounds(window=window)  # the horizon is checked with the source
    g, oracle = _as_source(source, horizon)
    if oracle is None and which in ("star", "dagger"):
        maps = sum(math.comb(g.n, s) * g.n**s for s in range(1, min(k, g.n) + 1))
        if maps > PROPERTY_MAP_CAP:
            raise GraphError(f"{which} on a finite graph may walk {maps} local maps "
                             f"(n={g.n}, k={k}), over PROPERTY_MAP_CAP={PROPERTY_MAP_CAP}")
    domain_bound = g.n if oracle is None else min(DEFAULT_WINDOW if window is None else window, g.n)
    unwitnessed = 0
    for cases, stuck in _property_cases(g, which, k, domain_bound):
        if stuck is None:  # the last item, after every case
            break
        demand, pairs, t, side, note = stuck
        if oracle is not None:
            live, confined = _past_truncation(oracle, *demand)
            if live:
                continue
            if confined is None:
                unwitnessed += 1
                continue
        certificate = None if oracle is None else "confined candidate list exhausted"
        failure = Verdict(Status.FAILS, witness=PartialMap(pairs), stuck=t, stuck_side=side,
                          note=note, certificate=certificate)
        return PropertyReport(which, failure, cases, unwitnessed)
    bounds = {"k": k, "horizon": horizon, "window": domain_bound}
    verdict = Verdict(Status.HOLDS) if oracle is None else Verdict(Status.UNKNOWN, bounds=bounds)
    return PropertyReport(which, verdict, cases, unwitnessed)


def _property_cases(g: FiniteGraph, which: str, k: int, domain_bound: int):
    """``(cases, stuck)`` for each case of ``which`` over ``range(domain_bound)``
    that ``g`` holds no candidate for: the cases met so far, this one included,
    and ``(demand, pairs, stuck, side, note)``, the case's one-point demand
    ``(pos, neg, skip)``, asking for a vertex outside ``skip`` adjacent to all
    of ``pos`` and none of ``neg``, with the fields of its failure.  The last
    item is ``(cases, None)``, with every case counted.  ``delta`` and
    ``therefore`` ask for a cone ``(S, {}, S)`` or a co-cone ``({}, S, S)``
    over each copy ``S`` of :func:`_copies`, tested on its masks; ``star`` and
    ``dagger`` ask for each forth or back step of a map of
    :func:`~homext.morphisms._local_maps`, tested with ``_step_mask``."""
    cases = 0
    if which in ("delta", "therefore"):
        co, none = which == "therefore", frozenset()
        for subset, _, cone, cocone in _copies(g.rows, domain_bound, min(k, domain_bound)):
            cases += 1
            if not (cocone if co else cone):
                s = frozenset(subset)
                demand = (none, s, s) if co else (s, none, s)
                note = f"no {'co-cone' if co else 'cone'} over {subset}"
                yield cases, (demand, tuple((u, u) for u in subset), None, None, note)
    else:
        star = which == "star"
        want, side = (
            (MorphismKind.MONOMORPHISM, "extension")
            if star
            else (MorphismKind.HOMOMORPHISM, "preimage")
        )
        search_mask = (1 << g.n) - 1  # an oracle's truncation ends at the horizon
        window_rows = [r & (1 << domain_bound) - 1 for r in g.rows[:domain_bound]]
        domains = sorted(all_subsets(range(domain_bound), min(k, domain_bound)))
        for pairs, dom_mask, _ in _local_maps(window_rows, domains, [want]):
            image = sum({1 << t for _, t in pairs})  # values may repeat
            # star extends a new domain vertex, dagger finds a new preimage
            fixed, avoid = (dom_mask, image) if star else (image, dom_mask)
            for t in range(domain_bound):
                if fixed >> t & 1:
                    continue
                cases += 1
                if not _step_mask(g.rows, pairs, t, side, want, search_mask):
                    demand = _step_sets(g.rows, pairs, t, side, want)
                    note = f"no {'image' if star else 'preimage'} for {t} outside {list(_bits(avoid))}"
                    yield cases, (demand, pairs, t, side, note)
    yield cases, None


def alpha(g: FiniteGraph) -> int:
    """Independence number, exact."""
    return max_independent_set_size(g)


def sigma(g: FiniteGraph) -> int:
    """Largest ``t`` such that a star with ``t`` leaves embeds as an induced subgraph.

    Computed as the maximum independence number over open neighborhoods.
    """
    best = 0
    for v in range(g.n):
        nb = g.neighbors(v)
        if len(nb) <= best:
            continue
        best = max(best, max_independent_set_size(induced_subgraph(g, nb)))
    return best


def sigma_by_embedding(g: FiniteGraph) -> int:
    """Independent re-derivation of ``sigma`` by explicit induced-star search."""
    best = 0
    for v in range(g.n):
        nb = g.neighbors(v)
        for t in range(len(nb), best, -1):
            found = False
            for leaves in itertools.combinations(nb, t):
                if all(
                    not g.adj(a, b) for a, b in itertools.combinations(leaves, 2)
                ):
                    found = True
                    break
            if found:
                best = max(best, t)
                break
    return best


@dataclass
class AlphaSigmaReport:
    alpha: int
    sigma: int
    bound: int
    holds: bool

    def line(self) -> str:
        cmp = "<" if self.holds else ">="
        return f"alpha={self.alpha} {cmp} 2*sigma+ceil(sigma/2)-1={self.bound} (sigma={self.sigma})"


def check_alpha_sigma_bound(g: FiniteGraph) -> AlphaSigmaReport:
    """Evaluate ``alpha < 2*sigma + ceil(sigma/2) - 1`` on a finite graph."""
    a = alpha(g)
    s = sigma(g)
    bound = 2 * s + -(-s // 2) - 1
    return AlphaSigmaReport(a, s, bound, a < bound)


def complement_endo_transport(
    g: FiniteGraph, total: tuple[int, ...], f: PartialMap
) -> tuple[int, ...]:
    """Right inverse of a surjective endomorphism, as an endomorphism of the complement.

    On a finite graph a surjective endomorphism is an automorphism, so its
    right inverse is its inverse permutation; ``f`` may state some of it, as
    ``v -> x`` pairs with ``total[x] == v``.  A ``total`` that is not a
    surjective endomorphism of ``g``, or an ``f`` that leaves the vertex range
    or disagrees with the inverse, raises :class:`GraphError`.  The result is
    verified edge by edge against the complement before returning.
    """
    if EndoKind.E not in total_endo_kinds(g, total):  # raises on a short or out-of-range map
        raise GraphError("map is not a surjective endomorphism")
    out = [0] * g.n
    for x, v in enumerate(total):
        out[v] = x
    for v, x in f.pairs:
        if not (0 <= v < g.n and out[v] == x):
            raise GraphError(f"assignment {v}->{x} is not a preimage under the map")
    comp = complement(g)
    for u, v in comp.edges():
        if not comp.adj(out[u], out[v]):
            raise AssertionError("right inverse failed to preserve complement edges")
    return tuple(out)
