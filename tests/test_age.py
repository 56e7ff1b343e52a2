import collections
import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from homext.age import (
    EMBEDDING_CAP,
    AgeEntry,
    Flag,
    _copies,
    age_report,
    alpha,
    check_alpha_sigma_bound,
    check_criterion,
    check_property,
    complement_endo_transport,
    compute_age,
    order_preceq,
    order_sqsubseteq,
    sigma,
    sigma_by_embedding,
)
from homext.atlas import corpus_upto
from homext.engine import Status, _past_truncation, total_endo_kinds
from homext.formats import to_graph6
from homext.generators import (
    OMEGA,
    GraphStructure,
    complete,
    composite,
    independent,
    rado_bit,
    rado_plus_dominating_oracle,
    rs_graph,
)
from homext.graphs import (
    FiniteGraph,
    GraphError,
    OracleGraph,
    canonical_form,
    complement,
    induced_subgraph,
    oracle_truncate,
)
from homext.morphisms import EndoKind, PartialMap, all_subsets

from conftest import random_graph
from test_graphs import C5, P3, finite_graphs


def entry_by_graph(entries, g):
    canon = canonical_form(g)[0]
    return next(e for e in entries if e.graph == canon)


class TestComputeAge:
    def test_complete_graph_age(self):
        entries = compute_age(complete(5), 3)
        assert [e.graph for e in entries] == [complete(1), complete(2), complete(3)]

    def test_cycle_age_at_three(self):
        entries = compute_age(C5, 3)
        got = {(e.size, to_graph6(e.graph)) for e in entries}
        k2_plus_k1 = FiniteGraph.from_edges(3, [(0, 1)])
        expected = {
            (1, to_graph6(complete(1))),
            (2, to_graph6(complete(2))),
            (2, to_graph6(independent(2))),
            (3, to_graph6(canonical_form(P3)[0])),
            (3, to_graph6(canonical_form(k2_plus_k1)[0])),
        }
        assert got == expected

    def test_rs_truncation_contains_triangle_and_path(self):
        entries = compute_age(oracle_truncate(rs_graph(2), 20), 3)
        graphs = {e.graph for e in entries}
        assert canonical_form(complete(3))[0] in graphs
        assert canonical_form(P3)[0] in graphs

    def test_copies_counted(self):
        entries = compute_age(complete(4), 2)
        assert entry_by_graph(entries, complete(2)).copies == 6

    def test_bound_below_one_rejected(self):
        g = FiniteGraph.from_edges(3, [(0, 1)])
        with pytest.raises(GraphError):
            compute_age(g, 0)
        with pytest.raises(GraphError):
            check_criterion(g, "HH", 0)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_embedding_cap_below_one_rejected(self, cap):
        # cap 0 used to leave a finite criterion unknown, -1 every flag unknown
        with pytest.raises(GraphError):
            compute_age(complete(4), 2, embedding_cap=cap)
        with pytest.raises(GraphError):
            check_criterion(complete(4), "HH", 2, embedding_cap=cap)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_oracle_horizon_below_one_rejected(self, horizon):
        # horizon 0 used to give an empty age and an unknown-at-bound criterion
        with pytest.raises(GraphError):
            compute_age(rs_graph(3), 2, horizon=horizon)
        with pytest.raises(GraphError):
            check_criterion(rs_graph(3), "HH", 2, horizon=horizon)


def reference_age(g, k, cap):
    """One canonical form per subset and a per-vertex adjacency scan for cones."""
    entries = {}
    for size in range(1, min(k, g.n) + 1):
        for subset in itertools.combinations(range(g.n), size):
            canon = canonical_form(induced_subgraph(g, subset))[0]
            e = entries.setdefault(canon, AgeEntry(canon, canon.n, 0))
            e.copies += 1
            if e.copies > cap:
                continue
            outside = [v for v in range(g.n) if v not in subset]
            cone = any(all(g.adj(u, v) for u in subset) for v in outside)
            cocone = any(not any(g.adj(u, v) for u in subset) for v in outside)
            for found, flag, copy in (
                (cone, "kk", "coned_copy"),
                (not cone, "okk", "cone_free_copy"),
                (cocone, "hh", "coconed_copy"),
                (not cocone, "ohh", "cocone_free_copy"),
            ):
                if found and getattr(e, flag) is not Flag.YES:
                    setattr(e, flag, Flag.YES)
                    setattr(e, copy, subset)
    for e in entries.values():
        if e.copies <= cap:
            for flag in ("kk", "okk", "hh", "ohh"):
                if getattr(e, flag) is Flag.UNKNOWN:
                    setattr(e, flag, Flag.NO)
    return sorted(entries.values(), key=lambda e: (e.size, to_graph6(e.graph)))


class TestAgainstReference:
    @given(finite_graphs(max_n=9), st.integers(1, 4), st.sampled_from([2, 500]))
    def test_entries_equal_per_subset_scan(self, g, k, cap):
        # every field: flags, copies and the four witness copies
        assert compute_age(g, k, embedding_cap=cap) == reference_age(g, k, cap)


class TestCopies:
    @given(finite_graphs(max_n=9), st.integers(0, 3), st.integers(1, 4))
    def test_order_masks_and_keys(self, g, shorter, top):
        # a window ranges over fewer vertices than the rows cover
        m = max(0, g.n - shorter)
        copies = list(_copies(g.rows, m, min(top, m)))
        assert [c[0] for c in copies] == list(all_subsets(range(m), min(top, m)))
        full = (1 << g.n) - 1
        for subset, _, cone, cocone in copies:
            assert cone == full & ~sum(
                1 << v for v in range(g.n) if not all(g.adj(u, v) for u in subset))
            assert cocone == full & ~sum(
                1 << v for v in range(g.n) if v in subset or any(g.adj(u, v) for u in subset))
        # equal keys exactly for equal labelled patterns
        keyed = {(key, induced_subgraph(g, subset)) for subset, key, _, _ in copies}
        assert len(keyed) == len({key for key, _ in keyed}) == len({p for _, p in keyed})

    def test_walk_holds_only_its_path(self):
        # 35,442 copies of G(22, 1/2) up to size 5; a walk keeping a level of
        # C(22, 4) subsets with their columns peaks in the megabytes
        g = random_graph(22, random.Random(22))
        tracemalloc.start()
        try:
            collections.deque(_copies(g.rows, g.n, 5), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class RecordingStructure(GraphStructure):
    """Delegates to a declared structure and records every question asked."""

    def __init__(self, inner, calls):
        self.inner, self.calls = inner, calls

    def _ask(self, name, s):
        self.calls.append((name, tuple(sorted(s))))
        return getattr(self.inner, name)(s)

    def cone_candidates(self, zset):
        return self._ask("cone_candidates", zset)

    def cocone_candidates(self, wset):
        return self._ask("cocone_candidates", wset)

    def cone_witness(self, hset):
        return self._ask("cone_witness", hset)

    def cocone_witness(self, hset):
        return self._ask("cocone_witness", hset)


AGE_ORACLES = {
    "rs3": rs_graph(3),
    "rado": rado_bit(),
    "radoplus": rado_plus_dominating_oracle(),
    "comp_w_3": composite(OMEGA, 3),
    "comp_3_w": composite(3, OMEGA),
    "comp_w_w": composite(OMEGA, OMEGA),
}


def recorded(o):
    calls = []
    structure = RecordingStructure(o.structure, calls)
    return OracleGraph(o.adjacency, o.name, structure=structure), calls


def reference_oracle_age(o, k, horizon):
    """One canonical form per subset, a per-vertex scan of the truncation for
    cones, the route past it on a miss; a settled pair of flags skips its search."""
    t = oracle_truncate(o, horizon)
    entries = {}
    for subset in all_subsets(range(horizon), min(k, horizon)):
        canon = canonical_form(induced_subgraph(t, subset))[0]
        e = entries.setdefault(canon, AgeEntry(canon, canon.n, 0))
        e.copies += 1
        if e.copies > EMBEDDING_CAP:
            continue
        s, none = frozenset(subset), frozenset()
        for co, yes, no in ((False, "kk", "okk"), (True, "hh", "ohh")):
            if getattr(e, yes) is Flag.YES and getattr(e, no) is Flag.YES:
                continue
            outside = [v for v in range(horizon) if v not in s]
            if any(all(t.adj(u, v) != co for u in subset) for v in outside):
                found, absent = True, False
            else:
                found, confined = _past_truncation(o, none if co else s, s if co else none, s)
                absent = confined is not None
            prefix = "co" if co else ""
            if found and getattr(e, yes) is not Flag.YES:
                setattr(e, yes, Flag.YES)
                setattr(e, f"{prefix}coned_copy", subset)
            if absent and getattr(e, no) is not Flag.YES:
                setattr(e, no, Flag.YES)
                setattr(e, f"{prefix}cone_free_copy", subset)
    return sorted(entries.values(), key=lambda e: (e.size, to_graph6(e.graph)))


class TestOracleAgainstReference:
    @given(
        st.sampled_from(sorted(AGE_ORACLES)),
        st.integers(4, 12),
        st.integers(1, 3),
        st.sampled_from([None, "HH", "HE", "ME"]),
    )
    def test_entries_and_structure_calls_equal_per_subset_scan(self, label, horizon, k, which):
        o, calls = recorded(AGE_ORACLES[label])
        expected = reference_oracle_age(o, k, horizon)
        expected_calls = calls[:]
        calls.clear()
        if which is None:
            got = compute_age(o, k, horizon=horizon)
        else:
            got = check_criterion(o, which, k, horizon=horizon).entries
        assert got == expected
        assert calls == expected_calls


class TestConeFlags:
    def test_complete_graph_pair(self):
        e = entry_by_graph(compute_age(complete(6), 3), complete(2))
        assert (e.kk, e.okk, e.hh, e.ohh) == (Flag.YES, Flag.NO, Flag.NO, Flag.YES)

    def test_single_vertex_in_both_on_mixed_graph(self):
        g = FiniteGraph.from_edges(3, [(1, 2)])  # isolated vertex plus an edge
        e = entry_by_graph(compute_age(g, 1), complete(1))
        assert e.kk is Flag.YES and e.okk is Flag.YES

    def test_oracle_matching_vertex_flags(self):
        entries = compute_age(composite(OMEGA, 2), 1, horizon=20)
        e = entries[0]
        assert e.kk is Flag.YES  # the matched partner is a cone
        assert e.hh is Flag.YES  # co-cones abound

    def test_oracle_no_cone_certified_across_blocks(self):
        entries = compute_age(composite(OMEGA, 2), 2, horizon=20)
        e = entry_by_graph(entries, independent(2))
        # a cross-block pair provably has no cone anywhere, so okk is settled
        assert e.okk is Flag.YES
        # but "no copy with a cone" cannot be settled from a truncation
        assert e.kk is Flag.NO or e.kk is Flag.UNKNOWN

    def test_embedding_cap_downgrades_universal_side(self):
        entries = compute_age(complete(5), 2, embedding_cap=1)
        e = entry_by_graph(entries, complete(2))
        assert e.copies == 10
        assert e.kk is Flag.YES  # found on the first copy, existential side
        assert e.okk is Flag.UNKNOWN  # "every copy has a cone" left unsettled

    def test_finite_coverage_invariant(self, corpus5):
        for _, g in corpus5:
            for e in compute_age(g, 3):
                assert Flag.YES in (e.kk, e.okk)
                assert Flag.YES in (e.hh, e.ohh)
                assert Flag.UNKNOWN not in (e.kk, e.okk, e.hh, e.ohh)

    def test_duality_with_complement(self, corpus5):
        for _, g in corpus5:
            mine = compute_age(g, 3)
            other = {e.graph: e for e in compute_age(complement(g), 3)}
            for e in mine:
                twin = other[canonical_form(complement(e.graph))[0]]
                assert (e.hh, e.ohh) == (twin.kk, twin.okk)

    def test_report_format(self):
        entries = compute_age(complete(3), 2)
        lines = age_report(entries).splitlines()
        assert lines[0] == "size=1 canon=@ kk=Y okk=N hh=N ohh=Y"
        assert not any(line.startswith("violation") for line in lines)

    def test_report_flags_closure_violations(self):
        p4 = FiniteGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        lines = age_report(compute_age(p4, 2)).splitlines()
        # a coned nonedge folds onto a cone-free edge: the path is not
        # homomorphism-homogeneous and the report says why
        assert any(line.startswith("violation") for line in lines)


PIN_ORACLES = (rs_graph(3), rado_plus_dominating_oracle(), composite(OMEGA, 3), composite(OMEGA, OMEGA))


def pinned_texts(cap):
    """The age report and the HH/HE/ME status and report of every pinned input."""
    sources = [(g, None) for _, g in corpus_upto(4)]
    sources += [(random_graph(10, random.Random(seed)), None) for seed in (1, 2)]
    sources += [(o, 9) for o in PIN_ORACLES]
    for src, horizon in sources:
        yield age_report(compute_age(src, 3, horizon=horizon, embedding_cap=cap))
        for which in ("HH", "HE", "ME"):
            rep = check_criterion(src, which, 3, horizon=horizon, embedding_cap=cap)
            yield f"{rep.verdict.status.value}\n{rep.report()}"


class TestReportPins:
    @pytest.mark.parametrize("cap, digest", [
        (EMBEDDING_CAP, "af240b786b0cd9715d28831ecb2fe1380590a657675c91fb1abbb52ee2b169fd"),
        (2, "904fd799e5eea10a62e328db92f874c76e6d2f867b9bc019f1e73f63c3cd5199"),
    ])
    def test_reports_byte_for_byte(self, cap, digest):
        texts = list(pinned_texts(cap))
        # the pin covers how coned and co-coned violation lines interleave
        assert any("violation: coned" in t and "violation: cocone-free" in t for t in texts)
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest


def surjective_hom_exists(a, b):
    """Reference for the surjective-homomorphism order: try every total map."""
    onto = set(range(b.n))
    return any(
        set(values) == onto and all(b.adj(values[u], values[v]) for u, v in a.edges())
        for values in itertools.product(range(b.n), repeat=a.n)
    )


def bijective_hom_exists(a, b):
    """Reference for the surjective-monomorphism order: try every bijection."""
    if a.n != b.n:
        return False
    return any(
        all(b.adj(perm[u], perm[v]) for u, v in a.edges())
        for perm in itertools.permutations(range(b.n))
    )


class TestOrders:
    def test_path_folds_onto_edge(self):
        assert order_preceq(P3, complete(2))

    def test_nonedge_into_edge_bijectively(self):
        assert order_sqsubseteq(independent(2), complete(2))

    def test_edge_never_onto_nonedge(self):
        assert not order_preceq(complete(2), independent(2))

    def test_reflexive_transitive_size_monotone(self):
        entries = [e.graph for e in compute_age(C5, 3)]
        rel = {(a, b): order_preceq(a, b) for a in entries for b in entries}
        for a in entries:
            assert rel[(a, a)]
        for a in entries:
            for b in entries:
                if rel[(a, b)] and a.n >= 1:
                    assert a.n >= b.n
                for c in entries:
                    if rel[(a, b)] and rel[(b, c)]:
                        assert rel[(a, c)]

    def test_preceq_equals_total_map_search_on_corpus(self, corpus4):
        graphs = [g for _, g in corpus4]
        assert len(graphs) ** 2 == 324
        for a in graphs:
            for b in graphs:
                assert order_preceq(a, b) == surjective_hom_exists(a, b)

    @given(finite_graphs(max_n=5), finite_graphs(max_n=5))
    def test_preceq_equals_total_map_search(self, a, b):
        assert order_preceq(a, b) == surjective_hom_exists(a, b)

    def test_sq_equals_permutation_search_on_corpus(self, corpus5):
        graphs = [g for _, g in corpus5]
        assert len(graphs) ** 2 == 2704
        for a in graphs:
            for b in graphs:
                assert order_sqsubseteq(a, b) == bijective_hom_exists(a, b)

    @given(finite_graphs(max_n=6), finite_graphs(max_n=6))
    def test_sq_equals_permutation_search(self, a, b):
        assert order_sqsubseteq(a, b) == bijective_hom_exists(a, b)

    def test_sq_implies_preceq(self):
        graphs = [e.graph for e in compute_age(C5, 3)]
        for a in graphs:
            for b in graphs:
                if order_sqsubseteq(a, b):
                    assert order_preceq(a, b)


class TestCriteria:
    def test_mixed_graph_fails_cone_partition(self):
        g = FiniteGraph.from_edges(3, [(1, 2)])
        rep = check_criterion(g, "HH", 2)
        name, verdict = rep.conditions[0]
        assert verdict.status is Status.FAILS
        assert "@" in verdict.note  # the single-vertex entry

    def test_complete_graph_passes(self):
        rep = check_criterion(complete(6), "HH", 3)
        assert rep.verdict.status is Status.HOLDS

    def test_oracle_passes_at_bound(self):
        rep = check_criterion(composite(OMEGA, OMEGA), "HH", 3, horizon=30)
        assert rep.verdict.status is not Status.FAILS

    def test_complement_blocks_cocones_downward_closed(self):
        # blocks-complement: co-cone side mirrors the clique side of blocks
        o = composite(OMEGA, OMEGA)
        rep = check_criterion(o, "HE", 3, horizon=30)
        assert rep.verdict.status is not Status.FAILS

    def test_me_uses_bijective_order(self):
        rep = check_criterion(complete(5), "ME", 3)
        assert rep.verdict.status is Status.HOLDS
        assert any("mono" in name for name, _ in rep.conditions)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(Exception):
            check_criterion(complete(3), "XX", 2)


class TestProperties:
    def test_delta_on_complete(self):
        assert check_property(complete(10), "delta", 3).verdict.holds
        assert check_property(complete(10), "delta", 9).verdict.holds
        assert check_property(complete(10), "delta", 10).verdict.fails

    def test_duality_exact(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng.randint(1, 9), rng)
            for k in range(1, 4):
                lhs = check_property(g, "therefore", k).verdict.status
                rhs = check_property(complement(g), "delta", k).verdict.status
                assert lhs == rhs

    def test_dagger_on_rado_window(self):
        rep = check_property(rado_bit(), "dagger", 3, horizon=128, window=6)
        assert rep.verdict.status is Status.UNKNOWN
        assert rep.unwitnessed == 0  # no failure found anywhere in the window

    @given(finite_graphs(max_n=9), st.integers(1, 4), st.sampled_from(["delta", "therefore"]))
    def test_failure_witness_is_first_uncovered_subset(self, g, k, which):
        # subsets in size-major lexicographic order; the first without a cone fails
        co = which == "therefore"
        subsets = list(all_subsets(range(g.n), min(k, g.n)))
        uncovered = [
            i for i, s in enumerate(subsets)
            if not any(v not in s and all(g.adj(u, v) != co for u in s) for v in range(g.n))
        ]
        rep = check_property(g, which, k)
        if not uncovered:
            assert rep.verdict.holds and rep.cases == len(subsets)
            return
        first = subsets[uncovered[0]]
        assert rep.verdict.fails and rep.cases == uncovered[0] + 1
        assert rep.verdict.witness == PartialMap(tuple((u, u) for u in first))

    def test_star_and_dagger_cap_bounds_the_maps_not_the_vertices(self):
        # 13 * 13 = 169 maps at k = 1; at n = 12, k = 4 the bound is 10,654,128
        assert check_property(complete(13), "star", 1).verdict.holds
        for which in ("star", "dagger"):
            with pytest.raises(GraphError, match="10654128 local maps .* PROPERTY_MAP_CAP"):
                check_property(complete(12), which, 4)

    def test_star_on_empty_graph(self):
        assert check_property(independent(5), "star", 2).verdict.holds

    def test_star_fails_on_two_cliques_of_different_size(self):
        # mapping inside the small clique leaves no room for a third neighbor
        g = composite(2, 2)
        rep = check_property(g, "star", 2)
        assert rep.verdict.status in (Status.HOLDS, Status.FAILS)

    def test_dagger_failure_certified_on_dominated_rado(self):
        rep = check_property(rado_plus_dominating_oracle(), "dagger", 2, horizon=64, window=6)
        v = rep.verdict
        assert v.fails and v.stuck_side == "preimage" and v.certificate


class TestAlphaSigma:
    def test_cycle(self):
        assert alpha(C5) == 2 and sigma(C5) == 2

    def test_complete_and_empty(self):
        assert alpha(complete(9)) == 1 and sigma(complete(9)) == 1
        assert alpha(independent(5)) == 5 and sigma(independent(5)) == 0

    @given(finite_graphs(max_n=8))
    def test_two_routes_agree(self, g):
        assert sigma(g) == sigma_by_embedding(g)

    def test_rs_values(self):
        t3 = oracle_truncate(rs_graph(3), 60)
        assert alpha(t3) == 3
        rep = check_alpha_sigma_bound(t3)
        assert rep.holds

    def test_complete_bound(self):
        rep = check_alpha_sigma_bound(complete(20))
        assert rep.alpha == 1 and rep.bound == 2 and rep.holds


class TestComplementTransport:
    def test_automorphism_inverse(self):
        total = (1, 2, 3, 4, 0)  # rotation of the cycle
        out = complement_endo_transport(C5, total, PartialMap(()))
        assert out == (4, 0, 1, 2, 3)

    def test_partial_inverse_respected(self):
        total = (1, 0, 2)
        out = complement_endo_transport(independent(3), total, PartialMap(((0, 1),)))
        assert out[0] == 1

    def test_incompatible_rejected(self):
        with pytest.raises(Exception):
            complement_endo_transport(independent(3), (1, 0, 2), PartialMap(((0, 2),)))

    def test_enumerated_surjections_transport(self, corpus4):
        for _, g in corpus4:
            n = g.n
            surjections = [
                total
                for total in itertools.product(range(n), repeat=n)
                if len(set(total)) == n and EndoKind.E in total_endo_kinds(g, total)
            ]
            for total in surjections[:12]:
                out = complement_endo_transport(g, total, PartialMap(()))
                comp = complement(g)
                for u, v in comp.edges():
                    assert comp.adj(out[u], out[v])
