import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homext.generators import (
    OMEGA,
    cantor_unpair,
    complete,
    composite,
    generate,
    h3_prime,
    independent,
    is_clique_free,
    knfree_generic,
    rado_bit,
    rado_plus_dominating,
    rado_plus_dominating_oracle,
    rs_graph,
)
from homext.graphs import (
    FiniteGraph,
    GraphError,
    OracleGraph,
    complement,
    connected_components,
    induced_subgraph,
    oracle_truncate,
)


class TestBasicFamilies:
    def test_complete_and_independent(self):
        assert complete(3).m == 3
        assert independent(1) == complete(1)
        assert complement(complete(7)) == independent(7)

    def test_composite_two_triangles(self):
        g = composite(2, 3)
        comps = connected_components(g)
        assert len(comps) == 2
        assert all(induced_subgraph(g, c).is_complete() for c in comps)

    def test_composite_matching(self):
        g = oracle_truncate(composite(OMEGA, 2), 6)
        assert sorted(g.edges()) == [(0, 1), (2, 3), (4, 5)]

    def test_composite_diagonal_blocks(self):
        g = oracle_truncate(composite(OMEGA, OMEGA), 9)
        # Cantor fibers within the window: {0,2,5}, {1,4,8}, {3,7}, {6}
        blocks = {}
        for v in range(9):
            blocks.setdefault(cantor_unpair(v)[0], []).append(v)
        cliques = [sorted(b) for b in blocks.values() if len(b) >= 2]
        assert len(cliques) == 3
        for b in blocks.values():
            for u, v in itertools.combinations(sorted(b), 2):
                assert g.adj(u, v)
        for u, v in g.edges():
            assert cantor_unpair(u)[0] == cantor_unpair(v)[0]

    def test_cantor_unpair_round_trips_the_pairing(self):
        # every i < 80 * 81 / 2 is one (a, b) with a + b < 80, then far diagonals
        pairs = [(a, s - a) for s in range(80) for a in range(s, -1, -1)]
        assert [cantor_unpair(i) for i in range(len(pairs))] == pairs
        for a, b in [(2**40, 0), (2**40, 7), (3, 2**40), (2**40, 2**40 - 1)]:
            assert cantor_unpair((a + b) * (a + b + 1) // 2 + b) == (a, b)

    def test_composite_equal_clique_components(self):
        for m, n, trunc in [(OMEGA, 3, 12), (4, OMEGA, 20)]:
            o = composite(m, n)
            g = oracle_truncate(o, trunc)
            for comp in connected_components(g):
                assert induced_subgraph(g, comp).is_complete()

    @pytest.mark.parametrize("m,n", [(OMEGA, 0), (0, OMEGA)])
    def test_composite_rejects_zero_beside_omega(self, m, n):
        # block() used to divide by the 0 on the first adjacency query
        with pytest.raises(GraphError, match="0 beside"):
            composite(m, n)

    def test_composite_finite_zero_is_empty(self):
        assert composite(0, 3) == composite(3, 0) == FiniteGraph(0, ())

    def test_composite_cones_over_nothing_unconfined(self):
        # every vertex is a cone over the empty set, and comp(w, 2) has infinitely many
        assert composite(OMEGA, 2).structure.cone_candidates(frozenset()) is None


# every oracle family with a declared structure, checked against its predicate
STRUCTURED = {
    "rs(2)": rs_graph(2),
    "rs(3)": rs_graph(3),
    "rs(4)": rs_graph(4),
    "rado": rado_bit(),
    "radoplus": rado_plus_dominating_oracle(),
    "comp(w,2)": composite(OMEGA, 2),
    "comp(2,w)": composite(2, OMEGA),
    "comp(w,w)": composite(OMEGA, OMEGA),
    "comp(w,3)": composite(OMEGA, 3),
    "comp(3,w)": composite(3, OMEGA),
}
CONTRACT_TRUNCATION = 300
small_sets = st.frozensets(st.integers(0, 23), min_size=1, max_size=4)


@functools.lru_cache(maxsize=None)
def _contract_rows(name):
    return oracle_truncate(STRUCTURED[name], CONTRACT_TRUNCATION).rows


@pytest.mark.parametrize("name", sorted(STRUCTURED))
class TestDeclaredStructures:
    """The contract a certificate rests on: a candidate list holds every true
    cone (co-cone) outside the set, and a witness is a genuine one."""

    @settings(max_examples=150)
    @given(small_sets)
    def test_candidate_lists_are_complete(self, name, s):
        structure, rows = STRUCTURED[name].structure, _contract_rows(name)
        outside = [v for v in range(CONTRACT_TRUNCATION) if v not in s]
        cones = {v for v in outside if all(rows[v] >> u & 1 for u in s)}
        cocones = {v for v in outside if not any(rows[v] >> u & 1 for u in s)}
        listed = structure.cone_candidates(s)
        assert listed is None or cones <= set(listed)
        listed = structure.cocone_candidates(s)
        assert listed is None or cocones <= set(listed)

    @settings(max_examples=150)
    @given(small_sets)
    def test_witnesses_are_genuine(self, name, s):
        o = STRUCTURED[name]
        w = o.structure.cone_witness(s)
        assert w is None or (w not in s and all(o.adj(w, u) for u in s))
        w = o.structure.cocone_witness(s)
        assert w is None or (w not in s and not any(o.adj(w, u) for u in s))

    def test_nothing_listed_over_the_empty_set(self, name):
        # in an infinite graph every vertex is a cone and a co-cone over nothing
        structure = STRUCTURED[name].structure
        assert structure.cone_candidates(frozenset()) is None
        assert structure.cocone_candidates(frozenset()) is None


COMPOSITES = sorted(name for name in STRUCTURED if name.startswith("comp"))


@pytest.mark.parametrize("name", COMPOSITES)
class TestCompositeClosedForms:
    def test_member_inverts_block(self, name):
        structure = STRUCTURED[name].structure
        for b in range(6 if structure.m == OMEGA else structure.m):
            fibre = [v for v in range(CONTRACT_TRUNCATION) if structure.block(v) == b]
            assert [structure.member(b, j) for j in range(min(len(fibre), 5))] == fibre[:5]

    @settings(max_examples=150)
    @given(st.frozensets(st.integers(0, 23), max_size=4))
    def test_witnesses_are_least(self, name, s):
        # a brute-force walk up the vertices finds the least cone and co-cone
        structure, rows = STRUCTURED[name].structure, _contract_rows(name)
        outside = [v for v in range(CONTRACT_TRUNCATION) if v not in s]
        cone = next((v for v in outside if all(rows[v] >> u & 1 for u in s)), None)
        cocone = next((v for v in outside if not any(rows[v] >> u & 1 for u in s)), None)
        assert structure.cone_witness(s) == cone
        assert structure.cocone_witness(s) == cocone


class TestRSFamily:
    def test_low_pair_adjacency_at_two(self):
        o = rs_graph(2)
        assert o.adj(2, 3) and o.adj(2, 1) and not o.adj(2, 0)

    def test_lows_independent(self):
        o = rs_graph(3)
        assert not any(o.adj(a, b) for a, b in itertools.combinations(range(3), 2))

    def test_low_high_rule(self):
        o = rs_graph(3)
        assert o.adj(3, 1) and o.adj(3, 2) and not o.adj(3, 0)
        assert o.adj(4, 0) and o.adj(4, 2) and not o.adj(4, 1)

    def test_structure_on_truncation(self):
        n = 4
        t = oracle_truncate(rs_graph(n), 100)
        highs = range(n, 100)
        assert all(t.adj(a, b) for a, b in itertools.combinations(highs, 2))
        assert not any(t.adj(a, b) for a, b in itertools.combinations(range(n), 2))
        for k in highs:
            for low in range(n):
                assert t.adj(k, low) == (k % n != low % n)

    def test_rejects_small_n(self):
        with pytest.raises(GraphError):
            rs_graph(1)


class TestRado:
    def test_bit_table_window(self):
        # independently derived bit table for all pairs i < j < 8
        expected = {(i, j) for j in range(8) for i in range(j) if (j >> i) & 1}
        t = oracle_truncate(rado_bit(), 8)
        assert set(t.edges()) == expected

    def test_one_is_adjacent_to_two(self):
        assert rado_bit().adj(1, 2)  # bit 1 of 2 is set

    def test_extension_axiom_small_witness(self):
        o = rado_bit()
        a_side, b_side = {0}, {1}
        v = next(
            v
            for v in range(64)
            if v not in a_side | b_side
            and all(o.adj(v, a) for a in a_side)
            and not any(o.adj(v, b) for b in b_side)
        )
        assert v == 5  # 101 in binary: bit 0 set, bit 1 clear


class TestKnFree:
    def test_triangle_free(self):
        g = knfree_generic(3, 60, seed=3)
        assert g.n == 60
        assert is_clique_free(g, 3)

    def test_saturated_nonedges_have_common_neighbors(self):
        # early nonedges get a common neighbor once small requests are served
        g = knfree_generic(3, 80, seed=3)
        for u, v in itertools.combinations(range(10), 2):
            if g.adj(u, v):
                continue
            assert g.rows[u] & g.rows[v], f"nonedge {u},{v} has no common neighbor"

    def test_k4_free_at_thirty(self):
        g = knfree_generic(4, 30, seed=5)
        assert is_clique_free(g, 4)

    def test_deterministic(self):
        assert knfree_generic(3, 40, seed=9) == knfree_generic(3, 40, seed=9)
        assert knfree_generic(3, 40, seed=9) != knfree_generic(3, 40, seed=10)


class TestH3Prime:
    def test_surgery_outcome(self):
        g, (u, v, w) = h3_prime(90, seed=7)
        common = [c for c in range(g.n) if g.adj(u, c) and g.adj(v, c)]
        assert common == [w]
        assert is_clique_free(g, 3)

    def test_other_nonedge_keeps_common_neighbors(self):
        g, (u, v, _) = h3_prime(90, seed=7)
        found = False
        for c, d in itertools.combinations(range(g.n), 2):
            if g.adj(c, d) or {c, d} == {u, v}:
                continue
            if (g.rows[c] & g.rows[d]).bit_count() >= 2:
                found = True
                break
        assert found

    def test_too_small_raises(self):
        with pytest.raises(GraphError):
            h3_prime(4, seed=0)


class TestRadoPlusDominating:
    def test_dominating_degree(self):
        g = rado_plus_dominating(17)
        assert g.degree(16) == 16  # adjacent to every other vertex

    def test_deleting_dominator_recovers_truncation(self):
        g = rado_plus_dominating(17)
        assert induced_subgraph(g, range(16)) == oracle_truncate(rado_bit(), 16)

    def test_no_cocone_over_dominator(self):
        g = rado_plus_dominating(12)
        w = 11
        assert all(g.adj(v, w) for v in range(11))

    def test_oracle_presentation(self):
        o = rado_plus_dominating_oracle()
        t = oracle_truncate(o, 10)
        assert all(t.adj(0, v) for v in range(1, 10))
        inner = induced_subgraph(t, range(1, 10))
        assert inner == oracle_truncate(rado_bit(), 9)


class TestDispatch:
    def test_names(self):
        assert generate("k", ["4"]) == complete(4)
        assert generate("i", ["3"]) == independent(3)
        assert generate("comp", ["2", "3"]) == composite(2, 3)
        assert generate("rs", ["3"], truncate=10) == oracle_truncate(rs_graph(3), 10)
        assert generate("radoplus", ["9"]) == rado_plus_dominating(9)

    @pytest.mark.parametrize("name, params", [
        ("k", ["5"]), ("i", ["4"]), ("comp", ["2", "3"]), ("comp", ["w", "2"]), ("rs", ["3"]),
        ("rado", []), ("knfree", ["3", "12"]), ("h3prime", ["30"]), ("radoplus", ["9"]),
    ])
    def test_truncate_cuts_every_family_to_its_prefix(self, name, params):
        g = generate(name, params)
        finite = not isinstance(g, OracleGraph)
        prefix = induced_subgraph(g, range(3)) if finite else oracle_truncate(g, 3)
        assert generate(name, params, truncate=3) == prefix
        if finite:  # a size past the last vertex keeps the whole graph
            assert generate(name, params, truncate=100) == g
        with pytest.raises(GraphError, match="negative truncation size -1"):
            generate(name, params, truncate=-1)

    def test_canonical_consistency(self):
        g1 = generate("knfree", ["3", "30"], seed=2)
        g2 = knfree_generic(3, 30, 2)
        assert g1 == g2

    def test_unknown(self):
        with pytest.raises(GraphError):
            generate("mystery", [])
