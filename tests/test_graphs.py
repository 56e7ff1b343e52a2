import dataclasses

import pytest
from hypothesis import given, strategies as st

from homext.engine import back_and_forth, decide_xy_bounded
from homext.generators import complete, independent, rado_bit, rs_graph
from homext.graphs import (
    FiniteGraph,
    GraphError,
    OracleGraph,
    canonical_form,
    complement,
    connected_components,
    induced_subgraph,
    lex_product,
    max_clique_size,
    oracle_truncate,
    relabel,
)
from homext.morphisms import EndoKind, MorphismKind, PartialMap

C5 = FiniteGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
P3 = FiniteGraph.from_edges(3, [(0, 1), (1, 2)])


@st.composite
def finite_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
    return FiniteGraph.from_edges(n, edges)


def labelled_graphs(n):
    """Every labelled graph on ``n`` vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield FiniteGraph.from_edges(n, [p for b, p in enumerate(pairs) if bits >> b & 1])


class TestConstruction:
    def test_from_edges_validates(self):
        with pytest.raises(GraphError):
            FiniteGraph.from_edges(2, [(0, 0)])
        with pytest.raises(GraphError):
            FiniteGraph.from_edges(2, [(0, 2)])
        with pytest.raises(GraphError):
            FiniteGraph.from_edges(100, [])  # beyond the default cap
        assert FiniteGraph.from_edges(100, [], cap=100).n == 100

    def test_edges_sorted(self):
        g = FiniteGraph.from_edges(4, [(2, 3), (0, 1), (0, 3)])
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]


class TestInducedSubgraph:
    def test_complete_restricts_to_complete(self):
        assert induced_subgraph(complete(4), (0, 1, 2)) == complete(3)

    def test_path_endpoints_are_nonadjacent(self):
        assert induced_subgraph(P3, (0, 2)) == independent(2)

    def test_cycle_three_vertices(self):
        # adjacency lookup in C5: 0~1 only among {0,1,3}
        sub = induced_subgraph(C5, (0, 1, 3))
        assert list(sub.edges()) == [(0, 1)]

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            induced_subgraph(P3, (0, 3))

    @pytest.mark.parametrize("s", [[-1, 0], [-3], (0, 1, -2)])
    def test_negative_vertex_raises(self, s):
        # a negative index would read a row from the end, vertex -1 as vertex n - 1
        with pytest.raises(GraphError, match=f"vertex {min(s)} out of range"):
            induced_subgraph(FiniteGraph.from_edges(3, [(0, 2)]), s)

    def test_unordered_input_is_sorted_first(self):
        # vertex i of the result is the i-th smallest of s, not s[i]
        g = FiniteGraph.from_edges(3, [(0, 1)])
        assert list(induced_subgraph(g, [2, 0, 1]).edges()) == [(0, 1)]

    @pytest.mark.parametrize("s", [[1, 1], [0, 2, 0], (2, 1, 2)])
    def test_repeated_vertices_raise(self, s):
        with pytest.raises(GraphError, match="duplicate vertices"):
            induced_subgraph(P3, s)


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete(5)) == independent(5)

    def test_involution(self):
        assert complement(complement(C5)) == C5

    def test_c5_self_complementary(self):
        assert canonical_form(complement(C5))[0] == canonical_form(C5)[0]

    @given(finite_graphs())
    def test_involution_property(self, g):
        assert complement(complement(g)) == g

    @given(finite_graphs(max_n=7), st.data())
    def test_commutes_with_induced(self, g, data):
        subset = tuple(
            sorted(
                data.draw(
                    st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0)), max_size=g.n)
                )
            )
        ) if g.n else ()
        subset = tuple(v for v in subset if v < g.n)
        assert complement(induced_subgraph(g, subset)) == induced_subgraph(
            complement(g), subset
        )


class TestLexProduct:
    def test_two_triangles(self):
        g = lex_product(independent(2), complete(3))
        assert g.n == 6 and g.m == 6
        assert connected_components(g) == [(0, 1, 2), (3, 4, 5)]

    def test_k2_of_i2_is_c4(self):
        g = lex_product(complete(2), independent(2))
        c4 = FiniteGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert g == c4  # complete bipartite on the two blocks

    def test_identity_like_factor(self):
        g = lex_product(C5, complete(1))
        assert canonical_form(g)[0] == canonical_form(C5)[0]

    def test_cap(self):
        with pytest.raises(GraphError):
            lex_product(complete(9), complete(8))

    @given(finite_graphs(max_n=4), finite_graphs(max_n=3))
    def test_blocks_and_diagonals(self, g, h):
        prod = lex_product(g, h)
        if h.n:
            for a in range(g.n):
                block = tuple(range(a * h.n, (a + 1) * h.n))
                assert induced_subgraph(prod, block) == h
        if g.n and h.n:
            f = [a % h.n for a in range(g.n)]  # one choice per block
            diag = sorted(a * h.n + f[a] for a in range(g.n))
            got = induced_subgraph(prod, diag)
            assert got == g


class TestComponents:
    def test_singletons(self):
        assert connected_components(independent(3)) == [(0,), (1,), (2,)]

    def test_path_connected(self):
        assert connected_components(FiniteGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) == [
            (0, 1, 2, 3)
        ]


class TestCanonicalForm:
    def test_relabelings_agree(self):
        other = FiniteGraph.from_edges(3, [(0, 1), (0, 2)])  # path around vertex 0
        assert canonical_form(P3)[0] == canonical_form(other)[0]

    def test_complete_fixed(self):
        assert canonical_form(complete(3))[0] == complete(3)

    @given(finite_graphs(max_n=7))
    def test_permutation_maps_to_canonical(self, g):
        canon, perm = canonical_form(g)
        assert sorted(perm) == list(range(g.n))
        assert relabel(g, perm) == canon
        assert canonical_form(canon)[0] == canon

    def test_eleven_classes_on_four_vertices(self):
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        forms = set()
        for mask in range(1 << 6):
            edges = [pairs[k] for k in range(6) if mask >> k & 1]
            forms.add(canonical_form(FiniteGraph.from_edges(4, edges))[0])
        assert len(forms) == 11

    def test_cap(self):
        with pytest.raises(GraphError):
            canonical_form(independent(11))

    @given(finite_graphs(max_n=6), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm))[0] == canonical_form(g)[0]


class TestCliqueSearch:
    @pytest.mark.parametrize(
        "g,size",
        [(complete(5), 5), (independent(4), 1), (C5, 2), (P3, 2)],
    )
    def test_known_clique_numbers(self, g, size):
        assert max_clique_size(g) == size


class TestOracleTruncate:
    def test_rs2_window(self):
        t = oracle_truncate(rs_graph(2), 4)
        assert sorted(t.edges()) == [(0, 3), (1, 2), (2, 3)]

    def test_empty_window(self):
        assert oracle_truncate(rado_bit(), 0) == FiniteGraph(0, ())

    def test_rado_window(self):
        # bit rule: i < j adjacent iff bit i of j set
        t = oracle_truncate(rado_bit(), 4)
        assert sorted(t.edges()) == [(0, 1), (0, 3), (1, 2), (1, 3)]

    def test_nested_windows(self):
        big = oracle_truncate(rs_graph(3), 30)
        small = oracle_truncate(rs_graph(3), 12)
        assert induced_subgraph(big, range(12)) == small

    def test_asymmetry_reported(self):
        bad = OracleGraph(lambda i, j: i < j and j == i + 1, name="bad")
        with pytest.raises(GraphError):
            oracle_truncate(bad, 4)

    def test_loop_reported(self):
        bad = OracleGraph(lambda i, j: True, name="loops")
        with pytest.raises(GraphError):
            oracle_truncate(bad, 2)

    def test_finite_graph_rejected_by_every_bounded_read(self):
        g = complete(4)
        for call in (
            lambda: oracle_truncate(g, 3),
            lambda: decide_xy_bounded(g, MorphismKind.ISOMORPHISM, EndoKind.I, k=1, horizon=4, depth=2),
            lambda: back_and_forth(g, PartialMap(((0, 1),)), EndoKind.I, depth=2, horizon=4),
        ):
            with pytest.raises(GraphError, match="truncation reads an oracle graph, got FiniteGraph"):
                call()


def counted(adjacency):
    """An oracle around ``adjacency`` and the list its predicate calls are counted in."""
    calls = [0]

    def counting(i, j):
        calls[0] += 1
        return adjacency(i, j)

    return OracleGraph(counting, name="counted"), calls


class TestTruncationMemo:
    def test_same_or_smaller_reads_probe_nothing(self):
        o, calls = counted(rs_graph(3).adjacency)
        first = oracle_truncate(o, 32)
        assert calls[0] > 0
        calls[0] = 0
        assert oracle_truncate(o, 32) == first == oracle_truncate(rs_graph(3), 32)
        assert oracle_truncate(o, 16) == oracle_truncate(rs_graph(3), 16)
        assert oracle_truncate(o, 0) == FiniteGraph(0, ())
        assert calls[0] == 0

    def test_larger_read_probes_again(self):
        o, calls = counted(rado_bit().adjacency)
        oracle_truncate(o, 32)
        calls[0] = 0
        assert oracle_truncate(o, 40) == oracle_truncate(rado_bit(), 40)
        assert calls[0] > 0
        calls[0] = 0
        assert oracle_truncate(o, 32) == oracle_truncate(rado_bit(), 32)
        assert calls[0] == 0

    def test_bad_pair_raises_on_every_read_reaching_it(self):
        o, calls = counted(lambda i, j: (i, j) == (3, 20))
        assert oracle_truncate(o, 16) == FiniteGraph(16, (0,) * 16)
        for _ in range(3):
            calls[0] = 0
            with pytest.raises(GraphError, match=r"asymmetric on \(3, 20\)"):
                oracle_truncate(o, 32)
            assert calls[0] > 0
        assert oracle_truncate(o, 16) == FiniteGraph(16, (0,) * 16)

    def test_replace_never_serves_the_old_rows(self):
        o = rs_graph(3)
        oracle_truncate(o, 32)
        other = dataclasses.replace(o, adjacency=lambda i, j: i != j)
        assert oracle_truncate(other, 16) == complete(16)
        assert oracle_truncate(other, 32) == complete(32)

    def test_repr_and_equality_ignore_the_memo(self):
        o = rs_graph(3)
        before = repr(o)
        oracle_truncate(o, 20)
        assert repr(o) == before
        assert "FiniteGraph" not in before
        assert o == dataclasses.replace(o)


@pytest.mark.parametrize("build, message", [
    (lambda: FiniteGraph.from_edges(-1, []), "negative vertex count -1"),
    (lambda: oracle_truncate(rs_graph(3), -1), "negative truncation size -1"),
], ids=["from-edges", "oracle-truncate"])
def test_rejects_a_negative_size(build, message):
    with pytest.raises(GraphError, match=message):
        build()
