import pytest
from hypothesis import given

from homext.formats import emit_text, from_graph6, parse_text, to_graph6
from homext.generators import complete, independent
from homext.graphs import FiniteGraph, GraphError

from test_graphs import C5, P3, finite_graphs


class TestTextFormat:
    def test_emit_exact(self):
        assert emit_text(P3) == "3 2\n0 1\n1 2\n\n"

    def test_empty_graph(self):
        assert emit_text(FiniteGraph(0, ())) == "0 0\n\n"
        assert parse_text("0 0\n\n") == FiniteGraph(0, ())

    @given(finite_graphs(max_n=10))
    def test_round_trip(self, g):
        assert parse_text(emit_text(g)) == g

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n",
            "2 1\n1 0\n",  # u >= v
            "2 2\n0 1\n",  # wrong edge count
            "3 2\n1 2\n0 1\n",  # unsorted
            "2 1\nx y\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(GraphError):
            parse_text(text)


class TestGraph6:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete(3), "Bw"),
            (independent(3), "B?"),
            (C5, "Dhc"),
            (P3, "Bg"),
            (FiniteGraph(0, ()), "?"),
        ],
    )
    def test_known_strings(self, g, expected):
        assert to_graph6(g) == expected

    def test_header_accepted(self):
        assert from_graph6(">>graph6<<Bw") == complete(3)

    @given(finite_graphs(max_n=10))
    def test_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g

    def test_long_form(self):
        g = FiniteGraph.from_edges(80, [(i, i + 1) for i in range(79)], cap=80)
        assert from_graph6(to_graph6(g)) == g

    @pytest.mark.parametrize("s", ["", "B", "Bw~", "~??"])
    def test_rejects_malformed(self, s):
        with pytest.raises(GraphError):
            from_graph6(s)

    def test_vertex_count_over_the_parser_cap(self):
        # the text format's cap holds for graph6 too, before the body is decoded
        with pytest.raises(GraphError, match="5000 exceeds parser cap 4096"):
            from_graph6(OVER_CAP_GRAPH6)


def _edgeless_graph6(n: int) -> str:
    """The graph6 string of the edgeless graph on ``n`` vertices, ``63 <= n < 2**18``."""
    return "~" + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0)) + "?" * (
        (n * (n - 1) // 2 + 5) // 6)


OVER_CAP_GRAPH6 = _edgeless_graph6(5000)


@pytest.mark.parametrize("read, text, message", [
    (parse_text, "5000 0\n", "exceeds parser cap 4096"),
    (from_graph6, "A`", "nonzero padding"),  # one edge bit, then padding 00001
    (from_graph6, "Bx", "nonzero padding"),  # three edge bits, then padding 001
], ids=["text-over-cap", "graph6-pad-n2", "graph6-pad-n3"])
def test_rejects_the_cap_and_nonzero_padding(read, text, message):
    with pytest.raises(GraphError, match=message):
        read(text)
