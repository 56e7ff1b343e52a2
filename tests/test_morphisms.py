import itertools

import pytest
from hypothesis import given, settings, strategies as st

from homext.generators import OMEGA, complete, composite, independent, rado_bit, rs_graph
from homext.graphs import GraphError
from homext.morphisms import (
    EndoKind,
    MorphismKind,
    PartialMap,
    _local_maps,
    all_subsets,
    classify_map,
    enumerate_local_morphisms,
)

from test_graphs import P3, finite_graphs, labelled_graphs

K2 = complete(2)
I2 = independent(2)
HOM, MONO, ISO = MorphismKind.HOMOMORPHISM, MorphismKind.MONOMORPHISM, MorphismKind.ISOMORPHISM


def naive_local_morphisms(g, k):
    """Independent double-loop enumeration: every domain, every value tuple.

    Returns ``(map, kind)`` for every map of kind at least homomorphism,
    sorted by ``(domain, values)``.
    """
    found = []
    for dom in all_subsets(range(g.n), min(k, g.n)):
        for vals in itertools.product(range(g.n), repeat=len(dom)):
            f = PartialMap(tuple(zip(dom, vals)))
            kind = classify_map(g, f)
            if kind >= MorphismKind.HOMOMORPHISM:
                found.append((f, kind))
    return sorted(found, key=lambda fk: (fk[0].domain, fk[0].values))


class TestPartialMap:
    def test_from_pairs_sorts_and_validates(self):
        f = PartialMap.from_pairs([(2, 0), (0, 1)])
        assert f.pairs == ((0, 1), (2, 0))
        with pytest.raises(GraphError):
            PartialMap.from_pairs([(0, 1), (0, 2)])

    def test_serialize_round_trip(self):
        f = PartialMap.from_pairs([(0, 3), (2, 1)])
        assert f.serialize() == "0->3,2->1"
        assert PartialMap.parse(f.serialize()) == f


class TestClassifyMap:
    def test_identity_is_isomorphism(self):
        f = PartialMap(((0, 0), (1, 1)))
        assert classify_map(K2, f) is MorphismKind.ISOMORPHISM

    def test_mono_nonedge_to_edge(self):
        f = PartialMap(((0, 0), (2, 1)))  # endpoints of the path onto its edge
        assert classify_map(P3, f) is MorphismKind.MONOMORPHISM

    def test_collapsing_an_edge_fails(self):
        f = PartialMap(((0, 0), (1, 0)))
        assert classify_map(K2, f) is MorphismKind.NOT_HOMOMORPHISM

    def test_collapse_on_nonedge_is_hom(self):
        f = PartialMap(((0, 0), (1, 0)))
        assert classify_map(I2, f) is MorphismKind.HOMOMORPHISM

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            classify_map(K2, PartialMap(((0, 5),)))

    @pytest.mark.parametrize("g", [P3, rado_bit(), composite(OMEGA, OMEGA), rs_graph(3)],
                             ids=["P3", "rado", "comp-omega-omega", "rs3"])
    def test_negative_vertex_rejected_on_every_graph(self, g):
        # an oracle predicate never sees it: rado's shift and the composite's
        # isqrt raised ValueError, and rs_graph(3) called the map a monomorphism
        f = PartialMap.parse("0->-1,1->3")
        with pytest.raises(GraphError, match=r"\(0, -1\) out of range"):
            classify_map(g, f)

    @given(finite_graphs(max_n=5))
    def test_iso_symmetric_on_pair_maps(self, g):
        for dom in itertools.combinations(range(g.n), 2):
            for vals in itertools.permutations(range(g.n), 2):
                f = PartialMap(tuple(zip(dom, vals)))
                inv = PartialMap.from_pairs([(t, s) for s, t in f.pairs])
                assert (classify_map(g, f) is MorphismKind.ISOMORPHISM) == (
                    classify_map(g, inv) is MorphismKind.ISOMORPHISM
                )


class TestEnumeration:
    def test_singletons_everywhere(self):
        g = complete(4)
        maps = list(enumerate_local_morphisms(g, MorphismKind.ISOMORPHISM, 1))
        assert len(maps) == 16  # n^2 single-vertex maps

    def test_k2_hom_count(self):
        maps = list(enumerate_local_morphisms(K2, MorphismKind.HOMOMORPHISM, 2))
        assert len(maps) == 6  # 4 singletons + 2 edge bijections

    def test_i2_mono_count(self):
        maps = list(enumerate_local_morphisms(I2, MorphismKind.MONOMORPHISM, 2))
        assert len(maps) == 6  # 4 singletons + 2 nonedge bijections

    def test_unique_and_lex_ordered(self):
        maps = list(enumerate_local_morphisms(P3, MorphismKind.HOMOMORPHISM, 2))
        assert len(maps) == len(set(maps))
        keys = [(f.domain, f.values) for f in maps]
        assert keys == sorted(keys)

    @given(finite_graphs(max_n=4))
    def test_kind_nesting(self, g):
        iso = set(enumerate_local_morphisms(g, MorphismKind.ISOMORPHISM, 3))
        mono = set(enumerate_local_morphisms(g, MorphismKind.MONOMORPHISM, 3))
        hom = set(enumerate_local_morphisms(g, MorphismKind.HOMOMORPHISM, 3))
        assert iso <= mono <= hom

    @given(finite_graphs(max_n=5))
    def test_against_naive_double_loop(self, g):
        # the exact sequence, for every kind and every bound k <= n
        naive = naive_local_morphisms(g, g.n)
        for x in (MorphismKind.ISOMORPHISM, MorphismKind.MONOMORPHISM, MorphismKind.HOMOMORPHISM):
            for k in range(1, g.n + 1):
                want = [f for f, kind in naive if kind >= x and len(f) <= k]
                assert list(enumerate_local_morphisms(g, x, k)) == want

    def test_bad_bound(self):
        with pytest.raises(GraphError):
            list(enumerate_local_morphisms(K2, MorphismKind.HOMOMORPHISM, 0))


def reference_stream(naive, x, k):
    """The stream's independent reference: the maps of :func:`naive_local_morphisms`
    of kind at least ``x`` and domain size at most ``k``, in (size, domain, values)
    order (a stable sort by size of the (domain, values) order)."""
    kept = sorted((fk for fk in naive if fk[1] >= x and len(fk[0]) <= k), key=lambda fk: len(fk[0]))
    return [(f.pairs, kind) for f, kind in kept]


def streamed(g, k, floor, raise_after=None, raised=None):
    """``(pairs, kind)`` of the stream over the domains of size up to ``k``, smaller
    sizes first, its floor raised to ``raised`` after the map at index
    ``raise_after``; the domain masks are checked on the way."""
    out, floors = [], [floor]
    domains = all_subsets(range(g.n), min(k, g.n))
    for i, (pairs, dom_mask, kind) in enumerate(_local_maps(g.rows, domains, floors)):
        assert dom_mask == sum(1 << u for u, _ in pairs)
        out.append((pairs, kind))
        if i == raise_after:
            floors[0] = raised
    return out


class TestLocalMapStream:
    """``_local_maps`` against the naive double loop and ``classify_map``."""

    @staticmethod
    def check_constant_floor(g, max_k):
        naive = naive_local_morphisms(g, max_k)
        for x in (ISO, MONO, HOM):
            for k in range(1, max_k + 1):
                assert streamed(g, k, x) == reference_stream(naive, x, k)

    @staticmethod
    def check_raised_floor(g, k, floor, raised, whole, raise_after):
        # whole: the stream at the constant floor
        want = whole[:raise_after + 1] + [e for e in whole[raise_after + 1:] if e[1] >= raised]
        assert streamed(g, k, floor, raise_after, raised) == want

    @pytest.mark.parametrize("n", range(5))
    def test_constant_floor_on_every_small_labelled_graph(self, n):
        for g in labelled_graphs(n):
            self.check_constant_floor(g, n)

    @settings(max_examples=30)
    @given(finite_graphs(max_n=7))
    def test_constant_floor_on_larger_graphs(self, g):
        # k <= 3: at k = 7 the edgeless graph alone has 8^7 - 1 local homomorphisms
        self.check_constant_floor(g, min(g.n, 3))

    @pytest.mark.parametrize("n", range(5))
    def test_raised_floor_on_every_small_labelled_graph(self, n):
        for g in labelled_graphs(n):
            for floor, raised in ((HOM, MONO), (HOM, ISO), (MONO, ISO)):
                whole = streamed(g, n, floor)
                for raise_after in range(0, len(whole), 1 + len(whole) // 10):
                    self.check_raised_floor(g, n, floor, raised, whole, raise_after)

    @settings(max_examples=30)
    @given(finite_graphs(max_n=7), st.data())
    def test_raised_floor_on_larger_graphs(self, g, data):
        k = min(g.n, 3)
        floor, raised = data.draw(st.sampled_from(((HOM, MONO), (HOM, ISO), (MONO, ISO))))
        whole = streamed(g, k, floor)
        raise_after = data.draw(st.integers(min_value=0, max_value=max(len(whole) - 1, 0)))
        self.check_raised_floor(g, k, floor, raised, whole, raise_after)


class TestEndoKind:
    def test_required_kinds(self):
        assert EndoKind.A.required_kind is MorphismKind.ISOMORPHISM
        assert EndoKind.B.required_kind is MorphismKind.MONOMORPHISM
        assert EndoKind.E.required_kind is MorphismKind.HOMOMORPHISM

    def test_implications(self):
        assert set(EndoKind.A.implies()) == {EndoKind.I, EndoKind.B, EndoKind.E}
        assert set(EndoKind.B.implies()) == {EndoKind.M, EndoKind.E}
        assert EndoKind.M.implies() == (EndoKind.H,)


@pytest.mark.parametrize("text", ["0->1,x", "0->1,1->2->3", "a->1"])
def test_parse_rejects_a_bad_chunk(text):
    with pytest.raises(GraphError, match="bad map chunk"):
        PartialMap.parse(text)
