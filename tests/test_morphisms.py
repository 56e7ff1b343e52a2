import itertools

import pytest
from hypothesis import given, strategies as st

from homext.generators import complete, independent
from homext.graphs import FiniteGraph, GraphError
from homext.morphisms import (
    EndoKind,
    MorphismKind,
    PartialMap,
    all_subsets,
    classify_map,
    enumerate_local_morphisms,
)

from test_graphs import P3, finite_graphs

K2 = complete(2)
I2 = independent(2)


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


class TestEndoKind:
    def test_required_kinds(self):
        assert EndoKind.A.required_kind is MorphismKind.ISOMORPHISM
        assert EndoKind.B.required_kind is MorphismKind.MONOMORPHISM
        assert EndoKind.E.required_kind is MorphismKind.HOMOMORPHISM

    def test_implications(self):
        assert set(EndoKind.A.implies()) == {EndoKind.I, EndoKind.B, EndoKind.E}
        assert set(EndoKind.B.implies()) == {EndoKind.M, EndoKind.E}
        assert EndoKind.M.implies() == (EndoKind.H,)
