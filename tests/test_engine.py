import dataclasses
import hashlib
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homext.age import PROPERTY_NAMES, check_criterion, check_property, compute_age
from homext.engine import (
    Status,
    _component_confinement_note,
    _extension,
    back_and_forth,
    classify_finite,
    decide_xy_bounded,
    decide_xy_finite,
    extend_finite,
    one_step_extension,
    one_step_preimage,
    total_endo_kinds,
)
from homext.generators import (
    OMEGA,
    complete,
    composite,
    independent,
    rado_bit,
    rado_plus_dominating_oracle,
    rs_graph,
)
from homext.graphs import (
    FiniteGraph, GraphError, OracleGraph, connected_components, oracle_truncate,
)
from homext.morphisms import (
    EndoKind,
    MorphismKind,
    PartialMap,
    X_KINDS,
    Y_KINDS,
    _step_mask,
    _step_sets,
    classify_map,
    enumerate_local_morphisms,
)

from test_graphs import C5, P3, finite_graphs

I = MorphismKind.ISOMORPHISM  # noqa: E741
M = MorphismKind.MONOMORPHISM
H = MorphismKind.HOMOMORPHISM


class TestOneStep:
    def test_apex_only(self):
        f = PartialMap(((0, 0), (1, 1)))
        assert one_step_extension(complete(3), f, 2, H) == (2,)

    def test_no_common_neighbor(self):
        f = PartialMap(((0, 0), (2, 1)))
        assert one_step_extension(P3, f, 1, H) == ()

    def test_mono_on_empty_graph(self):
        f = PartialMap(((0, 0),))
        assert one_step_extension(independent(3), f, 1, M) == (1, 2)

    def test_preimage_apex(self):
        f = PartialMap(((0, 0), (1, 1)))
        assert one_step_preimage(complete(3), f, 2, H) == (2,)

    def test_preimage_two_triangles(self):
        g = composite(2, 3)
        f = PartialMap(((0, 0),))
        assert one_step_preimage(g, f, 3, H) == (3, 4, 5)

    def test_domain_and_image_guards(self):
        f = PartialMap(((0, 0),))
        with pytest.raises(GraphError):
            one_step_extension(P3, f, 0, H)
        with pytest.raises(GraphError):
            one_step_preimage(P3, f, 0, H)

    @pytest.mark.parametrize(
        "g, target",
        [(complete(3), 7), (complete(3), 3), (complete(3), -1), (rs_graph(3), -1)],
        ids=["finite-past-n", "finite-at-n", "finite-negative", "oracle-negative"],
    )
    def test_target_out_of_range_rejected(self, g, target):
        # a missing vertex used to get candidates, a negative one a ValueError
        f = PartialMap(((0, 0),))
        with pytest.raises(GraphError):
            one_step_extension(g, f, target, H, horizon=4)
        with pytest.raises(GraphError):
            one_step_preimage(g, f, target, H, horizon=4)

    def test_horizon_honoured_on_finite_graphs(self):
        # a truncation answers as its oracle does at the same horizon
        o, f = rs_graph(3), PartialMap(((0, 0),))
        t = oracle_truncate(o, 6)
        assert one_step_extension(t, f, 1, H, horizon=2) == (0, 1)
        for horizon in (2, 4, 6):
            assert one_step_extension(t, f, 1, H, horizon=horizon) == one_step_extension(
                o, f, 1, H, horizon=horizon
            )
            assert one_step_preimage(t, f, 1, H, horizon=horizon) == one_step_preimage(
                o, f, 1, H, horizon=horizon
            )
        assert one_step_extension(t, f, 1, H, horizon=50) == one_step_extension(t, f, 1, H)


STEP_ORACLES = {
    "rs3": rs_graph(3),
    "rado": rado_bit(),
    "radoplus": rado_plus_dominating_oracle(),
    "comp": composite(OMEGA, OMEGA),
}
STEP_HORIZON = 12


@st.composite
def oracle_maps(draw):
    """An oracle, a kind, and a map of that kind grown pair by pair (some pairs
    reach past the horizon)."""
    o = STEP_ORACLES[draw(st.sampled_from(sorted(STEP_ORACLES)))]
    kind = draw(st.sampled_from(X_KINDS))
    f = PartialMap(())
    vertex = st.integers(0, 15)
    for s, t in draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=5)):
        if s not in f.domain and classify_map(o, f.extended(s, t)) >= kind:
            f = f.extended(s, t)
    return o, kind, f


class TestOneStepOnOracles:
    """The bitset step kernel against a filter that asks the predicate directly."""

    @given(oracle_maps(), st.integers(0, 15))
    def test_extension_matches_predicate_filter(self, drawn, c):
        o, kind, f = drawn
        if c in f.domain:
            return
        expected = tuple(
            d for d in range(STEP_HORIZON) if classify_map(o, f.extended(c, d)) >= kind
        )
        assert one_step_extension(o, f, c, kind, horizon=STEP_HORIZON) == expected

    @given(oracle_maps(), st.integers(0, 15))
    def test_preimage_matches_predicate_filter(self, drawn, b):
        o, kind, f = drawn
        if b in f.values:
            return
        expected = tuple(
            a
            for a in range(STEP_HORIZON)
            if a not in f.domain and classify_map(o, f.extended(a, b)) >= kind
        )
        assert one_step_preimage(o, f, b, kind, horizon=STEP_HORIZON) == expected

    @given(oracle_maps(), st.integers(0, 15), st.sampled_from(["extension", "preimage"]))
    def test_step_sets_are_the_set_form_of_the_kernel(self, drawn, target, side):
        # the sets a certificate is taken over select exactly the kernel's candidates
        o, kind, f = drawn
        if target in (f.domain if side == "extension" else f.values):
            return
        rows = oracle_truncate(o, 16).rows
        pos, neg, skip = _step_sets(rows, f.pairs, target, side, kind)
        mask = _step_mask(rows, f.pairs, target, side, kind, (1 << 16) - 1)
        for v in range(16):
            expected = v not in skip and all(o.adj(v, u) for u in pos)
            assert bool(mask >> v & 1) == (expected and not any(o.adj(v, u) for u in neg))

    def test_oracle_needs_a_horizon(self):
        with pytest.raises(GraphError):
            one_step_extension(rs_graph(3), PartialMap(((0, 0),)), 1, H)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_rejected(self, horizon):
        # horizon 0 used to return no candidates vacuously, -1 a ValueError
        f = PartialMap(((0, 0),))
        with pytest.raises(GraphError):
            one_step_extension(rs_graph(3), f, 1, H, horizon=horizon)
        with pytest.raises(GraphError):
            one_step_preimage(rs_graph(3), f, 1, H, horizon=horizon)


# symmetric and loop-free on 0..4, so every window-4 starting map is sound;
# only a truncation to the horizon meets the defect
LOPSIDED = OracleGraph(lambda i, j: (i, j) == (5, 9), "lopsided")
LOOPED = OracleGraph(lambda i, j: i == j == 7, "looped")


@pytest.mark.parametrize("o", [LOPSIDED, LOOPED], ids=["asymmetric", "reflexive"])
class TestMalformedOracles:
    def test_bounded_sweep_raises(self, o):
        with pytest.raises(GraphError):
            decide_xy_bounded(o, M, EndoKind.H, k=2, window=4, horizon=16)

    def test_schedule_raises(self, o):
        with pytest.raises(GraphError):
            back_and_forth(o, PartialMap(((0, 1),)), EndoKind.E, depth=4, horizon=16)

    def test_one_step_raises(self, o):
        f = PartialMap(((0, 1),))
        with pytest.raises(GraphError):
            one_step_extension(o, f, 2, H, horizon=16)
        with pytest.raises(GraphError):
            one_step_preimage(o, f, 2, H, horizon=16)

    def test_age_layer_raises(self, o):
        with pytest.raises(GraphError):
            compute_age(o, 2, horizon=16)
        with pytest.raises(GraphError):
            check_criterion(o, "HH", 2, horizon=16)
        for which in PROPERTY_NAMES:
            with pytest.raises(GraphError):
                check_property(o, which, 2, horizon=16, window=4)


class TestExtendFinite:
    def test_complete_graph_automorphism(self):
        total = extend_finite(complete(4), PartialMap(((0, 2), (1, 3))), EndoKind.A)
        assert total is not None
        assert EndoKind.A in total_endo_kinds(complete(4), total)

    def test_path_obstruction(self):
        assert extend_finite(P3, PartialMap(((0, 0), (2, 1))), EndoKind.H) is None

    def test_component_swap(self):
        g = FiniteGraph.from_edges(4, [(0, 1), (2, 3)])
        total = extend_finite(g, PartialMap(((0, 2), (1, 3))), EndoKind.A)
        assert total == (2, 3, 0, 1)

    def test_total_map_kind_checker(self):
        g = independent(3)
        assert total_endo_kinds(g, (0, 0, 0)) == {EndoKind.H}
        assert EndoKind.A in total_endo_kinds(g, (1, 2, 0))
        assert total_endo_kinds(complete(2), (0, 0)) == set()

    @given(finite_graphs(max_n=5))
    def test_found_extensions_have_the_kind(self, g):
        # one modest map per graph: identity on the first two vertices
        if g.n < 2:
            return
        f = PartialMap(((0, 0), (1, 1)))
        for y in Y_KINDS:
            total = extend_finite(g, f, y)
            if total is not None:
                assert y in total_endo_kinds(g, total)


class TestDecideFinite:
    def test_complete_holds_everywhere(self):
        mv = classify_finite(complete(4))
        assert all(v.holds for _, v in mv.items())

    def test_empty_graph_vector(self):
        mv = classify_finite(independent(4))
        assert mv.get("MA").holds
        assert mv.get("HA").fails
        assert not mv.get("HA").witness.is_injective()

    def test_path_mono_witness(self):
        v = decide_xy_finite(P3, M, EndoKind.H)
        assert v.fails
        assert v.witness == PartialMap(((0, 0), (2, 1)))
        assert v.stuck == 1

    def test_two_triangles(self):
        g = composite(2, 3)
        mv = classify_finite(g)
        assert mv.get("IH").holds
        assert mv.get("MA").fails

    def test_cycle_ultrahomogeneous_at_this_scale(self):
        assert decide_xy_finite(C5, I, EndoKind.A).holds

    def test_cap(self):
        with pytest.raises(GraphError):
            decide_xy_finite(independent(8), H, EndoKind.H)

    def test_report_line_format(self):
        v = decide_xy_finite(P3, M, EndoKind.H)
        assert v.report_line(M, EndoKind.H) == "FAIL X=M Y=H map=0->0,2->1 stuck=1"

    def test_cached_vector_is_read_only(self):
        # the vector is shared by every later call on an equal graph
        mv = classify_finite(complete(3))
        with pytest.raises(TypeError):
            mv.entries[(I, EndoKind.H)] = decide_xy_finite(P3, M, EndoKind.H)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mv.entries = {}
        assert classify_finite(complete(3)).get("IH").holds
        assert decide_xy_finite(complete(3), I, EndoKind.H).holds

    @pytest.mark.parametrize("call", [
        lambda o: classify_finite(o),
        lambda o: decide_xy_finite(o, I, EndoKind.H),
        lambda o: extend_finite(o, PartialMap(((0, 1),)), EndoKind.A),
    ], ids=["classify", "decide", "extend"])
    def test_oracle_names_the_bounded_path(self, call):
        with pytest.raises(GraphError, match="got OracleGraph; .*decide_xy_bounded"):
            call(rs_graph(3))


class TestFiniteLaws:
    def test_y_collapse_small(self, corpus4):
        strict = [EndoKind.A, EndoKind.B, EndoKind.E, EndoKind.I, EndoKind.M]
        for _, g in corpus4:
            mv = classify_finite(g)
            for x in X_KINDS:
                verdicts = [mv.entries[(x, y)] for y in strict]
                assert len({(v.status, v.witness) for v in verdicts}) == 1

    def test_monotone_small(self, corpus4):
        for gid, g in corpus4:
            assert classify_finite(g).monotonicity_violations() == [], gid

    def test_witnesses_revalidate(self, corpus4):
        for _, g in corpus4:
            mv = classify_finite(g)
            for (x, y), v in mv.entries.items():
                if not v.fails:
                    continue
                assert classify_map(g, v.witness) >= x
                assert extend_finite(g, v.witness, y) is None

    def test_disconnected_surjective_failures_note_components(self):
        g = composite(2, 3)
        v = decide_xy_finite(g, M, EndoKind.E)
        assert v.fails and v.note and "component" in v.note


def naive_decide(g, x, y):
    """Independent oracle: enumerate all total maps, then all local maps.

    A local morphism extends iff some total map of the right kind contains
    it.  Quadratic in everything; trustworthy on tiny graphs.
    """
    totals = [
        t
        for t in itertools.product(range(g.n), repeat=g.n)
        if y in total_endo_kinds(g, t)
    ]
    for f in sorted(
        enumerate_local_morphisms(g, x, g.n),
        key=lambda f: (len(f.pairs), f.domain, f.values),
    ):
        if not any(all(t[s] == v for s, v in f.pairs) for t in totals):
            return ("fails", f)
    return ("holds", None)


class TestAgainstNaiveOracle:
    def test_all_pairs_on_tiny_corpus(self, corpus4):
        for gid, g in corpus4:
            mv = classify_finite(g)
            for x in X_KINDS:
                for y in Y_KINDS:
                    status, witness = naive_decide(g, x, y)
                    v = mv.entries[(x, y)]
                    assert v.status.value == status, (gid, x, y)
                    if witness is not None:
                        assert v.witness == witness, (gid, x, y)


def _map_properties(g, pairs):
    """(hom, injective, edge-reflecting) of a vertex map given as pairs."""
    hom = reflecting = True
    for (u, fu), (v, fv) in itertools.combinations(pairs, 2):
        e, fe = g.adj(u, v), g.adj(fu, fv)
        hom = hom and (fe or not e)
        reflecting = reflecting and (e or not fe)
    return hom, len({t for _, t in pairs}) == len(pairs), reflecting


def _total_kinds(g, t):
    """The Y kinds of a total map, from hom, injective, surjective and
    edge-reflecting alone (empty if it is not a homomorphism)."""
    hom, injective, reflecting = _map_properties(g, tuple(enumerate(t)))
    if not hom:
        return set()
    surjective = len(set(t)) == g.n
    kinds = {EndoKind.H}
    if injective:
        kinds.add(EndoKind.M)
    if surjective:
        kinds.add(EndoKind.E)
    if injective and surjective:
        kinds.add(EndoKind.B)
    if injective and reflecting:
        kinds.add(EndoKind.I)
    if injective and surjective and reflecting:
        kinds.add(EndoKind.A)
    return kinds


def _extends_table(g):
    """The Y kinds of all n^n total maps, gathered over each nonempty restriction."""
    n = g.n
    extends: dict[tuple, set] = {}
    for t in itertools.product(range(n), repeat=n):
        kinds = _total_kinds(g, t)
        if not kinds:
            continue
        for mask in range(1, 1 << n):
            key = tuple((v, t[v]) for v in range(n) if mask >> v & 1)
            extends.setdefault(key, set()).update(kinds)
    return extends


def reference_first_failures(g):
    """First non-extendable local map per (x, y), from the definitions alone.

    A local map extends to kind y iff it is the restriction of a total map
    of kind y (:func:`_extends_table`).  Local maps are scanned in (size,
    domain, values) order.  Nothing here assumes that the Y kinds coincide.
    """
    n = g.n
    extends = _extends_table(g)
    first = {}
    for size in range(1, n + 1):
        for dom in itertools.combinations(range(n), size):
            for vals in itertools.product(range(n), repeat=size):
                pairs = tuple(zip(dom, vals))
                hom, injective, reflecting = _map_properties(g, pairs)
                if not hom:
                    continue
                kind = H if not injective else I if reflecting else M
                for x in X_KINDS:
                    for y in Y_KINDS:
                        if kind >= x and (x, y) not in first and y not in extends.get(pairs, ()):
                            first[(x, y)] = PartialMap(pairs)
    return first


def _labelled(n, bits):
    pairs = list(itertools.combinations(range(n), 2))
    return FiniteGraph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


class TestAgainstTotalMaps:
    """classify_finite's witnesses against first failures derived from total maps."""

    @staticmethod
    def check(g):
        want = reference_first_failures(g)
        mv = classify_finite(g)
        for x in X_KINDS:
            for y in Y_KINDS:
                assert mv.entries[(x, y)].witness == want.get((x, y)), (g, x, y)

    def test_every_labelled_graph_up_to_four_vertices(self):
        for n in range(1, 5):
            for bits in range(1 << n * (n - 1) // 2):
                self.check(_labelled(n, bits))

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=(1 << 10) - 1))
    def test_labelled_graphs_on_five_vertices(self, bits):
        self.check(_labelled(5, bits))


class TestExtendFiniteAgainstTotalMaps:
    """extend_finite against the restrictions of every total map: each local
    map with one or two pairs, non-homomorphisms included, and every Y."""

    def test_every_labelled_graph_up_to_four_vertices(self):
        for n in range(1, 5):
            for bits in range(1 << n * (n - 1) // 2):
                g = _labelled(n, bits)
                extends = _extends_table(g)
                for size in (1, 2):
                    for dom in itertools.combinations(range(n), size):
                        for vals in itertools.product(range(n), repeat=size):
                            pairs = tuple(zip(dom, vals))
                            for y in Y_KINDS:
                                total = extend_finite(g, PartialMap(pairs), y)
                                want = y in extends.get(pairs, ())
                                assert (total is not None) == want, (g, pairs, y)
                                if total is not None:
                                    assert all(total[s] == t for s, t in pairs)
                                    assert y in _total_kinds(g, total), (g, pairs, y)


class TestExtenderAgainstTotalMaps:
    """Every answer of the extension search at H and at A against the restrictions
    of every total map: each local map of the search's kind, of every domain size,
    asked once; a total it returns must extend the map asked about."""

    @staticmethod
    def check(g):
        n = g.n
        extends = _extends_table(g)
        for size in range(1, n + 1):
            for dom in itertools.combinations(range(n), size):
                for vals in itertools.product(range(n), repeat=size):
                    pairs = tuple(zip(dom, vals))
                    hom, injective, reflecting = _map_properties(g, pairs)
                    for y in (EndoKind.H, EndoKind.A) if hom else ():
                        if y is EndoKind.A and not (injective and reflecting):
                            continue
                        want = y in extends.get(pairs, ())
                        total = _extension(g.rows, pairs, y.required_kind)
                        assert (total is not None) == want, (g, pairs, y)
                        if total is not None:
                            assert all(total[s] == t for s, t in pairs)
                            assert y in _total_kinds(g, total), (g, pairs, y)

    def test_every_labelled_graph_up_to_four_vertices(self):
        for n in range(1, 5):
            for bits in range(1 << n * (n - 1) // 2):
                self.check(_labelled(n, bits))

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=(1 << 10) - 1))
    def test_labelled_graphs_on_five_vertices(self, bits):
        self.check(_labelled(5, bits))

    def test_forward_checking_refutes_where_a_vertex_runs_out(self):
        # 0 -> 1 leaves the neighbours 2 and 6 of 0 only the candidate 6, the
        # one neighbour of 1, so the edge 2 ~ 6 has no image; assigning 2 -> 6
        # empties 6, so the search refutes every value of its first vertex without
        # entering one.  Without forward checking a least-vertex search reached
        # 316 maps before refuting the map.
        g = FiniteGraph.from_edges(
            7, [(0, 2), (0, 3), (0, 6), (1, 6), (2, 5), (2, 6), (3, 6), (4, 6)])
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "search":
                calls.append(frame.f_code)

        sys.setprofile(count)
        try:
            total = _extension(g.rows, ((0, 1),), MorphismKind.HOMOMORPHISM)
        finally:
            sys.setprofile(None)
        assert total is None
        assert len(calls) == 1


class TestStuckAndNote:
    """Each FAIL's ``stuck`` and ``note`` against the public one-step call and
    the component note, asked about the verdict's own witness."""

    @staticmethod
    def check(g):
        comps = connected_components(g)
        for (x, y), v in classify_finite(g).entries.items():
            if not v.fails:
                continue
            w, kind = v.witness, y.required_kind
            stuck = None
            if classify_map(g, w) >= kind:
                stuck = next(
                    (c for c in range(g.n)
                     if c not in w.domain and one_step_extension(g, w, c, kind) == ()),
                    None,
                )
            assert v.stuck == stuck, (g, x, y)
            note = _component_confinement_note(comps, w.domain, w.values)
            assert v.note == (note if y.needs_surjective else None), (g, x, y)

    def test_every_labelled_graph_up_to_five_vertices(self):
        graphs = [_labelled(n, bits) for n in range(1, 6) for bits in range(1 << n * (n - 1) // 2)]
        assert len(graphs) == 1099
        for g in graphs:
            self.check(g)

    @settings(max_examples=40)
    @given(st.data())
    def test_drawn_graphs_on_six_and_seven_vertices(self, data):
        # seven-vertex graphs keep 8-13 of their 21 edges, as the benchmark's
        # do: the sparsest and densest classes take seconds each (DECIDE_CAP)
        n = data.draw(st.sampled_from((6, 7)))
        size = 15 if n == 6 else 21
        lo, hi = (0, size) if n == 6 else (8, 13)
        edges = data.draw(st.sets(st.integers(0, size - 1), min_size=lo, max_size=hi))
        self.check(_labelled(n, sum(1 << i for i in edges)))


class TestBackAndForth:
    def test_matching_oracle_never_sticks(self):
        o = composite(OMEGA, 2)
        tr = back_and_forth(o, PartialMap(((0, 0), (1, 1))), EndoKind.E, depth=6, horizon=40)
        assert tr.outcome == "depth-reached"
        sides = [s.side for s in tr.steps]
        assert sides == ["preimage", "extension"] * 3

    def test_identity_proceeds(self):
        o = rs_graph(3)
        f = PartialMap(((0, 0), (1, 1), (2, 2)))
        tr = back_and_forth(o, f, EndoKind.E, depth=8, horizon=60)
        assert tr.outcome == "depth-reached"

    def test_independent_to_clique_sticks_with_certificate(self):
        o = rs_graph(3)
        f = PartialMap(((0, 3), (1, 4), (2, 5)))
        tr = back_and_forth(o, f, EndoKind.B, depth=16, horizon=60)
        assert tr.outcome == "stuck"
        assert tr.stuck_side == "preimage"
        assert tr.certificate and "confined" in tr.certificate

    def test_prefixes_keep_the_step_kind(self):
        o = rs_graph(3)
        f = PartialMap(((0, 3), (1, 4), (2, 5)))
        tr = back_and_forth(o, f, EndoKind.B, depth=16, horizon=60)
        current = f
        for step in tr.steps:
            current = current.extended(*step.pair)
            assert classify_map(o, current) >= M

    def test_horizon_exhaustion_reported(self):
        o = composite(OMEGA, 2)
        f = PartialMap(((0, 0), (1, 1)))
        tr = back_and_forth(o, f, EndoKind.E, depth=10, horizon=2)
        assert tr.outcome == "horizon-exhausted"

    def test_kind_precondition(self):
        o = rs_graph(3)
        collapse = PartialMap(((0, 0), (1, 0)))  # not injective
        with pytest.raises(GraphError):
            back_and_forth(o, collapse, EndoKind.B, depth=4, horizon=20)

    @pytest.mark.parametrize("bound,value", [("horizon", 0), ("depth", -1)])
    def test_out_of_range_bounds_rejected(self, bound, value):
        with pytest.raises(GraphError):
            back_and_forth(rs_graph(3), PartialMap(((0, 0),)), EndoKind.H, **{bound: value})


SWEEP_ORACLES = {
    **{f"rs{n}": rs_graph(n) for n in (2, 3, 4)},
    "rado": rado_bit(),
    "radoplus": rado_plus_dominating_oracle(),
    "comp_w_2": composite(OMEGA, 2),
    "comp_w_3": composite(OMEGA, 3),
    "comp_2_w": composite(2, OMEGA),
    "comp_3_w": composite(3, OMEGA),
    "comp_w_w": composite(OMEGA, OMEGA),
}


class _ListsOnly:
    """A declared structure whose witness rules must not be asked."""

    def __init__(self, inner):
        self.cone_candidates = inner.cone_candidates
        self.cocone_candidates = inner.cocone_candidates

    def cone_witness(self, s):
        raise AssertionError(f"witness asked over {sorted(s)}")

    cocone_witness = cone_witness


class TestDecideBounded:
    def test_never_holds(self):
        o = composite(OMEGA, OMEGA)
        v = decide_xy_bounded(o, M, EndoKind.B, k=2, horizon=25, depth=8, window=5)
        assert v.status in (Status.UNKNOWN, Status.FAILS)
        assert v.status is Status.UNKNOWN  # genuinely bimorphism-extendable family

    def test_rs_mono_to_bijective_fails_with_certificate(self):
        v = decide_xy_bounded(rs_graph(3), M, EndoKind.B, k=3, horizon=60, window=8)
        assert v.fails and v.certificate
        # every definite witness is itself a monomorphism with no extension
        o = rs_graph(3)
        for w in v.witnesses[:20]:
            assert classify_map(o, w) >= M

    def test_disconnected_epi_failure(self):
        v = decide_xy_bounded(composite(2, OMEGA), M, EndoKind.E, k=2, horizon=40, depth=12, window=6)
        assert v.fails
        assert classify_map(composite(2, OMEGA), v.witness) >= M

    def test_dominated_rado_iso_to_epi_failure(self):
        o = rado_plus_dominating_oracle()
        v = decide_xy_bounded(o, I, EndoKind.E, k=2, horizon=64, depth=16, window=6)
        assert v.fails
        start, trace = v.details[0]
        assert trace.stuck_side == "preimage"
        assert "co-cones over [0]" in trace.certificate

    def test_kind_obstruction_is_definite(self):
        # a non-injective homomorphism can never restrict any monomorphism
        v = decide_xy_bounded(rs_graph(3), H, EndoKind.M, k=2, horizon=30, window=4)
        assert v.fails
        assert "kind" in v.certificate
        assert not v.witness.is_injective()

    def test_window_beyond_horizon(self):
        # starting maps reach vertices 4 and 5, past the horizon; the steps
        # still only pick candidates below it
        v = decide_xy_bounded(rs_graph(3), M, EndoKind.B, k=2, window=6, horizon=4, depth=6)
        assert v.report_line(M, EndoKind.B) == (
            "FAIL X=M Y=B map=0->0,1->3,3->1 stuck=2 certificate=preimage of 2 "
            "confined to co-cones over [0, 3] = [0, 1, 2]; exhausted"
        )
        assert (v.bounds["maps"], v.bounds["stuck_uncertified"], len(v.witnesses)) == (
            378, 160, 169
        )

    def test_window_beyond_horizon_on_matching(self):
        # a certificate asks comp(w, 2) for cones over the empty set
        v = decide_xy_bounded(composite(OMEGA, 2), I, EndoKind.I, k=2, window=6, horizon=4, depth=6)
        assert v.status is Status.UNKNOWN
        assert (v.bounds["maps"], v.bounds["stuck_uncertified"]) == (342, 212)

    @pytest.mark.parametrize("y", [EndoKind.I, EndoKind.A])
    def test_iso_image_step_falls_back_to_cocones(self, y):
        # rs(2) lists no cones over [0], so the image of 2 is confined by the
        # co-cones over its non-neighbour's image
        v = decide_xy_bounded(rs_graph(2), I, y, k=2, window=4, horizon=32, depth=12)
        assert v.report_line(I, y) == (
            f"FAIL X=I Y={y.value} map=0->2,1->0 stuck=2 certificate=image of 2 "
            "confined to co-cones over [2] = [0, 1]; exhausted"
        )

    @pytest.mark.parametrize(
        "bound,value", [("window", -1), ("window", 0), ("horizon", 0), ("depth", -2)]
    )
    def test_out_of_range_bounds_rejected(self, bound, value):
        # each of these used to sweep nothing, or ignore the bound, and pass silently
        with pytest.raises(GraphError):
            decide_xy_bounded(rs_graph(3), I, EndoKind.I, k=2, **{bound: value})

    @pytest.mark.parametrize("which", PROPERTY_NAMES)
    @pytest.mark.parametrize("bound,value", [("window", -3), ("window", 0), ("horizon", 0)])
    def test_oracle_property_bounds_rejected(self, which, bound, value):
        with pytest.raises(GraphError):
            check_property(rs_graph(3), which, 2, **{"horizon": 16, bound: value})

    @pytest.mark.parametrize("name", ["rado", "radoplus", "comp"])
    def test_stuck_steps_ask_no_witness(self, name):
        # only a complete list confines a stuck step, so a witness answer
        # could never become a certificate
        o = STEP_ORACLES[name]
        listless = dataclasses.replace(o, structure=_ListsOnly(o.structure))
        for x in X_KINDS:
            for y in Y_KINDS:
                bounds = dict(k=2, window=4, horizon=16, depth=8)
                assert decide_xy_bounded(listless, x, y, **bounds).report_line(x, y) == (
                    decide_xy_bounded(o, x, y, **bounds).report_line(x, y)
                )

    # sha256 over the 18 report lines and reprs of ``details`` at PIN_BOUNDS,
    # recorded before the schedule loop and the trace builder were split
    PIN_BOUNDS = dict(k=2, window=4, horizon=16, depth=8)
    PINNED = {
        "rs3": ("cf38caeb31172cd151eddaa274405cf073141cc8390adca082c3b9d7c4bbdbd5", 427),
        "comp": ("1c7f69f18059e0eeccbd2a48e8586b971da6dadc20f133905e54ddf1b991961a", 120),
        "radoplus": ("2c662f90e9f2537d8f959b6dba6cae1f4234cef6b7a73c8ec225e2d52c614c4f", 479),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_kept_traces_are_pinned_and_rebuilt_by_back_and_forth(self, name):
        o, digest, kept = STEP_ORACLES[name], hashlib.sha256(), 0
        for x in X_KINDS:
            for y in Y_KINDS:
                v = decide_xy_bounded(o, x, y, **self.PIN_BOUNDS)
                digest.update(f"{v.report_line(x, y)}\n{v.details!r}\n".encode())
                kept += len(v.details)
                for f, trace in v.details:
                    if trace.header == "kind obstruction":
                        with pytest.raises(GraphError):
                            back_and_forth(o, f, y, depth=8, horizon=16, x=x)
                    else:
                        assert trace == back_and_forth(o, f, y, depth=8, horizon=16, x=x)
        assert (digest.hexdigest(), kept) == self.PINNED[name]

    # the same digest at the benchmark's oracle-sweep bounds, where schedules
    # meet most often; recorded before the sweep memo
    SWEEP_BOUNDS = dict(k=2, window=4, horizon=32, depth=12)
    SWEEP_PINNED = {
        "rs3": ("4fdbb189ae03fb069904c44c855c641dfafcebcc0ba0536752872f1a0b21e756", 427),
        "rado": ("fef691f2667e416e9068ef1c895ef849f2aba3385adafc10c04b863452fbb45a", 96),
        "radoplus": ("5784e6ddfa135e5ba1caa3b3f6f1808b6f67f47e14bf932eb67795fb6c5d39f8", 488),
        "comp_w_2": ("f8956d2653682ea306015bc71b757d2cb40ae2e3cc0d864d2fe35be045045a8c", 208),
        "comp_2_w": ("aa3466829c035c1647bed7b51449a0d2381f8506bbe9f017b629d24bfb6ad1fe", 221),
        "comp_w_w": ("3edfadc12dd48c613091c2c4d1d21d3b705e165d3621fa072d30e24b6a2cb033", 120),
    }

    @pytest.mark.parametrize("name", sorted(SWEEP_PINNED))
    def test_sweeps_at_benchmark_bounds_are_pinned(self, name):
        o, digest, kept = SWEEP_ORACLES[name], hashlib.sha256(), 0
        for x in X_KINDS:
            for y in Y_KINDS:
                v = decide_xy_bounded(o, x, y, **self.SWEEP_BOUNDS)
                digest.update(f"{v.report_line(x, y)}\n{v.details!r}\n".encode())
                kept += len(v.details)
        assert (digest.hexdigest(), kept) == self.SWEEP_PINNED[name]

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(SWEEP_ORACLES)),
        x=st.sampled_from(X_KINDS),
        y=st.sampled_from(Y_KINDS),
        k=st.integers(1, 3),
        window=st.integers(1, 6),
        horizon=st.integers(1, 40),
        depth=st.integers(0, 15),
    )
    def test_sweep_memo_changes_no_schedule(self, name, x, y, k, window, horizon, depth):
        # every start of the sweep, run again by the memo-free back_and_forth
        o = SWEEP_ORACLES[name]
        v = decide_xy_bounded(o, x, y, k=k, window=window, horizon=horizon, depth=depth)
        starts = sorted(
            enumerate_local_morphisms(oracle_truncate(o, window), x, k),
            key=lambda f: (len(f), f.domain, f.values),
        )
        certified, uncertified = [], 0
        for f in starts:
            try:
                trace = back_and_forth(o, f, y, depth=depth, horizon=horizon, x=x)
            except GraphError:  # a kind obstruction runs no schedule
                certified.append((f, "kind obstruction"))
                continue
            if trace.certificate:
                certified.append((f, trace))
            elif trace.outcome == "stuck":
                uncertified += 1
        assert (v.bounds["maps"], v.bounds["stuck_uncertified"]) == (len(starts), uncertified)
        assert [
            (f, tr.header if tr.header == "kind obstruction" else tr) for f, tr in v.details
        ] == certified

    def test_iso_to_embedding_failure_certified(self):
        # the modular family is not self-embedding homogeneous: an isomorphism
        # placing a low vertex on a high one strands the remaining low vertices
        v = decide_xy_bounded(rs_graph(3), I, EndoKind.I, k=2, horizon=40, window=5)
        assert v.fails and v.certificate and "confined" in v.certificate


@pytest.mark.parametrize("call, message", [
    # 0 -> 0 and 2 -> 0 is a homomorphism of P3, not a monomorphism
    (lambda: one_step_extension(P3, PartialMap(((0, 0), (2, 0))), 1, M),
     "below the requested kind"),
    (lambda: total_endo_kinds(P3, (0, 1)), "must assign every vertex"),
], ids=["one-step-below-kind", "total-too-short"])
def test_rejects_a_map_that_does_not_fit(call, message):
    with pytest.raises(GraphError, match=message):
        call()
