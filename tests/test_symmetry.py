"""The exact pass visits one candidate per Aut x Aut orbit of local maps; these
tests check that reduction against references that do not share it.

- The automorphisms the kernel finds equal a brute-force permutation filter.
- Gardiner's classification (J. Combin. Theory B 20, 1976): a finite graph is
  ultrahomogeneous (IA) exactly when it or its complement is a disjoint union
  of equal cliques, or it is C5 or L(K3,3); the last has nine vertices.
- Complement duality: G and its complement have the same local isomorphisms
  and automorphisms, so their I-row entries for Y in I, A, M, E, B agree.
- Every map before a FAIL's witness in (size, domain, values) order extends,
  and the witness does not, by references that share no engine code: the
  restrictions of the automorphisms for the bijective targets (I = M = E = B
  = A on a finite graph), and a plain backtracking over total maps for H.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from homext.atlas import corpus_upto
from homext.engine import _automorphisms, classify_finite
from homext.formats import from_graph6
from homext.generators import complete, independent
from homext.graphs import (
    FiniteGraph, _bits, canonical_form, complement, connected_components, relabel,
)
from homext.morphisms import EndoKind, MorphismKind, PartialMap, classify_map

from test_graphs import C5

I = MorphismKind.ISOMORPHISM  # noqa: E741
K321 = from_graph6("EFzw")  # K_{3,2,1}: |Aut| = 12, and IH holds
# the classes on at most seven vertices with a FAIL witness on three vertices
DEEP = [from_graph6(s) for s in ("DK{", "EK~w", "F@QFw", "FJaNw", "FK~~w")]


def brute_force_automorphisms(g):
    return [
        p for p in itertools.permutations(range(g.n))
        if all(sum(1 << p[w] for w in _bits(g.rows[u])) == g.rows[p[u]] for u in range(g.n))
    ]


class TestAutomorphisms:
    def test_equal_to_a_permutation_filter_up_to_six_vertices(self):
        rng = random.Random(21)
        graphs = [g for _, g in corpus_upto(6)]
        graphs += [relabel(g, rng.sample(range(g.n), g.n)) for g in graphs]
        assert len(graphs) == 416
        for g in graphs:
            assert _automorphisms(g) == brute_force_automorphisms(g), g

    def test_empty_and_complete_on_seven_vertices(self):
        every = list(itertools.permutations(range(7)))
        assert _automorphisms(independent(7)) == every
        assert _automorphisms(complete(7)) == every

    def test_k321(self):
        assert len(_automorphisms(K321)) == 12


def equal_cliques(g):
    comps = connected_components(g)
    return len({len(c) for c in comps}) == 1 and all(
        g.rows[v].bit_count() == len(c) - 1 for c in comps for v in c)


def test_gardiner_classification_through_seven_vertices():
    c5 = canonical_form(C5)[0]
    graphs = [g for _, g in corpus_upto(7)]
    assert len(graphs) == 1252
    for g in graphs:
        want = equal_cliques(g) or equal_cliques(complement(g)) or canonical_form(g)[0] == c5
        assert classify_finite(g).get("IA").holds == want, g


def test_complement_duality_of_the_iso_row_through_six_vertices():
    checked = 0
    for _, g in corpus_upto(6):
        mv, co = classify_finite(g), classify_finite(complement(g))
        for y in (EndoKind.I, EndoKind.A, EndoKind.M, EndoKind.E, EndoKind.B):
            v, w = mv.entries[(I, y)], co.entries[(I, y)]
            assert (v.status, v.witness) == (w.status, w.witness), (g, y)
            checked += 1
    assert checked == 1040


@st.composite
def labelled_graphs(draw):
    """A labelled 7-vertex graph with 8-13 of its 21 edges, as the benchmark
    draws them, or a relabelling of K_{3,2,1} or of a class in ``DEEP``."""
    source = draw(st.sampled_from(["drawn", K321, *DEEP]))
    if isinstance(source, FiniteGraph):
        return relabel(source, draw(st.permutations(range(source.n))))
    pairs = list(itertools.combinations(range(7), 2))
    chosen = draw(st.sets(st.sampled_from(pairs), min_size=8, max_size=13))
    return FiniteGraph.from_edges(7, sorted(chosen))


def extends_to_a_homomorphism(g, assign):
    """Whether the homomorphism ``assign`` (a dict, changed and restored) extends to a
    total one: plain backtracking at the least unassigned vertex over every value."""
    v = next((v for v in range(g.n) if v not in assign), None)
    if v is None:
        return True
    for d in range(g.n):
        if all(g.rows[d] >> assign[u] & 1 for u in _bits(g.rows[v]) if u in assign):
            assign[v] = d
            found = extends_to_a_homomorphism(g, assign)
            del assign[v]
            if found:
                return True
    return False


@settings(max_examples=25)
@given(labelled_graphs())
def test_every_map_before_a_witness_extends(g):
    auts = brute_force_automorphisms(g)

    def extends(f, y):
        if y is EndoKind.H:
            return extends_to_a_homomorphism(g, dict(f.pairs))
        return any(all(a[u] == d for u, d in f.pairs) for a in auts)

    fails = [(x, y, v.witness) for (x, y), v in classify_finite(g).entries.items() if v.fails]
    maps = []  # (size, domain, values) order up to the largest witness, with kinds
    for size in range(1, max((len(w) for _, _, w in fails), default=0) + 1):
        for dom in itertools.combinations(range(g.n), size):
            for vals in itertools.product(range(g.n), repeat=size):
                f = PartialMap(tuple(zip(dom, vals)))
                maps.append((f, classify_map(g, f)))
    answers = {}
    for x, y, witness in fails:
        assert not extends(witness, y), (g, x, y)
        for f, kind in itertools.takewhile(lambda m: m[0] != witness, maps):
            if kind >= x:
                if (f, y) not in answers:
                    answers[f, y] = extends(f, y)
                assert answers[f, y], (g, x, y, f)
