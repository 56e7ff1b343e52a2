"""Outputs pinned byte for byte, recorded at commit e201631 (the property
pins at 574c277, the verdict tables at b907c12, the structure-less property
pin at 7cf6dcc, the atlas through n = 7 at 30c79f7, the generator rows and
the Rado witnesses at c0dbe57, the ``extend_finite`` totals at 1ba978d).

Each pin covers a path no other test reaches: the atlas bytes through n = 6
and through n = 7 (every class with its witnesses, stuck vertices and notes,
E7 and K7 among them), the full ``repr`` of the 18-verdict tables with their
sharing of verdict objects, the built-in claims (bounded separations, the finite ``comp`` recipe and the
disconnected-IH check among them), both outcomes of an ``inclusion`` claim,
the oracle branch of ``homext classify``, every field of the four
extension-property reports on finite graphs and oracles, with and without a
declared structure, the rows of the staged generators (``knfree``,
``h3prime``, ``radoplus``), the cone/co-cone witnesses of both Rado
structures on seeded vertex sets and the total maps ``extend_finite`` returns
on seeded two-vertex maps of the desk-scale graphs.
"""

import hashlib
import itertools
import random

from homext.age import PROPERTY_NAMES, check_property
from homext.atlas import corpus_upto
from homext.cli import main
from homext.engine import classify_finite, extend_finite
from homext.formats import to_graph6
from homext.generators import (
    OMEGA,
    composite,
    h3_prime,
    knfree_generic,
    rado_bit,
    rado_plus_dominating,
    rado_plus_dominating_oracle,
    rs_graph,
)
from homext.graphs import FiniteGraph, OracleGraph, canonical_form, relabel
from homext.morphisms import X_KINDS, Y_KINDS, EndoKind, MorphismKind, PartialMap, classify_map

from conftest import random_graph

ATLAS_6_SHA256 = "4c9404eed07bdc40714b3aa4cc4d9b04697fc09b090a839cab5277a0141beec2"
ATLAS_7_SHA256 = "ad774dff1d43e1226f058a755a979e81d2d1b0bc5288eb912cc05b2ae64320d0"

DEFAULT_CLAIM_LINES = """\
PASS equality A B: 156 verdict pairs agree on n<=5
PASS equality A E: 156 verdict pairs agree on n<=5
PASS equality A I: 156 verdict pairs agree on n<=5
PASS equality A M: 156 verdict pairs agree on n<=5
PASS monotone - -: vectors monotone on n<=5
PASS bottom-echo HA complete: all HA graphs are complete on n<=5
PASS bottom-echo MA complete-or-empty: all MA graphs are complete-or-empty on n<=5
PASS disconnected-ih IH equal-cliques: 5 disconnected IH graphs, all equal-clique unions
PASS separation MM MB: MB fails (0->1,1->4,3->0; preimage of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted); MM sweep clean (11086 maps, 0 uncertified stuck)
PASS separation IH IE: IE fails (0->1,1->0,2->2; preimage of 3 confined to co-cones over [0] = []; exhausted); IH sweep clean (286 maps, 257 uncertified stuck)
PASS separation IH IM: map 0->3,1->5 is an isomorphism; 0,1 have 6 common neighbors, 3,5 have 1; no injective extension
PASS separation MM ME: map 0->0,20->1 has no E-extension; image confined to component(s) [0] of 2; at most 1 component(s) coverable
12/12 claims passed
"""

RS3_BOUNDED_TABLE = """\
UNKNOWN X=I Y=H bounds={'max_domain': 2, 'horizon': 16, 'depth': 6, 'window': 4, 'maps': 56, 'stuck_uncertified': 23}
FAIL X=I Y=I map=0->3,1->0 stuck=2 certificate=image of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
FAIL X=I Y=A map=0->3,1->0 stuck=2 certificate=image of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
FAIL X=I Y=E map=0->1,1->4,3->0 stuck=2 certificate=preimage of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
FAIL X=I Y=B map=0->1,1->4,3->0 stuck=2 certificate=preimage of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
UNKNOWN X=I Y=M bounds={'max_domain': 2, 'horizon': 16, 'depth': 6, 'window': 4, 'maps': 56, 'stuck_uncertified': 23}
UNKNOWN X=M Y=H bounds={'max_domain': 2, 'horizon': 16, 'depth': 6, 'window': 4, 'maps': 72, 'stuck_uncertified': 0}
FAIL X=M Y=I map=0->3,1->0 stuck=2 certificate=image of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
FAIL X=M Y=A map=0->3,1->0 stuck=2 certificate=image of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
FAIL X=M Y=E map=0->1,1->4,3->0 stuck=2 certificate=preimage of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
FAIL X=M Y=B map=0->1,1->4,3->0 stuck=2 certificate=preimage of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
UNKNOWN X=M Y=M bounds={'max_domain': 2, 'horizon': 16, 'depth': 6, 'window': 4, 'maps': 72, 'stuck_uncertified': 0}
UNKNOWN X=H Y=H bounds={'max_domain': 2, 'horizon': 16, 'depth': 6, 'window': 4, 'maps': 88, 'stuck_uncertified': 0}
FAIL X=H Y=I map=0->3,1->0 stuck=2 certificate=image of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
FAIL X=H Y=A map=0->3,1->0 stuck=2 certificate=image of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
FAIL X=H Y=E map=0->1,1->4,3->0 stuck=2 certificate=preimage of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
FAIL X=H Y=B map=0->1,1->4,3->0 stuck=2 certificate=preimage of 2 confined to co-cones over [0, 3] = [0, 1, 2]; exhausted
FAIL X=H Y=M map=0->0,1->0 stuck=- certificate=map kind HOMOMORPHISM below MONOMORPHISM, the kind every restriction of a M-endomorphism has
"""


def test_atlas_through_six_vertices(tmp_path):
    out = tmp_path / "atlas.jsonl"
    assert main(["atlas", "--max-n", "6", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ATLAS_6_SHA256


def test_atlas_through_seven_vertices(tmp_path):
    out = tmp_path / "atlas.jsonl"
    assert main(["atlas", "--max-n", "7", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ATLAS_7_SHA256


def test_default_claims(capsys):
    assert main(["verify-poset"]) == 0
    assert capsys.readouterr().out == DEFAULT_CLAIM_LINES


def test_inclusion_pass_and_fail(tmp_path, capsys):
    claims = tmp_path / "claims.txt"
    claims.write_text("inclusion IH MH finite n<=5\ninclusion HH IA finite n<=5\n")
    assert main(["verify-poset", str(claims)]) == 1
    assert capsys.readouterr().out == (
        "FAIL inclusion IH MH: n3g002 holds IH but not MH\n"
        "PASS inclusion HH IA: HH within IA on 52 graphs\n"
        "1/2 claims passed\n"
    )


def test_classify_oracle_bounded(capsys):
    argv = "classify --gen rs 3 --bounded --max-domain 2 --horizon 16 --depth 6 --window 4"
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == RS3_BOUNDED_TABLE


PROPERTY_SHA256 = "1efe2839bd4e228cb55a7bd0ae8ae6153f4127e95a7f5eec205907c48d3592f8"


def property_lines():
    """One line per report: every field of the verdict, with the case counts."""
    sizes_and_seeds = ((5, 1), (6, 2), (7, 3), (8, 4))
    sources = [(random_graph(n, random.Random(seed)), {}) for n, seed in sizes_and_seeds]
    oracles = (rs_graph(3), rado_plus_dominating_oracle(), composite(OMEGA, 3))
    sources += [(o, {"horizon": h, "window": w}) for o in oracles for h, w in ((16, 4), (24, 5))]
    for src, bounds in sources:
        for which in PROPERTY_NAMES:
            for k in (1, 2, 3):
                yield property_line(check_property(src, which, k, **bounds), k)


def property_line(rep, k):
    v = rep.verdict
    return (f"{rep.which} k={k} {v.status.value} cases={rep.cases} "
            f"unwitnessed={rep.unwitnessed} witness={v.witness and v.witness.serialize()} "
            f"stuck={v.stuck} side={v.stuck_side} note={v.note} "
            f"certificate={v.certificate} bounds={v.bounds}")


def test_property_reports():
    text = "\n".join(property_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == PROPERTY_SHA256


BARE_PROPERTY_SHA256 = "f164e2cc2d24d8a592f7d3436af29b876f75d39df296586566172deafa44b61a"


def bare_property_lines():
    """The lines of :func:`property_lines` on copies of two oracles without
    their declared structure, so every case the truncation cannot answer
    counts as unwitnessed, for ``delta`` and ``therefore`` too."""
    for o in (rs_graph(3), composite(OMEGA, 3)):
        bare = OracleGraph(o.adjacency, o.name)
        for h, w in ((16, 4), (24, 5)):
            for which in PROPERTY_NAMES:
                for k in (1, 2, 3):
                    yield property_line(check_property(bare, which, k, horizon=h, window=w), k)


def test_property_reports_without_structure():
    text = "\n".join(bare_property_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == BARE_PROPERTY_SHA256


def test_check_dagger_on_rs3(capsys):
    argv = "check dagger --gen rs 3 --k 2 --horizon 32 --window 6"
    assert main(argv.split()) == 1
    assert capsys.readouterr().out == (
        "property dagger: fails cases=331 unwitnessed=0\n"
        "  witness: 0->0,3->0 stuck=1 [confined candidate list exhausted]\n"
    )


TABLES_SHA256 = "3eb91a976aa715ace80174ea8afde49863be474dd9854db541465afefeb7901a"


def table_lines():
    """One line per graph: its graph6, for each entry the index of its verdict
    object among the distinct ones, and the ``repr`` of the whole vector.

    Every class on up to six vertices, a seeded relabelling of each 6-vertex
    class, and two seeded relabellings of each of eight classes drawn from
    G(7, 1/2) at each edge count 8..13, as the benchmark draws them.
    """
    rng = random.Random(19)
    graphs = [g for _, g in corpus_upto(6)]
    graphs += [relabel(g, rng.sample(range(6), 6)) for g in graphs if g.n == 6]
    pairs = list(itertools.combinations(range(7), 2))
    for edges in range(8, 14):
        classes = {}
        while len(classes) < 8:
            chosen = [p for p in pairs if rng.random() < 0.5]
            if len(chosen) == edges:
                classes.setdefault(canonical_form(FiniteGraph.from_edges(7, chosen))[0], None)
        graphs += [relabel(c, rng.sample(range(7), 7)) for c in classes for _ in range(2)]
    for g in graphs:
        mv = classify_finite(g)
        index = {}
        sharing = [index.setdefault(id(v), len(index)) for v in mv.entries.values()]
        yield f"{to_graph6(g)} {sharing} {mv!r}"


def test_verdict_tables():
    text = "\n".join(table_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == TABLES_SHA256


GENERATORS_SHA256 = "968992c12dd474cfdd8c39193221de7d3d7a01efc521e0ffc3cdf469082f78e8"


def generator_lines():
    """One line per build: its parameters and rows (and ``(u, v, w)`` for ``h3prime``)."""
    for n, size, seed in [(3, 96, 7), (3, 64, 7), *((3, 20, s) for s in range(10)), (4, 30, 5)]:
        yield f"knfree {n} {size} {seed} {knfree_generic(n, size, seed).rows}"
    g, uvw = h3_prime(96, 7)
    yield f"h3prime 96 7 {uvw} {g.rows}"
    for n in range(2, 65):
        yield f"radoplus {n} {rado_plus_dominating(n).rows}"


def test_generator_rows():
    text = "\n".join(generator_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATORS_SHA256


WITNESSES_SHA256 = "55db1088f2edbf5b681b33917d875964154ea4064d6a864727060e453decdc94"


def witness_lines():
    """The four witnesses of ``rado`` and ``radoplus`` on 3,000 seeded sets of
    0-6 vertices below 40 (so ``radoplus``'s dominating vertex 0 is often in)."""
    rng = random.Random(22)
    structures = (rado_bit().structure, rado_plus_dominating_oracle().structure)
    for _ in range(3000):
        s = frozenset(rng.sample(range(40), rng.randint(0, 6)))
        yield f"{sorted(s)} " + " ".join(
            f"{st.cone_witness(s)} {st.cocone_witness(s)}" for st in structures)


def test_rado_witnesses():
    text = "\n".join(witness_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESSES_SHA256


EXTENSIONS_SHA256 = "88e6d599e1d412523df41af8b820673c28cbeb7aa284722b40cb6d912f70f32a"


def extension_lines():
    """One line per ``extend_finite`` query: the graph, the map and each Y's total
    (or ``None``).  Four seeded two-vertex maps of each exact kind on each graph,
    each asked for all six Y, except the monomorphisms of ``comp(4,10)``; then one
    of those, which sends a nonedge across components onto an edge, asked for M."""
    rng = random.Random(23)
    graphs = {"h3prime": h3_prime(96, 7)[0], "knfree": knfree_generic(3, 64, 7),
              "radoplus": rado_plus_dominating(48), "comp4_10": composite(4, 10),
              "comp6_6": composite(6, 6)}

    def draw(g, x):
        while True:
            dom, img = rng.sample(range(g.n), 2), rng.sample(range(g.n), 2)
            if x is MorphismKind.HOMOMORPHISM:
                img[1] = img[0]
            f = PartialMap.from_pairs(zip(dom, img))
            if classify_map(g, f) is x:
                return f

    for label, g in graphs.items():
        for _ in range(4):
            for x in X_KINDS:
                if (label, x) != ("comp4_10", MorphismKind.MONOMORPHISM):
                    f = draw(g, x)
                    for y in Y_KINDS:
                        yield f"{label} {f.serialize()} {y.value} {extend_finite(g, f, y)}"
    g = graphs["comp4_10"]
    f = draw(g, MorphismKind.MONOMORPHISM)
    yield f"comp4_10 {f.serialize()} M {extend_finite(g, f, EndoKind.M)}"


def test_extend_finite_totals():
    text = "\n".join(extension_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == EXTENSIONS_SHA256
