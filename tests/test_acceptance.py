"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The finite-exact criteria share one classification
pass over the corpus of all isomorphism classes on up to six vertices.
"""

import io
import itertools
import random
import time

from homext.age import check_alpha_sigma_bound, check_property, compute_age
from homext.atlas import atlas_records, write_atlas
from homext.claims import PosetClaim, check_claim
from homext.engine import (
    Status,
    _component_confinement_note,
    classify_finite,
    decide_xy_bounded,
    extend_finite,
)
from homext.formats import emit_text, from_graph6, parse_text, to_graph6
from homext.generators import (
    composite,
    h3_prime,
    is_clique_free,
    rado_bit,
    rado_plus_dominating_oracle,
    rs_graph,
)
from homext.graphs import (
    canonical_form,
    complement,
    connected_components,
    induced_subgraph,
    max_independent_set_size,
    oracle_truncate,
)
from homext.morphisms import (
    EndoKind,
    MorphismKind,
    PartialMap,
    X_KINDS,
    classify_map,
)

from conftest import random_graph

STRICT_Y = (EndoKind.A, EndoKind.B, EndoKind.E, EndoKind.I, EndoKind.M)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_01_finite_y_collapse(corpus6):
    start = time.monotonic()
    exceptions = 0
    for gid, g in corpus6:
        mv = classify_finite(g)
        for x in X_KINDS:
            verdicts = {
                (mv.entries[(x, y)].status, mv.entries[(x, y)].witness)
                for y in STRICT_Y
            }
            if len(verdicts) != 1:
                exceptions += 1
    elapsed = time.monotonic() - start
    ok = exceptions == 0 and elapsed < 300
    _line(1, ok, f"Y-collapse on {len(corpus6)} classes, {exceptions} exceptions, {elapsed:.1f}s")
    assert exceptions == 0
    assert elapsed < 300


def test_02_lattice_monotonicity(corpus6):
    violations = [
        (gid, v)
        for gid, g in corpus6
        for v in classify_finite(g).monotonicity_violations()
    ]
    _line(2, not violations, f"{len(violations)} monotonicity violations on the corpus")
    assert violations == []


def test_03_bottom_echo(corpus6):
    bad_ha = [
        gid for gid, g in corpus6 if classify_finite(g).get("HA").holds and not g.is_complete()
    ]
    bad_ma = [
        gid
        for gid, g in corpus6
        if classify_finite(g).get("MA").holds
        and not (g.is_complete() or g.is_empty_graph())
    ]
    ok = not bad_ha and not bad_ma
    _line(3, ok, f"HA implies complete ({len(bad_ha)} bad), MA implies complete-or-empty ({len(bad_ma)} bad)")
    assert bad_ha == [] and bad_ma == []


def test_04_disconnected_ih_is_equal_cliques(corpus6):
    bad = []
    hits = 0
    for gid, g in corpus6:
        comps = connected_components(g)
        if len(comps) < 2 or not classify_finite(g).get("IH").holds:
            continue
        hits += 1
        sizes = {len(c) for c in comps}
        cliquey = all(induced_subgraph(g, c).is_complete() for c in comps)
        if len(sizes) != 1 or not cliquey:
            bad.append(gid)
    _line(4, not bad, f"{hits} disconnected IH graphs, {len(bad)} not equal-clique unions")
    assert bad == []


def test_05_complement_dualities(corpus5):
    rng = random.Random(20250810)
    mismatches = 0
    for _ in range(200):
        g = random_graph(rng.randint(1, 12), rng, p=rng.choice([0.2, 0.5, 0.8]))
        for k in range(1, 5):
            lhs = check_property(g, "therefore", k).verdict.status
            rhs = check_property(complement(g), "delta", k).verdict.status
            if lhs != rhs:
                mismatches += 1
    flag_mismatches = 0
    for _, g in corpus5:
        mine = compute_age(g, 3)
        twin = {e.graph: e for e in compute_age(complement(g), 3)}
        for e in mine:
            other = twin[canonical_form(complement(e.graph))[0]]
            if (e.hh, e.ohh) != (other.kk, other.okk):
                flag_mismatches += 1
    ok = mismatches == 0 and flag_mismatches == 0
    _line(5, ok, f"therefore/delta mismatches: {mismatches}; hh-kk flag mismatches: {flag_mismatches}")
    assert mismatches == 0 and flag_mismatches == 0


def test_06_rs3_witness_reproduction():
    start = time.monotonic()
    rs3 = rs_graph(3)
    trunc = oracle_truncate(rs3, 60)
    triples = [
        s
        for s in itertools.combinations(range(60), 3)
        if not any(trunc.adj(a, b) for a, b in itertools.combinations(s, 2))
    ]
    part_a = triples == [(0, 1, 2)]

    verdict_b = decide_xy_bounded(
        rs3, MorphismKind.MONOMORPHISM, EndoKind.B, k=3, horizon=60, depth=16, window=8
    )
    triangle_starts = [
        (f, tr)
        for f, tr in verdict_b.details
        if f.domain == (0, 1, 2)
        and all(rs3.adj(a, b) for a, b in itertools.combinations(f.values, 2))
    ]
    part_b = (
        verdict_b.fails
        and verdict_b.certificate is not None
        and bool(triangle_starts)
        and all(tr.certificate for _, tr in triangle_starts)
        and classify_map(rs3, verdict_b.witness) >= MorphismKind.MONOMORPHISM
    )

    verdict_c = decide_xy_bounded(
        rs3, MorphismKind.MONOMORPHISM, EndoKind.M, k=3, horizon=60, depth=10, window=8
    )
    part_c = (
        verdict_c.status is Status.UNKNOWN
        and verdict_c.bounds["stuck_uncertified"] == 0
        and not verdict_c.witnesses
    )
    elapsed = time.monotonic() - start
    ok = part_a and part_b and part_c and elapsed < 120
    _line(
        6,
        ok,
        f"unique triple: {part_a}; certified M/B failure with triangle start: {part_b}; "
        f"clean M/M sweep: {part_c}; {elapsed:.1f}s",
    )
    assert part_a and part_b and part_c
    assert elapsed < 120


def test_07_disconnected_epimorphism_failure():
    g = composite(2, 20)
    f = PartialMap(((0, 0), (20, 1)))  # cross-component nonedge onto an edge
    assert classify_map(g, f) is MorphismKind.MONOMORPHISM
    total = extend_finite(g, f, EndoKind.E)
    note = _component_confinement_note(connected_components(g), f.domain, f.values)
    ok = total is None and note is not None and "confined" in note
    _line(7, ok, f"no surjective extension; report: {note}")
    assert total is None
    assert note and "component" in note


def test_08_alpha_sigma_bound():
    t3 = oracle_truncate(rs_graph(3), 60)
    a3 = max_independent_set_size(t3)
    reports = {n: check_alpha_sigma_bound(oracle_truncate(rs_graph(n), 60)) for n in (2, 3, 4)}
    ok = a3 == 3 and all(rep.holds for rep in reports.values())
    detail = "; ".join(f"rs({n}): {rep.line()}" for n, rep in reports.items())
    _line(8, ok, f"alpha(rs(3)@60)={a3}; {detail}")
    assert a3 == 3
    assert all(rep.holds for rep in reports.values())


def test_09_rado_extension_axioms():
    start = time.monotonic()
    o = rado_bit()
    failures = 0
    for assignment in itertools.product((0, 1, 2), repeat=8):
        a_side = [v for v in range(8) if assignment[v] == 1]
        b_side = [v for v in range(8) if assignment[v] == 2]
        members = set(a_side) | set(b_side)
        witness = None
        for v in range(512):
            if v in members:
                continue
            if all(o.adj(v, a) for a in a_side) and not any(o.adj(v, b) for b in b_side):
                witness = v
                break
        if witness is None:
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 30
    _line(9, ok, f"6561 demand pairs on the first 8 vertices, {failures} unwitnessed, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 30


def test_10_h3prime_witness():
    g, (u, v, w) = h3_prime(96, seed=7)
    common = [c for c in range(g.n) if g.adj(u, c) and g.adj(v, c)]
    rich = None
    for c, d in itertools.combinations(range(g.n), 2):
        if g.adj(c, d) or {c, d} == {u, v}:
            continue
        if (g.rows[c] & g.rows[d]).bit_count() >= 2:
            rich = (c, d)
            break
    claim = PosetClaim("separation", "IH", "IM", "finite-exact", ("h3prime", "96", "7"))
    result = check_claim(claim)
    ok = common == [w] and is_clique_free(g, 3) and rich is not None and result.passed
    _line(10, ok, f"common neighborhood {common}; rich nonedge {rich}; claim: {result.detail}")
    assert common == [w]
    assert is_clique_free(g, 3)
    assert rich is not None
    assert result.passed


def test_11_dominated_rado():
    o = rado_plus_dominating_oracle()
    dagger = check_property(o, "dagger", 2, horizon=64, window=6).verdict
    part_a = (
        dagger.fails
        and dagger.stuck_side == "preimage"
        and dagger.certificate is not None
        and dagger.witness is not None
        and 0 in dagger.witness.domain  # the dominating vertex is being remapped
    )
    delta = check_property(o, "delta", 4, horizon=257, window=9)
    part_b = delta.all_witnessed and delta.verdict.status is not Status.FAILS
    ok = part_a and part_b
    _line(
        11,
        ok,
        f"preimage failure certificate: {dagger.certificate}; "
        f"cones found for all {delta.cases} subsets within 257: {part_b}",
    )
    assert part_a and part_b


def test_12_determinism_and_round_trip(corpus6):
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_atlas(atlas_records(4), buf1)
    write_atlas(atlas_records(4), buf2)
    atlas_ok = buf1.getvalue() == buf2.getvalue()
    bad_round_trips = 0
    for _, g in corpus6:
        if parse_text(emit_text(g)) != g or from_graph6(to_graph6(g)) != g:
            bad_round_trips += 1
    ok = atlas_ok and bad_round_trips == 0
    _line(12, ok, f"atlas byte-identical: {atlas_ok}; round-trip failures: {bad_round_trips}")
    assert atlas_ok
    assert bad_round_trips == 0
