"""The four benchmark workloads: seeded inputs, op streams and output checks.

Each workload is a closed loop of single-threaded calls into one layer group
of homext.  Constructing a workload is its set-up (generator builds and the
seeded draws).  ``rounds()`` yields batches of ops whose composition is fixed
by the workload, so a run that stops at a round boundary has the same mix of
cheap and expensive ops whatever the seed; the seed changes which inputs fill
each slot.  The rounds never run out: once the drawn inputs are used up they
are cycled (as relabelled copies where the library memoizes by graph), so a
run fills its seconds however fast the code becomes.  Every op carries a
check that runs after its round, outside the timed region.  Outputs that do
not depend on the seed are compared with the pins in ``expected.json``; the
rest are re-validated independently.

Two size profiles exist: ``full`` (the benchmark) and ``tiny`` (the smoke
mode of the benchmark's own test).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from homext import (
    EndoKind,
    FiniteGraph,
    MorphismKind,
    PartialMap,
    Status,
    canonical_form,
    check_alpha_sigma_bound,
    check_criterion,
    check_property,
    classify_finite,
    classify_map,
    compute_age,
    decide_xy_bounded,
    enumerate_local_morphisms,
    extend_finite,
)
from homext import cli
from homext.age import EMBEDDING_CAP, age_report, sigma_by_embedding
from homext.claims import DEFAULT_CLAIMS, check_claim, parse_claims
from homext.engine import total_endo_kinds
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
from homext.graphs import GraphError, relabel
from homext.morphisms import X_KINDS, X_NAMES, Y_KINDS

from tracing import Recorder, counting_oracle

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
MONO, HOM = MorphismKind.MONOMORPHISM, MorphismKind.HOMOMORPHISM

SIZES = {
    "full": {
        "atlas-exact": {
            "atlas_max_n": 5, "small_n": 6, "small_edges": (4, 11), "small_per_round": 4,
            "small_classes": 100, "large_n": 7, "large_edges": (8, 13), "large_classes": 30,
        },
        "oracle-sweep": {
            "families": ("rs3", "rado", "radoplus", "comp_w_2", "comp_2_w", "comp_w_w"),
            "k": 2, "window": 4, "horizon": 32, "depth": 12,
        },
        "extend-desk": {
            "graphs": (("h3prime", 96), ("knfree", 64), ("radoplus", 48),
                       ("comp4_10", (4, 10)), ("comp6_6", (6, 6))),
            "tail": "comp4_10", "rounds": 6, "blocks": 64,
        },
        "age-scan": {
            "knfree": 20, "rand_n": 12, "small_n": 8, "radoplus": 16, "comp": (3, 4),
            "oracles": ("rs3", "rado", "radoplus", "comp_w_3", "comp_3_w", "comp_w_w"),
            "k": 3, "horizon": 16, "prop_k": 2, "prop_horizon": 32, "window": 6,
            "rounds": 40,
        },
    },
    "tiny": {
        "atlas-exact": {
            "atlas_max_n": 3, "small_n": 4, "small_edges": (1, 5), "small_per_round": 2,
            "small_classes": 6, "large_n": 5, "large_edges": (3, 7), "large_classes": 3,
        },
        "oracle-sweep": {
            "families": ("rs2", "rado", "comp_w_2"),
            "k": 2, "window": 4, "horizon": 8, "depth": 4,
        },
        "extend-desk": {
            "graphs": (("h3prime", 32), ("knfree", 24), ("radoplus", 12),
                       ("comp3_4", (3, 4)), ("comp2_3", (2, 3))),
            "tail": "comp3_4", "rounds": 3, "blocks": 2,
        },
        "age-scan": {
            "knfree": 10, "rand_n": 7, "small_n": 6, "radoplus": 8, "comp": (2, 3),
            "oracles": ("rs3", "comp_w_w"),
            "k": 2, "horizon": 8, "prop_k": 1, "prop_horizon": 8, "window": 4,
            "rounds": 3,
        },
    },
}

# Claims of the warm pass: the built-in finite corpus claims.
CORPUS_CLAIM_KINDS = ("equality", "monotone", "bottom-echo", "disconnected-ih")
# The two finite separation claims re-derived on generated graphs.
FINITE_SEPARATIONS = (
    "separation IH IM finite h3prime 96 7",
    "separation MM ME finite comp 2 20",
)
EXTEND_YS = (EndoKind.I, EndoKind.M, EndoKind.B, EndoKind.E)
# Y=E is left out of the tail: one E query on a cross-component
# monomorphism of comp(4,10) takes about 8 s, over a third of a run.
TAIL_YS = (EndoKind.M, EndoKind.B)
DRAW_ATTEMPTS = 100_000
RELABEL_ATTEMPTS = 1_000
# Desk graphs are built from one fixed generator seed (the seed of the
# h3prime separation claim); the benchmark seed draws the maps queried on them.
DESK_GRAPH_SEED = 7
# The atlas-exact classes are drawn from one fixed seed too, so every run
# classifies the same classes; the benchmark seed draws the labelling of each
# copy classified, and with it the order of the engine's search.  Fresh
# classes per seed made the cost of a run vary by a tenth between seeds:
# 7-vertex classes differ up to fivefold in cost, and a run classifies
# only about thirty.
ATLAS_CLASS_SEED = 7


@dataclass
class Op:
    """One timed call and the check of its output (run outside the timed region)."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@functools.cache
def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def oracle_family(label: str):
    """Oracle by benchmark label (``rs3``, ``comp_w_2``, ...)."""
    if label.startswith("rs"):
        return rs_graph(int(label[2:]))
    if label == "rado":
        return rado_bit()
    if label == "radoplus":
        return rado_plus_dominating_oracle()
    _, m, n = label.split("_")
    return composite(OMEGA if m == "w" else int(m), OMEGA if n == "w" else int(n))


class Workload:
    name = ""
    # counts reported by a traced run cover the first ``count_rounds`` rounds
    count_rounds = 1
    # when a dict, pins are recorded into it instead of compared (see pin.py)
    recording: dict | None = None

    def __init__(self, seed: int, rec: Recorder, profile: str, out_dir: Path):
        self.seed = seed
        self.rec = rec
        self.profile = profile
        self.size = SIZES[profile][self.name]
        self.out_dir = out_dir

    def rounds(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def finale(self) -> list[Op]:
        """Ops run once after the deadline."""
        return []

    def pin(self, section: str, key: str, value: str) -> str | None:
        """Compare a deterministic output's fingerprint with its pin."""
        if self.recording is not None:
            self.recording.setdefault(section, {})[key] = value
            return None
        want = expected()[section].get(key)
        if want is None:
            return f"no pin for {section}/{key}"
        if want != value:
            return f"{section}/{key}: got {value}, pinned {want}"
        return None

    def counted(self, oracle):
        """The oracle itself, or in a traced run a copy that counts its queries."""
        return counting_oracle(oracle, self.rec.counts) if self.rec.traced else oracle

    def claim_op(self, span: str, line: str) -> Op:
        (claim,) = parse_claims(line)

        def check(result) -> str | None:
            if not result.passed:
                return f"claim failed: {result.line()}"
            return self.pin("claims", line, result.line())

        return Op("claim", lambda: self.rec.call(span, check_claim, claim), check)


# ---------------------------------------------------------------------------
# atlas-exact


def vector_fingerprint(mv) -> str:
    statuses = "".join(v.status.value[0] for _, v in mv.items())
    return f"{statuses}:{digest(mv.table())}"


def vector_errors(g: FiniteGraph, mv) -> str | None:
    """Independent re-validation of a membership vector."""
    violations = mv.monotonicity_violations()
    if violations:
        return violations[0]
    for x in X_KINDS:
        for y in Y_KINDS:
            v = mv.entries[(x, y)]
            if v.status is Status.UNKNOWN:
                return f"finite verdict {X_NAMES[x]}{y.value} is unknown"
            if not v.fails:
                continue
            if classify_map(g, v.witness) < x:
                return f"{X_NAMES[x]}{y.value} witness below kind {x.name}"
            if extend_finite(g, v.witness, y) is not None:
                return f"{X_NAMES[x]}{y.value} witness {v.witness.serialize()} extends"
    return None


class AtlasExact(Workload):
    """Exact finite engine: atlas CLI, cold classification draw, warm re-query."""

    name = "atlas-exact"

    def __init__(self, *args):
        super().__init__(*args)
        s = self.size
        classes = random.Random(ATLAS_CLASS_SEED)
        lo, hi = s["small_edges"]
        self.small = self._draw(classes, s["small_n"], s["small_classes"],
                                lambda r: range(lo, hi + 1))
        # one large class per round, its edge count cycling through the strata
        lo, hi = s["large_edges"]
        self.large = self._draw(classes, s["large_n"], s["large_classes"],
                                lambda r: (lo + r % (hi - lo + 1),))
        self.rng = random.Random(self.seed)
        # the atlas round, then one round per 7-vertex edge count
        self.count_rounds = 1 + hi - lo + 1
        max_n = self.size["atlas_max_n"]
        self.atlas_args = [
            "atlas", "--max-n", str(max_n), "-o", str(self.out_dir / f"atlas-n{max_n}.jsonl"),
        ]
        claims_text = DEFAULT_CLAIMS.replace("n<=5", f"n<={max_n}")
        self.claim_lines = [
            line for line in claims_text.splitlines()
            if line.split(" ", 1)[0] in CORPUS_CLAIM_KINDS
        ]
        self.classified: list[FiniteGraph] = []
        self.labelled: set[FiniteGraph] = set()

    def _draw(self, rng: random.Random, n: int, count: int, edges) -> list[FiniteGraph]:
        """Up to ``count`` distinct isomorphism classes drawn from G(n, 1/2).

        The ``i``-th class is conditioned on an edge count in ``edges(i)``;
        the sparsest and densest classes cost up to 40 times the typical one.
        """
        pairs = list(itertools.combinations(range(n), 2))
        seen: dict[FiniteGraph, None] = {}
        for _ in range(DRAW_ATTEMPTS):
            chosen = [p for p in pairs if rng.random() < 0.5]
            if len(chosen) not in edges(len(seen)):
                continue
            canon, _ = self.rec.call(
                "graphs.canonical_form", canonical_form, FiniteGraph.from_edges(n, chosen))
            seen.setdefault(canon, None)
            if len(seen) == count:
                break
        return list(seen)

    def rounds(self) -> Iterator[list[Op]]:
        yield [Op("atlas-cli", lambda: self.rec.call("atlas.cli", cli.main, self.atlas_args),
                  self._check_atlas)]
        per = self.size["small_per_round"]
        # the class lists cycle; every copy is a fresh labelling, so done cold
        for r in itertools.count():
            batch = [self.small[(per * r + i) % len(self.small)] for i in range(per)]
            batch.append(self.large[r % len(self.large)])
            graphs = [self._relabelled(canon) for canon in batch]
            if None in graphs:  # only tiny classes run out of labellings
                return
            yield [self._classify_op(canon, g) for canon, g in zip(batch, graphs)]

    def _relabelled(self, canon: FiniteGraph) -> FiniteGraph | None:
        """A seeded relabelling of ``canon`` not classified before in this run.

        ``classify_finite`` memoizes by labelled graph, so a repeated class
        gets a new labelling: the same work, done cold.  ``None`` when no
        fresh labelling turned up.
        """
        for _ in range(RELABEL_ATTEMPTS):
            g = relabel(canon, self.rng.sample(range(canon.n), canon.n))
            if g not in self.labelled:
                self.labelled.add(g)
                return g
        return None

    def _check_atlas(self, code) -> str | None:
        if code != 0:
            return f"atlas exited {code}"
        data = Path(self.atlas_args[-1]).read_bytes()
        self.rec.counts["atlas.records"] += data.count(b"\n") - 1
        return self.pin("atlas", self.atlas_args[2], hashlib.sha256(data).hexdigest())

    def _classify_op(self, canon: FiniteGraph, g: FiniteGraph) -> Op:
        def run():
            self.classified.append(g)
            return self.rec.call("engine.classify_finite", classify_finite, g)

        def check(mv) -> str | None:
            if self.rec.traced:
                self.rec.counts["engine.classify_finite.local_maps"] += sum(
                    1 for _ in enumerate_local_morphisms(g, HOM, g.n)
                )
            return vector_errors(g, mv) or self.pin_vector(canon, g, mv)

        return Op("classify", run, check)

    def finale(self) -> list[Op]:
        ops = [self.claim_op("claims.corpus", line) for line in self.claim_lines]

        def requery():
            return [
                self.rec.call("engine.classify_finite.warm", classify_finite, g)
                for g in self.classified
            ]

        def check(vectors) -> str | None:
            for g, mv in zip(self.classified, vectors):
                err = self.pin_vector(canonical_form(g)[0], g, mv)
                if err:
                    return err
            return None

        ops.append(Op("warm-requery", requery, check))
        return ops

    def pin_vector(self, canon: FiniteGraph, g: FiniteGraph, mv) -> str | None:
        """Compare with the class's pin: the whole table, or only the verdicts when relabelled.

        The witnesses of a relabelled copy differ from the pinned ones; its
        witnesses are re-validated by :func:`vector_errors` instead.
        """
        if g == canon:
            return self.pin("classify", to_graph6(canon), vector_fingerprint(mv))
        got = vector_fingerprint(mv).split(":")[0]
        want = expected()["classify"].get(to_graph6(canon), "").split(":")[0]
        if got != want:
            return f"classify/{to_graph6(canon)} relabelled: got {got}, pinned {want}"
        return None


# ---------------------------------------------------------------------------
# oracle-sweep


def sweep_key(label: str, x: MorphismKind, y: EndoKind, size: dict) -> str:
    bounds = ",".join(f"{b}={size[b]}" for b in ("k", "window", "horizon", "depth"))
    return f"{label}|{X_NAMES[x]}{y.value}|{bounds}"


def separation_line(size: dict) -> str:
    """The paper's rs(3) MB separation at the sweep bounds."""
    bounds = " ".join(f"{b}={size[b]}" for b in ("k", "window", "horizon", "depth"))
    return f"separation MM MB bounded rs 3 {bounds}"


class OracleSweep(Workload):
    """Bounded engine: back-and-forth sweeps of all 18 pairs on oracle families.

    A round is one full cycle: the rs(3) separation claim and every
    (family, X, Y) sweep, in a seeded order.  Sweep costs differ tenfold
    between pairs, so only whole cycles keep the mix the same across seeds.
    """

    name = "oracle-sweep"

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = random.Random(self.seed)
        self.sweeps = []
        for label in self.size["families"]:
            raw = oracle_family(label)
            swept = self.counted(raw)
            self.sweeps.extend((label, raw, swept, x, y) for x in X_KINDS for y in Y_KINDS)
        self.bounds = {b: self.size[b] for b in ("k", "window", "horizon", "depth")}

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            order = self.rng.sample(self.sweeps, len(self.sweeps))
            yield [self.claim_op("claims.separation", separation_line(self.size))] + [
                self._sweep_op(*sweep) for sweep in order
            ]

    def _sweep_op(self, label, raw, swept, x, y) -> Op:
        def run():
            return self.rec.call(
                "engine.decide_xy_bounded", decide_xy_bounded, swept, x, y, **self.bounds
            )

        def check(v) -> str | None:
            counts = self.rec.counts
            counts["engine.bounded.maps"] += v.bounds["maps"]
            counts["engine.bounded.stuck_uncertified"] += v.bounds["stuck_uncertified"]
            counts["engine.bounded.certified"] += len(v.witnesses)
            if v.status is Status.HOLDS:
                return "bounded sweep reported holds on an oracle"
            if v.fails:
                if not v.certificate:
                    return "bounded failure without a certificate"
                if classify_map(raw, v.witness) < x:
                    return f"witness {v.witness.serialize()} below kind {x.name}"
            return self.pin("sweeps", sweep_key(label, x, y, self.size),
                            digest(v.report_line(x, y)))

        return Op("sweep", run, check)


# ---------------------------------------------------------------------------
# extend-desk


def known_extension(label: str, x: MorphismKind, y: EndoKind) -> bool | None:
    """Whether a start of exact kind ``x`` extends to kind ``y``, when known a priori.

    An injective or surjective self-map of a finite graph is a bijection, so
    a non-injective start never extends to I, M, B or E, and an isomorphism
    needs an isomorphism start.  A disjoint union of equal cliques is
    homogeneous: every local isomorphism extends to an automorphism, while
    an injective endomorphism permutes the cliques and so cannot send a
    cross-component nonedge onto an edge.  Otherwise only the search knows.
    """
    if x is HOM or (x is MONO and y is EndoKind.I):
        return False
    if label.startswith("comp"):
        return x is not MONO
    return None


def build_desk_graph(rec: Recorder, label: str, param, seed: int) -> FiniteGraph:
    if label == "h3prime":
        return rec.call("generators.build", h3_prime, param, seed)[0]
    if label == "knfree":
        return rec.call("generators.build", knfree_generic, 3, param, seed)
    if label == "radoplus":
        return rec.call("generators.build", rado_plus_dominating, param)
    return rec.call("generators.build", composite, *param)


class ExtendDesk(Workload):
    """Forward-checking extension search on desk-scale graphs."""

    name = "extend-desk"

    def __init__(self, *args):
        super().__init__(*args)
        rng = random.Random(self.seed)
        self.graphs = {
            label: build_desk_graph(self.rec, label, param, DESK_GRAPH_SEED)
            for label, param in self.size["graphs"]
        }
        tail = self.graphs[self.size["tail"]]
        # per round: ``blocks`` maps of each exact kind on each graph except
        # the tail graph's monomorphisms, plus one monomorphism of the tail
        # graph; it sends a nonedge, which crosses components, onto an edge.
        # Maps have two vertices: one-vertex isomorphisms on the sparse graphs
        # and three-vertex monomorphisms of comp(6,6) have per-map costs
        # spread over two orders of magnitude, which no run could average.
        self.draws = [
            ([{(label, x): self._draw_map(rng, g, x)
               for label, g in self.graphs.items() for x in X_KINDS
               if (label, x) != (self.size["tail"], MONO)}
              for _ in range(self.size["blocks"])],
             self._draw_map(rng, tail, MONO))
            for _ in range(self.size["rounds"])
        ]

    def _draw_map(self, rng: random.Random, g: FiniteGraph, x: MorphismKind) -> PartialMap:
        """A seeded two-vertex local map of exact kind ``x``, filtered by classify_map."""
        for _ in range(DRAW_ATTEMPTS):
            dom = rng.sample(range(g.n), 2)
            img = rng.sample(range(g.n), 2)
            if x is HOM:
                img[1] = img[0]
            f = PartialMap.from_pairs(zip(dom, img))
            if self.rec.call("morphisms.classify_map", classify_map, g, f) is x:
                return f
        raise GraphError(f"no map of kind {x.name} drawn on a graph with n={g.n}")

    def rounds(self) -> Iterator[list[Op]]:
        # extend_finite keeps nothing between calls, so the drawn rounds cycle
        for r, (blocks, tail) in enumerate(itertools.cycle(self.draws)):
            batch = [
                self._query_op("query", label, f, x, y)
                for block in blocks for (label, x), f in block.items() for y in EXTEND_YS
            ]
            y = TAIL_YS[r % len(TAIL_YS)]
            batch.append(self._query_op("tail", self.size["tail"], tail, MONO, y))
            batch.extend(self.claim_op("claims.separation", line) for line in FINITE_SEPARATIONS)
            yield batch

    def _query_op(self, kind: str, label: str, f: PartialMap, x: MorphismKind,
                  y: EndoKind) -> Op:
        g = self.graphs[label]
        known = known_extension(label, x, y)

        def run():
            return self.rec.call("engine.extend_finite", extend_finite, g, f, y)

        def check(total) -> str | None:
            if known is not None and (total is not None) != known:
                return f"{x.name} start {f.serialize()} on {label}: Y={y.value} answer is wrong"
            if total is None:
                return None
            if y not in total_endo_kinds(g, total):
                return f"returned map is not a {y.value}-endomorphism"
            if any(total[s] != t for s, t in f.pairs):
                return f"returned map does not extend {f.serialize()}"
            return None

        return Op(kind, run, check)


# ---------------------------------------------------------------------------
# age-scan


AGE_CALLS = {
    "compute_age": (compute_age, "age.compute_age"),
    "criterion": (check_criterion, "age.check_criterion"),
    "property": (check_property, "age.check_property"),
    "alpha_sigma": (check_alpha_sigma_bound, "age.alpha_sigma"),
}


def age_fingerprint(kind: str, out) -> str:
    if kind == "compute_age":
        return digest(age_report(out))
    if kind == "criterion":
        return digest(f"{out.verdict.status.value}\n{out.report()}")
    if kind == "property":
        v = out.verdict
        witness = v.witness.serialize() if v.witness is not None else "-"
        return digest(f"{v.status.value} {out.cases} {out.unwitnessed} {witness} {v.stuck}")
    return digest(out.line())


def age_errors(kind: str, g, finite: bool, k: int, out) -> str | None:
    """Independent consistency checks on one age-layer result."""
    if kind == "compute_age":
        total = 0
        for e in out:
            total += e.copies
            if e.size > k or canonical_form(e.graph)[0] != e.graph:
                return f"age entry {e.graph6} is not a canonical type of size <= {k}"
            flags = (e.kk.value, e.okk.value, e.hh.value, e.ohh.value)
            if finite and e.copies <= EMBEDDING_CAP and "U" in flags:
                return f"finite age entry {e.graph6} has an unknown flag"
        if finite and total != sum(math.comb(g.n, s) for s in range(1, min(k, g.n) + 1)):
            return "age copies do not add up to the number of vertex subsets"
        return None
    if kind in ("criterion", "property"):
        v = out.verdict
        if not finite and v.status is Status.HOLDS:
            return f"{kind} holds on an oracle"
        if finite and v.status is Status.UNKNOWN:
            return f"finite {kind} is unknown"
        return None
    if out.sigma != sigma_by_embedding(g):
        return "sigma disagrees with the induced-star search"
    if out.holds != (out.alpha < out.bound):
        return "alpha/sigma verdict disagrees with its numbers"
    return None


class AgeScan(Workload):
    """Age layer: age tables, closure criteria, extension properties, alpha/sigma."""

    name = "age-scan"
    # the oracle and property rotations repeat every 6 rounds
    count_rounds = 6

    def __init__(self, *args):
        super().__init__(*args)
        s = self.size
        rng = random.Random(self.seed)
        m, n = s["comp"]
        self.fixed = [
            (f"radoplus({s['radoplus']})",
             self.rec.call("generators.build", rado_plus_dominating, s["radoplus"])),
            (f"comp({m},{n})", self.rec.call("generators.build", composite, m, n)),
        ]
        self.oracles = [(label, self.counted(oracle_family(label))) for label in s["oracles"]]
        self.inputs = []
        for _ in range(s["rounds"]):
            seeded = [
                self.rec.call(
                    "generators.build", knfree_generic, 3, s["knfree"], rng.randrange(1 << 20)),
                self._random_graph(rng, s["rand_n"]),
            ]
            self.inputs.append((seeded, self._random_graph(rng, s["small_n"])))

    @staticmethod
    def _random_graph(rng: random.Random, n: int) -> FiniteGraph:
        """A seeded G(n, 1/2) graph."""
        return FiniteGraph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        )

    def rounds(self) -> Iterator[list[Op]]:
        s = self.size
        k = s["k"]
        props = ("delta", "therefore", "star", "dagger")
        per_round = max(1, len(self.oracles) // 3)
        # the age layer keeps nothing between calls, so the drawn inputs cycle
        for r, (seeded, small) in enumerate(itertools.cycle(self.inputs)):
            batch = []
            # the fixed finite inputs are re-scanned every round and pinned
            for pin, g in [(None, g) for g in seeded] + self.fixed:
                batch.append(self._op(pin, "compute_age", g, k))
                batch.extend(self._op(pin and f"{pin}|{which}", "criterion", g, which, k)
                             for which in ("HH", "HE", "ME"))
                batch.extend(self._op(pin and f"{pin}|{which}", "property", g, which, k)
                             for which in ("delta", "therefore"))
                batch.append(self._op(pin, "alpha_sigma", g))
            batch.append(self._op(None, "compute_age", small, k))
            batch.append(self._op(None, "criterion", small, "HE", k))
            batch.extend(self._op(None, "property", small, which, s["prop_k"])
                         for which in ("star", "dagger"))
            batch.append(self._op(None, "alpha_sigma", small))
            for i in range(r * per_round, (r + 1) * per_round):
                label, o = self.oracles[i % len(self.oracles)]
                h = s["horizon"]
                batch.append(self._op(f"{label}|h={h}", "compute_age", o, k, horizon=h))
                batch.extend(self._op(f"{label}|{which}|h={h}", "criterion", o, which, k, horizon=h)
                             for which in ("HH", "HE", "ME"))
                which = props[i % len(props)]
                batch.append(self._op(f"{label}|{which}|h={s['prop_horizon']}", "property",
                                      o, which, s["prop_k"],
                                      horizon=s["prop_horizon"], window=s["window"]))
            yield batch

    def _op(self, pin: str | None, kind: str, g, *args, **kwargs) -> Op:
        fn, span = AGE_CALLS[kind]
        finite = isinstance(g, FiniteGraph)
        k = args[-1] if kind in ("compute_age", "criterion") else None

        def check(out) -> str | None:
            counts = self.rec.counts
            if kind == "compute_age":
                counts["age.compute_age.entries"] += len(out)
            elif kind == "property":
                counts["age.check_property.cases"] += out.cases
                counts["age.check_property.unwitnessed"] += out.unwitnessed
            err = age_errors(kind, g, finite, k, out)
            if err or pin is None:
                return err
            return self.pin("age", f"{pin}|{kind}|{self.profile}", age_fingerprint(kind, out))

        return Op(kind, lambda: self.rec.call(span, fn, g, *args, **kwargs), check)


WORKLOADS = {w.name: w for w in (AtlasExact, OracleSweep, ExtendDesk, AgeScan)}
