"""Claims about the poset of morphism-extension classes, checked at desk scale.

A claims file holds one claim per line, ``kind lhs rhs [params]``; blank
lines and ``#`` comments are skipped.  Kinds:

``equality Y1 Y2 finite n<=K``
    Over every isomorphism class on up to K vertices and every X, the
    (X, Y1) and (X, Y2) verdicts agree exactly.

``inclusion XY1 XY2 finite n<=K``
    Every graph in the corpus holding XY1 also holds XY2.

``monotone - - finite n<=K``
    Membership vectors are monotone along both axes on the corpus.

``bottom-echo HA complete finite n<=K`` / ``bottom-echo MA complete-or-empty ...``
    Corpus graphs holding the class are complete (resp. complete or empty).

``disconnected-ih IH equal-cliques finite n<=K``
    Disconnected corpus graphs holding IH split into same-size cliques.

``separation XY1 XY2 bounded <generator> <params...>``
    The named oracle fails XY2 with a confinement certificate while a
    bounded XY1 sweep finds no certified failure.  With scope ``finite`` the
    generator yields a finite graph and only the XY2 failure is re-derived,
    through a targeted witness validated by the morphism classifier and an
    exhaustive extension search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .atlas import corpus_upto
from .engine import (
    classify_finite,
    decide_xy_bounded,
    extend_finite,
    _component_confinement_note,
)
from .generators import composite, generate, h3_prime, rado_plus_dominating_oracle
from .graphs import FiniteGraph, GraphError, OracleGraph, connected_components, induced_subgraph
from .morphisms import EndoKind, MorphismKind, PartialMap, X_BY_NAME, classify_map


@dataclass(frozen=True)
class PosetClaim:
    kind: str  # equality | inclusion | monotone | bottom-echo | disconnected-ih | separation
    lhs: str
    rhs: str
    scope: str  # finite-exact | bounded-oracle
    params: tuple[str, ...] = ()

    @staticmethod
    def parse(line: str) -> "PosetClaim":
        tokens = line.split()
        if len(tokens) < 3:
            raise GraphError(f"claim line too short: {line!r}")
        kind, lhs, rhs = tokens[:3]
        rest = tokens[3:]
        if kind in ("equality", "inclusion", "monotone", "bottom-echo", "disconnected-ih"):
            if not rest or rest[0] != "finite":
                raise GraphError(f"claim {kind!r} needs scope 'finite': {line!r}")
            return PosetClaim(kind, lhs, rhs, "finite-exact", tuple(rest[1:]))
        if kind == "separation":
            if not rest or rest[0] not in ("finite", "bounded"):
                raise GraphError(f"separation needs scope finite|bounded: {line!r}")
            scope = "finite-exact" if rest[0] == "finite" else "bounded-oracle"
            return PosetClaim(kind, lhs, rhs, scope, tuple(rest[1:]))
        raise GraphError(f"unknown claim kind {kind!r}")


@dataclass
class ClaimResult:
    claim: PosetClaim
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.claim.kind} {self.claim.lhs} {self.claim.rhs}: {self.detail}"


def parse_claims(text: str) -> list[PosetClaim]:
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [PosetClaim.parse(line) for line in lines if line]


def _parsed(parse, text: str, what: str):
    """``parse(text)``, with malformed claim text raised as :class:`GraphError`."""
    try:
        return parse(text)
    except (IndexError, KeyError, ValueError):
        raise GraphError(f"bad {what} {text!r}") from None


def _ints(gen: str, args: tuple[str, ...], defaults: tuple[str | None, ...]) -> list[int]:
    """``args`` as integers, missing trailing ones taken from ``defaults`` (``None``: required)."""
    if len(args) > len(defaults) or None in defaults[len(args):]:
        raise GraphError(f"{gen} expects {len(defaults)} parameter(s), got {len(args)}")
    return [_parsed(int, a, f"{gen} parameter") for a in args + defaults[len(args):]]


def _corpus_bound(params: tuple[str, ...]) -> int:
    for p in params:
        if p.startswith("n<="):
            return _parsed(int, p[3:], "corpus bound")
    raise GraphError(f"missing n<=K bound in {params}")


def _xy(code: str) -> tuple[MorphismKind, EndoKind]:
    return _parsed(lambda c: (X_BY_NAME[c[0]], EndoKind(c[1:])), code, "class code")


def _check_equality(claim: PosetClaim) -> ClaimResult:
    y1, y2 = (_parsed(EndoKind, c, "Y code") for c in (claim.lhs, claim.rhs))
    n_max = _corpus_bound(claim.params)
    checked = 0
    for gid, g in corpus_upto(n_max):
        mv = classify_finite(g)
        for x in (MorphismKind.ISOMORPHISM, MorphismKind.MONOMORPHISM, MorphismKind.HOMOMORPHISM):
            a, b = mv.entries[(x, y1)], mv.entries[(x, y2)]
            checked += 1
            if (a.status, a.witness) != (b.status, b.witness):
                return ClaimResult(
                    claim, False, f"{gid}: X={x.name} differs ({a.status} vs {b.status})"
                )
    return ClaimResult(claim, True, f"{checked} verdict pairs agree on n<={n_max}")


def _check_inclusion(claim: PosetClaim) -> ClaimResult:
    lhs, rhs = _xy(claim.lhs), _xy(claim.rhs)
    n_max = _corpus_bound(claim.params)
    checked = 0
    for gid, g in corpus_upto(n_max):
        mv = classify_finite(g)
        if mv.entries[lhs].holds and not mv.entries[rhs].holds:
            return ClaimResult(claim, False, f"{gid} holds {claim.lhs} but not {claim.rhs}")
        checked += 1
    return ClaimResult(claim, True, f"{claim.lhs} within {claim.rhs} on {checked} graphs")


def _check_monotone(claim: PosetClaim) -> ClaimResult:
    n_max = _corpus_bound(claim.params)
    for gid, g in corpus_upto(n_max):
        violations = classify_finite(g).monotonicity_violations()
        if violations:
            return ClaimResult(claim, False, f"{gid}: {violations[0]}")
    return ClaimResult(claim, True, f"vectors monotone on n<={n_max}")


def _check_bottom_echo(claim: PosetClaim) -> ClaimResult:
    xy = _xy(claim.lhs)
    n_max = _corpus_bound(claim.params)
    want_empty_too = claim.rhs == "complete-or-empty"
    for gid, g in corpus_upto(n_max):
        if not classify_finite(g).entries[xy].holds:
            continue
        ok = g.is_complete() or (want_empty_too and g.is_empty_graph())
        if not ok:
            return ClaimResult(claim, False, f"{gid} holds {claim.lhs} but is not {claim.rhs}")
    return ClaimResult(claim, True, f"all {claim.lhs} graphs are {claim.rhs} on n<={n_max}")


def _is_equal_size_clique_union(g: FiniteGraph) -> bool:
    comps = connected_components(g)
    sizes = {len(c) for c in comps}
    if len(sizes) != 1:
        return False
    return all(induced_subgraph(g, c).is_complete() for c in comps)


def _check_disconnected_ih(claim: PosetClaim) -> ClaimResult:
    n_max = _corpus_bound(claim.params)
    hits = 0
    for gid, g in corpus_upto(n_max):
        if len(connected_components(g)) < 2:
            continue
        if not classify_finite(g).get("IH").holds:
            continue
        hits += 1
        if not _is_equal_size_clique_union(g):
            return ClaimResult(claim, False, f"{gid} is disconnected IH but not equal cliques")
    return ClaimResult(claim, True, f"{hits} disconnected IH graphs, all equal-clique unions")


def _h3prime_witness(size: int, seed: int) -> tuple[bool, str]:
    """Re-derive the two-point isomorphism that no injective endomorphism extends."""
    g, (u, v, w) = h3_prime(size, seed)
    uv_common = [c for c in range(g.n) if g.adj(u, c) and g.adj(v, c)]
    pick = None
    for c, d in itertools.combinations(range(g.n), 2):
        if g.adj(c, d) or {c, d} == {u, v}:
            continue
        common = (g.rows[c] & g.rows[d]).bit_count()
        if common >= 2:
            pick = (c, d, common)
            break
    if pick is None:
        return False, "no nonedge with two common neighbors"
    c, d, common = pick
    f = PartialMap.from_pairs([(c, u), (d, v)])
    if classify_map(g, f) is not MorphismKind.ISOMORPHISM:
        return False, "witness map is not an isomorphism"
    if extend_finite(g, f, EndoKind.M) is not None:
        return False, "witness map unexpectedly extends injectively"
    detail = (
        f"map {f.serialize()} is an isomorphism; {c},{d} have {common} common "
        f"neighbors, {u},{v} have {len(uv_common)}; no injective extension"
    )
    return True, detail


def _oracle_for(gen: str, args: tuple[str, ...]) -> OracleGraph:
    # radoplus takes no parameters here: its oracle keeps the dominating vertex at 0
    o = rado_plus_dominating_oracle() if gen == "radoplus" and not args else generate(gen, args)
    if not isinstance(o, OracleGraph):
        raise GraphError(f"no oracle presentation for {' '.join((gen, *args))!r}")
    return o


def _split_bounds(args: tuple[str, ...]) -> tuple[tuple[str, ...], dict]:
    plain, bounds = [], {}
    for a in args:
        if "=" in a:
            key, val = a.split("=", 1)
            if key not in ("k", "horizon", "depth", "window"):
                raise GraphError(f"unknown bound {key!r}")
            bounds[key] = _parsed(int, val, f"bound {key}")
        elif a != "-":
            plain.append(a)
    return tuple(plain), bounds


def _check_separation(claim: PosetClaim) -> ClaimResult:
    gen = claim.params[0] if claim.params else ""
    args, bounds = _split_bounds(claim.params[1:])
    xy1 = None if claim.lhs == "-" else _xy(claim.lhs)
    x2, y2 = _xy(claim.rhs)
    if claim.scope == "bounded-oracle":
        obj = _oracle_for(gen, args)
        v2 = decide_xy_bounded(obj, x2, y2, **bounds)
        if not (v2.fails and v2.certificate):
            return ClaimResult(claim, False, f"{claim.rhs} did not fail with certificate")
        # the failing prefix must itself be a valid morphism of its sweep kind
        if classify_map(obj, v2.witness) < x2:
            return ClaimResult(claim, False, "witness below the required kind")
        if xy1 is not None:
            v1 = decide_xy_bounded(obj, *xy1, **bounds)
            if v1.fails:
                return ClaimResult(claim, False, f"{claim.lhs} also failed definitively")
            detail = (
                f"{claim.rhs} fails ({v2.witness.serialize()}; {v2.certificate}); "
                f"{claim.lhs} sweep clean ({v1.bounds['maps']} maps, "
                f"{v1.bounds['stuck_uncertified']} uncertified stuck)"
            )
        else:
            detail = f"{claim.rhs} fails ({v2.witness.serialize()}; {v2.certificate})"
        return ClaimResult(claim, True, detail)
    # finite scope: re-derive the named failure witness on the generated graph
    if gen == "h3prime":
        ok, detail = _h3prime_witness(*_ints(gen, args, ("96", "0")))
        return ClaimResult(claim, ok, detail)
    if gen == "comp":
        m, n = _ints(gen, args, (None, None))
        g = composite(m, n)
        # monomorphism sending a cross-component nonedge onto an edge
        f = PartialMap.from_pairs([(0, 0), (n, 1)])
        if classify_map(g, f) < MorphismKind.MONOMORPHISM:
            return ClaimResult(claim, False, "cross-component map is not a monomorphism")
        if extend_finite(g, f, y2) is not None:
            return ClaimResult(claim, False, "cross-component map unexpectedly extends")
        note = _component_confinement_note(
            connected_components(g), f.domain, f.values) if y2.needs_surjective else None
        if not note:
            return ClaimResult(claim, False, "missing component-confinement diagnosis")
        return ClaimResult(claim, True, f"map {f.serialize()} has no {y2.value}-extension; {note}")
    return ClaimResult(claim, False, f"no finite separation recipe for generator {gen!r}")


def check_claim(claim: PosetClaim) -> ClaimResult:
    handler = {
        "equality": _check_equality,
        "inclusion": _check_inclusion,
        "monotone": _check_monotone,
        "bottom-echo": _check_bottom_echo,
        "disconnected-ih": _check_disconnected_ih,
        "separation": _check_separation,
    }[claim.kind]
    return handler(claim)


DEFAULT_CLAIMS = """\
# exact finite-scale facts over the small-graph corpus
equality A B finite n<=5
equality A E finite n<=5
equality A I finite n<=5
equality A M finite n<=5
monotone - - finite n<=5
bottom-echo HA complete finite n<=5
bottom-echo MA complete-or-empty finite n<=5
disconnected-ih IH equal-cliques finite n<=5
# bounded separations on named oracle families
separation MM MB bounded rs 3 k=3
separation IH IE bounded radoplus - k=2 window=6
# finite witness re-derivations on named generators
separation IH IM finite h3prime 96 7
separation MM ME finite comp 2 20
"""
