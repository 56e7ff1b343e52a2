"""Outputs pinned byte for byte, recorded at commit e201631.

Each pin covers a path no other test reaches: the atlas bytes through n = 6,
the built-in claims (bounded separations, the finite ``comp`` recipe and the
disconnected-IH check among them), both outcomes of an ``inclusion`` claim,
and the oracle branch of ``homext classify``.
"""

import hashlib

from homext.cli import main

ATLAS_6_SHA256 = "4c9404eed07bdc40714b3aa4cc4d9b04697fc09b090a839cab5277a0141beec2"

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
