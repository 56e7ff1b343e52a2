import io
import json
import os
import sys

import pytest

from homext.atlas import (
    AtlasRecord,
    atlas_records,
    corpus_upto,
    existing_ids,
    graphs_of_size,
    read_atlas,
    record_for,
    write_atlas,
)
from homext.cli import main
from homext.formats import from_graph6, parse_text, to_graph6
from homext.generators import complete, independent
from homext.graphs import GraphError, canonical_form

from test_formats import OVER_CAP_GRAPH6
from test_graphs import labelled_graphs


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
    def test_class_counts(self, n, count):
        assert len(graphs_of_size(n)) == count

    def test_corpus_ids_stable(self):
        corpus = corpus_upto(3)
        assert [gid for gid, _ in corpus] == [
            "n1g000", "n2g000", "n2g001",
            "n3g000", "n3g001", "n3g002", "n3g003",
        ]

    def test_cap(self):
        with pytest.raises(GraphError):
            graphs_of_size(8)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_augmentation_equals_the_exhaustive_filter(self, n):
        # the reference canonicalises every labelled graph on n vertices
        classes = dict.fromkeys(canonical_form(g)[0] for g in labelled_graphs(n))
        assert graphs_of_size(n) == sorted(classes, key=to_graph6)

    def test_repeated_calls_give_equal_independent_lists(self):
        first = graphs_of_size(4)
        first.append(complete(2))
        second = graphs_of_size(4)
        assert second == first[:-1] and len(second) == 11
        second.clear()
        assert graphs_of_size(4) == first[:-1]


class TestAtlasRecords:
    def test_single_vertex_all_holds(self):
        records = list(atlas_records(1))
        assert len(records) == 1
        assert all(cell["status"] == "holds" for cell in records[0].vector.values())

    def test_record_round_trip(self):
        rec = record_for("x", complete(3))
        assert AtlasRecord.from_json(rec.to_json()) == rec

    def test_write_read_and_resume(self):
        buf = io.StringIO()
        write_atlas(atlas_records(2), buf)
        text = buf.getvalue()
        records = read_atlas(text.splitlines())
        assert [r.graph_id for r in records] == ["n1g000", "n2g000", "n2g001"]
        assert existing_ids(text.splitlines()) == {"n1g000", "n2g000", "n2g001"}

    def test_determinism(self):
        a, b = io.StringIO(), io.StringIO()
        write_atlas(atlas_records(3), a)
        write_atlas(atlas_records(3), b)
        assert a.getvalue() == b.getvalue()

    def test_vector_payload_is_json(self):
        rec = record_for("x", independent(3))
        payload = json.loads(rec.to_json())
        assert payload["vector"]["HA"]["status"] == "fails"
        assert "witness" in payload["vector"]["HA"]


class TestCli:
    def test_generate_text(self, capsys):
        assert main(["generate", "comp", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert parse_text(out).m == 2

    def test_generate_graph6_file(self, tmp_path):
        target = tmp_path / "g.g6"
        assert main(["generate", "k", "4", "--format", "graph6", "-o", str(target)]) == 0
        assert from_graph6(target.read_text().strip()) == complete(4)

    def test_generate_oracle_needs_truncation(self, capsys):
        assert main(["generate", "rs", "3"]) == 2
        assert "truncate" in capsys.readouterr().err

    def test_truncate_cuts_a_finite_family(self, capsys):
        assert main(["generate", "k", "5", "--truncate", "3"]) == 0
        assert parse_text(capsys.readouterr().out) == complete(3)
        assert main(["generate", "comp", "2", "3", "--truncate", "-1"]) == 2
        assert "negative truncation size -1" in capsys.readouterr().err

    def test_classify_file(self, tmp_path, capsys):
        target = tmp_path / "g.txt"
        main(["generate", "k", "5", "-o", str(target)])
        assert main(["classify", str(target)]) == 0
        out = capsys.readouterr().out
        assert out.count("HOLDS") == 18

    def test_classify_gen_witness(self, capsys):
        assert main(["classify", "--gen", "i", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL X=H Y=A" in out and "map=" in out

    def test_classify_path_witness(self, tmp_path, capsys):
        p4 = tmp_path / "p4.txt"
        p4.write_text("4 3\n0 1\n1 2\n2 3\n\n")
        assert main(["classify", str(p4)]) == 0
        out = capsys.readouterr().out
        assert "FAIL X=M Y=H map=" in out

    def test_atlas_determinism_and_resume(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        assert main(["atlas", "--max-n", "3", "-o", str(out1)]) == 0
        assert main(["atlas", "--max-n", "3", "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # resuming a complete file appends nothing
        before = out1.read_bytes()
        assert main(["atlas", "--max-n", "3", "-o", str(out1), "--resume"]) == 0
        assert out1.read_bytes() == before

    def test_atlas_resume_skips_before_classifying(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "a.jsonl"
        assert main(["atlas", "--max-n", "4", "-o", str(out)]) == 0
        before = out.read_bytes()

        def refuse(g, **kwargs):
            raise AssertionError("resume classified a graph it then skipped")

        monkeypatch.setattr("homext.atlas.classify_finite", refuse)
        assert main(["atlas", "--max-n", "4", "-o", str(out), "--resume"]) == 0
        assert out.read_bytes() == before

    def test_atlas_resume_completes_a_partial_file(self, tmp_path, capsys):
        full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        assert main(["atlas", "--max-n", "4", "-o", str(full)]) == 0
        lines = full.read_text().splitlines(keepends=True)
        part.write_text("".join(lines[:6]))  # header and the first five records
        assert main(["atlas", "--max-n", "4", "-o", str(part), "--resume"]) == 0
        assert part.read_bytes() == full.read_bytes()
        assert "wrote 13 records" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["in the header", "mid-record", "before a newline",
                                       "after a newline"])
    def test_atlas_resume_after_an_interrupted_run(self, where, tmp_path, capsys):
        full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        assert main(["atlas", "--max-n", "4", "-o", str(full)]) == 0
        data = full.read_bytes()
        end = data.index(b"\n", 2000) + 1  # the end of the record around byte 2000
        cut = {"in the header": 5, "mid-record": 2000, "before a newline": end - 1,
               "after a newline": end}[where]
        part.write_bytes(data[:cut])
        kept = max(data[:cut].count(b"\n") - 1, 0)  # records complete before the cut
        capsys.readouterr()
        assert main(["atlas", "--max-n", "4", "-o", str(part), "--resume"]) == 0
        assert part.read_bytes() == data
        assert f"wrote {18 - kept} records" in capsys.readouterr().err

    def test_atlas_resume_cuts_a_torn_tail_after_the_last_record(self, tmp_path, capsys):
        out = tmp_path / "a.jsonl"
        assert main(["atlas", "--max-n", "3", "-o", str(out)]) == 0
        full = out.read_bytes()
        out.write_bytes(full + b'{"id": "n3g0')
        assert main(["atlas", "--max-n", "3", "-o", str(out), "--resume"]) == 0
        assert out.read_bytes() == full
        assert "wrote 0 records" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--resume"]])
    def test_atlas_into_a_device(self, extra, capsys):
        assert main(["atlas", "--max-n", "3", "-o", os.devnull, *extra]) == 0
        assert "wrote 7 records" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", [8, 0, -3])
    def test_atlas_rejects_a_size_out_of_range_before_writing(self, max_n, tmp_path, capsys):
        out = tmp_path / "a.jsonl"
        assert main(["atlas", "--max-n", "2", "-o", str(out)]) == 0
        before = out.read_bytes()
        capsys.readouterr()
        for extra in ([], ["--resume"]):
            assert main(["atlas", "--max-n", str(max_n), "-o", str(out), *extra]) == 2
            assert "atlas size must be in 1..7" in capsys.readouterr().err
            assert out.read_bytes() == before
        assert main(["atlas", "--max-n", str(max_n)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("at, bad, message", [
        (2, "not json", "atlas line 3 is not a record"),
        (2, '{"id": "n2g000"}', "atlas line 3 is not a record"),
        (2, "[1, 2]", "atlas line 3 is not a record"),
        (0, '{"schema": "other"}', "unknown atlas schema"),
    ])
    def test_atlas_resume_refuses_a_line_that_does_not_parse(
        self, at, bad, message, tmp_path, capsys
    ):
        out = tmp_path / "a.jsonl"
        assert main(["atlas", "--max-n", "3", "-o", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        lines[at] = bad + "\n"
        out.write_text("".join(lines))
        capsys.readouterr()
        assert main(["atlas", "--max-n", "3", "-o", str(out), "--resume"]) == 2
        assert message in capsys.readouterr().err
        assert out.read_text() == "".join(lines)

    def test_age_command(self, capsys):
        assert main(["age", "--gen", "k", "4", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "kk=Y" in out

    def test_age_command_rejects_bound_below_one(self, capsys):
        assert main(["age", "--gen", "comp", "2", "3", "--k", "0"]) == 2
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [["w", "0"], ["0", "w"]])
    def test_age_command_rejects_zero_beside_omega(self, params, capsys):
        assert main(["age", "--gen", "comp", *params, "--k", "2", "--horizon", "4"]) == 2
        assert "0 beside" in capsys.readouterr().err

    def test_age_command_rejects_horizon_below_one(self, capsys):
        assert main(["age", "--gen", "rs", "3", "--k", "2", "--horizon", "0"]) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_check_rejects_window_below_one(self, capsys):
        assert main(["check", "delta", "--gen", "rs", "3", "--k", "2", "--window", "-1"]) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_age_and_check_reject_bounds_they_do_not_read(self, capsys):
        for argv in (["age", "--gen", "k", "4", "--k", "2", "--depth", "3"],
                     ["check", "delta", "--gen", "k", "4", "--k", "2", "--max-domain", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_check_property(self, capsys):
        assert main(["check", "delta", "--gen", "k", "6", "--k", "3"]) == 0
        assert main(["check", "delta", "--gen", "i", "3", "--k", "2"]) == 1

    def test_check_criterion(self, capsys):
        assert main(["check", "HH", "--gen", "comp", "2", "3", "--k", "3"]) == 0

    def test_bad_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        assert main(["classify", str(bad)]) == 2

    def test_graph6_over_the_parser_cap_on_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(OVER_CAP_GRAPH6 + "\n"))
        assert main(["classify", "-"]) == 2
        assert "exceeds parser cap 4096" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["generate", "k", "abc"],
        ["age", "--gen", "rs", "x", "--k", "2", "--horizon", "4"],
    ])
    def test_bad_generator_parameter_exit_code(self, argv, capsys):
        assert main(argv) == 2
        assert "bad parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "verify-poset"])
    def test_missing_file_exit_code(self, command, tmp_path, capsys):
        assert main([command, str(tmp_path / "missing.txt")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_undecodable_file_exit_code(self, tmp_path, capsys):
        binary = tmp_path / "g.bin"
        binary.write_bytes(b"\xff\xfe")
        assert main(["classify", str(binary)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, where", [
        (["generate", "k", "3", "-o"], "missing/x.txt"),
        (["atlas", "--max-n", "1", "--resume", "-o"], ""),
        (["atlas", "--max-n", "1", "-o"], "missing/a.jsonl"),
    ], ids=["generate-into-missing-dir", "atlas-resume-into-dir", "atlas-into-missing-dir"])
    def test_unwritable_output_exit_code(self, argv, where, tmp_path, capsys):
        # a missing parent directory, or an output path that is a directory
        assert main(argv + [str(tmp_path / where)]) == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("equality A B finite n<=x", "bad corpus bound"),
        ("separation MM MB bounded rs", "expects 1 parameter"),
        ("inclusion ZZ MB finite n<=3", "bad class code"),
        ("separation MM MB bounded rs 3 k=two", "bad bound k"),
        ("separation MM MB bounded rs 3 q=3", "unknown bound"),
        ("equality A Z finite n<=3", "bad Y code"),
        ("separation MM ME finite comp 2", "expects 2 parameter"),
    ])
    def test_malformed_claim_exit_code(self, line, message, tmp_path, capsys):
        claims = tmp_path / "claims.txt"
        claims.write_text(line + "\n")
        assert main(["verify-poset", str(claims)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "equality A B finite n<=0",
        "monotone - - finite n<=-3",
        "disconnected-ih IH equal-cliques finite n<=8",
    ])
    def test_claim_corpus_bound_out_of_range(self, line, tmp_path, capsys):
        claims = tmp_path / "claims.txt"
        claims.write_text(line + "\n")
        assert main(["verify-poset", str(claims)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.splitlines() == [
            f"error: atlas size must be in 1..7, got {line.split('n<=')[1]}"]

    def test_verify_poset_small(self, tmp_path, capsys):
        claims = tmp_path / "claims.txt"
        claims.write_text(
            "equality A B finite n<=3\n"
            "monotone - - finite n<=3\n"
            "bottom-echo HA complete finite n<=3\n"
        )
        assert main(["verify-poset", str(claims)]) == 0
        out = capsys.readouterr().out
        assert "3/3 claims passed" in out

    def test_verify_poset_failure_exit(self, tmp_path, capsys):
        claims = tmp_path / "claims.txt"
        claims.write_text("bottom-echo HH complete finite n<=2\n")
        assert main(["verify-poset", str(claims)]) == 1

    @pytest.mark.parametrize("line, code, out, err", [
        ("separation - MB bounded rs 3 k=3", 0,
         "PASS separation - MB: MB fails (0->1,1->4,3->0; preimage of 2 confined to co-cones "
         "over [0, 3] = [0, 1, 2]; exhausted)\n1/1 claims passed\n", ""),
        ("separation MB MM bounded rs 3 k=3", 1,
         "FAIL separation MB MM: MM did not fail with certificate\n0/1 claims passed\n", ""),
        ("separation MB MB bounded rs 3 k=3", 1,
         "FAIL separation MB MB: MB also failed definitively\n0/1 claims passed\n", ""),
        ("separation IH IM finite k 3", 1,
         "FAIL separation IH IM: no finite separation recipe for generator 'k'\n"
         "0/1 claims passed\n", ""),
        ("bottom-echo MA complete finite n<=3", 1,
         "FAIL bottom-echo MA complete: n2g000 holds MA but is not complete\n"
         "0/1 claims passed\n", ""),
        ("separation MM MB bounded k 3", 2, "", "error: no oracle presentation for 'k 3'\n"),
        ("a b", 2, "", "error: claim line too short: 'a b'\n"),
        ("equality A B", 2, "", "error: claim 'equality' needs scope 'finite': 'equality A B'\n"),
        ("separation MM MB exact rs 3", 2, "",
         "error: separation needs scope finite|bounded: 'separation MM MB exact rs 3'\n"),
        ("frobnicate A B finite n<=3", 2, "", "error: unknown claim kind 'frobnicate'\n"),
        ("equality A B finite", 2, "", "error: missing n<=K bound in ()\n"),
    ])
    def test_claim_outcomes(self, line, code, out, err, tmp_path, capsys):
        # the pass without an X side, both ways a separation fails, a finite
        # recipe missing, a failing bottom echo, and each malformed-line message
        claims = tmp_path / "claims.txt"
        claims.write_text(line + "\n")
        assert main(["verify-poset", str(claims)]) == code
        assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("n", [0, -2])
def test_enumeration_rejects_a_size_below_one(n):
    with pytest.raises(GraphError, match=f"size must be positive, got {n}"):
        graphs_of_size(n)


def test_classify_oracle_needs_bounded(capsys):
    assert main(["classify", "--gen", "rs", "3"]) == 2
    assert "pass --bounded" in capsys.readouterr().err


def test_atlas_to_stdout(capsys):
    assert main(["atlas", "--max-n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0]) == {"schema": "homext-atlas/1"}
    assert [json.loads(line)["id"] for line in lines[1:]] == ["n1g000", "n2g000", "n2g001"]
    assert read_atlas(lines) == list(atlas_records(2))


class _ClosedPipe(io.TextIOBase):
    """A stdout over the descriptor ``fd`` whose reader has gone: the first ``write``
    raises, or with ``buffered`` (output that fits the buffer) only the flush."""

    def __init__(self, fd, buffered):
        self.fd, self.buffered = fd, buffered

    def write(self, text):
        if not self.buffered:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.buffered:
            self.buffered = False  # the buffer is dropped with the error
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("argv", [["atlas", "--max-n", "2"], ["generate", "k", "3"]])
def test_output_into_a_closed_pipe(argv, buffered, tmp_path, capsys, monkeypatch):
    # the exit code of an input error, no traceback, and the descriptor then
    # points at devnull, so the flush at exit writes nowhere and cannot raise
    sink = tmp_path / "sink"
    with open(sink, "wb") as f:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(f.fileno(), buffered))
        assert main(argv) == 2
        os.write(f.fileno(), b"after the pipe closed")
    assert sink.read_bytes() == b""
    assert capsys.readouterr().err == ""
