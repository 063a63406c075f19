import json
import shlex
from pathlib import Path

from tunnelfill import SignSequence, build_standard, serialize
from tunnelfill import homology
from tunnelfill.cli import main
from conftest import disjoint_union, long_symmetric_sequence

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_obstructed_sequence(self, capsys):
        code, out, _ = run(capsys, "decide", "-s", "-1,1,2,-1,1,2")
        assert code == 0
        assert out.splitlines()[0] == "NOT_REALIZABLE: obstruction at d²x6 term U^3V^1 x2"

    def test_liftable_sequence(self, capsys):
        code, out, _ = run(capsys, "decide", "-s", "-1,1,2,-1,1,3")
        assert code == 0
        assert out.splitlines()[0] == "REALIZABLE: 2 arrows added"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "decide", "-s", "-1,1,2,-1,1,3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["decision"] == "REALIZABLE"
        assert report["arrows_added"] == 2
        assert {(a["from"], a["to"]) for a in report["added"]} == {
            ("x3", "x0"),
            ("x6", "x3"),
        }

    def test_extended_sequence(self, capsys):
        code, out, _ = run(capsys, "decide", "-s", "4 | -1,1,2,-1,1,3 | -4")
        assert code == 0
        assert out.startswith("REALIZABLE: 3 arrows added")

    def test_parse_error_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "decide", "-s", "1,0")
        assert code == 1
        assert "error:" in err


class TestRealizeVerifyRender:
    def test_full_flow(self, capsys, tmp_path):
        doc = tmp_path / "g.json"
        svg = tmp_path / "g.svg"
        code, out, _ = run(capsys, "realize", "-s", "-1,1,2,-1,1,3", "-o", str(doc))
        assert code == 0 and "17-generator" in out

        code, out, _ = run(
            capsys, "verify", str(doc), "--check", "d2,degree,homology"
        )
        assert code == 0
        assert "d2: PASS" in out and "homology: PASS" in out
        assert "3/3 checks passed" in out

        code, out, _ = run(capsys, "render", str(doc), "-o", str(svg))
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_symmetry_check_on_symmetric_realization(self, capsys, tmp_path):
        doc = tmp_path / "s.json"
        run(capsys, "realize", "-s", "2,-2", "-o", str(doc))
        code, out, _ = run(capsys, "verify", str(doc))
        assert code == 0
        assert "symmetry: PASS" in out

    def test_1541_generator_realization_passes_all_checks(self, capsys, tmp_path):
        doc = tmp_path / "long.json"
        code, out, _ = run(
            capsys, "realize", "-s", str(long_symmetric_sequence()), "-o", str(doc)
        )
        assert code == 0 and "1541-generator" in out
        code, out, err = run(capsys, "verify", str(doc))
        assert code == 0 and err == ""
        assert "symmetry: PASS" in out
        assert "4/4 checks passed" in out

    def test_exhausted_search_budget_is_an_error(self, capsys, tmp_path, monkeypatch):
        doc = tmp_path / "twins.json"
        c = build_standard(SignSequence((-1, 1)))
        doc.write_text(serialize(disjoint_union(c, c)))
        monkeypatch.setattr(homology, "SEARCH_BUDGET", 0)
        code, out, err = run(capsys, "verify", str(doc), "--check", "symmetry")
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_verify_reports_failures_without_error_exit(self, capsys, tmp_path):
        doc = tmp_path / "c.json"
        ext = serialize(build_standard(SignSequence((2, 2))))
        doc.write_text(ext)
        code, out, _ = run(capsys, "verify", str(doc), "--check", "symmetry")
        assert code == 0
        assert "symmetry: FAIL" in out

    def test_verify_rejects_a_malformed_document_without_a_traceback(self, capsys, tmp_path):
        doc = tmp_path / "bad.json"
        good = json.loads(serialize(build_standard(SignSequence((2, 2)))))
        for field, value in (("generators", [1]), ("arrows", [7]), ("ring", {})):
            doc.write_text(json.dumps({**good, field: value}))
            code, out, err = run(capsys, "verify", str(doc))
            assert code == 1 and out == ""
            assert err.startswith("error: ")

    def test_not_realizable_realize(self, capsys, tmp_path):
        doc = tmp_path / "none.json"
        code, out, _ = run(capsys, "realize", "-s", "1,1", "-o", str(doc))
        assert code == 0
        assert out.startswith("NOT_REALIZABLE")
        assert not doc.exists()

    def test_explicit_lengths_too_short_are_an_error(self, capsys, tmp_path):
        # Lengths given on the command line are used as given, never enlarged.
        doc = tmp_path / "g.json"
        code, _, err = run(
            capsys, "realize", "-s", "1,-2,2,-1", "-o", str(doc), "--n1", "3", "--n2", "3"
        )
        assert code == 1
        assert "error:" in err and "did not lift" in err
        assert not doc.exists()

    def test_custom_extension_lengths(self, capsys, tmp_path):
        doc = tmp_path / "g.json"
        code, out, _ = run(
            capsys, "realize", "-s", "2,2", "-o", str(doc), "--n1", "5", "--n2", "6"
        )
        assert code == 0 and doc.exists()

    def test_unknown_check_rejected(self, capsys, tmp_path):
        doc = tmp_path / "g.json"
        run(capsys, "realize", "-s", "2,2", "-o", str(doc))
        code, _, err = run(capsys, "verify", str(doc), "--check", "nope")
        assert code == 2
        assert "unknown checks" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/does/not/exist.json")
        assert code == 1
        assert "error:" in err


class TestCensus:
    def test_counts_and_oracle(self, capsys, tmp_path):
        out_path = tmp_path / "census.csv"
        code, out, err = run(
            capsys, "census", "--n", "1", "--max", "2", "--out", str(out_path), "--oracle"
        )
        assert code == 0, err
        assert "oracle cross-check passed on 16 rows" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "sequence;decision;arrows_added;obstruction_reason"
        assert len(lines) == 17
        realizable = [line for line in lines[1:] if ";REALIZABLE;" in line]
        assert len(realizable) == 10

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "1", "--max", "1", "--out", "-")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert sum(1 for line in lines if ";REALIZABLE;" in line) == 2

    def test_oracle_checks_every_row(self, capsys, tmp_path):
        out_path = tmp_path / "census.csv"
        code, out, err = run(
            capsys, "census", "--n", "2", "--max", "2", "--out", str(out_path), "--oracle"
        )
        assert code == 0, err
        assert err == ""
        assert out.splitlines() == [
            f"wrote 272 rows (88 REALIZABLE) to {out_path}",
            "forced-arrow counts (bound 6): {0: 78, 1: 8, 2: 2}",
            "obstruction reasons: {'no-adjacent-arrow': 84, 'insufficient-length': 72,"
            " 'wrong-direction': 28}",
            "oracle cross-check passed on 272 rows",
        ]
        assert len(out_path.read_text().splitlines()) == 273

    def test_stdout_carries_the_csv_alone_and_stderr_the_summary(self, capsys):
        code, out, err = run(
            capsys, "census", "--n", "1", "--max", "1", "--out", "-", "--oracle"
        )
        assert code == 0
        assert out.splitlines() == [
            "sequence;decision;arrows_added;obstruction_reason",
            "-1,-1;NOT_REALIZABLE;0;no-adjacent-arrow at d2 x0 term U^1V^1 x2",
            "-1,1;REALIZABLE;0;",
            "1,-1;REALIZABLE;0;",
            "1,1;NOT_REALIZABLE;0;no-adjacent-arrow at d2 x2 term U^1V^1 x0",
        ]
        assert err.splitlines() == [
            "forced-arrow counts (bound 2): {0: 2}",
            "obstruction reasons: {'no-adjacent-arrow': 2}",
            "oracle cross-check passed on 4 rows",
        ]


def readme_commands():
    """Each ``tunnelfill`` line of the README "Command line" block, as an
    argument list, with the ``# ...`` output lines written under it."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("tunnelfill "):
            commands.append((shlex.split(line)[1:], []))
        elif line.startswith("# "):
            commands[-1][1].append(line[2:])
    return commands


def test_readme_command_line_block_prints_what_it_says(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv, _ in commands] == [
        "decide", "decide", "realize", "verify", "render", "census"
    ]
    for argv, expected in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert expected, argv
        printed = out.splitlines()
        for line in expected:
            assert line in printed, (argv, line)
