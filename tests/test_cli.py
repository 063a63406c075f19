import json
import shlex
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from tunnelfill import InternalError, SignSequence, build_standard, serialize
from tunnelfill import cli, homology
from tunnelfill.census import census_rows
from tunnelfill.cli import main
from conftest import UNREADABLE_DOCUMENTS, disjoint_union, long_symmetric_sequence

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
        assert out.splitlines() == [
            "{",
            '  "sequence": "-1,1,2,-1,1,3",',
            '  "decision": "REALIZABLE",',
            '  "arrows_added": 2,',
            '  "added": [',
            "    {",
            '      "from": "x3",',
            '      "to": "x0",',
            '      "u": 1,',
            '      "v": 1,',
            '      "case": "horizontal-first"',
            "    },",
            "    {",
            '      "from": "x6",',
            '      "to": "x3",',
            '      "u": 1,',
            '      "v": 2,',
            '      "case": "vertical-first"',
            "    }",
            "  ]",
            "}",
        ]

    def test_obstructed_json_report(self, capsys):
        code, out, err = run(capsys, "decide", "-s", "-1,1,2,-1,1,2", "--json")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "{",
            '  "sequence": "-1,1,2,-1,1,2",',
            '  "decision": "NOT_REALIZABLE",',
            '  "obstructions": [',
            "    {",
            '      "at": "d\\u00b2x6 term U^3V^1 x2",',
            '      "reason": "no-adjacent-arrow"',
            "    }",
            "  ]",
            "}",
        ]

    def test_extended_sequence(self, capsys):
        code, out, _ = run(capsys, "decide", "-s", "4 | -1,1,2,-1,1,3 | -4")
        assert code == 0
        assert out.startswith("REALIZABLE: 3 arrows added")

    def test_parse_error_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "decide", "-s", "1,0")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("token", ["9" * 5000, "x" + "9" * 3000])
    def test_long_token_gives_one_short_error_line(self, capsys, token):
        code, out, err = run(capsys, "decide", "-s", f"1,{token}")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: entry 2: ")
        assert len(err.encode()) < 200, err


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

    @pytest.mark.parametrize("generators", [[], [{"name": "x", "gr": [0, 0]}]])
    def test_symmetry_of_a_document_with_at_most_one_generator(
        self, capsys, tmp_path, generators
    ):
        doc = tmp_path / "small.json"
        doc.write_text(json.dumps({"ring": "Rinf", "generators": generators, "arrows": []}))
        code, out, err = run(capsys, "verify", str(doc), "--check", "symmetry")
        assert code == 0 and err == ""
        assert out == "symmetry: PASS\n1/1 checks passed\n"

    def test_verify_reports_failures_without_error_exit(self, capsys, tmp_path):
        doc = tmp_path / "c.json"
        ext = serialize(build_standard(SignSequence((2, 2))))
        doc.write_text(ext)
        code, out, _ = run(capsys, "verify", str(doc), "--check", "symmetry")
        assert code == 0
        assert "symmetry: FAIL" in out

    def test_homology_rejects_an_arrow_that_keeps_its_grading(self, capsys, tmp_path):
        # Killing U leaves a -> V b, which does not lower gr_U by one.
        doc = tmp_path / "flat.json"
        generators = [{"name": name, "gr": [0, 0]} for name in ("a", "b")]
        arrows = [{"from": "a", "to": "b", "u": 0, "v": 1}]
        doc.write_text(json.dumps({"ring": "Rinf", "generators": generators, "arrows": arrows}))
        code, out, err = run(capsys, "verify", str(doc), "--check", "homology")
        assert code == 1 and out == ""
        assert err == (
            "error: arrow 0 -> U^0V^1 1 does not lower the preserved grading by one;"
            " run the degree check first\n"
        )

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
        assert out == "NOT_REALIZABLE: obstruction at d²x2 term U^1V^1 x0\n"
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

    def test_realize_rejects_an_extended_sequence(self, capsys, tmp_path):
        doc = tmp_path / "g.json"
        code, out, err = run(capsys, "realize", "-s", "4 | -1,1,2,-1,1,3 | -4", "-o", str(doc))
        assert code == 1 and out == ""
        assert err == "realize expects a plain sequence, not an extended one\n"
        assert not doc.exists()

    def test_realize_needs_both_extension_lengths(self, capsys, tmp_path):
        doc = tmp_path / "g.json"
        code, out, err = run(capsys, "realize", "-s", "2,2", "-o", str(doc), "--n1", "4")
        assert code == 1 and out == ""
        assert err == "give both --n1 and --n2 or neither\n"
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

    @pytest.mark.parametrize("checks", ["", ",", " , ,"])
    def test_empty_check_list_rejected(self, capsys, tmp_path, checks):
        doc = tmp_path / "g.json"
        run(capsys, "realize", "-s", "2,2", "-o", str(doc))
        code, out, err = run(capsys, "verify", str(doc), "--check", checks)
        assert (code, out, err) == (2, "", "error: no checks given\n")

    def test_repeated_check_runs_once(self, capsys, tmp_path):
        doc = tmp_path / "g.json"
        run(capsys, "realize", "-s", "2,2", "-o", str(doc))
        code, out, err = run(capsys, "verify", str(doc), "--check", "degree,d2, degree,d2")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["degree: PASS", "d2: PASS", "2/2 checks passed"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/does/not/exist.json")
        assert code == 1
        assert "error:" in err


class TestUnreadableDocuments:
    """verify and render read a document the same way: whatever the bytes,
    they either run or exit 1 with a single error line."""

    COMMANDS = ("verify", "render")

    @staticmethod
    def argv(command, doc):
        return [command, str(doc), *(["-o", f"{doc}.svg"] if command == "render" else [])]

    @staticmethod
    def assert_one_error_line(code, out, err):
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    @pytest.mark.parametrize("case", sorted(UNREADABLE_DOCUMENTS))
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exits_1_with_one_error_line(self, capsys, tmp_path, command, case):
        doc = tmp_path / "doc.json"
        doc.write_bytes(UNREADABLE_DOCUMENTS[case])
        self.assert_one_error_line(*run(capsys, *self.argv(command, doc)))

    def test_not_utf8_is_named(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_bytes(UNREADABLE_DOCUMENTS["not_utf8"])
        _, _, err = run(capsys, "verify", str(doc))
        assert err.startswith(f"error: {doc} is not UTF-8: ")

    # Each example overwrites the one file and reads capsys to the end.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary())
    def test_any_bytes_run_or_exit_with_one_error_line(self, capsys, tmp_path, data):
        doc = tmp_path / "bytes.json"
        doc.write_bytes(data)
        for command in self.COMMANDS:
            code, out, err = run(capsys, *self.argv(command, doc))
            if code:
                self.assert_one_error_line(code, out, err)


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


class TestStreamingCensus:
    """The census writes each row as it is decided and checked, keeping
    none, so a failure leaves the rows before it written."""

    def test_rows_before_a_failure_are_already_written(self, capsys, monkeypatch):
        def failing_rows(n_max, a_max):
            yield from list(census_rows(n_max, a_max))[:3]
            raise InternalError("row 4 failed")

        monkeypatch.setattr(cli, "census_rows", failing_rows)
        code, out, err = run(capsys, "census", "--n", "1", "--max", "1", "--out", "-")
        assert code == 1
        assert out.splitlines() == [
            "sequence;decision;arrows_added;obstruction_reason",
            "-1,-1;NOT_REALIZABLE;0;no-adjacent-arrow at d2 x0 term U^1V^1 x2",
            "-1,1;REALIZABLE;0;",
            "1,-1;REALIZABLE;0;",
        ]
        assert err.splitlines() == ["error: row 4 failed"]

    def test_a_disagreement_is_reported_as_it_occurs(self, capsys, monkeypatch):
        def complaining(row):
            return f"{row.sequence}: planted" if str(row.sequence) == "1,-1" else None

        monkeypatch.setattr(cli, "cross_check_with_oracle", complaining)
        code, out, err = run(
            capsys, "census", "--n", "1", "--max", "1", "--out", "-", "--oracle"
        )
        assert code == 1
        assert len(out.splitlines()) == 5
        assert err.splitlines() == [
            "oracle disagreement: 1,-1: planted",
            "forced-arrow counts (bound 2): {0: 2}",
            "obstruction reasons: {'no-adjacent-arrow': 2}",
        ]

    def test_bounds_below_one_fail_before_the_file_is_opened(self, capsys, tmp_path):
        out_path = tmp_path / "census.csv"
        code, out, err = run(capsys, "census", "--n", "0", "--max", "2", "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err == "error: census bounds must be at least 1\n"
        assert not out_path.exists()


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
