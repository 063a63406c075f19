"""The public API: what ``from tunnelfill import *`` binds, and the README
and script code that reaches the package through it."""

import ast
import dataclasses
import runpy
from pathlib import Path

import tunnelfill
from tunnelfill import CensusRow, HomologyReport, OracleResult, PartialRealization

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    # Sequences
    "SignSequence", "ExtendedSignSequence", "parse_sequence",
    # Complexes
    "BasedComplex", "Arrow", "Monomial", "Generator", "Grading", "build_standard",
    # Decide
    "decide", "PartialRealization", "NotRealizable", "ForcedArrowEvent", "Obstruction",
    # Realize
    "realize",
    # Verify
    "differential_square", "degree_violations", "check_correct_homology",
    "HomologyReport", "check_symmetry",
    # Files
    "parse", "serialize", "render_svg",
    # Census and oracle
    "census_rows", "write_census_csv", "CensusRow", "oracle_decide", "OracleResult",
    # Errors
    "TunnelFillError", "ConstructionError", "DocumentError",
    "InternalError", "InvalidLiftError", "RenderError",
    "SearchBudgetError", "SequenceParseError", "UnknownGeneratorError",
}


def test_star_import_binds_exactly_the_public_api():
    namespace = {}
    exec("from tunnelfill import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC) == 37
    assert set(namespace) == PUBLIC
    assert len(tunnelfill.__all__) == 37


def test_readme_library_block_does_what_its_comments_say():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if "# " in line]
    assert comments == [
        "PartialRealization", "17-generator complex", "both verdicts True"
    ]
    namespace = {}
    exec(block, namespace)
    assert isinstance(namespace["outcome"], PartialRealization)
    assert len(namespace["glued"].generators) == 17
    assert namespace["u_side"].verdict and namespace["v_side"].verdict


def test_render_examples_writes_nine_diagrams(tmp_path, capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "render_examples.py"))
    assert script["main"](["--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.svg"))) == 9
    assert capsys.readouterr().out.endswith(f"diagrams written to {tmp_path}/\n")


def test_results_keep_their_evidence_and_read_their_verdicts_off_it():
    def names(record):
        return [f.name for f in dataclasses.fields(record)]

    assert names(HomologyReport) == [
        "killed", "free_rank_total", "free_generator_grading", "torsion_orders"
    ]
    assert names(OracleResult) == ["candidates", "forced", "witness"]
    assert names(CensusRow) == ["sequence", "arrows_added", "obstruction_reason", "added"]

    assert HomologyReport("U", 1, 0, ()).verdict
    assert not HomologyReport("U", 1, 2, ()).verdict
    assert not HomologyReport("U", 3, None, ()).verdict
    assert OracleResult((), frozenset(), frozenset()).realizable
    assert not OracleResult((), frozenset(), None).realizable
    sequence = tunnelfill.SignSequence((1, 1))
    assert CensusRow(sequence, 0, None, ()).decision == "REALIZABLE"
    assert CensusRow(sequence, 0, "no-adjacent-arrow at d2", ()).decision == "NOT_REALIZABLE"


def _writes_to_the_console(source: str) -> list[str]:
    """Each call of ``print`` and each use of ``sys.stdout`` or
    ``sys.stderr`` in ``source``, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "print":
                found.append(f"line {node.lineno}: print")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "sys" and node.attr in ("stdout", "stderr"):
                found.append(f"line {node.lineno}: sys.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            for alias in node.names:
                if alias.name in ("stdout", "stderr"):
                    found.append(f"line {node.lineno}: from sys import {alias.name}")
    return found


def test_only_the_command_line_writes_to_the_console():
    assert _writes_to_the_console("import sys\nprint(1)\nsys.stderr.write('')") == [
        "line 2: print", "line 3: sys.stderr",
    ]
    modules = sorted((ROOT / "src" / "tunnelfill").glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        if path.name != "cli.py":
            assert _writes_to_the_console(path.read_text()) == [], path.name

