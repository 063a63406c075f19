"""Command-line interface.

Subcommands: decide, realize, verify, census, render. The exit status
reports whether the computation ran, not the mathematical verdict; JSON
output carries the verdict for scripting.

census writes its CSV one row at a time, keeping no row, then a summary:
the row count (for a file), the forced-arrow counts of the realizable rows
against the n^2 + n bound, the obstruction reasons of the others, and with
--oracle the cross-check result; oracle disagreements go to stderr as they
occur. With --out - the CSV alone goes to stdout and the summary to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter

from .builder import ExtensionParams, realize
from .census import census_rows, cross_check_with_oracle, write_census_csv
from .errors import DocumentError, TunnelFillError
from .filler import NotRealizable, decide
from .homology import check_correct_homology, check_symmetry
from .render import render_svg
from .rings import degree_violations, differential_square
from .serial import parse, parse_sequence, serialize
from .standard import ExtendedSignSequence

ALL_CHECKS = ("d2", "degree", "homology", "symmetry")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts sequence values like "-1,1,2" after -s."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tunnelfill",
        description=(
            "Decide realizability of standard complexes over F2[U,V], "
            "build explicit realizations, and verify them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decide", help="decide one sequence")
    p.add_argument("-s", "--sequence", required=True, help='e.g. "-1,1,2,-1,1,3" or "4 | 2,2 | -4"')
    p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("realize", help="build a full realization and write it out")
    p.add_argument("-s", "--sequence", required=True)
    p.add_argument("-o", "--output", required=True, help="output document path")
    p.add_argument("--n1", type=int, default=None, help="head extension length")
    p.add_argument("--n2", type=int, default=None, help="tail extension length")

    p = sub.add_parser("verify", help="run verifiers on a complex document")
    p.add_argument("file", help="complex document path")
    p.add_argument(
        "--check",
        default=",".join(ALL_CHECKS),
        help=f"comma list from {{{','.join(ALL_CHECKS)}}}",
    )

    p = sub.add_parser("census", help="decide every small sequence, write CSV")
    p.add_argument("--n", type=int, required=True, help="largest half-length n")
    p.add_argument("--max", type=int, required=True, help="largest |a_i|")
    p.add_argument("--out", required=True, help="CSV path, or - for stdout")
    p.add_argument("--oracle", action="store_true", help="cross-check each row")

    p = sub.add_parser("render", help="render a complex document as SVG")
    p.add_argument("file", help="complex document path")
    p.add_argument("-o", "--output", required=True, help="SVG path")
    p.add_argument("--no-labels", action="store_true")
    return parser


def _cause_text(complex, cause) -> str:
    x, mono, y = cause
    gens = complex.generators
    return f"d²{gens[x].name} term {mono} {gens[y].name}"


def _obstruction_lines(outcome: NotRealizable) -> list[str]:
    """The headline naming the first obstruction, then one line per obstruction."""
    cx = outcome.partial_progress
    first = outcome.obstructions[0]
    lines = [f"NOT_REALIZABLE: obstruction at {_cause_text(cx, first.cause)}"]
    lines += [f"  {o.reason} at {_cause_text(cx, o.cause)}" for o in outcome.obstructions]
    return lines


def _decide(args) -> int:
    outcome = decide(parse_sequence(args.sequence))
    report = {"sequence": args.sequence.strip()}
    if isinstance(outcome, NotRealizable):
        cx = outcome.partial_progress
        obstructions = [
            {"at": _cause_text(cx, o.cause), "reason": o.reason} for o in outcome.obstructions
        ]
        report.update(decision="NOT_REALIZABLE", obstructions=obstructions)
        lines = _obstruction_lines(outcome)
    else:
        cx = outcome.complex
        report.update(decision="REALIZABLE", arrows_added=len(outcome.added), added=[])
        lines = [f"REALIZABLE: {len(outcome.added)} arrows added"]
        for e in outcome.added:
            mono = e.added.monomial
            source = cx.generators[e.added.source].name
            target = cx.generators[e.added.target].name
            report["added"].append(
                {"from": source, "to": target, "u": mono.u, "v": mono.v, "case": e.case_tag}
            )
            lines.append(
                f"  added {source} -> {mono} {target} "
                f"({e.case_tag}, forced by {_cause_text(cx, e.cause)})"
            )
    print(json.dumps(report, indent=2) if args.json else "\n".join(lines))
    return 0


def _realize(args) -> int:
    seq = parse_sequence(args.sequence)
    if isinstance(seq, ExtendedSignSequence):
        print("realize expects a plain sequence, not an extended one", file=sys.stderr)
        return 1
    params = None
    if args.n1 is not None or args.n2 is not None:
        if args.n1 is None or args.n2 is None:
            print("give both --n1 and --n2 or neither", file=sys.stderr)
            return 1
        params = ExtensionParams(args.n1, args.n2)
    result = realize(seq, params)
    if isinstance(result, NotRealizable):
        print(_obstruction_lines(result)[0])
        return 0
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(serialize(result, include_colors=True))
    print(
        f"REALIZABLE: wrote a {len(result.generators)}-generator realization "
        f"to {args.output}"
    )
    return 0


def _read_document(path: str):
    """The complex in the UTF-8 document at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8: {exc}") from None
    return parse(text)


def _verify(args) -> int:
    # Each named check runs once, in the order first given.
    wanted = list(dict.fromkeys(c.strip() for c in args.check.split(",") if c.strip()))
    unknown = [c for c in wanted if c not in ALL_CHECKS]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if not wanted:
        print("error: no checks given", file=sys.stderr)
        return 2
    complex = _read_document(args.file)

    failures = 0
    for check in wanted:
        if check == "d2":
            square = differential_square(complex)
            ok = not square
            detail = "" if ok else f" ({len(square)} nonzero terms)"
        elif check == "degree":
            bad = degree_violations(complex)
            ok = not bad
            detail = "" if ok else f" ({len(bad)} violating arrows)"
        elif check == "homology":
            u_side, v_side = check_correct_homology(complex)
            ok = u_side.verdict and v_side.verdict
            detail = (
                ""
                if ok
                else (
                    f" (free ranks {u_side.free_rank_total}/{v_side.free_rank_total},"
                    f" gradings {u_side.free_generator_grading}/"
                    f"{v_side.free_generator_grading})"
                )
            )
        else:
            witness = check_symmetry(complex)
            ok = witness is not None
            detail = "" if ok else " (no based isomorphism onto the conjugate)"
        failures += not ok
        print(f"{check}: {'PASS' if ok else 'FAIL'}{detail}")
    print(f"{len(wanted) - failures}/{len(wanted)} checks passed")
    return 0


def _census(args) -> int:
    forced: Counter[int] = Counter()
    reasons: Counter[str] = Counter()
    disagreements = 0

    def tallied(rows):
        # Each row is counted and cross-checked on its way to the CSV, so
        # no row is kept.
        nonlocal disagreements
        for row in rows:
            if row.realizable:
                forced[row.arrows_added] += 1
            elif row.obstruction_reason:
                reasons[row.obstruction_reason.split(" at ")[0]] += 1
            if args.oracle:
                complaint = cross_check_with_oracle(row)
                if complaint:
                    disagreements += 1
                    print(f"oracle disagreement: {complaint}", file=sys.stderr)
            yield row

    rows = tallied(census_rows(args.n, args.max))
    if args.out == "-":
        count = write_census_csv(rows, sys.stdout)
        summary = sys.stderr
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            count = write_census_csv(rows, handle)
        summary = sys.stdout
        print(f"wrote {count} rows ({sum(forced.values())} REALIZABLE) to {args.out}")
    bound = args.n * args.n + args.n
    print(f"forced-arrow counts (bound {bound}): {dict(sorted(forced.items()))}", file=summary)
    print(f"obstruction reasons: {dict(reasons.most_common())}", file=summary)
    if disagreements:
        return 1
    if args.oracle:
        print(f"oracle cross-check passed on {count} rows", file=summary)
    return 0


def _render(args) -> int:
    complex = _read_document(args.file)
    svg = render_svg(complex, labels=not args.no_labels)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print(f"wrote {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "decide": _decide,
        "realize": _realize,
        "verify": _verify,
        "census": _census,
        "render": _render,
    }
    try:
        return handlers[args.command](args)
    except (TunnelFillError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
