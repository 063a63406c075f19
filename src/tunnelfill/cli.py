"""Command-line interface.

Subcommands: decide, realize, verify, census, render. The exit status
reports whether the computation ran, not the mathematical verdict; JSON
output carries the verdict for scripting.

census writes its CSV, then a summary: the row count (for a file), the
forced-arrow counts of the realizable rows against the n^2 + n bound, the
obstruction reasons of the others, and with --oracle the cross-check
result. With --out - the CSV alone goes to stdout and the summary to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter

from .builder import ExtensionParams, realize
from .census import census_rows, cross_check_with_oracle, write_census_csv
from .errors import TunnelFillError
from .filler import NotRealizable, PartialRealization, decide
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
    return f"d²{complex.generator(x).name} term {mono} {complex.generator(y).name}"


def _decide(args) -> int:
    seq = parse_sequence(args.sequence)
    outcome = decide(seq)
    if isinstance(outcome, PartialRealization):
        cx = outcome.complex
        if args.json:
            report = {
                "sequence": args.sequence.strip(),
                "decision": "REALIZABLE",
                "arrows_added": len(outcome.added),
                "added": [
                    {
                        "from": cx.generator(e.added.source).name,
                        "to": cx.generator(e.added.target).name,
                        "u": e.added.monomial.u,
                        "v": e.added.monomial.v,
                        "case": e.case_tag,
                    }
                    for e in outcome.added
                ],
            }
            print(json.dumps(report, indent=2))
        else:
            print(f"REALIZABLE: {len(outcome.added)} arrows added")
            for e in outcome.added:
                print(
                    f"  added {cx.generator(e.added.source).name} -> "
                    f"{e.added.monomial} {cx.generator(e.added.target).name} "
                    f"({e.case_tag}, forced by {_cause_text(cx, e.cause)})"
                )
    else:
        cx = outcome.partial_progress
        if args.json:
            report = {
                "sequence": args.sequence.strip(),
                "decision": "NOT_REALIZABLE",
                "obstructions": [
                    {
                        "at": _cause_text(cx, o.cause),
                        "reason": o.reason,
                    }
                    for o in outcome.obstructions
                ],
            }
            print(json.dumps(report, indent=2))
        else:
            first = outcome.obstructions[0]
            print(f"NOT_REALIZABLE: obstruction at {_cause_text(cx, first.cause)}")
            for o in outcome.obstructions:
                print(f"  {o.reason} at {_cause_text(cx, o.cause)}")
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
        cx = result.partial_progress
        first = result.obstructions[0]
        print(f"NOT_REALIZABLE: obstruction at {_cause_text(cx, first.cause)}")
        return 0
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(serialize(result, include_colors=True))
    print(
        f"REALIZABLE: wrote a {len(result.generators)}-generator realization "
        f"to {args.output}"
    )
    return 0


def _verify(args) -> int:
    wanted = [c.strip() for c in args.check.split(",") if c.strip()]
    unknown = [c for c in wanted if c not in ALL_CHECKS]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    with open(args.file, "r", encoding="utf-8") as handle:
        complex = parse(handle.read())

    failures = 0
    for check in wanted:
        if check == "d2":
            square = differential_square(complex)
            ok = not square
            detail = "" if ok else f" ({sum(len(t) for t in square.values())} nonzero terms)"
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
    rows = list(census_rows(args.n, args.max))
    if args.out == "-":
        write_census_csv(iter(rows), sys.stdout)
        summary = sys.stderr
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            count = write_census_csv(iter(rows), handle)
        realizable = sum(1 for r in rows if r.realizable)
        summary = sys.stdout
        print(f"wrote {count} rows ({realizable} REALIZABLE) to {args.out}")
    forced = Counter(r.arrows_added for r in rows if r.realizable)
    reasons = Counter(
        r.obstruction_reason.split(" at ")[0] for r in rows if r.obstruction_reason
    )
    bound = args.n * args.n + args.n
    print(f"forced-arrow counts (bound {bound}): {dict(sorted(forced.items()))}", file=summary)
    print(f"obstruction reasons: {dict(reasons.most_common())}", file=summary)
    if args.oracle:
        disagreements = 0
        for row in rows:
            complaint = cross_check_with_oracle(row)
            if complaint:
                disagreements += 1
                print(f"oracle disagreement: {complaint}", file=sys.stderr)
        if disagreements:
            return 1
        print(f"oracle cross-check passed on {len(rows)} rows", file=summary)
    return 0


def _render(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        complex = parse(handle.read())
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
    except TunnelFillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
