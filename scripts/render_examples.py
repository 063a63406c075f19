#!/usr/bin/env python3
"""Render the worked examples as SVG diagrams.

Produces, in the output directory:
  - the two tunnel-filling traces (one obstructed, one successful), and
  - full realizations for a handful of liftable sequences.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from tunnelfill import (
    NotRealizable,
    SignSequence,
    build_standard,
    decide,
    realize,
    render_svg,
)

TRACES = [(-1, 1, 2, -1, 1, 2), (-1, 1, 2, -1, 1, 3)]
REALIZATIONS = [(1, -1), (2, 2), (2, -2), (1, -1, 3, -2), (-1, 1, 2, -1, 1, 3)]


def slug(entries) -> str:
    return "C(" + ",".join(str(a) for a in entries) + ")"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="diagrams", help="output directory")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for entries in TRACES:
        name = slug(entries)
        (out / f"{name}.svg").write_text(
            render_svg(build_standard(SignSequence(entries)))
        )
        outcome = decide(SignSequence(entries))
        progress = (
            outcome.partial_progress
            if isinstance(outcome, NotRealizable)
            else outcome.complex
        )
        verdict = "obstructed" if isinstance(outcome, NotRealizable) else "lifted"
        (out / f"{name}-{verdict}.svg").write_text(render_svg(progress))
        print(f"{name}: {verdict}")

    for entries in REALIZATIONS:
        name = slug(entries)
        glued = realize(SignSequence(entries))
        (out / f"{name}-realization.svg").write_text(render_svg(glued))
        print(f"{name}: realization with {len(glued.generators)} generators")

    print(f"diagrams written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
