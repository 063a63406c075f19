"""Exhaustive census of sign sequences and the decisions on them."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import IO, Iterator

from .errors import ConstructionError
from .filler import PartialRealization, partial_realize
from .oracle import oracle_decide
from .rings import R2, Arrow, lift_to
from .standard import SignSequence, build_standard

CSV_HEADER = ("sequence", "decision", "arrows_added", "obstruction_reason")


@dataclass(frozen=True, slots=True)
class CensusRow:
    """One decided sequence. ``added`` holds the filler's added arrows in
    event order when the row is realizable, and is empty otherwise."""

    sequence: SignSequence
    decision: str
    arrows_added: int
    obstruction_reason: str | None
    added: tuple[Arrow, ...]

    @property
    def realizable(self) -> bool:
        return self.decision == "REALIZABLE"


def census_sequences(n_max: int, a_max: int) -> Iterator[SignSequence]:
    """All sequences of length 2..2*n_max with entries in +-1..+-a_max,
    shortest first and lexicographic within a length."""
    if n_max < 1 or a_max < 1:
        raise ConstructionError("census bounds must be at least 1")
    values = [a for a in range(-a_max, a_max + 1) if a != 0]
    for n in range(1, n_max + 1):
        for entries in itertools.product(values, repeat=2 * n):
            yield SignSequence(entries)


def decide_row(seq: SignSequence) -> CensusRow:
    outcome = partial_realize(build_standard(seq))
    if isinstance(outcome, PartialRealization):
        arrows = tuple(e.added for e in outcome.added)
        return CensusRow(seq, "REALIZABLE", len(arrows), None, arrows)
    progress = outcome.partial_progress
    added = len(progress.arrows) - len(seq.entries)
    first = outcome.obstructions[0]
    x, mono, y = first.cause
    reason = (
        f"{first.reason} at d2 {progress.generator(x).name} "
        f"term {mono} {progress.generator(y).name}"
    )
    return CensusRow(seq, "NOT_REALIZABLE", added, reason, ())


def census_rows(n_max: int, a_max: int) -> Iterator[CensusRow]:
    for seq in census_sequences(n_max, a_max):
        yield decide_row(seq)


def write_census_csv(rows: Iterator[CensusRow], out: IO[str]) -> int:
    writer = csv.writer(out, delimiter=";", lineterminator="\n")
    writer.writerow(CSV_HEADER)
    count = 0
    for row in rows:
        writer.writerow(
            (
                str(row.sequence),
                row.decision,
                row.arrows_added,
                row.obstruction_reason or "",
            )
        )
        count += 1
    return count


def cross_check_with_oracle(row: CensusRow, cap: int | None = None) -> str | None:
    """Re-decide one row with the oracle; returns a complaint string on
    disagreement, None when consistent. It reads the row's added arrows
    instead of running the filler again, and rebuilds only the standard
    complex. ``cap`` is ignored: the benchmark's census workload
    (``perfbench/workloads.py``) still passes ``cap=ORACLE_CAP``, so the
    keyword stays until that workload drops it."""
    result = oracle_decide(lift_to(build_standard(row.sequence), R2))
    if result.realizable != row.realizable:
        return (
            f"{row.sequence}: algorithm says {row.decision}, oracle says "
            f"{'REALIZABLE' if result.realizable else 'NOT_REALIZABLE'}"
        )
    if not result.forced.issuperset(row.added):
        return f"{row.sequence}: added arrows are not contained in every oracle witness"
    return None
