"""Exhaustive census of sign sequences and the decisions on them."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import IO, Iterator

from .errors import ConstructionError
from .filler import fill_links
from .oracle import oracle_decide
from .rings import R2, Arrow, lift_to
from .standard import SignSequence, build_standard, chain_links

CSV_HEADER = ("sequence", "decision", "arrows_added", "obstruction_reason")


@dataclass(frozen=True, slots=True)
class CensusRow:
    """One decided sequence, realizable exactly when it has no obstruction
    reason. ``added`` holds the filler's added arrows in event order when
    the row is realizable, and is empty otherwise."""

    sequence: SignSequence
    arrows_added: int
    obstruction_reason: str | None
    added: tuple[Arrow, ...]

    @property
    def realizable(self) -> bool:
        return self.obstruction_reason is None

    @property
    def decision(self) -> str:
        return "REALIZABLE" if self.obstruction_reason is None else "NOT_REALIZABLE"


def census_sequences(n_max: int, a_max: int) -> Iterator[SignSequence]:
    """All sequences of length 2..2*n_max with entries in +-1..+-a_max,
    shortest first and lexicographic within a length. Bounds below 1 raise
    here, before any sequence is drawn."""
    if n_max < 1 or a_max < 1:
        raise ConstructionError("census bounds must be at least 1")
    values = [a for a in range(-a_max, a_max + 1) if a != 0]
    return (
        SignSequence(entries)
        for n in range(1, n_max + 1)
        for entries in itertools.product(values, repeat=2 * n)
    )


def decide_row(seq: SignSequence) -> CensusRow:
    """Decide ``seq`` on its chain's links, building no complex, as one CSV
    row. The reason names x_k by its id k in the standard chain."""
    added, obstructions = fill_links(chain_links(seq.entries))
    if not obstructions:
        return CensusRow(seq, len(added), None, tuple(added))
    first = obstructions[0]
    x, mono, y = first.cause
    reason = f"{first.reason} at d2 x{x} term {mono} x{y}"
    return CensusRow(seq, len(added), reason, ())


def census_rows(n_max: int, a_max: int) -> Iterator[CensusRow]:
    return map(decide_row, census_sequences(n_max, a_max))


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
    instead of running the filler again, and builds the row's only complex,
    the standard one, which the oracle reads lifted to the level-2 ring.
    ``cap`` is ignored: the benchmark's census workload
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
