"""Write pins.json: the expected outputs the benchmark's gates compare with.

    python3 perfbench/make_pins.py

Run it from the repository root only when a workload's inputs change. The
pins record what the library computes today (census CSV digests, each pooled
long sequence's verdict, each corpus document's verification reports); a
correct change to the library must reproduce them, so a failing gate is
never a reason to run this script.
"""

from __future__ import annotations

import hashlib
import io
import json

from types import SimpleNamespace

from run import load_library
from workloads import (
    PINS_PATH,
    long_pool,
    matrix_document,
    report_digest,
    snf_matrices,
    verdict_digest,
    verdict_of,
    verify_document,
)

CENSUS_SIZES = ((2, 2), (3, 3))


def main() -> int:
    lib = SimpleNamespace(**load_library())
    census = {}
    for n_max, a_max in CENSUS_SIZES:
        out = io.StringIO()
        lib.census.write_census_csv(lib.census.census_rows(n_max, a_max), out)
        census[f"n{n_max}_max{a_max}"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    long_decide = {
        str(length): [
            verdict_digest(e, verdict_of(lib.filler.decide(lib.standard.SignSequence(e)), length))
            for e in entries
        ]
        for length, entries in long_pool().items()
    }
    verify_docs = []
    for matrix in snf_matrices():
        _, square, bad, reports, witness = verify_document(lib, matrix_document(matrix))
        verify_docs.append(report_digest(square, bad, reports, witness))
    pins = {"census": census, "long_decide": long_decide, "verify_docs": verify_docs}
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
