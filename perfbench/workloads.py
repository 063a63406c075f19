"""The four benchmark workloads.

Each workload builds its inputs from a seed, runs one op per input by
calling the library in-process (the same calls ``tunnelfill.cli`` makes),
and checks every output with a gate that any correct implementation passes.
Ops look their functions up on the layer modules at call time, so the traced
run sees them through its wrappers. README.md in this directory says why
each workload was chosen and which layers it exercises and bypasses.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

# The CLI's default `tunnelfill census --cap`.
ORACLE_CAP = 20

LADDER = (-1, 1, 2, -1, 1, 3)

# long-decide: (length, ladders per pass, random sequences per pass). Counts
# fall as lengths double so no length class dominates a pass while the
# short classes supply enough ops for a tail percentile. The eight 384-entry
# ladders straddle the p90 tail of the 112 ops, so the tail is the time of
# one fixed input rather than of whichever random sequences a seed drew.
LONG_CLASSES = ((96, 32, 32), (192, 16, 16), (384, 8, 2), (768, 2, 2), (1536, 1, 1))
LONG_CLASSES_TINY = ((96, 2, 2),)
# Random sequences come from a fixed pool whose verdicts are pinned; the
# seed picks which pool entries a run uses and in what order.
LONG_POOL_SEED = 20230607
LONG_POOL_FACTOR = 4

# realize-verify: five sequences for every n in 1..REALIZE_N_MAX.
REALIZE_N_MAX = 40
REALIZE_N_MAX_TINY = 3

# verify-docs: the criterion-9 corpus of tests/test_acceptance.py.
DOCS_SEED = 90125
DOCS_COUNT = 500
DOCS_COUNT_TINY = 20
DOCS_WARM_UP = 20
# Matrix #181 takes 13 s or more and the other 499 documents about 0.3 s in
# all, so a pass verifies #181 once and every other document DOCS_ROUNDS
# times: the short documents then fill about 5 s of a pass, enough for a
# steady median, and #181 still takes about three quarters of it.
DOCS_PATHOLOGY = 181
DOCS_ROUNDS = 15


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """Inputs for one pass, the op run on each, and the gate on its output.

    ``items`` is one pass; ``warm_up_items`` run once during set-up.
    ``finish`` is pass-level work timed with the ops (none by default); it
    receives the pass's op results when ``keep_results`` is set.
    """

    name = ""
    keep_results = False

    def __init__(self, lib, seed: int, tiny: bool = False):
        self.lib = lib
        self.items: list = []
        self.warm_up_items: list = []

    def op(self, item):
        raise NotImplementedError

    def check(self, item, result) -> str | None:
        raise NotImplementedError

    def finish(self, results: list):
        return None

    def check_finish(self, value) -> str | None:
        return None


class Census(Workload):
    """`tunnelfill census --n 3 --max 3 --oracle`: decide each row, cross-check
    it with the oracle, and write the CSV in memory at the end of the pass.
    Exhaustive, so the seed does not change the inputs."""

    name = "census"
    keep_results = True

    def __init__(self, lib, seed, tiny=False):
        super().__init__(lib, seed, tiny)
        n_max, a_max = (2, 2) if tiny else (3, 3)
        self.items = list(lib.census.census_sequences(n_max, a_max))
        self.warm_up_items = self.items[: 40 if tiny else 400]
        self.pinned_csv = load_pins()["census"][f"n{n_max}_max{a_max}"]

    def op(self, seq):
        row = self.lib.census.decide_row(seq)
        return row, self.lib.census.cross_check_with_oracle(row, cap=ORACLE_CAP)

    def check(self, seq, result):
        return result[1]

    def finish(self, results):
        out = io.StringIO()
        self.lib.census.write_census_csv(iter(row for row, _ in results), out)
        return out.getvalue()

    def check_finish(self, csv_text):
        found = hashlib.sha256(csv_text.encode()).hexdigest()
        if found != self.pinned_csv:
            return f"census CSV sha256 {found} != pinned {self.pinned_csv}"
        return None


def ladder(length: int) -> tuple[int, ...]:
    return LADDER * (length // len(LADDER))


def long_pool() -> dict[int, list[tuple[int, ...]]]:
    """The fixed pool of random long sequences, LONG_POOL_FACTOR per slot."""
    rng = random.Random(LONG_POOL_SEED)
    return {
        length: [
            tuple(rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(length))
            for _ in range(LONG_POOL_FACTOR * randoms)
        ]
        for length, _, randoms in LONG_CLASSES
    }


def verdict_of(outcome, length: int) -> tuple[str, int]:
    """Verdict and arrows-added count, as the census CSV reports them."""
    if hasattr(outcome, "added"):
        return "REALIZABLE", len(outcome.added)
    return "NOT_REALIZABLE", len(outcome.partial_progress.arrows) - length


def verdict_digest(entries: tuple[int, ...], verdict: tuple[str, int]) -> str:
    return digest(f"{','.join(map(str, entries))}:{verdict[0]}:{verdict[1]}")


class LongDecide(Workload):
    """`tunnelfill decide` on long sequences: the realizable ladder
    (-1,1,2,-1,1,3)*k and random sequences that hit an obstruction early."""

    name = "long-decide"

    def __init__(self, lib, seed, tiny=False):
        super().__init__(lib, seed, tiny)
        classes = LONG_CLASSES_TINY if tiny else LONG_CLASSES
        pool = long_pool()
        pins = load_pins()["long_decide"]
        rng = random.Random(seed)
        items = []
        for length, ladders, randoms in classes:
            items += [(ladder(length), None)] * ladders
            for index in rng.sample(range(len(pool[length])), randoms):
                items.append((pool[length][index], pins[str(length)][index]))
        rng.shuffle(items)
        self.items = [(lib.standard.SignSequence(e), e, pin) for e, pin in items]
        first = classes[0][0]
        self.warm_up_items = [
            (lib.standard.SignSequence(e), e, pin)
            for e, pin in ((ladder(first), None), (pool[first][0], pins[str(first)][0]))
        ]

    def op(self, item):
        return self.lib.filler.decide(item[0])

    def check(self, item, outcome):
        _, entries, pin = item
        verdict = verdict_of(outcome, len(entries))
        if pin is None:
            expected = ("REALIZABLE", len(entries) // 2 - 1)
            if verdict != expected:
                return f"ladder of length {len(entries)}: {verdict} != {expected}"
        elif verdict_digest(entries, verdict) != pin:
            return f"length-{len(entries)} sequence: verdict {verdict} does not match its pin"
        return None


def realizable_sequence(rng: random.Random, n: int, family: str, mirror: bool) -> tuple[int, ...]:
    """A sequence from a family criterion 1 proves realizable: alternating
    signs with magnitudes 1-4 ("alt"), or any signs with magnitudes 2-4
    ("big"). A mirror satisfies a_(2n+1-i) = -a_i, which makes the standard
    complex symmetric."""
    count = n if mirror else 2 * n
    if family == "alt":
        sign = rng.choice((-1, 1))
        entries = [sign * (-1) ** i * rng.randint(1, 4) for i in range(count)]
    else:
        entries = [rng.choice((-1, 1)) * rng.randint(2, 4) for _ in range(count)]
    if mirror:
        entries += [-a for a in reversed(entries)]
    return tuple(entries)


class RealizeVerify(Workload):
    """`tunnelfill realize` then `tunnelfill verify` with all four checks,
    then a serialize/parse round trip, on realizable sequences with n in
    1..40, the same number for every n."""

    name = "realize-verify"

    def __init__(self, lib, seed, tiny=False):
        super().__init__(lib, seed, tiny)
        rng = random.Random(seed)
        entries = []
        for n in range(1, (REALIZE_N_MAX_TINY if tiny else REALIZE_N_MAX) + 1):
            mirror = ("alt" if n % 2 else "big", True)
            for family, mirrored in (("alt", False), ("alt", False), ("big", False), ("big", False), mirror):
                entries.append(realizable_sequence(rng, n, family, mirrored))
        rng.shuffle(entries)
        build_standard = lib.standard.build_standard
        check_symmetry = lib.homology.check_symmetry
        self.items = []
        for e in entries:
            seq = lib.standard.SignSequence(e)
            symmetric = check_symmetry(build_standard(seq)) is not None
            self.items.append((seq, symmetric))
        self.warm_up_items = self.items[:10]

    def op(self, item):
        lib = self.lib
        glued = lib.builder.realize(item[0])
        if isinstance(glued, lib.filler.NotRealizable):
            return (glued,)
        square = lib.rings.differential_square(glued)
        bad = lib.rings.degree_violations(glued)
        reports = lib.homology.check_correct_homology(glued)
        witness = lib.homology.check_symmetry(glued)
        text = lib.serial.serialize(glued, include_colors=True)
        return glued, square, bad, reports, witness, lib.serial.parse(text)

    def check(self, item, result):
        seq, symmetric = item
        if len(result) == 1:
            return f"{seq}: realize says NOT_REALIZABLE"
        glued, square, bad, reports, witness, back = result
        if square:
            return f"{seq}: d^2 != 0"
        if bad:
            return f"{seq}: {len(bad)} arrows break the degree equation"
        if not all(r.verdict for r in reports):
            return f"{seq}: wrong homology"
        if symmetric and witness is None:
            return f"{seq}: symmetric standard complex, asymmetric realization"
        if back != glued:
            return f"{seq}: serialize/parse round trip is not exact"
        return None


def snf_matrices(count: int = DOCS_COUNT) -> list[tuple[tuple[int, ...], ...]]:
    """The first ``count`` matrices of the criterion-9 corpus, generated the
    way tests/test_acceptance.py generates them."""
    rng = random.Random(DOCS_SEED)
    matrices = []
    for _ in range(DOCS_COUNT):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        matrices.append(
            tuple(tuple(rng.randrange(16) for _ in range(ncols)) for _ in range(nrows))
        )
    return matrices[:count]


def matrix_document(matrix) -> str:
    """A complex document whose C/U quotient is the single block t*matrix.

    Row generators sit at gr_U 0, column generators at gr_U 1, and entry
    (i, j) = t*p(t) becomes one arrow c_j -> V^v r_i with u = 0 per term t^v.
    """
    nrows, ncols = len(matrix), len(matrix[0])
    generators = [{"name": f"r{i}", "gr": [0, 1]} for i in range(nrows)]
    generators += [{"name": f"c{j}", "gr": [1, 0]} for j in range(ncols)]
    arrows = [
        {"from": f"c{j}", "to": f"r{i}", "u": 0, "v": v}
        for i, row in enumerate(matrix)
        for j, entry in enumerate(row)
        for v in range(1, 5)
        if (entry << 1) >> v & 1
    ]
    return json.dumps({"ring": "Rinf", "generators": generators, "arrows": arrows})


def verify_document(lib, text: str):
    """`tunnelfill verify --check d2,degree,homology,symmetry` on one document."""
    complex = lib.serial.parse(text)
    square = lib.rings.differential_square(complex)
    bad = lib.rings.degree_violations(complex)
    reports = lib.homology.check_correct_homology(complex)
    witness = lib.homology.check_symmetry(complex)
    return complex, square, bad, reports, witness


def report_digest(square, bad, reports, witness) -> str:
    fields = [
        (r.killed, r.free_rank_total, r.free_generator_grading, r.torsion_orders, r.verdict)
        for r in reports
    ]
    return digest(repr((not square, len(bad), fields, witness is not None)))


class VerifyDocs(Workload):
    """`tunnelfill verify` with all four checks on arbitrary documents, one
    per matrix of the criterion-9 corpus multiplied by t. A pass verifies
    matrix #181's document once and each other document DOCS_ROUNDS times.
    The seed sets the order; the corpus is fixed and always contains #181."""

    name = "verify-docs"

    def __init__(self, lib, seed, tiny=False):
        super().__init__(lib, seed, tiny)
        self.texts = [matrix_document(m) for m in snf_matrices(DOCS_COUNT_TINY if tiny else DOCS_COUNT)]
        self.pins = load_pins()["verify_docs"]
        # The gate calls the originals captured here, so a traced run does
        # not count the benchmark's own checks as library work.
        self.quotient_complex = lib.homology.quotient_complex
        self.rank = lib.f2poly.rank
        order = [
            i for i in range(len(self.texts))
            for _ in range(1 if i == DOCS_PATHOLOGY else DOCS_ROUNDS)
        ]
        random.Random(seed).shuffle(order)
        self.items = order
        self.warm_up_items = list(range(min(DOCS_WARM_UP, len(self.texts))))

    def op(self, index):
        return verify_document(self.lib, self.texts[index])

    def check(self, index, result):
        complex, square, bad, reports, witness = result
        if report_digest(square, bad, reports, witness) != self.pins[index]:
            return f"document #{index}: verdicts do not match the pin"
        for report in reports:
            chain = self.quotient_complex(complex, report.killed)
            dims = sum(len(chain.generators[k]) for k in chain.degrees)
            independent = sum(self.rank(chain.boundaries[k]) for k in chain.degrees)
            if dims - report.free_rank_total != 2 * independent:
                return (
                    f"document #{index}: C/{report.killed} SNF ranks disagree "
                    f"with f2poly.rank"
                )
        return None


WORKLOADS = {w.name: w for w in (Census, LongDecide, RealizeVerify, VerifyDocs)}
