"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

from __future__ import annotations

import functools
import itertools
import random
import time

from tunnelfill import (
    ExtendedSignSequence,
    Monomial,
    NotRealizable,
    PartialRealization,
    SignSequence,
    build_standard,
    census_rows,
    check_correct_homology,
    check_symmetry,
    degree_violations,
    differential_square,
    oracle_decide,
    parse,
    realize,
    render_svg,
    serialize,
)
from tunnelfill.builder import default_extension_params, double, extend_and_realize
from tunnelfill.f2poly import PolyMatrix, pdeg, smith_normal_form
from tunnelfill.filler import partial_realize
from tunnelfill.lattice import lattice_positions
from tunnelfill.rings import R1, R2, lift_to
from tunnelfill.standard import build_extended
from conftest import (
    added_arrows,
    find_based_isomorphism,
    id_of,
    is_diagonal_matrix,
    one_arrow_at_a_time,
    pdet,
    pdivides,
    product,
    reduce_to,
    subcomplex,
    translated_onto,
    undirected_components,
)


def criterion(number, description, budget_seconds=None):
    """Run a criterion and print one PASS/FAIL line with its runtime. A
    criterion with a budget passes only if it also finishes within it."""

    def wrap(func):
        @functools.wraps(func)
        def run():
            budget = "" if budget_seconds is None else f", budget {budget_seconds}s"

            def report(verdict, elapsed):
                print(
                    f"criterion {number} ({description}): {verdict} ({elapsed:.2f}s{budget})",
                    flush=True,
                )

            start = time.perf_counter()
            try:
                func()
            except BaseException:
                report("FAIL", time.perf_counter() - start)
                raise
            elapsed = time.perf_counter() - start
            within = budget_seconds is None or elapsed < budget_seconds
            report("PASS" if within else "FAIL", elapsed)
            assert within, f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        return run
    return wrap


def nonzero_range(bound):
    return [a for a in range(-bound, bound + 1) if a != 0]


def realizable_outcome(entries):
    return partial_realize(build_standard(SignSequence(entries)))


@criterion(1, "paper verdicts", budget_seconds=1.0)
def test_criterion_1_paper_verdicts():
    failures = []
    for entries in [(1, -1, 3, -2), (2, 2), (-1, 1, 2, -1, 1, 3)]:
        if not isinstance(realizable_outcome(entries), PartialRealization):
            failures.append(entries)
    for entries in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1, -3, 1), (-8, 2, 1, 2),
                    (-1, 1, 2, -1, 1, 2)]:
        if not isinstance(realizable_outcome(entries), NotRealizable):
            failures.append(entries)
    for n in (1, 2, 3):
        for first_sign in (1, -1):
            signs = [first_sign * (1 if i % 2 == 0 else -1) for i in range(2 * n)]
            for mags in itertools.product([1, 2, 3, 4], repeat=2 * n):
                entries = tuple(m * s for m, s in zip(mags, signs))
                if not isinstance(realizable_outcome(entries), PartialRealization):
                    failures.append(entries)
        for entries in itertools.product([-4, -3, -2, 2, 3, 4], repeat=2 * n):
            if not isinstance(realizable_outcome(entries), PartialRealization):
                failures.append(entries)
    assert not failures, f"wrong verdicts on {failures[:10]}"


@criterion(2, "worked-example traces")
def test_criterion_2_worked_examples():
    outcome = realizable_outcome((-1, 1, 2, -1, 1, 2))
    assert isinstance(outcome, NotRealizable)
    c = outcome.partial_progress
    added = {
        (c.generators[a.source].name, a.monomial.u, a.monomial.v,
         c.generators[a.target].name)
        for a in c.arrows
        if c.colors.get(a) == "added"
    }
    assert added == {("x3", 1, 1, "x0"), ("x6", 1, 1, "x3")}
    witness = [
        (c.generators[o.cause[0]].name, o.cause[1], c.generators[o.cause[2]].name)
        for o in outcome.obstructions
    ]
    assert witness == [("x6", Monomial(3, 1), "x2")]

    outcome = realizable_outcome((-1, 1, 2, -1, 1, 3))
    assert isinstance(outcome, PartialRealization)
    c = outcome.complex
    added = [
        (c.generators[e.added.source].name, e.added.monomial.u,
         e.added.monomial.v, c.generators[e.added.target].name)
        for e in outcome.added
    ]
    assert added == [("x3", 1, 1, "x0"), ("x6", 1, 2, "x3")]
    assert differential_square(c) == ()


@criterion(3, "oracle equivalence", budget_seconds=60.0)
def test_criterion_3_oracle_equivalence():
    disagreements = []
    containment_violations = []
    total = 0
    for n, bound in ((2, 3), (3, 2)):
        for entries in itertools.product(nonzero_range(bound), repeat=2 * n):
            total += 1
            complex = build_standard(SignSequence(entries))
            outcome = partial_realize(complex)
            result = oracle_decide(lift_to(complex, R2))
            if result.realizable != isinstance(outcome, PartialRealization):
                disagreements.append(entries)
                continue
            if isinstance(outcome, PartialRealization):
                if not added_arrows(outcome) <= result.forced:
                    containment_violations.append(entries)
    assert total == 1296 + 4096
    # Report rather than fail silently: name the offenders in the assertion.
    assert not disagreements, f"algorithm/oracle disagreements: {disagreements[:10]}"
    assert not containment_violations, (
        f"forced arrows missing from some oracle witness: {containment_violations[:10]}"
    )


@criterion(4, "arrow bound")
def test_criterion_4_arrow_bound():
    observed_max = 0
    for n, bound in ((2, 3), (3, 2)):
        budget = n * n + n
        for entries in itertools.product(nonzero_range(bound), repeat=2 * n):
            outcome = realizable_outcome(entries)
            if isinstance(outcome, PartialRealization):
                assert len(outcome.added) <= budget, entries
                observed_max = max(observed_max, len(outcome.added))
    assert observed_max <= 4  # far below the bound of 12


@criterion(5, "order independence", budget_seconds=30.0)
def test_criterion_5_order_independence():
    # The first 50 realizable draws whose decision adds at least two arrows,
    # so there is an order to vary, and the first 50 obstructed draws, each
    # replayed in 100 random orders by the one-arrow-at-a-time reference.
    rng = random.Random(1494)
    chosen, obstructed = [], []
    while len(chosen) < 50 or len(obstructed) < 50:
        n = rng.randint(1, 3)
        entries = tuple(rng.choice(nonzero_range(4)) for _ in range(2 * n))
        outcome = realizable_outcome(entries)
        if isinstance(outcome, NotRealizable):
            if len(obstructed) < 50:
                obstructed.append((entries, None))
        elif len(chosen) < 50 and len(outcome.added) >= 2:
            chosen.append((entries, outcome.complex.arrows))
    for entries, expected in chosen + obstructed:
        chain = build_standard(SignSequence(entries))
        for trial in range(100):
            shuffler = random.Random((hash(entries) << 7) ^ trial)
            outcome = one_arrow_at_a_time(chain, shuffler)
            if expected is None:
                assert isinstance(outcome, NotRealizable), entries
            else:
                assert isinstance(outcome, PartialRealization), entries
                assert outcome.complex.arrows == expected, entries


@criterion(6, "realization pipeline", budget_seconds=120.0)
def test_criterion_6_realization_pipeline():
    checked = symmetric_count = 0
    for n in (1, 2):
        for entries in itertools.product(nonzero_range(3), repeat=2 * n):
            seq = SignSequence(entries)
            if isinstance(partial_realize(build_standard(seq)), NotRealizable):
                continue
            checked += 1
            glued = realize(seq)
            assert not isinstance(glued, NotRealizable), entries
            assert differential_square(glued) == (), entries
            assert degree_violations(glued) == [], entries
            u_side, v_side = check_correct_homology(glued)
            assert u_side.verdict and v_side.verdict, entries
            assert glued.generators[id_of(glued, "x0")].grading.gu == 0, entries
            assert glued.generators[id_of(glued, f"x{2 * n}")].grading.gv == 0, entries
            if check_symmetry(build_standard(seq)) is not None:
                symmetric_count += 1
                assert check_symmetry(glued) is not None, entries
    assert checked > 500
    assert symmetric_count > 10


@criterion(7, "doubling reduction", budget_seconds=120.0)
def test_criterion_7_doubling_reduction():
    for n in (1, 2):
        for entries in itertools.product(nonzero_range(3), repeat=2 * n):
            seq = SignSequence(entries)
            if isinstance(partial_realize(build_standard(seq)), NotRealizable):
                continue
            params = default_extension_params(seq)
            lifted = extend_and_realize(seq, params)
            reduced = reduce_to(double(lifted.complex), R1)
            pieces = undirected_components(reduced)
            assert len(pieces) == 2, entries
            reference = build_extended(
                ExtendedSignSequence(params.n1, seq, -params.n2)
            )
            for piece in pieces:
                part = subcomplex(reduced, piece)
                assert find_based_isomorphism(
                    translated_onto(part, reference), reference
                ) is not None, entries


@criterion(8, "census counts against the oracle")
def test_criterion_8_census_counts():
    for a_max, expected_total in ((2, 16), (1, 4)):
        rows = list(census_rows(1, a_max))
        assert len(rows) == expected_total
        oracle_realizable = 0
        for row in rows:
            result = oracle_decide(lift_to(build_standard(row.sequence), R2))
            assert result.realizable == row.realizable, row.sequence
            oracle_realizable += result.realizable
        assert sum(r.realizable for r in rows) == oracle_realizable
        assert oracle_realizable == (10 if a_max == 2 else 2)


@criterion(9, "Smith normal form suite")
def test_criterion_9_snf_suite():
    rng = random.Random(90125)
    for _ in range(500):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = PolyMatrix(
            tuple(tuple(rng.randrange(16) for _ in range(ncols)) for _ in range(nrows))
        )
        left, diag, right = smith_normal_form(matrix)
        assert product(left, diag, right) == matrix
        assert is_diagonal_matrix(diag)
        entries = diag.diagonal()
        for i in range(len(entries) - 1):
            assert pdivides(entries[i], entries[i + 1])
        assert pdet(left) == 1
        assert pdet(right) == 1
        # Guards against coefficient blowup in the transforms.
        assert all(pdeg(x) <= 64 for t in (left, right) for row in t.rows for x in row)


@criterion(10, "serialization and rendering")
def test_criterion_10_serialization_and_rendering():
    corpus = []
    for entries in itertools.product(nonzero_range(2), repeat=2):
        corpus.append(build_standard(SignSequence(entries)))
    corpus.append(build_standard(SignSequence((-1, 1, 2, -1, 1, 3))))
    corpus.append(
        build_extended(ExtendedSignSequence(4, SignSequence((-1, 1, 2, -1, 1, 3)), -4))
    )
    outcome = realizable_outcome((-1, 1, 2, -1, 1, 3))
    corpus.append(outcome.complex)
    realizations = []
    for entries in [(1, -1), (2, 2), (2, -2), (-1, 1, 2, -1, 1, 3), (1, -2, 2, -1)]:
        glued = realize(SignSequence(entries))
        corpus.append(glued)
        realizations.append(glued)
    for complex in corpus:
        assert parse(serialize(complex, include_colors=True)) == complex
        assert parse(serialize(complex)).arrows == complex.arrows

    positions = lattice_positions(build_standard(SignSequence((2, 2))))
    deltas = {
        gid: (p[0] - positions[0][0], p[1] - positions[0][1])
        for gid, p in positions.items()
    }
    assert deltas == {0: (0, 0), 1: (2, 0), 2: (2, 2)}

    for glued in realizations:
        svg = render_svg(glued)
        assert svg.count("<circle") == len(glued.generators)
