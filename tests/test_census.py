import dataclasses
import hashlib
import io
import random

import pytest

from tunnelfill import (
    Arrow,
    Monomial,
    SignSequence,
    build_standard,
    census_rows,
    write_census_csv,
)
from tunnelfill.census import census_sequences, cross_check_with_oracle, decide_row
from tunnelfill.filler import partial_realize
from tunnelfill.rings import R1, BasedComplex
from conftest import added_arrows, row_from_outcome

STAIRCASE = SignSequence((-1, 1, 2, -1, 1, 3))
BLOCKED = SignSequence((-1, 1, 2, -1, 1, 2))


class TestEnumeration:
    def test_lengths_and_order(self):
        seqs = list(census_sequences(2, 1))
        assert len(seqs) == 4 + 16
        assert [s.entries for s in seqs[:4]] == [
            (-1, -1), (-1, 1), (1, -1), (1, 1)
        ]
        assert all(len(s.entries) == 4 for s in seqs[4:])

    def test_rows_are_reproducible(self):
        first = list(census_rows(1, 2))
        second = list(census_rows(1, 2))
        assert first == second

    def test_csv_is_reproducible_bit_for_bit(self):
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            write_census_csv(census_rows(1, 2), buffer)
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("sequence;decision;arrows_added;obstruction_reason\n")

    @pytest.mark.parametrize(
        "n_max, a_max, rows, sha256",
        [
            (2, 3, 1332, "1eda90b6885dce77ec8480da75e2b2be142abbdea016b766791204dabac59d32"),
            (3, 2, 4368, "1c31fe989c5c194512f7c1dbd81caef7e89347d3cd73fcf8b944b03304f927cf"),
        ],
    )
    def test_csv_fingerprint_is_pinned(self, n_max, a_max, rows, sha256):
        # Any change to a verdict, an arrow count or an obstruction reason
        # changes the digest; a refactor must leave every row as it was.
        buffer = io.StringIO()
        assert write_census_csv(census_rows(n_max, a_max), buffer) == rows
        assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == sha256

    def test_row_fields(self):
        row = decide_row(SignSequence((-1, 1, 2, -1, 1, 2)))
        assert row.decision == "NOT_REALIZABLE"
        assert row.arrows_added == 2
        assert row.obstruction_reason == "no-adjacent-arrow at d2 x6 term U^3V^1 x2"

        row = decide_row(SignSequence((-1, 1, 2, -1, 1, 3)))
        assert row.realizable
        assert row.arrows_added == 2
        assert row.obstruction_reason is None


class TestCrossCheck:
    def test_realizable_row_keeps_the_filler_arrows_in_event_order(self):
        outcome = partial_realize(build_standard(STAIRCASE))
        row = decide_row(STAIRCASE)
        assert row.added == tuple(e.added for e in outcome.added)
        assert frozenset(row.added) == added_arrows(outcome)
        assert len(row.added) == row.arrows_added
        assert not hasattr(row, "__dict__")

    def test_not_realizable_row_adds_nothing(self):
        row = decide_row(BLOCKED)
        assert not row.realizable
        assert row.added == ()

    def test_true_rows_pass(self):
        assert cross_check_with_oracle(decide_row(STAIRCASE)) is None
        assert cross_check_with_oracle(decide_row(BLOCKED)) is None

    def test_an_added_arrow_outside_forced_is_caught(self):
        row = decide_row(STAIRCASE)
        stray = Arrow(0, Monomial(1, 1), 1)
        doctored = dataclasses.replace(row, added=row.added + (stray,))
        complaint = cross_check_with_oracle(doctored)
        assert complaint == (
            f"{STAIRCASE}: added arrows are not contained in every oracle witness"
        )

    def test_a_flipped_decision_is_caught(self):
        row = decide_row(STAIRCASE)
        flipped = dataclasses.replace(row, obstruction_reason="…", added=())
        assert cross_check_with_oracle(flipped) == (
            f"{STAIRCASE}: algorithm says NOT_REALIZABLE, oracle says REALIZABLE"
        )
        row = decide_row(BLOCKED)
        flipped = dataclasses.replace(row, obstruction_reason=None)
        assert cross_check_with_oracle(flipped) == (
            f"{BLOCKED}: algorithm says REALIZABLE, oracle says NOT_REALIZABLE"
        )


class TestDecisionFromLinks:
    """``decide_row`` decides on the chain's links; each row must equal the
    one read off ``partial_realize(build_standard(seq))``."""

    def test_every_row_of_the_n3_max3_census_matches_the_outcome(self):
        seqs = list(census_sequences(3, 3))
        assert len(seqs) == 47_988
        assert [s for s in seqs if decide_row(s) != row_from_outcome(s)] == []

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16, 32, 64, 128, 256])
    def test_ladders_match_the_outcome(self, k):
        seq = SignSequence(STAIRCASE.entries * k)
        row = decide_row(seq)
        assert row == row_from_outcome(seq)
        assert row.realizable and row.arrows_added == 3 * k - 1

    def test_random_long_sequences_match_the_outcome(self):
        rng = random.Random(1913)
        decisions = set()
        for length in (96, 192, 384, 768, 1536) * 2:
            seq = SignSequence(
                rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(length)
            )
            row = decide_row(seq)
            assert row == row_from_outcome(seq)
            decisions.add(row.decision)
        assert decisions == {"NOT_REALIZABLE"}

    @pytest.fixture
    def built(self, monkeypatch):
        """Every BasedComplex built during the test, in order."""
        complexes = []
        original = BasedComplex.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            complexes.append(self)

        monkeypatch.setattr(BasedComplex, "__init__", counting)
        return complexes

    def test_decide_row_builds_no_complex(self, built):
        for seq in (STAIRCASE, BLOCKED, SignSequence(STAIRCASE.entries * 8)):
            decide_row(seq)
        assert built == []

    def test_the_cross_check_builds_the_rows_only_complex(self, built):
        for seq in (STAIRCASE, BLOCKED):
            row = decide_row(seq)
            built.clear()
            assert cross_check_with_oracle(row) is None
            # The standard complex; the lift the oracle reads over R2 is a
            # view of it, so it builds nothing.
            [chain] = built
            assert chain.ring == R1
            assert chain == build_standard(seq)
