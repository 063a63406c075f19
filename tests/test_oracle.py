import itertools

import pytest
from hypothesis import given

from tunnelfill import (
    NotRealizable,
    OracleTooLargeError,
    PartialRealization,
    SignSequence,
    build_standard,
    degree_violations,
    oracle_decide,
)
from tunnelfill.filler import partial_realize
from tunnelfill.oracle import candidate_arrows
from tunnelfill.rings import R2, add_arrows, lift_to
from conftest import sign_sequences


def level_two(*entries):
    return lift_to(build_standard(SignSequence(entries)), R2)


class TestCandidates:
    def test_unit_corner_has_no_candidates(self):
        assert candidate_arrows(level_two(1, 1)) == ()

    def test_staircase_candidates_include_the_forced_pair(self):
        c = level_two(-1, 1, 2, -1, 1, 2)
        cands = {
            (c.generator(a.source).name, a.monomial.u, a.monomial.v, c.generator(a.target).name)
            for a in candidate_arrows(c)
        }
        assert {("x3", 1, 1, "x0"), ("x6", 1, 1, "x3")} <= cands

    def test_candidates_are_absent_unit_diagonals(self):
        for entries in itertools.product([-2, -1, 1, 2], repeat=4):
            c = level_two(*entries)
            for arrow in candidate_arrows(c):
                assert arrow.monomial.min_exp == 1
                assert arrow not in c.arrows

    @given(sign_sequences(max_n=2, max_abs=3))
    def test_each_candidate_keeps_degrees_legal(self, seq):
        c = lift_to(build_standard(seq), R2)
        for arrow in candidate_arrows(c):
            assert degree_violations(add_arrows(c, [arrow])) == []


class TestOracleDecisions:
    def test_unit_corner_not_realizable(self):
        result = oracle_decide(level_two(1, 1))
        assert not result.realizable
        assert result.witness_masks == ()

    def test_liftable_staircase_has_unique_minimal_witness(self):
        c = level_two(-1, 1, 2, -1, 1, 3)
        result = oracle_decide(c)
        assert result.realizable
        required = {
            (c.generator(a.source).name, a.monomial.u, a.monomial.v, c.generator(a.target).name)
            for a in result.witness_intersection()
        }
        assert {("x3", 1, 1, "x0"), ("x6", 1, 2, "x3")} <= required
        for witness in result.witnesses():
            assert result.witness_intersection() <= witness

    def test_alternating_signs_have_the_empty_witness(self):
        result = oracle_decide(level_two(2, -2))
        assert result.realizable
        assert 0 in result.witness_masks
        assert frozenset() in set(result.witnesses())

    def test_cap_is_enforced(self):
        with pytest.raises(OracleTooLargeError):
            oracle_decide(level_two(-1, 1, 2, -1, 1, 2), cap=1)

    def test_witness_intersection_requires_realizability(self):
        with pytest.raises(ValueError):
            oracle_decide(level_two(1, 1)).witness_intersection()


class TestAgreementSample:
    @given(sign_sequences(max_n=3, max_abs=2))
    def test_oracle_matches_the_filler(self, seq):
        outcome = partial_realize(build_standard(seq))
        result = oracle_decide(lift_to(build_standard(seq), R2))
        assert result.realizable == isinstance(outcome, PartialRealization)
        if isinstance(outcome, PartialRealization):
            assert outcome.added_arrows <= result.witness_intersection()
        else:
            assert isinstance(outcome, NotRealizable)
