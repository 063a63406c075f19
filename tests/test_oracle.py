import itertools
import random
import time

from hypothesis import given

from tunnelfill import (
    Arrow,
    ExtendedSignSequence,
    Generator,
    Grading,
    Monomial,
    NotRealizable,
    PartialRealization,
    SignSequence,
    build_standard,
    degree_violations,
    differential_square,
    oracle_decide,
    realize,
)
from tunnelfill.census import census_sequences
from tunnelfill.filler import partial_realize
from tunnelfill.oracle import candidate_arrows
from tunnelfill.rings import R2, add_arrows, lift_to
from tunnelfill.standard import build_extended
from conftest import added_arrows, is_diagonal, make_complex, pairwise_candidates, sign_sequences


def level_two(*entries):
    return lift_to(build_standard(SignSequence(entries)), R2)


class TestCandidates:
    def test_unit_corner_has_no_candidates(self):
        assert candidate_arrows(level_two(1, 1)) == ()

    def test_staircase_candidates_include_the_forced_pair(self):
        c = level_two(-1, 1, 2, -1, 1, 2)
        cands = {
            (c.generators[a.source].name, a.monomial.u, a.monomial.v, c.generators[a.target].name)
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


class TestCandidateBuckets:
    """The two grading buckets find exactly what trying every ordered pair
    finds, in the same order."""

    def test_every_small_standard_complex(self):
        for seq in census_sequences(2, 4):
            c = lift_to(build_standard(seq), R2)
            assert candidate_arrows(c) == pairwise_candidates(c), seq

    def test_long_random_sequences(self):
        rng = random.Random(4096)
        for _ in range(10):
            length = 2 * rng.randint(48, 192)
            entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(length))
            c = lift_to(build_standard(SignSequence(entries)), R2)
            assert candidate_arrows(c) == pairwise_candidates(c), entries

    def test_extended_complexes(self):
        bodies = ((-1, 1, 2, -1, 1, 3), (2, -1), (1, 1, -2, 3))
        for body in bodies:
            for head, tail in itertools.product((-3, -1, 2), repeat=2):
                ext = ExtendedSignSequence(head, SignSequence(body), tail)
                c = lift_to(build_extended(ext), R2)
                assert candidate_arrows(c) == pairwise_candidates(c), ext

    def test_glued_realization_drops_its_present_diagonals(self):
        glued = realize(SignSequence((-1, 1, 2, -1, 1, 3)))
        unit_diagonals = [
            a for a in glued.arrows if is_diagonal(a.monomial) and a.monomial.min_exp == 1
        ]
        assert unit_diagonals
        found = candidate_arrows(glued)
        assert found == pairwise_candidates(glued)
        assert not set(found) & set(unit_diagonals)

    def test_generators_that_share_gradings(self):
        gens, arrows = fork(3, 0, 0)
        more_gens, more_arrows = fork(2, 6, 1)
        c = make_complex(R2, gens + more_gens, arrows + more_arrows)
        found = candidate_arrows(c)
        assert len(found) >= 5
        assert found == pairwise_candidates(c)


class TestOracleDecisions:
    def test_unit_corner_not_realizable(self):
        result = oracle_decide(level_two(1, 1))
        assert not result.realizable
        assert result.witness is None

    def test_liftable_staircase_has_unique_minimal_witness(self):
        c = level_two(-1, 1, 2, -1, 1, 3)
        result = oracle_decide(c)
        assert result.realizable
        required = {
            (c.generators[a.source].name, a.monomial.u, a.monomial.v, c.generators[a.target].name)
            for a in result.forced
        }
        assert {("x3", 1, 1, "x0"), ("x6", 1, 2, "x3")} <= required
        assert result.forced <= result.witness

    def test_alternating_signs_have_the_empty_witness(self):
        result = oracle_decide(level_two(2, -2))
        assert result.realizable
        assert result.witness == frozenset()

    def test_more_candidates_than_the_old_cap_still_get_a_verdict(self):
        result = oracle_decide(level_two(-1, 1, 2, -1, 1, 2))
        assert len(result.candidates) > 1
        assert not result.realizable

    def test_not_realizable_has_no_witness_and_nothing_forced(self):
        result = oracle_decide(level_two(1, 1))
        assert result.witness is None
        assert result.forced == frozenset()


def exhaustive(complex):
    """Every candidate subset whose addition makes d^2 vanish over R2,
    found by trying them all and checking each with differential_square."""
    candidates = candidate_arrows(complex)
    return [
        frozenset(subset)
        for size in range(len(candidates) + 1)
        for subset in itertools.combinations(candidates, size)
        if not differential_square(add_arrows(complex, subset))
    ]


def fork(routes, first, shift):
    """Generators w, z, y and ``routes`` more x, ids from ``first``, gradings
    moved by ``shift``. w -> U^2 z -> V y leaves the d^2 term U^2V from w to
    y, and each x, with x -> U y, offers the candidate w -> UV x to cancel it."""
    grades = [(0, 0), (3, -1), (2, 0)] + [(1, 1)] * routes
    gens = [
        Generator(f"g{first + i}", Grading(gu + shift, gv + shift))
        for i, (gu, gv) in enumerate(grades)
    ]
    w, z, y = first, first + 1, first + 2
    arrows = [Arrow(w, Monomial(2, 0), z), Arrow(z, Monomial(0, 1), y)]
    arrows += [Arrow(w + 3 + i, Monomial(1, 0), y) for i in range(routes)]
    return gens, arrows


class TestElimination:
    def test_forced_arrows_leave_out_what_a_kernel_vector_swaps(self):
        # Two routes cancel the first fork's term, one the second's; the
        # shift keeps the forks from offering candidates to each other.
        gens, arrows = fork(2, 0, 0)
        more_gens, more_arrows = fork(1, 5, -100)
        c = make_complex(R2, gens + more_gens, arrows + more_arrows)
        result = oracle_decide(c)
        witnesses = exhaustive(c)
        assert len(result.candidates) == 3
        assert len(witnesses) == 2
        assert result.witness in witnesses
        assert result.forced == frozenset.intersection(*witnesses)
        assert result.forced == {Arrow(5, Monomial(1, 1), 8)}

    def test_a_later_kernel_vector_keeps_the_earlier_ones(self):
        # a -> UV m1 and a -> UV m2 each cancel the one term a -> U^2V c, so
        # together they are a kernel vector; p -> UV q meets no arrow and is
        # one on its own, found after them. Neither a -> UV m is forced.
        names = ("a", "b", "c", "m1", "m2", "p", "q")
        grades = ((0, 0), (3, -1), (2, 0), (1, 1), (1, 1), (10, 10), (11, 11))
        gens = [Generator(x, Grading(*g)) for x, g in zip(names, grades)]
        arrows = [
            Arrow(0, Monomial(2, 0), 1),
            Arrow(1, Monomial(0, 1), 2),
            Arrow(3, Monomial(1, 0), 2),
            Arrow(4, Monomial(1, 0), 2),
        ]
        c = make_complex(R2, gens, arrows)
        assert degree_violations(c) == []
        assert differential_square(c) == ((0, Monomial(2, 1), 2),)
        result = oracle_decide(c)
        witnesses = exhaustive(c)
        assert result.candidates[-1] == Arrow(5, Monomial(1, 1), 6)
        assert result.witness in witnesses
        assert result.forced == frozenset.intersection(*witnesses) == frozenset()

    def test_agrees_with_exhaustive_search(self):
        for seq in census_sequences(2, 3):
            c = lift_to(build_standard(seq), R2)
            result = oracle_decide(c)
            witnesses = exhaustive(c)
            assert result.realizable == bool(witnesses), seq
            if witnesses:
                assert result.forced == frozenset.intersection(*witnesses), seq
                assert result.witness in witnesses, seq

    def test_witness_passes_the_independent_d2_check(self):
        certified = 0
        for seq in census_sequences(2, 3):
            c = lift_to(build_standard(seq), R2)
            result = oracle_decide(c)
            if result.realizable:
                assert differential_square(add_arrows(c, result.witness)) == (), seq
                certified += 1
        assert certified == 636

    def test_agrees_with_the_filler_far_beyond_the_old_cap(self):
        started = time.perf_counter()
        rng = random.Random(20231)
        ladder = (-1, 1, 2, -1, 1, 3)
        sequences = [ladder * (length // 6) for length in (96, 192, 384, 768, 1536)]
        for _ in range(200):
            n = rng.randint(8, 40)
            sequences.append(
                tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2 * n))
            )
        # Uniform sequences this long are rarely realizable, so chains of
        # short realizable rows exercise the forced-arrow containment.
        blocks = [
            seq.entries
            for seq in census_sequences(2, 3)
            if isinstance(partial_realize(build_standard(seq)), PartialRealization)
        ]
        for _ in range(100):
            n = rng.randint(8, 40)
            entries = ()
            while len(entries) < 2 * n:
                entries += rng.choice(blocks)
            sequences.append(entries[: 2 * n])
        over_old_cap = realizable = 0
        for entries in sequences:
            standard = build_standard(SignSequence(entries))
            outcome = partial_realize(standard)
            result = oracle_decide(lift_to(standard, R2))
            assert result.realizable == isinstance(outcome, PartialRealization), entries
            if result.realizable:
                assert added_arrows(outcome) <= result.forced, entries
                realizable += 1
            over_old_cap += len(result.candidates) > 20
        assert over_old_cap > len(sequences) // 2
        assert realizable >= 20
        assert time.perf_counter() - started < 3.0


class TestAgreementSample:
    @given(sign_sequences(max_n=3, max_abs=2))
    def test_oracle_matches_the_filler(self, seq):
        outcome = partial_realize(build_standard(seq))
        result = oracle_decide(lift_to(build_standard(seq), R2))
        assert result.realizable == isinstance(outcome, PartialRealization)
        if isinstance(outcome, PartialRealization):
            assert added_arrows(outcome) <= result.forced
        else:
            assert isinstance(outcome, NotRealizable)
