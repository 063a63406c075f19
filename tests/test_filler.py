import itertools
import random

from hypothesis import given

from tunnelfill import (
    Monomial,
    NotRealizable,
    PartialRealization,
    R1,
    SignSequence,
    build_standard,
    canonicalize_schedule,
    decide,
    differential_square,
    forced_response,
    lift_to,
    reduce_to,
)
from conftest import sign_sequences


def run(*entries, scheduler=None):
    return decide(SignSequence(entries), scheduler=scheduler)


def added_by_name(outcome):
    c = outcome.complex
    return [
        (
            c.generator(e.added.source).name,
            e.added.monomial.u,
            e.added.monomial.v,
            c.generator(e.added.target).name,
            e.case_tag,
        )
        for e in outcome.added
    ]


def obstructions_by_name(outcome):
    c = outcome.partial_progress
    return [
        (
            c.generator(o.cause[0]).name,
            o.cause[1].u,
            o.cause[1].v,
            c.generator(o.cause[2]).name,
            o.reason,
        )
        for o in outcome.obstructions
    ]


class TestWorkedExamples:
    def test_obstructed_staircase(self):
        outcome = run(-1, 1, 2, -1, 1, 2)
        assert isinstance(outcome, NotRealizable)
        c = outcome.partial_progress
        added = {
            (c.generator(a.source).name, a.monomial.u, a.monomial.v, c.generator(a.target).name)
            for a in c.arrows
            if c.colors.get(a) == "added"
        }
        assert added == {("x3", 1, 1, "x0"), ("x6", 1, 1, "x3")}
        assert obstructions_by_name(outcome) == [("x6", 3, 1, "x2", "no-adjacent-arrow")]

    def test_liftable_staircase(self):
        outcome = run(-1, 1, 2, -1, 1, 3)
        assert isinstance(outcome, PartialRealization)
        assert added_by_name(outcome) == [
            ("x3", 1, 1, "x0", "horizontal-first"),
            ("x6", 1, 2, "x3", "vertical-first"),
        ]
        assert differential_square(outcome.complex) == {}

    def test_unit_corner(self):
        outcome = run(1, 1)
        assert isinstance(outcome, NotRealizable)
        assert obstructions_by_name(outcome) == [("x2", 1, 1, "x0", "no-adjacent-arrow")]

    def test_too_long_adjacent_arrow(self):
        outcome = run(2, 1, -3, 1)
        assert isinstance(outcome, NotRealizable)
        assert ("x2", 2, 1, "x0", "insufficient-length") in obstructions_by_name(outcome)

    def test_wrong_direction(self):
        outcome = run(-8, 2, 1, 2)
        assert isinstance(outcome, NotRealizable)
        reasons = {entry[4] for entry in obstructions_by_name(outcome)}
        assert reasons == {"wrong-direction"}


def test_forced_response_cases():
    from tunnelfill import R2, Arrow, lift_to

    c = lift_to(build_standard(SignSequence((-1, 1, 2, -1, 1, 2))), R2)
    x = c.id_of
    cause = (x("x3"), Monomial(2, 1), x("x1"))
    path = (Arrow(x("x3"), Monomial(2, 0), x("x2")), Arrow(x("x2"), Monomial(0, 1), x("x1")))
    event = forced_response(c, cause, path)
    assert event.added == Arrow(x("x3"), Monomial(1, 1), x("x0"))
    assert event.case_tag == "horizontal-first"

    c = lift_to(build_standard(SignSequence((-1, 1, 2, -1, 1, 3))), R2)
    x = c.id_of
    cause = (x("x6"), Monomial(1, 3), x("x4"))
    path = (Arrow(x("x6"), Monomial(0, 3), x("x5")), Arrow(x("x5"), Monomial(1, 0), x("x4")))
    event = forced_response(c, cause, path)
    assert event.added == Arrow(x("x6"), Monomial(1, 2), x("x3"))
    assert event.case_tag == "vertical-first"

    c = lift_to(build_standard(SignSequence((1, 1))), R2)
    x = c.id_of
    cause = (x("x2"), Monomial(1, 1), x("x0"))
    path = (Arrow(x("x2"), Monomial(0, 1), x("x1")), Arrow(x("x1"), Monomial(1, 0), x("x0")))
    response = forced_response(c, cause, path)
    assert isinstance(response, list)
    assert {o.reason for o in response} == {"no-adjacent-arrow"}


class TestEasyFamilies:
    @given(sign_sequences(max_n=3, max_abs=4))
    def test_alternating_signs_need_no_arrows(self, seq):
        entries = seq.entries
        alternating = tuple(
            abs(a) if i % 2 == 0 else -abs(a) for i, a in enumerate(entries)
        )
        outcome = decide(SignSequence(alternating))
        assert isinstance(outcome, PartialRealization)
        assert outcome.added == ()

    @given(sign_sequences(max_n=3, max_abs=4))
    def test_long_arrows_always_lift(self, seq):
        entries = tuple(a + 1 if a > 0 else a - 1 for a in seq.entries)
        outcome = decide(SignSequence(entries))
        assert isinstance(outcome, PartialRealization)

    def test_added_arrows_are_unit_diagonals_and_die_mod_uv(self):
        for entries in [(-1, 1, 2, -1, 1, 3), (-1, 1, 3, -1, 1, 4), (3, -1, 1, -3)]:
            outcome = decide(SignSequence(entries))
            assert isinstance(outcome, PartialRealization)
            for event in outcome.added:
                assert event.added.monomial.min_exp == 1
            assert reduce_to(outcome.complex, R1) == build_standard(
                SignSequence(entries)
            )


class TestOrderIndependence:
    def test_schedules_agree_on_final_arrows(self):
        rng = random.Random(20240811)
        realizable = []
        while len(realizable) < 12:
            n = rng.randint(1, 3)
            entries = tuple(
                rng.choice([a for a in range(-4, 5) if a != 0]) for _ in range(2 * n)
            )
            outcome = decide(SignSequence(entries))
            if isinstance(outcome, PartialRealization) and outcome.added:
                realizable.append((entries, outcome.complex.arrows))
        for entries, expected in realizable:
            for trial in range(10):
                shuffler = random.Random(hash((entries, trial)))

                def one_at_a_time(pending):
                    return [pending[shuffler.randrange(len(pending))]]

                outcome = decide(SignSequence(entries), scheduler=one_at_a_time)
                assert isinstance(outcome, PartialRealization)
                assert outcome.complex.arrows == expected

    def test_canonical_schedule_sorts(self):
        causes = [(3, Monomial(1, 2), 0), (1, Monomial(2, 1), 0)]
        assert canonicalize_schedule(causes) == (causes[1], causes[0])
        assert canonicalize_schedule([]) == ()


class TestDeterminismAndBounds:
    def test_rerun_gives_equal_obstructions(self):
        first = run(-1, 1, 2, -1, 1, 2)
        second = run(-1, 1, 2, -1, 1, 2)
        assert first.obstructions == second.obstructions

    def test_arrow_budget_over_small_census(self):
        for entries in itertools.product([-2, -1, 1, 2], repeat=4):
            outcome = decide(SignSequence(entries))
            if isinstance(outcome, PartialRealization):
                n = 2
                assert len(outcome.added) <= n * n + n


def violates_substring_rule(entries) -> bool:
    triples = [entries[i : i + 3] for i in range(len(entries) - 2)]
    for a, mid, b in triples:
        if mid == 1:
            if b > 0 and not (-b < a < 0):
                return True
            if a > 0 and not (-a < b < 0):
                return True
        if mid == -1:
            # mirror image under reversing and negating the sequence
            if a < 0 and not (0 < b < -a):
                return True
            if b < 0 and not (0 < a < -b):
                return True
    return False


class TestSubstringRule:
    def test_rule_implies_not_realizable(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(400):
            n = rng.randint(2, 3)
            entries = tuple(
                rng.choice([a for a in range(-4, 5) if a != 0]) for _ in range(2 * n)
            )
            if not violates_substring_rule(entries):
                continue
            checked += 1
            assert isinstance(decide(SignSequence(entries)), NotRealizable), entries
        assert checked > 30

    def test_paper_instances(self):
        assert isinstance(run(2, 1, -3, 1), NotRealizable)
        assert isinstance(run(-8, 2, 1, 2), NotRealizable)
