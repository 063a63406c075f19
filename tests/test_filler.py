import collections
import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import given

from tunnelfill import (
    Arrow,
    ConstructionError,
    ExtendedSignSequence,
    InternalError,
    Monomial,
    NotRealizable,
    PartialRealization,
    SignSequence,
    TunnelFillError,
    build_standard,
    decide,
    differential_square,
    filler,
    parse_sequence,
    rings,
)
from tunnelfill.census import census_sequences
from tunnelfill.filler import ForcedArrowEvent, fill_links, forced_response, partial_realize
from tunnelfill.rings import R1, R2, add_arrows, lift_to
from tunnelfill.standard import build_extended
from conftest import all_paths, id_of, make_complex, one_arrow_at_a_time, reduce_to, sign_sequences


def run(*entries):
    return decide(SignSequence(entries))


def added_by_name(outcome):
    c = outcome.complex
    return [
        (
            c.generators[e.added.source].name,
            e.added.monomial.u,
            e.added.monomial.v,
            c.generators[e.added.target].name,
            e.case_tag,
        )
        for e in outcome.added
    ]


def obstructions_by_name(outcome):
    c = outcome.partial_progress
    return [
        (
            c.generators[o.cause[0]].name,
            o.cause[1].u,
            o.cause[1].v,
            c.generators[o.cause[2]].name,
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
            (c.generators[a.source].name, a.monomial.u, a.monomial.v, c.generators[a.target].name)
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
        assert differential_square(outcome.complex) == ()

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
    c = build_standard(SignSequence((-1, 1, 2, -1, 1, 2)))
    x = functools.partial(id_of, c)
    cause = (x("x3"), Monomial(2, 1), x("x1"))
    path = (Arrow(x("x3"), Monomial(2, 0), x("x2")), Arrow(x("x2"), Monomial(0, 1), x("x1")))
    event = forced_response(c.links, cause, path)
    assert event.added == Arrow(x("x3"), Monomial(1, 1), x("x0"))
    assert event.case_tag == "horizontal-first"

    c = build_standard(SignSequence((-1, 1, 2, -1, 1, 3)))
    x = functools.partial(id_of, c)
    cause = (x("x6"), Monomial(1, 3), x("x4"))
    path = (Arrow(x("x6"), Monomial(0, 3), x("x5")), Arrow(x("x5"), Monomial(1, 0), x("x4")))
    event = forced_response(c.links, cause, path)
    assert event.added == Arrow(x("x6"), Monomial(1, 2), x("x3"))
    assert event.case_tag == "vertical-first"

    c = build_standard(SignSequence((1, 1)))
    x = functools.partial(id_of, c)
    cause = (x("x2"), Monomial(1, 1), x("x0"))
    path = (Arrow(x("x2"), Monomial(0, 1), x("x1")), Arrow(x("x1"), Monomial(1, 0), x("x0")))
    response = forced_response(c.links, cause, path)
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
        # Its stages have several causes each, so one arrow at a time can
        # leave a stage's terms open while a later stage's appear.
        ladder = (-1, 1, 2, -1, 1, 3) * 2
        realizable.append((ladder, decide(SignSequence(ladder)).complex.arrows))
        for entries, expected in realizable:
            chain = build_standard(SignSequence(entries))
            for trial in range(10):
                shuffler = random.Random(hash((entries, trial)))
                outcome = one_arrow_at_a_time(chain, shuffler)
                assert isinstance(outcome, PartialRealization)
                assert outcome.complex.arrows == expected

    def test_events_come_by_stage_then_sorted_by_cause(self):
        # Stage 1 adds the first four arrows, stage 2 the last.
        outcome = decide(SignSequence((-1, 1, 2, -1, 1, 3) * 2))
        assert isinstance(outcome, PartialRealization)
        gens = outcome.complex.generators
        causes = [
            (gens[x].name, m.u, m.v, gens[y].name)
            for x, m, y in (e.cause for e in outcome.added)
        ]
        assert list(zip(added_by_name(outcome), causes)) == [
            (("x3", 1, 1, "x0", "horizontal-first"), ("x3", 2, 1, "x1")),
            (("x6", 1, 2, "x3", "vertical-first"), ("x6", 1, 3, "x4")),
            (("x9", 1, 1, "x6", "horizontal-first"), ("x9", 2, 1, "x7")),
            (("x12", 1, 2, "x9", "vertical-first"), ("x12", 1, 3, "x10")),
            (("x10", 1, 3, "x5", "vertical-second"), ("x9", 1, 4, "x5")),
        ]


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



def assert_stage_matches(causes, complex):
    """``causes`` are exactly the verifier's d^2 terms of ``complex``, each
    with its one and only path as witness."""
    assert set(causes) == set(differential_square(complex))
    paths = all_paths(complex)
    for cause, witness in causes.items():
        assert paths[cause] == [witness], cause


def assert_every_stage_matches(chain):
    """Decide ``chain`` and check the causes of each of its stages, as the
    path table gave them, against the complex the filler had reached by
    then. Returns the outcome and the stages' causes; the last stage's are
    the obstructed ones, or none."""
    stages = []
    file_paths = filler._file_paths

    def recording(*args):
        causes = file_paths(*args)
        stages.append(causes)
        return causes

    filler._file_paths = recording
    try:
        outcome = partial_realize(chain)
    finally:
        filler._file_paths = file_paths
    current = lift_to(chain, R2)
    for i, causes in enumerate(stages):
        assert_stage_matches(causes, current)
        # A UV term takes both analyses, and neither can yield an arrow: its
        # budget of 1 is too short for any link.
        for cause, path in causes.items():
            if (cause[1].u, cause[1].v) == (1, 1):
                response = forced_response(chain.links, cause, path)
                assert isinstance(response, list) and len(response) == 2
        if i + 1 < len(stages):
            added = [forced_response(chain.links, c, p).added for c, p in causes.items()]
            current = add_arrows(current, added, color="added")
    if isinstance(outcome, PartialRealization):
        assert stages[-1] == {}
        assert current == outcome.complex
    else:
        assert stages[-1]
        assert current == outcome.partial_progress
    return outcome, stages


def small_census():
    """Every sequence with n <= 2, |a| <= 4 and with n = 3, |a| <= 3."""
    yield from census_sequences(2, 4)
    values = [a for a in range(-3, 4) if a != 0]
    for entries in itertools.product(values, repeat=6):
        yield SignSequence(entries)


class TestStageCauses:
    """Each stage's causes, from the link stage on, are the verifier's d^2
    terms of the complex reached so far, each with its only path."""

    def test_link_stage_is_the_square_of_the_standard_complex(self):
        with_terms = 0
        for seq in small_census():
            _, stages = assert_every_stage_matches(build_standard(seq))
            with_terms += bool(stages[0])
        assert with_terms > 10_000

    def test_link_stage_is_the_square_of_the_extended_complex(self):
        ends = [a for a in range(-3, 4) if a != 0]
        for body in census_sequences(2, 2):
            for head, tail in itertools.product(ends, repeat=2):
                assert_every_stage_matches(
                    build_extended(ExtendedSignSequence(head, body, tail))
                )

    def test_path_stage_on_obstructed_partial_progress(self):
        checked = 0
        for seq in itertools.islice(small_census(), 0, None, 7):
            outcome, stages = assert_every_stage_matches(build_standard(seq))
            if isinstance(outcome, NotRealizable):
                assert_stage_matches(stages[-1], outcome.partial_progress)
                checked += 1
        assert checked > 1_000

    def test_path_stage_at_every_stage_of_the_ladder(self):
        for k in (1, 2, 8, 32):
            seq = SignSequence((-1, 1, 2, -1, 1, 3) * k)
            outcome, stages = assert_every_stage_matches(build_standard(seq))
            assert isinstance(outcome, PartialRealization)
            assert outcome == decide(seq)
            assert len(stages) - 1 == (2 if k > 1 else 1)

    def test_path_stage_cancels_pairs_and_rejects_odd_repeats(self):
        u, v = Monomial(1, 0), Monomial(0, 1)
        paths = [(Arrow(0, u, m), Arrow(m, v, 4)) for m in (1, 2, 3)]
        cause = (0, Monomial(1, 1), 4)
        table = {}
        causes = filler._file_paths(table, paths[:1])
        assert causes == {cause: paths[0]}
        # A pair is filed in the order its arrows form a path.
        first, second = paths[1]
        assert filler._file_paths(table, [(second, first)]) == {}
        assert table == {cause: None}
        with pytest.raises(InternalError, match="3 contributing paths"):
            filler._file_paths(table, paths[2:])
        straight = (Arrow(0, u, 1), Arrow(1, u, 2))
        with pytest.raises(InternalError, match="zero exponent"):
            filler._file_paths({}, [straight])
        diagonal = Monomial(1, 1)
        vanishing = (Arrow(0, diagonal, 1), Arrow(1, diagonal, 2))
        no_path = (Arrow(1, u, 0), Arrow(1, v, 2))
        table = {}
        assert filler._file_paths(table, [vanishing, no_path]) == {}
        assert table == {}

    def test_the_links_core_matches_partial_realize_on_extended_complexes(self):
        ends = [a for a in range(-3, 4) if a != 0]
        stopped = 0
        for body in census_sequences(2, 2):
            for head, tail in itertools.product(ends, repeat=2):
                chain = build_extended(ExtendedSignSequence(head, body, tail))
                added, obstructions = fill_links(chain.links)
                outcome = partial_realize(chain)
                if isinstance(outcome, PartialRealization):
                    assert tuple(added.values()) == outcome.added
                    assert obstructions == ()
                    assert outcome.complex.arrows == chain.arrows | set(added)
                else:
                    assert obstructions == outcome.obstructions
                    assert set(added) == outcome.partial_progress.arrows - chain.arrows
                    stopped += 1
                assert list(added) == [e.added for e in added.values()]
        assert stopped > 1_000

    def test_one_arrow_forced_twice_in_a_stage_is_refused(self, monkeypatch):
        # Every event carries the first event's arrow, so the first stage of
        # the ladder forces one arrow four times.
        arrows = []
        respond = filler.forced_response

        def same_arrow(links, cause, path):
            response = respond(links, cause, path)
            if isinstance(response, ForcedArrowEvent):
                arrows.append(response.added)
                response = dataclasses.replace(response, added=arrows[0])
            return response

        monkeypatch.setattr(filler, "forced_response", same_arrow)
        links = build_standard(SignSequence((-1, 1, 2, -1, 1, 3) * 2)).links
        with pytest.raises(InternalError, match="already present"):
            fill_links(links)
        assert len(arrows) == 2

    def test_a_complex_without_links_is_refused(self):
        chain = build_standard(SignSequence((-1, 1, 2, -1, 1, 3)))
        copy = make_complex(chain.ring, chain.generators, chain.arrows)
        with pytest.raises(ConstructionError, match="build_standard or build_extended"):
            partial_realize(copy)

    def test_builders_record_links_outside_equality_and_repr(self):
        seq = SignSequence((-1, 1, 2, -1, 1, 3))
        for c in (build_standard(seq), build_extended(ExtendedSignSequence(2, seq, -1))):
            plain = make_complex(c.ring, c.generators, c.arrows)
            assert c == plain
            assert "links" not in repr(c)
            assert plain.links is None
            assert set(c.links) == c.arrows
            ends = [{a.source, a.target} for a in c.links]
            assert ends == [{j, j + 1} for j in range(len(c.links))]


class TestNoSquareInTheFiller:
    @pytest.fixture(autouse=True)
    def square_raises(self, monkeypatch):
        def refuse(complex):
            raise AssertionError("the filler computed d^2")

        monkeypatch.setattr(rings, "differential_square", refuse)
        assert not hasattr(filler, "differential_square")

    def test_stage_one_obstruction_builds_no_index(self):
        outcome = run(1, 1)
        assert isinstance(outcome, NotRealizable)
        assert obstructions_by_name(outcome) == [("x2", 1, 1, "x0", "no-adjacent-arrow")]
        assert "outgoing" not in outcome.partial_progress.__dict__
        assert "incoming" not in outcome.partial_progress.__dict__

    def test_no_term_builds_no_index(self):
        outcome = run(2, -3, 1, -1)
        assert isinstance(outcome, PartialRealization)
        assert outcome.added == ()
        assert "outgoing" not in outcome.complex.__dict__
        assert "incoming" not in outcome.complex.__dict__

    def test_later_stages_take_the_path_pass(self):
        outcome = run(-1, 1, 2, -1, 1, 3)
        assert isinstance(outcome, PartialRealization)
        assert len(outcome.added) == 2

    def test_multi_stage_decision_builds_no_index(self):
        # Five arrows over two stages, as TestStageCauses checks on the
        # same ladder.
        chain = build_standard(SignSequence((-1, 1, 2, -1, 1, 3) * 2))
        outcome = partial_realize(chain)
        assert isinstance(outcome, PartialRealization)
        assert len(outcome.added) == 5
        for c in (chain, outcome.complex):
            assert "outgoing" not in c.__dict__
            assert "incoming" not in c.__dict__


class TestTheFirstGenerator:
    """Id 0 has one link, links[0]."""

    def test_an_arrow_forced_along_link_0_cancels_its_cause_there(self):
        # x3 -> U^2 x2 -> V x1 forces x3 -> UV x0 along x0 -> U x1, and the
        # second path for the term runs through x0.
        links = build_standard(SignSequence((-1, 1, 2, -2))).links
        table = {}
        causes = filler._file_paths(table, zip(links, links[1:]))
        cause = (3, Monomial(2, 1), 1)
        event = forced_response(links, cause, causes[cause])
        assert event.added == Arrow(3, Monomial(1, 1), 0)
        assert filler._file_paths(table, filler._link_neighbours(links, [event.added])) == {}
        assert table[cause] is None

    def test_no_analysis_at_id_0_seeks_the_kind_of_link_0(self, monkeypatch):
        sought = []
        unique_adjacent = filler._unique_adjacent

        def recording(links, gid, horizontal):
            if gid == 0:
                sought.append(links[0].monomial.is_horizontal == horizontal)
            return unique_adjacent(links, gid, horizontal)

        monkeypatch.setattr(filler, "_unique_adjacent", recording)
        # Among these, several hundred pivots at id 0 are reached along an
        # arrow added there, the rest along links[0].
        ends = [a for a in range(-3, 4) if a != 0]
        for seq in census_sequences(2, 4):
            fill_links(build_standard(seq).links)
        for body in census_sequences(2, 2):
            for head, tail in itertools.product(ends, repeat=2):
                fill_links(build_extended(ExtendedSignSequence(head, body, tail)).links)
        assert len(sought) > 1_000
        assert not any(sought)


class TestOneConstructionPerDecision:
    """A decision builds one checked complex, the chain. Its outcome shares
    the chain's generators, and its arrow set when nothing was added, and
    checks the ends of only the added arrows."""

    @pytest.mark.parametrize(
        "text, realizable",
        [
            ("-1,1,2,-1,1,3", True),
            ("-1,1,2,-1,1,2", False),
            ("5 | -1,1,2,-2,-1,1 | -5", True),
            ("3 | -1,1,2,-1,1,2 | -4", False),
        ],
    )
    def test_decide_builds_the_chain_and_its_outcome(
        self, monkeypatch, text, realizable
    ):
        built = []
        init = rings.BasedComplex.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(rings.BasedComplex, "__init__", counting)
        outcome = decide(parse_sequence(text))
        assert isinstance(outcome, PartialRealization) == realizable
        # Every case adds arrows, obstructed or not.
        result = outcome.complex if realizable else outcome.partial_progress
        assert result.colors
        assert built == [R1]

    @staticmethod
    def assert_outcome_as_if_built(chain):
        outcome = partial_realize(chain)
        if isinstance(outcome, PartialRealization):
            result, added = outcome.complex, [e.added for e in outcome.added]
        else:
            result = outcome.partial_progress
            added = sorted(result.arrows - chain.arrows)
        colors = dict.fromkeys(added, filler.ADDED_COLOR)
        built = rings.BasedComplex(R2, chain.generators, chain.arrows | set(added), colors)
        assert result == built
        assert (result.ring, result.generators) == (R2, chain.generators)
        assert result.arrows == built.arrows
        assert result.colors == colors
        assert result.generators is chain.generators
        if not added:
            assert result.arrows is chain.arrows
        assert result.links is None
        assert "outgoing" not in result.__dict__
        assert "incoming" not in result.__dict__
        return bool(added)

    def test_outcome_equals_the_checked_complex(self):
        # Outcomes with and without added arrows, per kind of chain.
        counts = collections.Counter()
        for seq in census_sequences(2, 3):
            counts["standard", self.assert_outcome_as_if_built(build_standard(seq))] += 1
            n = seq.max_abs + 2
            extended = build_extended(ExtendedSignSequence(n, seq, -n))
            counts["extended", self.assert_outcome_as_if_built(extended)] += 1
        # Seeded random chains of 2-200 entries: uniform entries, which
        # nearly always stop at stage 1 with nothing added, and runs of short
        # sequences that lift by adding arrows, which add arrows more often.
        rng = random.Random(37)
        pieces = [
            seq.entries
            for seq in census_sequences(2, 3)
            if isinstance(outcome := decide(seq), PartialRealization) and outcome.added
        ]
        for _ in range(200):
            count = 2 * rng.randint(1, 100)
            entries = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(count)]
            chain = build_standard(SignSequence(entries))
            counts["uniform", self.assert_outcome_as_if_built(chain)] += 1
            entries = []
            while len(entries) < count:
                entries += rng.choice(pieces)
            chain = build_standard(SignSequence(entries[:count]))
            counts["runs", self.assert_outcome_as_if_built(chain)] += 1
        assert len(counts) == 8
        assert min(counts.values()) > 0
        assert counts["runs", True] > 10

    @pytest.mark.parametrize("missing", [-1, 7, 1_000])
    def test_an_added_arrow_to_a_missing_id_is_refused(self, monkeypatch, missing):
        respond = filler.forced_response

        def stray(links, cause, path):
            response = respond(links, cause, path)
            if isinstance(response, ForcedArrowEvent):
                source, monomial, _ = response.added
                response = dataclasses.replace(response, added=Arrow(source, monomial, missing))
            return response

        monkeypatch.setattr(filler, "forced_response", stray)
        outcomes = []
        with pytest.raises(TunnelFillError, match=f"no generator with id {missing}"):
            outcomes.append(decide(parse_sequence("-1,1,2,-1,1,3")))
        assert outcomes == []
