import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tunnelfill import (
    Arrow,
    ConstructionError,
    ExtendedSignSequence,
    ExtensionError,
    InternalError,
    Monomial,
    NotRealizable,
    PartialRealization,
    SignSequence,
    build_standard,
    check_correct_homology,
    check_symmetry,
    decide,
    degree_violations,
    differential_square,
    realize,
    serialize,
)
from tunnelfill import builder, lattice, standard
from tunnelfill.builder import double, extend_and_realize, glue, glue_offset, staircase
from tunnelfill.census import census_sequences
from tunnelfill.filler import partial_realize
from tunnelfill.homology import has_correct_homology
from tunnelfill.rings import R1, R2, RINF, lift_to
from tunnelfill.standard import build_extended
from conftest import (
    find_based_isomorphism,
    id_of,
    make_complex,
    reduce_to,
    sign_sequences,
    subcomplex,
    translated_onto,
    undirected_components,
)

EXAMPLE = SignSequence((-1, 1, 2, -1, 1, 3))
LADDER = EXAMPLE.entries * 4
MIRRORED_LADDER = LADDER + tuple(-a for a in reversed(LADDER))


def long_sequences():
    """The worked example repeated 1, 4 and 16 times, the mirrored 48-entry
    ladder, then one seeded sequence for each n in 1..40 from the families
    criterion 1 proves realizable: alternating signs with magnitudes 1-4, or
    any signs with magnitudes 2-4, every other one mirrored."""
    yield from (EXAMPLE.entries, LADDER, EXAMPLE.entries * 16, MIRRORED_LADDER)
    rng = random.Random(35)
    for n in range(1, 41):
        mirrored = n % 2 == 0
        count = n if mirrored else 2 * n
        if n % 4 < 2:
            sign = rng.choice((-1, 1))
            entries = [sign * (-1) ** i * rng.randint(1, 4) for i in range(count)]
        else:
            entries = [rng.choice((-1, 1)) * rng.randint(2, 4) for _ in range(count)]
        if mirrored:
            entries += [-a for a in reversed(entries)]
        yield tuple(entries)


@st.composite
def realizable_sequences(draw, max_n: int = 12):
    """Up to 2 * max_n entries from the families of ``long_sequences``."""
    count = 2 * draw(st.integers(1, max_n))
    if draw(st.booleans()):
        sign = draw(st.sampled_from((-1, 1)))
        sizes = draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
        return SignSequence(sign * (-1) ** i * a for i, a in enumerate(sizes))
    signed = st.sampled_from((-4, -3, -2, 2, 3, 4))
    return SignSequence(draw(st.lists(signed, min_size=count, max_size=count)))


def assert_on_the_staircase(seq):
    """The staircase of ``seq`` is the lattice search's placement of its
    doubled complex, and every arrow there is its source's place less its
    target's."""
    doubled = double(extend_and_realize(seq).complex)
    place = staircase(seq)
    assert dict(enumerate(place)) == lattice.lattice_positions(doubled)
    for a in doubled.arrows:
        (sc, sr), (tc, tr) = place[a.source], place[a.target]
        assert (a.monomial.u, a.monomial.v) == (sc - tc, sr - tr), a


def lift_at(seq, n):
    """The filler's outcome on C(n | seq | -n)."""
    return decide(ExtendedSignSequence(n, seq, -n))


class TestGlueOffset:
    def test_worked_example(self):
        assert glue_offset(EXAMPLE) == 1

    def test_alternating_signs_cancel(self):
        assert glue_offset(SignSequence((3, -1, 2, -4))) == 0

    @given(sign_sequences())
    def test_half_the_sign_sum(self, seq):
        assert 2 * glue_offset(seq) == seq.sign_sum()


class TestExtension:
    def test_worked_example_lift(self):
        lifted = lift_at(EXAMPLE, 4)
        c = lifted.complex
        added = {
            (c.generators[e.added.source].name, e.added.monomial.u,
             e.added.monomial.v, c.generators[e.added.target].name)
            for e in lifted.added
        }
        assert added == {
            ("x3", 1, 1, "x0"),
            ("x6", 1, 2, "x3"),
            ("x4", 1, 4, "x-1"),
        }

    def test_long_arrow_sequences_lift_at_the_minimum(self):
        # max|a_i| + 1, one step below the length realize uses.
        lifted = lift_at(SignSequence((2, 2, -3, 2)), 4)
        assert isinstance(lifted, PartialRealization)
        assert differential_square(lifted.complex) == ()

    def test_default_lengths_lift_every_small_realizable_sequence(self):
        # At max|a_i| + 1, 84 of these sequences keep a unit gap at the seam
        # and do not lift; max|a_i| + 2 lifts all of them.
        lifted = short = 0
        for seq in census_sequences(2, 4):
            if isinstance(partial_realize(build_standard(seq)), NotRealizable):
                continue
            extend_and_realize(seq)
            lifted += 1
            short += isinstance(lift_at(seq, seq.max_abs + 1), NotRealizable)
        assert lifted == 2416
        assert short == 84

    def test_unit_gap_at_the_seam_needs_elongation(self):
        # The added end diagonal next to a maximal vertical arrow keeps a
        # unit exponent at the minimum margin, leaving an uncancellable
        # corner; one extra step of margin removes it.
        seq = SignSequence((1, -2, 2, -1))
        assert isinstance(lift_at(seq, 3), NotRealizable)
        assert differential_square(lift_at(seq, 4).complex) == ()
        assert not isinstance(realize(seq), NotRealizable)

    def test_a_failed_lift_raises_extension_error_with_its_obstructions(self, monkeypatch):
        # No known input fails to lift at max|a_i| + 2, so the failure is
        # the filler's outcome at the published length.
        seq = SignSequence((1, -2, 2, -1))
        short = lift_at(seq, 3)
        monkeypatch.setattr(builder, "decide", lambda ext: short)
        with pytest.raises(ExtensionError) as caught:
            extend_and_realize(seq)
        assert caught.value.obstructions == short.obstructions
        assert len(caught.value.obstructions) == 2


class TestDoubling:
    def test_worked_example_structure(self):
        lifted = lift_at(EXAMPLE, 4)
        c = double(lifted.complex)
        assert len(c.generators) == 2 * len(lifted.complex.generators)

        greens = sorted(
            (c.generators[a.source].name, a.monomial.u, a.monomial.v,
             c.generators[a.target].name)
            for a in c.arrows
            if c.colors.get(a) == "green"
        )
        assert greens == [
            ("x5", 1, 3, "y-1"),
            ("x6", 1, 2, "y0"),
            ("x6", 2, 1, "y2"),
        ]
        blues = [a for a in c.arrows if c.colors.get(a) == "blue"]
        assert len(blues) == len(lifted.complex.generators)
        for a in blues:
            assert (a.monomial.u, a.monomial.v) == (1, 1)
            assert c.generators[a.source].name == "y" + c.generators[a.target].name[1:]

    def test_doubled_gradings_shift_by_one_one(self):
        lifted = lift_at(EXAMPLE, 4)
        c = double(lifted.complex)
        count = len(c.generators) // 2
        for x_id, y_id in zip(range(count), range(count, 2 * count)):
            gx, gy = c.generators[x_id].grading, c.generators[y_id].grading
            assert (gy.gu, gy.gv) == (gx.gu - 1, gx.gv - 1)

    def test_doubled_complex_is_a_chain_complex_over_the_full_ring(self):
        for entries in [(-1, 1, 2, -1, 1, 3), (2, 2), (2, -2)]:
            seq = SignSequence(entries)
            lifted = extend_and_realize(seq)
            doubled = double(lifted.complex)
            assert differential_square(doubled) == ()
            assert degree_violations(doubled) == []

    def test_rejects_inputs_that_are_not_chain_complexes(self):
        with pytest.raises(ConstructionError):
            double(lift_to(build_standard(SignSequence((1, 1))), R2))

    def test_reduction_splits_into_two_extended_copies(self):
        for entries in [(-1, 1, 2, -1, 1, 3), (2, 2)]:
            seq = SignSequence(entries)
            lifted = extend_and_realize(seq)
            reduced = reduce_to(double(lifted.complex), R1)
            pieces = undirected_components(reduced)
            assert len(pieces) == 2
            n = seq.max_abs + 2
            reference = build_extended(ExtendedSignSequence(n, seq, -n))
            for piece in pieces:
                part = subcomplex(reduced, piece)
                assert (
                    find_based_isomorphism(translated_onto(part, reference), reference)
                    is not None
                )

    def test_color_pairings_cancel_every_term(self):
        # Two-step paths must cancel in pairs whose colors follow the
        # doubling scheme: black/black with itself or with green-then-blue,
        # black-then-green with green-then-red, red/red with itself or with
        # blue-then-green, and red-then-blue with blue-then-black.
        seq = SignSequence((2, 2))
        lifted = extend_and_realize(seq)
        c = double(lifted.complex)
        out = c.outgoing
        paths = Counter()
        for first in c.arrows:
            for second in out.get(first.target, ()):
                key = (first.source, first.monomial * second.monomial, second.target)
                pair = (c.colors.get(first), c.colors.get(second))
                paths[(key, pair)] += 1

        terms = {key for key, _ in paths}
        for term in terms:
            counts = Counter()
            for (key, pair), count in paths.items():
                if key == term:
                    counts[pair] += count
            assert sum(counts.values()) % 2 == 0, term
            assert counts[("black", "green")] == counts[("green", "red")]
            assert counts[("red", "blue")] == counts[("blue", "black")]
            assert counts[("green", "blue")] <= counts[("black", "black")]
            assert (counts[("black", "black")] - counts[("green", "blue")]) % 2 == 0
            assert counts[("blue", "green")] <= counts[("red", "red")]
            assert (counts[("red", "red")] - counts[("blue", "green")]) % 2 == 0


class TestGluing:
    def test_generator_count(self):
        for entries in [(-1, 1, 2, -1, 1, 3), (2, 2), (2, -2)]:
            seq = SignSequence(entries)
            glued = realize(seq)
            assert len(glued.generators) == 4 * (len(seq.entries) // 2) + 5

    def test_worked_example_seam(self):
        glued = realize(EXAMPLE)
        z = id_of(glued, "z")
        into_z = sorted(
            glued.generators[a.source].name for a in glued.arrows if a.target == z
        )
        assert into_z == ["x0", "x4", "x6", "y-1", "y7"]
        assert not [a for a in glued.arrows if a.source == z]

    def test_anchored_homology_generators(self):
        glued = realize(EXAMPLE)
        u_side, v_side = check_correct_homology(glued)
        assert u_side.verdict and v_side.verdict
        assert glued.generators[id_of(glued, "x0")].grading.gu == 0
        assert glued.generators[id_of(glued, "x6")].grading.gv == 0

    def test_mod_uv_reduction_contains_the_standard_summand(self):
        seq = SignSequence((2, 2))
        glued = realize(seq)
        reduced = reduce_to(glued, R1)
        pieces = undirected_components(reduced)
        assert len(pieces) == 2
        standard = build_standard(seq)
        with_x0 = next(p for p in pieces if id_of(reduced, "x0") in p)
        part = subcomplex(reduced, with_x0)
        assert find_based_isomorphism(part, standard) is not None

    @pytest.mark.parametrize(
        "entries, placed, kept",
        # Both have offset 0: in 1,-1 two sources reach both ends with the
        # same monomial, in 1,-3 one does.
        [((1, -1), 17, 13), ((1, -3), 16, 14)],
    )
    def test_coinciding_arrows_cancel(self, entries, placed, kept):
        # glue places each arrow of the doubled complex once; an arrow placed
        # twice is x + x = 0 and leaves the glued complex, color and all.
        seq = SignSequence(entries)
        doubled = double(extend_and_realize(seq).complex)
        glued = glue(doubled, seq)
        assert len(doubled.arrows) == placed
        assert len(glued.generators) == 9
        assert len(glued.arrows) == kept
        assert glued.colors.keys() == glued.arrows
        assert differential_square(glued) == ()

    def test_arrow_off_the_placement_is_refused(self):
        # A second y2 -> x2 arrow one diagonal step longer than the blue one
        # has no planar place; reading its monomial off the placement makes
        # it collide with the blue arrow, and the output checks refuse that.
        c = double(extend_and_realize(EXAMPLE).complex)
        y2, x2 = id_of(c, "y2"), id_of(c, "x2")
        shifted = make_complex(
            RINF, c.generators, [*c.arrows, Arrow(y2, Monomial(2, 2), x2)], c.colors
        )
        with pytest.raises(InternalError):
            glue(shifted, EXAMPLE)

    def test_an_arrow_against_the_placement_is_refused(self):
        # x2 -> UV y2 runs against the blue y2 -> UV x2: the placement puts
        # y2 above and right of x2, so the arrow's exponents come out negative.
        c = double(extend_and_realize(EXAMPLE).complex)
        x2, y2 = id_of(c, "x2"), id_of(c, "y2")
        reversed_blue = make_complex(
            RINF, c.generators, [*c.arrows, Arrow(x2, Monomial(1, 1), y2)], c.colors
        )
        with pytest.raises(InternalError, match=r"^placement forces exponents \(-1, -1\)$"):
            glue(reversed_blue, EXAMPLE)


class TestStaircase:
    def test_worked_example(self):
        # C(5 | -1,1,2,-1,1,3 | -5): x_-1 at the origin, then columns take the
        # odd chain positions' entries and rows the even ones'.
        xs = [(0, 0), (0, 5), (-1, 5), (-1, 6), (1, 6), (1, 5), (2, 5), (2, 8), (-3, 8)]
        assert staircase(EXAMPLE) == xs + [(c + 1, r + 1) for c, r in xs]

    def test_equals_the_lattice_search_on_the_census(self):
        count = 0
        for seq in census_sequences(2, 3):
            if not isinstance(decide(seq), NotRealizable):
                assert_on_the_staircase(seq)
                count += 1
        assert count == 636

    @given(realizable_sequences())
    def test_equals_the_lattice_search_on_long_sequences(self, seq):
        assert_on_the_staircase(seq)

    def test_glue_runs_no_lattice_search(self, monkeypatch):
        def refuse(complex):
            raise AssertionError("lattice_positions was called")

        monkeypatch.setattr(lattice, "lattice_positions", refuse)
        monkeypatch.setattr(builder, "lattice_positions", refuse, raising=False)
        for entries in long_sequences():
            assert not isinstance(realize(SignSequence(entries)), NotRealizable)

    @pytest.mark.parametrize("other", [(2, 2), EXAMPLE.entries + (1, -1)])
    def test_a_complex_of_another_sequence_length_is_refused(self, other):
        doubled = double(extend_and_realize(EXAMPLE).complex)
        with pytest.raises(ConstructionError, match="generators, not 18$"):
            glue(doubled, SignSequence(other))


class TestRealize:
    def test_census_realizations_are_pinned(self):
        # Every realizable n <= 2, |a_i| <= 3 document, colours included,
        # concatenated in census order.
        digest, count = hashlib.sha256(), 0
        for seq in census_sequences(2, 3):
            glued = realize(seq)
            if not isinstance(glued, NotRealizable):
                digest.update(serialize(glued, include_colors=True).encode())
                count += 1
        assert count == 636
        assert digest.hexdigest() == (
            "917231b2eab97561465779e3c85df4b105e89c2ce77d48b13d63e6ba9601cd47"
        )

    def test_long_realizations_are_pinned(self):
        # Colours included, in the order of ``long_sequences``.
        digest, count = hashlib.sha256(), 0
        for entries in long_sequences():
            glued = realize(SignSequence(entries))
            assert not isinstance(glued, NotRealizable), entries
            digest.update(serialize(glued, include_colors=True).encode())
            count += 1
        assert count == 44
        assert digest.hexdigest() == (
            "61e0eae484c4e263a38e997b96e210816e8951d2274aff8b85d9cec1b78b9e04"
        )

    def test_paper_verdicts(self):
        assert not isinstance(realize(SignSequence((1, -1, 3, -2))), NotRealizable)
        assert not isinstance(realize(SignSequence((2, 2))), NotRealizable)
        assert isinstance(realize(SignSequence((2, 1, -3, 1))), NotRealizable)

    def test_outputs_are_chain_complexes_with_correct_homology(self):
        for entries in [(1, -1, 3, -2), (2, 2), (-1, 1, 2, -1, 1, 3), (1, -1)]:
            glued = realize(SignSequence(entries))
            assert glued.ring == RINF
            assert differential_square(glued) == ()
            assert degree_violations(glued) == []
            assert has_correct_homology(glued)

    def test_symmetric_inputs_give_symmetric_realizations(self):
        for entries in [(1, -1), (2, -2), (3, -1, 1, -3)]:
            glued = realize(SignSequence(entries))
            assert check_symmetry(glued) is not None

    def test_zero_offset_seam_cancellation_is_harmless(self):
        # With offset zero a source reaching both endpoints cancels its two
        # z-arrows; the output must still verify.
        glued = realize(SignSequence((1, -1)))
        assert differential_square(glued) == ()
        assert has_correct_homology(glued)

    @pytest.mark.parametrize(
        "ext",
        [
            # Once an AttributeError on max_abs.
            ExtendedSignSequence(4, SignSequence((2, 2)), -4),
            # Once pre-checked as the chain 1,1,1,-1.
            ExtendedSignSequence(1, SignSequence((1, 1)), -1),
        ],
    )
    def test_an_extended_sequence_is_refused(self, ext):
        with pytest.raises(
            ConstructionError, match="^realize expects a plain sequence, not an extended one$"
        ):
            realize(ext)

    def test_not_realizable_is_forwarded(self):
        outcome = realize(SignSequence((1, 1)))
        assert isinstance(outcome, NotRealizable)
        assert outcome.obstructions

    def test_only_a_failed_decision_builds_the_standard_complex(self, monkeypatch):
        firsts = []
        original = standard._chain

        def counting(entries, first):
            firsts.append(first)
            return original(entries, first)

        monkeypatch.setattr(standard, "_chain", counting)
        for seq in census_sequences(1, 3):
            firsts.clear()
            glued = realize(seq)
            if isinstance(glued, NotRealizable):
                assert firsts == [0]
                assert glued == decide(seq)
            else:
                # The extended chain only.
                assert firsts == [-1]
