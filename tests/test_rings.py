import json
import math
import time

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from tunnelfill import (
    Arrow,
    ConstructionError,
    Generator,
    Grading,
    InvalidLiftError,
    Monomial,
    SearchBudgetError,
    SignSequence,
    UnknownGeneratorError,
    build_standard,
    degree_violations,
    differential_square,
    parse,
    realize,
)
from tunnelfill import rings
from tunnelfill.rings import (
    R1,
    R2,
    RINF,
    RingLevel,
    add_arrows,
    lift_to,
)
from tunnelfill.census import census_sequences
from conftest import (
    InvalidReductionError,
    all_paths,
    arrow_by_names,
    based_complexes,
    candidate_monomial,
    id_of,
    make_complex,
    reduce_to,
)


def seq(*entries):
    return build_standard(SignSequence(entries))


def reference_square(complex):
    """d^2 by brute force: the terms reached by an odd number of two-arrow
    paths whose monomial survives in the ring."""
    return {
        term
        for term, paths in all_paths(complex).items()
        if len(paths) % 2 and not term[1].is_zero_in(complex.ring)
    }


def parallel_paths(count):
    """``count`` two-arrow paths from g0 through g1..g_count to the last
    generator, each with the product U^2V^2 and through its own middle."""
    halves = [((1, 1), (1, 1)), ((2, 0), (0, 2)), ((0, 2), (2, 0)), ((1, 0), (1, 2))]
    last = count + 1
    arrows = []
    for middle, (first, second) in enumerate(halves[:count], start=1):
        arrows += [Arrow(0, Monomial(*first), middle), Arrow(middle, Monomial(*second), last)]
    return make_complex(RINF, [Generator(f"g{i}", Grading(0, 0)) for i in range(last + 1)], arrows)


class TestMonomialZero:
    def test_exhaustive_zero_rule(self):
        for i in range(1, 7):
            ring = RingLevel(i)
            for a in range(7):
                for b in range(7):
                    assert Monomial(a, b).is_zero_in(ring) == (min(a, b) >= i)

    def test_never_zero_in_full_ring(self):
        for a in [*range(7), 2**70, 10**400]:
            for b in [*range(7), 2**70, 10**400]:
                assert not Monomial(a, b).is_zero_in(RINF)

    def test_ring_ordering(self):
        assert R1 < R2 < RINF
        assert RingLevel(5) < RINF
        assert not RINF < RINF
        assert RINF == RingLevel(math.inf)
        assert RingLevel(1 << 62) != RINF
        assert RingLevel(1 << 63) < RINF


class TestMonomialInterning:
    def test_interned_constructor_shares_and_validates(self):
        assert Monomial.of(3, 4) is Monomial.of(3, 4) == Monomial(3, 4)
        with pytest.raises(ConstructionError):
            Monomial.of(-1, 0)

    def test_fresh_exponents_leave_the_cache_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(rings, "_INTERNED_LIMIT", 64)
        gens = [{"name": name, "gr": [0, 0]} for name in "abc"]
        for k in range(1000, 1200):
            arrows = [
                {"from": "a", "to": "b", "u": k, "v": 1},
                {"from": "b", "to": "c", "u": 1, "v": k},
            ]
            doc = json.dumps({"ring": "Rinf", "generators": gens, "arrows": arrows})
            square = differential_square(parse(doc))
            assert square == ((0, Monomial(k + 1, k + 1), 2),)
            assert len(rings._MONOMIALS) <= 64


class TestReduceLift:
    def test_reduce_to_same_level_is_identity(self):
        c = seq(2, 2)
        assert reduce_to(c, R1) == c

    def test_extra_square_arrow_dies_at_level_two(self):
        c = lift_to(seq(2, 2), RINF)
        c = add_arrows(c, [arrow_by_names(c, "x2", 2, 2, "x0")])
        reduced = reduce_to(c, R2)
        assert arrow_by_names(c, "x2", 2, 2, "x0") not in reduced.arrows
        assert reduced.ring == R2
        assert len(reduced.arrows) == 2

    def test_reduce_above_current_level_rejected(self):
        with pytest.raises(InvalidReductionError):
            reduce_to(seq(1, 1), R2)

    def test_lift_preserves_arrows(self):
        c = seq(1, 1)
        lifted = lift_to(c, R2)
        assert lifted.generators == c.generators
        assert lifted.arrows == c.arrows
        assert Arrow(id_of(lifted, "x1"), Monomial(1, 0), id_of(lifted, "x0")) in lifted.arrows
        assert Arrow(id_of(lifted, "x2"), Monomial(0, 1), id_of(lifted, "x1")) in lifted.arrows

    def test_lift_to_same_level_is_identity(self):
        c = seq(1, 1)
        assert lift_to(c, R1) == c

    def test_lift_from_a_level_past_2_62_to_the_full_ring(self):
        c = make_complex(RingLevel(1 << 63), [Generator("x", Grading(0, 0))], [])
        assert lift_to(c, RINF).ring == RINF

    def test_lift_below_current_level_rejected(self):
        with pytest.raises(InvalidLiftError):
            lift_to(lift_to(seq(1, 1), R2), R1)

    @given(based_complexes())
    def test_reduce_after_lift_is_identity(self, complex):
        assert reduce_to(lift_to(complex, RINF), complex.ring) == complex
        assert reduce_to(lift_to(complex, RingLevel(4)), complex.ring) == complex


class TestCoefficient:
    def test_horizontal_arrow_of_length_two(self):
        c = seq(-1, 1, 2, -1, 1, 2)
        assert Arrow(id_of(c, "x3"), Monomial(2, 0), id_of(c, "x2")) in c.arrows

    def test_absent_arrow(self):
        c = seq(-1, 1, 2, -1, 1, 2)
        assert Arrow(id_of(c, "x0"), Monomial(0, 1), id_of(c, "x1")) not in c.arrows

    def test_split_differential(self):
        c = seq(1, -1)
        assert Arrow(id_of(c, "x1"), Monomial(1, 0), id_of(c, "x0")) in c.arrows
        assert Arrow(id_of(c, "x1"), Monomial(0, 1), id_of(c, "x2")) in c.arrows

    def test_unknown_generator(self):
        c = seq(1, -1)
        with pytest.raises(UnknownGeneratorError):
            id_of(c, "nope")


class TestDifferentialSquare:
    def test_staircase_with_tunnels(self):
        c = lift_to(seq(-1, 1, 2, -1, 1, 2), R2)
        square = differential_square(c)
        assert square == (
            (id_of(c, "x3"), Monomial(2, 1), id_of(c, "x1")),
            (id_of(c, "x6"), Monomial(1, 2), id_of(c, "x4")),
        )

    def test_alternating_signs_square_to_zero(self):
        assert differential_square(lift_to(seq(2, -2), RINF)) == ()

    def test_adjacent_unit_arrows(self):
        c = lift_to(seq(1, 1), R2)
        assert differential_square(c) == ((id_of(c, "x2"), Monomial(1, 1), id_of(c, "x0")),)

    def test_term_invisible_at_level_one(self):
        assert differential_square(seq(1, 1)) == ()

    # The two paths from g0 to g3, U then V and V then U, cancel; the paths
    # on to g4 survive.
    @example(
        make_complex(
            RINF,
            [Generator(f"g{i}", Grading(0, 0)) for i in range(5)],
            [
                Arrow(0, Monomial(1, 0), 1),
                Arrow(1, Monomial(0, 1), 3),
                Arrow(0, Monomial(0, 1), 2),
                Arrow(2, Monomial(1, 0), 3),
                Arrow(3, Monomial(1, 0), 4),
            ],
        ),
        RINF,
    )
    # A term reached by three paths survives; one reached by four cancels.
    @example(parallel_paths(3), RINF)
    @example(parallel_paths(4), RINF)
    @given(based_complexes(), st.sampled_from([R1, R2, RINF]))
    def test_terms_are_the_odd_surviving_paths(self, complex, ring):
        if ring < complex.ring:
            complex = reduce_to(complex, ring)
        else:
            complex = lift_to(complex, ring)
        assert set(differential_square(complex)) == reference_square(complex)

    def test_terms_are_the_odd_surviving_paths_on_the_census(self):
        for sequence in census_sequences(3, 3):
            complex = lift_to(build_standard(sequence), R2)
            assert set(differential_square(complex)) == reference_square(complex), sequence

    @given(based_complexes())
    def test_terms_come_out_sorted_whatever_the_arrow_order(self, complex):
        lifted = lift_to(complex, RINF)
        square = differential_square(lifted)
        assert type(square) is tuple
        assert list(square) == sorted(set(square))
        reordered = make_complex(
            RINF, lifted.generators, sorted(lifted.arrows, reverse=True)
        )
        assert differential_square(reordered) == square

    @given(based_complexes())
    def test_adding_an_arrow_changes_square_by_paths_through_it(self, complex):
        count = len(complex.generators)
        extra = None
        for x in range(count):
            for y in range(count):
                if x == y:
                    continue
                mono = candidate_monomial(complex, x, y)
                if (
                    mono is not None
                    and not mono.is_zero_in(complex.ring)
                    and Arrow(x, mono, y) not in complex.arrows
                ):
                    extra = Arrow(x, mono, y)
                    break
            if extra:
                break
        if extra is None:
            return

        before = differential_square(complex)
        after = differential_square(add_arrows(complex, [extra]))

        expected_delta = {}
        out = complex.outgoing
        inc = complex.incoming
        for a in out.get(extra.target, ()):
            m = extra.monomial * a.monomial
            if not m.is_zero_in(complex.ring):
                key = (extra.source, m, a.target)
                expected_delta[key] = expected_delta.get(key, 0) ^ 1
        for a in inc.get(extra.source, ()):
            m = a.monomial * extra.monomial
            if not m.is_zero_in(complex.ring):
                key = (a.source, m, extra.target)
                expected_delta[key] = expected_delta.get(key, 0) ^ 1

        toggled = {key for key, parity in expected_delta.items() if parity}
        assert set(after) ^ set(before) == toggled


def star(k):
    """A complex that passes the degree check with k^2 two-arrow paths: a
    hub h at (-1, 0), k sources a_i -> V h at (0, -1) and k targets
    h -> V b_j at (-2, 1), so d^2 is the k^2 terms a_i -> V^2 b_j."""
    gens = [Generator("h", Grading(-1, 0))]
    gens += [Generator(f"a{i}", Grading(0, -1)) for i in range(k)]
    gens += [Generator(f"b{j}", Grading(-2, 1)) for j in range(k)]
    arrows = [Arrow(1 + i, Monomial(0, 1), 0) for i in range(k)]
    arrows += [Arrow(0, Monomial(0, 1), 1 + k + j) for j in range(k)]
    return make_complex(RINF, gens, arrows)


class TestPathBudget:
    def test_a_star_of_1024_paths_is_answered(self):
        c = star(32)
        assert degree_violations(c) == []
        square = differential_square(c)
        assert len(square) == 1024
        assert square[0] == (1, Monomial(0, 2), 33)

    def test_the_budget_counts_every_path(self, monkeypatch):
        monkeypatch.setattr(rings, "PATH_BUDGET", 1024)
        assert len(differential_square(star(32))) == 1024
        monkeypatch.setattr(rings, "PATH_BUDGET", 1023)
        with pytest.raises(SearchBudgetError, match="its budget of 1023 two-arrow paths"):
            differential_square(star(32))

    def test_a_star_of_four_million_paths_is_refused_within_a_second(self):
        c = star(2000)
        assert degree_violations(c) == []
        started = time.perf_counter()
        with pytest.raises(SearchBudgetError, match="budget of 131072"):
            differential_square(c)
        assert time.perf_counter() - started < 1.0


class TestDegreeCheck:
    def test_standard_complexes_pass(self):
        for entries in [(2, 2), (1, -1), (-1, 1, 2, -1, 1, 3)]:
            assert degree_violations(seq(*entries)) == []

    def test_corrupted_grading_is_reported(self):
        c = seq(2, 2)
        gens = list(c.generators)
        gens[1] = Generator("x1", Grading(0, 0))
        broken = make_complex(R1, gens, c.arrows)
        bad = degree_violations(broken)
        assert arrow_by_names(c, "x1", 2, 0, "x0") in bad
        assert set(bad) == set(broken.arrows)

    def test_pipeline_output_passes(self):
        glued = realize(SignSequence((-1, 1, 2, -1, 1, 3)))
        assert degree_violations(glued) == []


class TestConstruction:
    def test_negative_exponent_rejected(self):
        with pytest.raises(ConstructionError):
            Monomial(-1, 0)

    def test_ring_level_below_one_rejected(self):
        with pytest.raises(ConstructionError, match="ring level must be >= 1, got 0"):
            RingLevel(0)
        with pytest.raises(ConstructionError, match="ring level must be >= 1, got nan"):
            RingLevel(math.nan)
        for level in (2.5, True, 2.0, "2"):
            with pytest.raises(ConstructionError, match=r"ring level must be >= 1, got .*math\.inf"):
                RingLevel(level)

    def test_adding_a_present_arrow_removes_it_and_its_color(self):
        c = lift_to(seq(1, 1), R2)
        arrow = Arrow(2, Monomial(1, 1), 0)
        colored = add_arrows(c, [arrow], color="red")
        assert colored.colors == {arrow: "red"}
        removed = add_arrows(colored, [arrow], color="blue")
        assert removed.arrows == c.arrows
        assert removed.colors == {}

    def test_adding_an_arrow_dead_in_the_ring_skips_it(self):
        c = lift_to(seq(1, 1), R2)
        added = add_arrows(c, [Arrow(2, Monomial(2, 2), 0)], color="red")
        assert added.arrows == c.arrows
        assert added.colors == {}
