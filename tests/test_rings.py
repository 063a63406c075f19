import json

import pytest
from hypothesis import given

from tunnelfill import (
    Arrow,
    ConstructionError,
    Generator,
    Grading,
    InvalidLiftError,
    Monomial,
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
    make_complex,
)
from conftest import (
    InvalidReductionError,
    arrow_by_names,
    based_complexes,
    candidate_monomial,
    id_of,
    reduce_to,
)


def seq(*entries):
    return build_standard(SignSequence(entries))


class TestMonomialZero:
    def test_exhaustive_zero_rule(self):
        for i in range(1, 7):
            ring = RingLevel(i)
            for a in range(7):
                for b in range(7):
                    assert Monomial(a, b).is_zero_in(ring) == (min(a, b) >= i)

    def test_never_zero_in_full_ring(self):
        for a in range(7):
            for b in range(7):
                assert not Monomial(a, b).is_zero_in(RINF)

    def test_ring_ordering(self):
        assert R1 < R2 < RINF
        assert RingLevel(5) < RINF
        assert not RINF < RINF


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
            assert square == {0: {(2, Monomial(k + 1, k + 1)): 1}}
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
            c.generator(99)
        with pytest.raises(UnknownGeneratorError):
            id_of(c, "nope")


class TestDifferentialSquare:
    def test_staircase_with_tunnels(self):
        c = lift_to(seq(-1, 1, 2, -1, 1, 2), R2)
        square = differential_square(c)
        assert square == {
            id_of(c, "x3"): {(id_of(c, "x1"), Monomial(2, 1)): 1},
            id_of(c, "x6"): {(id_of(c, "x4"), Monomial(1, 2)): 1},
        }

    def test_alternating_signs_square_to_zero(self):
        assert differential_square(lift_to(seq(2, -2), RINF)) == {}

    def test_adjacent_unit_arrows(self):
        c = lift_to(seq(1, 1), R2)
        assert differential_square(c) == {
            id_of(c, "x2"): {(id_of(c, "x0"), Monomial(1, 1)): 1}
        }

    def test_term_invisible_at_level_one(self):
        assert differential_square(seq(1, 1)) == {}

    @given(based_complexes())
    def test_terms_come_out_sorted_whatever_the_arrow_order(self, complex):
        lifted = lift_to(complex, RINF)
        square = differential_square(lifted)
        assert list(square) == sorted(square)
        for terms in square.values():
            assert list(terms) == sorted(terms)
        reordered = make_complex(
            RINF, lifted.generators, sorted(lifted.arrows, reverse=True)
        )
        assert list(differential_square(reordered).items()) == list(square.items())

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
                key = (extra.source, (a.target, m))
                expected_delta[key] = expected_delta.get(key, 0) ^ 1
        for a in inc.get(extra.source, ()):
            m = a.monomial * extra.monomial
            if not m.is_zero_in(complex.ring):
                key = (a.source, (extra.target, m))
                expected_delta[key] = expected_delta.get(key, 0) ^ 1

        flat_before = {
            (x, term) for x, terms in before.items() for term in terms
        }
        flat_after = {(x, term) for x, terms in after.items() for term in terms}
        toggled = {key for key, parity in expected_delta.items() if parity}
        assert flat_after ^ flat_before == toggled


class TestDegreeCheck:
    def test_standard_complexes_pass(self):
        for entries in [(2, 2), (1, -1), (-1, 1, 2, -1, 1, 3)]:
            assert degree_violations(seq(*entries)) == []

    def test_corrupted_grading_is_reported(self):
        c = seq(2, 2)
        gens = list(c.generators)
        gens[1] = Generator(1, "x1", Grading(0, 0))
        broken = make_complex(R1, gens, c.arrows)
        bad = degree_violations(broken)
        assert arrow_by_names(c, "x1", 2, 0, "x0") in bad
        assert set(bad) == set(broken.arrows)

    def test_pipeline_output_passes(self):
        glued = realize(SignSequence((-1, 1, 2, -1, 1, 3)))
        assert degree_violations(glued) == []


class TestConstruction:
    def test_duplicate_arrows_cancel(self):
        c = seq(1, 1)
        arrow = arrow_by_names(c, "x1", 1, 0, "x0")
        doubled = make_complex(R1, c.generators, list(c.arrows) + [arrow])
        assert arrow not in doubled.arrows
        assert len(doubled.arrows) == 1

    def test_self_loop_rejected(self):
        c = seq(1, 1)
        with pytest.raises(ConstructionError):
            make_complex(R1, c.generators, [Arrow(0, Monomial(1, 1), 0)])

    def test_unit_monomial_rejected(self):
        c = seq(1, 1)
        with pytest.raises(ConstructionError):
            make_complex(R1, c.generators, [Arrow(0, Monomial(0, 0), 1)])

    def test_positional_ids_enforced(self):
        with pytest.raises(ConstructionError):
            make_complex(R1, [Generator(1, "a", Grading(0, 0))], [])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ConstructionError):
            Monomial(-1, 0)
