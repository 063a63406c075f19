"""The arrow loops of ``make_complex``, ``degree_violations`` and
``quotient_complex`` against the versions they replaced
(``conftest.reference_*``): the same output, or the same error type and
message, on every corpus below. The one deliberate difference: an arrow end
that is no generator id is an UnknownGeneratorError in ``quotient_complex``,
where the reference raised a bare KeyError."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tunnelfill import (
    Arrow,
    BasedComplex,
    Generator,
    Grading,
    Monomial,
    UnknownGeneratorError,
    build_standard,
    check_correct_homology,
    check_symmetry,
    degree_violations,
    differential_square,
    oracle_decide,
    parse,
    render_svg,
)
from tunnelfill.census import census_sequences
from tunnelfill.homology import find_based_isomorphism, quotient_complex
from tunnelfill.lattice import lattice_positions
from tunnelfill.rings import R1, R2, RINF, make_complex
from conftest import (
    based_complexes,
    census_realizations,
    criterion_9_matrices,
    dense_document,
    reference_degree_violations,
    reference_make_complex,
    reference_quotient_complex,
)


def outcome(function, *args):
    """("returns", value), or the type and message of the exception raised."""
    try:
        return "returns", function(*args)
    except Exception as exc:
        return type(exc), str(exc)


def reference_quotient_outcome(complex, kill):
    kind, value = outcome(reference_quotient_complex, complex, kill)
    if kind is KeyError:
        return UnknownGeneratorError, f"no generator with id {value}"
    return kind, value


def assert_checks_match(complex):
    expected = outcome(reference_degree_violations, complex)
    assert outcome(degree_violations, complex) == expected
    for kill in "UV":
        assert outcome(quotient_complex, complex, kill) == reference_quotient_outcome(
            complex, kill
        )


def assert_made_alike(ring, generators, arrows, colors=None):
    made = outcome(make_complex, ring, generators, arrows, colors)
    expected = outcome(reference_make_complex, ring, generators, arrows, colors)
    assert made == expected
    if made[0] == "returns":
        # Adjacency lists and the isomorphism search inherit this order.
        assert list(made[1].arrows) == list(expected[1].arrows)


def assert_all_match(complex):
    assert_checks_match(complex)
    assert_made_alike(complex.ring, complex.generators, list(complex.arrows), complex.colors)


class TestCorpora:
    def test_census_standard_complexes(self):
        count = 0
        for seq in census_sequences(3, 3):
            assert_all_match(build_standard(seq))
            count += 1
        assert count == 47988

    def test_census_realizations(self):
        realized = census_realizations()
        assert len(realized) == 636
        for glued in realized:
            assert_all_match(glued)

    def test_criterion_9_documents(self):
        matrices = criterion_9_matrices()
        assert len(matrices) == 500
        for matrix in matrices:
            assert_all_match(parse(dense_document(matrix)))

    @given(based_complexes())
    def test_degree_valid_complexes(self, complex):
        assert_all_match(complex)


@st.composite
def raw_complexes(draw):
    """A ring, a few generators on small gradings, and an arrow list that may
    hold duplicates, unit and dead monomials, self-loops and ends one past
    either end of the ids, with colors on some arrows."""
    ring = draw(st.sampled_from([R1, R2, RINF]))
    count = draw(st.integers(1, 5))
    gens = tuple(
        Generator(f"g{i}", Grading(draw(st.integers(-3, 3)), draw(st.integers(-3, 3))))
        for i in range(count)
    )
    ends = st.integers(0, count - 1)
    if draw(st.integers(0, 4)) == 0:
        ends = st.integers(-1, count)
    exponents = st.integers(0, 3)
    monomials = st.builds(Monomial, exponents, exponents)
    arrows = draw(st.lists(st.builds(Arrow, ends, monomials, ends), max_size=8))
    colored = draw(st.lists(st.sampled_from(arrows), max_size=3)) if arrows else []
    return ring, gens, arrows, {a: "red" for a in colored}


class TestRawArrows:
    @given(raw_complexes())
    def test_make_complex(self, raw):
        assert_made_alike(*raw)

    @given(raw_complexes())
    def test_checks_on_any_arrow_set(self, raw):
        ring, gens, arrows, colors = raw
        assert_checks_match(BasedComplex(ring, gens, frozenset(arrows)))

    # Generators x0 (0, 0), x1 (1, 1) and x2 (-1, 1).
    GENERATORS = (
        Generator("x0", Grading(0, 0)),
        Generator("x1", Grading(1, 1)),
        Generator("x2", Grading(-1, 1)),
    )
    CASES = {
        "cancelling_duplicate": [Arrow(1, Monomial(1, 1), 0)] * 2,
        "odd_duplicate": [Arrow(1, Monomial(1, 1), 0)] * 3,
        "dead_in_r1": [Arrow(1, Monomial(1, 1), 0), Arrow(2, Monomial(0, 1), 0)],
        "dead_in_r2": [Arrow(1, Monomial(2, 3), 0), Arrow(1, Monomial(1, 1), 0)],
        "unit": [Arrow(1, Monomial(1, 1), 0), Arrow(2, Monomial(0, 0), 0)],
        "self_loop": [Arrow(1, Monomial(1, 1), 0), Arrow(2, Monomial(0, 1), 2)],
        "source_past_the_ids": [Arrow(3, Monomial(0, 1), 0)],
        "target_past_the_ids": [Arrow(2, Monomial(0, 1), 3)],
        "negative_source": [Arrow(-1, Monomial(1, 0), 0)],
        "negative_target": [Arrow(2, Monomial(1, 0), -1)],
        "degree_invalid": [Arrow(2, Monomial(1, 0), 1), Arrow(1, Monomial(1, 1), 0)],
    }

    @pytest.mark.parametrize("ring", [R1, R2, RINF])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_listed_faults(self, case, ring):
        arrows = self.CASES[case]
        assert_made_alike(ring, self.GENERATORS, arrows, {arrows[0]: "blue"})
        assert_checks_match(BasedComplex(ring, self.GENERATORS, frozenset(arrows)))


class TestUnknownGeneratorIds:
    """An arrow end outside the ids is an UnknownGeneratorError in every
    verifier, in the oracle and in the lattice and its drawing, never a bare
    KeyError or IndexError, a silent pass or a wrong disconnection report,
    and a negative id is not read from the end of a list."""

    @pytest.mark.parametrize("bad", [5, -1])
    @pytest.mark.parametrize("at_source", [False, True])
    @pytest.mark.parametrize("u, v, kill", [(0, 1, "U"), (1, 0, "V")])
    def test_typed_error(self, bad, at_source, u, v, kill):
        # x0 and x1 sit at (0, 0) and (1, 1), so the gradings are
        # swap-symmetric and the symmetry search reads the arrows.
        gens = (Generator("x0", Grading(0, 0)), Generator("x1", Grading(1, 1)))
        ends = (bad, 1) if at_source else (1, bad)
        arrow = Arrow(ends[0], Monomial(u, v), ends[1])
        complex = BasedComplex(RINF, gens, frozenset({arrow, Arrow(1, Monomial(1, 1), 0)}))
        message = f"^no generator with id {bad}$"
        for check in (
            differential_square,
            oracle_decide,
            degree_violations,
            lambda c: quotient_complex(c, kill),
            check_correct_homology,
            check_symmetry,
            lambda c: find_based_isomorphism(c, c),
            lattice_positions,
            render_svg,
        ):
            with pytest.raises(UnknownGeneratorError, match=message):
                check(complex)
