"""The arrow loops of ``degree_violations`` and ``quotient_complex`` against
the versions they replaced (``conftest.reference_*``): the same output, or
the same error type and message, on every corpus below. An arrow end that is no generator id never
reaches the checks: ``BasedComplex`` refuses it with UnknownGeneratorError
when the complex is built."""

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
    degree_violations,
    parse,
)
from tunnelfill.census import census_sequences
from tunnelfill.homology import quotient_complex
from tunnelfill.rings import R1, R2, RINF, add_arrows
from conftest import (
    based_complexes,
    census_realizations,
    criterion_9_matrices,
    dense_document,
    reference_degree_violations,
    reference_quotient_complex,
)


def outcome(function, *args):
    """("returns", value), or the type and message of the exception raised."""
    try:
        return "returns", function(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_checks_match(complex):
    expected = outcome(reference_degree_violations, complex)
    assert outcome(degree_violations, complex) == expected
    for kill in "UV":
        expected = outcome(reference_quotient_complex, complex, kill)
        assert outcome(quotient_complex, complex, kill) == expected


def assert_built_checks_match(ring, generators, arrows):
    """``BasedComplex`` on the arrow set raises UnknownGeneratorError, naming
    the first end in iteration order that is no generator id, exactly when
    there is one; otherwise its checks match the references."""
    arrows = frozenset(arrows)
    ids = range(len(generators))
    unknown = [end for a in arrows for end in (a.source, a.target) if end not in ids]
    if unknown:
        message = f"^no generator with id {unknown[0]}$"
        with pytest.raises(UnknownGeneratorError, match=message):
            BasedComplex(ring, generators, arrows)
    else:
        assert_checks_match(BasedComplex(ring, generators, arrows))


class TestCorpora:
    def test_census_standard_complexes(self):
        count = 0
        for seq in census_sequences(3, 3):
            assert_checks_match(build_standard(seq))
            count += 1
        assert count == 47988

    def test_census_realizations(self):
        realized = census_realizations()
        assert len(realized) == 636
        for glued in realized:
            assert_checks_match(glued)

    def test_criterion_9_documents(self):
        matrices = criterion_9_matrices()
        assert len(matrices) == 500
        for matrix in matrices:
            assert_checks_match(parse(dense_document(matrix)))

    @given(based_complexes())
    def test_degree_valid_complexes(self, complex):
        assert_checks_match(complex)


@st.composite
def raw_complexes(draw):
    """A ring, a few generators on small gradings, and an arrow list that may
    hold duplicates, unit and dead monomials, self-loops and ends one past
    either end of the ids."""
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
    return ring, gens, draw(st.lists(st.builds(Arrow, ends, monomials, ends), max_size=8))


class TestRawArrows:
    @given(raw_complexes())
    def test_checks_on_any_arrow_set(self, raw):
        assert_built_checks_match(*raw)

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
        assert_built_checks_match(ring, self.GENERATORS, self.CASES[case])


class TestUnknownGeneratorIds:
    """An arrow end outside the ids is an UnknownGeneratorError when a complex
    is built, by ``BasedComplex`` or by ``add_arrows``, so no reader ever sees
    it, and a negative id is not read from the end of a list."""

    @pytest.mark.parametrize("bad", [5, -1])
    @pytest.mark.parametrize("at_source", [False, True])
    @pytest.mark.parametrize("u, v, kill", [(0, 1, "U"), (1, 0, "V")])
    def test_typed_error(self, bad, at_source, u, v, kill):
        gens = (Generator("x0", Grading(0, 0)), Generator("x1", Grading(1, 1)))
        link = Arrow(1, Monomial(1, 1), 0)
        arrow = Arrow(bad, Monomial(u, v), 0) if at_source else Arrow(1, Monomial(u, v), bad)
        message = f"^no generator with id {bad}$"
        with pytest.raises(UnknownGeneratorError, match=message):
            BasedComplex(RINF, gens, frozenset({arrow, link}))
        complex = BasedComplex(RINF, gens, frozenset({link}))
        with pytest.raises(UnknownGeneratorError, match=message):
            add_arrows(complex, [arrow])
        # With x1 -> x0 for its ends, the arrow is added and the ``kill``
        # quotient reads it: only the unknown end is refused.
        fixed = add_arrows(complex, [Arrow(1, Monomial(u, v), 0)])
        assert quotient_complex(fixed, kill).arrows == {0: (), 1: ((0, 0, 1),)}
