import itertools
import random
import time

import pytest
from hypothesis import given

from tunnelfill import (
    Generator,
    Grading,
    Monomial,
    SearchBudgetError,
    SignSequence,
    build_standard,
    check_correct_homology,
    check_symmetry,
    degree_violations,
    differential_square,
    realize,
)
from tunnelfill import homology
from tunnelfill.homology import (
    conjugate,
    find_based_isomorphism,
    has_correct_homology,
    quotient_complex,
)
from tunnelfill.rings import R1, RINF, Arrow, make_complex
from conftest import (
    disjoint_union,
    is_based_isomorphism,
    isomorphism_by_permutations,
    layered_probe,
    long_symmetric_sequence,
    random_small_complex,
    relabelled,
    sign_sequences,
)


class TestQuotient:
    def test_vertical_arrow_survives_killing_u(self):
        c = build_standard(SignSequence((2, 2)))
        chain = quotient_complex(c, "U")
        entries = [
            value
            for mat in chain.boundaries.values()
            for row in mat.rows
            for value in row
            if value
        ]
        assert entries == [0b100]  # the length-2 vertical arrow as t^2

    def test_split_corner_killing_u(self):
        c = build_standard(SignSequence((1, -1)))
        chain = quotient_complex(c, "U")
        entries = [
            value
            for mat in chain.boundaries.values()
            for row in mat.rows
            for value in row
            if value
        ]
        assert entries == [0b10]  # the unit vertical arrow as t

    def test_arrowless_complex_has_zero_matrices(self):
        gens = (
            Generator(0, "a", Grading(0, 0)),
            Generator(1, "b", Grading(-1, -1)),
        )
        c = make_complex(R1, gens, [])
        chain = quotient_complex(c, "U")
        for mat in chain.boundaries.values():
            assert all(value == 0 for row in mat.rows for value in row)


class TestCorrectHomology:
    @given(sign_sequences(max_n=2, max_abs=3))
    def test_standard_complexes_pass_with_anchored_generators(self, seq):
        c = build_standard(seq)
        u_side, v_side = check_correct_homology(c)
        assert u_side.verdict and v_side.verdict
        assert u_side.free_rank_total == 1
        assert u_side.free_generator_grading == 0
        assert v_side.free_generator_grading == 0

    def test_direct_sum_doubles_the_free_rank(self):
        a = build_standard(SignSequence((2, 2)))
        b = build_standard(SignSequence((1, -1)))
        u_side, v_side = check_correct_homology(disjoint_union(a, b))
        assert u_side.free_rank_total == 2
        assert not u_side.verdict
        assert not v_side.verdict

    def test_torsion_orders_of_a_staircase(self):
        c = build_standard(SignSequence((2, 2)))
        u_side, _ = check_correct_homology(c)
        assert u_side.torsion_orders == ((-3, (2,)),)


class TestSymmetry:
    def test_reversal_witness(self):
        c = build_standard(SignSequence((-1, 1)))
        witness = check_symmetry(c)
        assert witness == {0: 2, 1: 1, 2: 0}

    def test_asymmetric_staircase(self):
        assert check_symmetry(build_standard(SignSequence((2, 2)))) is None

    def test_identity_witness_for_a_self_conjugate_complex(self):
        gens = (
            Generator(0, "a", Grading(1, 1)),
            Generator(1, "b", Grading(2, 2)),
        )
        c = make_complex(RINF, gens, [Arrow(0, Monomial(1, 1), 1)])
        assert check_symmetry(c) == {0: 0, 1: 1}

    @given(sign_sequences(max_n=2, max_abs=2))
    def test_conjugating_preserves_the_verdict(self, seq):
        c = build_standard(seq)
        assert (check_symmetry(c) is None) == (check_symmetry(conjugate(c)) is None)

    def test_palindromic_antisymmetry_matches_the_search(self):
        # Observed closed form on the small census: symmetric exactly when
        # a_i = -a_{2n+1-i}; the search is authoritative, this documents it.
        for length in (2, 4):
            for entries in itertools.product([-2, -1, 1, 2], repeat=length):
                palindromic = all(
                    entries[i] == -entries[length - 1 - i] for i in range(length)
                )
                found = check_symmetry(build_standard(SignSequence(entries)))
                assert (found is not None) == palindromic, entries


class TestBasedIsomorphism:
    def test_relabelled_copy_is_isomorphic(self):
        c = build_standard(SignSequence((2, -1, 1, -2)))
        relabelled = make_complex(
            c.ring,
            tuple(Generator(g.gid, f"g{g.gid}", g.grading) for g in c.generators),
            c.arrows,
        )
        assert find_based_isomorphism(c, relabelled) is not None

    def test_grading_shift_needs_permission(self):
        c = build_standard(SignSequence((2, 2)))
        shifted = make_complex(
            c.ring,
            tuple(
                Generator(g.gid, g.name, g.grading.shifted(-1, -1))
                for g in c.generators
            ),
            c.arrows,
        )
        assert find_based_isomorphism(c, shifted) is None
        assert find_based_isomorphism(c, shifted, allow_grading_shift=True) is not None

    def test_different_shapes_are_not_isomorphic(self):
        a = build_standard(SignSequence((2, 2)))
        b = build_standard(SignSequence((2, -2)))
        assert find_based_isomorphism(a, b) is None
        assert find_based_isomorphism(a, b, allow_grading_shift=True) is None


def directed_cycles(*lengths):
    """Disjoint directed cycles of UV arrows, every generator at (0, 0)."""
    gens, arrows = [], []
    for length in lengths:
        base = len(gens)
        gens += [Generator(base + i, f"g{base + i}", Grading(0, 0)) for i in range(length)]
        arrows += [
            Arrow(base + i, Monomial(1, 1), base + (i + 1) % length) for i in range(length)
        ]
    return make_complex(RINF, gens, arrows)


class TestIndividualization:
    # Every generator of a union of directed cycles has one arrow in and one
    # out, so refinement alone cannot tell the cycles apart.
    def test_two_triangles_are_not_a_hexagon(self):
        two_triangles, hexagon = directed_cycles(3, 3), directed_cycles(6)
        assert isomorphism_by_permutations(two_triangles, hexagon) is None
        assert find_based_isomorphism(two_triangles, hexagon) is None

    def test_a_wrong_first_pairing_is_backtracked(self):
        first, second = directed_cycles(3, 6), directed_cycles(6, 3)
        witness = find_based_isomorphism(first, second)
        assert is_based_isomorphism(first, second, witness)
        # Generator 0 lies on first's triangle and second's triangle has ids
        # 6-8, so the search paired it with the hexagon first and backed out.
        assert witness[0] >= 6


class TestAgainstExhaustiveSearch:
    """The search against every bijection, on seeded complexes of at most 7
    generators with few gradings and monomials, so that many tie."""

    def pairs(self, seed):
        rng = random.Random(seed)
        count = rng.randint(1, 7)
        c = random_small_complex(rng, count)
        order = rng.sample(range(count), count)
        du, dv = rng.choice([(0, 1), (2, -1), (-1, -3)])
        copy = relabelled(c, order)
        # One arrow of the copy reversed: isomorphic or not by chance.
        flipped = set(copy.arrows)
        if flipped:
            s, m, t = flipped.pop()
            flipped.add(Arrow(t, m, s))
        yield c, random_small_complex(rng, count), False
        yield c, copy, False
        yield c, make_complex(RINF, copy.generators, flipped), False
        yield c, conjugate(c), False
        yield c, conjugate(c), True
        yield c, relabelled(c, order, du, dv), False
        yield c, relabelled(c, order, du, dv), True

    def test_agrees_and_every_witness_is_a_based_isomorphism(self):
        verdicts = set()
        for seed in range(150):
            for kind, (first, second, shift) in enumerate(self.pairs(seed)):
                expected = isomorphism_by_permutations(first, second, shift)
                found = find_based_isomorphism(first, second, shift)
                assert (found is None) == (expected is None), (seed, kind)
                verdicts.add((kind, found is None))
                if found is not None:
                    assert list(found) == sorted(found)
                    assert is_based_isomorphism(first, second, found, shift), seed
        # Both verdicts for every kind of pair but the three exact copies.
        assert len(verdicts) == 11


class TestSearchBounds:
    def test_1541_generator_realization_is_symmetric(self):
        glued = realize(long_symmetric_sequence())
        assert len(glued.generators) == 1541
        witness = check_symmetry(glued)
        assert is_based_isomorphism(glued, conjugate(glued), witness)

    @pytest.mark.parametrize("h, seed", [(9, 0), (9, 1), (9, 2), (20, 0)])
    def test_layered_probe_is_refuted_within_a_second(self, h, seed):
        probe = layered_probe(h, seed)
        assert len(probe.generators) == 4 * h
        assert differential_square(probe) == {}
        assert degree_violations(probe) == []
        started = time.perf_counter()
        assert check_symmetry(probe) is None
        assert time.perf_counter() - started < 1.0

    def test_ties_cost_individualizations_from_the_budget(self, monkeypatch):
        c = build_standard(SignSequence((-1, 1)))
        twins = disjoint_union(c, c)
        assert is_based_isomorphism(twins, conjugate(twins), check_symmetry(twins))
        monkeypatch.setattr(homology, "SEARCH_BUDGET", 0)
        assert check_symmetry(c) == {0: 2, 1: 1, 2: 0}
        with pytest.raises(SearchBudgetError):
            check_symmetry(twins)


class TestRealizationHomology:
    def test_glued_output_passes(self):
        glued = realize(SignSequence((2, 2)))
        assert has_correct_homology(glued)
