import itertools

from hypothesis import given

from tunnelfill import (
    Generator,
    Grading,
    Monomial,
    SignSequence,
    build_standard,
    check_correct_homology,
    check_symmetry,
    realize,
)
from tunnelfill.homology import (
    conjugate,
    find_based_isomorphism,
    has_correct_homology,
    quotient_complex,
)
from tunnelfill.rings import R1, RINF, Arrow, make_complex
from conftest import disjoint_union, sign_sequences


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


class TestRealizationHomology:
    def test_glued_output_passes(self):
        glued = realize(SignSequence((2, 2)))
        assert has_correct_homology(glued)
