import itertools
import json
import random
import time
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from tunnelfill import (
    BasedComplex,
    ConstructionError,
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
    parse,
    realize,
)
from tunnelfill import f2poly, homology
from tunnelfill.census import census_sequences
from tunnelfill.homology import (
    ELIMINATION_DEGREE_BOUND,
    has_correct_homology,
    quotient_complex,
)
from tunnelfill.rings import R1, RINF, Arrow
from conftest import (
    census_realizations,
    conjugate,
    criterion_9_matrices,
    dense_document,
    disjoint_union,
    eliminated_reports,
    find_based_isomorphism,
    is_based_isomorphism,
    isomorphism_by_permutations,
    layered_probe,
    long_symmetric_sequence,
    make_complex,
    random_degree_valid_complex,
    random_small_complex,
    reference_isomorphism,
    relabelled,
    sign_sequences,
    signature_rounds,
    symmetric_by_brute_force,
    translated_onto,
)


class TestQuotient:
    def test_unknown_variable_rejected(self):
        with pytest.raises(ConstructionError, match="kill must be 'U' or 'V', not 'W'"):
            quotient_complex(build_standard(SignSequence((2, 2))), "W")

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
            Generator("a", Grading(0, 0)),
            Generator("b", Grading(-1, -1)),
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
            Generator("a", Grading(1, 1)),
            Generator("b", Grading(2, 2)),
        )
        c = make_complex(RINF, gens, [Arrow(0, Monomial(1, 1), 1)])
        assert check_symmetry(c) == {0: 0, 1: 1}

    def test_empty_complex_is_symmetric(self):
        empty = make_complex(RINF, (), [])
        assert check_symmetry(empty) == {}
        assert find_based_isomorphism(empty, empty) == {}

    def test_one_generator_is_its_own_image(self):
        one = make_complex(RINF, (Generator("x", Grading(2, -1)),), [])
        assert check_symmetry(one) is None
        centred = make_complex(RINF, (Generator("x", Grading(0, 0)),), [])
        assert check_symmetry(centred) == {0: 0}
        assert find_based_isomorphism(one, one) == {0: 0}

    @given(sign_sequences(max_n=2, max_abs=2))
    def test_conjugating_preserves_the_verdict(self, seq):
        c = build_standard(seq)
        assert (check_symmetry(c) is None) == (check_symmetry(conjugate(c)) is None)

    def test_random_degree_valid_documents_match_brute_force(self):
        rng = random.Random(7)
        verdicts = {True: 0, False: 0}
        for draw in range(10000):
            complex = random_degree_valid_complex(rng)
            witness = check_symmetry(complex)
            assert (witness is not None) == symmetric_by_brute_force(complex), draw
            if witness is not None:
                assert is_based_isomorphism(complex, conjugate(complex), witness), draw
            verdicts[witness is not None] += 1
        assert min(verdicts.values()) > 3000

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
            tuple(Generator(f"g{i}", g.grading) for i, g in enumerate(c.generators)),
            c.arrows,
        )
        assert find_based_isomorphism(c, relabelled) is not None

    def test_grading_shift_needs_permission(self):
        c = build_standard(SignSequence((2, 2)))
        shifted = make_complex(
            c.ring,
            tuple(
                Generator(g.name, g.grading.shifted(-1, -1))
                for g in c.generators
            ),
            c.arrows,
        )
        assert find_based_isomorphism(c, shifted) is None
        assert find_based_isomorphism(translated_onto(c, shifted), shifted) is not None

    def test_different_shapes_are_not_isomorphic(self):
        a = build_standard(SignSequence((2, 2)))
        b = build_standard(SignSequence((2, -2)))
        assert find_based_isomorphism(a, b) is None
        assert find_based_isomorphism(translated_onto(a, b), b) is None


def directed_cycles(*lengths):
    """Disjoint directed cycles of UV arrows, every generator at (0, 0)."""
    gens, arrows = [], []
    for length in lengths:
        base = len(gens)
        gens += [Generator(f"g{base + i}", Grading(0, 0)) for i in range(length)]
        arrows += [
            Arrow(base + i, Monomial(1, 1), base + (i + 1) % length) for i in range(length)
        ]
    return make_complex(RINF, gens, arrows)


def directed_path(length):
    """A directed path of UV arrows, every generator at (0, 0)."""
    gens = [Generator(f"g{i}", Grading(0, 0)) for i in range(length)]
    arrows = [Arrow(i, Monomial(1, 1), i + 1) for i in range(length - 1)]
    return make_complex(RINF, gens, arrows)


def disjoint_copies(complex, count):
    """``count`` disjoint copies of ``complex``, copy i's generators shifted
    by i times its size."""
    size = len(complex.generators)
    gens = [
        Generator(f"{g.name}.{i}", g.grading)
        for i in range(count)
        for g in complex.generators
    ]
    arrows = [
        Arrow(i * size + a.source, a.monomial, i * size + a.target)
        for i in range(count)
        for a in complex.arrows
    ]
    return make_complex(complex.ring, gens, arrows)


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
                found = find_based_isomorphism(
                    translated_onto(first, second) if shift else first, second
                )
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
        assert differential_square(probe) == ()
        assert degree_violations(probe) == []
        started = time.perf_counter()
        assert check_symmetry(probe) is None
        assert time.perf_counter() - started < 1.0

    def test_unsymmetric_gradings_end_the_search_before_the_arrows(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the search ran past the gradings")

        c = build_standard(SignSequence((2, 2)))
        gradings = sorted(g.grading for g in c.generators)
        swapped = sorted(Grading(g.grading.gv, g.grading.gu) for g in c.generators)
        assert gradings != swapped
        monkeypatch.setattr(homology, "_isomorphism", refuse)
        assert check_symmetry(c) is None

    def test_ties_cost_individualizations_from_the_budget(self, monkeypatch):
        c = build_standard(SignSequence((-1, 1)))
        twins = disjoint_union(c, c)
        assert is_based_isomorphism(twins, conjugate(twins), check_symmetry(twins))
        monkeypatch.setattr(homology, "SEARCH_BUDGET", 0)
        assert check_symmetry(c) == {0: 2, 1: 1, 2: 0}
        with pytest.raises(SearchBudgetError):
            check_symmetry(twins)


def cells_of(colour):
    """A colouring's cells as sorted lists of vertices, in sorted order."""
    cells = {}
    for v, c in enumerate(colour):
        cells.setdefault(c, []).append(v)
    return sorted(cells.values())


class TestAgainstReference:
    """The worklist search against the signature-round search it replaced
    (``conftest.reference_isomorphism``): the same verdict and witness."""

    def test_census_standard_complexes(self):
        symmetric = 0
        for seq in census_sequences(3, 3):
            c = build_standard(seq)
            witness = check_symmetry(c)
            assert witness == reference_isomorphism(c, conjugate(c)), seq
            symmetric += witness is not None
        assert symmetric == 258

    def test_criterion_9_documents(self):
        for matrix in criterion_9_matrices():
            c = parse(dense_document(matrix))
            assert check_symmetry(c) == reference_isomorphism(c, conjugate(c)), matrix

    def test_census_realizations(self):
        for glued in census_realizations():
            assert check_symmetry(glued) == reference_isomorphism(glued, conjugate(glued))

    def test_1541_generator_realization(self):
        glued = realize(long_symmetric_sequence())
        assert check_symmetry(glued) == reference_isomorphism(glued, conjugate(glued))

    def test_every_exhaustive_search_pair(self):
        pairs = TestAgainstExhaustiveSearch().pairs
        for seed in range(150):
            for kind, (first, second, shift) in enumerate(pairs(seed)):
                if shift:
                    first = translated_onto(first, second)
                expected = reference_isomorphism(first, second)
                assert find_based_isomorphism(first, second) == expected, (seed, kind)

    def test_each_refinement_reaches_the_signature_rounds_partition(self, monkeypatch):
        # The witness depends on nothing but the partitions, so each one the
        # worklist reaches must be the one whole signature rounds reach.
        refine = homology._refine

        def checked(links, n, colour, pending):
            start = list(colour)
            stable = refine(links, n, colour, pending)
            rounds = signature_rounds(links, n, start)
            assert stable == (rounds is not None)
            if stable:
                assert cells_of(colour) == cells_of(rounds)
            return stable

        monkeypatch.setattr(homology, "_refine", checked)
        rng = random.Random(7)
        for _ in range(2000):
            count = rng.randint(2, 9)
            first = random_small_complex(rng, count)
            second = relabelled(first, rng.sample(range(count), count))
            assert find_based_isomorphism(first, second) is not None


class TestScaling:
    """Refinement re-splits only the cells that reach a changed cell, so a
    long chain of look-alike generators costs about linear time."""

    def test_1541_generator_path(self):
        path = directed_path(1541)
        identity = {i: i for i in range(1541)}
        started = time.perf_counter()
        assert find_based_isomorphism(path, path) == identity
        assert check_symmetry(path) == identity
        assert time.perf_counter() - started < 0.5

    def test_twenty_copies_need_nineteen_pairings(self, monkeypatch):
        part = realize(SignSequence((-1, 1, 2, -1, 1, 3, -3, -1, 1, -2, -1, 1)))
        assert len(part.generators) == 29
        copies = disjoint_copies(part, 20)
        monkeypatch.setattr(homology, "SEARCH_BUDGET", 19)
        started = time.perf_counter()
        witness = check_symmetry(copies)
        assert time.perf_counter() - started < 0.2
        assert is_based_isomorphism(copies, conjugate(copies), witness)
        monkeypatch.setattr(homology, "SEARCH_BUDGET", 18)
        with pytest.raises(SearchBudgetError, match="after 18 individualizations"):
            check_symmetry(copies)


class TestRealizationHomology:
    def test_glued_output_passes(self):
        glued = realize(SignSequence((2, 2)))
        assert has_correct_homology(glued)


def elimination_probe(n: int) -> str:
    """A document whose C/U quotient is the single block [V^n, V^2 + V]. Its
    one row has two entries, so its Smith form must be eliminated."""
    generators = [{"name": "r", "gr": [0, 1]}]
    generators += [{"name": f"c{j}", "gr": [1, 0]} for j in range(2)]
    arrows = [{"from": "c0", "to": "r", "u": 0, "v": n}]
    arrows += [{"from": "c1", "to": "r", "u": 0, "v": v} for v in (1, 2)]
    return json.dumps({"ring": "Rinf", "generators": generators, "arrows": arrows})


class TestSnfTraffic:
    """Homology reads the Smith form off the blocks of realizations and
    eliminates only blocks that need it."""

    def test_realizations_need_no_elimination(self, snf_calls):
        rng = random.Random(10)
        realized = 0
        while realized < 30:
            n = rng.randint(1, 8)
            entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(2 * n))
            glued = realize(SignSequence(entries))
            if not isinstance(glued, BasedComplex):
                continue
            realized += 1
            assert all(r.verdict for r in check_correct_homology(glued))
        assert snf_calls == []

    def test_dense_document_is_eliminated(self, snf_calls):
        reports = check_correct_homology(parse(dense_document(((1, 2), (3, 1)))))
        assert len(snf_calls) >= 1
        # The block [[t, t^2], [t^2+t, t]] has invariant factors t and
        # t(t^2+t+1); every arrow carries V, so C/V is four free generators.
        assert reports[0].torsion_orders == ((0, (1, 3)),)
        assert [r.free_rank_total for r in reports] == [0, 4]

    def test_elimination_stops_at_the_degree_bound(self, snf_calls):
        at_bound = parse(elimination_probe(ELIMINATION_DEGREE_BOUND))
        assert check_correct_homology(at_bound)[0].torsion_orders == ((0, (1,)),)
        assert len(snf_calls) == 1
        with pytest.raises(SearchBudgetError, match="elimination bound of 4096"):
            check_correct_homology(parse(elimination_probe(10**6)))
        assert len(snf_calls) == 1

    def test_criterion_9_documents_build_no_transform(self, snf_calls, monkeypatch):
        def refuse(size, moves):
            raise AssertionError("homology read a transform of smith_normal_form")

        monkeypatch.setattr(f2poly, "_replay", refuse)
        for matrix in criterion_9_matrices():
            check_correct_homology(parse(dense_document(matrix)))
        assert len(snf_calls) > 400


T = 0b10  # the variable t


@st.composite
def permuted_monomial_diagonals(draw):
    """Rows of a diagonal of powers of t with its rows and columns shuffled,
    zeros included: no two nonzero entries share a row or a column."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    powers = draw(st.lists(st.integers(0, 8), max_size=min(nrows, ncols)))
    rows = draw(st.permutations(range(nrows)))
    cols = draw(st.permutations(range(ncols)))
    matrix = [[0] * ncols for _ in range(nrows)]
    for i, power in enumerate(powers):
        matrix[rows[i]][cols[i]] = 1 << power
    return matrix


class TestReadOff:
    """Homology reads a block in which no two arrows share an end off its
    arrows and eliminates any other; either way its reports must equal
    those of eliminating every block."""

    # snf_calls collects across all examples, so one elimination fails.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(permuted_monomial_diagonals())
    @example([[0, 0, T], [T * T, 0, 0]])
    @example([[0, 0], [0, 0], [0, 0]])
    @example([[0, 0], [0, 0]])
    @example([[0]])
    def test_permuted_monomial_diagonals(self, snf_calls, matrix):
        complex = parse(dense_document(matrix))
        assert check_correct_homology(complex) == eliminated_reports(complex)
        assert snf_calls == []

    def test_criterion_9_documents(self):
        for matrix in criterion_9_matrices():
            complex = parse(dense_document(matrix))
            assert check_correct_homology(complex) == eliminated_reports(complex)

    def test_census_realizations(self, snf_calls):
        realized = census_realizations()
        for glued in realized:
            assert check_correct_homology(glued) == eliminated_reports(glued)
        assert len(realized) == 636
        assert snf_calls == []

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0], [0, 0b11], [0, 0]],  # t+1, not a power of t
            [[0b101, 0], [0, 0b11]],  # (t+1)^2 and t+1
            [[T, 0], [0, 0b11]],  # t and t+1: coprime, SNF is (1, t^2+t)
            [[T, T], [0, 0]],  # two entries in one row
            [[T, 0], [T, 0]],  # two entries in one column
            [[0b101, 0], [0, 0b110]],  # (t+1)^2 and t(t+1): equal degree
        ],
    )
    def test_other_blocks_are_eliminated(self, snf_calls, rows):
        complex = parse(dense_document(rows))
        assert check_correct_homology(complex) == eliminated_reports(complex)
        assert len(snf_calls) == 1


def traced_peak(work) -> int:
    """The peak bytes Python allocated while ``work()`` ran."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Homology allocates per generator and per arrow, never per pair of
    generators or per unit of an arrow's power."""

    def test_wide_arrowless_document(self):
        k = 2000
        gens = [Generator(f"a{i}", Grading(0, 0)) for i in range(k)]
        gens += [Generator(f"b{i}", Grading(1, 1)) for i in range(k)]
        wide = make_complex(RINF, gens, [])
        reports = []
        peak = traced_peak(lambda: reports.extend(check_correct_homology(wide)))
        assert peak < 4 << 20
        assert [r.free_rank_total for r in reports] == [2 * k, 2 * k]

    def test_realization_at_a_hundred_million(self):
        seq = SignSequence((-1, 1, 10**8, -(10**8), -1, 1))
        reports = []
        peak = traced_peak(lambda: reports.extend(check_correct_homology(realize(seq))))
        assert peak < 4 << 20
        assert all(r.verdict for r in reports)
