import itertools
import random

import pytest
from hypothesis import given

from tunnelfill import (
    Arrow,
    ConstructionError,
    ExtendedSignSequence,
    SignSequence,
    build_standard,
    degree_violations,
    differential_square,
)
from tunnelfill.census import census_sequences
from tunnelfill.homology import has_correct_homology
from tunnelfill.lattice import lattice_positions
from tunnelfill.rings import _INTERNED_LIMIT, add_arrows
from tunnelfill.standard import _GENERATORS, _STEPS, _chain, build_extended, chain_links
from conftest import (
    candidate_monomial,
    id_of,
    is_vertical,
    named_arrows,
    nonzero_ints,
    reference_build_extended,
    sign_sequences,
)


def grading_of(complex, name):
    g = complex.generators[id_of(complex, name)].grading
    return (g.gu, g.gv)


class TestSequenceValidation:
    def test_zero_entry_rejected(self):
        with pytest.raises(ConstructionError):
            SignSequence((1, 0))

    def test_odd_length_rejected(self):
        with pytest.raises(ConstructionError):
            SignSequence((1, 2, 3))

    def test_empty_rejected(self):
        with pytest.raises(ConstructionError):
            SignSequence(())

    def test_extension_entries_nonzero(self):
        with pytest.raises(ConstructionError):
            ExtendedSignSequence(0, SignSequence((1, -1)), 2)


class TestStandardGradings:
    def test_two_two(self):
        c = build_standard(SignSequence((2, 2)))
        assert grading_of(c, "x0") == (0, 2)
        assert grading_of(c, "x1") == (-3, 3)
        assert grading_of(c, "x2") == (-2, 0)

    def test_one_minus_one(self):
        c = build_standard(SignSequence((1, -1)))
        assert grading_of(c, "x0") == (0, -2)
        assert grading_of(c, "x1") == (-1, -1)
        assert grading_of(c, "x2") == (-2, 0)
        assert named_arrows(c) == {("x1", 1, 0, "x0"), ("x1", 0, 1, "x2")}


class TestShapes:
    def test_staircase_with_reversals(self):
        # C(2, -2, -1, 1, 3, -1): x0 top-left, then right 2, down 2, left 1,
        # up 1, right 3, down 1 (reading the zig-zag off the arrows).
        c = build_standard(SignSequence((2, -2, -1, 1, 3, -1)))
        pos = lattice_positions(c)
        deltas = [
            (pos[i][0] - pos[0][0], pos[i][1] - pos[0][1]) for i in range(7)
        ]
        assert deltas == [(0, 0), (2, 0), (2, -2), (1, -2), (1, -1), (4, -1), (4, -2)]

    def test_extended_shape(self):
        ext = ExtendedSignSequence(2, SignSequence((2, -2, -1, 1, 3, -1)), -1)
        c = build_extended(ext)
        pos = lattice_positions(c)
        x = {c.generators[i].name: pos[i] for i in pos}
        origin = x["x0"]
        deltas = {
            name: (p[0] - origin[0], p[1] - origin[1]) for name, p in x.items()
        }
        assert deltas == {
            "x-1": (0, -2),
            "x0": (0, 0),
            "x1": (2, 0),
            "x2": (2, -2),
            "x3": (1, -2),
            "x4": (1, -1),
            "x5": (4, -1),
            "x6": (4, -2),
            "x7": (3, -2),
        }

    def test_extension_arrow_directions(self):
        ext = ExtendedSignSequence(3, SignSequence((1, -1)), -2)
        c = build_extended(ext)
        arrows = named_arrows(c)
        assert ("x0", 0, 3, "x-1") in arrows  # positive head: down from x0
        assert ("x2", 2, 0, "x3") in arrows  # negative tail: out of x2


class TestStandardInvariants:
    @given(sign_sequences(max_n=3, max_abs=4))
    def test_chain_complex_with_legal_degrees(self, seq):
        c = build_standard(seq)
        assert differential_square(c) == ()
        assert degree_violations(c) == []

    @given(sign_sequences(max_n=2, max_abs=3))
    def test_standard_complexes_are_knot_like(self, seq):
        assert has_correct_homology(build_standard(seq))

    @given(sign_sequences(max_n=3, max_abs=3), nonzero_ints(3), nonzero_ints(3))
    def test_at_most_one_arrow_of_each_kind_per_generator(self, seq, head, tail):
        ext = ExtendedSignSequence(head, seq, tail)
        for c in (build_standard(seq), build_extended(ext)):
            for gid in range(len(c.generators)):
                incident = [
                    a for a in c.arrows if a.source == gid or a.target == gid
                ]
                assert sum(1 for a in incident if a.monomial.is_horizontal) <= 1
                assert sum(1 for a in incident if is_vertical(a.monomial)) <= 1
            # links[j] joins ids j and j + 1, and the kinds alternate, so a
            # generator's two links are one horizontal and one vertical.
            kinds = [a.monomial.is_horizontal for a in c.links]
            for j, a in enumerate(c.links):
                assert {a.source, a.target} == {j, j + 1}
                assert is_vertical(a.monomial) != kinds[j]
            assert all(k != n for k, n in zip(kinds, kinds[1:]))

    def test_first_generator_has_no_vertical_arrow(self):
        for entries in itertools.product([-2, -1, 1, 2], repeat=2):
            c = build_standard(SignSequence(entries))
            incident = [a for a in c.arrows if 0 in (a.source, a.target)]
            assert not any(is_vertical(a.monomial) for a in incident)

    def test_extended_complexes_are_not_knot_like(self):
        ext = ExtendedSignSequence(4, SignSequence((-1, 1, 2, -1, 1, 3)), -4)
        c = build_extended(ext)
        assert differential_square(c) == ()
        assert degree_violations(c) == []
        assert not has_correct_homology(c)


class TestCandidateMonomial:
    def test_half_integral_solution_gives_none(self):
        c = build_standard(SignSequence((1, 1)))
        assert grading_of(c, "x0") == (0, 0)
        assert grading_of(c, "x2") == (0, 0)
        assert candidate_monomial(c, id_of(c, "x2"), id_of(c, "x0")) is None

    def test_forced_diagonal_between_corner_pair(self):
        c = build_standard(SignSequence((-1, 1, 2, -1, 1, 2)))
        mono = candidate_monomial(c, id_of(c, "x3"), id_of(c, "x0"))
        assert (mono.u, mono.v) == (1, 1)

    def test_same_generator_rejected(self):
        c = build_standard(SignSequence((1, 1)))
        with pytest.raises(ConstructionError):
            candidate_monomial(c, 0, 0)

    @given(sign_sequences(max_n=2, max_abs=3))
    def test_candidates_pass_the_degree_check(self, seq):
        c = build_standard(seq)
        count = len(c.generators)
        for x in range(count):
            for y in range(count):
                if x == y:
                    continue
                mono = candidate_monomial(c, x, y)
                if mono is None or mono.is_zero_in(c.ring):
                    continue
                arrow = Arrow(x, mono, y)
                if arrow in c.arrows:
                    continue
                assert degree_violations(add_arrows(c, [arrow])) == []


class TestNormalizationAnchors:
    @given(sign_sequences(max_n=3, max_abs=4))
    def test_anchor_gradings(self, seq):
        c = build_standard(seq)
        assert c.generators[0].grading.gu == 0
        assert c.generators[-1].grading.gv == 0

    def test_extended_body_keeps_standard_gradings(self):
        body = SignSequence((-1, 1, 2, -1, 1, 3))
        std = build_standard(body)
        ext = build_extended(ExtendedSignSequence(4, body, -4))
        for i in range(7):
            name = f"x{i}"
            assert std.generators[id_of(std, name)] == ext.generators[id_of(ext, name)]


class TestExtendedChain:
    def test_matches_the_reference_construction(self):
        ends = (-3, -2, -1, 1, 2, 3)
        count = 0
        for n in (1, 2):
            for entries in itertools.product(ends, repeat=2 * n):
                body = SignSequence(entries)
                for head, tail in itertools.product(ends, repeat=2):
                    ext = ExtendedSignSequence(head, body, tail)
                    c, ref = build_extended(ext), reference_build_extended(ext)
                    assert [g.name for g in c.generators] == [g.name for g in ref.generators]
                    assert [g.grading for g in c.generators] == [
                        g.grading for g in ref.generators
                    ]
                    assert c.links == ref.links
                    assert c == ref
                    count += 1
        assert count == (6**2 + 6**4) * 6**2


class TestChainLinks:
    def test_links_without_generators_match_the_built_chain(self):
        rng = random.Random(1536)
        entries = [s.entries for s in census_sequences(2, 3)] + [
            tuple(rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(length))
            for length in (96, 384, 1536)
        ]
        for e in entries:
            for first in (0, -1):
                assert chain_links(e, first) == _chain(e, first).links
            assert chain_links(e, 0) == build_standard(SignSequence(e)).links


class TestInterning:
    def test_long_sequences_leave_the_caches_within_their_bound(self):
        rng = random.Random(4096)
        sequences = [(-1, 1, 2, -1, 1, 3) * 256] + [
            tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(1536))
            for _ in range(11)
        ]
        first = build_standard(SignSequence(sequences[0]))
        keys = set()
        for entries in sequences:
            c = build_standard(SignSequence(entries))
            keys |= {(gid, g.grading) for gid, g in enumerate(c.generators)}
            assert len(_GENERATORS) <= _INTERNED_LIMIT
            assert len(_STEPS) <= _INTERNED_LIMIT
            # Extended chains share the caches, under keys of their own.
            build_extended(ExtendedSignSequence(5, SignSequence(entries), -5))
            assert len(_GENERATORS) <= _INTERNED_LIMIT
            assert len(_STEPS) <= _INTERNED_LIMIT
        # Unbounded, the generator cache would now hold every key seen.
        assert len(keys) > _INTERNED_LIMIT
        assert build_standard(SignSequence(sequences[0])) == first
