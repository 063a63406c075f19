import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from tunnelfill import f2poly
from tunnelfill.f2poly import PolyMatrix, pdeg, pdivmod, pmul, rank, smith_normal_form
from conftest import (
    criterion_9_matrices,
    is_diagonal_matrix,
    pdet,
    pdivides,
    product,
    reference_smith_normal_form,
)

T = 0b10  # the variable t

polys = st.integers(0, 15)  # degree <= 3
matrices = st.integers(1, 6).flatmap(
    lambda nr: st.integers(1, 6).flatmap(
        lambda nc: st.lists(
            st.tuples(*[polys] * nc), min_size=nr, max_size=nr
        ).map(lambda rows: PolyMatrix(tuple(rows)))
    )
)


class TestPolynomials:
    def test_multiplication_is_carryless(self):
        assert pmul(T, T) == 0b100
        assert pmul(0b11, 0b11) == 0b101  # (t+1)^2 = t^2+1 over F2

    @given(polys, st.integers(1, 15))
    def test_division_identity(self, a, b):
        q, r = pdivmod(a, b)
        assert pmul(q, b) ^ r == a
        assert pdeg(r) < pdeg(b)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            pdivmod(1, 0)


class TestSmithNormalForm:
    def test_single_entry(self):
        left, diag, right = smith_normal_form(PolyMatrix(((T,),)))
        assert diag.rows == ((T,),)
        assert product(left, diag, right).rows == ((T,),)

    def test_upper_triangular_example(self):
        m = PolyMatrix(((T, pmul(T, T)), (0, pmul(T, pmul(T, T)))))
        left, diag, right = smith_normal_form(m)
        assert diag.diagonal() == (T, pmul(T, pmul(T, T)))
        assert product(left, diag, right) == m

    def test_zero_matrix(self):
        m = PolyMatrix(((0, 0),) * 3)
        left, diag, right = smith_normal_form(m)
        assert diag == m
        assert product(left, diag, right) == m

    @given(matrices)
    def test_snf_contract(self, m):
        left, diag, right = smith_normal_form(m)
        assert product(left, diag, right) == m
        assert is_diagonal_matrix(diag)
        d = diag.diagonal()
        for i in range(len(d) - 1):
            assert pdivides(d[i], d[i + 1])
        assert pdet(left) == 1
        assert pdet(right) == 1

    @given(matrices)
    def test_rank_agrees_with_elimination(self, m):
        assert sum(1 for d in smith_normal_form(m)[1].diagonal() if d) == rank(m)

    def test_fixed_seed_bulk_run(self):
        rng = random.Random(2024)
        for _ in range(200):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = PolyMatrix(
                tuple(tuple(rng.randrange(16) for _ in range(nc)) for _ in range(nr))
            )
            left, diag, right = smith_normal_form(m)
            assert product(left, diag, right) == m
            assert sum(1 for d in diag.diagonal() if d) == rank(m)



def matrix(rows):
    return PolyMatrix(tuple(tuple(r) for r in rows))


@st.composite
def permuted_diagonals(draw):
    """A diagonal of powers of t, zeros included, its rows and columns
    shuffled: at most one nonzero entry per row and per column."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    powers = draw(st.lists(st.integers(0, 8), max_size=min(nrows, ncols)))
    rows = draw(st.permutations(range(nrows)))
    cols = draw(st.permutations(range(ncols)))
    a = [[0] * ncols for _ in range(nrows)]
    for i, power in enumerate(powers):
        a[rows[i]][cols[i]] = 1 << power
    return matrix(a)


def read_off(m):
    """The nonzero entries of m sorted by degree, padded with zeros to the
    length of its diagonal."""
    entries = sorted((e for row in m.rows for e in row if e), key=pdeg)
    return tuple(entries) + (0,) * (min(m.nrows, m.ncols) - len(entries))


class TestSnfDiagonal:
    """A permuted diagonal whose entries, sorted by degree, each divide the
    next is its own Smith form up to order: the rule homology reads blocks
    of arrows off without elimination."""

    @given(permuted_diagonals())
    @example(matrix([[0, 0], [0, 0], [0, 0]]))
    @example(matrix([[0]]))
    def test_permuted_diagonals(self, m):
        assert smith_normal_form(m)[1].diagonal() == read_off(m)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[0, 0, T], [pmul(T, T), 0, 0]], (T, pmul(T, T))),
            ([[0, 0], [0, 0b11], [0, 0]], (0b11, 0)),  # t+1, not a monomial
            ([[0b101, 0], [0, 0b11]], (0b11, 0b101)),  # t+1 | (t+1)^2
            ([[0, 0], [0, 0]], (0, 0)),
        ],
    )
    def test_read_off_without_elimination(self, rows, expected):
        m = matrix(rows)
        assert read_off(m) == expected
        assert smith_normal_form(m)[1].diagonal() == expected


def assert_matches_reference(m: PolyMatrix):
    got = smith_normal_form(m)
    expected = reference_smith_normal_form(m)
    assert [x.rows for x in got] == [x.rows for x in expected], m


class TestAgainstReference:
    """The move-log elimination against the transform-tracking one it
    replaced (``conftest.reference_smith_normal_form``): the same left, diag
    and right, entry for entry."""

    def test_criterion_9_corpus(self):
        for rows in criterion_9_matrices():
            assert_matches_reference(PolyMatrix(rows))

    def test_criterion_9_corpus_times_t(self):
        # The blocks of the verify-docs documents.
        for rows in criterion_9_matrices():
            assert_matches_reference(
                PolyMatrix(tuple(tuple(pmul(e, T) for e in row) for row in rows))
            )

    @pytest.mark.parametrize("rows", [(), ((),), ((), ())])
    def test_matrices_without_entries(self, rows):
        assert_matches_reference(PolyMatrix(rows))

    @given(matrices)
    def test_drawn_matrices(self, m):
        assert_matches_reference(m)

    def test_larger_seeded_matrices(self):
        rng = random.Random(7)
        for _ in range(300):
            nr, nc = rng.randint(1, 9), rng.randint(1, 9)
            assert_matches_reference(
                PolyMatrix(
                    tuple(tuple(rng.randrange(256) for _ in range(nc)) for _ in range(nr))
                )
            )


class TestTransformsBuiltOnRead:
    """smith_normal_form builds a transform from its move log when its rows
    are first read, and only then."""

    @pytest.fixture
    def replays(self, monkeypatch):
        calls = []
        original = f2poly._replay

        def counting(size, moves):
            calls.append(size)
            return original(size, moves)

        monkeypatch.setattr(f2poly, "_replay", counting)
        return calls

    M = PolyMatrix(((T, pmul(T, T)), (0b11, T)))

    def test_diagonal_alone_replays_nothing(self, replays):
        assert smith_normal_form(self.M)[1].diagonal() == (1, pmul(T, pmul(T, T)))
        assert replays == []

    def test_a_second_read_does_not_replay(self, replays):
        left, _, right = smith_normal_form(self.M)
        first = left.rows
        assert left.rows is first
        assert right.rows == right.rows
        assert replays == [2, 2]

    def test_a_transform_equals_a_plain_matrix_with_its_rows(self):
        left, diag, right = smith_normal_form(self.M)
        plain = PolyMatrix(left.rows)
        assert left == plain and plain == left
        assert hash(left) == hash(plain)
        assert left != PolyMatrix(((1, 0), (0, 1)))
        assert right != diag
