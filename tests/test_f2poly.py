import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tunnelfill.f2poly import (
    PolyMatrix,
    pdeg,
    pdet,
    pdivides,
    pdivmod,
    pmul,
    rank,
    smith_normal_form,
    snf_rank,
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
        assert (left @ diag @ right).rows == ((T,),)

    def test_upper_triangular_example(self):
        m = PolyMatrix(((T, pmul(T, T)), (0, pmul(T, pmul(T, T)))))
        left, diag, right = smith_normal_form(m)
        assert diag.diagonal() == (T, pmul(T, pmul(T, T)))
        assert left @ diag @ right == m

    def test_zero_matrix(self):
        m = PolyMatrix(((0, 0),) * 3)
        left, diag, right = smith_normal_form(m)
        assert diag == m
        assert left @ diag @ right == m

    @given(matrices)
    def test_snf_contract(self, m):
        left, diag, right = smith_normal_form(m)
        assert left @ diag @ right == m
        assert diag.is_diagonal()
        d = diag.diagonal()
        for i in range(len(d) - 1):
            assert pdivides(d[i], d[i + 1])
        assert pdet(left) == 1
        assert pdet(right) == 1

    @given(matrices)
    def test_rank_agrees_with_elimination(self, m):
        assert snf_rank(m) == rank(m)

    def test_fixed_seed_bulk_run(self):
        rng = random.Random(2024)
        for _ in range(200):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = PolyMatrix(
                tuple(tuple(rng.randrange(16) for _ in range(nc)) for _ in range(nr))
            )
            left, diag, right = smith_normal_form(m)
            assert left @ diag @ right == m
            assert snf_rank(m) == rank(m)
