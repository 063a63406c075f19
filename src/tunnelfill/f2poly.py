"""Polynomials over F2 and matrices of them, with Smith normal form.

A polynomial in F2[t] is an int whose bit i is the coefficient of t^i, so
addition is xor and multiplication is carry-less. The zero polynomial is 0
and every nonzero polynomial is monic, which makes F2[t] a Euclidean domain
with no unit bookkeeping at all.
"""

from __future__ import annotations

from dataclasses import dataclass

Poly = int


def pdeg(a: Poly) -> int:
    """Degree, with deg 0 = -1."""
    return a.bit_length() - 1


def pmul(a: Poly, b: Poly) -> Poly:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = pdeg(b)
    q = 0
    while a and pdeg(a) >= db:
        shift = pdeg(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def pmod(a: Poly, b: Poly) -> Poly:
    return pdivmod(a, b)[1]


@dataclass(frozen=True)
class PolyMatrix:
    rows: tuple[tuple[Poly, ...], ...]

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def diagonal(self) -> tuple[Poly, ...]:
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))


def rank(m: PolyMatrix) -> int:
    """Rank over the fraction field, by cross-multiplication elimination.

    Independent of the Smith normal form path on purpose; the two are
    checked against each other.
    """
    a = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if a[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, nrows):
            if a[i][col]:
                lead, piv = a[i][col], a[r][col]
                a[i] = [pmul(x, piv) ^ pmul(y, lead) for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def smith_normal_form(m: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Diagonalize m over F2[t]: returns (left, diag, right) with
    m = left @ diag @ right, the transforms invertible, and each diagonal
    entry dividing the next.

    Pivot rule: move a minimum-degree entry of the remaining block to the
    pivot and divide it out of its row and column. Any nonzero remainder
    has smaller degree than the pivot, so the block's minimum is picked
    again; the remainder is never swapped in mid-sweep. If the pivot clears
    its row and column but does not divide the rest of the block, an
    offending row is folded into the pivot row, which leaves a remainder on
    the next pass. Every pivot is thus a minimum of its block and every
    remainder lowers the pivot degree, so each position sees at most
    deg(first pivot) + 1 pivots and each quotient has degree at most the
    block's degree spread. This keeps the transforms' degrees near those of
    m; swapping remainders in lets quotients compound instead, the
    coefficient blowup of Kannan & Bachem (SIAM J. Comput. 8(4), 1979).
    """
    nrows, ncols = m.nrows, m.ncols
    a = [list(r) for r in m.rows]
    left = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    right = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    # Elementary moves keep the invariant m = left @ a @ right. Over F2 both
    # swaps and additions are their own inverses, so applying the same move
    # to the transform suffices.
    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(nrows):  # left @ swap: exchange columns i, j
            left[r][i], left[r][j] = left[r][j], left[r][i]

    def swap_cols(i, j):
        for r in range(nrows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        right[i], right[j] = right[j], right[i]

    def add_row(src, dst, q):  # row dst += q * row src
        for c in range(ncols):
            a[dst][c] ^= pmul(q, a[src][c])
        for r in range(nrows):  # left: column src += q * column dst
            left[r][src] ^= pmul(q, left[r][dst])

    def add_col(src, dst, q):  # col dst += q * col src
        for r in range(nrows):
            a[r][dst] ^= pmul(q, a[r][src])
        for c in range(ncols):  # right: row src += q * row dst
            right[src][c] ^= pmul(q, right[dst][c])

    def smallest_nonzero(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] and (best is None or pdeg(a[i][j]) < pdeg(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nrows, ncols):
        pos = smallest_nonzero(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        # Clear the pivot's row and column; a nonzero remainder has smaller
        # degree than the pivot, so re-pick the minimum instead.
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                q, r = pdivmod(a[i][t], a[t][t])
                add_row(t, i, q)
                dirty = dirty or r != 0
        for j in range(t + 1, ncols):
            if a[t][j]:
                q, r = pdivmod(a[t][j], a[t][t])
                add_col(t, j, q)
                dirty = dirty or r != 0
        if dirty:
            continue
        # Pivot must divide the whole remaining block; if not, fold the
        # offending row in, which leaves a remainder for the next pass.
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] and pmod(a[i][j], a[t][t]):
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    return (
        PolyMatrix(tuple(tuple(r) for r in left)),
        PolyMatrix(tuple(tuple(r) for r in a)),
        PolyMatrix(tuple(tuple(r) for r in right)),
    )
