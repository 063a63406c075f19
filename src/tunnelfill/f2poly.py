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
    db = b.bit_length()
    q = 0
    while (shift := a.bit_length() - db) >= 0:
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


class _Replayed(PolyMatrix):
    """A transform of ``smith_normal_form``: the identity of order ``size``
    with a log of row moves replayed on it the first time ``rows`` is read,
    then kept in the instance dict, where later reads find it. It equals any
    PolyMatrix with the same rows."""

    def __init__(self, size: int, moves: list, transpose: bool):
        self.__dict__.update(size=size, moves=moves, transpose=transpose)

    def __getattr__(self, name):
        if name != "rows":
            raise AttributeError(name)
        rows = _replay(self.size, self.moves)
        if self.transpose:
            rows = tuple(zip(*rows))
        self.__dict__["rows"] = rows
        return rows

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    __hash__ = PolyMatrix.__hash__


def _replay(size: int, moves: list) -> tuple[tuple[Poly, ...], ...]:
    """The identity of order ``size`` after each move of the log: ``(i, j,
    None)`` swaps rows i and j, ``(src, dst, q)`` adds q times row dst to
    row src."""
    a = [[int(i == j) for j in range(size)] for i in range(size)]
    for i, j, q in moves:
        if q is None:
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [x ^ pmul(y, q) if y else x for x, y in zip(a[i], a[j])]
    return tuple(map(tuple, a))


def smith_normal_form(m: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Diagonalize m over F2[t]: returns (left, diag, right) with
    m = left @ diag @ right, the transforms invertible, and each diagonal
    entry dividing the next.

    Only the block is eliminated. Each elementary move on it is logged, and
    a transform is built by replaying its log on the identity the first time
    its ``rows`` is read, so a caller that reads only ``diag`` never builds
    one. Over F2 swaps and additions are their own inverses: row dst += q *
    row src of the block is column src += q * column dst of ``left``, kept
    as a row move of its transpose, and col dst += q * col src is row src
    += q * row dst of ``right``.

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
    left_moves: list = []  # row moves of left's transpose
    right_moves: list = []  # row moves of right

    t = 0
    while t < min(nrows, ncols):
        # A minimum-degree entry of the remaining block, first in row order.
        # An entry has lower degree than the best so far exactly when it is
        # below the best's leading term.
        pos, lead = None, 0
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                e = row[j]
                if e and (pos is None or e < lead):
                    pos, lead = (i, j), 1 << (e.bit_length() - 1)
        if pos is None:
            break
        i, j = pos
        if i != t:
            a[t], a[i] = a[i], a[t]
            left_moves.append((t, i, None))
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            right_moves.append((t, j, None))
        # Clear the pivot's row and column; a nonzero remainder has smaller
        # degree than the pivot, so re-pick the minimum instead. Row i +=
        # q * row t leaves row t as it is, and col j += q * col t touches no
        # other col, so every quotient is read off the entries as they are.
        top = a[t]
        pivot = top[t]
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                q, r = pdivmod(a[i][t], pivot)
                a[i] = [x ^ pmul(y, q) if y else x for x, y in zip(a[i], top)]
                left_moves.append((t, i, q))
                dirty = dirty or r != 0
        quotients = []
        for j in range(t + 1, ncols):
            if top[j]:
                q, r = pdivmod(top[j], pivot)
                quotients.append((j, q))
                right_moves.append((t, j, q))
                dirty = dirty or r != 0
        for row in a:
            e = row[t]
            if e:
                for j, q in quotients:
                    row[j] ^= pmul(e, q)
        if dirty:
            continue
        # Pivot must divide the whole remaining block; if not, fold the
        # offending row in, which leaves a remainder for the next pass.
        for i in range(t + 1, nrows):
            if any(e and pmod(e, pivot) for e in a[i][t + 1:]):
                a[t] = [x ^ y for x, y in zip(top, a[i])]
                left_moves.append((i, t, 1))
                break
        else:
            t += 1

    return (
        _Replayed(nrows, left_moves, transpose=True),
        PolyMatrix(tuple(map(tuple, a))),
        _Replayed(ncols, right_moves, transpose=False),
    )
