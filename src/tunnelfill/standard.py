"""Constructors for standard and extended standard complexes.

A sign sequence (a_1, ..., a_2n) of nonzero integers encodes a zig-zag
complex on generators x_0, ..., x_2n: odd positions contribute horizontal
arrows U^|a_i| between x_{i-1} and x_i, even positions vertical arrows
V^|a_i|, and the sign points the arrow (positive: from x_i to x_{i-1}).
Absolute gradings are normalized so that gr_U(x_0) = 0 and gr_V(x_2n) = 0;
the remaining gradings are forced along the chain by the degree equation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import ConstructionError
from .rings import (
    R1,
    Arrow,
    BasedComplex,
    Generator,
    Grading,
    Monomial,
    _Interned,
    make_complex,
)


@dataclass(frozen=True)
class SignSequence:
    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int]):
        # Written out, not generated: the frozen __init__ plus a
        # __post_init__ would set the field twice.
        entries = tuple(entries)
        if not entries or len(entries) % 2:
            raise ConstructionError(
                f"sign sequence needs positive even length, got {len(entries)}"
            )
        if 0 in entries:
            raise ConstructionError("sign sequence entries must be nonzero")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries) // 2

    @property
    def max_abs(self) -> int:
        return max(abs(a) for a in self.entries)

    def sign_sum(self) -> int:
        return sum(1 if a > 0 else -1 for a in self.entries)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.entries)


@dataclass(frozen=True)
class ExtendedSignSequence:
    """A sign sequence with one extra vertical arrow at the x_0 end (head)
    and one extra horizontal arrow at the x_2n end (tail)."""

    head: int
    body: SignSequence
    tail: int

    def __post_init__(self):
        if self.head == 0 or self.tail == 0:
            raise ConstructionError("extension entries must be nonzero")

    @property
    def entries(self) -> tuple[int, ...]:
        return (self.head, *self.body.entries, self.tail)

    def __str__(self) -> str:
        return f"{self.head} | {self.body} | {self.tail}"


def _chain_arrow(position: int, a: int, lo: int, hi: int) -> Arrow:
    """The arrow of entry ``a`` at chain ``position``, between the ids of
    x_{position-1} (``lo``) and x_position (``hi``): horizontal at odd
    positions, vertical at even ones, pointing down the chain when a > 0."""
    length = abs(a)
    mono = Monomial.of(length, 0) if position % 2 else Monomial.of(0, length)
    return Arrow(hi, mono, lo) if a > 0 else Arrow(lo, mono, hi)


def _chain_step(i: int, a: int) -> tuple[Arrow, int, int]:
    """Entry ``a`` at position ``i`` of a standard complex: its arrow and
    gr(x_i) - gr(x_{i-1}).

    Along an arrow s -> U^u V^v t the degree equation forces
    gr(t) = gr(s) + (2u - 1, 2v - 1).
    """
    arrow = _chain_arrow(i, a, i - 1, i)
    u, v = arrow.monomial
    sign = -1 if a > 0 else 1  # a > 0: the arrow runs x_i -> x_{i-1}
    return arrow, sign * (2 * u - 1), sign * (2 * v - 1)


# Chain pieces recur across census sweeps, so they are built once: steps
# keyed by (i, a_i), generators by (id, gr_U, gr_V). All values are immutable.
_STEPS = _Interned(_chain_step)
_GENERATORS = _Interned(
    lambda i, gu, gv: Generator(i, sys.intern(f"x{i}"), Grading(gu, gv))
)


def build_standard(seq: SignSequence) -> BasedComplex:
    """The standard complex of ``seq`` over the level-1 ring."""
    steps = list(map(_STEPS.__getitem__, enumerate(seq.entries, 1)))
    # Normalize gr_U(x_0) = 0 and gr_V(x_2n) = 0: gr_V(x_0) is minus the
    # sum of the gr_V steps.
    gu = gv = 0
    for _, _, dv in steps:
        gv -= dv
    gens = [_GENERATORS[0, gu, gv]]
    arrows = []
    for i, (arrow, du, dv) in enumerate(steps, 1):
        gu += du
        gv += dv
        gens.append(_GENERATORS[i, gu, gv])
        arrows.append(arrow)
    # The chain is valid by construction; skip make_complex revalidation.
    return BasedComplex(R1, tuple(gens), frozenset(arrows))


def build_extended(ext: ExtendedSignSequence) -> BasedComplex:
    """The extended standard complex, with generators x_-1 .. x_2n+1.

    The body keeps the gradings of ``build_standard(ext.body)``; the two end
    generators get the gradings forced by the degree equation.
    """
    body = build_standard(ext.body)
    two_n = len(ext.body.entries)

    # End gradings, forced by the head and tail arrows.
    g0 = body.grading(0)
    n1 = abs(ext.head)
    if ext.head > 0:
        # x_0 -> V^{n1} x_-1
        g_head = g0.shifted(-1, 2 * n1 - 1)
    else:
        g_head = g0.shifted(1, -(2 * n1 - 1))
    g_last = body.grading(two_n)
    n2 = abs(ext.tail)
    if ext.tail > 0:
        # x_2n+1 -> U^{n2} x_2n
        g_tail = g_last.shifted(-(2 * n2 - 1), 1)
    else:
        g_tail = g_last.shifted(2 * n2 - 1, -1)

    gradings = [g_head] + [body.grading(i) for i in range(two_n + 1)] + [g_tail]
    names = [f"x{k}" for k in range(-1, two_n + 2)]
    gens = tuple(Generator(i, nm, gr) for i, (nm, gr) in enumerate(zip(names, gradings)))
    # Subscript k in -1..2n+1 lives at generator id k + 1, so the entry at
    # chain position p joins ids p and p + 1.
    arrows = [_chain_arrow(p, a, p, p + 1) for p, a in enumerate(ext.entries)]
    return make_complex(R1, gens, arrows)

