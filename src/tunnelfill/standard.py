"""Constructors for standard and extended standard complexes.

A sign sequence (a_1, ..., a_2n) of nonzero integers encodes a zig-zag
complex on generators x_0, ..., x_2n: odd positions contribute horizontal
arrows U^|a_i| between x_{i-1} and x_i, even positions vertical arrows
V^|a_i|, and the sign points the arrow (positive: from x_i to x_{i-1}).
An extended sequence (n1 | a_1, ..., a_2n | n2) is the same chain on
x_-1, ..., x_2n+1, with n1 at position 0 (vertical, between x_-1 and x_0)
and n2 at position 2n+1 (horizontal, between x_2n and x_2n+1). One
constructor builds both; generator ids count from 0 at the first generator,
so x_k has id k + 1 in an extended complex.
Absolute gradings are normalized so that gr_U(x_0) = 0 and gr_V(x_2n) = 0;
the remaining gradings are forced along the chain by the degree equation,
so an extended complex's body keeps the gradings of the standard one.
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


def _chain_step(first: int, i: int, a: int) -> tuple[Arrow, int, int]:
    """Entry ``a``, the ``i``-th of a chain whose first generator is
    x_first: its arrow between ids i - 1 and i, and the grading of id i
    less that of id i - 1.

    The arrow joins x_{p-1} and x_p, p = first + i: horizontal at odd p,
    vertical at even p, pointing down the chain when a > 0. Along an arrow
    s -> U^u V^v t the degree equation forces gr(t) = gr(s) + (2u - 1, 2v - 1).
    """
    length = abs(a)
    mono = Monomial.of(length, 0) if (first + i) % 2 else Monomial.of(0, length)
    if a > 0:
        return Arrow(i, mono, i - 1), 1 - 2 * mono.u, 1 - 2 * mono.v
    return Arrow(i - 1, mono, i), 2 * mono.u - 1, 2 * mono.v - 1


# Chain pieces recur across census sweeps, so they are built once: steps
# keyed by (first, i, a_i), generators by (first, id, gr_U, gr_V). All
# values are immutable.
_STEPS = _Interned(_chain_step)
_GENERATORS = _Interned(
    lambda first, i, gu, gv: Generator(sys.intern(f"x{first + i}"), Grading(gu, gv))
)


def chain_links(entries: tuple[int, ...], first: int) -> tuple[Arrow, ...]:
    """The arrows of ``_chain(entries, first)`` in chain order, ``links[j]``
    joining ids j and j + 1, read from the same steps without building a
    generator."""
    return tuple([_STEPS[first, i, a][0] for i, a in enumerate(entries, 1)])


def _chain(entries: tuple[int, ...], first: int) -> BasedComplex:
    """The zig-zag chain of ``entries`` on generators x_first, x_first+1, ...
    over the level-1 ring, with gr_U(x_0) = 0 and gr_V(x_2n) = 0."""
    # Start id 0 where gr_U(x_0) and gr_V(x_2n) come out 0: x_0 and x_2n are
    # the end ids of a standard chain, one id in from the ends of an
    # extended one.
    steps = []
    gu = gv = 0
    for i, a in enumerate(entries, 1):
        step = _STEPS[first, i, a]
        steps.append(step)
        gv -= step[2]
    if first:
        gu -= steps[0][1]
        gv += steps[-1][2]
    gens = [_GENERATORS[first, 0, gu, gv]]
    arrows = []
    for i, (arrow, du, dv) in enumerate(steps, 1):
        gu += du
        gv += dv
        gens.append(_GENERATORS[first, i, gu, gv])
        arrows.append(arrow)
    # The chain is valid by construction: no arrow repeats or is a unit.
    complex = BasedComplex(R1, tuple(gens), frozenset(arrows))
    complex.__dict__["links"] = tuple(arrows)
    return complex


def build_standard(seq: SignSequence) -> BasedComplex:
    """The standard complex of ``seq``, on x_0 .. x_2n."""
    return _chain(seq.entries, 0)


def build_extended(ext: ExtendedSignSequence) -> BasedComplex:
    """The extended standard complex, on x_-1 .. x_2n+1; its body keeps the
    gradings of ``build_standard(ext.body)``."""
    return _chain(ext.entries, -1)
