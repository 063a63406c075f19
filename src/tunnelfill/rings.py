"""Exact arithmetic for free bigraded based modules over F2[U, V] / (U^i V^i).

Everything is immutable. A complex is a finite generator list with integer
bigradings plus a set of arrows; an arrow (source, U^a V^b, target) records a
coefficient-1 term of the differential. Coefficients live in F2, so presence
and absence of an arrow is all the arithmetic there is, and inserting a
duplicate arrow cancels it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    ConstructionError,
    InvalidLiftError,
    InvalidReductionError,
    UnknownGeneratorError,
)


@dataclass(frozen=True, order=True)
class RingLevel:
    """Truncation level i of F2[U,V]/(U^i V^i); ``None`` means no truncation.

    The ordering places every finite level below the untruncated ring, so
    ``a <= b`` means "b remembers at least as much as a".
    """

    # sort_index makes the infinite level compare above every finite one;
    # it is the only field used for ordering and equality.
    sort_index: int = field(init=False, repr=False)
    level: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.level is not None and self.level < 1:
            raise ConstructionError(f"ring level must be >= 1, got {self.level}")
        object.__setattr__(
            self, "sort_index", self.level if self.level is not None else 1 << 62
        )

    @property
    def is_finite(self) -> bool:
        return self.level is not None

    def __str__(self) -> str:
        return f"R{self.level}" if self.is_finite else "Rinf"


R1 = RingLevel(1)
R2 = RingLevel(2)
RINF = RingLevel(None)


@dataclass(frozen=True, order=True, slots=True)
class Monomial:
    """U^u V^v with nonnegative exponents."""

    u: int
    v: int

    def __post_init__(self):
        if self.u < 0 or self.v < 0:
            raise ConstructionError(f"negative exponent in monomial {self!r}")

    @staticmethod
    def of(u: int, v: int) -> "Monomial":
        """Interned constructor; exponents stay small in practice."""
        key = (u, v)
        cached = _MONOMIALS.get(key)
        if cached is None:
            cached = _MONOMIALS[key] = Monomial(u, v)
        return cached

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial.of(self.u + other.u, self.v + other.v)

    def is_zero_in(self, ring: RingLevel) -> bool:
        return ring.is_finite and min(self.u, self.v) >= ring.level

    @property
    def min_exp(self) -> int:
        return min(self.u, self.v)

    @property
    def is_horizontal(self) -> bool:
        return self.v == 0 and self.u > 0

    @property
    def is_vertical(self) -> bool:
        return self.u == 0 and self.v > 0

    @property
    def is_diagonal(self) -> bool:
        return self.u > 0 and self.v > 0

    def __str__(self) -> str:
        return f"U^{self.u}V^{self.v}"


_MONOMIALS: dict[tuple[int, int], Monomial] = {}


@dataclass(frozen=True, order=True, slots=True)
class Grading:
    """Bigrading (gr_U, gr_V); U has degree (-2, 0), V has (0, -2)."""

    gu: int
    gv: int

    @property
    def alexander(self) -> Fraction:
        return Fraction(self.gu - self.gv, 2)

    def shifted(self, du: int, dv: int) -> "Grading":
        return Grading(self.gu + du, self.gv + dv)

    def swapped(self) -> "Grading":
        return Grading(self.gv, self.gu)


@dataclass(frozen=True, order=True, slots=True)
class Arrow:
    """One F2 term of the differential: target appears in d(source) with
    the given monomial coefficient."""

    source: int
    monomial: Monomial
    target: int

    def __str__(self) -> str:
        return f"{self.source} -> {self.monomial} {self.target}"


@dataclass(frozen=True, order=True, slots=True)
class Generator:
    gid: int
    name: str
    grading: Grading


# d(x) as a sparse F2 vector: (generator id, monomial) -> 1.
TermList = dict[tuple[int, Monomial], int]


@dataclass(frozen=True)
class BasedComplex:
    """Free based module with an endomorphism, over one truncation level.

    Generator ids are their positions in ``generators``. ``colors`` is
    display metadata only and never affects the algebra.
    """

    ring: RingLevel
    generators: tuple[Generator, ...]
    arrows: frozenset[Arrow]
    colors: frozenset[tuple[Arrow, str]] = frozenset()

    def generator(self, gid: int) -> Generator:
        if not 0 <= gid < len(self.generators):
            raise UnknownGeneratorError(f"no generator with id {gid}")
        return self.generators[gid]

    def id_of(self, name: str) -> int:
        for g in self.generators:
            if g.name == name:
                return g.gid
        raise UnknownGeneratorError(f"no generator named {name!r}")

    def grading(self, gid: int) -> Grading:
        return self.generator(gid).grading

    def color_of(self, arrow: Arrow) -> str | None:
        for a, c in self.colors:
            if a == arrow:
                return c
        return None

    def sorted_arrows(self) -> list[Arrow]:
        return sorted(self.arrows)

    def out_adjacency(self) -> dict[int, list[Arrow]]:
        out: dict[int, list[Arrow]] = defaultdict(list)
        for a in self.sorted_arrows():
            out[a.source].append(a)
        return out

    def in_adjacency(self) -> dict[int, list[Arrow]]:
        inc: dict[int, list[Arrow]] = defaultdict(list)
        for a in self.sorted_arrows():
            inc[a.target].append(a)
        return inc


def make_complex(
    ring: RingLevel,
    generators: Iterable[Generator],
    arrows: Iterable[Arrow],
    colors: Mapping[Arrow, str] | Iterable[tuple[Arrow, str]] = (),
) -> BasedComplex:
    """Assemble a complex, canonicalizing the arrow set.

    Arrows whose monomial vanishes at ``ring`` are dropped, and arrows listed
    an even number of times cancel. Generator ids must equal their positions.
    """
    gens = tuple(generators)
    names = set()
    for i, g in enumerate(gens):
        if g.gid != i:
            raise ConstructionError(
                f"generator id {g.gid} at position {i}; ids must be positional"
            )
        if g.name in names:
            raise ConstructionError(f"duplicate generator name {g.name!r}")
        names.add(g.name)

    counts: dict[Arrow, int] = {}
    for a in arrows:
        if not 0 <= a.source < len(gens) or not 0 <= a.target < len(gens):
            raise ConstructionError(f"arrow {a} references an unknown generator")
        if a.source == a.target:
            raise ConstructionError(f"arrow {a} is a self-loop")
        if a.monomial.u == 0 and a.monomial.v == 0:
            raise ConstructionError(f"arrow {a} carries the unit monomial")
        if a.monomial.is_zero_in(ring):
            continue
        counts[a] = counts.get(a, 0) ^ 1
    kept = frozenset(a for a, c in counts.items() if c)

    color_pairs = colors.items() if isinstance(colors, Mapping) else colors
    kept_colors = frozenset((a, c) for a, c in color_pairs if a in kept)
    return BasedComplex(ring, gens, kept, kept_colors)


def add_arrows(
    complex: BasedComplex, new: Iterable[Arrow], color: str | None = None
) -> BasedComplex:
    """Insert arrows (duplicates cancel), optionally tagging the survivors."""
    arrows = set(complex.arrows)
    colors = dict(complex.colors)
    for a in new:
        if a.monomial.is_zero_in(complex.ring):
            continue
        if a in arrows:
            arrows.remove(a)
            colors.pop(a, None)
        else:
            arrows.add(a)
            if color is not None:
                colors[a] = color
    return BasedComplex(
        complex.ring, complex.generators, frozenset(arrows), frozenset(colors.items())
    )


def reduce_to(complex: BasedComplex, target: RingLevel) -> BasedComplex:
    """Pass to a smaller quotient, deleting arrows that die there."""
    if complex.ring < target:
        raise InvalidReductionError(
            f"cannot reduce {complex.ring} to the larger ring {target}"
        )
    kept = frozenset(a for a in complex.arrows if not a.monomial.is_zero_in(target))
    colors = frozenset((a, c) for a, c in complex.colors if a in kept)
    return BasedComplex(target, complex.generators, kept, colors)


def lift_to(complex: BasedComplex, target: RingLevel) -> BasedComplex:
    """Reinterpret the same arrows over a larger quotient."""
    if target < complex.ring:
        raise InvalidLiftError(
            f"cannot lift {complex.ring} to the smaller ring {target}"
        )
    return BasedComplex(target, complex.generators, complex.arrows, complex.colors)


def coefficient(complex: BasedComplex, x: int, m: Monomial, y: int) -> int:
    """The pairing <d(x), U^a V^b y> in F2."""
    complex.generator(x)
    complex.generator(y)
    if m.is_zero_in(complex.ring):
        return 0
    return 1 if Arrow(x, m, y) in complex.arrows else 0


def differential_square(complex: BasedComplex) -> dict[int, TermList]:
    """d^2 of every generator, as nonempty term lists reduced in the ring.

    The complex is a chain complex exactly when the result is empty.
    """
    out: dict[int, list[Arrow]] = {}
    for a in complex.arrows:
        out.setdefault(a.source, []).append(a)
    level = complex.ring.level
    squares: dict[int, TermList] = {}
    for g in complex.generators:
        acc: TermList = {}
        for first in out.get(g.gid, ()):
            seconds = out.get(first.target)
            if not seconds:
                continue
            m1 = first.monomial
            for second in seconds:
                m2 = second.monomial
                u, v = m1.u + m2.u, m1.v + m2.v
                if level is not None and u >= level and v >= level:
                    continue
                key = (second.target, Monomial.of(u, v))
                if key in acc:
                    del acc[key]
                else:
                    acc[key] = 1
        if acc:
            squares[g.gid] = acc
    return squares


def is_chain_complex(complex: BasedComplex) -> bool:
    return not differential_square(complex)


def arrow_degree_ok(complex: BasedComplex, arrow: Arrow) -> bool:
    # Degree equation for d of degree (-1,-1):
    #   gr(target) - 2*(u, v) == gr(source) + (-1, -1), componentwise.
    gs = complex.grading(arrow.source)
    gt = complex.grading(arrow.target)
    m = arrow.monomial
    return gt.gu - 2 * m.u == gs.gu - 1 and gt.gv - 2 * m.v == gs.gv - 1


def degree_violations(complex: BasedComplex) -> list[Arrow]:
    """Arrows breaking the degree equation; empty means the check passes."""
    return [a for a in complex.sorted_arrows() if not arrow_degree_ok(complex, a)]
