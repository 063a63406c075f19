"""Exact arithmetic for free bigraded based modules over F2[U, V] / (U^i V^i).

Everything is immutable. A complex is a finite generator list with integer
bigradings plus a set of arrows; an arrow (source, U^a V^b, target) records a
coefficient-1 term of the differential. Coefficients live in F2, so presence
and absence of an arrow is all the arithmetic there is, and inserting a
duplicate arrow cancels it.

Monomials and arrows are named tuples, so the hashing and comparison that
every arrow-set operation does run in C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    ConstructionError,
    InvalidLiftError,
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


class _MonomialFields(NamedTuple):
    u: int
    v: int


class Monomial(_MonomialFields):
    """U^u V^v with nonnegative exponents, ordered by (u, v)."""

    __slots__ = ()

    def __new__(cls, u: int, v: int) -> "Monomial":
        if u < 0 or v < 0:
            raise ConstructionError(
                f"negative exponent in monomial Monomial(u={u}, v={v})"
            )
        return tuple.__new__(cls, (u, v))

    @staticmethod
    def of(u: int, v: int) -> "Monomial":
        """Interned constructor."""
        return _MONOMIALS[u, v]

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

    def __str__(self) -> str:
        return f"U^{self.u}V^{self.v}"


# An _Interned cache (monomials here; chain steps and generators in
# standard.py) starts over past this many entries. That still holds the 996
# generator keys of the n <= 3, |a_i| <= 4 census and the ~12,900
# of perfbench's long-decide mix, whose decisions repeat.
_INTERNED_LIMIT = 1 << 14


class _Interned(dict):
    """A cache that builds each missing value from its key tuple."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        if len(self) >= _INTERNED_LIMIT:
            self.clear()
        value = self[key] = self.make(*key)
        return value


_MONOMIALS = _Interned(Monomial)


@dataclass(frozen=True, order=True, slots=True)
class Grading:
    """Bigrading (gr_U, gr_V); U has degree (-2, 0), V has (0, -2)."""

    gu: int
    gv: int

    def shifted(self, du: int, dv: int) -> "Grading":
        return Grading(self.gu + du, self.gv + dv)

    def swapped(self) -> "Grading":
        return Grading(self.gv, self.gu)


class Arrow(NamedTuple):
    """One F2 term of the differential: target appears in d(source) with
    the given monomial coefficient. Ordered by (source, monomial, target)."""

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


class _Adjacency:
    """Arrows by source (end 0) or target (end 2) id, built on the first
    read and then kept in the instance dict, where later reads find it.
    functools.cached_property would do, but before Python 3.12 its lock
    costs more than building a small index."""

    def __init__(self, end: int):
        self.end = end

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, complex, owner=None) -> dict[int, list[Arrow]]:
        if complex is None:
            return self
        index: dict[int, list[Arrow]] = {}
        for a in complex.arrows:
            index.setdefault(a[self.end], []).append(a)
        complex.__dict__[self.name] = index
        return index


@dataclass(frozen=True)
class BasedComplex:
    """Free based module with an endomorphism, over one truncation level.

    Generator ids are their positions in ``generators``. ``colors`` maps
    arrows to display colors; it is metadata only and never affects the
    algebra. Neither it nor the adjacency indexes may be mutated.
    """

    ring: RingLevel
    generators: tuple[Generator, ...]
    arrows: frozenset[Arrow]
    colors: dict[Arrow, str]

    def __init__(
        self,
        ring: RingLevel,
        generators: tuple[Generator, ...],
        arrows: frozenset[Arrow],
        colors: dict[Arrow, str] | None = None,
    ):
        # Written out, not generated: the frozen dataclass __init__ assigns
        # each field through object.__setattr__, and every built chain, its
        # lift and each filled complex come through here.
        fields = self.__dict__
        fields["ring"] = ring
        fields["generators"] = generators
        fields["arrows"] = arrows
        fields["colors"] = {} if colors is None else colors

    def generator(self, gid: int) -> Generator:
        if not 0 <= gid < len(self.generators):
            raise UnknownGeneratorError(f"no generator with id {gid}")
        return self.generators[gid]

    def grading(self, gid: int) -> Grading:
        return self.generator(gid).grading

    # Read with .get(gid, ()) and never mutated; each list keeps the arrow
    # set's iteration order, so a caller that needs an order sorts.
    outgoing = _Adjacency(0)
    incoming = _Adjacency(2)

    # The arrows in chain order, links[j] joining ids j and j + 1, on a
    # complex built as a chain; a builder stores the tuple in the instance
    # dict. Not a field, so equality and repr ignore it.
    links = None


def make_complex(
    ring: RingLevel,
    generators: Iterable[Generator],
    arrows: Iterable[Arrow],
    colors: Mapping[Arrow, str] | None = None,
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

    kept_colors = {a: c for a, c in (colors or {}).items() if a in kept}
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
    return BasedComplex(complex.ring, complex.generators, frozenset(arrows), colors)


def lift_to(complex: BasedComplex, target: RingLevel) -> BasedComplex:
    """Reinterpret the same arrows over a larger quotient."""
    # The same test as target < complex.ring, without the generated __lt__:
    # every decision lifts once.
    if target.sort_index < complex.ring.sort_index:
        raise InvalidLiftError(
            f"cannot lift {complex.ring} to the smaller ring {target}"
        )
    return BasedComplex(target, complex.generators, complex.arrows, complex.colors)


def differential_square(complex: BasedComplex) -> dict[int, TermList]:
    """d^2 of every generator, as nonempty term lists reduced in the ring,
    keyed by generator id in increasing order, each list sorted by
    (target, monomial).

    The complex is a chain complex exactly when the result is empty.
    """
    out = complex.outgoing
    level = complex.ring.level
    squares: dict[int, TermList] = {}
    for first in complex.arrows:
        seconds = out.get(first.target)
        if seconds is None:
            continue
        m1 = first.monomial
        for second in seconds:
            m2 = second.monomial
            u, v = m1.u + m2.u, m1.v + m2.v
            if level is not None and u >= level and v >= level:
                continue
            acc = squares.setdefault(first.source, {})
            key = (second.target, Monomial.of(u, v))
            if key in acc:
                del acc[key]
            else:
                acc[key] = 1
    if not squares:
        return squares
    return {x: dict(sorted(t.items())) for x, t in sorted(squares.items()) if t}


def arrow_degree_ok(complex: BasedComplex, arrow: Arrow) -> bool:
    # Degree equation for d of degree (-1,-1):
    #   gr(target) - 2*(u, v) == gr(source) + (-1, -1), componentwise.
    gs = complex.grading(arrow.source)
    gt = complex.grading(arrow.target)
    m = arrow.monomial
    return gt.gu - 2 * m.u == gs.gu - 1 and gt.gv - 2 * m.v == gs.gv - 1


def degree_violations(complex: BasedComplex) -> list[Arrow]:
    """Arrows breaking the degree equation; empty means the check passes."""
    return sorted(a for a in complex.arrows if not arrow_degree_ok(complex, a))
