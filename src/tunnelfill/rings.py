"""Exact arithmetic for free bigraded based modules over F2[U, V] / (U^i V^i).

A ring is named by its truncation level i; F2[U, V] itself has level
infinity, where no monomial is zero.

Everything is immutable. A complex is a finite generator list with integer
bigradings plus a set of arrows; an arrow (source, U^a V^b, target) records a
coefficient-1 term of the differential. Coefficients live in F2, so presence
and absence of an arrow is all the arithmetic there is: an arrow inserted
twice cancels, as ``add_arrows`` and ``builder.glue`` do.

Monomials and arrows are named tuples, so the hashing and comparison that
every arrow-set operation does run in C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, NamedTuple

from .errors import (
    ConstructionError,
    InvalidLiftError,
    SearchBudgetError,
    UnknownGeneratorError,
)


@dataclass(frozen=True, order=True)
class RingLevel:
    """Truncation level i of F2[U,V]/(U^i V^i); the untruncated ring has
    level ``math.inf``.

    U^u V^v is zero exactly when min(u, v) >= level, so the full ring needs
    no special case, and ``a <= b`` means "b remembers at least as much as a".
    """

    level: int | float

    def __post_init__(self):
        # type() rather than isinstance() also refuses bools; NaN fails both tests.
        level = self.level
        if not (level == math.inf or (type(level) is int and level >= 1)):
            raise ConstructionError(
                f"ring level must be >= 1, got {level!r} (an int or math.inf)"
            )

    def __str__(self) -> str:
        return "Rinf" if self.level == math.inf else f"R{self.level}"


R1 = RingLevel(1)
R2 = RingLevel(2)
RINF = RingLevel(math.inf)


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
        return min(self.u, self.v) >= ring.level

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
    name: str
    grading: Grading


# One F2 term of d^2: (source id, monomial, target id).
Term = tuple[int, Monomial, int]


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


def _check_ends(arrows: Iterable[Arrow], count: int) -> None:
    """Raise UnknownGeneratorError unless every arrow end is an id below ``count``."""
    for s, _, t in arrows:
        if not (0 <= s < count and 0 <= t < count):
            raise UnknownGeneratorError(
                f"no generator with id {t if 0 <= s < count else s}"
            )


@dataclass(frozen=True)
class BasedComplex:
    """Free based module with an endomorphism, over one truncation level.

    Generator ids are their positions in ``generators``, and every arrow end
    is one: building a complex with any other end raises UnknownGeneratorError.
    ``colors`` maps arrows to display colors; it is metadata only and never
    affects the algebra. Neither it nor the adjacency indexes may be mutated.
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
        _check_ends(arrows, len(generators))
        # Written out, not generated: the frozen dataclass __init__ assigns
        # each field through object.__setattr__, and every built chain and
        # both realization steps come through here.
        fields = self.__dict__
        fields["ring"] = ring
        fields["generators"] = generators
        fields["arrows"] = arrows
        fields["colors"] = {} if colors is None else colors

    # Read with .get(gid, ()) and never mutated; each list keeps the arrow
    # set's iteration order, so a caller that needs an order sorts.
    outgoing = _Adjacency(0)
    incoming = _Adjacency(2)

    # The arrows in chain order, links[j] joining ids j and j + 1, on a
    # complex built as a chain; a builder stores the tuple in the instance
    # dict. Not a field, so equality and repr ignore it.
    links = None


def add_arrows(
    complex: BasedComplex, new: Iterable[Arrow], color: str | None = None
) -> BasedComplex:
    """Insert arrows (duplicates cancel), optionally tagging the survivors.
    No src/ caller: kept as the tests' reference, and perfbench/tracer.py binds it."""
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
    """The same complex over a larger quotient, as a view: it shares the
    generators, arrows, colors, ``links`` and built indexes, checking nothing."""
    if target.level < complex.ring.level:
        raise InvalidLiftError(
            f"cannot lift {complex.ring} to the smaller ring {target}"
        )
    lifted = object.__new__(BasedComplex)
    lifted.__dict__.update(complex.__dict__, ring=target)
    return lifted


def insert_arrows(
    complex: BasedComplex, ring: RingLevel, new: Collection[Arrow], color: str
) -> BasedComplex:
    """``complex`` over ``ring`` with the arrows ``new`` inserted, each
    colored ``color``; none may be present already or vanish over ``ring``.
    Only the ends of ``new`` are checked: the others were checked when
    ``complex`` was built. The result shares the generators, and the arrow
    set when ``new`` is empty, but not ``links`` or a built index."""
    arrows = complex.arrows
    if new:
        _check_ends(new, len(complex.generators))
        arrows = arrows.union(new)
    inserted = object.__new__(BasedComplex)
    inserted.__dict__.update(
        ring=ring, generators=complex.generators, arrows=arrows, colors=dict.fromkeys(new, color)
    )
    return inserted


# The most two-arrow paths differential_square reads, and so terms it holds;
# realizations read up to about 11 per sequence entry.
PATH_BUDGET = 1 << 17


def differential_square(complex: BasedComplex) -> tuple[Term, ...]:
    """The terms (source, monomial, target) of d^2 that survive in the ring,
    each once and in sorted order.

    The complex is a chain complex exactly when the result is empty. Raises
    SearchBudgetError before reading more than ``PATH_BUDGET`` paths.
    """
    out = complex.outgoing
    level = complex.ring.level
    monomials = _MONOMIALS
    terms: set[Term] = set()
    paths = 0
    for s, (u1, v1), t in complex.arrows:
        seconds = out.get(t, ())
        paths += len(seconds)
        if paths > PATH_BUDGET:
            raise SearchBudgetError(f"d^2 has over its budget of {PATH_BUDGET} two-arrow paths")
        for _, (u2, v2), target in seconds:
            u, v = u1 + u2, v1 + v2
            if u < level or v < level:
                # A term reached an even number of times cancels over F2.
                term = (s, monomials[u, v], target)
                if term in terms:
                    terms.remove(term)
                else:
                    terms.add(term)
    return tuple(sorted(terms))


def degree_violations(complex: BasedComplex) -> list[Arrow]:
    """Arrows breaking the degree equation; empty means the check passes.
    As d has degree (-1, -1), s -> U^u V^v t needs gr(t) - 2(u, v) = gr(s) - (1, 1)."""
    gradings = [(g.grading.gu, g.grading.gv) for g in complex.generators]
    bad = []
    for a in complex.arrows:
        s, (u, v), t = a
        (su, sv), (tu, tv) = gradings[s], gradings[t]
        if tu - 2 * u != su - 1 or tv - 2 * v != sv - 1:
            bad.append(a)
    return sorted(bad)
