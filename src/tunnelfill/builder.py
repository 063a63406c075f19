"""Constructive pipeline from a liftable sign sequence to an explicit
chain complex over F2[U, V] realizing its local equivalence class.

Two stages:

1. extend: append a long vertical arrow below x_0 and a long horizontal
   arrow left of x_2n, then lift the extended complex to the level-2 ring
   (the tunnel filler adds the forced end diagonals).
2. double and glue, in one pass: lay a second copy of the lifted complex
   one diagonal step up, join the copies with unit-diagonal arrows
   y_i -> UV x_i, and cancel the full-ring d^2 terms U^a V^b (a, b >= 2)
   with correction arrows x_i -> U^(a-1) V^(b-1) y_j. As each of these
   arrows is read it is glued: both extension endpoints become a single
   generator z placed far below and to the left, and y_-1 and y_2n+1 move
   so every arrow keeps nonnegative exponents. Each arrow's monomial is
   its source's place less its target's; the degree and d^2 checks
   validate the result. The doubled complex itself is never built.

   The places are the staircase of C(n | seq | -n), read off the sequence:
   x_-1 at (0, 0), each entry added to the column at an odd chain position
   and to the row at an even one, and y_i at x_i + (1, 1). Every doubled
   arrow lies on it: links by construction, a forced filler arrow because
   it closes a square with a placed two-arrow path and a placed link, red
   arrows as a shifted copy, blue ones as the (1, 1) step and green ones
   as placed two-arrow paths.

Both extension lengths are max|a_i| + 2, chosen up front. At the published
length, max|a_i| + 1, an end diagonal next to a maximal arrow can keep a
unit exponent and leave an uncancellable corner at the seam. One more step
lifts, doubles and glues every realizable sequence with n <= 3, |a_i| <= 4
(114,270 of them) with the right homology. ``decide`` on an extended
sequence, such as C(3 | 1,-2,2,-1 | -3), shows which lengths lift.
``realize`` decides the body first, so the extension must lift: a failure
is an InternalError.
"""

from __future__ import annotations

from typing import Iterator

from .errors import ConstructionError, InternalError
from .filler import NotRealizable, PartialRealization, decide, fill_links
from .homology import has_correct_homology
from .rings import (
    _MONOMIALS,
    RINF,
    Arrow,
    BasedComplex,
    Generator,
    Grading,
    Monomial,
    _new_arrow,
    degree_violations,
    differential_square,
    lift_to,
)
from .standard import ExtendedSignSequence, SignSequence, chain_links

BLACK, RED, BLUE, GREEN = "black", "red", "blue", "green"


def glue_offset(seq: SignSequence) -> int:
    """Half the sign sum; the diagonal distance between the two copies of z."""
    return seq.sign_sum() // 2


def extension_length(seq: SignSequence) -> int:
    """n = max|a_i| + 2, the length of both extension arrows of C(n | seq | -n)."""
    return seq.max_abs + 2


def staircase(seq: SignSequence) -> list[tuple[int, int]]:
    """The place of each generator of ``double``'s complex for ``seq``, by
    id: the running sums of C(n | seq | -n)'s entries from x_-1 at (0, 0),
    then each y_i at x_i + (1, 1)."""
    n = extension_length(seq)
    xs = [(0, 0)]
    for p, a in enumerate((n, *seq.entries, -n)):
        c, r = xs[-1]
        xs.append((c + a, r) if p % 2 else (c, r + a))
    return xs + [(c + 1, r + 1) for c, r in xs]


def extend_and_realize(seq: SignSequence) -> PartialRealization:
    """Lift the extended complex C(n | seq | -n), n = ``extension_length(seq)``,
    to the level-2 ring. It must lift when ``seq`` does, so a failure is an
    InternalError naming the length and the first obstruction."""
    n = extension_length(seq)
    outcome = decide(ExtendedSignSequence(n, seq, -n))
    if isinstance(outcome, NotRealizable):
        first = outcome.obstructions[0]
        (x, mono, y), names = first.cause, outcome.partial_progress.generators
        raise InternalError(
            f"extended complex of {seq} did not lift at extension length {n}: "
            f"{first.reason} at d^2 {names[x].name} term {mono} {names[y].name}"
        )
    return outcome


def _doubled_generators(lifted: BasedComplex) -> tuple[Generator, ...]:
    """The lift's generators, then the y copy of each one step up the
    diagonal: y_i at x_i's grading less (1, 1), named as x_i under the
    prefix y."""
    xs = lifted.generators
    return xs + tuple(
        Generator("y" + g.name.removeprefix("x"), g.grading.shifted(-1, -1)) for g in xs
    )


def _doubled_arrows(lifted: BasedComplex) -> Iterator[tuple[int, Monomial, int, str]]:
    """Each arrow of the doubled complex once, as (source, monomial, target,
    color), the second copy's ids following the first's: every black arrow
    with its red copy, then the blue arrows, then the green ones.

    Each color joins its own pairs of copies (black x to x, red y to y, blue
    y to x, green x to y), so no two coincide; and a green monomial is
    U^(a-1) V^(b-1) with a, b >= 2, as smaller terms raise first, before any
    arrow is yielded, so no arrow is a unit or a self-loop and none vanishes
    over the full ring."""
    count = len(lifted.generators)
    greens = []
    for x, mono, y in differential_square(lift_to(lifted, RINF)):
        u, v = mono
        if u <= 1 or v <= 1:
            raise ConstructionError(
                f"input is not a chain complex over the level-2 ring: "
                f"d^2 has the term {mono} from {x} to {y}"
            )
        greens.append((x, _MONOMIALS[u - 1, v - 1], count + y, GREEN))

    for s, mono, t in lifted.arrows:
        yield s, mono, t, BLACK
        yield count + s, mono, count + t, RED
    unit = _MONOMIALS[1, 1]
    for gid in range(count):
        yield count + gid, unit, gid, BLUE
    yield from greens


def double(lifted: BasedComplex) -> BasedComplex:
    """Join two copies of a level-2 chain complex into a chain complex over
    the full ring, using unit-diagonal and correction arrows. The second
    copy's ids follow the first's, in the same order.

    No src/ caller: ``glue`` reads the same arrows without building this
    complex. It is the tests' reference, and perfbench/tracer.py binds it."""
    colors = {Arrow(s, mono, t): color for s, mono, t, color in _doubled_arrows(lifted)}
    return BasedComplex(RINF, _doubled_generators(lifted), frozenset(colors), colors)


def glue(lifted: BasedComplex, seq: SignSequence) -> BasedComplex:
    """Double the level-2 lift of ``seq``'s extension and merge the two
    extension endpoints into one far-away generator z, in one pass.

    Each arrow that ``double`` would make is placed once, as it is read:
    it keeps its endpoints, with both dropped generators replaced by z, and
    its monomial is its source's place less its target's on
    ``staircase(seq)``, which reads the places off the sequence. Every
    doubled arrow already lies there; a forced filler arrow does because it
    closes a square with a placed path and a placed link. x_-1 is placed at
    the head copy of z and x_2n+1 at the tail copy, |s| diagonal steps
    apart for the offset s; y_-1 and y_2n+1 move next to them. The arrows
    are read in any order: a repeated arrow cancels in pairs, and the first
    arrow met whose places force a negative or a zero exponent pair raises,
    as does the first whose own monomial differs from its places while it
    touches none of the four moved generators.

    Raises ConstructionError when the lift is not the size of ``seq``'s, or
    is not a chain complex over the level-2 ring.
    """
    s = glue_offset(seq)
    place = staircase(seq)
    count = len(lifted.generators)
    if len(place) != 2 * count:
        raise ConstructionError(
            f"the doubled extension of {seq} has {len(place)} generators, "
            f"not {2 * count}"
        )

    # ``double`` numbers x_-1 .. x_2n+1 from 0 and y_-1 .. y_2n+1 after them.
    x_first, x_last, x_top = 0, count - 1, count - 2
    y_first, y_last, y0, y_top = count, 2 * count - 1, count + 1, 2 * count - 2
    core = [*range(1, count - 1), *range(count + 1, 2 * count - 1)]

    gap = 2 * abs(s) + 2
    z_col = min(place[g][0] for g in core) - gap
    z_row = min(place[g][1] for g in core) - gap
    head = (z_col - max(s, 0), z_row - max(s, 0))
    tail = (z_col + min(s, 0), z_row + min(s, 0))
    place[y_first] = (place[y0][0], head[1])
    place[y_last] = (tail[0], place[y_top][1])
    place[x_first], place[x_last] = head, tail

    # Kept generators are x_0 .. x_2n, then every y; z comes last.
    z = 2 * count - 2
    new_id = [z, *range(count - 2), z, *range(count - 2, z)]

    # An arrow keeps its monomial unless it touches one of these, whose
    # places were just moved.
    moved = {x_first, x_last, y_first, y_last}

    # When the offset is zero and one source reaches both endpoints, its two
    # z-arrows coincide and cancel, x + x = 0 over F2; the chain and degree
    # checks below still have to pass.
    new_colors: dict[Arrow, str] = {}
    monomials = _MONOMIALS
    for source, mono, target, color in _doubled_arrows(lifted):
        if source == x_first or source == x_last:
            raise InternalError(
                f"unexpected arrow out of a dropped endpoint: {Arrow(source, mono, target)}"
            )
        (sc, sr), (tc, tr) = place[source], place[target]
        du, dv = sc - tc, sr - tr
        if du < 0 or dv < 0 or not (du or dv):
            raise InternalError(f"placement forces exponents ({du}, {dv})")
        placed = monomials[du, dv]
        if placed != mono and source not in moved and target not in moved:
            raise InternalError(
                f"arrow {Arrow(source, mono, target)} is placed at {placed}"
            )
        arrow = _new_arrow((new_id[source], placed, new_id[target]))
        if new_colors.pop(arrow, None) is None:
            new_colors[arrow] = color

    generators = _doubled_generators(lifted)

    def forced_grading(source: int, target: int) -> Grading:
        # A doubled arrow, whose exponents the loop has checked.
        g, (sc, sr), (tc, tr) = generators[source].grading, place[source], place[target]
        return Grading(g.gu + 2 * (sc - tc) - 1, g.gv + 2 * (sr - tr) - 1)

    # Kept generators are kept as they are; the moved pair and z take the
    # gradings the degree equation forces along y0 -> y_-1, y_2n -> y_2n+1
    # and x_2n -> x_2n+1.
    gens = [*generators[1:x_last], *generators[y_first:]]
    for moved, source in ((y_first, y0), (y_last, y_top)):
        gens[new_id[moved]] = Generator(generators[moved].name, forced_grading(source, moved))
    gens.append(Generator("z", forced_grading(x_top, x_last)))

    glued = BasedComplex(RINF, tuple(gens), frozenset(new_colors), new_colors)
    bad = degree_violations(glued)
    if bad:
        raise InternalError(f"glued complex breaks the degree equation at {bad[:3]}")
    if differential_square(glued):
        raise InternalError("glued complex has nonzero d^2")
    return glued


def realize(seq: SignSequence) -> BasedComplex | NotRealizable:
    """Decide ``seq`` and, when liftable, build a full realization of its
    local equivalence class with the homology contract.

    Returns the tunnel filler's NotRealizable outcome otherwise, and raises
    ConstructionError for an extended sequence.
    """
    if isinstance(seq, ExtendedSignSequence):
        raise ConstructionError("realize expects a plain sequence, not an extended one")
    if fill_links(chain_links(seq.entries))[1]:
        # An obstruction: decide again, building the outcome the caller reads.
        return decide(seq)

    glued = glue(extend_and_realize(seq).complex, seq)
    if not has_correct_homology(glued):
        raise InternalError(f"realization of {seq} has the wrong homology")
    return glued
