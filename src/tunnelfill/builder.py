"""Constructive pipeline from a liftable sign sequence to an explicit
chain complex over F2[U, V] realizing its local equivalence class.

Three stages:

1. extend: append a long vertical arrow below x_0 and a long horizontal
   arrow left of x_2n, then lift the extended complex to the level-2 ring
   (the tunnel filler adds the forced end diagonals).
2. double: lay a second copy of the lifted complex one diagonal step up,
   join the copies with unit-diagonal arrows y_i -> UV x_i, and cancel the
   full-ring d^2 terms U^a V^b (a, b >= 2) with correction arrows
   x_i -> U^(a-1) V^(b-1) y_j.
3. glue: replace both extension endpoints with a single generator z placed
   far below and to the left, repositioning y_-1 and y_2n+1 so every arrow
   keeps nonnegative exponents. Each arrow's monomial is its source's place
   less its target's; the degree and d^2 checks validate the result.

   The places are the staircase of C(n | seq | -n), read off the sequence:
   x_-1 at (0, 0), each entry added to the column at an odd chain position
   and to the row at an even one, and y_i at x_i + (1, 1). Every arrow of
   the doubled complex lies on it: links by construction, a forced filler
   arrow because it closes a square with a placed two-arrow path and a
   placed link, red arrows as a shifted copy, blue ones as the (1, 1) step
   and green ones as placed two-arrow paths.

Both extension lengths are max|a_i| + 2, chosen up front. At the published
length, max|a_i| + 1, an end diagonal next to a maximal arrow can keep a
unit exponent and leave an uncancellable corner at the seam. One more step
lifts, doubles and glues every realizable sequence with n <= 3, |a_i| <= 4
(114,270 of them) with the right homology. ``decide`` on an extended
sequence, such as C(3 | 1,-2,2,-1 | -3), shows which lengths lift.
"""

from __future__ import annotations

from .errors import ConstructionError, ExtensionError, InternalError
from .filler import NotRealizable, PartialRealization, decide, fill_links
from .homology import has_correct_homology
from .rings import (
    RINF,
    Arrow,
    BasedComplex,
    Generator,
    Grading,
    Monomial,
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
    to the level-2 ring; raises ExtensionError should the lift ever fail."""
    n = extension_length(seq)
    outcome = decide(ExtendedSignSequence(n, seq, -n))
    if isinstance(outcome, NotRealizable):
        raise ExtensionError(
            f"extended complex of {seq} at extension length {n} did not lift",
            outcome.obstructions,
        )
    return outcome


def double(lifted: BasedComplex) -> BasedComplex:
    """Join two copies of a level-2 chain complex into a chain complex over
    the full ring, using unit-diagonal and correction arrows. The second
    copy's ids follow the first's, in the same order.

    The arrows go straight into the complex, as none needs canceling or
    dropping: each color joins its own pairs of copies (black x to x, red
    y to y, blue y to x, green x to y), so no two coincide; the y names
    are the x names under a new prefix; and a green monomial is
    U^(a-1) V^(b-1) with a, b >= 2, as smaller terms raise first, so no
    arrow is a unit or a self-loop and none vanishes over the full ring."""
    count = len(lifted.generators)
    colors: dict[Arrow, str] = {}
    for x, mono, y in differential_square(lift_to(lifted, RINF)):
        if mono.min_exp <= 1:
            raise ConstructionError(
                f"input is not a chain complex over the level-2 ring: "
                f"d^2 has the term {mono} from {x} to {y}"
            )
        colors[Arrow(x, Monomial.of(mono.u - 1, mono.v - 1), count + y)] = GREEN

    y_gens = tuple(
        Generator("y" + g.name.removeprefix("x"), g.grading.shifted(-1, -1))
        for g in lifted.generators
    )

    # The rest of the doubled complex's arrows, with their colors.
    for a in lifted.arrows:
        colors[a] = BLACK
        colors[Arrow(count + a.source, a.monomial, count + a.target)] = RED
    for gid in range(count):
        colors[Arrow(count + gid, Monomial.of(1, 1), gid)] = BLUE

    return BasedComplex(RINF, lifted.generators + y_gens, frozenset(colors), colors)


def glue(complex: BasedComplex, seq: SignSequence) -> BasedComplex:
    """Merge the two extension endpoints into one far-away generator z.

    Every arrow keeps its endpoints, with both dropped generators replaced
    by z, and its monomial is its source's place less its target's on
    ``staircase(seq)``, which reads the places off the sequence. Every
    arrow ``double`` makes already lies there; a forced filler arrow does
    because it closes a square with a placed path and a placed link. x_-1
    is placed at the head copy of z and x_2n+1 at the tail copy, |s|
    diagonal steps apart for the offset s; y_-1 and y_2n+1 move next to
    them.

    Raises ConstructionError when the complex is not the size of ``seq``'s.
    """
    s = glue_offset(seq)
    place = staircase(seq)
    if len(place) != len(complex.generators):
        raise ConstructionError(
            f"the doubled extension of {seq} has {len(place)} generators, "
            f"not {len(complex.generators)}"
        )

    # ``double`` numbers x_-1 .. x_2n+1 from 0 and y_-1 .. y_2n+1 after them.
    count = len(complex.generators) // 2
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

    keep = [*range(1, count - 1), *range(count, 2 * count)]
    new_id = {old: new for new, old in enumerate(keep)}
    new_id[x_first] = new_id[x_last] = len(keep)  # z

    # When the offset is zero and one source reaches both endpoints, its two
    # z-arrows coincide and cancel, x + x = 0 over F2; the chain and degree
    # checks below still have to pass.
    new_colors: dict[Arrow, str] = {}
    colors = complex.colors
    for a in sorted(complex.arrows):
        source, _, target = a
        if source == x_first or source == x_last:
            raise InternalError(f"unexpected arrow out of a dropped endpoint: {a}")
        (sc, sr), (tc, tr) = place[source], place[target]
        du, dv = sc - tc, sr - tr
        if du < 0 or dv < 0 or not (du or dv):
            raise InternalError(f"placement forces exponents ({du}, {dv})")
        arrow = Arrow(new_id[source], Monomial.of(du, dv), new_id[target])
        if new_colors.pop(arrow, None) is None:
            new_colors[arrow] = colors.get(a) or BLACK

    generators = complex.generators

    def forced_grading(source: int, target: int) -> Grading:
        # An arrow of the complex, whose exponents the loop has checked.
        g, (sc, sr), (tc, tr) = generators[source].grading, place[source], place[target]
        return Grading(g.gu + 2 * (sc - tc) - 1, g.gv + 2 * (sr - tr) - 1)

    # Kept generators are kept as they are; the moved pair and z take the
    # gradings the degree equation forces along y0 -> y_-1, y_2n -> y_2n+1
    # and x_2n -> x_2n+1.
    gens = [generators[g] for g in keep]
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

    glued = glue(double(extend_and_realize(seq).complex), seq)
    if not has_correct_homology(glued):
        raise InternalError(f"realization of {seq} has the wrong homology")
    return glued
