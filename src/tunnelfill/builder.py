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
   keeps nonnegative exponents. Arrow monomials are recomputed from the
   placement; the degree and d^2 checks validate the result.

Both extension lengths are max|a_i| + 2, chosen up front. At the published
length, max|a_i| + 1, an end diagonal next to a maximal arrow can keep a
unit exponent and leave an uncancellable corner at the seam. One more step
lifts, doubles and glues every realizable sequence with n <= 3, |a_i| <= 4
(114,270 of them) with the right homology. Explicit lengths are used as
given; a typed ExtensionError or PlacementError says when they fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConstructionError,
    ExtensionError,
    InternalError,
    PlacementError,
)
from .filler import (
    NotRealizable,
    PartialRealization,
    partial_realize,
)
from .homology import has_correct_homology
from .lattice import lattice_positions
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
    make_complex,
)
from .standard import ExtendedSignSequence, SignSequence, build_extended, build_standard

BLACK, RED, BLUE, GREEN = "black", "red", "blue", "green"


@dataclass(frozen=True)
class ExtensionParams:
    """Lengths of the two extension arrows; both must exceed every |a_i|."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ConstructionError("extension lengths must be positive")


def default_extension_params(seq: SignSequence) -> ExtensionParams:
    """max|a_i| + 2 at both ends; the module docstring says why."""
    length = seq.max_abs + 2
    return ExtensionParams(length, length)


def glue_offset(seq: SignSequence) -> int:
    """Half the sign sum; the diagonal distance between the two copies of z."""
    return seq.sign_sum() // 2


def extend_and_realize(seq: SignSequence, params: ExtensionParams) -> PartialRealization:
    """Lift the extended complex C(n1 | seq | -n2) to the level-2 ring.

    Raises ExtensionError when the lift fails, which lengths of
    max|a_i| + 1 can cause; ``default_extension_params`` avoids it.
    """
    bound = seq.max_abs + 1
    if params.n1 < bound or params.n2 < bound:
        raise ConstructionError(
            f"extension lengths {params} are below the bound {bound} for {seq}"
        )
    ext = ExtendedSignSequence(params.n1, seq, -params.n2)
    outcome = partial_realize(build_extended(ext))
    if isinstance(outcome, NotRealizable):
        raise ExtensionError(
            f"extended complex of {seq} with lengths {params} did not lift",
            outcome.obstructions,
        )
    return outcome


def double(lifted: BasedComplex) -> BasedComplex:
    """Join two copies of a level-2 chain complex into a chain complex over
    the full ring, using unit-diagonal and correction arrows. The second
    copy's ids follow the first's, in the same order."""
    square = differential_square(lift_to(lifted, RINF))
    for x, terms in square.items():
        for (y, mono), _ in terms.items():
            if mono.min_exp <= 1:
                raise ConstructionError(
                    f"input is not a chain complex over the level-2 ring: "
                    f"d^2 has the term {mono} from {x} to {y}"
                )

    count = len(lifted.generators)
    y_gens = tuple(
        Generator(
            count + g.gid,
            "y" + g.name.removeprefix("x"),
            g.grading.shifted(-1, -1),
        )
        for g in lifted.generators
    )

    # Every arrow of the doubled complex, with its color.
    colors: dict[Arrow, str] = {}
    for a in lifted.arrows:
        colors[a] = BLACK
        colors[Arrow(count + a.source, a.monomial, count + a.target)] = RED
    for gid in range(count):
        colors[Arrow(count + gid, Monomial(1, 1), gid)] = BLUE
    for x, terms in square.items():
        for y, mono in terms:
            colors[Arrow(x, Monomial(mono.u - 1, mono.v - 1), count + y)] = GREEN

    return make_complex(RINF, lifted.generators + y_gens, colors.keys(), colors)


def glue(complex: BasedComplex, seq: SignSequence) -> BasedComplex:
    """Merge the two extension endpoints into one far-away generator z.

    Every arrow keeps its endpoints (with both dropped generators replaced
    by z) and takes the monomial dictated by the new planar placement. With
    a positive offset s the x_-1 role attaches to the lower copy of z; with
    a negative offset the x_2n+1 role does.
    """
    s = glue_offset(seq)
    pos = lattice_positions(complex, strict=True)

    # ``double`` numbers x_-1 .. x_2n+1 from 0 and y_-1 .. y_2n+1 after them.
    count = len(complex.generators) // 2
    x_first, x_last, x_top = 0, count - 1, count - 2
    y_first, y_last, y0, y_top = count, 2 * count - 1, count + 1, 2 * count - 2
    dropped = {x_first, x_last}
    moved = {y_first, y_last}
    core = [*range(1, count - 1), *range(count + 1, 2 * count - 1)]

    min_col = min(pos[g][0] for g in core)
    min_row = min(pos[g][1] for g in core)
    gap = 2 * abs(s) + 2
    z_pos = (min_col - gap, min_row - gap)
    # The two drawn copies of z sit |s| diagonal steps apart; each endpoint
    # role reads its monomials from its own copy.
    head_anchor = (z_pos[0] - s, z_pos[1] - s) if s > 0 else z_pos
    tail_anchor = (z_pos[0] + s, z_pos[1] + s) if s < 0 else z_pos
    new_pos = dict(pos)
    new_pos[y_first] = (pos[y0][0], head_anchor[1])
    new_pos[y_last] = (tail_anchor[0], pos[y_top][1])

    keep = [*range(1, count - 1), *range(count, 2 * count)]
    remap = {old: new for new, old in enumerate(keep)}
    z_id = len(keep)

    def monomial_from(p, q) -> Monomial:
        du, dv = p[0] - q[0], p[1] - q[1]
        if du < 0 or dv < 0 or (du == 0 and dv == 0):
            raise PlacementError(
                f"placement forces exponents ({du}, {dv}); the extensions are too short"
            )
        return Monomial(du, dv)

    # When the offset is zero and one source reaches both endpoints, its two
    # z-arrows coincide and cancel; that is honest F2 arithmetic and the
    # chain and degree checks below still have to pass.
    new_arrows: list[Arrow] = []
    new_colors: dict[Arrow, str] = {}
    for a in sorted(complex.arrows):
        color = complex.colors.get(a)
        if a.source in dropped:
            raise InternalError(f"unexpected arrow out of a dropped endpoint: {a}")
        src = a.source
        if a.target in dropped:
            anchor = head_anchor if a.target == x_first else tail_anchor
            mono = monomial_from(new_pos[src], anchor)
            arrow = Arrow(remap[src], mono, z_id)
        elif a.target in moved or src in moved:
            mono = monomial_from(new_pos[src], new_pos[a.target])
            arrow = Arrow(remap[src], mono, remap[a.target])
        else:
            arrow = Arrow(remap[src], a.monomial, remap[a.target])
        new_arrows.append(arrow)
        new_colors[arrow] = color or BLACK

    # Gradings: kept generators keep theirs; the moved pair and z get the
    # gradings the degree equation forces along their incident arrows.
    gradings: dict[int, Grading] = {
        remap[g]: complex.grading(g) for g in keep if g not in moved
    }

    def forced_grading(source_id: int, mono: Monomial) -> Grading:
        g = gradings[source_id]
        return Grading(g.gu + 2 * mono.u - 1, g.gv + 2 * mono.v - 1)

    red_head = next(
        a for a in new_arrows if a.source == remap[y0] and a.target == remap[y_first]
    )
    gradings[remap[y_first]] = forced_grading(remap[y0], red_head.monomial)
    red_tail = next(
        a for a in new_arrows if a.source == remap[y_top] and a.target == remap[y_last]
    )
    gradings[remap[y_last]] = forced_grading(remap[y_top], red_tail.monomial)
    tail_black = next(
        a for a in new_arrows if a.source == remap[x_top] and a.target == z_id
    )
    gradings[z_id] = forced_grading(remap[x_top], tail_black.monomial)

    gens = []
    for old in keep:
        gens.append(Generator(remap[old], complex.generator(old).name, gradings[remap[old]]))
    gens.append(Generator(z_id, "z", gradings[z_id]))

    glued = make_complex(RINF, tuple(gens), new_arrows, new_colors)
    bad = degree_violations(glued)
    if bad:
        raise InternalError(f"glued complex breaks the degree equation at {bad[:3]}")
    if differential_square(glued):
        raise InternalError("glued complex has nonzero d^2")
    return glued


def realize(
    seq: SignSequence, params: ExtensionParams | None = None
) -> BasedComplex | NotRealizable:
    """Decide ``seq`` and, when liftable, build a full realization of its
    local equivalence class with the homology contract.

    Returns the tunnel filler's NotRealizable outcome otherwise. Raises
    ExtensionError or PlacementError when explicit ``params`` do not work.
    """
    outcome = partial_realize(build_standard(seq))
    if isinstance(outcome, NotRealizable):
        return outcome

    params = params or default_extension_params(seq)
    glued = glue(double(extend_and_realize(seq, params).complex), seq)
    if not has_correct_homology(glued):
        raise InternalError(f"realization of {seq} has the wrong homology")
    return glued
