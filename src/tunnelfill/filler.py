"""Decide whether a standard complex lifts to a chain complex over the
level-2 ring, by filling width-1 tunnels with forced diagonal arrows.

Working over the level-2 ring, every surviving d^2 term U^a V^b has a unit
exponent, and each such term is witnessed by exactly one two-arrow path in
which one arrow is horizontal (when b = 1) or vertical (when a = 1). The
only way to cancel the term without touching the existing differential is
to add a single diagonal arrow riding along the unique horizontal (resp.
vertical) arrow at the far end of the path. When that adjacent arrow is
missing, points the wrong way, or is too long, no augmentation exists and
the complex is not liftable.

The input is a chain built by ``build_standard`` or ``build_extended``,
which records its arrows in chain order as ``links``, and every arrow the
filler adds is diagonal. So each d^2 term is a two-arrow path through a
link, and a decision keeps one table of them, from each term to its paths.
The table starts with the paths along two consecutive links, and each stage
adds only the paths that pair a newly added arrow with a link at either
end: two added arrows compose to a term with both exponents at least 2,
which vanishes. A stage's causes are the terms with an odd number of paths;
paths that cancel in pairs drop out. The filler builds no adjacency index
and builds its output complex once, at the end. ``differential_square`` is
not used here: it stays the independent check of the finished complex.

Arrows added in one stage never interact, so the procedure may add them in
any order (or all at once) and always converges to the same arrow set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ConstructionError, InternalError
from .rings import (
    R2,
    Arrow,
    BasedComplex,
    Monomial,
    add_arrows,
    lift_to,
)
from .standard import ExtendedSignSequence, SignSequence, build_extended, build_standard

# A d^2 term that must be cancelled: (source id, monomial, target id).
Cause = tuple[int, Monomial, int]
# A two-arrow path, first arrow then second.
Path = tuple[Arrow, Arrow]
# The causes of one stage, each with its single witnessing path.
StageCauses = dict[Cause, Path]
# The two-arrow paths of a decision's complex whose terms survive over R2,
# by term.
PathTable = dict[Cause, list[Path]]

ADDED_COLOR = "added"

NO_ADJACENT = "no-adjacent-arrow"
WRONG_DIRECTION = "wrong-direction"
INSUFFICIENT_LENGTH = "insufficient-length"


@dataclass(frozen=True)
class ForcedArrowEvent:
    """A diagonal arrow the complex was forced to absorb, with the d^2 term
    that demanded it and which of the four case splits applied."""

    cause: Cause
    case_tag: str
    added: Arrow


@dataclass(frozen=True)
class Obstruction:
    """A d^2 term with no legal cancelling arrow."""

    cause: Cause
    reason: str


@dataclass(frozen=True)
class PartialRealization:
    """A successful lift: chain complex over the level-2 ring whose mod-UV
    reduction is the input, plus the arrows that were added."""

    complex: BasedComplex
    added: tuple[ForcedArrowEvent, ...]

    def __init__(self, complex: BasedComplex, added: tuple[ForcedArrowEvent, ...]):
        # Written out, not generated, for the reason BasedComplex gives:
        # every decision builds one.
        fields = self.__dict__
        fields["complex"] = complex
        fields["added"] = added


@dataclass(frozen=True)
class NotRealizable:
    obstructions: tuple[Obstruction, ...]
    partial_progress: BasedComplex


DecisionOutcome = PartialRealization | NotRealizable

# A scheduler picks which pending causes to process this round; the default
# processes the whole stage at once.
Scheduler = Callable[[Sequence[Cause]], Sequence[Cause]]


def _cause_key(cause: Cause):
    x, m, y = cause
    return (x, y, m.u, m.v)


def canonicalize_schedule(pending: Sequence[Cause]) -> tuple[Cause, ...]:
    """The default processing order: every visible cause, sorted, as one stage."""
    return tuple(sorted(pending, key=_cause_key))


def _unique_adjacent(links, gid, kind):
    """The at-most-one horizontal (resp. vertical) arrow touching gid: one
    of its two links, since every added arrow is diagonal."""
    found = [
        a
        for a in links[max(gid - 1, 0) : gid + 1]
        if (a.monomial.is_horizontal if kind == "h" else a.monomial.is_vertical)
    ]
    if len(found) > 1:
        raise InternalError(
            f"generator {gid} has {len(found)} {kind}-arrows; input is not standard"
        )
    return found[0] if found else None


def forced_response(
    links: Sequence[Arrow], cause: Cause, path: Path
) -> ForcedArrowEvent | list[Obstruction]:
    """The unique legal reaction to one offending d^2 path on the chain
    ``links``.

    With cause <d^2 x_i, U^a V^b x_j> = 1 and b = 1, the path contains one
    horizontal arrow:

    - horizontal first: the cancelling path must end with the unique
      horizontal arrow into x_j, of some length l < a; add the diagonal
      x_i -> U^(a-l) V^1 (its source).
    - horizontal second: it must start with the unique horizontal arrow out
      of x_i, of length l < a; add (its target) -> U^(a-l) V^1 x_j.

    The a = 1 cases are the mirror images with vertical arrows. When a
    required adjacent arrow is absent, points the wrong way, or is too long,
    the term cannot be cancelled and an obstruction is reported instead.
    """
    x, mono, y = cause
    first, second = path
    obstructions: list[Obstruction] = []

    analyses = []
    if mono.v == 1:
        if first.monomial.v == 0:
            analyses.append(("h", True))
        elif second.monomial.v == 0:
            analyses.append(("h", False))
    if mono.u == 1:
        if first.monomial.u == 0:
            analyses.append(("v", True))
        elif second.monomial.u == 0:
            analyses.append(("v", False))
    if not analyses:
        raise InternalError(f"no non-diagonal arrow in the path for cause {cause}")

    event = None
    for kind, pivot_is_target in analyses:
        budget = mono.u if kind == "h" else mono.v
        pivot = y if pivot_is_target else x
        adjacent = _unique_adjacent(links, pivot, kind)
        if adjacent is None:
            obstructions.append(Obstruction(cause, NO_ADJACENT))
            continue
        into_pivot = adjacent.target == pivot
        if into_pivot != pivot_is_target:
            obstructions.append(Obstruction(cause, WRONG_DIRECTION))
            continue
        length = adjacent.monomial.u if kind == "h" else adjacent.monomial.v
        if length >= budget:
            obstructions.append(Obstruction(cause, INSUFFICIENT_LENGTH))
            continue
        rest = budget - length
        new_mono = Monomial(rest, 1) if kind == "h" else Monomial(1, rest)
        if pivot_is_target:
            added = Arrow(x, new_mono, adjacent.source)
            tag = "horizontal-first" if kind == "h" else "vertical-first"
        else:
            added = Arrow(adjacent.target, new_mono, y)
            tag = "horizontal-second" if kind == "h" else "vertical-second"
        if event is not None:
            raise InternalError(f"two competing responses for cause {cause}")
        event = ForcedArrowEvent(cause, tag, added)

    return event if event is not None else obstructions


def _link_neighbours(links: Sequence[Arrow], arrows: Iterable[Arrow]):
    """Each of ``arrows`` paired with each link that shares an end with it."""
    for arrow in arrows:
        for end in arrow.source, arrow.target:
            for link in links[max(end - 1, 0) : end + 1]:
                yield arrow, link


def _file_paths(
    table: PathTable,
    pairs: Iterable[tuple[Arrow, Arrow]],
    pending: Iterable[Cause] = (),
) -> StageCauses:
    """File the path that each pair of arrows forms, if it forms one, in
    ``table`` under its d^2 term, unless the term vanishes over R2. Return
    the causes among the terms filed and ``pending``: the terms with an odd
    number of paths, each with its one path. Paths that cancel in pairs
    drop out."""
    level = R2.level
    terms = [*pending]
    for a, b in pairs:
        if a.target == b.source:
            first, second = a, b
        elif b.target == a.source:
            first, second = b, a
        else:
            continue
        (u1, v1), (u2, v2) = first.monomial, second.monomial
        u, v = u1 + u2, v1 + v2
        if u < level or v < level:
            term = (first.source, Monomial.of(u, v), second.target)
            if not (u and v):
                raise InternalError(
                    f"d^2 term {term[1]} from {term[0]} to {term[2]} has a zero "
                    "exponent; two parallel non-diagonal arrows should be impossible"
                )
            table.setdefault(term, []).append((first, second))
            terms.append(term)
    causes: StageCauses = {}
    for term in terms:
        filed = table[term]
        if len(filed) == 1:
            causes[term] = filed[0]
        elif len(filed) % 2:
            raise InternalError(
                f"cause {term} has {len(filed)} contributing paths; expected 1"
            )
    return causes


def _arrow_budget(complex) -> int:
    # Arrows only connect generators whose gr_U parities differ, so the
    # total added is at most the edge count of a balanced bipartite graph.
    m = len(complex.generators)
    return (m // 2) * ((m + 1) // 2)


def partial_realize(
    complex: BasedComplex, scheduler: Scheduler | None = None
) -> DecisionOutcome:
    """Run the tunnel-filling procedure on a standard or extended standard
    complex and decide liftability to the level-2 ring.

    ``scheduler`` restricts which visible causes are handled per round; it
    exists to demonstrate that the outcome is order-independent.
    """
    links = complex.links
    if links is None:
        raise ConstructionError(
            "partial_realize takes a chain built by build_standard or build_extended"
        )
    lifted = lift_to(complex, R2)
    events: list[ForcedArrowEvent] = []
    # The arrows added so far, in order of addition.
    added: dict[Arrow, None] = {}
    obstructions: list[Obstruction] = []
    table: PathTable = {}
    causes = _file_paths(table, zip(links, links[1:]))

    while causes:
        pending = canonicalize_schedule(causes)
        selected = pending
        if scheduler is not None:
            selected = tuple(scheduler(pending))
            if not selected:
                raise InternalError("scheduler selected no causes")
            if any(c not in causes for c in selected):
                raise InternalError("scheduler selected a cause that is not pending")

        stage_events: list[ForcedArrowEvent] = []
        for cause in selected:
            response = forced_response(links, cause, causes[cause])
            if isinstance(response, ForcedArrowEvent):
                stage_events.append(response)
            else:
                obstructions.extend(response)

        if obstructions:
            break

        new: dict[Arrow, None] = {}
        for e in stage_events:
            if e.added in added:
                raise InternalError(f"forced arrow {e.added} is already present")
            new[e.added] = None
            events.append(e)
        added.update(new)
        budget = _arrow_budget(complex)
        if len(added) > budget:
            raise InternalError(
                f"added more than {budget} arrows; the procedure must terminate sooner"
            )
        # Two added arrows compose to a term with both exponents at least 2,
        # so every new path runs along a link. This stage's causes are
        # checked again, since those the scheduler left out stay.
        causes = _file_paths(table, _link_neighbours(links, new), causes)

    # The output complex is built once, when the decision ends.
    filled = add_arrows(lifted, added, color=ADDED_COLOR) if added else lifted
    if obstructions:
        ordered = tuple(
            sorted(set(obstructions), key=lambda o: (_cause_key(o.cause), o.reason))
        )
        return NotRealizable(ordered, filled)
    return PartialRealization(filled, tuple(events))


def decide(
    seq: SignSequence | ExtendedSignSequence, scheduler: Scheduler | None = None
) -> DecisionOutcome:
    """Build the (extended) standard complex of ``seq`` and decide it."""
    if isinstance(seq, ExtendedSignSequence):
        return partial_realize(build_extended(seq), scheduler)
    return partial_realize(build_standard(seq), scheduler)
