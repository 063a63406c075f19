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

Each stage finds its terms once, each with its witnessing path. On a
complex that records its chain ``links``, stage 1 is read off them: the
only two-arrow paths run through one generator, along two consecutive
links of the same sign, and the term survives iff one of the two lengths
is 1. So a decision settled at stage 1 builds no adjacency index. Every
later stage takes one pass over the two-arrow paths, grouped by term;
paths that cancel in pairs drop out. ``differential_square`` is not used
here: it stays the independent check of the finished complex.

Arrows added in one stage never interact, so the procedure may add them in
any order (or all at once) and always converges to the same arrow set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InternalError
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


def _unique_adjacent(complex, gid, kind):
    """The at-most-one horizontal (resp. vertical) arrow touching gid: one of
    its two links on a chain, otherwise found through the adjacency index."""
    links = complex.links
    if links is not None:
        touching = links[max(gid - 1, 0) : gid + 1]
    else:
        touching = (*complex.outgoing.get(gid, ()), *complex.incoming.get(gid, ()))
    found = [
        a
        for a in touching
        if (a.monomial.is_horizontal if kind == "h" else a.monomial.is_vertical)
    ]
    if len(found) > 1:
        raise InternalError(
            f"generator {gid} has {len(found)} {kind}-arrows; input is not standard"
        )
    return found[0] if found else None


def forced_response(
    complex: BasedComplex, cause: Cause, path: tuple[Arrow, Arrow]
) -> ForcedArrowEvent | list[Obstruction]:
    """The unique legal reaction to one offending d^2 path.

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
        adjacent = _unique_adjacent(complex, pivot, kind)
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


# The causes of one stage, each with its single witnessing path.
StageCauses = dict[Cause, tuple[Arrow, Arrow]]


def _link_causes(links: Sequence[Arrow]) -> StageCauses:
    """Stage 1 of a chain. Links j and j + 1 meet at generator j + 1 and form
    a path when one enters it and the other leaves; that path is the only
    one between its ends. One link is horizontal and the other vertical, so
    the term survives over R2 iff one of their lengths is 1."""
    causes: StageCauses = {}
    for left, right in zip(links, links[1:]):
        if left.target == right.source:
            first, second = left, right
        elif right.target == left.source:
            first, second = right, left
        else:
            continue
        u = first.monomial.u + second.monomial.u
        v = first.monomial.v + second.monomial.v
        if u == 1 or v == 1:
            causes[first.source, Monomial.of(u, v), second.target] = (first, second)
    return causes


def _path_causes(complex: BasedComplex) -> StageCauses:
    """Every d^2 term over R2, from one pass over the two-arrow paths: paths
    are grouped by (source, monomial, target), and a group of even size
    cancels."""
    out = complex.outgoing
    level = R2.level
    found: StageCauses = {}
    repeats: dict[Cause, int] = {}
    for first in complex.arrows:
        seconds = out.get(first.target)
        if seconds is None:
            continue
        m1 = first.monomial
        for second in seconds:
            m2 = second.monomial
            u, v = m1.u + m2.u, m1.v + m2.v
            if u >= level and v >= level:
                continue
            cause = (first.source, Monomial.of(u, v), second.target)
            if cause in found:
                repeats[cause] = repeats.get(cause, 1) + 1
            else:
                found[cause] = (first, second)
    for cause, count in repeats.items():
        if count % 2:
            raise InternalError(
                f"cause {cause} has {count} contributing paths; expected 1"
            )
        del found[cause]
    for x, mono, y in found:
        if mono.min_exp == 0:
            raise InternalError(
                f"d^2 term {mono} from {x} to {y} has a zero exponent; "
                "two parallel non-diagonal arrows should be impossible"
            )
    return found


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
    current = lift_to(complex, R2)
    events: list[ForcedArrowEvent] = []
    links = complex.links
    causes = _path_causes(current) if links is None else _link_causes(links)

    while True:
        if not causes:
            return PartialRealization(current, tuple(events))
        pending = canonicalize_schedule(causes)
        selected = pending
        if scheduler is not None:
            selected = tuple(scheduler(pending))
            if not selected:
                raise InternalError("scheduler selected no causes")
            if any(c not in causes for c in selected):
                raise InternalError("scheduler selected a cause that is not pending")

        obstructions: list[Obstruction] = []
        stage_events: list[ForcedArrowEvent] = []
        # Every added arrow is diagonal, so on a chain the input's links stay
        # the only horizontal and vertical arrows, and forced_response reads
        # them instead of building the adjacency index.
        adjacency = current if links is None else complex
        for cause in selected:
            response = forced_response(adjacency, cause, causes[cause])
            if isinstance(response, ForcedArrowEvent):
                stage_events.append(response)
            else:
                obstructions.extend(response)

        if obstructions:
            ordered = tuple(
                sorted(set(obstructions), key=lambda o: (_cause_key(o.cause), o.reason))
            )
            return NotRealizable(ordered, current)

        new_arrows = []
        seen = set()
        for e in stage_events:
            if e.added in current.arrows:
                raise InternalError(f"forced arrow {e.added} is already present")
            if e.added not in seen:
                seen.add(e.added)
                new_arrows.append(e.added)
            events.append(e)
        budget = _arrow_budget(current)
        if len({e.added for e in events}) > budget:
            raise InternalError(
                f"added more than {budget} arrows; the procedure must terminate sooner"
            )
        current = add_arrows(current, new_arrows, color=ADDED_COLOR)
        causes = _path_causes(current)


def decide(
    seq: SignSequence | ExtendedSignSequence, scheduler: Scheduler | None = None
) -> DecisionOutcome:
    """Build the (extended) standard complex of ``seq`` and decide it."""
    if isinstance(seq, ExtendedSignSequence):
        return partial_realize(build_extended(seq), scheduler)
    return partial_realize(build_standard(seq), scheduler)
