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

The procedure, ``fill_links``, runs on a chain's arrows in chain order, its
``links``, as ``standard.chain_links`` returns them, and every arrow it adds
is diagonal. So each d^2 term is a two-arrow path through a link, and a
decision keeps one table of them, from each term to its one path, or to None
once a second path has cancelled it. The table starts with the paths along
two consecutive links, and each stage adds only the paths that pair a newly
added arrow with a link at either end: two added arrows compose to a term
with both exponents at least 2, which vanishes. A stage's causes are the
terms that still have their path. ``fill_links`` builds no complex and no
adjacency index. It returns one record of what it added, each added arrow
mapped to the event that forced it in order of addition, with the
obstructions of the stage that failed. Only ``partial_realize``, which takes
a chain built by ``build_standard`` or ``build_extended``, builds a complex:
its output, once, from the added arrows. It checks the ends of only the added
arrows, since the chain's were checked when the chain was built, and it
reuses the chain's arrow set when none were added. ``differential_square``
is not used here: it stays the independent check of the finished complex.

Arrows added in one stage never interact, so the procedure may add them in
any order (or all at once) and always converges to the same arrow set. Each
stage takes its causes in sorted order; the tests check the verdict and arrow
set against ``one_arrow_at_a_time`` in ``tests/conftest.py``, which adds one
arrow per random d^2 term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConstructionError, InternalError
from .rings import _MONOMIALS, R2, Arrow, BasedComplex, Term, insert_arrows
from .standard import ExtendedSignSequence, SignSequence, build_extended, build_standard

# A two-arrow path, first arrow then second.
Path = tuple[Arrow, Arrow]
# The causes of one stage, the d^2 terms that must be cancelled, each with
# its single witnessing path.
StageCauses = dict[Term, Path]
# Each term of a decision's complex that survives over R2, to its one
# two-arrow path, or to None once a second path has cancelled it.
PathTable = dict[Term, Path | None]

ADDED_COLOR = "added"

NO_ADJACENT = "no-adjacent-arrow"
WRONG_DIRECTION = "wrong-direction"
INSUFFICIENT_LENGTH = "insufficient-length"


@dataclass(frozen=True)
class ForcedArrowEvent:
    """A diagonal arrow the complex was forced to absorb, with the d^2 term
    that demanded it and which of the four case splits applied."""

    cause: Term
    case_tag: str
    added: Arrow

    def __init__(self, cause: Term, case_tag: str, added: Arrow):
        # Written out, as in BasedComplex: the frozen dataclass __init__
        # assigns each field through object.__setattr__, and a stage builds
        # one event per cause.
        fields = self.__dict__
        fields["cause"] = cause
        fields["case_tag"] = case_tag
        fields["added"] = added


@dataclass(frozen=True)
class Obstruction:
    """A d^2 term with no legal cancelling arrow."""

    cause: Term
    reason: str

    def __init__(self, cause: Term, reason: str):
        # Written out, as in ForcedArrowEvent.
        fields = self.__dict__
        fields["cause"] = cause
        fields["reason"] = reason


@dataclass(frozen=True)
class PartialRealization:
    """A successful lift: chain complex over the level-2 ring whose mod-UV
    reduction is the input, plus the arrows that were added."""

    complex: BasedComplex
    added: tuple[ForcedArrowEvent, ...]


@dataclass(frozen=True)
class NotRealizable:
    obstructions: tuple[Obstruction, ...]
    partial_progress: BasedComplex


DecisionOutcome = PartialRealization | NotRealizable


def _cause_key(cause: Term):
    x, m, y = cause
    return (x, y, m.u, m.v)


def _unique_adjacent(links, gid, horizontal):
    """The horizontal (resp. vertical) arrow touching gid, if any: one of
    its two links, since every added arrow is diagonal and links alternate
    kinds."""
    # At id 0 this reads links[-1:1], empty on every chain (each has two
    # links or more), yet no analysis at id 0 seeks links[0]'s kind. One
    # pivots at the far end of the path arrow whose other exponent is 1: a
    # link of the other kind, or an arrow forced by an analysis joining a
    # cause's end c to the far end w of its pivot's link. If that analysis
    # was of the other kind, c and w each have a link of it. If of the same
    # kind, the path via w's link is the cancelled one, and c's link leaves
    # or enters c as the arrow does, so the two form no path.
    for link in links[gid - 1 : gid + 1]:
        # No link is a unit arrow, so it is horizontal exactly when it has no V.
        if (not link.monomial.v) == horizontal:
            return link
    return None


def forced_response(
    links: Sequence[Arrow], cause: Term, path: Path
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
    Only a UV term takes both analyses, and its budget of 1 is too short
    for any link, so at most one analysis yields an arrow.
    """
    x, mono, y = cause
    first, _ = path
    # The path's two V exponents sum to b = 1, so the horizontal arrow is
    # the first exactly when the first has no V; likewise for a = 1.
    analyses = []
    if mono.v == 1:
        analyses.append((True, mono.u, first.monomial.v == 0))
    if mono.u == 1:
        analyses.append((False, mono.v, first.monomial.u == 0))
    obstructions: list[Obstruction] = []
    for horizontal, budget, pivot_is_target in analyses:
        pivot = y if pivot_is_target else x
        adjacent = _unique_adjacent(links, pivot, horizontal)
        if adjacent is None:
            reason = NO_ADJACENT
        elif (adjacent.target == pivot) != pivot_is_target:
            reason = WRONG_DIRECTION
        else:
            rest = budget - (adjacent.monomial.u if horizontal else adjacent.monomial.v)
            if rest > 0:
                new_mono = _MONOMIALS[rest, 1] if horizontal else _MONOMIALS[1, rest]
                if pivot_is_target:
                    added = Arrow(x, new_mono, adjacent.source)
                    tag = "horizontal-first" if horizontal else "vertical-first"
                else:
                    added = Arrow(adjacent.target, new_mono, y)
                    tag = "horizontal-second" if horizontal else "vertical-second"
                return ForcedArrowEvent(cause, tag, added)
            reason = INSUFFICIENT_LENGTH
        obstructions.append(Obstruction(cause, reason))
    return obstructions


def _link_neighbours(
    links: Sequence[Arrow], arrows: Iterable[Arrow]
) -> list[tuple[Arrow, Arrow]]:
    """Each of ``arrows`` paired with each link that shares an end with it."""
    pairs = []
    for arrow in arrows:
        for end in arrow.source, arrow.target:
            # links[0] too at id 0: an arrow forced along it cancels its cause.
            for link in links[max(end - 1, 0) : end + 1]:
                pairs.append((arrow, link))
    return pairs


def _file_paths(table: PathTable, pairs: Iterable[tuple[Arrow, Arrow]]) -> StageCauses:
    """File the path that each pair of arrows forms, if it forms one, in
    ``table`` under its d^2 term, unless the term vanishes over R2. A second
    path cancels the term. Return the causes among the terms filed: those
    that still have their path."""
    level = R2.level
    monomials = _MONOMIALS
    terms = []
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
            term = (first.source, monomials[u, v], second.target)
            if not (u and v):
                raise InternalError(
                    f"d^2 term {term[1]} from {term[0]} to {term[2]} has a zero "
                    "exponent; two parallel non-diagonal arrows should be impossible"
                )
            filed = table.get(term, ())
            if filed is None:
                raise InternalError(
                    f"cause {term} has 3 contributing paths; expected 1"
                )
            table[term] = None if filed else (first, second)
            terms.append(term)
    return {term: path for term in terms if (path := table[term]) is not None}


def fill_links(
    links: Sequence[Arrow],
) -> tuple[dict[Arrow, ForcedArrowEvent], tuple[Obstruction, ...]]:
    """Fill the tunnels of the chain whose arrows, in chain order, are
    ``links``: each added arrow to the event that forced it, in order of
    addition, and the sorted obstructions of the stage that failed (none
    when the chain lifts). A failed stage adds nothing."""
    added: dict[Arrow, ForcedArrowEvent] = {}
    obstructions: list[Obstruction] = []
    table: PathTable = {}
    causes = _file_paths(table, zip(links, links[1:]))
    # Arrows only connect generators whose gr_U parities differ, so the
    # total added is at most the edge count of a balanced bipartite graph.
    m = len(links) + 1
    budget = (m // 2) * ((m + 1) // 2)

    while causes:
        new: dict[Arrow, ForcedArrowEvent] = {}
        for cause in sorted(causes, key=_cause_key):
            response = forced_response(links, cause, causes[cause])
            if not isinstance(response, ForcedArrowEvent):
                obstructions.extend(response)
            elif response.added in new or response.added in added:
                raise InternalError(f"forced arrow {response.added} is already present")
            else:
                new[response.added] = response

        if obstructions:
            break

        added.update(new)
        if len(added) > budget:
            raise InternalError(
                f"added more than {budget} arrows; the procedure must terminate sooner"
            )
        # Two added arrows compose to a term with both exponents at least 2,
        # so every new path runs along a link. Each added arrow and the link
        # at its pivot form a second path for the term that forced it, so
        # this stage's causes are all cancelled.
        causes = _file_paths(table, _link_neighbours(links, new))

    ordered = sorted(set(obstructions), key=lambda o: (_cause_key(o.cause), o.reason))
    return added, tuple(ordered)


def partial_realize(complex: BasedComplex) -> DecisionOutcome:
    """Run the tunnel-filling procedure on a standard or extended standard
    complex and decide liftability to the level-2 ring."""
    links = complex.links
    if links is None:
        raise ConstructionError(
            "partial_realize takes a chain built by build_standard or build_extended"
        )
    added, obstructions = fill_links(links)
    # A plain insertion is right: fill_links refuses an arrow forced twice or
    # already present in any stage, each is diagonal and no link is, so none
    # cancels a chain arrow, and each has a unit exponent, so none vanishes
    # over R2. Only the added arrows' ends are checked, as _chain checked the
    # chain's, and the chain's arrow set is reused when nothing was added.
    filled = insert_arrows(complex, R2, added, ADDED_COLOR)
    if obstructions:
        return NotRealizable(obstructions, filled)
    return PartialRealization(filled, tuple(added.values()))


def decide(seq: SignSequence | ExtendedSignSequence) -> DecisionOutcome:
    """Build the (extended) standard complex of ``seq`` and decide it."""
    if isinstance(seq, ExtendedSignSequence):
        return partial_realize(build_extended(seq))
    return partial_realize(build_standard(seq))
