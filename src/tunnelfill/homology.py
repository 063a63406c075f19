"""Independent verification of the homology and symmetry contracts.

Killing U (resp. V) turns a based complex into a complex of free modules
over F2[V] (resp. F2[U]) that splits along gr_U (resp. gr_V), because
multiplication by the surviving variable preserves that grading while the
differential lowers it by exactly one. Each graded piece is a block of
the surviving arrows, each of which carries a power of the surviving
variable t. A block in which no two arrows share an end is its own Smith
form up to permutation, because t^a divides t^b exactly when a <= b, so
its rank and torsion are read off its arrows; every block of a complex
built from a sign sequence is of this kind. Any other block, such as a
dense one from a hand-written document, is built as a matrix and
eliminated, and refused if it holds a power over
``ELIMINATION_DEGREE_BOUND``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ConstructionError, SearchBudgetError
from .f2poly import PolyMatrix, pdeg, smith_normal_form
from .rings import Arrow, BasedComplex, Generator, Monomial

# How many individualizations find_based_isomorphism may make before it
# gives up; each one costs a refinement pass.
SEARCH_BUDGET = 1 << 10

# The largest power a block may hold and still be eliminated. Elimination
# time grows with the square of the degree, and no block built from a sign
# sequence needs it, so only a hand-written document can reach this bound.
ELIMINATION_DEGREE_BOUND = 4096


@dataclass(frozen=True)
class QuotientChain:
    """C/U or C/V, graded by the preserved grading.

    ``arrows[k]`` is the block from the degree-k piece to the degree-(k-1)
    piece as ``(row, column, power)`` triples, one per surviving arrow
    t^power from ``generators[k][column]`` to ``generators[k - 1][row]``.
    A block in which no two arrows share an end is read off its triples;
    any other is built by ``boundary(k)`` and eliminated, and refused if it
    holds a power over ``ELIMINATION_DEGREE_BOUND``.
    """

    killed: str
    degrees: tuple[int, ...]
    generators: Mapping[int, tuple[int, ...]]
    arrows: Mapping[int, tuple[tuple[int, int, int], ...]]

    def boundary(self, k: int) -> PolyMatrix:
        """The block at degree k as a matrix over F2[t]."""
        rows = [[0] * len(self.generators[k]) for _ in self.generators.get(k - 1, ())]
        for row, column, power in self.arrows[k]:
            rows[row][column] ^= 1 << power
        return PolyMatrix(tuple(map(tuple, rows)))

    @property
    def boundaries(self) -> dict[int, PolyMatrix]:
        return {k: self.boundary(k) for k in self.degrees}


@dataclass(frozen=True)
class HomologyReport:
    """Free rank and torsion of H(C/U) over F2[V] (or the U/V mirror).

    The homology contract holds when the free part has total rank one and
    its generator sits in grading zero.
    """

    killed: str
    free_rank_total: int
    free_generator_grading: int | None
    torsion_orders: tuple[tuple[int, tuple[int, ...]], ...]
    verdict: bool


def quotient_complex(complex: BasedComplex, kill: str) -> QuotientChain:
    """Set U = 0 (kill="U") or V = 0 (kill="V") and group the surviving
    arrows by the preserved grading of their source."""
    if kill not in ("U", "V"):
        raise ConstructionError(f"kill must be 'U' or 'V', not {kill!r}")

    def degree(g: Generator) -> int:
        return g.grading.gu if kill == "U" else g.grading.gv

    buckets: dict[int, list[int]] = {}
    for g in complex.generators:
        buckets.setdefault(degree(g), []).append(g.gid)
    degrees = tuple(sorted(buckets))
    gens = {k: tuple(v) for k, v in buckets.items()}
    index = {
        gid: (k, i) for k, ids in gens.items() for i, gid in enumerate(ids)
    }

    blocks: dict[int, list[tuple[int, int, int]]] = {k: [] for k in degrees}
    for a in complex.arrows:
        m = a.monomial
        survives = m.u == 0 if kill == "U" else m.v == 0
        if not survives:
            continue
        power = m.v if kill == "U" else m.u
        k, col = index[a.source]
        k_target, row = index[a.target]
        if k_target != k - 1:
            raise ConstructionError(
                f"arrow {a} does not lower the preserved grading by one; "
                "run the degree check first"
            )
        blocks[k].append((row, col, power))

    arrows = {k: tuple(block) for k, block in blocks.items()}
    return QuotientChain(kill, degrees, gens, arrows)


def homology_report(chain: QuotientChain) -> HomologyReport:
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for k in chain.degrees:
        block = chain.arrows[k]
        powers = [power for _, _, power in block]
        rows = {row for row, _, _ in block}
        columns = {column for _, column, _ in block}
        # With no two arrows at one end the block is its own Smith form, so
        # its invariant factors are t^power for each arrow; else eliminate.
        if not len(rows) == len(columns) == len(block):
            degree = max(powers)
            if degree > ELIMINATION_DEGREE_BOUND:
                raise SearchBudgetError(
                    f"a block of degree {degree} is over the elimination bound of "
                    f"{ELIMINATION_DEGREE_BOUND}"
                )
            diagonal = smith_normal_form(chain.boundary(k))[1].diagonal()
            powers = [pdeg(d) for d in diagonal if d]
        ranks[k] = len(powers)
        orders = tuple(sorted(p for p in powers if p > 0))
        if orders:
            # Nontrivial invariant factors of the incoming boundary are the
            # torsion of the homology one degree down.
            torsion[k - 1] = orders

    free_total = 0
    free_grading = None
    for k in chain.degrees:
        dim = len(chain.generators[k])
        incoming = ranks.get(k + 1, 0)
        free_here = dim - ranks[k] - incoming
        if free_here:
            free_total += free_here
            free_grading = k
    if free_total != 1:
        free_grading = None
    verdict = free_total == 1 and free_grading == 0
    return HomologyReport(
        chain.killed,
        free_total,
        free_grading,
        tuple(sorted(torsion.items())),
        verdict,
    )


def check_correct_homology(
    complex: BasedComplex,
) -> tuple[HomologyReport, HomologyReport]:
    """Reports for the U-killed and V-killed quotients, in that order."""
    return (
        homology_report(quotient_complex(complex, "U")),
        homology_report(quotient_complex(complex, "V")),
    )


def has_correct_homology(complex: BasedComplex) -> bool:
    u_side, v_side = check_correct_homology(complex)
    return u_side.verdict and v_side.verdict


def conjugate(complex: BasedComplex) -> BasedComplex:
    """The same complex with the roles of U and V interchanged."""
    gens = tuple(
        Generator(g.gid, g.name, g.grading.swapped()) for g in complex.generators
    )
    swap = {
        a: Arrow(a.source, Monomial(a.monomial.v, a.monomial.u), a.target)
        for a in complex.arrows
    }
    colors = {swap[a]: c for a, c in complex.colors.items()}
    return BasedComplex(complex.ring, gens, frozenset(swap.values()), colors)


def find_based_isomorphism(
    first: BasedComplex, second: BasedComplex
) -> dict[int, int] | None:
    """A generator bijection matching gradings and the full arrow set, sorted
    by key, or None.

    Colour refinement and individualization (McKay & Piperno, "Practical
    graph isomorphism, II", J. Symb. Comput. 60, 2014) on both complexes at
    once. Raises SearchBudgetError after ``SEARCH_BUDGET`` individualizations.
    """
    n = len(first.generators)
    if n != len(second.generators) or len(first.arrows) != len(second.arrows):
        return None
    # Vertex v < n is first's generator v, and v >= n is second's v - n.
    colour = [
        (g.grading.gu, g.grading.gv) for c in (first, second) for g in c.generators
    ]
    if sorted(colour[:n]) != sorted(colour[n:]):
        return None
    links: list[list[tuple[tuple[int, Monomial], int]]] = [[] for _ in colour]
    for base, complex in ((0, first), (n, second)):
        for s, m, t in complex.arrows:
            links[base + s].append(((0, m), base + t))
            links[base + t].append(((1, m), base + s))

    # A branch individualizes a and b (a < 0: none) in its parent's colouring.
    stack = [(colour, -1, -1)]
    budget = SEARCH_BUDGET
    while stack:
        colour, a, b = stack.pop()
        if a >= 0:
            if not budget:
                raise SearchBudgetError(
                    f"isomorphism search gave up after {SEARCH_BUDGET} individualizations"
                )
            budget -= 1
            colour = list(colour)
            colour[a] = colour[b] = max(colour) + 1
        colour = _refine(links, n, colour)
        if colour is None:
            continue
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        tied = [cell for cell in cells.values() if len(cell) > 2]
        if tied:
            # A cell lists its first-complex half first, both in id order.
            cell = min(tied, key=len)
            stack += [(colour, cell[0], b) for b in reversed(cell[len(cell) // 2 :])]
            continue
        image = dict(sorted((x, y - n) for x, y in cells.values()))
        if {Arrow(image[s], m, image[t]) for s, m, t in first.arrows} == second.arrows:
            return image
    return None


def _refine(links, n, colour):
    """Split each colour class by the sorted (arrow kind, neighbour colour)
    signatures of its members until no class splits. Colours are renumbered
    in signature order, so both complexes name them alike. None as soon as a
    class holds unequal numbers of vertices from the two complexes."""
    count = len(set(colour))
    while True:
        keys = [
            (c, tuple(sorted([(kind, colour[w]) for kind, w in adjacent])))
            for c, adjacent in zip(colour, links)
        ]
        names = {key: i for i, key in enumerate(sorted(set(keys)))}
        colour = [names[key] for key in keys]
        balance = [0] * len(names)
        for v, c in enumerate(colour):
            balance[c] += 1 if v < n else -1
        if any(balance):
            return None
        if len(names) == count:
            return colour
        count = len(names)


def check_symmetry(complex: BasedComplex) -> dict[int, int] | None:
    """Search for a based isomorphism onto the U/V-interchanged complex;
    returns the witness bijection or None."""
    return find_based_isomorphism(complex, conjugate(complex))
