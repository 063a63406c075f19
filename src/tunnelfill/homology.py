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
from .rings import BasedComplex

# How many individualizations the symmetry search may make before it gives
# up; each one copies the partition and refines it from the new two-vertex
# cell only.
SEARCH_BUDGET = 1 << 10

# The largest power a block may hold and still be eliminated. It caps the
# powers, not the work: a dense block with small powers can still take
# seconds. No block built from a sign sequence needs it, so only a
# hand-written document can reach this bound.
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

    @property
    def verdict(self) -> bool:
        return self.free_rank_total == 1 and self.free_generator_grading == 0


def quotient_complex(complex: BasedComplex, kill: str) -> QuotientChain:
    """Set U = 0 (kill="U") or V = 0 (kill="V") and group the surviving
    arrows by the preserved grading of their source."""
    if kill not in ("U", "V"):
        raise ConstructionError(f"kill must be 'U' or 'V', not {kill!r}")

    side = 0 if kill == "U" else 1  # the killed exponent's index in (u, v)
    degree = [g.grading.gv if side else g.grading.gu for g in complex.generators]
    buckets: dict[int, list[int]] = {}
    column = []  # each gid's position in its bucket
    for gid, k in enumerate(degree):
        ids = buckets.setdefault(k, [])
        column.append(len(ids))
        ids.append(gid)
    degrees = tuple(sorted(buckets))
    gens = {k: tuple(v) for k, v in buckets.items()}

    blocks: dict[int, list[tuple[int, int, int]]] = {k: [] for k in degrees}
    for a in complex.arrows:
        s, m, t = a
        if m[side]:
            continue
        k = degree[s]
        if degree[t] != k - 1:
            raise ConstructionError(
                f"arrow {a} does not lower the preserved grading by one; "
                "run the degree check first"
            )
        blocks[k].append((column[t], column[s], m[1 - side]))

    arrows = {k: tuple(block) for k, block in blocks.items()}
    return QuotientChain(kill, degrees, gens, arrows)


def homology_report(chain: QuotientChain) -> HomologyReport:
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for k in chain.degrees:
        block = chain.arrows[k]
        if len(block) < 2:
            # No arrow, or one arrow t^power, which is its own Smith form;
            # most blocks of a realization are one or the other.
            ranks[k] = len(block)
            if block and block[0][2]:
                torsion[k - 1] = (block[0][2],)
            continue
        rows, columns, powers = zip(*block)
        # With no two arrows at one end the block is its own Smith form, so
        # its invariant factors are t^power for each arrow; else eliminate.
        if not len(set(rows)) == len(set(columns)) == len(block):
            degree = max(powers)
            if degree > ELIMINATION_DEGREE_BOUND:
                raise SearchBudgetError(
                    f"a block of degree {degree} is over the elimination bound of "
                    f"{ELIMINATION_DEGREE_BOUND}"
                )
            diagonal = smith_normal_form(chain.boundary(k))[1].diagonal()
            powers = [pdeg(d) for d in diagonal if d]
        ranks[k] = len(powers)
        orders = tuple(sorted(filter(None, powers)))  # the powers over 0
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
    return HomologyReport(chain.killed, free_total, free_grading, tuple(sorted(torsion.items())))


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


def check_symmetry(complex: BasedComplex) -> dict[int, int] | None:
    """Search for a based isomorphism onto the U/V-interchanged complex;
    returns the witness bijection or None, reading no arrow when the
    gradings are not swap-symmetric."""
    gradings = [(g.grading.gu, g.grading.gv) for g in complex.generators]
    conjugate = [(v, u) for u, v in gradings]
    if sorted(gradings) != sorted(conjugate):
        return None
    arrows = [(s, u, v, t) for s, (u, v), t in complex.arrows]
    return _isomorphism(gradings, arrows, conjugate, [(s, v, u, t) for s, u, v, t in arrows])


def _isomorphism(gradings1, arrows1, gradings2, arrows2):
    """The bijection, sorted by key, carrying the first complex's gradings
    and (source, u, v, target) arrows onto the second's, or None; the
    caller has checked that the gradings are one multiset.

    Colour refinement and individualization (McKay & Piperno, "Practical
    graph isomorphism, II", J. Symb. Comput. 60, 2014) on both complexes at
    once. Each refinement works from a list of changed cells, as in Paige &
    Tarjan, "Three partition refinement algorithms", SIAM J. Comput. 16(6),
    1987, and Berkholz, Bonsma & Grohe, "Tight lower and upper bounds for
    the complexity of canonical colour refinement", Theory Comput. Syst. 60,
    2017. Raises SearchBudgetError after ``SEARCH_BUDGET`` individualizations.
    """
    n = len(gradings1)
    # Vertex v < n is the first complex's generator v, and v >= n is the
    # second's v - n. A link holds its arrow's kind as seen from the far end.
    links: list[list[tuple[tuple[int, int, int], int]]] = [[] for _ in range(2 * n)]
    for base, arrows in ((0, arrows1), (n, arrows2)):
        for s, u, v, t in arrows:
            links[base + s].append(((1, u, v), base + t))
            links[base + t].append(((0, u, v), base + s))
    names: dict[tuple[int, int], int] = {}
    colour = [names.setdefault(g, len(names)) for g in gradings1 + gradings2]
    targets = set(arrows2)

    # A branch individualizes a and b (a < 0: none) in its parent's colouring.
    stack = [(colour, -1, -1)]
    budget = SEARCH_BUDGET
    while stack:
        colour, a, b = stack.pop()
        colour = list(colour)
        if a < 0:
            pending = list(range(len(names)))
        else:
            if not budget:
                raise SearchBudgetError(
                    f"isomorphism search gave up after {SEARCH_BUDGET} individualizations"
                )
            budget -= 1
            colour[a] = colour[b] = max(colour) + 1
            pending = [colour[a]]
        if not _refine(links, n, colour, pending):
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
        # A refinement that leaves only pairs is discrete and equitable, so
        # the pairing already carries arrows onto arrows, and this check
        # never fails while _refine is right. It stays as the guard that
        # makes a faulty refinement or pruning cost completeness, never
        # soundness.
        if {(image[s], u, v, image[t]) for s, u, v, t in arrows1} == targets:
            return image
    return None


def _refine(links, n, colour, pending) -> bool:
    """Split the cells of ``colour`` (vertex to cell number, numbered from 0
    without gaps) until the members of each cell reach every cell along the
    same multiset of arrow kinds. Each ``pending`` cell in turn splits the
    cells that reach it; of the parts, all but the largest become pending,
    and all of them if the split cell was. False as soon as a part holds
    unequal numbers of vertices from the two complexes."""
    cells: dict[int, set[int]] = {}
    for v, c in enumerate(colour):
        cells.setdefault(c, set()).add(v)
    queued = set(pending)
    while pending:
        splitter = pending.pop()
        queued.discard(splitter)
        reach: dict[int, list[tuple[int, int, int]]] = {}
        for w in cells[splitter]:
            for kind, v in links[w]:
                reach.setdefault(v, []).append(kind)
        touched: dict[int, dict[tuple, list[int]]] = {}
        for v, kinds in reach.items():
            kinds.sort()
            touched.setdefault(colour[v], {}).setdefault(tuple(kinds), []).append(v)
        for c, groups in touched.items():
            members = cells[c]
            parts = list(groups.values())
            if len(parts) == 1 and len(parts[0]) == len(members):
                continue
            # Members the splitter does not reach keep the number c; if there
            # are none, the largest part does.
            for part in parts:
                members.difference_update(part)
            if not members:
                largest = max(parts, key=len)
                parts.remove(largest)
                members.update(largest)
            # The split cell was balanced, so it is once every new part is.
            new = []
            for part in parts:
                if 2 * sum(v < n for v in part) != len(part):
                    return False
                new.append(len(cells))
                cells[new[-1]] = set(part)
                for v in part:
                    colour[v] = new[-1]
            if c not in queued:
                new.append(c)
                new.remove(max(new, key=lambda k: len(cells[k])))
            pending += new
            queued.update(new)
    return True
