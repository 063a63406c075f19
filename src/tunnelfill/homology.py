"""Independent verification of the homology and symmetry contracts.

Killing U (resp. V) turns a based complex into a complex of free modules
over F2[V] (resp. F2[U]) that splits along gr_U (resp. gr_V), because
multiplication by the surviving variable preserves that grading while the
differential lowers it by exactly one. Each graded piece is a small matrix
over a univariate polynomial ring, where Smith normal form answers every
rank and torsion question exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ConstructionError
from .f2poly import PolyMatrix, pdeg, smith_normal_form
from .rings import Arrow, BasedComplex, Generator, Monomial, make_complex


@dataclass(frozen=True)
class QuotientChain:
    """The boundary matrices of C/U or C/V, indexed by the preserved grading.

    ``boundaries[k]`` maps the degree-k piece to the degree-(k-1) piece;
    rows follow ``generators[k - 1]``, columns follow ``generators[k]``.
    """

    killed: str
    degrees: tuple[int, ...]
    generators: Mapping[int, tuple[int, ...]]
    boundaries: Mapping[int, PolyMatrix]


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
    """Set U = 0 (kill="U") or V = 0 (kill="V") and package the result as
    graded boundary matrices over the surviving polynomial ring."""
    if kill not in ("U", "V"):
        raise ConstructionError(f"kill must be 'U' or 'V', not {kill!r}")

    def degree(g: Generator) -> int:
        return g.grading.gu if kill == "U" else g.grading.gv

    buckets: dict[int, list[int]] = {}
    for g in complex.generators:
        buckets.setdefault(degree(g), []).append(g.gid)
    degrees = tuple(sorted(buckets))
    gens = {k: tuple(sorted(v)) for k, v in buckets.items()}
    index = {
        gid: (k, i) for k, ids in gens.items() for i, gid in enumerate(ids)
    }

    entries: dict[int, list[list[int]]] = {
        k: [
            [0] * len(gens[k])
            for _ in range(len(gens.get(k - 1, ())))
        ]
        for k in degrees
    }
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
        entries[k][row][col] ^= 1 << power

    boundaries = {
        k: PolyMatrix(tuple(tuple(r) for r in rows)) for k, rows in entries.items()
    }
    return QuotientChain(kill, degrees, gens, boundaries)


def homology_report(chain: QuotientChain) -> HomologyReport:
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for k in chain.degrees:
        mat = chain.boundaries[k]
        if mat.nrows == 0 or mat.ncols == 0:
            ranks[k] = 0
            continue
        diag = smith_normal_form(mat)[1].diagonal()
        ranks[k] = sum(1 for d in diag if d)
        orders = tuple(sorted(pdeg(d) for d in diag if d and pdeg(d) > 0))
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
    return make_complex(complex.ring, gens, swap.values(), colors)


def _arrow_profile(complex):
    """Per-generator multiset of (direction, monomial) incidences."""
    prof = {g.gid: [] for g in complex.generators}
    for a in complex.arrows:
        prof[a.source].append(("out", a.monomial))
        prof[a.target].append(("in", a.monomial))
    return {gid: tuple(sorted(v)) for gid, v in prof.items()}


def find_based_isomorphism(
    first: BasedComplex,
    second: BasedComplex,
    allow_grading_shift: bool = False,
) -> dict[int, int] | None:
    """A generator bijection matching gradings and the full arrow set, or
    None. With ``allow_grading_shift`` the gradings may differ by a single
    global offset.
    """
    if len(first.generators) != len(second.generators):
        return None
    if len(first.arrows) != len(second.arrows):
        return None

    prof1 = _arrow_profile(first)
    prof2 = _arrow_profile(second)

    if allow_grading_shift:
        anchor = first.generators[0]
        shifts = []
        for g in second.generators:
            if prof2[g.gid] == prof1[anchor.gid]:
                d = (g.grading.gu - anchor.grading.gu, g.grading.gv - anchor.grading.gv)
                if d not in shifts:
                    shifts.append(d)
    else:
        shifts = [(0, 0)]

    out1 = first.outgoing
    in1 = first.incoming
    for du, dv in shifts:
        def key1(g: Generator):
            return (g.grading.gu + du, g.grading.gv + dv, prof1[g.gid])

        def key2(g: Generator):
            return (g.grading.gu, g.grading.gv, prof2[g.gid])

        buckets: dict[object, list[int]] = {}
        for g in second.generators:
            buckets.setdefault(key2(g), []).append(g.gid)
        if sorted(map(key1, first.generators)) != sorted(map(key2, second.generators)):
            continue

        order = sorted(
            first.generators, key=lambda g: (len(buckets[key1(g)]), g.gid)
        )
        mapping: dict[int, int] = {}
        used: set[int] = set()

        def compatible(gid: int, target: int) -> bool:
            for a in out1.get(gid, ()):
                if a.target in mapping and not _has_arrow(
                    second, target, a.monomial, mapping[a.target]
                ):
                    return False
            for a in in1.get(gid, ()):
                if a.source in mapping and not _has_arrow(
                    second, mapping[a.source], a.monomial, target
                ):
                    return False
            return True

        def extend(i: int) -> bool:
            if i == len(order):
                return _arrow_sets_match(first, second, mapping)
            g = order[i]
            for target in buckets[key1(g)]:
                if target in used:
                    continue
                if not compatible(g.gid, target):
                    continue
                mapping[g.gid] = target
                used.add(target)
                if extend(i + 1):
                    return True
                del mapping[g.gid]
                used.remove(target)
            return False

        if extend(0):
            return dict(mapping)
    return None


def _has_arrow(complex, source, monomial, target) -> bool:
    return Arrow(source, monomial, target) in complex.arrows


def _arrow_sets_match(first, second, mapping) -> bool:
    mapped = {
        Arrow(mapping[a.source], a.monomial, mapping[a.target]) for a in first.arrows
    }
    return mapped == second.arrows


def check_symmetry(complex: BasedComplex) -> dict[int, int] | None:
    """Search for a based isomorphism onto the U/V-interchanged complex;
    returns the witness bijection or None."""
    return find_based_isomorphism(complex, conjugate(complex))
