"""Exact oracle for liftability to the level-2 ring, by F2 linear algebra.

The degree equation leaves finitely many diagonal arrows that could be added
to a based complex; over the level-2 ring only those with a unit exponent
matter. Adding a set S of them to d gives (d + S)^2 = d^2 + (dS + Sd) + S^2.
A product of two candidates has both exponents >= 2, so S^2 vanishes, and
dS + Sd sums each candidate's paths through base arrows. Each candidate thus
toggles a fixed set of d^2 terms, and S lifts the complex exactly when the
XOR of its candidates' term masks is the mask of d^2: a linear system over
F2, solved by Gaussian elimination.

The solutions are one witness plus the kernel. A candidate is in every
solution iff the witness holds it and no kernel vector does, since adding
such a vector would drop it. Elimination leaves one kernel basis vector per
dependent candidate, and a candidate lies in some kernel vector iff it lies
in some basis vector, so the forced arrows are the witness bits that no
basis vector touches.

Candidates come from two grading buckets, not from every pair. An arrow
x -> U^a V^b y is legal iff gr(y) - gr(x) = (2a - 1, 2b - 1). With a = 1,
gr_U(y) = gr_U(x) + 1 and gr_V(y) - gr_V(x) is odd and positive; with b = 1,
gr_V(y) = gr_V(x) + 1 and gr_U(y) - gr_U(x) is odd and at least 3, so that
a = b = 1 is found only once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import Arrow, BasedComplex, Monomial, Term, differential_square


def candidate_arrows(complex: BasedComplex) -> tuple[Arrow, ...]:
    """Every absent diagonal arrow with a unit exponent that the degree
    equation permits, found in the two grading buckets described above."""
    gens = complex.generators
    by_u: dict[int, list[int]] = {}
    by_v: dict[int, list[int]] = {}
    for i, g in enumerate(gens):
        by_u.setdefault(g.grading.gu, []).append(i)
        by_v.setdefault(g.grading.gv, []).append(i)
    found = set()
    for x, g in enumerate(gens):
        gu, gv = g.grading.gu, g.grading.gv
        for y in by_u.get(gu + 1, ()):
            dv = gens[y].grading.gv - gv
            if dv > 0 and dv % 2:
                found.add(Arrow(x, Monomial.of(1, (dv + 1) // 2), y))
        for y in by_v.get(gv + 1, ()):
            du = gens[y].grading.gu - gu
            if du >= 3 and du % 2:
                found.add(Arrow(x, Monomial.of((du + 1) // 2, 1), y))
    return tuple(sorted(found.difference(complex.arrows)))


@dataclass(frozen=True)
class OracleResult:
    """``witness`` is one candidate subset that makes d^2 vanish over the
    level-2 ring, or None when there is none; ``forced`` holds the
    candidates present in every such subset (empty when there is none)."""

    candidates: tuple[Arrow, ...]
    forced: frozenset[Arrow]
    witness: frozenset[Arrow] | None

    @property
    def realizable(self) -> bool:
        return self.witness is not None


def _reduce(pivots: dict[int, tuple[int, int]], mask: int, subset: int) -> tuple[int, int]:
    """Clear ``mask``'s lowest bits against the pivot rows, keyed by their
    lowest bit, toggling in the candidate subsets that made those rows."""
    while mask:
        row = pivots.get(mask & -mask)
        if row is None:
            break
        mask ^= row[0]
        subset ^= row[1]
    return mask, subset


def oracle_decide(complex: BasedComplex) -> OracleResult:
    """Decide whether some set of candidate arrows makes ``complex`` a chain
    complex over the level-2 ring whose mod-UV reduction is the input."""
    candidates = candidate_arrows(complex)

    # One bit per term: d^2's terms first, in their order, then each new
    # term a candidate's paths reach, as it turns up.
    bits: dict[Term, int] = {t: 1 << i for i, t in enumerate(differential_square(complex))}
    base_mask = (1 << len(bits)) - 1

    out = complex.outgoing
    inc = complex.incoming
    pivots: dict[int, tuple[int, int]] = {}
    in_kernel = 0
    for i, cand in enumerate(candidates):
        # Candidate-candidate compositions have both exponents >= 2 and die
        # over the level-2 ring, so only paths through base arrows count.
        delta = 0
        for a in out.get(cand.target, ()):
            m = cand.monomial * a.monomial
            if not m.is_zero_in(complex.ring):
                delta ^= bits.setdefault((cand.source, m, a.target), 1 << len(bits))
        for a in inc.get(cand.source, ()):
            m = a.monomial * cand.monomial
            if not m.is_zero_in(complex.ring):
                delta ^= bits.setdefault((a.source, m, cand.target), 1 << len(bits))
        delta, subset = _reduce(pivots, delta, 1 << i)
        if delta:
            pivots[delta & -delta] = (delta, subset)
        else:
            in_kernel |= subset

    rest, solution = _reduce(pivots, base_mask, 0)
    if rest:
        return OracleResult(candidates, frozenset(), None)

    def arrows_of(mask: int) -> frozenset[Arrow]:
        return frozenset(a for i, a in enumerate(candidates) if mask >> i & 1)

    return OracleResult(candidates, arrows_of(solution & ~in_kernel), arrows_of(solution))
