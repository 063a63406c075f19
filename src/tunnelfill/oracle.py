"""Exhaustive small-instance oracle for liftability to the level-2 ring.

The degree equation leaves only finitely many diagonal arrows that could
ever be added to a based complex, and over the level-2 ring only those with
a unit exponent matter (anything with both exponents >= 2 is zero there).
Products of two such candidates are likewise zero, so each candidate
contributes a fixed, independent toggle to d^2 and the search over arrow
subsets reduces to XORs of precomputed bit masks, walked in Gray-code order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import OracleTooLargeError
from .rings import Arrow, BasedComplex, differential_square
from .standard import candidate_monomial

DEFAULT_CAP = 20


def candidate_arrows(complex: BasedComplex) -> tuple[Arrow, ...]:
    """Every absent diagonal arrow with a unit exponent that the degree
    equation permits between some ordered pair of generators."""
    found = []
    count = len(complex.generators)
    for x in range(count):
        for y in range(count):
            if x == y:
                continue
            m = candidate_monomial(complex, x, y)
            if m is None or m.min_exp != 1:
                continue
            arrow = Arrow(x, m, y)
            if arrow not in complex.arrows:
                found.append(arrow)
    return tuple(sorted(found))


@dataclass(frozen=True)
class OracleResult:
    realizable: bool
    candidates: tuple[Arrow, ...]
    witness_masks: tuple[int, ...]

    def witnesses(self) -> Iterator[frozenset[Arrow]]:
        """All candidate subsets that make d^2 vanish over the level-2 ring."""
        for mask in self.witness_masks:
            yield frozenset(
                a for i, a in enumerate(self.candidates) if mask >> i & 1
            )

    def witness_intersection(self) -> frozenset[Arrow]:
        """Arrows present in every witness (defined only when realizable)."""
        if not self.witness_masks:
            raise ValueError("no witnesses; the complex is not realizable")
        common = self.witness_masks[0]
        for mask in self.witness_masks[1:]:
            common &= mask
        return frozenset(a for i, a in enumerate(self.candidates) if common >> i & 1)


def oracle_decide(complex: BasedComplex, cap: int = DEFAULT_CAP) -> OracleResult:
    """Search all subsets of candidate arrows for chain complexes over the
    level-2 ring whose mod-UV reduction is the input.

    Raises OracleTooLargeError when there are more than ``cap`` candidates.
    """
    candidates = candidate_arrows(complex)
    if len(candidates) > cap:
        raise OracleTooLargeError(
            f"{len(candidates)} candidate arrows exceed the cap of {cap}"
        )

    term_bits: dict[tuple[int, object, int], int] = {}

    def bit_of(term) -> int:
        if term not in term_bits:
            term_bits[term] = 1 << len(term_bits)
        return term_bits[term]

    base_mask = 0
    for x, terms in differential_square(complex).items():
        for (y, mono), _ in terms.items():
            base_mask ^= bit_of((x, mono, y))

    out = complex.outgoing
    inc = complex.incoming
    deltas = []
    for cand in candidates:
        # Candidate-candidate compositions have both exponents >= 2 and die
        # over the level-2 ring, so only paths through base arrows count.
        delta = 0
        for a in out.get(cand.target, ()):
            m = cand.monomial * a.monomial
            if not m.is_zero_in(complex.ring):
                delta ^= bit_of((cand.source, m, a.target))
        for a in inc.get(cand.source, ()):
            m = a.monomial * cand.monomial
            if not m.is_zero_in(complex.ring):
                delta ^= bit_of((a.source, m, cand.target))
        deltas.append(delta)

    witnesses = []
    acc = base_mask
    subset = 0
    if acc == 0:
        witnesses.append(0)
    for step in range(1, 1 << len(candidates)):
        bit = (step & -step).bit_length() - 1
        subset ^= 1 << bit
        acc ^= deltas[bit]
        if acc == 0:
            witnesses.append(subset)
    witnesses.sort()
    return OracleResult(bool(witnesses), candidates, tuple(witnesses))
