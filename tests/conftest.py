"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import hypothesis
import hypothesis.strategies as st

from tunnelfill import (
    Arrow,
    BasedComplex,
    ConstructionError,
    Generator,
    Monomial,
    SignSequence,
    build_standard,
)
from tunnelfill.rings import R2, add_arrows, lift_to, make_complex

hypothesis.settings.register_profile(
    "suite", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


def nonzero_ints(max_abs: int):
    return st.integers(-max_abs, max_abs).filter(lambda a: a != 0)


def sign_sequences(max_n: int = 3, max_abs: int = 3):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*[nonzero_ints(max_abs)] * (2 * n))
    ).map(SignSequence)


def candidate_monomial(complex: BasedComplex, x: int, y: int) -> Monomial | None:
    """The unique monomial a degree-legal arrow x -> y would have to carry,
    or None when no such arrow exists (non-integral or nonpositive exponents).
    The pairwise reference that the oracle's bucketed candidates must match.
    """
    if x == y:
        raise ConstructionError("an arrow needs distinct endpoints")
    gx = complex.grading(x)
    gy = complex.grading(y)
    num_u = gy.gu - gx.gu + 1
    num_v = gy.gv - gx.gv + 1
    if num_u % 2 != 0 or num_v % 2 != 0:
        return None
    a, b = num_u // 2, num_v // 2
    if a <= 0 or b <= 0:
        return None
    return Monomial(a, b)


def pairwise_candidates(complex: BasedComplex) -> tuple[Arrow, ...]:
    """Every ordered pair's candidate monomial with a unit exponent, less the
    arrows already present, sorted: what ``candidate_arrows`` must return."""
    count = len(complex.generators)
    found = []
    for x in range(count):
        for y in range(count):
            if x == y:
                continue
            mono = candidate_monomial(complex, x, y)
            if mono is not None and mono.min_exp == 1:
                arrow = Arrow(x, mono, y)
                if arrow not in complex.arrows:
                    found.append(arrow)
    return tuple(sorted(found))


@st.composite
def based_complexes(draw, max_n: int = 2, max_abs: int = 3):
    """Standard complexes over the level-2 ring with a few extra diagonal
    arrows thrown in; the extras are degree-legal but d^2 may be anything."""
    seq = draw(sign_sequences(max_n, max_abs))
    complex = lift_to(build_standard(seq), R2)
    count = len(complex.generators)
    pairs = [(x, y) for x in range(count) for y in range(count) if x != y]
    extras = []
    for x, y in draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)):
        mono = candidate_monomial(complex, x, y)
        if mono is not None and not mono.is_zero_in(complex.ring):
            arrow = Arrow(x, mono, y)
            if arrow not in complex.arrows:
                extras.append(arrow)
    return add_arrows(complex, extras)


def arrow_by_names(complex: BasedComplex, source: str, u: int, v: int, target: str):
    return Arrow(complex.id_of(source), Monomial(u, v), complex.id_of(target))


def named_arrows(complex: BasedComplex) -> set[tuple[str, int, int, str]]:
    return {
        (
            complex.generator(a.source).name,
            a.monomial.u,
            a.monomial.v,
            complex.generator(a.target).name,
        )
        for a in complex.arrows
    }


def undirected_components(complex: BasedComplex) -> list[set[int]]:
    adjacency = {g.gid: set() for g in complex.generators}
    for a in complex.arrows:
        adjacency[a.source].add(a.target)
        adjacency[a.target].add(a.source)
    seen: set[int] = set()
    components = []
    for gid in adjacency:
        if gid in seen:
            continue
        stack, component = [gid], set()
        while stack:
            v = stack.pop()
            if v in component:
                continue
            component.add(v)
            stack.extend(adjacency[v] - component)
        seen |= component
        components.append(component)
    return components


def subcomplex(complex: BasedComplex, ids) -> BasedComplex:
    ids = sorted(ids)
    remap = {old: i for i, old in enumerate(ids)}
    gens = tuple(
        Generator(remap[g], complex.generator(g).name, complex.grading(g)) for g in ids
    )
    arrows = [
        Arrow(remap[a.source], a.monomial, remap[a.target])
        for a in complex.arrows
        if a.source in remap and a.target in remap
    ]
    return make_complex(complex.ring, gens, arrows)


def disjoint_union(first: BasedComplex, second: BasedComplex) -> BasedComplex:
    assert first.ring == second.ring
    offset = len(first.generators)
    gens = list(first.generators) + [
        Generator(offset + g.gid, f"b_{g.name}", g.grading) for g in second.generators
    ]
    arrows = list(first.arrows) + [
        Arrow(offset + a.source, a.monomial, offset + a.target) for a in second.arrows
    ]
    return make_complex(first.ring, gens, arrows)
