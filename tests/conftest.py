"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import functools
import itertools
import json
import random
from typing import Any

import hypothesis
import hypothesis.strategies as st
import pytest

from tunnelfill import f2poly, homology
from tunnelfill import (
    Arrow,
    BasedComplex,
    CensusRow,
    ConstructionError,
    DocumentError,
    ExtendedSignSequence,
    Generator,
    Grading,
    Monomial,
    NotRealizable,
    PartialRealization,
    SearchBudgetError,
    SignSequence,
    TunnelFillError,
    UnknownGeneratorError,
    build_standard,
    realize,
)
from tunnelfill.census import census_sequences
from tunnelfill.f2poly import Poly, PolyMatrix, pdeg, pdivmod, pmod, pmul
from tunnelfill.filler import DecisionOutcome, forced_response, partial_realize
from tunnelfill.homology import HomologyReport, QuotientChain, quotient_complex
from tunnelfill.rings import (
    R1,
    R2,
    RINF,
    RingLevel,
    add_arrows,
    differential_square,
    lift_to,
)
from tunnelfill.serial import RING_NAMES

hypothesis.settings.register_profile(
    "suite", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def snf_calls(monkeypatch):
    """The matrices homology eliminates during the test, seen through its
    smith_normal_form binding."""
    calls = []
    original = homology.smith_normal_form

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(homology, "smith_normal_form", counting)
    return calls


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
    gx = complex.generators[x].grading
    gy = complex.generators[y].grading
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


# Three documents no JSON reading accepts, as file bytes: not UTF-8, nested
# deeper than json's recursion limit, and an integer past Python's digit limit.
UNREADABLE_DOCUMENTS = {
    "not_utf8": b"\xff\xfe",
    "too_deep": b"[" * 200_000 + b"]" * 200_000,
    "long_integer": (
        b'{"ring": "Rinf", "generators": [{"name": "x", "gr": [' + b"9" * 5000
        + b', 0]}], "arrows": []}'
    ),
}

_FIELDS = ["ring", "generators", "arrows", "name", "gr", "from", "to", "u", "v", "color"]
_NAMES = st.sampled_from(["x", "y", "z"])


def json_values():
    """JSON values of dicts, lists, ints of any size, floats, strings and
    bools; dict keys are mostly document field names."""
    return st.recursive(
        st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(_FIELDS) | st.text(), inner, max_size=5),
        max_leaves=20,
    )


def near_documents():
    """Values shaped like complex documents, with any entry free to be any
    JSON value, so that ``parse`` runs deep and sometimes succeeds."""
    anything = json_values()
    count = st.integers(-3, 3) | anything
    generator = st.fixed_dictionaries(
        {"name": _NAMES | anything, "gr": st.lists(count, min_size=2, max_size=2) | anything}
    )
    arrow = st.fixed_dictionaries(
        {"from": _NAMES | anything, "to": _NAMES | anything, "u": count, "v": count},
        optional={"color": st.text() | anything},
    )
    return st.fixed_dictionaries(
        {
            "ring": st.sampled_from(["R1", "R2", "Rinf"]) | anything,
            "generators": st.lists(generator | anything, max_size=4),
            "arrows": st.lists(arrow | anything, max_size=4),
        }
    )


# The reference for standard.build_extended: the construction it replaced,
# which builds the body with build_standard, recomputes the two ends and
# every arrow, and checks the result with make_complex.
def _chain_arrow(position: int, a: int, lo: int, hi: int) -> Arrow:
    """The arrow of entry ``a`` at chain ``position``, between the ids of
    x_{position-1} (``lo``) and x_position (``hi``): horizontal at odd
    positions, vertical at even ones, pointing down the chain when a > 0."""
    length = abs(a)
    mono = Monomial.of(length, 0) if position % 2 else Monomial.of(0, length)
    return Arrow(hi, mono, lo) if a > 0 else Arrow(lo, mono, hi)


def reference_build_extended(ext: ExtendedSignSequence) -> BasedComplex:
    """The extended standard complex, with generators x_-1 .. x_2n+1.

    The body keeps the gradings of ``build_standard(ext.body)``; the two end
    generators get the gradings forced by the degree equation.
    """
    body = build_standard(ext.body)
    two_n = len(ext.body.entries)

    # End gradings, forced by the head and tail arrows.
    g0 = body.generators[0].grading
    n1 = abs(ext.head)
    if ext.head > 0:
        # x_0 -> V^{n1} x_-1
        g_head = g0.shifted(-1, 2 * n1 - 1)
    else:
        g_head = g0.shifted(1, -(2 * n1 - 1))
    g_last = body.generators[two_n].grading
    n2 = abs(ext.tail)
    if ext.tail > 0:
        # x_2n+1 -> U^{n2} x_2n
        g_tail = g_last.shifted(-(2 * n2 - 1), 1)
    else:
        g_tail = g_last.shifted(2 * n2 - 1, -1)

    gradings = [g_head] + [body.generators[i].grading for i in range(two_n + 1)] + [g_tail]
    names = [f"x{k}" for k in range(-1, two_n + 2)]
    gens = tuple(Generator(nm, gr) for nm, gr in zip(names, gradings))
    # Subscript k in -1..2n+1 lives at generator id k + 1, so the entry at
    # chain position p joins ids p and p + 1.
    arrows = [_chain_arrow(p, a, p, p + 1) for p, a in enumerate(ext.entries)]
    complex = make_complex(R1, gens, arrows)
    complex.__dict__["links"] = tuple(arrows)
    return complex


def id_of(complex: BasedComplex, name: str) -> int:
    for gid, g in enumerate(complex.generators):
        if g.name == name:
            return gid
    raise UnknownGeneratorError(f"no generator named {name!r}")


def arrow_by_names(complex: BasedComplex, source: str, u: int, v: int, target: str):
    return Arrow(id_of(complex, source), Monomial(u, v), id_of(complex, target))


class InvalidReductionError(TunnelFillError):
    """Attempted to reduce to a ring level above the current one."""


def reduce_to(complex: BasedComplex, target: RingLevel) -> BasedComplex:
    """Pass to a smaller quotient, deleting arrows that die there."""
    if complex.ring < target:
        raise InvalidReductionError(
            f"cannot reduce {complex.ring} to the larger ring {target}"
        )
    kept = frozenset(a for a in complex.arrows if not a.monomial.is_zero_in(target))
    colors = {a: c for a, c in complex.colors.items() if a in kept}
    return BasedComplex(target, complex.generators, kept, colors)


def is_diagonal(mono: Monomial) -> bool:
    return mono.u > 0 and mono.v > 0


def is_horizontal(mono: Monomial) -> bool:
    return mono.v == 0 and mono.u > 0


def is_vertical(mono: Monomial) -> bool:
    return mono.u == 0 and mono.v > 0


def all_paths(complex: BasedComplex) -> dict[tuple, list[tuple[Arrow, Arrow]]]:
    """Every two-arrow path, by (source, monomial, target), with no
    cancellation and no reduction: the brute-force reference walk."""
    by_source = {}
    for a in complex.arrows:
        by_source.setdefault(a.source, []).append(a)
    paths = {}
    for first in complex.arrows:
        for second in by_source.get(first.target, ()):
            cause = (first.source, first.monomial * second.monomial, second.target)
            paths.setdefault(cause, []).append((first, second))
    return paths


def one_arrow_at_a_time(chain: BasedComplex, rng: random.Random) -> DecisionOutcome:
    """The reference for ``partial_realize``'s order independence: lift
    ``chain`` to R2, then, while d^2 is not zero, take one of the verifier's
    d^2 terms at random, find its one two-arrow path by walking ``outgoing``,
    and add the single arrow ``forced_response`` gives for it. Stops at the
    first obstruction. Shares no path table with the filler."""
    current = lift_to(chain, R2)
    events = []
    while square := differential_square(current):
        cause = x, m, y = rng.choice(square)
        out = current.outgoing
        paths = [
            (first, second)
            for first in out.get(x, ())
            for second in out.get(first.target, ())
            if second.target == y and first.monomial * second.monomial == m
        ]
        assert len(paths) == 1, (cause, paths)
        response = forced_response(chain.links, cause, paths[0])
        if isinstance(response, list):
            return NotRealizable(tuple(response), current)
        assert response.added not in current.arrows, response
        events.append(response)
        current = add_arrows(current, [response.added], color="added")
    return PartialRealization(current, tuple(events))


def added_arrows(outcome: PartialRealization) -> frozenset[Arrow]:
    return frozenset(e.added for e in outcome.added)


def row_from_outcome(seq: SignSequence) -> CensusRow:
    """The reference for ``census.decide_row``: the census row read off
    ``partial_realize(build_standard(seq))``, with generator names taken from
    the built complex and the arrows added counted off its arrow set."""
    outcome = partial_realize(build_standard(seq))
    if isinstance(outcome, PartialRealization):
        arrows = tuple(e.added for e in outcome.added)
        return CensusRow(seq, len(arrows), None, arrows)
    progress = outcome.partial_progress
    added = len(progress.arrows) - len(seq.entries)
    first = outcome.obstructions[0]
    x, mono, y = first.cause
    reason = (
        f"{first.reason} at d2 {progress.generators[x].name} "
        f"term {mono} {progress.generators[y].name}"
    )
    return CensusRow(seq, added, reason, ())


def named_arrows(complex: BasedComplex) -> set[tuple[str, int, int, str]]:
    return {
        (
            complex.generators[a.source].name,
            a.monomial.u,
            a.monomial.v,
            complex.generators[a.target].name,
        )
        for a in complex.arrows
    }


def undirected_components(complex: BasedComplex) -> list[set[int]]:
    adjacency = {gid: set() for gid in range(len(complex.generators))}
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
    gens = tuple(complex.generators[g] for g in ids)
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
        Generator(f"b_{g.name}", g.grading) for g in second.generators
    ]
    arrows = list(first.arrows) + [
        Arrow(offset + a.source, a.monomial, offset + a.target) for a in second.arrows
    ]
    return make_complex(first.ring, gens, arrows)


def matmul(left: PolyMatrix, right: PolyMatrix) -> PolyMatrix:
    if left.ncols != right.nrows:
        raise ValueError("dimension mismatch")
    rows = []
    for i in range(left.nrows):
        row = []
        for j in range(right.ncols):
            acc = 0
            for k in range(left.ncols):
                acc ^= pmul(left.rows[i][k], right.rows[k][j])
            row.append(acc)
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


def product(*factors: PolyMatrix) -> PolyMatrix:
    """The product of the factors, multiplied left to right."""
    return functools.reduce(matmul, factors)


def is_diagonal_matrix(m: PolyMatrix) -> bool:
    return all(
        m.rows[i][j] == 0 for i in range(m.nrows) for j in range(m.ncols) if i != j
    )


def pdivides(a: Poly, b: Poly) -> bool:
    """Whether a divides b (everything divides 0)."""
    if b == 0:
        return True
    if a == 0:
        return False
    return pmod(b, a) == 0


def pdet(m: PolyMatrix) -> Poly:
    """Determinant of a square matrix by fraction-free elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    a = [list(r) for r in m.rows]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pmul(a[i][j], a[k][k]) ^ pmul(a[i][k], a[k][j])
                q, r = pdivmod(num, prev)
                assert r == 0, "fraction-free elimination left a remainder"
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return a[n - 1][n - 1]


def criterion_9_matrices() -> list[tuple[tuple[int, ...], ...]]:
    """The 500 matrices of acceptance criterion 9, as tuples of rows."""
    rng = random.Random(90125)
    matrices = []
    for _ in range(500):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        matrices.append(
            tuple(tuple(rng.randrange(16) for _ in range(ncols)) for _ in range(nrows))
        )
    return matrices


def eliminated_reports(complex: BasedComplex) -> tuple[HomologyReport, ...]:
    """The U-killed and V-killed reports of check_correct_homology, with
    every block of ``quotient_complex(...).boundaries`` eliminated by
    f2poly.smith_normal_form and none read off."""
    reports = []
    for kill in ("U", "V"):
        chain = quotient_complex(complex, kill)
        ranks, torsion = {}, {}
        for k, block in chain.boundaries.items():
            factors = [d for d in f2poly.smith_normal_form(block)[1].diagonal() if d]
            ranks[k] = len(factors)
            orders = sorted(pdeg(d) for d in factors if pdeg(d) > 0)
            if orders:
                torsion[k - 1] = tuple(orders)
        free = {
            k: len(chain.generators[k]) - ranks[k] - ranks.get(k + 1, 0)
            for k in chain.degrees
        }
        free = {k: rank for k, rank in free.items() if rank}
        total = sum(free.values())
        grading = max(free) if total == 1 else None
        reports.append(
            HomologyReport(kill, total, grading, tuple(sorted(torsion.items())))
        )
    return tuple(reports)


@functools.cache
def census_realizations():
    """The realizations of the n <= 2, |a| <= 3 census's realizable rows."""
    realized = (realize(seq) for seq in census_sequences(2, 3))
    return tuple(glued for glued in realized if isinstance(glued, BasedComplex))


def dense_document(matrix) -> str:
    """A document whose C/U quotient is the single block t*matrix: entry
    (i, j) = t*p(t) becomes one arrow c_j -> V^v r_i per term t^v, so an
    entry that is not a power of t becomes several arrows at one end."""
    generators = [{"name": f"r{i}", "gr": [0, 1]} for i in range(len(matrix))]
    generators += [{"name": f"c{j}", "gr": [1, 0]} for j in range(len(matrix[0]))]
    arrows = [
        {"from": f"c{j}", "to": f"r{i}", "u": 0, "v": v}
        for i, row in enumerate(matrix)
        for j, entry in enumerate(row)
        for v in range(1, entry.bit_length() + 1)
        if (entry << 1) >> v & 1
    ]
    return json.dumps({"ring": "Rinf", "generators": generators, "arrows": arrows})


def to_document(complex: BasedComplex, include_colors: bool = False) -> dict[str, Any]:
    """The plain-JSON shape of a complex; colors only when requested."""
    if complex.ring not in RING_NAMES:
        raise DocumentError(f"no document name for ring level {complex.ring}")
    generators = [
        {"name": g.name, "gr": [g.grading.gu, g.grading.gv]}
        for g in complex.generators
    ]
    arrows = []
    for a in sorted(complex.arrows):
        entry: dict[str, Any] = {
            "from": complex.generators[a.source].name,
            "to": complex.generators[a.target].name,
            "u": a.monomial.u,
            "v": a.monomial.v,
        }
        if include_colors:
            color = complex.colors.get(a)
            if color is not None:
                entry["color"] = color
        arrows.append(entry)
    return {"ring": RING_NAMES[complex.ring], "generators": generators, "arrows": arrows}


def reference_serialize(complex: BasedComplex, include_colors: bool = False) -> str:
    """The text ``serialize`` must write, byte for byte: json's own indent=2."""
    return json.dumps(to_document(complex, include_colors), indent=2) + "\n"


def long_symmetric_sequence() -> SignSequence:
    """768 entries: (-1,1,2,-1,1,3)*64 then its negated mirror. Its
    realization has 1,541 generators, too many for a symmetry search that
    recurses once per generator."""
    half = (-1, 1, 2, -1, 1, 3) * 64
    return SignSequence(half + tuple(-a for a in reversed(half)))


def layered_probe(h: int, seed: int) -> BasedComplex:
    """An R2 complex with d^2 = 0 that passes the degree check: h generators
    at each of (0,0), (3,1), (1,3) and (4,4), with arrows top -> U^2V (3,1),
    top -> UV^2 (1,3), (3,1) -> UV^2 bottom and (1,3) -> U^2V bottom. Each
    block is the union of two random perfect matchings that share no pair,
    so every generator has two arrows in each of its blocks and the
    generators of a layer look alike."""
    rng = random.Random(seed)
    layers = [(0, 0), (3, 1), (1, 3), (4, 4)]
    gens = tuple(
        Generator(f"g{i}", Grading(*layers[i // h])) for i in range(4 * h)
    )
    blocks = [(0, 1, Monomial(2, 1)), (0, 2, Monomial(1, 2)),
              (1, 3, Monomial(1, 2)), (2, 3, Monomial(2, 1))]
    arrows = set()
    for source, target, mono in blocks:
        first = rng.sample(range(h), h)
        second = first
        while any(map(int.__eq__, first, second)):
            second = rng.sample(range(h), h)
        for match in (first, second):
            arrows |= {
                Arrow(source * h + i, mono, target * h + j) for i, j in enumerate(match)
            }
    return make_complex(R2, gens, arrows)


def random_small_complex(rng: random.Random, count: int) -> BasedComplex:
    """``count`` generators on few gradings with arrows of few monomials, so
    that many generators look alike; no degree or d^2 condition."""
    gens = tuple(
        Generator(f"g{i}", Grading(rng.randint(0, 1), rng.randint(0, 2)))
        for i in range(count)
    )
    monos = [Monomial(1, 0), Monomial(0, 1), Monomial(1, 1)]
    pairs = [(x, y) for x in range(count) for y in range(count) if x != y]
    arrows = {
        Arrow(x, rng.choice(monos), y)
        for x, y in rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * count)))
    }
    return make_complex(RINF, gens, arrows)


def relabelled(complex: BasedComplex, order: list[int], du: int = 0, dv: int = 0):
    """The same complex with generator ``order[i]`` moved to id i, renamed,
    and every grading shifted by (du, dv)."""
    new_id = {old: i for i, old in enumerate(order)}
    gens = tuple(
        Generator(f"h{i}", complex.generators[old].grading.shifted(du, dv))
        for i, old in enumerate(order)
    )
    arrows = [Arrow(new_id[a.source], a.monomial, new_id[a.target]) for a in complex.arrows]
    return make_complex(complex.ring, gens, arrows)


def translated_onto(complex: BasedComplex, other: BasedComplex) -> BasedComplex:
    """``complex`` with every grading moved by the one offset that takes its
    least grading onto the least of ``other``. A translation keeps the
    lexicographic order, so that is the only offset a bijection of gradings
    up to one global shift can use; unchanged when either is empty."""
    if not complex.generators or not other.generators:
        return complex
    low = min(g.grading for g in complex.generators)
    target = min(g.grading for g in other.generators)
    du, dv = target.gu - low.gu, target.gv - low.gv
    gens = tuple(
        Generator(g.name, g.grading.shifted(du, dv)) for g in complex.generators
    )
    return BasedComplex(complex.ring, gens, complex.arrows, complex.colors)


def find_based_isomorphism(
    first: BasedComplex, second: BasedComplex
) -> dict[int, int] | None:
    """A generator bijection matching gradings and the full arrow set, sorted
    by key, or None: ``homology._isomorphism`` after the test it needs, that
    the gradings are one multiset (and, as a shortcut, the arrows as many)."""
    gradings1 = [(g.grading.gu, g.grading.gv) for g in first.generators]
    gradings2 = [(g.grading.gu, g.grading.gv) for g in second.generators]
    if len(first.arrows) != len(second.arrows) or sorted(gradings1) != sorted(gradings2):
        return None
    arrows1 = [(s, u, v, t) for s, (u, v), t in first.arrows]
    arrows2 = [(s, u, v, t) for s, (u, v), t in second.arrows]
    return homology._isomorphism(gradings1, arrows1, gradings2, arrows2)


def isomorphism_by_permutations(
    first: BasedComplex, second: BasedComplex, allow_grading_shift: bool = False
) -> dict[int, int] | None:
    """The first bijection, in permutation order, that carries gradings to
    gradings (up to one offset when allowed) and the arrow set onto the
    other's; the exhaustive reference for ``find_based_isomorphism``."""
    count = len(first.generators)
    assert count <= 7, "n! bijections"
    if count != len(second.generators):
        return None
    grades1 = [(g.grading.gu, g.grading.gv) for g in first.generators]
    grades2 = [(g.grading.gu, g.grading.gv) for g in second.generators]
    for images in itertools.permutations(range(count)):
        # Most bijections break the gradings; skip those before the full check.
        du = grades2[images[0]][0] - grades1[0][0] if count else 0
        dv = grades2[images[0]][1] - grades1[0][1] if count else 0
        if any(grades2[y] != (gu + du, gv + dv) for (gu, gv), y in zip(grades1, images)):
            continue
        mapping = dict(enumerate(images))
        if is_based_isomorphism(first, second, mapping, allow_grading_shift):
            return mapping
    return None


def is_based_isomorphism(
    first: BasedComplex,
    second: BasedComplex,
    mapping: dict[int, int],
    allow_grading_shift: bool = False,
) -> bool:
    """Whether ``mapping`` is a bijection of generator ids that shifts every
    grading by one offset (zero unless allowed) and maps the arrow set of
    ``first`` exactly onto that of ``second``."""
    count = len(first.generators)
    if sorted(mapping) != list(range(count)):
        return False
    if sorted(mapping.values()) != list(range(len(second.generators))):
        return False
    gens1, gens2 = first.generators, second.generators
    offsets = {
        (
            gens2[y].grading.gu - gens1[x].grading.gu,
            gens2[y].grading.gv - gens1[x].grading.gv,
        )
        for x, y in mapping.items()
    }
    if len(offsets) > 1 or (not allow_grading_shift and offsets - {(0, 0)}):
        return False
    image = {Arrow(mapping[a.source], a.monomial, mapping[a.target]) for a in first.arrows}
    return image == second.arrows


def conjugate(complex: BasedComplex) -> BasedComplex:
    """The same complex with the roles of U and V interchanged."""
    gens = tuple(
        Generator(g.name, Grading(g.grading.gv, g.grading.gu))
        for g in complex.generators
    )
    swap = {
        a: Arrow(a.source, Monomial(a.monomial.v, a.monomial.u), a.target)
        for a in complex.arrows
    }
    colors = {swap[a]: c for a, c in complex.colors.items()}
    return BasedComplex(complex.ring, gens, frozenset(swap.values()), colors)


def random_degree_valid_complex(rng: random.Random) -> BasedComplex:
    """A complex over the full ring with 1-7 generators, gradings in
    [-3, 3]^2 that are swap-symmetric as a multiset in about 70% of draws,
    and each degree-valid arrow kept with probability 1/2: s -> U^u V^v t
    with gr(t) - 2(u, v) = gr(s) - (1, 1), u, v >= 0 and not both 0. There
    is no d^2 condition."""
    count = rng.randint(1, 7)
    coords = range(-3, 4)
    gradings: list[tuple[int, int]] = []
    if rng.random() < 0.7:
        while len(gradings) < count:
            a, b = rng.choice(coords), rng.choice(coords)
            if a == b:
                gradings.append((a, a))
            elif len(gradings) + 2 <= count:
                gradings += [(a, b), (b, a)]
        rng.shuffle(gradings)
    else:
        gradings = [(rng.choice(coords), rng.choice(coords)) for _ in range(count)]
    arrows = []
    for s, t in itertools.permutations(range(count), 2):
        du, dv = gradings[t][0] - gradings[s][0] + 1, gradings[t][1] - gradings[s][1] + 1
        if du % 2 or dv % 2 or du < 0 or dv < 0 or not (du or dv):
            continue
        if rng.random() < 0.5:
            arrows.append(Arrow(s, Monomial(du // 2, dv // 2), t))
    gens = [Generator(f"g{i}", Grading(*g)) for i, g in enumerate(gradings)]
    return make_complex(RINF, gens, arrows)


def symmetric_by_brute_force(complex: BasedComplex) -> bool:
    """Whether some bijection taking each generator to one of the swapped
    grading carries the arrows onto the conjugate's, trying every such
    bijection class by class."""
    conj = conjugate(complex)
    sources: dict[Grading, list[int]] = {}
    images: dict[Grading, list[int]] = {}
    for i, (g, h) in enumerate(zip(complex.generators, conj.generators)):
        sources.setdefault(g.grading, []).append(i)
        images.setdefault(h.grading, []).append(i)
    if any(len(ids) != len(images.get(g, ())) for g, ids in sources.items()):
        return False
    gradings = list(sources)
    for choice in itertools.product(*(itertools.permutations(images[g]) for g in gradings)):
        mapping = {
            x: y for g, image in zip(gradings, choice) for x, y in zip(sources[g], image)
        }
        if {Arrow(mapping[s], m, mapping[t]) for s, m, t in complex.arrows} == conj.arrows:
            return True
    return False


def dense_square(complex: BasedComplex) -> tuple[tuple[int, Monomial, int], ...]:
    """d^2 as the square of the arrow matrix over F2[U, V], sorted like
    ``differential_square``: entry (s, t) of the matrix is the set of
    exponents of the arrows from s to t, so that a product summed mod 2 is
    a symmetric difference, and each monomial with min(u, v) >= level is
    dropped. Reads the arrow set only, no adjacency index."""
    n = len(complex.generators)
    d = [[set() for _ in range(n)] for _ in range(n)]
    for s, m, t in complex.arrows:
        d[s][t] ^= {(m.u, m.v)}
    terms = []
    for s, t in itertools.product(range(n), repeat=2):
        entry: set[tuple[int, int]] = set()
        for k in range(n):
            for u1, v1 in d[s][k]:
                for u2, v2 in d[k][t]:
                    entry ^= {(u1 + u2, v1 + v2)}
        terms += [
            (s, Monomial(u, v), t) for u, v in entry if min(u, v) < complex.ring.level
        ]
    return tuple(sorted(terms))


def reference_isomorphism(
    first: BasedComplex, second: BasedComplex
) -> dict[int, int] | None:
    """``find_based_isomorphism`` by whole signature rounds: every round
    recomputes every vertex's signature until no colour splits. Same search
    order and budget, so the same verdicts, witnesses and budget errors."""
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
    budget = homology.SEARCH_BUDGET
    while stack:
        colour, a, b = stack.pop()
        if a >= 0:
            if not budget:
                raise SearchBudgetError(
                    f"isomorphism search gave up after {homology.SEARCH_BUDGET} "
                    "individualizations"
                )
            budget -= 1
            colour = list(colour)
            colour[a] = colour[b] = max(colour) + 1
        colour = signature_rounds(links, n, colour)
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


def reference_smith_normal_form(m: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """``f2poly.smith_normal_form`` as it was before it logged its moves:
    every move updates a transform beside the block. Same pivot rule, so
    the same (left, diag, right), with m = left @ diag @ right."""
    nrows, ncols = m.nrows, m.ncols
    a = [list(r) for r in m.rows]
    left = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    right = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    # Elementary moves keep the invariant m = left @ a @ right. Over F2 both
    # swaps and additions are their own inverses, so applying the same move
    # to the transform suffices.
    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(nrows):  # left @ swap: exchange columns i, j
            left[r][i], left[r][j] = left[r][j], left[r][i]

    def swap_cols(i, j):
        for r in range(nrows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        right[i], right[j] = right[j], right[i]

    def add_row(src, dst, q):  # row dst += q * row src
        for c in range(ncols):
            a[dst][c] ^= pmul(q, a[src][c])
        for r in range(nrows):  # left: column src += q * column dst
            left[r][src] ^= pmul(q, left[r][dst])

    def add_col(src, dst, q):  # col dst += q * col src
        for r in range(nrows):
            a[r][dst] ^= pmul(q, a[r][src])
        for c in range(ncols):  # right: row src += q * row dst
            right[src][c] ^= pmul(q, right[dst][c])

    def smallest_nonzero(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] and (best is None or pdeg(a[i][j]) < pdeg(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nrows, ncols):
        pos = smallest_nonzero(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        # Clear the pivot's row and column; a nonzero remainder has smaller
        # degree than the pivot, so re-pick the minimum instead.
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                q, r = pdivmod(a[i][t], a[t][t])
                add_row(t, i, q)
                dirty = dirty or r != 0
        for j in range(t + 1, ncols):
            if a[t][j]:
                q, r = pdivmod(a[t][j], a[t][t])
                add_col(t, j, q)
                dirty = dirty or r != 0
        if dirty:
            continue
        # Pivot must divide the whole remaining block; if not, fold the
        # offending row in, which leaves a remainder for the next pass.
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] and pmod(a[i][j], a[t][t]):
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    return (
        PolyMatrix(tuple(tuple(r) for r in left)),
        PolyMatrix(tuple(tuple(r) for r in a)),
        PolyMatrix(tuple(tuple(r) for r in right)),
    )


def signature_rounds(links, n, colour):
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


# A complex from any generators and arrow list, canonicalized: arrows listed
# an even number of times cancel and arrows dead in the ring are dropped,
# while duplicate names, self-loops, unit monomials and ends that are no id
# raise ConstructionError. The tests build their complexes with it; the
# library builds each of its own with BasedComplex(...), which needs none of
# this.
def make_complex(ring, generators, arrows, colors=None) -> BasedComplex:
    gens = tuple(generators)
    names = set()
    for g in gens:
        if g.name in names:
            raise ConstructionError(f"duplicate generator name {g.name!r}")
        names.add(g.name)

    counts: dict[Arrow, int] = {}
    for a in arrows:
        if not 0 <= a.source < len(gens) or not 0 <= a.target < len(gens):
            raise ConstructionError(f"arrow {a} references an unknown generator")
        if a.source == a.target:
            raise ConstructionError(f"arrow {a} is a self-loop")
        if a.monomial.u == 0 and a.monomial.v == 0:
            raise ConstructionError(f"arrow {a} carries the unit monomial")
        if a.monomial.is_zero_in(ring):
            continue
        counts[a] = counts.get(a, 0) ^ 1
    kept = frozenset(a for a, c in counts.items() if c)

    kept_colors = {a: c for a, c in (colors or {}).items() if a in kept}
    return BasedComplex(ring, gens, kept, kept_colors)


# The references for the arrow loops of rings.degree_violations and
# homology.quotient_complex: the versions they replaced, which read each
# arrow through its attributes and each grading through
# BasedComplex.grading, copied with their bodies unchanged except that they
# take a generator's id from its position.
def reference_arrow_degree_ok(complex: BasedComplex, arrow: Arrow) -> bool:
    # Degree equation for d of degree (-1,-1):
    #   gr(target) - 2*(u, v) == gr(source) + (-1, -1), componentwise.
    gs = complex.generators[arrow.source].grading
    gt = complex.generators[arrow.target].grading
    m = arrow.monomial
    return gt.gu - 2 * m.u == gs.gu - 1 and gt.gv - 2 * m.v == gs.gv - 1


def reference_degree_violations(complex: BasedComplex) -> list[Arrow]:
    return sorted(a for a in complex.arrows if not reference_arrow_degree_ok(complex, a))


def reference_quotient_complex(complex: BasedComplex, kill: str) -> QuotientChain:
    """As ``homology.quotient_complex``, except that an arrow end that is no
    generator id raises a bare KeyError naming it."""
    if kill not in ("U", "V"):
        raise ConstructionError(f"kill must be 'U' or 'V', not {kill!r}")

    def degree(g: Generator) -> int:
        return g.grading.gu if kill == "U" else g.grading.gv

    buckets: dict[int, list[int]] = {}
    for gid, g in enumerate(complex.generators):
        buckets.setdefault(degree(g), []).append(gid)
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
