"""Planar lattice coordinates for a based complex.

Generators sit on an integer grid where the x-axis counts inverse powers of
U and the y-axis inverse powers of V, so an arrow carrying U^a V^b points
a steps left and b steps down. Coordinates are found by breadth-first
traversal and are unique up to translation on a connected complex.

Because the page identifies a generator with its UV-multiples, a generator
may legitimately be reached at two positions differing by a diagonal step
(k, k); the realizations produced by gluing draw their far corner twice
this way. Any non-diagonal disagreement means the complex has no planar
drawing at all and is reported as an error.

``render`` is this module's only caller in the package: ``builder.glue``
reads its places off the extended sequence by ``builder.staircase``.
"""

from __future__ import annotations

from collections import deque

from .errors import RenderError
from .rings import BasedComplex

Position = tuple[int, int]


def lattice_positions(complex: BasedComplex) -> dict[int, Position]:
    """Assign each generator a grid position via pos(target) = pos(source) - (u, v),
    with the first generator at the origin.

    Raises RenderError if the arrow graph is disconnected, or if traversal
    paths disagree on a position by more than a diagonal shift.
    """
    if not complex.generators:
        return {}
    out = complex.outgoing
    inc = complex.incoming
    pos: dict[int, Position] = {0: (0, 0)}
    queue = deque([0])
    while queue:
        g = queue.popleft()
        x, y = pos[g]
        neighbors = []
        # Sorted, so the first path to reach a generator, and with it every
        # position, does not depend on set iteration order.
        for a in sorted(out.get(g, ())):
            neighbors.append((a.target, (x - a.monomial.u, y - a.monomial.v)))
        for a in sorted(inc.get(g, ())):
            sx, sy = x + a.monomial.u, y + a.monomial.v
            neighbors.append((a.source, (sx, sy)))
        for gid, p in neighbors:
            if gid in pos:
                seen = pos[gid]
                if p[0] - seen[0] != p[1] - seen[1]:
                    raise RenderError(
                        f"inconsistent lattice position for generator {gid}: "
                        f"{seen} vs {p}"
                    )
            else:
                pos[gid] = p
                queue.append(gid)
    if len(pos) != len(complex.generators):
        missing = [g.name for gid, g in enumerate(complex.generators) if gid not in pos]
        raise RenderError(f"arrow graph is disconnected; unreachable: {missing}")
    return pos
