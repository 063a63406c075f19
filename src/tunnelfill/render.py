"""SVG lattice diagrams in the style of the figures: one dot per generator
on the grid, straight segments for arrows, dashed strokes for arrows the
decision procedure added, and the doubling color scheme when present."""

from __future__ import annotations

from .filler import ADDED_COLOR
from .lattice import lattice_positions
from .rings import BasedComplex

STROKES = {
    "black": "#000000",
    "red": "#cc2222",
    "blue": "#11a0cc",
    "green": "#118833",
    ADDED_COLOR: "#000000",
}

SCALE = 48
MARGIN = 36
DOT_RADIUS = 4


def _escape(text: str) -> str:
    """Escape &, < and > for XML text, as xml.sax.saxutils.escape does; that
    module's import pulls in urllib.request, http.client, email and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(complex: BasedComplex, labels: bool = True) -> str:
    """Lay the complex out on the lattice and emit an SVG document."""
    pos = lattice_positions(complex)
    segments = []
    for arrow in sorted(complex.arrows):
        src = pos[arrow.source]
        # Arrows end at the exact lattice displacement; for an essentially
        # infinite complex this may be a diagonal translate of the target dot.
        end = (src[0] - arrow.monomial.u, src[1] - arrow.monomial.v)
        segments.append((src, end, complex.colors.get(arrow)))

    drawn = list(pos.values()) + [end for _, end, _ in segments] or [(0, 0)]
    min_x = min(p[0] for p in drawn)
    max_x = max(p[0] for p in drawn)
    min_y = min(p[1] for p in drawn)
    max_y = max(p[1] for p in drawn)
    width = (max_x - min_x) * SCALE + 2 * MARGIN
    height = (max_y - min_y) * SCALE + 2 * MARGIN

    def point(p):
        # Lattice rows grow upward; SVG y grows downward.
        return (MARGIN + (p[0] - min_x) * SCALE, height - MARGIN - (p[1] - min_y) * SCALE)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for src, end, color in segments:
        x1, y1 = point(src)
        x2, y2 = point(end)
        stroke = STROKES.get(color or "black", "#000000")
        dash = ' stroke-dasharray="6,4"' if color == ADDED_COLOR else ""
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="2"{dash}/>'
        )
    # Distinct generators can share a lattice point (the two copies sit one
    # diagonal step apart); nudge coincident dots slightly, figure-style.
    seen: dict[tuple[int, int], int] = {}
    for gid, g in enumerate(complex.generators):
        x, y = point(pos[gid])
        nudge = seen.get((x, y), 0)
        seen[(x, y)] = nudge + 1
        x, y = x + 5 * nudge, y - 5 * nudge
        lines.append(f'<circle cx="{x}" cy="{y}" r="{DOT_RADIUS}" fill="black"/>')
        if labels:
            lines.append(
                f'<text x="{x + 6}" y="{y + 14}" font-size="12" '
                f'font-family="sans-serif">{_escape(g.name)}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
