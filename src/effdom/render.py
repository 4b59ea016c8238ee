"""ASCII and SVG boards for lattices with an audited vertex set.

Glyph convention: ``@`` set member (dominator), ``.`` dominated vertex,
``o`` void.  The SVG mirrors it with large filled, small filled and
unfilled circles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .lattice import Coord, Lattice, LatticeKind
from .packing import DominationReport

# Distance between neighbouring vertices in an SVG drawing, in pixels.
CELL = 30.0


@dataclass(frozen=True)
class RenderStyle:
    dominator: str = "@"
    dominated: str = "."
    void: str = "o"

    def __post_init__(self) -> None:
        if len({self.dominator, self.dominated, self.void}) != 3:
            raise ValueError("render glyphs must be three distinct symbols")


def _glyph(v: Coord, members: set[Coord], coverage: dict, style: RenderStyle) -> str:
    if v in members:
        return style.dominator
    return style.dominated if coverage.get(v, 0) else style.void


def ascii_board(
    lattice: Lattice,
    members: tuple[Coord, ...],
    report: DominationReport,
    style: RenderStyle = RenderStyle(),
) -> str:
    """One text row per lattice row; triangular rows are indented to shape."""
    member_set = set(members)
    lines = []
    triangular = lattice.kind is LatticeKind.TRIANGULAR and not lattice.torus
    for i in range(1, lattice.rows + 1):
        glyphs = [
            _glyph((i, j), member_set, report.coverage, style)
            for j in range(1, lattice._row_width(i) + 1)
        ]
        indent = " " * (i - 1) if triangular else ""
        lines.append(indent + " ".join(glyphs))
    return "\n".join(lines)


def _positions(lattice: Lattice) -> list[tuple[float, float]]:
    """Drawing position of each vertex, indexed by vertex id."""
    pos = []
    for i, j in lattice.compiled.order:
        if lattice.kind is LatticeKind.TRIANGULAR:
            x = (j - 1 + (i - 1) * 0.5) * CELL
            y = (i - 1) * CELL * math.sqrt(3) / 2
        else:
            x = (j - 1) * CELL
            y = (i - 1) * CELL
        pos.append((x + CELL, y + CELL))
    return pos


def svg_lines(
    lattice: Lattice,
    members: tuple[Coord, ...],
    report: DominationReport,
) -> Iterator[str]:
    """The SVG document in pieces that join with newlines: the header, the
    edges leaving each lattice row, the vertices of each row, the footer.
    A row that starts no edge yields no piece, so no blank line appears."""
    graph = lattice.compiled
    pos = _positions(lattice)
    width = max(x for x, _ in pos) + CELL
    height = max(y for _, y in pos) + CELL
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    # Each distinct coordinate is formatted once.
    text = {c: f"{c:.1f}" for c in {c for xy in pos for c in xy}}
    labels = [(text[x], text[y]) for x, y in pos]
    rows, start = [], 0
    for i in range(1, lattice.rows + 1):
        end = start + lattice._row_width(i)
        rows.append(range(start, end))
        start = end
    # On a torus, skip wrap-around edges: only draw neighbours that are
    # geometrically close.  A bounded board has no wrap edges to skip.
    reach = 1.8 * CELL
    torus = lattice.torus
    for row in rows:
        lines = []
        for t in row:
            ux, uy = pos[t]
            x1, y1 = labels[t]
            for s in graph.adj[t]:
                if s > t and (not torus or math.hypot(pos[s][0] - ux, pos[s][1] - uy) <= reach):
                    x2, y2 = labels[s]
                    lines.append(
                        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#555" stroke-width="1"/>'
                    )
        if lines:
            yield "\n".join(lines)
    member_set = set(members)
    member_dot = f'r="{CELL / 3:.1f}" fill="black"'
    dominated_dot = f'r="{CELL / 7:.1f}" fill="black"'
    void_dot = f'r="{CELL / 3:.1f}" fill="white" stroke="black" stroke-width="1.5"'
    for row in rows:
        circles = []
        for t in row:
            v = graph.order[t]
            dot = member_dot if v in member_set else dominated_dot if report.coverage.get(v, 0) else void_dot
            x, y = labels[t]
            circles.append(f'<circle cx="{x}" cy="{y}" {dot}/>')
        yield "\n".join(circles)
    yield "</svg>"
