"""ASCII and SVG boards for lattices with an audited vertex set.

Glyph convention: ``@`` set member (dominator), ``.`` dominated vertex,
``o`` void.  The SVG mirrors it with large filled, small filled and
unfilled circles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import Coord, Lattice, LatticeKind
from .packing import DominationReport


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


def _positions(lattice: Lattice, cell: float) -> list[tuple[float, float]]:
    """Drawing position of each vertex, indexed by vertex id."""
    pos = []
    for i, j in lattice.compiled.order:
        if lattice.kind is LatticeKind.TRIANGULAR:
            x = (j - 1 + (i - 1) * 0.5) * cell
            y = (i - 1) * cell * math.sqrt(3) / 2
        else:
            x = (j - 1) * cell
            y = (i - 1) * cell
        pos.append((x + cell, y + cell))
    return pos


def svg_board(
    lattice: Lattice,
    members: tuple[Coord, ...],
    report: DominationReport,
    cell: float = 30.0,
) -> str:
    """A flat SVG: lattice edges as lines, vertices as the three-dot legend."""
    graph = lattice.compiled
    pos = _positions(lattice, cell)
    member_set = set(members)
    width = max(x for x, _ in pos) + cell
    height = max(y for _, y in pos) + cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    ]
    # Skip wrap-around edges: only draw neighbours that are geometrically close.
    for t, (ux, uy) in enumerate(pos):
        for s in graph.adj[t]:
            if s <= t:
                continue
            vx, vy = pos[s]
            if math.hypot(vx - ux, vy - uy) <= 1.8 * cell:
                parts.append(
                    f'<line x1="{ux:.1f}" y1="{uy:.1f}" x2="{vx:.1f}" y2="{vy:.1f}" '
                    'stroke="#555" stroke-width="1"/>'
                )
    for v, (x, y) in zip(graph.order, pos):
        if v in member_set:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{cell / 3:.1f}" fill="black"/>')
        elif report.coverage.get(v, 0):
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{cell / 7:.1f}" fill="black"/>')
        else:
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{cell / 3:.1f}" '
                'fill="white" stroke="black" stroke-width="1.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
