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


def ascii_board(
    lattice: Lattice,
    members: tuple[Coord, ...],
    report: DominationReport,
    style: RenderStyle = RenderStyle(),
) -> str:
    """One text row per lattice row; triangular rows are indented to shape.
    ``report`` is the audit of ``members`` on ``lattice``."""
    glyphs = [style.dominated if c else style.void for c in report.coverage]
    index = lattice.compiled.index
    for v in members:
        glyphs[index[v]] = style.dominator
    triangular = lattice.kind is LatticeKind.TRIANGULAR and not lattice.torus
    return "\n".join(
        (" " * i if triangular else "") + " ".join(glyphs[row.start : row.stop])
        for i, row in enumerate(lattice.row_ids())
    )


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


def _grid_labels(lattice: Lattice) -> tuple[list[str], list[str]]:
    """The x and y text of each vertex of a bounded rectangular or hexagonal
    board, indexed by vertex id.  There x follows the column and y the row,
    so each is formatted once per column or row and repeated by list
    arithmetic."""
    cols = lattice.cols
    xs = [f"{j * CELL + CELL:.1f}" for j in range(cols)]
    ys = []
    for i in range(lattice.rows):
        ys += [f"{i * CELL + CELL:.1f}"] * cols
    return xs * lattice.rows, ys


def svg_lines(
    lattice: Lattice,
    members: tuple[Coord, ...],
    report: DominationReport,
) -> Iterator[str]:
    """The SVG document in pieces that join with newlines: the header, the
    edges leaving each lattice row, the vertices of each row, the footer.
    A row that starts no edge yields no piece, so no blank line appears.
    ``report`` is the audit of ``members`` on ``lattice``.

    Float positions are computed per vertex only for a triangle, whose x
    depends on the row too, and for a torus, whose wrap-around edges are
    told apart by their length.  A bounded rectangular or hexagonal board
    takes its labels from ``_grid_labels``."""
    graph = lattice.compiled
    torus = lattice.torus
    if torus or lattice.kind is LatticeKind.TRIANGULAR:
        pos = _positions(lattice)
        width = max(x for x, _ in pos) + CELL
        height = max(y for _, y in pos) + CELL
        # Each distinct coordinate is formatted once.
        text = {c: f"{c:.1f}" for c in {c for xy in pos for c in xy}}
        xs, ys = [text[x] for x, _ in pos], [text[y] for _, y in pos]
    else:
        width, height = (lattice.cols + 1) * CELL, (lattice.rows + 1) * CELL
        xs, ys = _grid_labels(lattice)
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    rows = lattice.row_ids()
    # On a torus, skip wrap-around edges: only draw neighbours that are
    # geometrically close.  A bounded board has no wrap edges to skip.
    reach = 1.8 * CELL
    adj = graph.adj
    for row in rows:
        lines = [
            f'<line x1="{xs[t]}" y1="{ys[t]}" x2="{xs[s]}" y2="{ys[s]}" stroke="#555" stroke-width="1"/>'
            for t in row
            for s in adj[t]
            if s > t and (not torus or math.hypot(pos[s][0] - pos[t][0], pos[s][1] - pos[t][1]) <= reach)
        ]
        if lines:
            yield "\n".join(lines)
    dominated_dot = f'r="{CELL / 7:.1f}" fill="black"'
    void_dot = f'r="{CELL / 3:.1f}" fill="white" stroke="black" stroke-width="1.5"'
    dots = [dominated_dot if c else void_dot for c in report.coverage]
    for v in members:
        dots[graph.index[v]] = f'r="{CELL / 3:.1f}" fill="black"'
    for row in rows:
        yield "\n".join([f'<circle cx="{xs[t]}" cy="{ys[t]}" {dots[t]}/>' for t in row])
    yield "</svg>"
