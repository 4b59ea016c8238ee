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


def _labels(lattice: Lattice) -> tuple[list[str], list[str], float, float]:
    """The x and y text of each vertex, indexed by vertex id, and the
    drawing's width and height.

    x is counted in half cells: the vertex in column j of row i, both from
    0, sits 2j half cells right of the left edge, plus i on a triangle,
    whose rows lean by half a cell each.  So x is read from one table of
    half-cell strings, and y is formatted once per row."""
    triangular = lattice.kind is LatticeKind.TRIANGULAR
    lean = 1 if triangular else 0
    rise = math.sqrt(3) / 2 if triangular else 1  # row spacing, in cells
    half = [f"{CELL + h * CELL / 2:.1f}" for h in range(2 * lattice.cols + lean * lattice.rows)]
    xs, ys = [], []
    right = 0  # the rightmost x, in half cells
    for i, row in enumerate(lattice.row_ids()):
        first, stop = lean * i, lean * i + 2 * len(row)
        xs += half[first:stop:2]
        y = i * CELL * rise + CELL
        ys += [f"{y:.1f}"] * len(row)
        right = max(right, stop - 2)
    return xs, ys, right * CELL / 2 + 2 * CELL, y + CELL


def svg_lines(
    lattice: Lattice,
    members: tuple[Coord, ...],
    report: DominationReport,
) -> Iterator[str]:
    """The SVG document in pieces that join with newlines: the header, the
    edges leaving each lattice row, the vertices of each row, the footer.
    A row that starts no edge yields no piece, so no blank line appears.
    ``report`` is the audit of ``members`` on ``lattice``.  Coordinates
    and the drawing's size come from ``_labels``."""
    graph = lattice.compiled
    torus = lattice.torus
    cols = lattice.cols
    xs, ys, width, height = _labels(lattice)
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    rows = lattice.row_ids()
    # On a torus, skip the wrap-around edges: those whose ends are more
    # than one row or one column apart.  A torus's rows are all ``cols``
    # wide, so ids give both; a bounded board has no wrap edges to skip.
    adj = graph.adj
    for row in rows:
        lines = [
            f'<line x1="{xs[t]}" y1="{ys[t]}" x2="{xs[s]}" y2="{ys[s]}" stroke="#555" stroke-width="1"/>'
            for t in row
            for s in adj[t]
            if s > t and (not torus or (s // cols - t // cols < 2 and abs(s % cols - t % cols) < 2))
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
