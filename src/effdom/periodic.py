"""Perfect-code motifs on torus quotients of the three infinite lattices.

Domination is a radius-1 property, so a vertex set that dominates a
p x q torus perfectly lifts to a perfect code of the corresponding
infinite lattice: the torus is a compact, machine-checkable stand-in
for the infinite case.  A perfect motif on an r-regular quotient
necessarily has density 1/(1+r): 1/5 rectangular, 1/7 triangular,
1/4 hexagonal.

Rectangular
    ``{(i, j) : i + 3j == c (mod 5)}`` on the 5 x 5 torus.  The closed
    neighbourhood of any vertex meets all five residues of ``i + 3j``
    exactly once, and the motif is the lattice closure of the four
    knight-type steps (+1,-2), (+2,+1), (-1,+2), (-2,-1), each of which
    shifts ``i + 3j`` by a multiple of five.

Triangular
    ``{(x, y) : x + 3y == c (mod 7)}`` in axial coordinates on the 7 x 7
    torus.  The seven residue shifts of a closed neighbourhood
    {0, +-1, +-2, +-3} partition Z7.  The code's own distance-3
    translations are +-(1,2), +-(3,-1), +-(2,-3).

Hexagonal
    The brick-wall quotient of period 4 x 4 with one cell per row, fixed
    once by exhaustive search: it is the unique-per-translation perfect
    code in which every hexagonal face contains either two diagonally
    opposite cells or none (the diagonal-of-each-hexagon pattern).
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Coord, Lattice, LatticeKind
from .packing import DominationReport, audit

# Knight-type generator steps of the rectangular code.
RECT_CODE_OFFSETS: tuple[Coord, ...] = ((1, -2), (2, 1), (-1, 2), (-2, -1))

# Distance-3 translations of the triangular code, in axial coordinates.
TRI_CODE_OFFSETS: tuple[Coord, ...] = ((1, 2), (3, -1), (2, -3), (-1, -2), (-3, 1), (-2, 3))

_HEX_CELLS: tuple[Coord, ...] = ((1, 1), (2, 3), (3, 3), (4, 1))


@dataclass(frozen=True)
class Motif:
    """A candidate perfect code on the fundamental p x q torus domain."""

    kind: LatticeKind
    periods: tuple[int, int]
    cells: tuple[Coord, ...]

    def __post_init__(self) -> None:
        p, q = self.periods
        for i, j in self.cells:
            if not (1 <= i <= p and 1 <= j <= q):
                raise ValueError(f"cell {(i, j)} outside the {p}x{q} fundamental domain")

    def torus_lattice(self) -> Lattice:
        return Lattice(self.kind, self.periods[0], self.periods[1], torus=True)

    @property
    def density(self) -> float:
        return len(self.cells) / (self.periods[0] * self.periods[1])


def _residue_motif(kind: LatticeKind, p: int, residue: int) -> Motif:
    """The cells (x, y) of the p x p torus with x + 3y == residue (mod p)."""
    if residue not in range(p):
        raise ValueError(f"residue must be in 0..{p - 1}, got {residue}")
    cells = tuple(
        (x, y) for x in range(1, p + 1) for y in range(1, p + 1) if (x + 3 * y) % p == residue
    )
    return Motif(kind=kind, periods=(p, p), cells=cells)


def rect_code_motif(residue: int = 0) -> Motif:
    """The diagonal-lines code of the square lattice on a 5 x 5 torus."""
    return _residue_motif(LatticeKind.RECTANGULAR, 5, residue)


def tri_code_motif(residue: int = 0) -> Motif:
    """The density-1/7 code of the triangular lattice on a 7 x 7 torus."""
    return _residue_motif(LatticeKind.TRIANGULAR, 7, residue)


def hex_code_motif() -> Motif:
    """The diagonally-opposite-corners code of the hexagonal lattice."""
    return Motif(kind=LatticeKind.HEXAGONAL, periods=(4, 4), cells=_HEX_CELLS)


def verify_perfect(motif: Motif) -> DominationReport:
    """Audit the motif cells on their torus; perfect iff the report is an EDS."""
    return audit(motif.torus_lattice(), motif.cells)


def window_lattice(motif: Motif, rows: int, cols: int) -> Lattice:
    """The bounded lattice a motif expansion lives on."""
    if rows < 1 or cols < 1:
        raise ValueError("window must be at least 1x1")
    return Lattice(motif.kind, rows, cols)


def expand_motif(motif: Motif, rows: int, cols: int) -> tuple[Coord, ...]:
    """All periodic translates of the motif inside a bounded window.

    The result is always a 2-packing of the window lattice; any voids sit
    next to the window boundary, where a cell's dominator was cut off.
    Listed row by row: window row i holds the columns y, y + q, ... of the
    cells (x, y) in row x == i (mod p), for periods p x q.
    """
    window = window_lattice(motif, rows, cols)
    p, q = motif.periods
    columns: dict[int, list[int]] = {}
    for x, y in motif.cells:
        columns.setdefault(x, []).append(y)
    expansion = []
    for i, row in enumerate(window.row_ids(), start=1):
        js = sorted(j for y in columns.get((i - 1) % p + 1, ()) for j in range(y, len(row) + 1, q))
        expansion.extend((i, j) for j in js)
    return tuple(expansion)
