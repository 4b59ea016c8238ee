"""Rectangular, triangular and hexagonal lattice graphs.

Vertices are 1-based ``(row, column)`` pairs throughout.

Rectangular
    Bounded: ``m`` rows x ``n`` cols with the usual 4-neighbour adjacency.
    Torus: both dimensions wrap (requires sizes >= 3 so closed
    neighbourhoods stay simple).

Triangular
    Axial coordinates with the six neighbour offsets
    (+-1, 0), (0, +-1), (+1, -1), (-1, +1).  The bounded variant is the
    triangular patch of side ``s``: row ``i`` holds ``s - i + 1`` vertices,
    so the patch is exactly the axial region ``i + j <= s + 1``.  The torus
    variant wraps an ``m x n`` axial rectangle and is 6-regular.

Hexagonal
    "Brick wall" coordinates: ``(i, j)`` is adjacent to ``(i, j+-1)`` and
    to exactly one vertical neighbour, ``(i+1, j)`` when ``i + j`` is even,
    ``(i-1, j)`` otherwise.  Torus periods must both be even so the parity
    rule survives the wrap; the quotient is 3-regular.

Adjacency is compiled once per instance into ``Lattice.compiled``: vertex
order, vertex ids and sorted neighbour ids, dying with the instance.  Ids
are row-major, so ``adj`` is computed by id arithmetic on slices of the
rows, one rule per kind, with no coordinate lookups: vertex ``t`` of a
rectangle has neighbours ``t +- 1`` and ``t +- cols``; of a hexagonal
board ``t +- 1`` and, by the parity of ``i + j``, ``t + cols`` or
``t - cols``; of a triangle ``t +- 1`` and two each in the rows above and
below, which a bounded patch finds from its shrinking row widths.  A torus
wraps the rows and sorts each vertex's ids.  ``Lattice.point_maps`` lists
generators of the point group as id lists, built from reversed, shifted
and interleaved rows.

Lattices are immutable values and every operation is a pure function, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Hashable, NamedTuple

Coord = tuple[int, int]

# Largest vertex count a lattice may have; larger descriptors are rejected
# before any vertex is listed.
MAX_VERTICES = 4_000_000


class LatticeKind(Enum):
    RECTANGULAR = "rect"
    TRIANGULAR = "tri"
    HEXAGONAL = "hex"


class InvalidCoordError(ValueError):
    """A coordinate that is not a vertex of the lattice it was used with."""

    def __init__(self, lattice: "Lattice", coord: Coord):
        self.coord = coord
        super().__init__(f"coordinate {coord} is not a vertex of {lattice.descriptor()}")


# A NamedTuple rather than a frozen dataclass: building a dataclass at import
# adds about a millisecond to every start of the command.
class CompiledGraph(NamedTuple):
    """A graph as integer tables: vertex ``order[t]`` has id ``t``,
    ``index`` maps each vertex back to its id, and ``adj[t]`` holds the
    ids of its neighbours in ascending order."""

    order: list[Hashable]
    index: dict[Hashable, int]
    adj: list[tuple[int, ...]]


def _zip_present(*columns: list) -> list[tuple]:
    # A column is empty when its row does not exist (above the top or below
    # the bottom of a bounded board) or when no column of this zip has items;
    # the others are all equally long.
    return list(zip(*[c for c in columns if c]))


@dataclass(frozen=True)
class Lattice:
    """A finite lattice graph, bounded or wrapped into a torus."""

    kind: LatticeKind
    rows: int
    cols: int
    torus: bool = False

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"lattice dimensions must be positive, got {self.rows}x{self.cols}")
        if self.kind is LatticeKind.TRIANGULAR and not self.torus and self.rows != self.cols:
            raise ValueError(
                f"a bounded triangular patch has a single side length, got {self.rows}x{self.cols}"
            )
        if self.torus:
            if self.kind is LatticeKind.HEXAGONAL:
                if self.rows % 2 or self.cols % 2 or self.rows < 4 or self.cols < 4:
                    raise ValueError("hexagonal torus periods must be even and >= 4")
            elif self.rows < 3 or self.cols < 3:
                raise ValueError("torus dimensions must be >= 3 to avoid multi-edges")
        if self.vertex_count > MAX_VERTICES:
            raise ValueError(
                f"{self.descriptor()} has {self.vertex_count} vertices, "
                f"more than the limit {MAX_VERTICES}"
            )

    # -- vertex set ---------------------------------------------------------

    def _row_width(self, i: int) -> int:
        if self.kind is LatticeKind.TRIANGULAR and not self.torus:
            return self.cols - i + 1
        return self.cols

    def contains(self, v: Coord) -> bool:
        i, j = v
        return 1 <= i <= self.rows and 1 <= j <= self._row_width(i)

    def require(self, v: Coord) -> None:
        if not self.contains(v):
            raise InvalidCoordError(self, v)

    @property
    def vertex_count(self) -> int:
        if self.kind is LatticeKind.TRIANGULAR and not self.torus:
            return self.rows * (self.rows + 1) // 2
        return self.rows * self.cols

    def vertices(self) -> list[Coord]:
        """All vertices in row-major order."""
        return [(i, j) for i in range(1, self.rows + 1) for j in range(1, self._row_width(i) + 1)]

    def row_ids(self) -> list[range]:
        """The vertex ids of each row, in row order: they tile
        ``range(vertex_count)``."""
        n = self.cols
        if self.kind is not LatticeKind.TRIANGULAR or self.torus:
            return [range(start, start + n) for start in range(0, self.rows * n, n)]
        # Row i of a triangle patch holds n - i + 1 ids.
        rows, start = [], 0
        for width in range(n, 0, -1):
            rows.append(range(start, start + width))
            start += width
        return rows

    # -- adjacency ----------------------------------------------------------

    @cached_property
    def compiled(self) -> CompiledGraph:
        """The graph as integer tables, built in one pass on first use."""
        order = self.vertices()
        # One id list per row.  ``adj`` is built from slices of these lists,
        # so each id in it is the int object stored in ``index`` (arithmetic
        # would make a fresh int per entry), and no board-sized temporary is
        # freed: that raises the C allocator's mmap threshold, and later large
        # tables then stay resident after they are freed.
        rows = list(map(list, self.row_ids()))
        build = {
            LatticeKind.RECTANGULAR: self._rect_adj,
            LatticeKind.TRIANGULAR: self._tri_adj,
            LatticeKind.HEXAGONAL: self._hex_adj,
        }[self.kind]
        return CompiledGraph(order, dict(zip(order, chain.from_iterable(rows))), build(rows))

    # Each rule zips a row's tuples from shifted slices of the rows above,
    # at and below it, in that order, which is ascending on a bounded board.

    def _around(self, rows: list[list[int]]):
        """(up, row, down) for each row of ids: wrapped on a torus, and an
        empty list above the top and below the bottom of a bounded board."""
        torus, last = self.torus, len(rows) - 1
        for k, row in enumerate(rows):
            up = rows[k - 1] if k or torus else []
            down = rows[k + 1] if k < last else rows[0] if torus else []
            yield up, row, down

    def _sides(self, row: list[int]) -> tuple[list, list]:
        """Each id's left and right neighbour in its row: wrapped on a torus,
        None past the ends of a bounded row."""
        if self.torus:
            return row[-1:] + row[:-1], row[1:] + row[:1]
        return [None, *row[:-1]], [*row[1:], None]

    def _ascending(self, tuples: list[tuple]) -> list[tuple[int, ...]]:
        """One row's neighbour tuples in ascending order."""
        if self.torus:
            return list(map(tuple, map(sorted, tuples)))
        # Only a bounded row's end columns hold a None side neighbour.
        for j in {0, len(tuples) - 1}:
            tuples[j] = tuple(x for x in tuples[j] if x is not None)
        return tuples

    def _rect_adj(self, rows: list[list[int]]) -> list[tuple[int, ...]]:
        adj = []
        for up, row, down in self._around(rows):
            adj += self._ascending(_zip_present(up, *self._sides(row), down))
        return adj

    def _tri_adj(self, rows: list[list[int]]) -> list[tuple[int, ...]]:
        # Axial neighbours of (i, j), ascending: (i-1, j), (i-1, j+1),
        # (i, j-1), (i, j+1), (i+1, j-1), (i+1, j).
        adj = []
        for up, row, down in self._around(rows):
            if self.torus:
                up_right, down_left = self._sides(up)[1], self._sides(down)[0]
            else:
                # A bounded patch's row above is one id longer than this one
                # and the row below one shorter.
                up_right, up, down_left, down = up[1:], up[: len(row)], [None, *down], [*down, None]
            adj += self._ascending(_zip_present(up, up_right, *self._sides(row), down_left, down))
        return adj

    def _hex_adj(self, rows: list[list[int]]) -> list[tuple[int, ...]]:
        adj = []
        for i, (up, row, down) in enumerate(self._around(rows)):
            left, right = self._sides(row)
            # Columns j with i + j even (0-based, as 1-based) take the vertex
            # below as third neighbour, the others the vertex above.
            s = i % 2
            tuples = [()] * len(row)
            tuples[s::2] = _zip_present(left[s::2], right[s::2], down[s::2])
            tuples[1 - s :: 2] = _zip_present(up[1 - s :: 2], left[1 - s :: 2], right[1 - s :: 2])
            adj += self._ascending(tuples)
        return adj

    # -- symmetry -----------------------------------------------------------

    def point_maps(self) -> list[list[int]]:
        """Generators of the lattice's point group, none of them the
        identity: entry t of a map is the id of vertex t's image.

        Bounded rect m x n: the row flip and the column flip, or when m = n
        the row flip and the transpose, which generate all eight maps of
        the square.  ``tri:s``: the transpose (i, j) -> (j, i) and the row
        reversal (i, j) -> (i, s + 2 - i - j), two swaps of (i - 1, j - 1,
        s + 1 - i - j) that generate all six permutations.  Bounded hex
        m x n, by the brick-wall parity rule: the row flip when m is even,
        the column flip when n is odd, and the 180-degree rotation when m is
        odd and n even (with m even and n odd it is the flips' product).

        A torus's maps fix vertex 0 and act on 0-based offsets (i, j): a
        rect torus has (-i, j) and (i, -j), or when square (-i, j) and the
        transpose.  A tri torus has -(i, j), or when square the reflection
        (i, j) -> (-i, i + j) and the transpose, whose product is a
        rotation of order 6, so they generate all twelve maps.  A hex
        torus has none.
        """
        m, n, kind = self.rows, self.cols, self.kind
        if self.torus and kind is LatticeKind.HEXAGONAL:
            return []
        rows = self.row_ids()
        if self.torus:
            # Offset (i, j) has id i * n + j, and up[i] holds the ids of row -i.
            up = rows[:1] + rows[:0:-1]
            if kind is LatticeKind.RECTANGULAR:
                turn = self._transpose(rows) if m == n else self._mirror(rows)
                return [list(chain.from_iterable(up)), turn]
            if m != n:
                return [self._mirror(up)]
            # Row i goes to row -i, shifted left by i columns.
            reflection = list(chain.from_iterable(chain(r[i:], r[:i]) for i, r in enumerate(up)))
            return [reflection, self._transpose(rows)]
        if kind is LatticeKind.TRIANGULAR:
            return [self._transpose(rows), self._flip_cols(rows)] if m > 1 else []
        flip_rows = list(chain.from_iterable(reversed(rows)))
        if kind is LatticeKind.RECTANGULAR:
            maps = [flip_rows] if m > 1 else []
            if n > 1:
                maps.append(self._transpose(rows) if m == n else self._flip_cols(rows))
            return maps
        maps = [flip_rows] if m % 2 == 0 else []
        if n % 2 == 1 and n > 1:
            maps.append(self._flip_cols(rows))
        if m % 2 == 1 and n % 2 == 0:
            maps.append(list(range(self.vertex_count - 1, -1, -1)))
        return maps

    @staticmethod
    def _transpose(rows: list[range]) -> list[int]:
        """(i, j) -> (j, i) on a square board or a triangle patch, given
        the ids of each row."""
        if len(rows[0]) == len(rows[-1]):
            return list(chain.from_iterable(zip(*rows)))
        # Column i of a triangle patch is entry i of its first len(row i) rows.
        return [row[i] for i, r in enumerate(rows) for row in rows[: len(r)]]

    @staticmethod
    def _flip_cols(rows: list[range]) -> list[int]:
        """The ids of rows, each read backwards."""
        return list(chain.from_iterable(r[::-1] for r in rows))

    @staticmethod
    def _mirror(rows: list[range]) -> list[int]:
        """The ids of rows, each read from column 0 backwards around the
        torus: (i, j) -> (i, -j) on the rows as given."""
        return list(chain.from_iterable(chain(r[:1], r[:0:-1]) for r in rows))

    # -- descriptors --------------------------------------------------------

    def descriptor(self) -> str:
        base = self.kind.value + ("-torus" if self.torus else "")
        if self.kind is LatticeKind.TRIANGULAR and not self.torus:
            return f"{base}:{self.rows}"
        return f"{base}:{self.rows}x{self.cols}"

    @classmethod
    def from_descriptor(cls, text: str) -> "Lattice":
        """Parse ``rect:MxN``, ``rect-torus:MxN``, ``tri:S``, ``tri-torus:MxN``,
        ``hex:MxN`` or ``hex-torus:MxN``."""
        try:
            head, _, size = text.strip().partition(":")
            torus = head.endswith("-torus")
            kind = LatticeKind(head[: -len("-torus")] if torus else head)
            if "x" in size:
                rows_s, _, cols_s = size.partition("x")
                rows, cols = int(rows_s), int(cols_s)
            else:
                rows = cols = int(size)
        except (ValueError, KeyError) as exc:
            raise ValueError(f"unrecognized lattice descriptor {text!r}") from exc
        return cls(kind=kind, rows=rows, cols=cols, torus=torus)


def rect(rows: int, cols: int, torus: bool = False) -> Lattice:
    return Lattice(LatticeKind.RECTANGULAR, rows, cols, torus)


def tri(side_or_rows: int, cols: int | None = None, torus: bool = False) -> Lattice:
    if cols is None:
        cols = side_or_rows
    return Lattice(LatticeKind.TRIANGULAR, side_or_rows, cols, torus)


def hexa(rows: int, cols: int, torus: bool = False) -> Lattice:
    return Lattice(LatticeKind.HEXAGONAL, rows, cols, torus)
