"""Independent witness checks, written from the lattice definitions alone.

Nothing here imports effdom: a wrong answer from a faster solver must fail
even when the program's own ``audit`` agrees with it.  Adjacency follows
the documented rules (README and ``effdom.lattice`` docstring):

* rect: the four axis neighbours;
* tri: axial offsets (+-1, 0), (0, +-1), (+1, -1), (-1, +1); the bounded
  patch of side s is the region i + j <= s + 1;
* hex: brick wall, (i, j +- 1) plus (i + 1, j) when i + j is even, else
  (i - 1, j).

Tori wrap both coordinates.  Two members are at distance >= 3 exactly when
their closed neighbourhoods are disjoint, so a set is a 2-packing when no
vertex is covered twice; its influence is then sum(1 + deg v).
"""

from __future__ import annotations

RECT_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))
TRI_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1), (1, -1), (-1, 1))


class Lattice:
    def __init__(self, descriptor: str):
        head, _, size = descriptor.partition(":")
        self.torus = head.endswith("-torus")
        self.kind = head.removesuffix("-torus")
        if self.kind not in ("rect", "tri", "hex"):
            raise ValueError(f"unknown lattice kind in {descriptor!r}")
        rows, _, cols = size.partition("x")
        self.rows = int(rows)
        self.cols = int(cols or rows)
        self.descriptor = descriptor

    def contains(self, v) -> bool:
        i, j = v
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            return False
        return self.torus or self.kind != "tri" or i + j <= self.rows + 1

    def vertices(self):
        return [(i, j) for i in range(1, self.rows + 1) for j in range(1, self.cols + 1) if self.contains((i, j))]

    def neighbours(self, v) -> set:
        i, j = v
        if self.kind == "rect":
            cand = [(i + di, j + dj) for di, dj in RECT_OFFSETS]
        elif self.kind == "tri":
            cand = [(i + di, j + dj) for di, dj in TRI_OFFSETS]
        else:
            cand = [(i, j - 1), (i, j + 1), (i + 1, j) if (i + j) % 2 == 0 else (i - 1, j)]
        if self.torus:
            return {((a - 1) % self.rows + 1, (b - 1) % self.cols + 1) for a, b in cand}
        return {u for u in cand if self.contains(u)}


def coverage(lattice: Lattice, members) -> dict:
    """How many members dominate each vertex (every vertex is a key)."""
    cover = dict.fromkeys(lattice.vertices(), 0)
    for v in members:
        v = tuple(v)
        if v not in cover:
            raise ValueError(f"{v} is not a vertex of {lattice.descriptor}")
        cover[v] += 1
        for u in lattice.neighbours(v):
            cover[u] += 1
    return cover


def packing_influence(lattice: Lattice, members) -> tuple[int, list]:
    """Influence of a 2-packing and its voids (row-major); raises if not one."""
    cover = coverage(lattice, members)
    clashes = [v for v, c in cover.items() if c > 1]
    if clashes:
        raise ValueError(f"members closer than distance 3 on {lattice.descriptor}: {clashes[:3]}")
    influence = sum(1 + len(lattice.neighbours(tuple(v))) for v in members)
    voids = sorted(v for v, c in cover.items() if c == 0)
    if influence != len(cover) - len(voids):
        raise ValueError("influence differs from the dominated-vertex count")
    return influence, voids
