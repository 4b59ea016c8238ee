"""Explicit maximum-influence 2-packings for bounded rectangular grids.

Grids are oriented with the short side as rows: the 2 x n strip has
``rows=2, cols=n`` and the 3 x n strip ``rows=3, cols=n``.

The strip constructions follow a forced-chain / column-block scheme:

* 2 x n: the chain (1,1), (2,3), (1,5), (2,7), ... closes perfectly for
  odd n (an efficient dominating set of influence 2n) and leaves exactly
  one void in the last column for even n (influence 2n - 1).
* 3 x n: the columns split into floor(n/3) blocks of width 3 (the last
  block widened to 4 or 5).  Interior blocks contribute two picks each and
  exactly one void; the final one or two blocks use adjusted picks.  For
  n >= 4 the influence is 3n - floor(n/3); the lone exception n = 3 tops
  out at 7 with two voids.

For the n x n square (n >= 7) the ``knight_construction`` takes anchors
in columns 1-2 and along the bottom row and extends every anchor by
repeated knight steps (one up, two right).  A knight step keeps 2i + j
fixed mod 5 and the anchors are spaced five apart, so the result is the
perfect code of the infinite grid (``periodic.rect_code_motif``) cut to
the board: the class 2i + j == 3 (mod 5), or == 0 when n = 5k + 4.  All
of its voids land on the outer boundary; their count is
``predicted_voids(n)``, giving the lower bound ``lower_bound_F(n)`` on
the square's efficient domination number, conjectured to be exact.

``near_grid_augment`` turns any 2-packing into an efficient dominating
set of a slightly larger "near-grid" graph by hanging one pendant vertex
off each void.

``CONSTRUCTIONS`` names the constructions the CLI offers, in its order:
each entry gives the lattice for n, the set builder and the contract its
audit report must meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from . import periodic
from .lattice import CompiledGraph, Coord, Lattice, LatticeKind, rect
from .packing import DominationReport, Vertex, audit, normalize_set


# -- 2 x n strips -------------------------------------------------------------


def _p2_chain(n: int) -> tuple[Coord, ...]:
    # (1,1), (2,3), (1,5), (2,7), ... while the column fits.
    picks = []
    t = 0
    while 2 * t + 1 <= n:
        picks.append((1 if t % 2 == 0 else 2, 2 * t + 1))
        t += 1
    return normalize_set(picks)


def eds_pn_p2(n: int) -> tuple[Coord, ...]:
    """Efficient dominating set of the 2 x n grid; exists only for odd n."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"the 2 x {n} grid has no perfect code; use fset_pn_p2_even for even n")
    return _p2_chain(n)


def fset_pn_p2_even(n: int) -> tuple[Coord, ...]:
    """Maximum-influence 2-packing of the 2 x n grid for even n.

    Influence is 2n - 1; the single void sits at (2, n) when n/2 is odd
    and at (1, n) when n/2 is even.
    """
    if n < 2 or n % 2 == 1:
        raise ValueError(f"fset_pn_p2_even needs even n >= 2, got {n}; use eds_pn_p2 for odd n")
    return _p2_chain(n)


# -- 3 x n strips -------------------------------------------------------------


def fset_pn_p3(n: int) -> tuple[Coord, ...]:
    """Maximum-influence 2-packing of the 3 x n grid (n >= 3).

    Influence 3n - floor(n/3) with floor(n/3) voids for n >= 4;
    the 3 x 3 square itself only reaches 7, with two voids.
    """
    if n < 3:
        raise ValueError(f"fset_pn_p3 needs n >= 3, got {n}")
    if n == 3:
        return normalize_set([(1, 1), (3, 2)])
    k, r = divmod(n, 3)
    picks: list[Coord] = []

    def block(index: int, local: list[Coord]) -> None:
        base = 3 * (index - 1)
        picks.extend((row, base + col) for row, col in local)

    standard = [(1, 1), (3, 2)]
    if r == 0:
        for i in range(1, k - 1):
            block(i, standard)
        block(k - 1, [(2, 1), (1, 3)])
        block(k, [(3, 1), (2, 3)])
    elif r == 1:
        for i in range(1, k):
            block(i, standard)
        block(k, [(1, 1), (3, 2), (2, 4)])
    else:
        for i in range(1, k):
            block(i, standard)
        block(k, [(1, 1), (3, 2), (1, 4), (3, 5)])
    return normalize_set(picks)


# -- small squares ------------------------------------------------------------


def eds_p4_p4() -> tuple[Coord, ...]:
    """The 4-element perfect code of the 4 x 4 grid."""
    return normalize_set([(1, 2), (2, 4), (3, 1), (4, 3)])


# Optimal witnesses extracted once from the exact solver (influence 23 / 33).
_SQUARE_WITNESSES: dict[int, tuple[Coord, ...]] = {
    5: ((1, 1), (1, 4), (3, 2), (3, 5), (5, 1), (5, 4)),
    6: ((1, 1), (1, 4), (2, 6), (3, 2), (4, 4), (5, 1), (5, 6), (6, 3)),
}


def fset_square_small(n: int) -> tuple[Coord, ...]:
    """Frozen maximum-influence 2-packings of the 5 x 5 and 6 x 6 grids."""
    try:
        return _SQUARE_WITNESSES[n]
    except KeyError:
        raise ValueError(f"fset_square_small covers n in {{5, 6}}, got {n}") from None


# -- void counts and bounds for n x n, n >= 7 --------------------------------


def predicted_voids(n: int) -> int:
    """Boundary voids left by the knight construction on the n x n grid."""
    if n < 7:
        raise ValueError(f"predicted_voids is defined for n >= 7, got {n}")
    k = n // 5
    if n % 5 in (0, 1, 4):
        return 4 * k
    return n - k - 1


def lower_bound_F(n: int) -> int:
    """Proven lower bound on F of the n x n grid: n^2 minus the void count."""
    if n < 7:
        raise ValueError(f"lower_bound_F is defined for n >= 7, got {n}")
    return n * n - predicted_voids(n)


# -- knight construction ------------------------------------------------------


def knight_construction(n: int) -> tuple[Coord, ...]:
    """Near-optimal 2-packing of the n x n grid, n >= 7.

    The rectangular perfect code cut to the board: the class
    2i + j == 3 (mod 5), or == 0 when n = 5k + 4 (``rect_code_motif``
    residue 4, or 0, as 2(i + 3j) == 2i + j mod 5).  The anchors are its
    members in columns 1-2 or on the bottom row; the knight ray
    (i - k, j + 2k) of each anchor covers the rest.
    """
    if n < 7:
        raise ValueError(f"knight_construction needs n >= 7, got {n}")
    return periodic.expand_motif(periodic.rect_code_motif(0 if n % 5 == 4 else 4), n, n)


# -- pendant augmentation -----------------------------------------------------


@dataclass(frozen=True)
class Pendant:
    """A degree-1 vertex hung off one void of the base grid."""

    index: int
    anchor: Coord

    @property
    def sort_hint(self) -> int:
        return self.index

    def to_json(self) -> dict:
        return {"pendant": self.index, "attached_to": [self.anchor[0], self.anchor[1]]}


@dataclass(frozen=True)
class AugmentedLattice:
    """A bounded grid plus pendant vertices; exposes the graph protocol."""

    base: Lattice
    pendants: tuple[Pendant, ...]

    def __post_init__(self) -> None:
        anchors = [p.anchor for p in self.pendants]
        if len(set(anchors)) != len(anchors):
            raise ValueError("pendants must be attached to distinct vertices")
        for a in anchors:
            self.base.require(a)

    @property
    def vertex_count(self) -> int:
        return self.base.vertex_count + len(self.pendants)

    @cached_property
    def compiled(self) -> CompiledGraph:
        """The base grid's tables extended by one id per pendant."""
        base = self.base.compiled
        index = dict(base.index)
        adj = list(base.adj)
        for t, p in enumerate(self.pendants, start=len(base.order)):
            index[p] = t
            anchor = base.index[p.anchor]
            adj[anchor] += (t,)
            adj.append((anchor,))
        return CompiledGraph(base.order + list(self.pendants), index, adj)


def near_grid_augment(
    lattice: Lattice, members: tuple[Coord, ...]
) -> tuple[AugmentedLattice, tuple[Vertex, ...]]:
    """Hang one pendant off each void of a 2-packing.

    Returns the augmented graph and the set members plus all pendants,
    which is an efficient dominating set of that graph: the pendant
    dominates itself and its void, and every other vertex keeps its
    unique dominator.
    """
    if lattice.kind is not LatticeKind.RECTANGULAR or lattice.torus:
        raise ValueError("near_grid_augment expects a bounded rectangular lattice")
    report = audit(lattice, members)
    if not report.is_two_packing:
        raise ValueError(f"near_grid_augment needs a 2-packing; conflicts at {report.conflicts}")
    pendants = tuple(Pendant(index=t, anchor=void) for t, void in enumerate(report.voids))
    augmented = AugmentedLattice(base=lattice, pendants=pendants)
    eds = normalize_set(members) + pendants
    return augmented, eds


# -- registry -------------------------------------------------------------------


class Construction(NamedTuple):
    """A named construction: its lattice for n, its set for n, and the
    contract the audit report of that set must meet."""

    lattice: Callable[[int], Lattice]
    build: Callable[[int], tuple[Coord, ...]]
    contract: Callable[[int, DominationReport], bool]


def _p3_contract(n: int, report: DominationReport) -> bool:
    influence, voids = (7, 2) if n == 3 else (3 * n - n // 3, n // 3)
    return report.is_two_packing and report.influence == influence and len(report.voids) == voids


def _square_contract(n: int, report: DominationReport) -> bool:
    if n == 4:
        return report.is_eds
    return report.is_two_packing and report.influence == {5: 23, 6: 33}[n]


def _knight_contract(n: int, report: DominationReport) -> bool:
    boundary = all(i in (1, n) or j in (1, n) for i, j in report.voids)
    return report.is_two_packing and boundary and len(report.voids) == predicted_voids(n)


def _p2_even_contract(n: int, report: DominationReport) -> bool:
    return report.is_two_packing and report.influence == 2 * n - 1 and len(report.voids) == 1


def _square(n: int) -> tuple[Coord, ...]:
    if n not in (4, 5, 6):
        raise ValueError(f"square covers n in {{4, 5, 6}}, got {n}")
    return eds_p4_p4() if n == 4 else fset_square_small(n)


CONSTRUCTIONS: dict[str, Construction] = {
    "eds-p2": Construction(
        lambda n: rect(2, n), eds_pn_p2, lambda n, r: r.is_eds and r.influence == 2 * n
    ),
    "p2-even": Construction(lambda n: rect(2, n), fset_pn_p2_even, _p2_even_contract),
    "p3": Construction(lambda n: rect(3, n), fset_pn_p3, _p3_contract),
    "square": Construction(lambda n: rect(n, n), _square, _square_contract),
    "knight": Construction(lambda n: rect(n, n), knight_construction, _knight_contract),
}
