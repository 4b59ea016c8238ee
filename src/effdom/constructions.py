"""Explicit maximum-influence 2-packings for bounded rectangular grids.

Grids are oriented with the short side as rows: the 2 x n strip has
``rows=2, cols=n`` and the 3 x n strip ``rows=3, cols=n``.

The strip constructions repeat a column pattern:

* 2 x n: the chain (1,1), (2,3), (1,5), (2,7), ... closes perfectly for
  odd n (an efficient dominating set of influence 2n) and leaves exactly
  one void in the last column for even n (influence 2n - 1).
* 3 x n: a pattern plus a tail.  The pattern picks (1, j) for
  j == 1 and (3, j) for j == 2 (mod 3), one void per three columns, up
  to a body that the residue of n fixes: all n columns when
  n == 2 (mod 3); n - 1 columns and the tail (2, n) when n == 1; n - 6
  columns and the tail (2, n-5), (1, n-3), (3, n-2), (2, n) when n == 0.
  For n >= 4 the influence is 3n - floor(n/3); the lone exception n = 3
  tops out at 7 with two voids.

The 4 x 4 perfect code and solver-extracted optima of the 5 x 5 and
6 x 6 grids form one small-square table, ``fset_square_small``.

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
each entry gives the lattice for n, the set builder and a contract made
from its closed-form F: the audit report must show a 2-packing of
influence F(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from . import periodic
from .lattice import CompiledGraph, Coord, Lattice, LatticeKind, rect
from .packing import DominationReport, Vertex, audit, normalize_set


# -- domains --------------------------------------------------------------------


def require_n(name: str, n: int) -> None:
    """Refuse, in the words of ``construct NAME``, an n outside the domain
    of the construction ``name``; its builder and the CLI ask before any
    work."""
    covered, domain, hint = {
        "eds-p2": (n >= 1 and n % 2 == 1, "odd n >= 1", "; use p2-even for even n"),
        "p2-even": (n >= 2 and n % 2 == 0, "even n >= 2", "; use eds-p2 for odd n"),
        "p3": (n >= 3, "n >= 3", ""),
        "square": (n in _SQUARE_WITNESSES, "n in {4, 5, 6}", ""),
        "knight": (n >= 7, "n >= 7", ""),
    }[name]
    if not covered:
        raise ValueError(f"{name} covers {domain}, got {n}{hint}")


# -- 2 x n strips -------------------------------------------------------------


def _p2_chain(n: int) -> tuple[Coord, ...]:
    # (1,1), (2,3), (1,5), (2,7), ... while the column fits.
    return normalize_set((1 + t % 2, 2 * t + 1) for t in range((n + 1) // 2))


def eds_pn_p2(n: int) -> tuple[Coord, ...]:
    """Efficient dominating set of the 2 x n grid; exists only for odd n."""
    require_n("eds-p2", n)
    return _p2_chain(n)


def fset_pn_p2_even(n: int) -> tuple[Coord, ...]:
    """Maximum-influence 2-packing of the 2 x n grid for even n.

    Influence is 2n - 1; the single void sits at (2, n) when n/2 is odd
    and at (1, n) when n/2 is even.
    """
    require_n("p2-even", n)
    return _p2_chain(n)


# -- 3 x n strips -------------------------------------------------------------


def fset_pn_p3(n: int) -> tuple[Coord, ...]:
    """Maximum-influence 2-packing of the 3 x n grid (n >= 3).

    Influence 3n - floor(n/3) with floor(n/3) voids for n >= 4;
    the 3 x 3 square itself only reaches 7, with two voids.
    """
    require_n("p3", n)
    if n == 3:
        return normalize_set([(1, 1), (3, 2)])
    # The pattern runs through column `body`; the tail closes the strip.
    body, tail = {
        2: (n, []),
        1: (n - 1, [(2, n)]),
        0: (n - 6, [(2, n - 5), (1, n - 3), (3, n - 2), (2, n)]),
    }[n % 3]
    pattern = [(1 if j % 3 == 1 else 3, j) for j in range(1, body + 1) if j % 3]
    return normalize_set(pattern + tail)


# -- small squares ------------------------------------------------------------


# The 4 x 4 perfect code, and optimal witnesses extracted once from the
# exact solver for n = 5 and 6 (influence 23 / 33).
_SQUARE_WITNESSES: dict[int, tuple[Coord, ...]] = {
    4: ((1, 2), (2, 4), (3, 1), (4, 3)),
    5: ((1, 1), (1, 4), (3, 2), (3, 5), (5, 1), (5, 4)),
    6: ((1, 1), (1, 4), (2, 6), (3, 2), (4, 4), (5, 1), (5, 6), (6, 3)),
}


def fset_square_small(n: int) -> tuple[Coord, ...]:
    """Frozen maximum-influence 2-packings of the 4 x 4 (its perfect
    code), 5 x 5 and 6 x 6 grids."""
    require_n("square", n)
    return _SQUARE_WITNESSES[n]


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
    require_n("knight", n)
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
    contract the audit report of that set must meet.  The contract asks
    for a 2-packing whose influence is the closed-form F(n), so one with
    |V| - F(n) voids; ``knight`` asks for its lower bound, with every
    void on the outer boundary."""

    lattice: Callable[[int], Lattice]
    build: Callable[[int], tuple[Coord, ...]]
    contract: Callable[[int, DominationReport], bool]


def _reaches(influence: Callable[[int], int]) -> Callable[[int, DominationReport], bool]:
    return lambda n, report: report.is_two_packing and report.influence == influence(n)


def _knight_contract(n: int, report: DominationReport) -> bool:
    # The lower bound, with every void on the outer boundary.
    return _reaches(lower_bound_F)(n, report) and all(
        i in (1, n) or j in (1, n) for i, j in report.voids
    )


CONSTRUCTIONS: dict[str, Construction] = {
    "eds-p2": Construction(lambda n: rect(2, n), eds_pn_p2, _reaches(lambda n: 2 * n)),
    "p2-even": Construction(lambda n: rect(2, n), fset_pn_p2_even, _reaches(lambda n: 2 * n - 1)),
    "p3": Construction(
        lambda n: rect(3, n), fset_pn_p3, _reaches(lambda n: 7 if n == 3 else 3 * n - n // 3)
    ),
    "square": Construction(
        lambda n: rect(n, n), fset_square_small, _reaches({4: 16, 5: 23, 6: 33}.get)
    ),
    "knight": Construction(lambda n: rect(n, n), knight_construction, _knight_contract),
}
