"""Candidate vertex sets and their domination audit.

A *2-packing* is a vertex set whose members have pairwise disjoint closed
neighbourhoods, equivalently pairwise distance >= 3.  The audit counts how
many members dominate each vertex of the graph: *voids* are dominated by
nobody, *conflicts* by two or more.  A set is an *efficient dominating
set* (a perfect 1-code) when every vertex is dominated exactly once.

For a 2-packing the *influence* is sum(1 + deg v) over the members, which
equals the number of dominated vertices.  For a set that is not a
2-packing the influence reported here is the dominated-vertex count; the
raw weight sum is kept alongside so the discrepancy is visible.

A *graph* is any object with ``vertex_count`` and ``compiled``, its
:class:`~effdom.lattice.CompiledGraph` (row-major vertex order, vertex
ids and sorted neighbour ids): lattices as well as the pendant-augmented
graphs built by :mod:`effdom.constructions`.  The audit, the solvers and
the SVG renderer read adjacency only from ``compiled``.  Coverage is
counted and reported per vertex id: ``coverage[t]`` is the count of vertex
``order[t]``, where ``order`` is the audited graph's ``compiled.order``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from .lattice import Coord, Lattice

Vertex = Hashable


def _sort_key(v: Vertex):
    # Coords first, row-major; other vertex types (pendants) after, by their
    # numeric sort_hint when they define one, else by repr.
    if isinstance(v, tuple) and len(v) == 2 and all(isinstance(x, int) for x in v):
        return (0, v[0], v[1])
    hint = getattr(v, "sort_hint", None)
    return (1, type(v).__name__, repr(v) if hint is None else hint)


def normalize_set(members: Iterable[Vertex]) -> tuple[Vertex, ...]:
    """Canonical form of a vertex set: duplicate-free, row-major order."""
    unique = set(members)
    # A set of coords only (bools count as ints, as in _sort_key) is already
    # in row-major order when sorted as plain tuples, with no key calls.
    if all(
        isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], int) and isinstance(v[1], int)
        for v in unique
    ):
        return tuple(sorted(unique))
    return tuple(sorted(unique, key=_sort_key))


@dataclass(frozen=True)
class DominationReport:
    """Outcome of auditing a candidate set against a graph.

    ``order`` is the audited graph's ``compiled.order`` (the same list, not
    a copy) and ``coverage[t]`` counts the members that dominate vertex
    ``order[t]``; voids and conflicts are listed in id order."""

    order: list[Vertex]
    coverage: list[int]
    voids: tuple[Vertex, ...]
    conflicts: tuple[Vertex, ...]
    is_two_packing: bool
    is_eds: bool
    influence: int
    dominated_count: int
    weight_sum: int


def audit(graph: Any, members: Iterable[Vertex]) -> DominationReport:
    """Count dominators per vertex and classify the candidate set."""
    compiled = graph.compiled
    index = compiled.index
    # Members are deduplicated and ordered by id, not sorted as vertices;
    # ids in ascending order sweep the tables row by row.  Only an error
    # sorts vertices: it names the first foreign member in row-major order.
    members = tuple(members)
    ids = set(map(index.get, members))
    if None in ids:
        v = normalize_set(v for v in members if v not in index)[0]
        if isinstance(graph, Lattice) and isinstance(v, tuple):
            graph.require(v)  # raises InvalidCoordError naming the coord
        raise ValueError(f"{v!r} is not a vertex of the given graph")

    order = compiled.order
    counts = [0] * len(order)
    weight_sum = 0
    for t in sorted(ids):
        counts[t] += 1
        neighbours = compiled.adj[t]
        weight_sum += 1 + len(neighbours)
        for s in neighbours:
            counts[s] += 1

    voids = tuple([order[t] for t, c in enumerate(counts) if c == 0])
    conflicts = tuple([order[t] for t, c in enumerate(counts) if c >= 2])
    dominated = len(order) - len(voids)
    packing = not conflicts
    if packing and weight_sum != dominated:
        raise AssertionError("influence identity violated for a 2-packing")
    return DominationReport(
        order=order,
        coverage=counts,
        voids=voids,
        conflicts=conflicts,
        is_two_packing=packing,
        is_eds=packing and not voids,
        influence=weight_sum if packing else dominated,
        dominated_count=dominated,
        weight_sum=weight_sum,
    )


def transpose_set(members: Iterable[Coord]) -> tuple[Coord, ...]:
    """Mirror a coordinate set across the main diagonal: (i, j) -> (j, i)."""
    return normalize_set((j, i) for i, j in members)


# -- JSON forms --------------------------------------------------------------


def vertex_to_json(v: Vertex) -> Any:
    if isinstance(v, tuple):
        return [v[0], v[1]]
    to_json = getattr(v, "to_json", None)
    if to_json is not None:
        return to_json()
    raise TypeError(f"cannot serialize vertex {v!r}")


def set_from_json(obj: dict) -> tuple[Lattice, tuple[Coord, ...]]:
    if not isinstance(obj, dict) or "lattice" not in obj or "set" not in obj:
        raise ValueError('expected an object with "lattice" and "set" fields')
    if not isinstance(obj["lattice"], str):
        raise ValueError(f'"lattice" must be a descriptor string, got {obj["lattice"]!r}')
    if not isinstance(obj["set"], list):
        raise ValueError(f'"set" must be a list of [i, j] pairs, got {obj["set"]!r}')
    lattice = Lattice.from_descriptor(obj["lattice"])
    members = []
    for entry in obj["set"]:
        if not (
            isinstance(entry, list) and len(entry) == 2 and type(entry[0]) is int and type(entry[1]) is int
        ):
            raise ValueError(f"set entries must be [i, j] pairs, got {entry!r}")
        members.append((entry[0], entry[1]))
    return lattice, normalize_set(members)


def summary_to_json(report: DominationReport) -> dict:
    """Every field of ``report_to_json`` but the per-vertex coverage."""
    return {
        "is_two_packing": report.is_two_packing,
        "is_eds": report.is_eds,
        "influence": report.influence,
        "dominated_count": report.dominated_count,
        "weight_sum": report.weight_sum,
        "voids": [vertex_to_json(v) for v in report.voids],
        "conflicts": [vertex_to_json(v) for v in report.conflicts],
    }


def report_to_json(report: DominationReport) -> dict:
    return {
        **summary_to_json(report),
        # Coverage pairs are (vertex, count) tuples, which encode as arrays.  A
        # coordinate stays the tuple it is; only pendants need vertex_to_json.
        "coverage": [
            (v, c) if type(v) is tuple else (vertex_to_json(v), c)
            for v, c in zip(report.order, report.coverage)
        ],
    }
