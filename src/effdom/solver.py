"""Exact maximum-influence 2-packing solvers.

``brute_force_F`` is a depth-first backtracking oracle over any small
graph (lattice or pendant-augmented).  Vertex t in row-major order is
bit t: each closed neighbourhood is compiled once into an int mask, and
the search keeps the covered and chosen vertices as two ints.  It runs
as one loop without recursion: the loop walks the include-first spine
inline and keeps only the pending skip branches on an explicit stack,
so nodes are entered in the same order as the plain recursive search.
Its ``explored`` counts the search nodes entered.

``dp_F_rect`` sweeps a bounded rectangular grid column by column with a
two-column bitmask profile:

* inside one column, picked rows must be >= 3 apart;
* between adjacent columns, picked rows must differ by >= 2;
* between columns two apart, picked rows must differ (disjoint masks).

Columns three or more apart are already at distance >= 3, so the
two-column profile captures the 2-packing condition exactly.  The
objective adds 1 + deg for every picked vertex with true boundary
degrees, which for a 2-packing equals the number of dominated vertices.

The sweep is a max-plus transfer-matrix product over the valid (A, B)
column pairs (Alanko, Crevals, Isopoussu, Östergård & Pettersson, EJC
2011); (A, B) precedes (B, C) when A & C == 0.  Weights and
compatibility are symmetric top to bottom, so (A, B) and its row
reflection (rev A, rev B) always hold the same value, and the sweep
keeps one integer slot per reflection orbit, numbered in the sorted
order of the canonical pair, the smaller of the two (12 693 of 25 281
states at m = 16).  No predecessor list is stored: compat is
symmetric, so B's predecessors are the (A, B) with A in compat[B].
Each column goes through each middle mask B once: it ranks B's full
predecessors by value, highest first, and every canonical target (B, C)
takes the first ranked A with A & C == 0 plus a weight that depends
only on C and on whether columns lie to its left and right.  The slot
values of every column are kept as one ``array('i')``.

``explored`` counts the transitions out of reached full states, summed
over the columns.  Column 1 reaches every (0, C) and column 2 every
valid pair, so it is fixed before the sweep starts:
len(masks) + (n > 1) * P + max(n - 2, 0) * T, where P counts the valid
pairs and T the valid (A, B, C) with A & C == 0 (one bitset over
compat[B] per row gives the C that each A excludes).  Witnesses are
rebuilt by a right-to-left walk that recomputes one back-pointer per
column, the full predecessor with the largest value and the smallest
A, exactly the choice a sweep over all states would store, and are
audited before returning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from .constructions import conjectured_F
from .lattice import MAX_VERTICES, rect
from .packing import Vertex, audit, normalize_set

BRUTE_FORCE_LIMIT = 49
DP_WIDTH_LIMIT = 16


@dataclass(frozen=True)
class SolveResult:
    f_value: int
    witness: tuple[Vertex, ...]
    explored: int
    elapsed: float


# -- backtracking oracle ------------------------------------------------------


def brute_force_F(graph: Any, limit: int = BRUTE_FORCE_LIMIT) -> SolveResult:
    """Exact F by depth-first search over vertices in row-major order.

    Prunes any branch whose optimistic completion cannot beat the best
    influence found so far; the witness is the first optimum reached,
    which the include-before-skip order makes deterministic.
    """
    count = graph.vertex_count
    if count > limit:
        raise ValueError(
            f"{count} vertices exceeds the brute-force limit {limit}; "
            "use dp_F_rect for rectangular grids or raise the limit"
        )
    compiled = graph.compiled
    order = compiled.order
    weights = [1 + len(neighbours) for neighbours in compiled.adj]
    # Vertex t is bit t; closed[t] is the closed neighbourhood of t as a mask.
    closed = []
    for t, neighbours in enumerate(compiled.adj):
        mask = 1 << t
        for s in neighbours:
            mask |= 1 << s
        closed.append(mask)
    suffix = [0] * (count + 1)
    for t in range(count - 1, -1, -1):
        suffix[t] = suffix[t + 1] + weights[t]

    t0 = time.perf_counter()

    # The root (no vertex chosen, value 0) is the first optimum reached.
    best_value = 0
    best_chosen = 0
    explored = 0
    # Each entry is a skip branch still to enter: (t, value, covered, chosen).
    stack = [(0, 0, 0, 0)]
    push = stack.append
    pop = stack.pop
    while stack:
        t, value, covered, chosen = pop()
        # Walk the include-first spine: the popped node and each step to
        # t + 1 enter one node, so the walk enters 1 + (final t - popped t)
        # nodes.  A failed loop test prunes the node just entered;
        # value + suffix[count] never exceeds best_value, so the spine also
        # ends after the last vertex.
        explored += 1 - t
        while value + suffix[t] > best_value:
            mask = closed[t]
            # Chosen closed neighbourhoods are disjoint, so t can join
            # exactly when none of its closed neighbourhood is covered.
            if not covered & mask:
                push((t + 1, value, covered, chosen))
                covered |= mask
                chosen |= 1 << t
                value += weights[t]
                # Only an include raises the value; a skip child keeps its
                # parent's value, which never beats best_value.
                if value > best_value:
                    best_value = value
                    best_chosen = chosen
            t += 1
        explored += t

    witness = normalize_set(v for t, v in enumerate(order) if best_chosen >> t & 1)
    elapsed = time.perf_counter() - t0
    report = audit(graph, witness)
    if not report.is_two_packing or report.influence != best_value:
        raise AssertionError("brute-force witness failed its audit")
    return SolveResult(f_value=best_value, witness=witness, explored=explored, elapsed=elapsed)


# -- column-profile dynamic program -------------------------------------------


def _spaced_masks(m: int) -> list[int]:
    """Row subsets of a height-m column with pairwise gaps >= 3."""
    return [
        mask
        for mask in range(1 << m)
        if not (mask & (mask << 1)) and not (mask & (mask << 2))
    ]


def _bits(mask: int) -> list[int]:
    return [r for r in range(mask.bit_length()) if mask >> r & 1]


def dp_F_rect(rows: int, cols: int, width_limit: int = DP_WIDTH_LIMIT) -> SolveResult:
    """Exact F of the bounded rows x cols grid via the column-profile DP."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    if rows > width_limit:
        raise ValueError(
            f"{rows} rows exceeds the DP width limit {width_limit}; "
            "swap the dimensions (F is transpose-invariant) or raise the limit"
        )
    # Imported here, not at the top: loading the array extension adds about
    # 0.2 MB of resident memory to every process, also those that never run
    # the DP (oracle, audit and render commands).
    from array import array

    m, n = rows, cols
    t0 = time.perf_counter()

    masks = _spaced_masks(m)
    rows_of = {M: _bits(M) for M in masks}
    full = (1 << m) - 1
    # Masks allowed in the next column: picked rows differ by >= 2.  The
    # relation is symmetric, so compat[B] also lists the A that may precede B.
    near = {B: (B | (B << 1) | (B >> 1)) & full for B in masks}
    compat = {B: [C for C in masks if not C & blocked] for B, blocked in near.items()}

    # Reflecting the rows maps (A, B) to (rev A, rev B) and keeps weights and
    # compatibility, so both always hold the same value: the sweep keeps one
    # slot per orbit.  Going through the valid pairs in sorted order numbers
    # the slots by their canonical (smaller) pair, and a pair whose twin came
    # first shares the twin's slot.
    rev = {A: int(f"{A:0{m}b}"[::-1], 2) for A in masks}
    slot: dict[tuple[int, int], int] = {}
    canonical: list[tuple[int, int]] = []
    for A in masks:
        for B in compat[A]:
            twin = (rev[A], rev[B])
            if twin in slot:
                slot[A, B] = slot[twin]
            else:
                slot[A, B] = len(canonical)
                canonical.append((A, B))

    # Column 1 leaves (0, 0) for every (0, C) and column 2 leaves each (0, B)
    # for every (B, C), so every later column leaves every state (A, B) for
    # the (B, C) with A & C == 0.  by_row[r] marks, as bits over compat[B],
    # the C holding row r; the OR over A's rows marks the C that A excludes.
    explored = len(masks) + (n > 1) * len(slot)
    if n > 2:
        triples = 0
        for Cs in compat.values():
            by_row = [0] * m
            for k, C in enumerate(Cs):
                for r in rows_of[C]:
                    by_row[r] |= 1 << k
            for A in Cs:
                excluded = 0
                for r in rows_of[A]:
                    excluded |= by_row[r]
                triples += len(Cs) - excluded.bit_count()
        explored += (n - 2) * triples

    # Each column goes through each middle mask B once.  A step holds the
    # slots of B's full predecessors (A, B), ascending in A, and the C of
    # every canonical target (B, C); the steps in mask order list the
    # targets in slot order.
    steps = []
    for B, As in compat.items():
        Cs = [C for C in As if (B, C) <= (rev[B], rev[C])]
        if Cs:
            steps.append(([slot[A, B] for A in As], As, Cs))

    def weights_for(left: bool, right: bool) -> list[list[int]]:
        # 1 + degree per row, given whether a column lies left and right.
        per_row = [1 + (r > 0) + (r < m - 1) + left + right for r in range(m)]
        cw = {C: sum(per_row[r] for r in rows_of[C]) for C in masks}
        return [[cw[C] for C in Cs] for _, _, Cs in steps]

    # Columns 1, 2 and n meet every (left, right) the sweep needs.
    column_weights = {key: weights_for(*key) for key in {(c > 1, c < n) for c in (1, min(2, n), n)}}

    # Unreached states start far enough below zero to stay negative after
    # n columns of weights (each at most 5 per row), so no value built on
    # one beats a reached state.  The start state (0, 0) has slot 0.
    val = [-1 - 5 * m * n] * len(canonical)
    val[0] = 0
    # values[c] holds the slot values after column c.
    values = [array("i", val)]
    for c in range(1, n + 1):
        score = val.__getitem__
        val = []
        append = val.append
        for (slots, As, Cs), ws in zip(steps, column_weights[c > 1, c < n]):
            # B's full predecessors, best first; each target (B, C) takes
            # the first one whose A is disjoint from C (A = 0 always is).
            ranked = sorted(zip(map(score, slots), As), reverse=True)
            for C, w in zip(Cs, ws):
                for v, A in ranked:
                    if not A & C:
                        append(v + w)
                        break
        values.append(array("i", val))

    best_value = max(val)
    # The canonical pair is the smaller of its orbit, so the first maximal
    # slot holds the first maximal pair in sorted order.
    state = canonical[val.index(best_value)]

    # Walk right to left, recomputing one back-pointer per column: the first
    # full predecessor, in ascending A, with the largest value.
    column_masks = [0] * (n + 1)
    for c in range(n, 0, -1):
        B, C = state
        column_masks[c] = C
        before = values[c - 1]
        state = max(((A, B) for A in compat[B] if not A & C), key=lambda s: before[slot[s]])
    witness = normalize_set(
        (r + 1, c) for c in range(1, n + 1) for r in rows_of[column_masks[c]]
    )
    elapsed = time.perf_counter() - t0

    report = audit(rect(m, n), witness)
    if not report.is_two_packing or report.influence != best_value:
        raise AssertionError("DP witness failed its audit")
    return SolveResult(f_value=best_value, witness=witness, explored=explored, elapsed=elapsed)


# -- conjecture table ---------------------------------------------------------


@dataclass(frozen=True)
class ConjectureRow:
    n: int
    conjectured: int
    dp_value: int | None
    matches: bool | None


def check_conjecture(
    lo: int, hi: int, width_limit: int = DP_WIDTH_LIMIT
) -> list[ConjectureRow]:
    """Compare the DP value of each n x n grid against the conjectured F.

    Squares wider than the DP limit are reported with ``dp_value=None``
    (unverified), never guessed.  The same rows give the void view:
    n^2 - conjectured is the predicted void count and n^2 - dp_value the
    exact one, so ``matches`` holds in both views at once.  A range whose
    largest square has more than ``MAX_VERTICES`` vertices is rejected
    before any square is solved.
    """
    if hi > 0 and hi * hi > MAX_VERTICES:
        raise ValueError(
            f"the {hi}x{hi} square has {hi * hi} vertices, more than the limit {MAX_VERTICES}"
        )
    rows = []
    for n in range(lo, hi + 1):
        target = conjectured_F(n)
        if n <= width_limit:
            value = dp_F_rect(n, n, width_limit=width_limit).f_value
            rows.append(ConjectureRow(n, target, value, value == target))
        else:
            rows.append(ConjectureRow(n, target, None, None))
    return rows
