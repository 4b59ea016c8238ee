"""Exact maximum-influence 2-packing solvers.

``brute_force_F`` is a depth-first backtracking oracle over any small
graph (lattice or pendant-augmented).  Vertex t in row-major order is
bit t: each closed neighbourhood is compiled once into an int mask, and
the search keeps the covered and chosen vertices as two ints.  It runs
without recursion: one loop walks the include-first spine inline and
keeps only the pending skip branches on an explicit stack, so nodes are
entered in the same order as the plain recursive search.  A node at
vertex t is cut unless its value plus the number of vertices that are
still uncovered and lie in some later closed neighbourhood beats the
best value so far.  The bound is admissible: the closed neighbourhoods
of later includes are disjoint, uncovered and inside that set, and each
adds its size.  So only branches that cannot strictly beat the best are
cut, the first optimum in include-first preorder is still entered, and F
and the witness are those of the plain search without cuts.

Every search grows from a base: nothing, or vertex 0 on a torus.  Every
torus lattice is vertex-transitive, so an automorphism maps some optimal
2-packing onto one that holds vertex 0.  The include-first preorder
enters that whole subtree before any node that skips vertex 0, so the
first optimum lies in it and the skip-0 subtree cannot strictly beat
it.  The nodes that hold the base alone form one path, a node per lead
candidate l, the next member after the base; each is the skip child of
the one before, and the include child of each runs through the loop.

The search also keeps an orbit rule from the lattice's point group,
which ``Lattice.point_maps`` generates; a vertex's lead is the smallest
id in its orbit.  The first optimum S* is the lex-leader of its orbit
under every automorphism g (Crawford, Ginsberg, Luks & Roy, KR 1996):
g(S*) is an optimum too, and an image g(u) below S*'s first member s1
would put g(S*) before S* in include-first preorder.  So on a bounded
board no member's lead is below s1, the candidate l.  On a rect or tri
torus every translation is an automorphism too, and the point maps fix
vertex 0: S* translated by minus a member u and mapped by g is an
optimum holding 0 and g(v - u) for each member v, so no two members
differ by an offset whose lead is below s2, the candidate l.  Either
way l leads its orbit, and S* obeys the rule and stays the first
optimum.

One plane encodes the rule.  ``near`` is the union of the orbits of the
leads the path has passed, the ids whose lead is below l, and bits
count..2 count - 1 of ``covered`` are the vertices the rule forbids:
vertex t's mask carries bit count + t, so the one test ``covered & mask``
checks the packing and the rule.  Choosing l puts near in the plane,
near translated to the base, and on a torus with translations each
member u adds near translated to u.  A lead's orbit is found, by a
closure over the generators, only once the path goes past it, and only
if that lead could join the base: a lead the base blocks lies within
distance 2 of vertex 0, like its whole orbit, so no two members differ
by an offset in it anyway.  Hex tori and pendant-augmented graphs have
no point map and no translation; there each orbit is its lead alone,
below every vertex the search still reaches.  ``explored`` counts the
search nodes entered under the bound and this rule.

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
only on C and on whether columns lie to its left and right.  The first
two columns need no step.  At the start only (0, 0) is reached, so after
column 1 a state (B, C) is reached exactly when B = 0 and holds the
weight of C; after column 2 every (B, C) takes its best value through
A = 0, which is disjoint from every C: the weight of B after column 1
plus that of C.  Both vectors are built in closed form, equal entry by
entry (unreached entries too) to the stepped ones, and every later
column is stepped.

Every board runs one sweep, ``_Transfer.sweep(count)``, over columns
1..count, each weighted as if a column lay to its right.  The sweep stops
once the slot vector repeats (max-plus cyclicity; Baccelli, Cohen, Olsder
& Quadrat, *Synchronization and Linearity*, 1992).  Columns 2..count
apply one max-plus operator T to a vector in which every state is
reached (column 2 by the closed form above, 3..count by a step), and
T(v + g) = T(v) + g for a constant g.  After each column from max(2, m)
to count - 1 the vector less its maximum is keyed in a dict; when the
vector after column c0 + p has the key of the one after c0, the vector
after every later column j is that after c0 + (j - c0) % p plus
g * ((j - c0) // p), where g is the difference of the two maxima (at
m = 10, c0 = 15 and p = 5).  Only columns through c0 + p - 1 are kept,
one ``array('i')`` each, and the sweep returns (c0, p, g), or
(count - 1, 1, 0) when nothing repeats, so it has produced the vectors
of c0 + p columns either way, columns 1 and 2 in closed form and the
rest by a step.  ``explored`` counts those slot values, len(canonical)
for each of the c0 + p columns.

``dp_F_rect`` sweeps the shorter side: an m x n grid with m <= n, the
transpose of the board when it has more rows than columns, whose witness
is mapped back before its audit.  It joins the sweep at columns k - 1
and k, k = (n + 2) // 2.  A grid is left-right symmetric, so its columns
k - 1..n read from right to left are columns 1..k2 of the same sweep,
where k2 = n - k + 2, which is k for even n and k + 1 for odd n.  One
sweep over columns 1..k2 gives both vectors, and F is the largest
fwd_k[A, B] + fwd_k2[B, A] - w(A) - w(B) over the canonical pairs, where
w weights a mask with a column on each side.  Both parts count the
shared columns k - 1 and k, so their weights are taken off once.  Each
part weights a column as interior except its own column 1, which is a
board edge, and a mask's weight is linear in its neighbouring columns,
so the difference is exact at the edges too.  Columns k - 2 and k + 1
are three apart, so the join needs no other constraint.  Column j's kept
vector is less g * max(0, (j - c0) // p), and both shifts are added to
the joined maximum.  The witness joins a walk from (A, B) over columns
1..k with a mirrored walk from (B, A) over columns 1..k2 and is audited.

Witnesses are rebuilt by a right-to-left walk that recomputes one
back-pointer per column, the full predecessor with the largest value and
the smallest A, exactly the choice a sweep over all states would store.
Past c0 the walk reads the reduced vectors: a constant added to a column
changes neither its largest value's position nor the smallest-A
tie-break, so the walk is the one the unreduced vectors give.  Those
columns share p kept arrays, so a back-pointer, once computed for a
state and an array, is looked up, not recomputed (a walk over all
200 000 columns of a 1 x 200000 strip falls from 0.30-0.44 to 0.07-0.09
s CPU, 2-vCPU box).

Keying starts at column max(2, m): a key (maximum, shifted ``array``,
bytes) costs a sixth of a column step at m = 16 (1.5 of 9.3 ms) and a
quarter at m = 10 (``time.process_time``, 2-vCPU Xeon), and no height
from 1 to 16 repeats before column m (c0 = 2, 2, 10, 16, 30, 11, 12,
14, 14, 15, 16, 15, 16, 18, 20, 21).  An n x n square's half sweep has
k2 = (n + 1) // 2 + 1 <= n columns, so a square keys no slot vector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from .constructions import lower_bound_F
from .lattice import MAX_VERTICES, Lattice, LatticeKind, rect
from .packing import Vertex, audit, normalize_set, transpose_set

BRUTE_FORCE_LIMIT = 49
DP_WIDTH_LIMIT = 16


@dataclass(frozen=True)
class SolveResult:
    """An exact F and an audited witness of it.

    ``explored`` counts the search nodes entered for ``brute_force_F``:
    the path of lead candidates that starts at its base, the root or on
    a torus the include-vertex-0 child, and every node entered below it
    under the bound and the orbit rule (see the ``solver`` module
    docstring).
    For ``dp_F_rect`` it counts the slot values the sweep produced,
    len(canonical) for each column whose vector is produced: columns 1
    and 2, built in closed form, and every later swept column, stepped.
    The sweep crosses the shorter side and runs to the middle of the
    longer one, or to the first repeat of its slot vector if sooner.
    ``elapsed`` is the wall time in seconds from entry, after the
    limit checks, until the witness is built, before its audit.
    """

    f_value: int
    witness: tuple[Vertex, ...]
    explored: int
    elapsed: float


# -- backtracking oracle ------------------------------------------------------


def brute_force_F(graph: Any, limit: int = BRUTE_FORCE_LIMIT) -> SolveResult:
    """Exact F of a graph (see :mod:`effdom.packing`) by depth-first
    search over vertices in row-major order.

    A node at vertex t is cut when its value plus the count of vertices
    that are uncovered and lie in some closed neighbourhood of a vertex
    >= t cannot beat the best influence found so far.  Later includes
    dominate disjoint sets of such vertices, so the count bounds what the
    branch can still add, and no branch holding a strictly better set is
    cut.  The witness is therefore the first optimum in include-before-skip
    preorder, as without any cut.

    The search grows from a base, nothing or on a torus lattice vertex 0,
    along one path of lead candidates, and keeps the orbit rule of the
    module docstring in one forbidden plane.  The base keeps the first
    optimum only while ``test_torus_maps_every_vertex_to_zero`` in
    ``tests/test_solver.py`` maps each torus vertex to vertex 0 by an
    automorphism.  The rule keeps it only while
    ``test_point_maps_are_automorphisms`` finds that each listed map is
    a bijection of the ids that maps ``compiled.adj`` onto itself, and on
    a torus fixes vertex 0, and while
    ``test_torus_translations_are_automorphisms`` finds that every
    translation maps the rect and tri tori onto themselves.
    """
    count = graph.vertex_count
    if count > limit:
        raise ValueError(
            f"{count} vertices exceeds the brute-force limit {limit}; "
            "use dp_F_rect for rectangular grids or raise the limit"
        )
    t0 = time.perf_counter()
    compiled = graph.compiled
    order = compiled.order
    weights = [1 + len(neighbours) for neighbours in compiled.adj]
    # Vertex t is bit t; closed[t] is the closed neighbourhood of t as a
    # mask, and marked[t] adds bit count + t, t's place in the plane.
    closed = []
    for t, neighbours in enumerate(compiled.adj):
        mask = 1 << t
        for s in neighbours:
            mask |= 1 << s
        closed.append(mask)
    marked = [mask | 1 << count + t for t, mask in enumerate(closed)]
    # reach[t] is the OR of closed[s] for s >= t: every vertex that some
    # later include could still dominate.
    reach = [0] * (count + 1)
    for t in range(count - 1, -1, -1):
        reach[t] = reach[t + 1] | closed[t]

    torus = isinstance(graph, Lattice) and graph.torus
    maps = graph.point_maps() if isinstance(graph, Lattice) else []
    translate = None
    if torus:
        first, base_value, base, base_chosen = 1, weights[0], closed[0], 1
        if graph.kind is not LatticeKind.HEXAGONAL:
            translate = _translator(graph.cols, count)
    else:
        first = base_value = base = base_chosen = 0
    best_value, best_chosen = base_value, base_chosen
    # cover[t] is what including t ORs into covered: marked[t], and on a
    # torus with translations near translated to t, built once per lead.
    cover = marked
    near = explored = 0
    owed = None
    # Each entry is a skip branch still to enter: (t, value, covered, chosen).
    stack = []
    push = stack.append
    pop = stack.pop
    for lead in range(first, count + 1):
        # Node (lead, base), the skip child of the one before.
        explored += 1
        if base_value + (reach[lead] & ~base).bit_count() <= best_value:
            break
        # The last lead that joined the base is owed: its orbit joins near
        # once the path goes past it, so the last candidate's never does.
        if owed is not None:
            for u in _orbit(maps, owed):
                near |= 1 << u
            owed = None
        if near >> lead & 1 or base & closed[lead]:
            continue
        owed = lead
        if translate:
            cover = [0] * count
            cover[lead] = marked[lead] | translate(near, lead) << count
        value = base_value + weights[lead]
        chosen = base_chosen | 1 << lead
        if value > best_value:
            best_value = value
            best_chosen = chosen
        push((lead + 1, value, base | near << count | cover[lead], chosen))
        # The loop stays in this function: CPython 3.11 specialises a
        # function's bytecode after a few entries or `for` iterations, not
        # `while` iterations, so a helper called once would run this loop
        # unspecialised (rect:8x8 7.0 -> 9.6 ms, 2-vCPU box).
        while stack:
            t, value, covered, chosen = pop()
            # Walk the include-first spine: the popped node and each step
            # to t + 1 enter one node, so the walk enters 1 + (final t -
            # popped t) nodes.  A failed loop test prunes the node just
            # entered; reach[count] is 0 and value never exceeds
            # best_value, so the spine also ends after the last vertex.
            explored += 1 - t
            while value + (reach[t] & ~covered).bit_count() > best_value:
                mask = marked[t]
                # Chosen closed neighbourhoods are disjoint, so t can join
                # exactly when none of its closed neighbourhood is covered
                # and its bit of the plane is clear.
                if not covered & mask:
                    push((t + 1, value, covered, chosen))
                    spread = cover[t]
                    if not spread:
                        spread = cover[t] = mask | translate(near, t) << count
                    covered |= spread
                    chosen |= 1 << t
                    value += weights[t]
                    # Only an include raises the value; a skip child keeps
                    # its parent's value, which never beats best_value.
                    if value > best_value:
                        best_value = value
                        best_chosen = chosen
                t += 1
            explored += t

    # Compiled order is row-major with pendants last, the order of
    # normalize_set, so the members are listed as read.
    witness = tuple(v for t, v in enumerate(order) if best_chosen >> t & 1)
    elapsed = time.perf_counter() - t0
    report = audit(graph, witness)
    if not report.is_two_packing or report.influence != best_value:
        raise AssertionError("brute-force witness failed its audit")
    return SolveResult(f_value=best_value, witness=witness, explored=explored, elapsed=elapsed)


def _orbit(maps: list[list[int]], t: int) -> list[int]:
    """The ids of t's orbit under the group that ``maps`` generate."""
    orbit = [t]
    for u in orbit:
        for image in maps:
            v = image[u]
            if v not in orbit:
                orbit.append(v)
    return orbit


def _translator(cols: int, count: int) -> Any:
    """translate(x, t): the id mask x moved by the translation that takes
    vertex 0 to vertex t, on a rect or tri torus of count vertices in rows
    of cols."""
    low = (1 << count) - 1
    # Column 0 of every row; a translate by (a, b) rotates each row by b,
    # then the rows by a.
    first = sum(1 << i for i in range(0, count, cols))
    wraps = [(first * ((1 << cols - b) - 1), first * ((1 << b) - 1)) for b in range(cols)]

    def translate(x: int, t: int) -> int:
        a, b = divmod(t, cols)
        keep, wrap = wraps[b]
        x = (x & keep) << b | x >> cols - b & wrap
        return (x << a * cols | x >> count - a * cols) & low

    return translate


# -- column-profile dynamic program -------------------------------------------


def _spaced_masks(m: int, free: int) -> list[int]:
    """Row subsets of free in a height-m column with pairwise gaps >= 3,
    ascending."""
    # Before row h is added, within[-1] lists the masks below row h.  A
    # mask holding row h extends one below row h - 2 (within[-3]) and sorts
    # after every mask below row h.
    within = [[0], [0], [0]]
    for h in range(m):
        if free >> h & 1:
            within.append(within[-1] + [M | 1 << h for M in within[-3]])
        else:
            within.append(within[-1])
    return within[-1]


class _Transfer:
    """The column transfer of a height-m grid.

    ``compat[B]`` lists the spaced column masks allowed next to B,
    ascending, and ``interior`` weights each mask with a column on both
    sides.  ``slot_of[A][B]`` numbers the valid pair (A, B) by its
    reflection orbit and ``canonical`` lists each orbit's smaller pair in
    slot order.  ``steps`` holds, per middle mask
    B, the slots of B's full predecessors (A, B) ascending in A, the A
    themselves, and the C of every canonical target (B, C); the steps in
    mask order list the targets in slot order.
    """

    def __init__(self, m: int):
        self.m = m
        full = (1 << m) - 1
        masks = _spaced_masks(m, full)
        # Masks allowed in the next column: picked rows differ by >= 2.  The
        # relation is symmetric, so compat[B] also lists the A that may
        # precede B.
        compat = self.compat = {
            B: _spaced_masks(m, full & ~(B | B << 1 | B >> 1)) for B in masks
        }

        # Reflecting the rows maps (A, B) to (rev A, rev B) and keeps weights
        # and compatibility, so both always hold the same value: the sweep
        # keeps one slot per orbit.  Going through the valid pairs in sorted
        # order numbers the slots by their canonical (smaller) pair, and a
        # pair whose twin came first shares the twin's slot.  The twin
        # (rev A, rev B) comes first for every B when rev A < A, for none
        # when rev A > A, and when rev B < B if A is its own reflection.
        rev = {A: int(f"{A:0{m}b}"[::-1], 2) for A in masks}
        slot_of = self.slot_of = {}
        canonical = self.canonical = []
        targets = {}
        for A in masks:
            Bs = compat[A]
            if rev[A] < A:
                twin = slot_of[rev[A]]
                slot_of[A] = dict(zip(Bs, map(twin.__getitem__, map(rev.__getitem__, Bs))))
                continue
            own = Bs if rev[A] > A else [B for B in Bs if B <= rev[B]]
            start = len(canonical)
            row = slot_of[A] = dict(zip(own, range(start, start + len(own))))
            canonical.extend([(A, B) for B in own])
            targets[A] = own
            if rev[A] == A:
                row.update((B, row[rev[B]]) for B in Bs if rev[B] < B)

        self.steps = [
            ([slot_of[A][B] for A in compat[B]], compat[B], Cs) for B, Cs in targets.items()
        ]
        self.interior = self.mask_weights(True)

    def mask_weights(self, left: bool) -> dict[int, int]:
        """1 + degree summed over each mask's rows, given whether a column
        lies left of it; one lies right of it, as in every swept column."""
        # A row has 4 + left neighbours and itself, less one at each end of
        # the column (m = 1: the row is both ends).
        top, per_row = self.m - 1, 4 + left
        return {C: per_row * C.bit_count() - (C & 1) - (C >> top & 1) for C in self.compat}

    def weights(self, cw: dict[int, int]) -> list[list[int]]:
        """The target weights of every step from the mask weights ``cw``."""
        return [[cw[C] for C in Cs] for _, _, Cs in self.steps]

    def step(self, val: Any, column: list[list[int]]) -> list[int]:
        """Slot values after one column with step weights ``column``, from
        the values ``val`` after the column before."""
        score = val.__getitem__
        out = []
        append = out.append
        for (slots, As, Cs), ws in zip(self.steps, column):
            # B's full predecessors, best first; each target (B, C) takes
            # the first one whose A is disjoint from C (A = 0 always is).
            ranked = sorted(zip(map(score, slots), As), reverse=True)
            for C, w in zip(Cs, ws):
                for v, A in ranked:
                    if not A & C:
                        append(v + w)
                        break
        return out

    def sweep(self, count: int) -> tuple[list[Any], tuple[int, int, int]]:
        """Slot values after columns 1..count from the start state (0, 0),
        each column weighted as if a column lay to its right, swept until
        the interior vector repeats (see the module docstring).

        Returns ``(values, (c0, p, g))``: entry c of ``values`` is one
        ``array('i')`` of the slot values after column c less
        g * ((c - c0) // p), and ``(count - 1, 1, 0)`` means nothing
        repeated.  Either way the vectors of c0 + p columns were produced:
        columns 1 and 2 in closed form, every later one by ``step``.
        """
        # Imported here, not at the top: loading the array extension adds
        # about 0.2 MB of resident memory to every process, also those that
        # never run the DP (oracle, audit and render commands).
        from array import array

        # Unreached states start low enough to stay negative after count + 1
        # columns of at most 5 per row, so none beats a reached state.
        low = -1 - 5 * self.m * (count + 1)
        val = [low] * len(self.canonical)
        val[0] = 0
        values = [array("i", val)]
        edge = self.mask_weights(False)
        interior = self.interior
        inner = self.weights(interior)
        # Each interior vector less its maximum from column m on, keyed to
        # its first column; a repeat after column count would save no column.
        seen = {}
        first = max(2, self.m)
        for c in range(1, count + 1):
            if c == 1:
                # Only (0, 0) is reached at the start, so after column 1
                # (B, C) is reached exactly when B = 0.
                val = [(0 if B == 0 else low) + edge[C] for B, C in self.canonical]
            elif c == 2:
                # Every (B, C) is reached through A = 0, which is disjoint
                # from every C, and A = 0 holds the best value after column 1.
                val = [edge[B] + interior[C] for B, C in self.canonical]
            else:
                val = self.step(val, inner)
            if first <= c < count:
                top = max(val)
                c0 = seen.setdefault(array("i", map((-top).__add__, val)).tobytes(), c)
                if c0 < c:
                    p, g = c - c0, top - max(values[c0])
                    values += [values[c0 + (j - c0) % p] for j in range(c, count + 1)]
                    return values, (c0, p, g)
            values.append(array("i", val))
        return values, (count - 1, 1, 0)

    def walk(self, values: list[Any], state: tuple[int, int]) -> list[int]:
        """Column masks of an optimal path that ends in ``state`` after
        column c = len(values) - 1, indexed by column (entry 0 is 0).

        Walks right to left, recomputing one back-pointer per column: the
        first full predecessor, in ascending A, with the largest value.
        Past c0 the columns share p kept arrays, so a back-pointer, once
        computed for a state and the array it reads, is looked up.
        """
        compat, slot_of = self.compat, self.slot_of
        column_masks = [0] * len(values)
        # Keyed by the array's id: every array in values outlives the walk.
        known = {}
        for c in range(len(values) - 1, 0, -1):
            B, C = state
            column_masks[c] = C
            before = values[c - 1]
            key = id(before), state
            A = known.get(key)
            if A is None:
                A = known[key] = max(
                    (A for A in compat[B] if not A & C), key=lambda A: before[slot_of[A][B]]
                )
            state = A, B
        return column_masks

    def witness(self, column_masks: list[int], transpose: bool) -> tuple[Vertex, ...]:
        """The picked cells (row, column) of ``column_masks``, each as
        (column, row) when ``transpose``."""
        cells = [
            (r + 1, c) for c, C in enumerate(column_masks) for r in range(C.bit_length()) if C >> r & 1
        ]
        return transpose_set(cells) if transpose else normalize_set(cells)


def dp_F_rect(rows: int, cols: int, width_limit: int = DP_WIDTH_LIMIT) -> SolveResult:
    """Exact F and an audited witness of the bounded rows x cols grid via
    the column-profile DP, swept across its shorter side and joined at the
    middle columns of its longer one (see the module docstring)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    # F is transpose-invariant: the sweep crosses the shorter side, m rows.
    m, n = sorted((rows, cols))
    if m > width_limit:
        raise ValueError(
            f"the shorter side of the {rows}x{cols} grid has {m} rows, "
            f"more than the DP width limit {width_limit}; raise the limit"
        )
    # Building the board checks MAX_VERTICES before any column is swept.
    board = rect(rows, cols)
    t0 = time.perf_counter()
    transfer = _Transfer(m)
    canonical, slot_of, w = transfer.canonical, transfer.slot_of, transfer.interior
    # The left part is columns 1..k; the right part, columns k - 1..n read
    # from right to left, is columns 1..k2 of the same sweep, and k2 >= k.
    k = (n + 2) // 2
    k2 = n - k + 2
    values, (c0, p, g) = transfer.sweep(k2)
    # Both parts count the shared columns k - 1 and k; each weights them as
    # interior unless they are its column 1, a board edge.
    fwd, bwd = values[k], values[k2]
    joined = [fwd[s] + bwd[slot_of[B][A]] - w[A] - w[B] for s, (A, B) in enumerate(canonical)]
    top = max(joined)
    # The canonical pair is the smaller of its orbit, so the first maximal
    # slot holds the first maximal pair in sorted order.
    A, B = canonical[joined.index(top)]
    best_value = top + g * (max(0, (k - c0) // p) + max(0, (k2 - c0) // p))

    # The left walk gives columns 0..k; the right walk, reversed, gives
    # columns k - 1..n, so the left's last two columns are dropped.
    left = transfer.walk(values[: k + 1], (A, B))
    right = transfer.walk(values[: k2 + 1], (B, A))
    witness = transfer.witness(left[: k - 1] + right[:0:-1], rows > cols)
    elapsed = time.perf_counter() - t0
    explored = len(canonical) * (c0 + p)

    report = audit(board, witness)
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
    """Compare the DP value of each n x n grid against the conjectured F,
    the bound ``lower_bound_F(n)``.

    The DP value is ``dp_F_rect``'s: like every board, a square is swept
    over about half its columns and joined in the middle, which keys no
    slot vector on a square, and the value is backed by an audited
    witness.  Squares wider than the DP limit are reported with
    ``dp_value=None`` (unverified), never guessed.  The same rows give the
    void view: n^2 - conjectured is the predicted void count and
    n^2 - dp_value the exact one, so ``matches`` holds in both views at
    once.  A range whose largest square has more than ``MAX_VERTICES``
    vertices is rejected before any square is solved.
    """
    if hi > 0 and hi * hi > MAX_VERTICES:
        raise ValueError(
            f"the {hi}x{hi} square has {hi * hi} vertices, more than the limit {MAX_VERTICES}"
        )
    rows = []
    for n in range(lo, hi + 1):
        target = lower_bound_F(n)
        if n <= width_limit:
            value = dp_F_rect(n, n, width_limit).f_value
            rows.append(ConjectureRow(n, target, value, value == target))
        else:
            rows.append(ConjectureRow(n, target, None, None))
    return rows
