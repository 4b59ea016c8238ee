"""Shared test helpers: independent oracles kept separate from the package."""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import deque

from effdom.lattice import Lattice, LatticeKind
from effdom.packing import normalize_set

# Axial offsets of a triangular lattice's six neighbours.
AXIAL_OFFSETS = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0))


def reference_neighbors(lattice, v):
    """Adjacent vertices by the per-call rule: list the kind's candidate
    offsets, wrap them on a torus or drop those off a bounded patch, then
    deduplicate and sort.  Kept as the oracle for ``Lattice.compiled``."""
    lattice.require(v)
    i, j = v
    if lattice.kind is LatticeKind.RECTANGULAR:
        candidates = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
    elif lattice.kind is LatticeKind.TRIANGULAR:
        candidates = [(i + di, j + dj) for di, dj in AXIAL_OFFSETS]
    else:
        vertical = (i + 1, j) if (i + j) % 2 == 0 else (i - 1, j)
        candidates = [(i, j - 1), (i, j + 1), vertical]
    out = []
    for u in candidates:
        if lattice.torus:
            out.append(((u[0] - 1) % lattice.rows + 1, (u[1] - 1) % lattice.cols + 1))
        elif lattice.contains(u):
            out.append(u)
    return tuple(sorted(set(out)))


def compiled_neighbors(graph, v):
    """The package's own neighbours of v, read from ``graph.compiled``: not
    an oracle, but what the tests of that adjacency assert on."""
    compiled = graph.compiled
    return tuple(compiled.order[s] for s in compiled.adj[compiled.index[v]])


def reference_adjacency(graph):
    """Each vertex of a graph, row-major, mapped to its sorted neighbours.
    A lattice's come from ``reference_neighbors``, so the oracles below
    never read ``Lattice.compiled``; a pendant graph's come from its
    ``compiled`` tables, whose base part the lattice tests check."""
    if isinstance(graph, Lattice):
        return {v: reference_neighbors(graph, v) for v in graph.vertices()}
    order = graph.compiled.order
    return {v: tuple(order[s] for s in ids) for v, ids in zip(order, graph.compiled.adj)}


def _bfs(adjacency, u, v):
    if u == v:
        return 0
    seen = {u}
    queue = deque([(u, 0)])
    while queue:
        w, d = queue.popleft()
        for x in adjacency[w]:
            if x == v:
                return d + 1
            if x not in seen:
                seen.add(x)
                queue.append((x, d + 1))
    return None


def bfs_distance(graph, u, v):
    """Plain BFS shortest path, independent of any closed-form distance."""
    return _bfs(reference_adjacency(graph), u, v)


def pairwise_distances_ok(graph, members, minimum=3):
    """Pairwise distance >= minimum; unreachable pairs count as satisfied."""
    adjacency = reference_adjacency(graph)
    for u, v in itertools.combinations(list(members), 2):
        d = _bfs(adjacency, u, v)
        if d is not None and d < minimum:
            return False
    return True


def greedy_random_packing(graph, rng: random.Random):
    """A random maximal 2-packing: shuffled greedy insertion."""
    adjacency = reference_adjacency(graph)
    order = list(adjacency)
    rng.shuffle(order)
    coverage = dict.fromkeys(adjacency, 0)
    chosen = []
    for v in order:
        closed = [v, *adjacency[v]]
        if all(coverage[x] == 0 for x in closed):
            chosen.append(v)
            for x in closed:
                coverage[x] += 1
    return chosen


def exhaustive_max_influence(graph):
    """Exact F by enumerating every subset; only for tiny graphs."""
    adjacency = reference_adjacency(graph)
    verts = list(adjacency)
    best = 0
    for r in range(len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            coverage = dict.fromkeys(verts, 0)
            ok = True
            for v in combo:
                for x in (v, *adjacency[v]):
                    coverage[x] += 1
                    if coverage[x] > 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                value = sum(1 + len(adjacency[v]) for v in combo)
                best = max(best, value)
    return best


def reference_dp_rect(m, n):
    """Exact F of the m x n grid by the dict-keyed column sweep over
    sorted (A, B) states, every column stepped: the oracle for
    ``dp_F_rect``'s values."""
    def bits(mask):
        return [r for r in range(m) if mask >> r & 1]

    masks = [
        mask
        for mask in range(1 << m)
        if not (mask & (mask << 1)) and not (mask & (mask << 2))
    ]
    full = (1 << m) - 1
    near = {B: (B | (B << 1) | (B >> 1)) & full for B in masks}
    compat = {B: [C for C in masks if C & near[B] == 0] for B in masks}

    def column_weights(c):
        per_row = [
            1 + (r > 0) + (r < m - 1) + (c > 1) + (c < n)
            for r in range(m)
        ]
        return {C: sum(per_row[r] for r in bits(C)) for C in masks}

    states = {(0, 0): 0}
    for c in range(1, n + 1):
        cw = column_weights(c)
        nxt = {}
        for (A, B) in sorted(states):
            base = states[(A, B)]
            for C in compat[B]:
                if A & C:
                    continue
                value = base + cw[C]
                key = (B, C)
                if value > nxt.get(key, -1):
                    nxt[key] = value
        states = nxt

    return max(states.values())


def reference_point_group(lattice):
    """Every map of the lattice's point group, the identity included, as a
    function on coordinates, written out element by element: on a bounded
    board on its 1-based vertices, on a torus on 0-based offsets (i, j),
    each map fixing the offset (0, 0).  Kept as the oracle for the orbits
    that ``brute_force_F`` builds from ``Lattice.point_maps``."""
    m, n, kind = lattice.rows, lattice.cols, lattice.kind
    if lattice.torus:
        if kind is LatticeKind.HEXAGONAL:
            return [lambda i, j: (i, j)]
        if kind is LatticeKind.TRIANGULAR and m == n:
            # The six rotations of the triangular lattice, each also
            # followed by the transpose.
            rotations = [
                lambda i, j: (i, j),
                lambda i, j: (-j, i + j),
                lambda i, j: (-i - j, i),
                lambda i, j: (-i, -j),
                lambda i, j: (j, -i - j),
                lambda i, j: (i + j, -i),
            ]
            return rotations + [lambda i, j, g=g: g(i, j)[::-1] for g in rotations]
        if kind is LatticeKind.TRIANGULAR:
            return [lambda i, j: (i, j), lambda i, j: (-i, -j)]
        signs = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
        group = [lambda i, j, a=a, b=b: (a * i, b * j) for a, b in signs]
    elif kind is LatticeKind.TRIANGULAR:

        def permuted(p):
            def image(i, j):
                a = (i - 1, j - 1, m + 1 - i - j)
                return a[p[0]] + 1, a[p[1]] + 1

            return image

        return [permuted(p) for p in itertools.permutations(range(3))]
    else:
        # Sign -1 flips that coordinate.  On a brick wall a flip must keep
        # the parity of i + j at each vertical edge's lower end.
        signs = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
        if kind is LatticeKind.HEXAGONAL:
            signs = [(a, b) for a, b in signs if ((a < 0) * m + (b < 0) * (n + 1)) % 2 == 0]
        group = [
            lambda i, j, a=a, b=b: (i if a > 0 else m + 1 - i, j if b > 0 else n + 1 - j)
            for a, b in signs
        ]
    if kind is LatticeKind.RECTANGULAR and m == n:
        group += [lambda i, j, g=g: g(j, i) for g in group]
    return group


def _recursive_search(graph, bound, torus_cut, orbit_rule):
    """Exact (F, witness, explored) by the recursive include-first search
    over coverage counts.  A node is cut once value + bound(t, coverage)
    cannot beat the best value found so far.  With torus_cut, a torus
    lattice's search starts at the root's include-vertex-0 child, which
    counts as the first node, and the root is not entered.

    With orbit_rule, a vertex's lead is the smallest row-major id of its
    images under ``reference_point_group``.  On a bounded lattice a vertex
    joins only when its lead is at least the first member's id (a
    candidate first member counts as that member).  With torus_cut too, on
    a rect or tri torus a vertex v joins only when, for each member u, the
    offset v - u (taken mod the periods) has a lead at least the second
    member's id; a candidate second member counts as that member."""
    adjacency = reference_adjacency(graph)
    order = list(adjacency)
    count = len(order)
    index = {v: t for t, v in enumerate(order)}
    weights = [1 + len(adjacency[v]) for v in order]
    closed = [[index[v]] + [index[u] for u in adjacency[v]] for v in order]
    optimistic = bound(weights, closed)
    lattice = graph if isinstance(graph, Lattice) else None
    bounded = orbit_rule and lattice is not None and not lattice.torus
    translated = (
        torus_cut
        and orbit_rule
        and lattice is not None
        and lattice.torus
        and lattice.kind is not LatticeKind.HEXAGONAL
    )
    group = reference_point_group(lattice) if bounded or translated else []

    def lead(v):
        return min(index[g(*v)] for g in group)

    def offset_lead(u, v):
        # The smallest row-major id of an image of the torus offset v - u.
        m, n = graph.rows, graph.cols
        return min(
            i % m * n + j % n for i, j in (g(v[0] - u[0], v[1] - u[1]) for g in group)
        )

    coverage = [0] * count
    chosen = []
    best_value = -1
    best_set = []
    explored = 0

    def may_join(t):
        if not all(coverage[x] == 0 for x in closed[t]):
            return False
        if bounded:
            return lead(order[t]) >= (chosen[0] if chosen else t)
        if translated:
            s2 = chosen[1] if len(chosen) > 1 else t
            return all(offset_lead(order[u], order[t]) >= s2 for u in chosen)
        return True

    def dfs(t, value):
        nonlocal best_value, best_set, explored
        explored += 1
        if value > best_value:
            best_value = value
            best_set = list(chosen)
        if t == count or value + optimistic(t, coverage) <= best_value:
            return
        if may_join(t):
            for x in closed[t]:
                coverage[x] += 1
            chosen.append(t)
            dfs(t + 1, value + weights[t])
            chosen.pop()
            for x in closed[t]:
                coverage[x] -= 1
        dfs(t + 1, value)

    if torus_cut and isinstance(graph, Lattice) and graph.torus:
        for x in closed[0]:
            coverage[x] += 1
        chosen.append(0)
        dfs(1, weights[0])
    else:
        dfs(0, 0)
    witness = normalize_set(order[t] for t in best_set)
    return best_value, witness, explored


def _uncovered_reach(weights, closed):
    # reach[t]: the vertices that some vertex s >= t dominates.
    reach = [set() for _ in range(len(closed) + 1)]
    for t in range(len(closed) - 1, -1, -1):
        reach[t] = reach[t + 1] | set(closed[t])
    return lambda t, coverage: sum(1 for x in reach[t] if coverage[x] == 0)


def _suffix_sum(weights, closed):
    suffix = [0] * (len(weights) + 1)
    for t in range(len(weights) - 1, -1, -1):
        suffix[t] = suffix[t + 1] + weights[t]
    return lambda t, coverage: suffix[t]


def reference_brute_force(graph, torus_cut=True, orbit_rule=True):
    """The recursive form of ``brute_force_F``, bounded by the uncovered
    vertices that a later vertex could still dominate; kept as the oracle
    for its values, witnesses and node counts.  With torus_cut=False a
    torus is searched from the root, as on any other graph, and with
    orbit_rule=False a bounded lattice is searched without the orbit rule
    and a rect or tri torus from the include-vertex-0 child without it."""
    return _recursive_search(graph, _uncovered_reach, torus_cut, orbit_rule)


def reference_suffix_search(graph):
    """The same search bounded by the sum of 1 + deg over every later
    vertex, a looser bound that enters more nodes.  Both bounds cut only
    branches that cannot beat the best value so far, so both keep the
    first optimum in include-first preorder: F and witness must match
    ``reference_brute_force`` and ``brute_force_F``."""
    return _recursive_search(graph, _suffix_sum, torus_cut=True, orbit_rule=True)


def reference_knight(n):
    """(seeds, rays, full_set) of the knight construction by the column
    walk: anchor pairs (i, 1), (i + 2, 2) every five rows from row 1 (row 2
    when n = 5k + 4), one bottom-row anchor y picked from where the walk
    ends, further bottom-row anchors every five columns right of y, then
    the ray (i - k, j + 2k) of each anchor.  Kept as the oracle for
    ``knight_construction``."""
    seeds = []
    i = 2 if n % 5 == 4 else 1
    last = (i, 1)
    while i <= n:
        seeds.append((i, 1))
        last = (i, 1)
        if i + 2 <= n:
            seeds.append((i + 2, 2))
            last = (i + 2, 2)
        i += 5

    if last == (n - 2, 2):
        y = (n, 3)
    elif last == (n - 1, 2):
        y = (n, 5)
    elif last == (n - 1, 1):
        y = (n, 4)
    elif last in ((n, 1), (n, 2)):
        y = last
    else:
        raise AssertionError(f"column walk for n={n} ended at {last}, outside the case table")
    if y != last:
        seeds.append(y)
    j = y[1] + 5
    while j <= n:
        seeds.append((n, j))
        j += 5

    rays = {}
    full = list(seeds)
    for si, sj in seeds:
        ray = []
        k = 1
        while si - k >= 1 and sj + 2 * k <= n:
            ray.append((si - k, sj + 2 * k))
            k += 1
        rays[(si, sj)] = tuple(ray)
        full.extend(ray)
    return normalize_set(seeds), rays, normalize_set(full)


def reference_dumps(obj, pad: str = "") -> str:
    """Deterministic JSON: sorted keys, short collections kept on one line.

    The CLI printer as it was before the one-pass rewrite: it encodes every
    subtree at every depth.  A tuple is an array, as in ``json``.  Kept as
    the oracle for ``effdom.cli._dumps``."""
    one_line = json.dumps(obj, sort_keys=True, separators=(", ", ": "))
    if len(one_line) + len(pad) <= 76:
        return one_line
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(k)}: {reference_dumps(obj[k], inner)}" for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = [f"{inner}{reference_dumps(v, inner)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return one_line


def reference_coverage_lines(pairs):
    """The one-line form of each coverage pair ``[[i, j], c]`` of an array,
    by one generic comprehension that unpacks and type-checks every item;
    None for an item of another shape, such as a pendant's pair.  The CLI's
    bulk path before coverage was formatted by lattice row, kept as the
    oracle for ``effdom.cli._coverage``."""
    return [
        f"[[{i}, {j}], {c}]"
        if type(c) is int and type(i) is int and type(j) is int and type(v) in (list, tuple) and type(a) in (list, tuple)
        else None
        for v in pairs
        for a, c in (v,)
        for i, j in (a,)
    ]


def reference_svg_lines(lattice, members, report):
    """``effdom.render.svg_lines`` as it was before labels came from
    per-row and per-column text: a float position per vertex, and each
    vertex's label pair looked up from the formatted positions.  Kept as
    the oracle for ``svg_lines``."""
    cell = 30.0
    graph = lattice.compiled
    pos = []
    for i, j in graph.order:
        if lattice.kind is LatticeKind.TRIANGULAR:
            x = (j - 1 + (i - 1) * 0.5) * cell
            y = (i - 1) * cell * math.sqrt(3) / 2
        else:
            x = (j - 1) * cell
            y = (i - 1) * cell
        pos.append((x + cell, y + cell))
    width = max(x for x, _ in pos) + cell
    height = max(y for _, y in pos) + cell
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    text = {c: f"{c:.1f}" for c in {c for xy in pos for c in xy}}
    labels = [(text[x], text[y]) for x, y in pos]
    rows, start = [], 0
    for i in range(1, lattice.rows + 1):
        end = start + lattice._row_width(i)
        rows.append(range(start, end))
        start = end
    for row in rows:
        lines = []
        for t in row:
            ux, uy = pos[t]
            x1, y1 = labels[t]
            for s in graph.adj[t]:
                if s > t and (not lattice.torus or math.hypot(pos[s][0] - ux, pos[s][1] - uy) <= 1.8 * cell):
                    x2, y2 = labels[s]
                    lines.append(
                        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#555" stroke-width="1"/>'
                    )
        if lines:
            yield "\n".join(lines)
    member_set = set(members)
    member_dot = f'r="{cell / 3:.1f}" fill="black"'
    dominated_dot = f'r="{cell / 7:.1f}" fill="black"'
    void_dot = f'r="{cell / 3:.1f}" fill="white" stroke="black" stroke-width="1.5"'
    for row in rows:
        circles = []
        for t in row:
            v = graph.order[t]
            dot = member_dot if v in member_set else dominated_dot if report.coverage[t] else void_dot
            x, y = labels[t]
            circles.append(f'<circle cx="{x}" cy="{y}" {dot}/>')
        yield "\n".join(circles)
    yield "</svg>"
