import inspect
import random
import sys

import pytest

from conftest import (
    exhaustive_max_influence,
    reference_brute_force,
    reference_dp_rect,
    reference_point_group,
    reference_suffix_search,
)
from effdom.lattice import MAX_VERTICES, Lattice, LatticeKind, hexa, rect, tri
from effdom.packing import audit, transpose_set
from effdom.solver import (
    ConjectureRow,
    _Transfer,
    brute_force_F,
    check_conjecture,
    dp_F_rect,
)

# -- backtracking oracle ----------------------------------------------------------


def test_brute_force_small_squares():
    assert brute_force_F(rect(3, 3)).f_value == 7
    assert brute_force_F(rect(4, 4)).f_value == 16


def test_brute_force_trivia():
    result = brute_force_F(rect(1, 1))
    assert result.f_value == 1 and result.witness == ((1, 1),)
    assert brute_force_F(rect(2, 2)).f_value == 3


@pytest.mark.parametrize(
    "graph",
    [rect(2, 2), rect(2, 5), rect(3, 3, torus=True), tri(3), tri(4), hexa(2, 4), hexa(3, 3)],
    ids=lambda g: g.descriptor(),
)
def test_brute_force_agrees_with_subset_enumeration(graph):
    assert brute_force_F(graph).f_value == exhaustive_max_influence(graph)


def test_brute_force_on_augmented_graph():
    # a pendant-augmented grid is efficiently dominatable, so F = |V|
    from effdom.constructions import fset_pn_p3, near_grid_augment

    augmented, eds = near_grid_augment(rect(3, 3), fset_pn_p3(3))
    result = brute_force_F(augmented)
    assert result.f_value == augmented.vertex_count == 11
    assert audit(augmented, result.witness).is_eds
    assert set(result.witness) == set(eds)


def test_brute_force_witness_audits():
    for graph in (rect(4, 5), tri(5), hexa(4, 4, torus=True)):
        result = brute_force_F(graph)
        report = audit(graph, result.witness)
        assert report.is_two_packing
        assert report.influence == result.f_value


def test_brute_force_vertex_limit():
    with pytest.raises(ValueError, match="dp_F_rect"):
        brute_force_F(rect(8, 8))
    with pytest.raises(ValueError):
        brute_force_F(rect(4, 4), limit=10)
    # an explicit limit unlocks instances the default refuses
    assert brute_force_F(rect(4, 4), limit=16).f_value == 16


def test_brute_force_limit_checked_before_listing_vertices(monkeypatch):
    def refuse(self):
        raise AssertionError("vertices listed before the limit check")

    monkeypatch.setattr(Lattice, "vertices", refuse)
    with pytest.raises(ValueError, match="exceeds the brute-force limit 49"):
        brute_force_F(rect(8, 8))


def test_brute_force_needs_no_recursion():
    # The search over 49 vertices must not nest one frame per vertex.
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        assert brute_force_F(rect(7, 7)).f_value == 44
    finally:
        sys.setrecursionlimit(saved)


def _augmented_3x3():
    from effdom.constructions import fset_pn_p3, near_grid_augment

    return near_grid_augment(rect(3, 3), fset_pn_p3(3))[0]


SEARCH_GRAPHS = (
    [rect(m, n) for m in range(1, 26) for n in range(1, 25 // m + 1)]
    + [
        Lattice.from_descriptor(d)
        for d in (
            "rect-torus:3x5",
            "rect-torus:5x5",
            "tri:5",
            "tri:6",
            "tri-torus:4x4",
            "hex:4x6",
            "hex-torus:4x6",
        )
    ]
    + [_augmented_3x3()]
)


def _graph_id(graph):
    """A lattice's descriptor; a pendant graph's base plus its pendant count."""
    if isinstance(graph, Lattice):
        return graph.descriptor()
    return f"{graph.base.descriptor()}+{len(graph.pendants)}p"


@pytest.mark.parametrize("graph", SEARCH_GRAPHS, ids=_graph_id)
def test_brute_matches_reference_search(graph):
    result = brute_force_F(graph)
    assert (result.f_value, result.witness, result.explored) == reference_brute_force(graph)


@pytest.mark.parametrize("graph", SEARCH_GRAPHS, ids=_graph_id)
def test_brute_keeps_suffix_bound_optimum(graph):
    # The uncovered-reach bound only cuts branches that cannot beat the
    # best value so far, so the first optimum in include-first preorder,
    # the one the looser suffix-sum bound returns, is still the witness.
    result = brute_force_F(graph)
    f_value, witness, explored = reference_suffix_search(graph)
    assert (result.f_value, result.witness) == (f_value, witness)
    assert result.explored <= explored


@pytest.mark.parametrize(
    "descriptor, f_value, explored",
    [
        ("hex:6x8", 47, 527),
        ("hex-torus:6x8", 48, 3_998),
        ("rect:7x7", 44, 5_709),
        ("rect-torus:7x7", 40, 3_503),
        ("tri:9", 39, 3_499),
        ("tri-torus:7x7", 49, 932),
    ],
)
def test_brute_node_counts(descriptor, f_value, explored):
    # Pinned work: a looser bound would enter more nodes and fail here.
    result = brute_force_F(Lattice.from_descriptor(descriptor))
    assert (result.f_value, result.explored) == (f_value, explored)


def _tori(low, high):
    """Every torus lattice with both periods in low..high, hexagonal ones
    with even periods only."""
    return [
        Lattice(kind, m, n, torus=True)
        for kind in LatticeKind
        for m in range(low, high + 1)
        for n in range(low, high + 1)
        if kind is not LatticeKind.HEXAGONAL or (m >= 4 and n >= 4 and m % 2 == n % 2 == 0)
    ]


def _automorphism_to_zero(lattice, v):
    """Signs (si, sj) of a map (i, j) -> (si * i + a, sj * j + b), taken
    mod the periods, that sends v to vertex 0 and maps ``compiled.adj``
    onto itself as an edge set; None when no sign pair does."""
    compiled = lattice.compiled
    edges = {(t, s) for t, ids in enumerate(compiled.adj) for s in ids}
    vi, vj = v
    for si, sj in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        image = [
            compiled.index[(si * (i - vi) % lattice.rows + 1, sj * (j - vj) % lattice.cols + 1)]
            for i, j in compiled.order
        ]
        if sorted(image) == list(range(len(image))) and {(image[t], image[s]) for t, s in edges} == edges:
            return si, sj
    return None


@pytest.mark.parametrize("lattice", _tori(3, 8), ids=Lattice.descriptor)
def test_torus_maps_every_vertex_to_zero(lattice):
    # The gate of brute_force_F's torus cut: each torus is vertex-transitive,
    # so some optimal 2-packing holds vertex 0.  Translations suffice on rect
    # and tri tori; on a brick wall a translation keeps the parity rule only
    # when a + b is even, and a vertex with i + j odd needs the row flip.
    assert lattice.compiled.order[0] == (1, 1)
    for i, j in lattice.vertices():
        flip = lattice.kind is LatticeKind.HEXAGONAL and (i + j) % 2
        assert _automorphism_to_zero(lattice, (i, j)) == ((-1, 1) if flip else (1, 1)), (i, j)


@pytest.mark.parametrize(
    "lattice",
    [t for t in _tori(3, 8) if t.kind is not LatticeKind.HEXAGONAL],
    ids=Lattice.descriptor,
)
def test_torus_translations_are_automorphisms(lattice):
    # The gate of brute_force_F's orbit rule on rect and tri tori:
    # every translation (i, j) -> (i + a, j + b), taken mod the periods,
    # maps compiled.adj onto itself as an edge set.
    compiled = lattice.compiled
    edges = {(t, s) for t, ids in enumerate(compiled.adj) for s in ids}
    for a in range(lattice.rows):
        for b in range(lattice.cols):
            image = [
                compiled.index[((i - 1 + a) % lattice.rows + 1, (j - 1 + b) % lattice.cols + 1)]
                for i, j in compiled.order
            ]
            assert {(image[t], image[s]) for t, s in edges} == edges, (a, b)


def _bounded(low, high):
    """Every bounded lattice with sides in low..high: rect and hex m x n
    and the triangle patches."""
    return [
        Lattice(kind, m, n)
        for kind in (LatticeKind.RECTANGULAR, LatticeKind.HEXAGONAL)
        for m in range(low, high + 1)
        for n in range(low, high + 1)
    ] + [tri(s) for s in range(low, high + 1)]


def _orbits(count, maps):
    """The orbits of range(count) under the group that the id lists
    ``maps`` generate, as a set of frozensets."""
    seen, orbits = set(), set()
    for t in range(count):
        if t in seen:
            continue
        orbit, todo = {t}, [t]
        while todo:
            u = todo.pop()
            for image in maps:
                if image[u] not in orbit:
                    orbit.add(image[u])
                    todo.append(image[u])
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


@pytest.mark.parametrize("lattice", _bounded(1, 8) + _tori(3, 8), ids=Lattice.descriptor)
def test_point_maps_are_automorphisms(lattice):
    # The gate of brute_force_F's orbit rule: each listed map is a
    # bijection on the ids that maps compiled.adj onto itself as an edge
    # set, and on a torus it fixes vertex 0.  Their orbits are those of
    # the whole point group, written out in reference_point_group.
    compiled = lattice.compiled
    count = len(compiled.order)
    edges = {(t, s) for t, ids in enumerate(compiled.adj) for s in ids}
    maps = lattice.point_maps()
    for image in maps:
        assert sorted(image) == list(range(count))
        assert image != list(range(count))
        assert {(image[t], image[s]) for t, s in edges} == edges
        assert not lattice.torus or image[0] == 0
    if lattice.torus:
        m, n = lattice.rows, lattice.cols
        group = [
            [g(i, j)[0] % m * n + g(i, j)[1] % n for i in range(m) for j in range(n)]
            for g in reference_point_group(lattice)
        ]
    else:
        group = [
            [compiled.index[g(*v)] for v in compiled.order] for g in reference_point_group(lattice)
        ]
    assert _orbits(count, maps) == _orbits(count, group)


SMALL_TORI = [lattice for lattice in _tori(3, 13) if lattice.vertex_count <= 40]


@pytest.mark.parametrize("lattice", SMALL_TORI, ids=Lattice.descriptor)
def test_brute_torus_cut_matches_uncut_search(lattice):
    result = brute_force_F(lattice)
    f_value, witness, explored = reference_brute_force(lattice, torus_cut=False)
    assert (result.f_value, result.witness) == (f_value, witness)
    assert result.witness[0] == (1, 1)
    assert result.explored < explored
    # The path of second-member candidates from vertex 0 enters exactly the
    # nodes of the recursive search from the include-vertex-0 child.
    assert (result.f_value, result.witness, result.explored) == reference_brute_force(lattice)


@pytest.mark.parametrize(
    "lattice",
    [t for t in SMALL_TORI if t.kind is not LatticeKind.HEXAGONAL],
    ids=Lattice.descriptor,
)
def test_brute_difference_rule_matches_vertex_zero_search(lattice):
    # The orbit rule keeps F and the witness of the search from the
    # include-vertex-0 child without it, and enters no more nodes: exactly
    # those of the reference search under the rule on coordinates.
    result = brute_force_F(lattice)
    f_value, witness, explored = reference_brute_force(lattice, orbit_rule=False)
    assert (result.f_value, result.witness) == (f_value, witness)
    assert result.explored <= explored
    assert (result.f_value, result.witness, result.explored) == reference_brute_force(lattice)


SMALL_BOUNDED = [lattice for lattice in _bounded(1, 40) if lattice.vertex_count <= 40]


@pytest.mark.parametrize("lattice", SMALL_BOUNDED, ids=Lattice.descriptor)
def test_brute_orbit_rule_matches_root_search(lattice):
    # On a bounded board the orbit rule keeps F and the witness of the
    # search from the root without it, and enters no more nodes: exactly
    # those of the reference search under the rule on coordinates.  The
    # tori's counterpart is the test above.
    result = brute_force_F(lattice)
    f_value, witness, explored = reference_brute_force(lattice, orbit_rule=False)
    assert (result.f_value, result.witness) == (f_value, witness)
    assert result.explored <= explored
    assert (result.f_value, result.witness, result.explored) == reference_brute_force(lattice)


@pytest.mark.parametrize(
    "descriptor, f_value, perfect",
    [
        ("tri-torus:9x9", 63, False),
        ("hex-torus:8x12", 96, True),
        ("rect-torus:8x8", 50, False),
        ("rect-torus:9x9", 65, False),
    ],
)
def test_brute_torus_past_default_limit(descriptor, f_value, perfect):
    # The torus cut and the orbit rule make these cheap (a fraction
    # of a second each).
    lattice = Lattice.from_descriptor(descriptor)
    result = brute_force_F(lattice, limit=lattice.vertex_count)
    report = audit(lattice, result.witness)
    assert result.f_value == report.influence == f_value
    assert report.is_two_packing and report.is_eds == perfect


def test_brute_above_default_limit_matches_dp():
    grid = rect(9, 9)
    result = brute_force_F(grid, limit=81)
    assert result.f_value == dp_F_rect(9, 9).f_value == 77
    report = audit(grid, result.witness)
    assert report.is_two_packing and report.influence == 77


def test_brute_force_deterministic():
    a = brute_force_F(rect(4, 6))
    b = brute_force_F(rect(4, 6))
    assert a.f_value == b.f_value and a.witness == b.witness and a.explored == b.explored


# -- column-profile DP ---------------------------------------------------------------


def test_dp_strip_formulas():
    for n in range(1, 41):
        expected = 2 * n if n % 2 else 2 * n - 1
        assert dp_F_rect(2, n).f_value == expected
    # the 3 x n formula starts at n = 4; the 3 x 3 square tops out at 7
    assert dp_F_rect(3, 3).f_value == 7
    for n in range(4, 41):
        assert dp_F_rect(3, n).f_value == 3 * n - n // 3


def test_dp_small_squares():
    assert dp_F_rect(4, 4).f_value == 16
    assert dp_F_rect(5, 5).f_value == 23
    assert dp_F_rect(6, 6).f_value == 33


def test_dp_matches_brute_force_exhaustively():
    # Every rectangle of at most 49 vertices, in both orientations.
    for m in range(1, 50):
        for n in range(1, 49 // m + 1):
            assert dp_F_rect(m, n).f_value == brute_force_F(rect(m, n)).f_value


def test_dp_matches_brute_force_random_shapes():
    rng = random.Random(2024)
    seen = 0
    while seen < 20:
        m = rng.randint(1, 8)
        n = rng.randint(1, 42 // m)
        if m * n > 42:
            continue
        seen += 1
        assert dp_F_rect(m, n).f_value == brute_force_F(rect(m, n), limit=42).f_value


def test_dp_transpose_symmetry():
    for m, n in [(2, 9), (3, 7), (4, 6), (5, 8), (6, 11), (7, 7)]:
        assert dp_F_rect(m, n).f_value == dp_F_rect(n, m).f_value


def test_dp_witness_audits():
    for m, n in [(1, 9), (2, 12), (5, 5), (7, 10)]:
        result = dp_F_rect(m, n)
        report = audit(rect(m, n), result.witness)
        assert report.is_two_packing
        assert report.influence == result.f_value


def test_dp_never_exceeds_vertex_count():
    for m in range(3, 10):
        for n in range(m, 10):
            value = dp_F_rect(m, n).f_value
            assert value <= m * n
            assert (value == m * n) == (m == n == 4)


def test_dp_width_limit():
    # The limit applies to the shorter side, which the sweep crosses.
    with pytest.raises(ValueError, match="width limit"):
        dp_F_rect(17, 17)
    assert dp_F_rect(17, 3).f_value == 3 * 17 - 17 // 3


def test_dp_deterministic():
    a = dp_F_rect(6, 9)
    b = dp_F_rect(6, 9)
    assert a.witness == b.witness and a.explored == b.explored


REFERENCE_SHAPES = (
    [(m, n) for m in range(1, 9) for n in range(1, 15)]
    + [(10, 300), (12, 12), (9, 31), (11, 20), (13, 13), (14, 6), (15, 15)]
    + [(16, 1), (16, 2), (16, 3), (16, 5), (12, 1), (12, 2)]
    # Long enough to run past the repeat of the slot vector: (4, 60) repeats
    # with period 7 and (5, 80) only from column 30.
    + [(1, 40), (2, 40), (3, 60), (4, 60), (5, 80), (6, 60), (7, 60), (8, 60)]
)


@pytest.mark.parametrize("m,n", REFERENCE_SHAPES)
def test_dp_matches_reference_sweep(m, n):
    # The middle join reaches the full sweep's F with a witness of its own,
    # which must audit to it.
    result = dp_F_rect(m, n)
    report = audit(rect(m, n), result.witness)
    assert result.f_value == reference_dp_rect(m, n)
    assert report.is_two_packing and report.influence == result.f_value


@pytest.mark.parametrize("m,n", [(m, n) for m, n in REFERENCE_SHAPES if m != n])
def test_dp_witness_maps_back_on_transpose(m, n):
    # Both orientations sweep the same shorter side; the taller board gets
    # the wider board's witness mirrored across the diagonal.
    assert dp_F_rect(n, m).witness == transpose_set(dp_F_rect(m, n).witness)


def test_dp_full_height_square():
    # F is taken from reference_dp_rect(16, 16), which is too slow to rerun
    # here.  The middle join sweeps k2 = 9 columns and nothing repeats before
    # column 21 at height 16, so each of the 9 columns, the two built in
    # closed form and the 7 stepped, produces all 12 693 slot values.
    result = dp_F_rect(16, 16)
    assert (result.f_value, result.explored) == (244, 12693 * 9)


def test_dp_long_strips_match_closed_forms():
    assert dp_F_rect(2, 100001).f_value == 2 * 100001
    assert dp_F_rect(3, 100000).f_value == 3 * 100000 - 100000 // 3


@pytest.mark.parametrize(
    "m,n,f_value,stepped",
    [
        # At height 10 the slot vector after column 20 repeats the one after
        # column 15, so the sweep stops there, short of the k2 = 151 columns
        # of its half: columns 1 and 2 are built in closed form and 3..20
        # stepped.
        (10, 300, 2876, 18),
        # The board mirrored across its diagonal sweeps the same height-10
        # side, so it stops at the same repeat.
        (300, 10, 2876, 18),
        # A square's half sweep has k2 = 9 columns, fewer than its height:
        # nothing repeats before column 16, so columns 3..9 are stepped.
        (16, 16, 244, 7),
    ],
    ids=["dp-10x300", "mirror-10x300", "dp-16x16"],
)
def test_dp_sweeps_only_to_first_repeat(monkeypatch, m, n, f_value, stepped):
    steps = []
    step = _Transfer.step

    def counted(self, val, column):
        steps.append(column)
        return step(self, val, column)

    monkeypatch.setattr(_Transfer, "step", counted)
    result = dp_F_rect(m, n)
    assert (result.f_value, len(steps)) == (f_value, stepped)
    # The two closed-form columns are produced without a step; the sweep
    # crosses the shorter side.
    assert result.explored == len(_Transfer(min(m, n)).canonical) * (stepped + 2)


@pytest.mark.parametrize("m", range(1, 17))
def test_sweep_first_columns_match_steps(m):
    # Columns 1 and 2 are built in closed form; stepping them from the start
    # vector gives the same arrays, unreached entries included.
    transfer = _Transfer(m)
    values, _ = transfer.sweep(2)
    start = values[0]
    assert start[0] == 0 and all(v == start[1] < 0 for v in start[1:])
    first = transfer.step(start, transfer.weights(transfer.mask_weights(False)))
    second = transfer.step(first, transfer.weights(transfer.interior))
    assert list(values[1]) == first and list(values[2]) == second


# The repeat (c0, p, g) of each height: the slot vector after column c0 + p
# is the one after c0 plus g.  The sweep keys from column max(2, m); each
# case also shows that keying from column 2 finds the same repeat, so the
# later start costs no column.
REPEATS = {1: (2, 3, 3), 2: (2, 2, 4), 3: (10, 3, 8), 4: (16, 7, 26), 5: (30, 5, 23)}
REPEATS.update(
    (m, (c0, 5, 5 * m - 2))
    for m, c0 in zip(range(6, 17), [11, 12, 14, 14, 15, 16, 15, 16, 18, 20, 21])
)


@pytest.mark.parametrize("m", range(1, 17))
def test_sweep_repeat_table(m):
    c0, p, g = REPEATS[m]
    values, repeat = _Transfer(m).sweep(c0 + p + 2)
    assert repeat == (c0, p, g)
    assert len(values) == c0 + p + 3 and values[c0 + p] is values[c0]
    if c0 > 2:
        # The interior vector after column c0 - 1 does not recur p columns
        # later, so the repeat starts at c0 even when keyed from column 2.
        before, after = values[c0 - 1], values[c0 - 1 + p]
        assert [v - max(before) for v in before] != [v - max(after) for v in after]


def test_dp_rejects_degenerate():
    with pytest.raises(ValueError):
        dp_F_rect(0, 5)


def test_dp_rejects_oversized_board_before_sweeping(monkeypatch):
    def refuse(self, m):
        raise AssertionError("transfer built before the vertex limit check")

    monkeypatch.setattr(_Transfer, "__init__", refuse)
    with pytest.raises(ValueError, match="more than the limit"):
        dp_F_rect(1, MAX_VERTICES + 1)


# -- conjecture and void tables ----------------------------------------------------------


def test_check_conjecture_desk_range():
    rows = check_conjecture(7, 10)
    assert rows == [
        ConjectureRow(7, 44, 44, True),
        ConjectureRow(8, 58, 58, True),
        ConjectureRow(9, 77, 77, True),
        ConjectureRow(10, 92, 92, True),
    ]


def test_check_conjecture_past_default_width():
    # 17 is odd, so the vectors after columns 9 and 10 are joined.
    assert check_conjecture(17, 17, width_limit=17) == [ConjectureRow(17, 276, 276, True)]


def test_check_conjecture_skips_beyond_width():
    rows = check_conjecture(8, 10, width_limit=8)
    assert rows[0].dp_value == 58 and rows[0].matches is True
    assert rows[1].dp_value is None and rows[1].matches is None
    assert rows[2].dp_value is None
