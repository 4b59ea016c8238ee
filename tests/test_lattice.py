import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_distance, compiled_neighbors, reference_neighbors
from effdom.constructions import near_grid_augment
from effdom.lattice import MAX_VERTICES, InvalidCoordError, Lattice, LatticeKind, hexa, rect, tri
from effdom.packing import audit

SAMPLE_LATTICES = [
    rect(1, 1),
    rect(1, 6),
    rect(2, 3),
    rect(3, 3),
    rect(4, 7),
    rect(5, 5),
    rect(3, 3, torus=True),
    rect(5, 5, torus=True),
    rect(4, 6, torus=True),
    tri(1),
    tri(3),
    tri(6),
    tri(3, 3, torus=True),
    tri(7, 7, torus=True),
    tri(4, 5, torus=True),
    hexa(1, 1),
    hexa(2, 5),
    hexa(4, 4),
    hexa(5, 6),
    hexa(4, 4, torus=True),
    hexa(4, 6, torus=True),
]


# -- vertex enumeration -------------------------------------------------------


def test_vertices_row_major_2x3():
    assert rect(2, 3).vertices() == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]


def test_vertices_single():
    assert rect(1, 1).vertices() == [(1, 1)]


def test_triangle_side3_has_six_vertices():
    assert tri(3).vertices() == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize("side", range(1, 13))
def test_triangle_vertex_count_is_triangular_number(side):
    assert tri(side).vertex_count == side * (side + 1) // 2


@pytest.mark.parametrize("lat", SAMPLE_LATTICES, ids=lambda l: l.descriptor())
def test_vertex_count_matches_enumeration(lat):
    verts = lat.vertices()
    assert len(verts) == lat.vertex_count
    assert verts == sorted(verts)
    assert len(set(verts)) == len(verts)


@pytest.mark.parametrize("lat", SAMPLE_LATTICES, ids=lambda l: l.descriptor())
def test_row_ids_tile_the_ids_row_by_row(lat):
    rows = lat.row_ids()
    assert len(rows) == lat.rows
    assert all(type(row) is range and row.step == 1 for row in rows)
    assert [t for row in rows for t in row] == list(range(lat.vertex_count))
    verts = lat.vertices()
    for i, row in enumerate(rows, start=1):
        assert len(row) == sum(1 for v in verts if v[0] == i)
        assert {verts[t][0] for t in row} <= {i}


# -- adjacency ----------------------------------------------------------------


def test_neighbors_corner():
    assert compiled_neighbors(rect(3, 3), (1, 1)) == ((1, 2), (2, 1))


def test_neighbors_interior():
    assert compiled_neighbors(rect(3, 3), (2, 2)) == ((1, 2), (2, 1), (2, 3), (3, 2))


def test_neighbors_torus_wraparound():
    assert compiled_neighbors(rect(5, 5, torus=True), (1, 1)) == ((1, 2), (1, 5), (2, 1), (5, 1))


def test_triangle_corner_degrees():
    lat = tri(4)
    assert len(compiled_neighbors(lat, (1, 1))) == 2
    assert len(compiled_neighbors(lat, (1, 4))) == 2
    assert len(compiled_neighbors(lat, (4, 1))) == 2


def test_hex_vertical_neighbor_parity():
    lat = hexa(4, 4)
    assert (2, 1) in compiled_neighbors(lat, (1, 1))  # 1+1 even: downward edge
    assert compiled_neighbors(lat, (2, 2)) == ((2, 1), (2, 3), (3, 2))  # even: downward
    assert compiled_neighbors(lat, (1, 2)) == ((1, 1), (1, 3))  # odd: upward edge leaves the grid


def test_invalid_coord_raises_and_names_offender():
    with pytest.raises(InvalidCoordError, match=r"\(4, 1\)"):
        audit(rect(3, 3), [(4, 1)])
    with pytest.raises(InvalidCoordError):
        audit(tri(3), [(2, 3)])  # row 2 of a side-3 patch has width 2


@pytest.mark.parametrize("lat", SAMPLE_LATTICES, ids=lambda l: l.descriptor())
def test_adjacency_symmetry(lat):
    for v in lat.vertices():
        for u in compiled_neighbors(lat, v):
            assert v in compiled_neighbors(lat, u)


@pytest.mark.parametrize("lat", SAMPLE_LATTICES, ids=lambda l: l.descriptor())
def test_degree_bounds(lat):
    cap = {LatticeKind.RECTANGULAR: 4, LatticeKind.TRIANGULAR: 6, LatticeKind.HEXAGONAL: 3}
    for v in lat.vertices():
        assert 0 < len(compiled_neighbors(lat, v)) <= cap[lat.kind] or lat.vertex_count == 1


@pytest.mark.parametrize(
    "lat,expected",
    [
        (rect(4, 4, torus=True), 4),
        (rect(3, 5, torus=True), 4),
        (tri(5, 5, torus=True), 6),
        (hexa(4, 4, torus=True), 3),
        (hexa(4, 6, torus=True), 3),
    ],
    ids=lambda x: x.descriptor() if isinstance(x, Lattice) else str(x),
)
def test_torus_regularity(lat, expected):
    assert {len(compiled_neighbors(lat, v)) for v in lat.vertices()} == {expected}


@given(n=st.integers(min_value=2, max_value=6))
def test_transpose_is_an_automorphism_of_square_grids(n):
    lat = rect(n, n)
    for (i, j) in lat.vertices():
        image = {(q, p) for p, q in compiled_neighbors(lat, (i, j))}
        assert image == set(compiled_neighbors(lat, (j, i)))


# -- distance -----------------------------------------------------------------


def _rect_distance(lat, u, v):
    """Closed-form distance on a rectangle: Manhattan, wrapped on a torus."""
    di, dj = abs(u[0] - v[0]), abs(u[1] - v[1])
    if lat.torus:
        di, dj = min(di, lat.rows - di), min(dj, lat.cols - dj)
    return di + dj


def test_distance_closed_form_example():
    assert bfs_distance(rect(4, 4), (1, 1), (2, 3)) == 3


def test_distance_to_self():
    for lat in (rect(3, 3), tri(4), hexa(4, 4)):
        assert bfs_distance(lat, (2, 2), (2, 2)) == 0


def test_torus_distance_wraps():
    assert bfs_distance(rect(5, 5, torus=True), (1, 1), (1, 5)) == 1


def test_rect_distance_matches_bfs_exhaustively_up_to_8x8():
    for m, n in [(1, 8), (2, 7), (3, 5), (4, 4), (8, 8)]:
        lat = rect(m, n)
        verts = lat.vertices()
        for u in verts:
            for v in verts:
                assert _rect_distance(lat, u, v) == bfs_distance(lat, u, v)


@pytest.mark.parametrize(
    "lat",
    [
        rect(4, 5, torus=True),
        rect(5, 5, torus=True),
        tri(5),
        tri(4, 4, torus=True),
        hexa(3, 4),
        hexa(4, 4, torus=True),
    ],
    ids=lambda l: l.descriptor(),
)
def test_distance_matches_independent_bfs(lat):
    # Two distinct vertices form a 2-packing exactly when they lie >= 3 apart;
    # on a rectangular torus the distance also has a closed form.
    verts = lat.vertices()
    for u in verts[:: max(1, len(verts) // 8)]:
        for v in verts:
            d = bfs_distance(lat, u, v)
            if lat.kind is LatticeKind.RECTANGULAR:
                assert d == _rect_distance(lat, u, v)
            if u != v:
                assert audit(lat, [u, v]).is_two_packing == (d >= 3)


@given(
    rows=st.integers(min_value=1, max_value=7),
    cols=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
@settings(max_examples=60)
def test_rect_distance_symmetry_and_triangle_inequality(rows, cols, data):
    lat = rect(rows, cols)
    verts = lat.vertices()
    u = data.draw(st.sampled_from(verts))
    v = data.draw(st.sampled_from(verts))
    w = data.draw(st.sampled_from(verts))
    assert bfs_distance(lat, u, v) == bfs_distance(lat, v, u) == _rect_distance(lat, u, v)
    assert bfs_distance(lat, u, w) <= bfs_distance(lat, u, v) + bfs_distance(lat, v, w)


# -- descriptors and validation -------------------------------------------------


@pytest.mark.parametrize("lat", SAMPLE_LATTICES, ids=lambda l: l.descriptor())
def test_descriptor_round_trip(lat):
    assert Lattice.from_descriptor(lat.descriptor()) == lat


@pytest.mark.parametrize(
    "text,expected",
    [
        ("rect:3x4", rect(3, 4)),
        ("rect-torus:5x5", rect(5, 5, torus=True)),
        ("tri:6", tri(6)),
        ("tri-torus:7x7", tri(7, 7, torus=True)),
        ("hex:4x6", hexa(4, 6)),
        ("hex-torus:4x4", hexa(4, 4, torus=True)),
    ],
)
def test_descriptor_parsing(text, expected):
    assert Lattice.from_descriptor(text) == expected


@pytest.mark.parametrize("text", ["grid:3x3", "rect:0x4", "rect:ax3", "tri:3x4", "", "rect"])
def test_bad_descriptors_rejected(text):
    with pytest.raises(ValueError):
        Lattice.from_descriptor(text)


def test_bounded_triangle_needs_one_side():
    with pytest.raises(ValueError, match="single side length"):
        Lattice(LatticeKind.TRIANGULAR, 3, 4)


def test_small_torus_rejected():
    with pytest.raises(ValueError):
        rect(2, 5, torus=True)
    with pytest.raises(ValueError):
        tri(2, 4, torus=True)


def test_hex_torus_needs_even_periods():
    with pytest.raises(ValueError):
        hexa(5, 4, torus=True)
    with pytest.raises(ValueError):
        hexa(4, 7, torus=True)


def test_paths_are_valid_degenerate_grids():
    lat = rect(1, 5)
    assert len(compiled_neighbors(lat, (1, 1))) == 1
    assert len(compiled_neighbors(lat, (1, 3))) == 2
    assert tri(1).vertices() == [(1, 1)]


# -- compiled form ------------------------------------------------------------

COMPILE_CASES = [
    *[rect(m, n) for m in range(1, 5) for n in range(1, 6)],
    *[rect(m, n, torus=True) for m in range(3, 6) for n in range(3, 6)],
    *[tri(s) for s in range(1, 7)],
    *[tri(m, n, torus=True) for m in range(3, 6) for n in range(3, 6)],
    *[hexa(m, n) for m in range(1, 5) for n in range(1, 7)],
    *[hexa(m, n, torus=True) for m in (4, 6) for n in (4, 6, 8)],
    # Sizes the row-slice build can get wrong: one-column strips, the
    # smallest tori with unequal sides, and boards of benchmark size.  The
    # products above already hold rect:1x1, rect:2x2, tri:1 and tri:2.
    *map(
        Lattice.from_descriptor,
        (
            "rect:5x1",
            "rect:7x1",
            "rect-torus:7x4",
            "rect-torus:3x7",
            "tri-torus:3x7",
            "hex:1x7",
            "hex:5x1",
            "hex-torus:4x10",
            "rect:250x250",
            "rect-torus:250x250",
            "hex:200x200",
        ),
    ),
]


@pytest.mark.parametrize("lat", COMPILE_CASES, ids=Lattice.descriptor)
def test_compiled_adjacency_matches_reference(lat):
    graph = lat.compiled
    assert graph.order == lat.vertices()
    assert graph.index == {v: t for t, v in enumerate(graph.order)}
    for t, v in enumerate(graph.order):
        assert tuple(graph.order[s] for s in graph.adj[t]) == reference_neighbors(lat, v)
        assert list(graph.adj[t]) == sorted(graph.adj[t])


# Ids past 256 are not CPython's cached small ints, so ``is`` tells a shared
# id object from an equal fresh one.
@pytest.mark.parametrize(
    "lat",
    [rect(20, 20), rect(20, 20, torus=True), tri(30), tri(20, 20, torus=True), hexa(20, 20), hexa(20, 20, torus=True)],
    ids=Lattice.descriptor,
)
def test_compiled_ids_are_shared_int_objects(lat):
    # One int object per id keeps the tables' memory flat on large boards.
    graph = lat.compiled
    ids = {t: t for t in graph.index.values()}
    assert len(ids) == lat.vertex_count > 256
    for neighbours in graph.adj:
        assert all(s is ids[s] for s in neighbours)


def test_compiled_form_is_built_once_per_instance():
    lat = rect(3, 4)
    assert lat.compiled is lat.compiled
    assert rect(3, 4).compiled is not lat.compiled


def test_compiled_pendant_graph_extends_the_base():
    base = rect(3, 3)
    base_adj = list(base.compiled.adj)
    augmented, _ = near_grid_augment(base, [(1, 1), (3, 2)])
    graph = augmented.compiled
    pendants = augmented.pendants
    assert graph.order == base.vertices() + list(pendants)
    assert augmented.vertex_count == len(graph.order)
    for t, v in enumerate(graph.order):
        if v in pendants:
            expected = (v.anchor,)
        else:
            expected = reference_neighbors(base, v) + tuple(p for p in pendants if p.anchor == v)
        assert tuple(graph.order[s] for s in graph.adj[t]) == expected
    # The base's tables are shared, not rebuilt, and stay unchanged.
    assert base.compiled.adj == base_adj
    anchors = {base.compiled.index[p.anchor] for p in pendants}
    assert all(graph.adj[t] is base_adj[t] for t in range(base.vertex_count) if t not in anchors)


def test_vertex_limit_checked_before_listing():
    assert rect(2000, 2000).vertex_count == MAX_VERTICES
    with pytest.raises(ValueError, match="more than the limit"):
        rect(2000, 2001)
    with pytest.raises(ValueError, match="more than the limit"):
        Lattice.from_descriptor("tri:3000")
    with pytest.raises(ValueError, match="more than the limit"):
        hexa(2000, 2002, torus=True)
