import itertools

import pytest

from conftest import bfs_distance, compiled_neighbors
from effdom.lattice import LatticeKind, hexa
from effdom.packing import audit
from effdom.periodic import (
    RECT_CODE_OFFSETS,
    TRI_CODE_OFFSETS,
    Motif,
    expand_motif,
    hex_code_motif,
    rect_code_motif,
    tri_code_motif,
    verify_perfect,
    window_lattice,
)


def _wrap(v, periods):
    return ((v[0] - 1) % periods[0] + 1, (v[1] - 1) % periods[1] + 1)


# -- rectangular motif -----------------------------------------------------------


@pytest.mark.parametrize("c", range(5))
def test_rect_motif_is_perfect_for_every_residue(c):
    motif = rect_code_motif(c)
    assert len(motif.cells) == 5
    assert motif.density == pytest.approx(1 / 5)
    report = verify_perfect(motif)
    assert report.is_eds
    assert all(count == 1 for count in report.coverage)


def test_rect_motif_pairwise_torus_distance():
    motif = rect_code_motif(0)
    torus = motif.torus_lattice()
    for u, v in itertools.combinations(motif.cells, 2):
        assert bfs_distance(torus, u, v) >= 3


def test_rect_motif_closed_under_knight_offsets():
    for c in range(5):
        motif = rect_code_motif(c)
        cells = set(motif.cells)
        for v in cells:
            for di, dj in RECT_CODE_OFFSETS:
                assert _wrap((v[0] + di, v[1] + dj), motif.periods) in cells


def test_rect_motif_breaks_on_wrong_torus():
    # the same cells wrapped on a 6x6 torus no longer tile perfectly
    from effdom.lattice import rect

    report = audit(rect(6, 6, torus=True), rect_code_motif(0).cells)
    assert not report.is_eds


def test_singleton_motif_leaves_20_voids():
    motif = Motif(kind=LatticeKind.RECTANGULAR, periods=(5, 5), cells=((1, 1),))
    report = verify_perfect(motif)
    assert not report.is_eds
    assert len(report.voids) == 20


def test_rect_motif_residue_domain():
    with pytest.raises(ValueError):
        rect_code_motif(5)


# -- triangular motif --------------------------------------------------------------


@pytest.mark.parametrize("c", range(7))
def test_tri_motif_is_perfect_for_every_residue(c):
    motif = tri_code_motif(c)
    assert len(motif.cells) == 7
    assert motif.density == pytest.approx(1 / 7)
    assert verify_perfect(motif).is_eds


def test_tri_closed_neighborhood_hits_every_residue_once():
    # the oracle behind density 1/7: N[v] meets each residue class exactly once
    torus = tri_code_motif(0).torus_lattice()
    for v in torus.vertices():
        residues = [(u[0] + 3 * u[1]) % 7 for u in (v, *compiled_neighbors(torus, v))]
        assert sorted(residues) == list(range(7))


def test_tri_motif_closed_under_code_translations():
    for c in range(7):
        motif = tri_code_motif(c)
        cells = set(motif.cells)
        for v in cells:
            for dx, dy in TRI_CODE_OFFSETS:
                assert _wrap((v[0] + dx, v[1] + dy), motif.periods) in cells


def test_tri_code_offsets_have_distance_three():
    torus = tri_code_motif(0).torus_lattice()
    center = (4, 4)
    for dx, dy in TRI_CODE_OFFSETS:
        assert bfs_distance(torus, center, (4 + dx, 4 + dy)) == 3


def test_tri_motif_residue_domain():
    with pytest.raises(ValueError):
        tri_code_motif(7)


# -- hexagonal motif -----------------------------------------------------------------


def _hex_faces(lat):
    """All hexagonal faces of an even x even brick torus as 6-cycles."""
    faces = []
    for i in range(1, lat.rows + 1):
        for j in range(1, lat.cols + 1):
            if (i + j) % 2 == 0:  # vertical edges at columns j and j+2
                i2 = i % lat.rows + 1
                cols = [(j + t - 1) % lat.cols + 1 for t in range(3)]
                faces.append(
                    [(i, cols[0]), (i, cols[1]), (i, cols[2]),
                     (i2, cols[2]), (i2, cols[1]), (i2, cols[0])]
                )
    return faces


def test_hex_motif_density_and_perfection():
    motif = hex_code_motif()
    assert motif.density == pytest.approx(1 / 4)
    report = verify_perfect(motif)
    assert report.is_eds
    assert all(count == 1 for count in report.coverage)


def test_hex_motif_faces_hold_two_opposite_cells_or_none():
    motif = hex_code_motif()
    cells = set(motif.cells)
    lat = motif.torus_lattice()
    for face in _hex_faces(lat):
        hits = [t for t, v in enumerate(face) if v in cells]
        assert hits == [] or (len(hits) == 2 and (hits[1] - hits[0]) == 3)


def test_hex_faces_are_genuine_six_cycles():
    lat = hexa(4, 4, torus=True)
    faces = _hex_faces(lat)
    assert len(faces) == 8  # V - E + F = 0 on the torus: 16 - 24 + 8
    for face in faces:
        for t in range(6):
            assert face[(t + 1) % 6] in compiled_neighbors(lat, face[t])


def test_hex_motif_found_by_exhaustive_search():
    """Independent search: enumerate all 4-subsets of the 4x4 quotient."""
    lat = hexa(4, 4, torus=True)
    verts = lat.vertices()
    perfect = []
    for combo in itertools.combinations(verts, 4):
        seen = set()
        ok = True
        for v in combo:
            block = {v, *compiled_neighbors(lat, v)}
            if seen & block:
                ok = False
                break
            seen |= block
        if ok and len(seen) == 16:
            perfect.append(set(combo))
    assert set(hex_code_motif().cells) in perfect
    faces = _hex_faces(lat)
    face_proper = [
        code
        for code in perfect
        if all(
            (lambda hits: hits == [] or (len(hits) == 2 and hits[1] - hits[0] == 3))(
                [t for t, v in enumerate(face) if v in code]
            )
            for face in faces
        )
    ]
    assert set(hex_code_motif().cells) in face_proper


def test_hex_motif_members_pairwise_distance_three():
    motif = hex_code_motif()
    torus = motif.torus_lattice()
    for u, v in itertools.combinations(motif.cells, 2):
        assert bfs_distance(torus, u, v) >= 3


# -- cross-check against the exact solver ----------------------------------------------


@pytest.mark.parametrize(
    "motif",
    [rect_code_motif(0), tri_code_motif(0), hex_code_motif()],
    ids=["rect", "tri", "hex"],
)
def test_brute_force_confirms_quotients_are_perfect(motif):
    # independent path: the exact solver reaches F = |V| on each quotient
    from effdom.solver import brute_force_F

    torus = motif.torus_lattice()
    result = brute_force_F(torus)
    assert result.f_value == torus.vertex_count
    assert audit(torus, result.witness).is_eds


# -- expansion into bounded windows ----------------------------------------------------


def test_expand_one_fundamental_domain():
    motif = rect_code_motif(2)
    assert expand_motif(motif, 5, 5) == motif.cells


@pytest.mark.parametrize("c", range(5))
def test_expand_1x1(c):
    cells = expand_motif(rect_code_motif(c), 1, 1)
    assert cells == (((1, 1),) if (1 + 3) % 5 == c else ())


_ALL_MOTIFS = (
    [pytest.param(rect_code_motif(c), id=f"rect-{c}") for c in range(5)]
    + [pytest.param(tri_code_motif(c), id=f"tri-{c}") for c in range(7)]
    + [pytest.param(hex_code_motif(), id="hex")]
)


@pytest.mark.parametrize("motif", _ALL_MOTIFS)
def test_expand_matches_vertex_filter(motif):
    # Every window vertex whose wrapped coordinate is a motif cell, row-major.
    cells = set(motif.cells)
    for rows, cols in ((1, 1), (3, 3), (9, 9), (16, 16), (6, 13), (13, 6)):
        if motif.kind is LatticeKind.TRIANGULAR and rows != cols:
            continue
        window = window_lattice(motif, rows, cols)
        listed = tuple(v for v in window.vertices() if _wrap(v, motif.periods) in cells)
        assert expand_motif(motif, rows, cols) == listed


def test_expand_rejects_empty_window():
    with pytest.raises(ValueError, match="at least 1x1"):
        expand_motif(rect_code_motif(0), 0, 5)


def test_expand_11x11_is_packing_with_boundary_voids():
    for c in range(5):
        motif = rect_code_motif(c)
        window = window_lattice(motif, 11, 11)
        cells = expand_motif(motif, 11, 11)
        report = audit(window, cells)
        assert report.is_two_packing
        assert all(i in (1, 11) or j in (1, 11) for i, j in report.voids)


def _boundary_distance(lat):
    """Graph distance of every vertex to the window boundary, by multi-source BFS.

    Boundary vertices are those missing at least one neighbour of the
    unbounded lattice, i.e. of degree below the lattice's regular degree.
    """
    from collections import deque

    dist = {}
    queue = deque()
    full_degree = {LatticeKind.RECTANGULAR: 4, LatticeKind.TRIANGULAR: 6, LatticeKind.HEXAGONAL: 3}
    for v in lat.vertices():
        if len(compiled_neighbors(lat, v)) < full_degree[lat.kind]:
            dist[v] = 0
            queue.append(v)
    while queue:
        w = queue.popleft()
        for x in compiled_neighbors(lat, w):
            if x not in dist:
                dist[x] = dist[w] + 1
                queue.append(x)
    return dist


@pytest.mark.parametrize(
    "motif,rows,cols",
    [
        (rect_code_motif(0), 7, 9),
        (rect_code_motif(3), 11, 11),
        (tri_code_motif(0), 10, 10),
        (tri_code_motif(4), 9, 9),
        (hex_code_motif(), 8, 8),
        (hex_code_motif(), 7, 10),
    ],
    ids=["rect7x9", "rect11", "tri10", "tri9", "hex8", "hex7x10"],
)
def test_expand_interior_coverage_is_exactly_one(motif, rows, cols):
    window = window_lattice(motif, rows, cols)
    cells = expand_motif(motif, rows, cols)
    report = audit(window, cells)
    assert report.is_two_packing
    boundary = _boundary_distance(window)
    index = window.compiled.index
    for v in window.vertices():
        if boundary[v] >= 2:
            assert report.coverage[index[v]] == 1


def test_tri_window_must_be_square():
    with pytest.raises(ValueError):
        expand_motif(tri_code_motif(0), 6, 9)


def test_motif_cells_must_fit_fundamental_domain():
    with pytest.raises(ValueError):
        Motif(kind=LatticeKind.RECTANGULAR, periods=(5, 5), cells=((6, 1),))
