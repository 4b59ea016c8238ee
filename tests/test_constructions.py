import pytest

from conftest import compiled_neighbors, reference_knight
from effdom.constructions import (
    CONSTRUCTIONS,
    AugmentedLattice,
    Pendant,
    eds_pn_p2,
    fset_pn_p2_even,
    fset_pn_p3,
    fset_square_small,
    knight_construction,
    lower_bound_F,
    near_grid_augment,
    predicted_voids,
)
from effdom.lattice import rect
from effdom.packing import audit, transpose_set
from effdom.solver import dp_F_rect

# -- 2 x n strips ---------------------------------------------------------------


def test_eds_p2_small_cases():
    assert eds_pn_p2(1) == ((1, 1),)
    assert eds_pn_p2(5) == ((1, 1), (1, 5), (2, 3))
    assert eds_pn_p2(9) == ((1, 1), (1, 5), (1, 9), (2, 3), (2, 7))


@pytest.mark.parametrize("n", range(1, 100, 2))
def test_eds_p2_is_perfect_for_odd_n(n):
    report = audit(rect(2, n), eds_pn_p2(n))
    assert report.is_eds
    assert report.influence == 2 * n


@pytest.mark.parametrize("n", [2, 4, 10])
def test_eds_p2_rejects_even_n(n):
    with pytest.raises(ValueError, match="p2-even"):
        eds_pn_p2(n)


def test_p2_even_small_cases():
    assert fset_pn_p2_even(2) == ((1, 1),)
    assert fset_pn_p2_even(4) == ((1, 1), (2, 3))
    assert fset_pn_p2_even(6) == ((1, 1), (1, 5), (2, 3))


@pytest.mark.parametrize("n", range(2, 101, 2))
def test_p2_even_influence_and_single_void(n):
    report = audit(rect(2, n), fset_pn_p2_even(n))
    assert report.is_two_packing
    assert report.influence == 2 * n - 1
    expected_void = (2, n) if (n // 2) % 2 == 1 else (1, n)
    assert report.voids == (expected_void,)


def test_p2_even_rejects_odd_n():
    with pytest.raises(ValueError, match="eds-p2"):
        fset_pn_p2_even(5)


# -- 3 x n strips ---------------------------------------------------------------


def test_p3_exceptional_square():
    assert fset_pn_p3(3) == ((1, 1), (3, 2))
    report = audit(rect(3, 3), fset_pn_p3(3))
    assert report.influence == 7 and len(report.voids) == 2


@pytest.mark.parametrize(
    "n,expected_influence",
    [(4, 11), (5, 14), (6, 16), (12, 32), (13, 35), (14, 38)],
)
def test_p3_known_values(n, expected_influence):
    report = audit(rect(3, n), fset_pn_p3(n))
    assert report.is_two_packing
    assert report.influence == expected_influence == 3 * n - n // 3


@pytest.mark.parametrize("n", range(4, 61))
def test_p3_formula_and_void_count(n):
    report = audit(rect(3, n), fset_pn_p3(n))
    assert report.is_two_packing
    assert report.influence == 3 * n - n // 3
    assert len(report.voids) == n // 3


def test_p3_rejects_small_n():
    with pytest.raises(ValueError):
        fset_pn_p3(2)


# -- small squares ----------------------------------------------------------------


def test_p4p4_perfect_code():
    members = fset_square_small(4)
    assert len(members) == 4
    report = audit(rect(4, 4), members)
    assert report.is_eds and report.influence == 16
    assert audit(rect(4, 4), transpose_set(members)).is_eds


@pytest.mark.parametrize("n,expected", [(5, 23), (6, 33)])
def test_square_witnesses(n, expected):
    report = audit(rect(n, n), fset_square_small(n))
    assert report.is_two_packing
    assert report.influence == expected


def test_square_witnesses_domain():
    with pytest.raises(ValueError):
        fset_square_small(7)


# -- void counts and bounds ---------------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [(7, 5), (8, 6), (9, 4), (10, 8), (11, 8), (12, 9), (13, 10), (14, 8), (22, 17)],
)
def test_predicted_voids_values(n, expected):
    assert predicted_voids(n) == expected


def test_predicted_voids_residue_formula():
    for n in range(7, 80):
        k = n // 5
        expected = 4 * k if n % 5 in (0, 1, 4) else n - k - 1
        assert predicted_voids(n) == expected


def test_void_difference_oscillation():
    # consecutive differences repeat the block (+1, -2, +4, 0, +1) from n = 7
    diffs = [predicted_voids(n + 1) - predicted_voids(n) for n in range(7, 60)]
    cycle = [1, -2, 4, 0, 1]
    assert diffs == [cycle[t % 5] for t in range(len(diffs))]


@pytest.mark.parametrize(
    "n,expected", [(7, 44), (9, 77), (11, 113), (12, 135), (22, 467)]
)
def test_bound_values(n, expected):
    assert lower_bound_F(n) == expected


def test_bounds_equal_square_minus_voids():
    for n in range(7, 61):
        assert lower_bound_F(n) == n * n - predicted_voids(n)


# pytest would number function parameters (func0, func1), so the ids are spelled out.
@pytest.mark.parametrize(
    "func", [predicted_voids, lower_bound_F], ids=["predicted_voids", "lower_bound_F"]
)
def test_bounds_domain(func):
    with pytest.raises(ValueError):
        func(6)


# -- knight construction ---------------------------------------------------------

# Anchor-and-ray pattern of the 9 x 9 board, voids at (1,5), (5,1), (5,9), (9,5).
KNIGHT_9 = (
    (1, 3), (1, 8),
    (2, 1), (2, 6),
    (3, 4), (3, 9),
    (4, 2), (4, 7),
    (5, 5),
    (6, 3), (6, 8),
    (7, 1), (7, 6),
    (8, 4), (8, 9),
    (9, 2), (9, 7),
)


def test_knight_9_matches_known_board():
    members = knight_construction(9)
    assert members == tuple(sorted(KNIGHT_9))
    report = audit(rect(9, 9), members)
    assert report.influence == 77
    assert report.voids == ((1, 5), (5, 1), (5, 9), (9, 5))


@pytest.mark.parametrize("n,influence,voids", [(7, 44, 5), (9, 77, 4), (10, 92, 8)])
def test_knight_known_values(n, influence, voids):
    report = audit(rect(n, n), knight_construction(n))
    assert report.is_two_packing
    assert report.influence == influence
    assert len(report.voids) == voids


@pytest.mark.parametrize("n", range(7, 61))
def test_knight_full_range(n):
    report = audit(rect(n, n), knight_construction(n))
    assert report.is_two_packing
    assert report.influence == lower_bound_F(n)
    assert all(i in (1, n) or j in (1, n) for i, j in report.voids)
    assert len(report.voids) == predicted_voids(n)


def _anchors_and_rays(members, n):
    """The anchors of a knight set, its members in columns 1-2 or on the
    bottom row, each mapped to its ray: the members (i - k, j + 2k),
    k = 1, 2, ..., up to the first step that leaves the set."""
    member_set = set(members)
    anchors = tuple(v for v in members if v[1] <= 2 or v[0] == n)
    rays = {}
    for i, j in anchors:
        ray, k = [], 1
        while (i - k, j + 2 * k) in member_set:
            ray.append((i - k, j + 2 * k))
            k += 1
        rays[(i, j)] = tuple(ray)
    return anchors, rays


def test_knight_structure():
    n = 12
    members = knight_construction(n)
    anchors, rays = _anchors_and_rays(members, n)
    # every ray runs from its anchor, one up and two right per step, to the
    # edge of the board
    for (i, j), ray in rays.items():
        assert len(ray) == min(i - 1, (n - j) // 2)
    # the anchors and their rays are the whole set
    ray_union = {v for ray in rays.values() for v in ray}
    assert members == tuple(sorted(set(anchors) | ray_union))


@pytest.mark.parametrize("n", [*range(7, 151), 250])
def test_knight_matches_reference_walk(n):
    members = knight_construction(n)
    seeds, rays, full_set = reference_knight(n)
    assert members == full_set
    assert _anchors_and_rays(members, n) == (seeds, rays)


def test_knight_domain():
    with pytest.raises(ValueError):
        knight_construction(6)


# -- pendant augmentation ----------------------------------------------------------


def test_augment_p3_square():
    lat = rect(3, 3)
    augmented, eds = near_grid_augment(lat, fset_pn_p3(3))
    assert augmented.vertex_count == 11
    assert len(eds) == 4
    assert audit(augmented, eds).is_eds


def test_augment_perfect_code_is_identity():
    lat = rect(4, 4)
    augmented, eds = near_grid_augment(lat, fset_square_small(4))
    assert augmented.pendants == ()
    assert augmented.vertex_count == 16
    assert eds == fset_square_small(4)


def test_augment_knight_11():
    lat = rect(11, 11)
    augmented, eds = near_grid_augment(lat, knight_construction(11))
    assert len(augmented.pendants) == predicted_voids(11)
    assert audit(augmented, eds).is_eds


def test_augment_rejects_conflicting_sets():
    with pytest.raises(ValueError, match="2-packing"):
        near_grid_augment(rect(3, 3), ((1, 1), (1, 2)))


def test_augment_rejects_torus():
    with pytest.raises(ValueError):
        near_grid_augment(rect(5, 5, torus=True), ((1, 1),))


def test_augmented_lattice_graph_protocol():
    lat = rect(3, 3)
    augmented, _ = near_grid_augment(lat, fset_pn_p3(3))
    for pendant in augmented.pendants:
        assert len(compiled_neighbors(augmented, pendant)) == 1
        assert compiled_neighbors(augmented, pendant) == (pendant.anchor,)
        # the anchor gained exactly the pendant
        anchor_neighbors = compiled_neighbors(augmented, pendant.anchor)
        assert len(anchor_neighbors) == len(compiled_neighbors(lat, pendant.anchor)) + 1
        assert pendant in anchor_neighbors
    order = augmented.compiled.order
    assert augmented.vertex_count == len(order)
    assert order[: lat.vertex_count] == lat.vertices()


def test_audit_rejects_foreign_pendant():
    augmented, eds = near_grid_augment(rect(3, 3), fset_pn_p3(3))
    foreign = Pendant(index=len(augmented.pendants), anchor=(2, 2))
    with pytest.raises(ValueError, match="is not a vertex of the given graph"):
        audit(augmented, eds + (foreign,))


def test_pendants_must_be_distinct():
    with pytest.raises(ValueError):
        AugmentedLattice(rect(2, 2), (Pendant(0, (1, 1)), Pendant(1, (1, 1))))


# -- registry -----------------------------------------------------------------------


def _valid_ns(construction, top):
    """The n <= top for which the construction builds a set."""
    valid = []
    for n in range(1, top + 1):
        try:
            construction.build(n)
        except ValueError:
            continue
        valid.append(n)
    return valid


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_contract_is_the_exact_F(name):
    construction = CONSTRUCTIONS[name]
    # The exact solver's witness meets each closed form, so the closed form
    # is F; the knight's lower bound is only conjectured to be exact.
    if name != "knight":
        for n in _valid_ns(construction, 30):
            lattice = construction.lattice(n)
            witness = dp_F_rect(lattice.rows, lattice.cols).witness
            assert construction.contract(n, audit(lattice, witness)), n
    # The builder's set meets the contract and, one member short, misses it:
    # the exit-1 path of `construct`.
    for n in _valid_ns(construction, 12):
        lattice = construction.lattice(n)
        members = construction.build(n)
        assert construction.contract(n, audit(lattice, members)), n
        for dropped in members:
            rest = tuple(v for v in members if v != dropped)
            assert not construction.contract(n, audit(lattice, rest)), (n, dropped)
