import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compiled_neighbors, greedy_random_packing, pairwise_distances_ok, reference_adjacency
from effdom.constructions import Pendant, fset_square_small, near_grid_augment
from effdom.lattice import InvalidCoordError, Lattice, hexa, rect, tri
from effdom.packing import (
    _sort_key,
    audit,
    normalize_set,
    report_to_json,
    set_from_json,
    transpose_set,
    vertex_to_json,
)


def test_audit_p3p3_seven_dominated_two_voids():
    report = audit(rect(3, 3), [(1, 1), (3, 2)])
    assert report.is_two_packing
    assert not report.is_eds
    assert report.influence == 7
    assert report.voids == ((1, 3), (2, 3))
    assert report.conflicts == ()


def test_audit_empty_set():
    report = audit(rect(3, 3), [])
    assert report.is_two_packing
    assert report.influence == 0
    assert len(report.voids) == 9


def test_audit_distance_two_conflict():
    report = audit(rect(3, 3), [(1, 1), (2, 2)])
    assert not report.is_two_packing
    # (1,2) and (2,1) are shared neighbours: dominated twice.
    assert set(report.conflicts) == {(1, 2), (2, 1)}


def test_audit_rejects_foreign_coords():
    with pytest.raises(InvalidCoordError, match=r"\(5, 1\)"):
        audit(rect(3, 3), [(5, 1)])


def test_audit_names_first_foreign_vertex_in_row_major_order():
    # Counting ignores order, but the error still names the smallest
    # foreign member, here given last.
    with pytest.raises(InvalidCoordError, match=r"\(4, 2\)"):
        audit(rect(3, 3), [(5, 1), (4, 2), (1, 1)])
    augmented, eds = near_grid_augment(rect(3, 3), ((1, 1), (3, 2)))
    foreign = Pendant(index=len(augmented.pendants), anchor=(2, 2))
    with pytest.raises(ValueError, match=r"^\(4, 2\) is not a vertex"):
        audit(augmented, (foreign, (5, 1), (4, 2)) + eds)


def test_is_two_packing_examples():
    assert audit(rect(2, 5), [(1, 1), (1, 5), (2, 3)]).is_two_packing
    assert audit(rect(4, 4), [(2, 2)]).is_two_packing
    assert not audit(rect(4, 4), [(1, 1), (1, 3)]).is_two_packing


def test_influence_examples():
    for graph, members, value in (
        (rect(3, 3), [(1, 1), (3, 2)], 7),
        (rect(3, 3), [(1, 1), (3, 3)], 6),
        (rect(4, 4), fset_square_small(4), 16),
    ):
        report = audit(graph, members)
        assert report.is_two_packing and report.influence == value


def test_influence_refuses_conflicting_sets():
    # Influence is the sum of 1 + deg only for a 2-packing; the report of
    # a conflicting set says it is not one.
    assert not audit(rect(4, 4), [(1, 1), (1, 3)]).is_two_packing


def test_eds_iff_influence_equals_vertex_count():
    lat = rect(4, 4)
    report = audit(lat, fset_square_small(4))
    assert report.is_eds and report.influence == lat.vertex_count
    report = audit(rect(3, 3), [(1, 1), (3, 2)])
    assert not report.is_eds and report.influence < 9


def test_normalize_orders_and_dedups():
    assert normalize_set([(2, 1), (1, 2), (2, 1)]) == ((1, 2), (2, 1))
    assert normalize_set([]) == ()


def _keyed_normalize(members):
    # normalize_set without its fast path for coord-only sets
    return tuple(sorted(set(members), key=_sort_key))


_PENDANTS = [Pendant(k, (1, k + 1)) for k in range(4)]


@pytest.mark.parametrize(
    "members",
    [
        [(3, 1), (1, 2), (2, 2), (1, 2), (-1, 5)],
        [(True, False), (0, 1), (False, False), (1, 0), (True, True), (2, False)],
        [(1, 1), (True, 1), (1, True), (0, 0)],
        [(2, 1), _PENDANTS[2], (1, 4), _PENDANTS[0], (2, 1), _PENDANTS[0]],
        _PENDANTS[::-1],
        # tuples that are not int pairs go after the coords
        [(1, 2), (0, 5, 1), (1, 0)],
        [(1, 1), (0.5, 1)],
        [(2, 2), ("a", 1)],
        [],
    ],
)
def test_normalize_fast_path_matches_keyed_sort(members):
    fast, keyed = normalize_set(members), _keyed_normalize(members)
    assert fast == keyed
    # equal tuples may differ in their coordinate types (True == 1)
    assert [repr(v) for v in fast] == [repr(v) for v in keyed]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5) | st.booleans(), st.integers(-5, 5) | st.booleans())))
def test_normalize_fast_path_matches_keyed_sort_on_int_pairs(members):
    assert [repr(v) for v in normalize_set(members)] == [repr(v) for v in _keyed_normalize(members)]


def test_transpose_set():
    assert transpose_set([(1, 2), (3, 1)]) == ((1, 3), (2, 1))
    assert transpose_set([]) == ()


def test_transpose_preserves_audit_on_square_lattices():
    lat = rect(7, 7)
    rng = random.Random(7)
    for _ in range(40):
        members = greedy_random_packing(lat, rng)
        before = audit(lat, members)
        after = audit(lat, transpose_set(members))
        assert before.influence == after.influence
        assert before.is_two_packing == after.is_two_packing
        assert before.is_eds == after.is_eds
        assert len(before.voids) == len(after.voids)


@pytest.mark.parametrize("lat", [rect(2, 3), rect(3, 3), tri(3)], ids=lambda l: l.descriptor())
def test_dual_characterization_exhaustive(lat):
    # distance >= 3 pairwise iff no vertex is dominated twice, over all subsets
    verts = lat.vertices()
    for r in range(len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            assert audit(lat, combo).is_two_packing == pairwise_distances_ok(lat, combo)


@given(
    members=st.sets(
        st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=0, max_size=8
    )
)
@settings(max_examples=150)
def test_dual_characterization_random_subsets(members):
    lat = rect(5, 5)
    report = audit(lat, members)
    assert report.is_two_packing == pairwise_distances_ok(lat, members)
    if report.is_two_packing:
        assert report.influence == sum(1 + len(compiled_neighbors(lat, v)) for v in members)
        assert report.influence == report.dominated_count


@pytest.mark.parametrize(
    "lat",
    [rect(5, 7), rect(6, 6, torus=True), tri(6), tri(5, 5, torus=True), hexa(5, 6), hexa(4, 6, torus=True)],
    ids=lambda l: l.descriptor(),
)
def test_influence_identity_on_random_packings(lat):
    rng = random.Random(lat.vertex_count)
    for _ in range(25):
        members = greedy_random_packing(lat, rng)
        report = audit(lat, members)
        assert report.is_two_packing
        assert report.influence == sum(1 + len(compiled_neighbors(lat, v)) for v in members)
        assert report.influence == report.dominated_count


def test_subsets_of_packings_are_packings():
    lat = rect(6, 8)
    rng = random.Random(11)
    for _ in range(25):
        members = greedy_random_packing(lat, rng)
        for drop in range(len(members)):
            subset = members[:drop] + members[drop + 1 :]
            assert audit(lat, subset).is_two_packing


def test_coverage_counts_every_vertex_once():
    lat = tri(5)
    report = audit(lat, [(1, 1)])
    assert report.order == lat.vertices()
    assert len(report.coverage) == len(report.order)
    index = lat.compiled.index
    assert report.coverage[index[(1, 1)]] == 1
    assert report.coverage[index[(1, 2)]] == 1
    assert report.coverage[index[(1, 4)]] == 0


def _reference_counts(graph, members):
    """How many members dominate each vertex, from ``reference_adjacency``."""
    adjacency = reference_adjacency(graph)
    counts = dict.fromkeys(adjacency, 0)
    for m in set(members):
        for v in (m, *adjacency[m]):
            counts[v] += 1
    return counts


_COVERAGE_GRAPHS = [
    rect(5, 7),
    rect(5, 6, torus=True),
    tri(6),
    tri(5, 5, torus=True),
    hexa(5, 6),
    hexa(4, 6, torus=True),
    near_grid_augment(rect(5, 6), ((1, 1), (3, 4)))[0],
]


@pytest.mark.parametrize(
    "graph",
    _COVERAGE_GRAPHS,
    ids=[g.descriptor() if isinstance(g, Lattice) else "rect:5x6+pendants" for g in _COVERAGE_GRAPHS],
)
def test_coverage_is_indexed_by_vertex_id(graph):
    # Ids are row-major over the lattice, then the pendants in their order.
    if isinstance(graph, Lattice):
        ordered = graph.vertices()
    else:
        ordered = graph.base.vertices() + list(graph.pendants)
    rng = random.Random(graph.vertex_count)
    for share in (0.0, 0.15, 0.4):
        members = [v for v in ordered if rng.random() < share]
        rng.shuffle(members)
        report = audit(graph, members)
        assert report.order is graph.compiled.order
        assert report.order == ordered
        assert len(report.coverage) == graph.vertex_count
        expected = _reference_counts(graph, members)
        assert report.coverage == [expected[v] for v in ordered]
        assert report.voids == tuple(v for v in ordered if expected[v] == 0)
        assert report.conflicts == tuple(v for v in ordered if expected[v] >= 2)


# -- JSON forms ----------------------------------------------------------------


def test_set_json_round_trip():
    obj = {"lattice": "rect:3x4", "set": [[1, 1], [2, 4], [3, 2]]}
    back_lat, back_members = set_from_json(obj)
    assert back_lat == rect(3, 4) and back_members == ((1, 1), (2, 4), (3, 2))


@pytest.mark.parametrize(
    "obj",
    [
        {"set": [[1, 1]]},
        {"lattice": "rect:3x3"},
        {"lattice": "rect:3x3", "set": [[1]]},
        {"lattice": "rect:3x3", "set": ["ab"]},
        {"lattice": "nope:3x3", "set": []},
        {"lattice": "rect:3x3", "set": [[1, True]]},
        {"lattice": "rect:3x3", "set": [[1.0, 1]]},
        {"lattice": "rect:3x3", "set": [[1, 2, 3]]},
        {"lattice": "rect:3x3", "set": [(1, 2)]},
    ],
)
def test_set_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        set_from_json(obj)


def test_report_json_mirrors_fields():
    report = audit(rect(3, 3), [(1, 1), (3, 2)])
    obj = report_to_json(report)
    assert obj["is_two_packing"] is True
    assert obj["is_eds"] is False
    assert obj["influence"] == 7
    assert obj["voids"] == [[1, 3], [2, 3]]
    assert obj["conflicts"] == []
    assert [[1, 1], 1] in json.loads(json.dumps(obj))["coverage"]
    # Coverage items are tuples; re-encoded, a report with pendants is the
    # all-list form with each vertex through vertex_to_json.
    augmented, eds = near_grid_augment(rect(3, 3), ((1, 1), (3, 2)))
    report = audit(augmented, eds)
    listed = {
        "is_two_packing": True,
        "is_eds": True,
        "influence": 11,
        "dominated_count": 11,
        "weight_sum": 11,
        "voids": [],
        "conflicts": [],
        "coverage": [[vertex_to_json(v), c] for v, c in zip(report.order, report.coverage)],
    }
    assert {"pendant": 1, "attached_to": [2, 3]} in [v for v, _ in listed["coverage"]]
    assert json.loads(json.dumps(report_to_json(report))) == listed
