"""Acceptance suite: every shipped claim, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion, including its runtime against the stated budget.
"""

import random
import time

from conftest import bfs_distance, compiled_neighbors, greedy_random_packing, pairwise_distances_ok
from effdom import (
    audit,
    brute_force_F,
    check_conjecture,
    dp_F_rect,
    eds_pn_p2,
    fset_pn_p2_even,
    fset_pn_p3,
    hex_code_motif,
    hexa,
    knight_construction,
    lower_bound_F,
    near_grid_augment,
    rect,
    rect_code_motif,
    transpose_set,
    tri,
    tri_code_motif,
    verify_perfect,
)


def _criterion(num, label, budget_s, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= budget_s
    verdict = "PASS" if within else "FAIL (over time budget)"
    print(f"ACCEPTANCE {num:>2} {verdict} ({elapsed:.2f}s, budget {budget_s:g}s): {label}")
    assert within, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"


def test_criterion_1_p2_strips():
    def body():
        for n in range(1, 100, 2):
            report = audit(rect(2, n), eds_pn_p2(n))
            assert report.is_eds and report.influence == 2 * n
        for n in range(2, 101, 2):
            report = audit(rect(2, n), fset_pn_p2_even(n))
            assert report.is_two_packing and report.influence == 2 * n - 1
            assert dp_F_rect(2, n).f_value == 2 * n - 1

    _criterion(1, "2 x n strips: perfect codes for odd n <= 99, F = 2n-1 for even n <= 100", 5, body)


def test_criterion_2_p3_strips():
    def body():
        for n in range(3, 41):
            report = audit(rect(3, n), fset_pn_p3(n))
            value = dp_F_rect(3, n).f_value
            assert report.is_two_packing
            assert report.influence == value
            if n == 3:
                # the formula starts at n = 4; the 3 x 3 square itself
                # tops out at 7 with two voids
                assert value == 7 and len(report.voids) == 2
            else:
                assert value == 3 * n - n // 3
                assert len(report.voids) == n // 3

    _criterion(2, "3 x n strips: construction, F = 3n - floor(n/3) and DP agree for 3 <= n <= 40", 5, body)


def test_criterion_3_small_squares():
    def body():
        assert dp_F_rect(3, 3).f_value == 7
        four = dp_F_rect(4, 4)
        assert four.f_value == 16
        assert audit(rect(4, 4), four.witness).is_eds
        assert dp_F_rect(5, 5).f_value == 23
        assert dp_F_rect(6, 6).f_value == 33

    _criterion(3, "small squares: F = 7, 16 (perfect), 23, 33 for sides 3..6", 1, body)


def test_criterion_4_characterization():
    def body():
        for m in range(3, 10):
            for n in range(m, 10):
                value = dp_F_rect(m, n).f_value
                if (m, n) == (4, 4):
                    assert value == 16
                else:
                    assert value < m * n

    _criterion(4, "characterization: among 3 <= m <= n <= 9 only the 4 x 4 grid is perfect", 60, body)


def test_criterion_5_knight_construction():
    def body():
        for n in range(7, 61):
            report = audit(rect(n, n), knight_construction(n))
            assert report.is_two_packing
            assert report.influence == lower_bound_F(n)
            assert all(i in (1, n) or j in (1, n) for i, j in report.voids)

    _criterion(5, "knight construction: 2-packing meeting the bound, boundary voids, 7 <= n <= 60", 10, body)


def test_criterion_6_conjecture_desk_scale():
    def body():
        rows = check_conjecture(7, 13)
        for row in rows:
            assert row.dp_value == row.conjectured == lower_bound_F(row.n), row

    _criterion(6, "conjectured F(n x n) confirmed exactly by DP for 7 <= n <= 13", 600, body)


def test_criterion_6_stretch_14_to_16():
    def body():
        rows = check_conjecture(14, 16)
        assert all(row.matches for row in rows)

    _criterion("6s", "stretch: conjecture also confirmed for 14 <= n <= 16", 600, body)


def test_criterion_7_oracle_equivalence():
    def body():
        for m in range(1, 31):
            for n in range(m, 31):
                if m * n > 30:
                    continue
                assert dp_F_rect(m, n).f_value == brute_force_F(rect(m, n)).f_value

    _criterion(7, "oracle equivalence: DP = backtracking on every grid with mn <= 30", 60, body)


def test_criterion_8_infinite_lattice_quotients():
    def body():
        for residue in range(5):
            motif = rect_code_motif(residue)
            assert verify_perfect(motif).is_eds and motif.density == 1 / 5
        for residue in range(7):
            motif = tri_code_motif(residue)
            assert verify_perfect(motif).is_eds and motif.density == 1 / 7
        motif = hex_code_motif()
        assert verify_perfect(motif).is_eds and motif.density == 1 / 4

    _criterion(8, "torus quotients: rect, tri and hex motifs are perfect at densities 1/5, 1/7, 1/4", 1, body)


def test_criterion_9_near_grid_augmentation():
    def body():
        rng = random.Random(20260810)
        for _ in range(20):
            lat = rect(rng.randint(1, 10), rng.randint(1, 10))
            members = [v for v in greedy_random_packing(lat, rng) if rng.random() > 0.3]
            augmented, eds = near_grid_augment(lat, tuple(members))
            report = audit(augmented, eds)
            assert report.is_eds
            assert augmented.vertex_count == lat.vertex_count + len(augmented.pendants)

    _criterion(9, "near-grid augmentation: 20 random 2-packings on grids up to 10x10 become EDSs", 5, body)


def test_criterion_10_randomized_property_suites():
    cases = 0

    def random_lattice(rng):
        pick = rng.randrange(6)
        if pick == 0:
            return rect(rng.randint(1, 9), rng.randint(1, 9))
        if pick == 1:
            return rect(rng.randint(3, 8), rng.randint(3, 8), torus=True)
        if pick == 2:
            return tri(rng.randint(1, 8))
        if pick == 3:
            return tri(rng.randint(3, 7), rng.randint(3, 7), torus=True)
        if pick == 4:
            return hexa(rng.randint(1, 8), rng.randint(1, 8))
        return hexa(2 * rng.randint(2, 4), 2 * rng.randint(2, 4), torus=True)

    def body():
        nonlocal cases
        rng = random.Random(1729)

        for _ in range(300):  # adjacency symmetry
            lat = random_lattice(rng)
            v = rng.choice(lat.vertices())
            for u in compiled_neighbors(lat, v):
                assert v in compiled_neighbors(lat, u)
            cases += 1

        for _ in range(250):  # closed-form distance vs BFS oracle
            lat = rect(rng.randint(1, 8), rng.randint(1, 8))
            verts = lat.vertices()
            u, v = rng.choice(verts), rng.choice(verts)
            closed_form = abs(u[0] - v[0]) + abs(u[1] - v[1])
            assert closed_form == bfs_distance(lat, u, v)
            cases += 1

        for _ in range(200):  # influence identity on random 2-packings
            lat = random_lattice(rng)
            members = greedy_random_packing(lat, rng)
            report = audit(lat, members)
            assert report.is_two_packing
            assert report.influence == sum(1 + len(compiled_neighbors(lat, v)) for v in members)
            assert report.influence == report.dominated_count
            cases += 1

        for _ in range(150):  # dual 2-packing characterization on arbitrary subsets
            lat = random_lattice(rng)
            verts = lat.vertices()
            members = {rng.choice(verts) for _ in range(rng.randint(0, 6))}
            assert audit(lat, members).is_two_packing == pairwise_distances_ok(lat, members)
            cases += 1

        for _ in range(150):  # transpose invariance on square grids
            side = rng.randint(2, 8)
            lat = rect(side, side)
            members = [v for v in greedy_random_packing(lat, rng) if rng.random() > 0.25]
            before = audit(lat, members)
            after = audit(lat, transpose_set(members))
            assert before.influence == after.influence
            assert before.is_two_packing == after.is_two_packing
            assert len(before.voids) == len(after.voids)
            cases += 1

        assert cases >= 1000

    _criterion(10, "property suites: >= 1000 randomized lattice/packing invariant cases", 30, body)
