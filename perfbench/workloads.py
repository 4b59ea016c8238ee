"""The three workloads: seeded inputs, command lists and answer checks.

Sizes are fixed; the seed only picks which inputs are drawn (dropped and
added knight-set members, the motif residue) and the command order, so the
work in one pass does not depend on the seed.  The inputs are made here,
never from the program's output.  Every answer is checked against pinned
values and, where the command returns a vertex set, against ``reference``
(which does not use effdom).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import Lattice, coverage, packing_influence

# F(n x n) from the column DP; equal to n^2 - predicted_voids(n).
SQUARES = {7: 44, 8: 58, 9: 77, 10: 92, 11: 113, 12: 135, 13: 159, 14: 188, 15: 213, 16: 244}
STRIP, STRIP_F = "rect:10x300", 2876
# Exact F from the backtracking oracle; rect:7x7 equals the DP value.
ORACLE = {"hex:6x8": 47, "hex-torus:6x8": 48, "rect:7x7": 44, "rect-torus:7x7": 40, "tri:9": 39, "tri-torus:7x7": 49}
KNIGHT_N, KNIGHT_VOIDS = 250, 200
# The knight construction for n = 250: the residue class 2i + j = 3 (mod 5),
# a perfect code of the infinite grid cut to the board.
KNIGHT = [(i, j) for i in range(1, KNIGHT_N + 1) for j in range(1, KNIGHT_N + 1) if (2 * i + j) % 5 == 3]
KNIGHT_ARGV = ["construct", "knight", "--n", str(KNIGHT_N)]
WINDOW = 200
DROPPED = 4  # members removed for the void-leaving verify variant
ADDED = 3  # dominated non-members added for the conflicting verify variant

WORKLOADS = ("dp-grids", "oracle-lattices", "audit-boards")


class Mismatch(Exception):
    """The program's answer differs from the pinned or recomputed one."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass
class Command:
    label: str  # seed-independent name, used to match counters across runs
    argv: list[str]
    exit_code: int
    check: Callable[[str], dict]  # stdout -> work counters; raises Mismatch


def _pairs(vertices) -> list:
    return [list(v) for v in vertices]


# -- dp-grids and oracle-lattices ------------------------------------------------


def _check_conjecture(text: str) -> dict:
    rows = {r["n"]: r for r in json.loads(text)["rows"]}
    _expect(sorted(rows) == sorted(SQUARES), f"conjecture rows for n = {sorted(rows)}")
    for n, f in SQUARES.items():
        r = rows[n]
        _expect(r["dp_value"] == f and r["conjectured"] == f, f"F({n}x{n}) = {r['dp_value']}, pinned {f}")
        _expect(r["match"] is True and r["verified"] is True, f"row {n} not verified as a match")
    return {}


def _solve_check(descriptor: str, pinned: int) -> Callable[[str], dict]:
    def check(text: str) -> dict:
        out = json.loads(text)
        _expect(out["lattice"] == descriptor, f"solved {out['lattice']}, asked {descriptor}")
        _expect(out["F"] == pinned, f"F({descriptor}) = {out['F']}, pinned {pinned}")
        influence, _ = packing_influence(Lattice(descriptor), out["witness"])
        _expect(influence == pinned, f"witness for {descriptor} has influence {influence}")
        return {"explored": out.get("explored")}

    return check


def _dp_grids() -> list[Command]:
    return [
        Command("conjecture-7-16", ["conjecture", "--from", "7", "--to", "16"], 0, _check_conjecture),
        Command(f"solve-{STRIP}", ["solve", STRIP], 0, _solve_check(STRIP, STRIP_F)),
    ]


def _oracle_lattices() -> list[Command]:
    return [
        Command(f"brute-{d}", ["solve", "--method", "brute", d], 0, _solve_check(d, f))
        for d, f in ORACLE.items()
    ]


# -- audit-boards ------------------------------------------------------------------


def _check_report(report: dict, influence: int, voids: list, conflicts: list) -> None:
    _expect(report["influence"] == influence, f"influence {report['influence']}, recomputed {influence}")
    _expect(report["voids"] == _pairs(voids), f"{len(report['voids'])} voids, recomputed {len(voids)}")
    _expect(report["conflicts"] == _pairs(conflicts), f"{len(report['conflicts'])} conflicts, recomputed {len(conflicts)}")
    _expect(report["is_two_packing"] == (not conflicts), "wrong 2-packing flag")


def _on_boundary(voids: list) -> bool:
    return all(i in (1, KNIGHT_N) or j in (1, KNIGHT_N) for i, j in voids)


def _audit_boards(rng: random.Random, workdir: Path) -> list[Command]:
    board = Lattice(f"rect:{KNIGHT_N}x{KNIGHT_N}")
    members = KNIGHT
    influence, voids = packing_influence(board, members)
    dropped = set(rng.sample(members, DROPPED))
    sparse = sorted(v for v in members if v not in dropped)
    sparse_influence, sparse_voids = packing_influence(board, sparse)

    cover = coverage(board, members)
    taken = set(members)
    dominated = [v for v, c in cover.items() if c == 1 and v not in taken]
    crowded = sorted(members + rng.sample(dominated, ADDED))
    crowded_cover = coverage(board, crowded)
    crowded_conflicts = sorted(v for v, c in crowded_cover.items() if c > 1)
    crowded_voids = sorted(v for v, c in crowded_cover.items() if c == 0)
    crowded_dominated = len(crowded_cover) - len(crowded_voids)
    residue = rng.randrange(5)

    files = {}
    for name, vs in (("knight", members), ("sparse", sparse), ("crowded", crowded)):
        files[name] = str(workdir / f"{name}.json")
        Path(files[name]).write_text(json.dumps({"lattice": board.descriptor, "set": _pairs(vs)}))

    def construct(text: str) -> dict:
        # Any 2-packing with the pinned voids passes; the other commands read
        # the fixed set above, so their work does not depend on this answer.
        out = json.loads(text)
        got_influence, got_voids = packing_influence(board, out["set"])
        _expect(len(got_voids) == KNIGHT_VOIDS, f"knight set has {len(got_voids)} voids, pinned {KNIGHT_VOIDS}")
        _expect(_on_boundary(got_voids), "knight set has a void off the boundary")
        _check_report(out["report"], got_influence, got_voids, [])
        return {}

    def verify_sparse(text: str) -> dict:
        _check_report(json.loads(text)["report"], sparse_influence, sparse_voids, [])
        return {}

    def verify_crowded(text: str) -> dict:
        report = json.loads(text)["report"]
        _check_report(report, crowded_dominated, crowded_voids, crowded_conflicts)
        return {}

    def augment(text: str) -> dict:
        out = json.loads(text)
        anchors = [p["attached_to"] for p in out["pendants"]]
        _expect(anchors == _pairs(voids), "pendants are not hung off the voids")
        _expect(out["vertex_count"] == KNIGHT_N**2 + KNIGHT_VOIDS, f"augmented graph has {out['vertex_count']} vertices")
        _expect(out["report"]["is_eds"] is True, "augmented set is not an efficient dominating set")
        _expect(len(out["eds"]) == len(members) + KNIGHT_VOIDS, "augmented set has the wrong size")
        return {}

    def render(text: str) -> dict:
        edges = 2 * KNIGHT_N * (KNIGHT_N - 1)
        _expect(text.startswith("<svg") and text.rstrip().endswith("</svg>"), "render did not print an SVG document")
        _expect(text.count("<circle") == KNIGHT_N**2, f"{text.count('<circle')} vertex circles")
        voids_drawn = text.count('fill="white"')
        _expect(voids_drawn == KNIGHT_VOIDS, f"{voids_drawn} void circles, expected {KNIGHT_VOIDS}")
        _expect(text.count('r="10.0" fill="black"') == len(members), "wrong number of member circles")
        _expect(text.count("<line") == edges, f"{text.count('<line')} edges, expected {edges}")
        return {}

    def motif_check(kind: str) -> Callable[[str], dict]:
        def check(text: str) -> dict:
            out = json.loads(text)
            window = Lattice(f"{kind}:{WINDOW}x{WINDOW}")
            _expect(out["perfect"] is True, f"{kind} motif not perfect")
            _expect(out["window"] == window.descriptor, f"window {out['window']}")
            win_influence, win_voids = packing_influence(window, out["expansion"])
            _check_report(out["window_report"], win_influence, win_voids, [])
            return {}

        return check

    size = f"{WINDOW}x{WINDOW}"
    return [
        Command("construct-knight", KNIGHT_ARGV, 0, construct),
        Command("verify-sparse", ["verify", files["sparse"]], 1, verify_sparse),
        Command("verify-crowded", ["verify", files["crowded"]], 3, verify_crowded),
        Command("augment-knight", ["augment", files["knight"]], 0, augment),
        Command("render-svg", ["render", "--format", "svg", files["knight"]], 0, render),
        Command("motif-hex", ["motif", "--lattice", "hex", "--window", size], 0, motif_check("hex")),
        Command("motif-rect", ["motif", "--lattice", "rect", "--residue", str(residue), "--window", size], 0, motif_check("rect")),
    ]


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Commands of one pass, in the seed's order; audit-boards writes its
    set files to workdir."""
    rng = random.Random(seed)
    if workload == "dp-grids":
        commands = _dp_grids()
    elif workload == "oracle-lattices":
        commands = _oracle_lattices()
    else:
        commands = _audit_boards(rng, workdir)
    rng.shuffle(commands)
    return commands
