import gc
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effdom
from conftest import reference_coverage_lines, reference_dumps, reference_svg_lines
from effdom import constructions, solver
from effdom.cli import _dumps, _Lines, _report, build_parser, main
from effdom.constructions import near_grid_augment
from effdom.lattice import Lattice, LatticeKind, rect, tri
from effdom.packing import audit, normalize_set, report_to_json
from effdom.render import RenderStyle, ascii_board, svg_lines


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- construct ---------------------------------------------------------------


def test_construct_eds_p2(capsys):
    code, payload, _ = run_json(capsys, "construct", "eds-p2", "--n", "5")
    assert code == 0
    assert payload["lattice"] == "rect:2x5"
    assert payload["set"] == [[1, 1], [1, 5], [2, 3]]
    assert payload["report"]["is_eds"] is True


def test_construct_p3(capsys):
    code, payload, _ = run_json(capsys, "construct", "p3", "--n", "12")
    assert code == 0
    assert payload["report"]["influence"] == 32
    assert len(payload["report"]["voids"]) == 4


def test_construct_knight_with_render(capsys):
    code, out, _ = run(capsys, "construct", "knight", "--n", "9", "--render", "ascii")
    assert code == 0
    json_text, board = out.rsplit("}\n", 1)
    payload = json.loads(json_text + "}")
    assert payload["report"]["influence"] == 77
    lines = board.strip("\n").split("\n")
    assert len(lines) == 9
    assert board.count("o") == 4  # the four boundary voids
    assert board.count("@") == 17


def test_construct_square(capsys):
    code, payload, _ = run_json(capsys, "construct", "square", "--n", "5")
    assert code == 0
    assert payload["report"]["influence"] == 23


def test_construct_bad_params(capsys):
    # Each message names the construction and the sizes it accepts, not a
    # library helper.
    for name, n, message in (
        ("eds-p2", 4, "eds-p2 covers odd n >= 1, got 4; use p2-even for even n"),
        ("p2-even", 5, "p2-even covers even n >= 2, got 5; use eds-p2 for odd n"),
        ("p3", 2, "p3 covers n >= 3, got 2"),
        ("knight", 6, "knight covers n >= 7, got 6"),
        ("square", 3, "square covers n in {4, 5, 6}, got 3"),
        ("square", 7, "square covers n in {4, 5, 6}, got 7"),
        ("square", 9, "square covers n in {4, 5, 6}, got 9"),
    ):
        code, out, err = run(capsys, "construct", name, "--n", str(n))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name, message",
    [
        ("eds-p2", "eds-p2 covers odd n >= 1, got 0; use p2-even for even n"),
        ("p2-even", "p2-even covers even n >= 2, got 0; use eds-p2 for odd n"),
        ("p3", "p3 covers n >= 3, got 0"),
        ("square", "square covers n in {4, 5, 6}, got 0"),
        ("knight", "knight covers n >= 7, got 0"),
    ],
)
def test_construct_n_zero_names_the_entry(capsys, name, message):
    # The entry's domain is checked before its lattice, which would refuse
    # a 2 x 0 strip in the lattice's words.
    code, out, err = run(capsys, "construct", name, "--n", "0")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_construct_oversized_knight_refused_before_its_set(capsys, monkeypatch, no_vertex_listing):
    # n = 2001 is in the knight's domain; the lattice refuses it by size
    # before the set is built.
    def refuse(n):
        raise AssertionError("built the knight set")

    knight = constructions.CONSTRUCTIONS["knight"]
    monkeypatch.setitem(constructions.CONSTRUCTIONS, "knight", knight._replace(build=refuse))
    _assert_rejected_before_work(*run(capsys, "construct", "knight", "--n", "2001"))


def test_help_from_the_shared_parser(capsys):
    # main parses with one parser per process; what it prints is what a
    # freshly built parser prints, on every call.
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == build_parser().format_help()


def test_construct_unknown_name_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "frobnicate", "--n", "5"])
    assert exc.value.code == 2


# -- verify ------------------------------------------------------------------


def _write_set(tmp_path, name, lattice, members):
    path = tmp_path / name
    path.write_text(json.dumps({"lattice": lattice, "set": [list(v) for v in members]}))
    return str(path)


def test_verify_eds_exit_0(capsys, tmp_path):
    path = _write_set(tmp_path, "eds.json", "rect:4x4", [(1, 2), (2, 4), (3, 1), (4, 3)])
    code, payload, _ = run_json(capsys, "verify", path)
    assert code == 0
    assert payload["report"]["is_eds"] is True


def test_verify_voids_exit_1(capsys, tmp_path):
    path = _write_set(tmp_path, "p3.json", "rect:3x3", [(1, 1), (3, 2)])
    code, payload, _ = run_json(capsys, "verify", path)
    assert code == 1
    assert payload["report"]["voids"] == [[1, 3], [2, 3]]


def test_verify_conflicts_exit_3(capsys, tmp_path):
    path = _write_set(tmp_path, "bad.json", "rect:3x3", [(1, 1), (1, 2)])
    code, payload, _ = run_json(capsys, "verify", path)
    assert code == 3
    assert payload["report"]["is_two_packing"] is False


def test_verify_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


def test_verify_rejects_boolean_coordinates(capsys, tmp_path):
    path = tmp_path / "bools.json"
    path.write_text('{"lattice": "rect:3x3", "set": [[true, 1]]}')
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("command", ["verify", "augment", "render"])
@pytest.mark.parametrize(
    "body,blamed",
    [
        ('{"lattice": "rect:3x3", "set": 5}', '"set" must be a list'),
        ('{"lattice": 5, "set": []}', '"lattice" must be a descriptor string'),
        ('{"lattice": null, "set": []}', '"lattice" must be a descriptor string'),
        ('{"lattice": "rect:3x3", "set": "ab"}', "got 'ab'"),
        ("[" * 200_000 + "]" * 200_000, "nests too deeply"),
    ],
    ids=["set-int", "lattice-int", "lattice-null", "set-str", "deep"],
)
def test_malformed_set_file_usage_error(capsys, tmp_path, command, body, blamed):
    path = tmp_path / "malformed.json"
    path.write_text(body)
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and blamed in err


def test_verify_closes_set_file(capsys, tmp_path):
    path = _write_set(tmp_path, "eds.json", "rect:4x4", [(1, 2), (2, 4), (3, 1), (4, 3)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(capsys, "verify", path)
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_verify_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"lattice": "rect:2x5", "set": [[1,1],[1,5],[2,3]]}')
    )
    code, payload, _ = run_json(capsys, "verify", "-")
    assert code == 0 and payload["report"]["is_eds"] is True


def test_verify_lattice_override(capsys, tmp_path):
    path = _write_set(tmp_path, "s.json", "rect:3x3", [(1, 1), (3, 2)])
    code, payload, _ = run_json(capsys, "verify", path, "--lattice", "rect:3x4")
    assert code == 1
    assert payload["lattice"] == "rect:3x4"


def test_construct_pipes_into_verify(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "construct", "p3", "--n", "7")
    construct_payload = json.loads(out)
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, verify_payload, _ = run_json(capsys, "verify", "-")
    assert code == 1  # valid 2-packing with voids
    assert verify_payload["report"] == construct_payload["report"]
    assert verify_payload["set"] == construct_payload["set"]


# -- solve -------------------------------------------------------------------


def test_solve_dp(capsys):
    code, payload, err = run_json(capsys, "solve", "rect:5x5")
    assert code == 0
    assert payload["F"] == 23
    assert audit(rect(5, 5), [tuple(v) for v in payload["witness"]]).influence == 23
    assert "elapsed_ms=" in err


def test_solve_brute_methods(capsys):
    code, payload, _ = run_json(capsys, "solve", "rect:3x3", "--method", "brute")
    assert code == 0 and payload["F"] == 7
    code, payload, _ = run_json(capsys, "solve", "tri:3")
    assert code == 0 and payload["F"] == 5
    assert audit(tri(3), [tuple(v) for v in payload["witness"]]).influence == 5


def test_solve_torus_quotient_is_perfect(capsys):
    code, payload, _ = run_json(capsys, "solve", "rect-torus:5x5")
    assert code == 0 and payload["F"] == 25


def test_solve_transposes_wide_grids(capsys):
    code, payload, _ = run_json(capsys, "solve", "rect:20x3")
    assert code == 0
    assert payload["F"] == 3 * 20 - 20 // 3
    members = [tuple(v) for v in payload["witness"]]
    assert audit(rect(20, 3), members).influence == payload["F"]


@pytest.mark.parametrize(
    "argv,too_wide",
    [
        (["rect:20x18"], "rect:20x18 has 18 rows, more than the DP width limit 16"),
        (["rect:20x18", "--method", "dp"], "rect:20x18 has 18 rows, more than the DP width limit 16"),
        # auto never hands a rectangle to the oracle, even one it would take.
        (["rect:7x7", "--dp-width", "6"], "rect:7x7 has 7 rows, more than the DP width limit 6"),
    ],
    ids=["auto", "dp", "auto-narrow-width"],
)
def test_solve_too_wide_names_shorter_side(capsys, monkeypatch, argv, too_wide):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(solver, "dp_F_rect", refuse)
    monkeypatch.setattr(solver, "brute_force_F", refuse)
    code, out, err = run(capsys, "solve", *argv)
    assert code == 2 and out == ""
    assert err == f"error: the shorter side of {too_wide}; raise --dp-width\n"


@pytest.mark.parametrize(
    "argv,advice",
    [
        (["rect:8x8", "--method", "brute"], "use --method dp or raise --brute-limit"),
        (["tri:10"], "raise --brute-limit"),
    ],
    ids=["rect", "tri"],
)
def test_solve_over_brute_limit_names_cli_options(capsys, monkeypatch, argv, advice):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(solver, "dp_F_rect", refuse)
    monkeypatch.setattr(solver, "brute_force_F", refuse)
    code, out, err = run(capsys, "solve", *argv)
    assert code == 2 and out == ""
    assert "exceeds the brute-force limit 49; " + advice + "\n" in err
    assert err.startswith("error: ") and "dp_F_rect" not in err


def test_solve_output_ignores_dp_width(capsys):
    outs = {
        run(capsys, "solve", "rect:12x5", *width)[1]
        for width in ([], ["--dp-width", "5"], ["--dp-width", "12"])
    }
    assert len(outs) == 1 and json.loads(outs.pop())["F"] == 54


def test_solve_sweeps_shorter_side(capsys, monkeypatch):
    heights = []
    build = solver._Transfer.__init__

    def spy(self, m):
        heights.append(m)
        build(self, m)

    monkeypatch.setattr(solver._Transfer, "__init__", spy)
    code, payload, _ = run_json(capsys, "solve", "rect:16x5")
    assert code == 0 and heights == [5]
    report = audit(rect(16, 5), [tuple(v) for v in payload["witness"]])
    assert report.is_two_packing and report.influence == payload["F"]


def test_solve_bad_descriptor(capsys):
    code, _, err = run(capsys, "solve", "blob:9x9")
    assert code == 2 and "descriptor" in err


def _broken(graph, limit):
    raise AssertionError("brute-force witness failed its audit")


def test_internal_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(solver, "brute_force_F", _broken)
    code, out, err = run(capsys, "solve", "tri:3", "--method", "brute")
    assert code == 4
    assert out == ""
    assert err == "internal error: AssertionError: brute-force witness failed its audit\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,code",
    [(("solve", "rect:3x3"), 0), (("solve", "blob:9x9"), 2), (("solve", "tri:3", "--method", "brute"), 4)],
    ids=["ok", "usage", "internal"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused"])
def test_main_restores_collector(capsys, monkeypatch, argv, code, enabled):
    monkeypatch.setattr(solver, "brute_force_F", _broken)
    was = gc.isenabled()
    switch = {True: gc.enable, False: gc.disable}
    try:
        switch[enabled]()
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is enabled
    finally:
        switch[was]()


def _knight_file(tmp_path, n):
    path = tmp_path / f"knight{n}.json"
    members = [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if (2 * i + j) % 5 == 3]
    path.write_text(json.dumps({"lattice": f"rect:{n}x{n}", "set": members}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "knight", "--n", "{n}"),
        ("verify", "@"),
        ("augment", "@"),
        ("render", "--format", "svg", "@"),
        ("motif", "--lattice", "rect", "--window", "{n}x{n}"),
        ("solve", "rect:10x{n}"),
    ],
    ids=["construct", "verify", "augment", "render", "motif", "solve"],
)
def test_commands_leave_no_board_sized_cycles(capsys, tmp_path, argv):
    # main pauses the cyclic collector, which is safe only if no command
    # leaves cyclic garbage: after a command on a 10 x 10 and on a 60 x 60
    # board the collector finds nothing to free.  The first run only fills
    # the caches a first call in a process fills, the parser among them.
    found = []
    for n in (10, 10, 60):
        path = _knight_file(tmp_path, n)
        gc.collect()
        assert main([path if a == "@" else a.format(n=n) for a in argv]) in (0, 1)
        found.append(gc.collect())
        capsys.readouterr()
    assert found[1:] == [0, 0]


def test_closed_stdout_ends_output_quietly(tmp_path):
    # A reader that leaves early (`effdom render ... | head -c 100`) ends
    # the output: exit 141 as for SIGPIPE, and nothing on stderr.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(effdom.__file__).parents[1])}
    argv = [sys.executable, "-m", "effdom", "render", "--format", "svg", _knight_file(tmp_path, 250)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def _warning_lines(err):
    return [line for line in err.splitlines() if line.startswith("warning:")]


def test_solve_raised_brute_limit_warns(capsys):
    code, payload, err = run_json(capsys, "solve", "rect:3x3", "--method", "brute", "--brute-limit", "60")
    assert code == 0 and payload["F"] == 7
    assert len(_warning_lines(err)) == 1 and "brute-force limit raised to 60" in err


# -- table / conjecture --------------------------------------------------------


def test_conjecture_rows(capsys):
    code, payload, _ = run_json(capsys, "conjecture", "--from", "7", "--to", "10")
    assert code == 0
    assert [r["match"] for r in payload["rows"]] == [True] * 4
    assert [r["dp_value"] for r in payload["rows"]] == [44, 58, 77, 92]


def test_conjecture_reversed_range_usage_error(capsys):
    code, out, err = run(capsys, "conjecture", "--from", "9", "--to", "7")
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("command", ["table", "conjecture"])
def test_range_below_seven_rejected_before_work(capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("ran the DP")

    monkeypatch.setattr(solver, "dp_F_rect", refuse)
    code, out, err = run(capsys, command, "--from", "1", "--to", "9")
    assert code == 2 and out == ""
    assert err == "error: --from must be at least 7, got 1\n"


def test_conjecture_raised_dp_width_warns(capsys):
    code, payload, err = run_json(capsys, "conjecture", "--from", "7", "--to", "7", "--dp-width", "17")
    assert code == 0 and payload["rows"][0]["verified"] is True
    assert len(_warning_lines(err)) == 1 and "DP width raised to 17" in err


def test_table_rows_and_skipping(capsys):
    code, payload, _ = run_json(
        capsys, "table", "--from", "7", "--to", "18", "--dp-width", "9"
    )
    assert code == 0
    rows = payload["rows"]
    assert rows[0] == {"n": 7, "predicted_voids": 5, "dp_voids": 5, "match": True, "verified": True}
    assert rows[-1]["verified"] is False and rows[-1]["dp_voids"] is None
    assert rows[-1]["predicted_voids"] == 14


def test_table_known_rows(capsys):
    code, payload, _ = run_json(capsys, "table", "--from", "7", "--to", "9")
    assert code == 0
    assert payload["rows"] == [
        {"n": 7, "predicted_voids": 5, "dp_voids": 5, "match": True, "verified": True},
        {"n": 8, "predicted_voids": 6, "dp_voids": 6, "match": True, "verified": True},
        {"n": 9, "predicted_voids": 4, "dp_voids": 4, "match": True, "verified": True},
    ]


def test_table_skips_beyond_width(capsys):
    code, payload, _ = run_json(capsys, "table", "--from", "7", "--to", "20", "--dp-width", "7")
    assert code == 0
    rows = payload["rows"]
    assert rows[0]["dp_voids"] == 5
    assert all(r["dp_voids"] is None and r["match"] is None for r in rows[1:])
    assert [r["predicted_voids"] for r in rows[-3:]] == [14, 12, 16]


def test_table_reversed_range_usage_error(capsys):
    code, out, err = run(capsys, "table", "--from", "9", "--to", "7")
    assert code == 2 and out == "" and "error" in err


# -- motif ----------------------------------------------------------------------


def test_motif_hex(capsys):
    code, payload, _ = run_json(capsys, "motif", "--lattice", "hex")
    assert code == 0
    assert payload["perfect"] is True
    assert payload["density"] == 0.25


def test_motif_rect_window(capsys):
    code, payload, _ = run_json(capsys, "motif", "--lattice", "rect", "--window", "11x11")
    assert code == 0
    report = payload["window_report"]
    assert report["is_two_packing"] is True
    assert all(i in (1, 11) or j in (1, 11) for i, j in report["voids"])


def test_motif_tri_residue(capsys):
    code, payload, _ = run_json(capsys, "motif", "--lattice", "tri", "--residue", "3")
    assert code == 0 and payload["perfect"] is True
    assert len(payload["cells"]) == 7


def test_motif_ascii(capsys):
    code, out, _ = run(capsys, "motif", "--lattice", "rect", "--format", "ascii")
    assert code == 0
    lines = out.strip("\n").split("\n")
    assert len(lines) == 5
    assert out.count("@") == 5 and "o" not in out


def test_motif_window_ascii(capsys):
    code, out, _ = run(
        capsys, "motif", "--lattice", "rect", "--window", "9x9", "--format", "ascii"
    )
    assert code == 0
    lines = out.strip("\n").split("\n")
    assert len(lines) == 9
    # windowed expansion leaves voids, all next to the border
    assert "o" in out


def test_motif_window_listed_once(capsys, monkeypatch):
    listed = []
    real_vertices = Lattice.vertices

    def spy(self):
        listed.append(self.descriptor())
        return real_vertices(self)

    monkeypatch.setattr(Lattice, "vertices", spy)
    code, payload, _ = run_json(capsys, "motif", "--lattice", "rect", "--window", "50x50")
    assert code == 0 and payload["window"] == "rect:50x50"
    assert listed.count("rect:50x50") == 1


def test_motif_hex_rejects_residue(capsys):
    code, _, err = run(capsys, "motif", "--lattice", "hex", "--residue", "3")
    assert code == 2 and "residue" in err


def test_motif_malformed_window_usage_error(capsys):
    code, out, err = run(capsys, "motif", "--lattice", "rect", "--window", "5by5")
    assert code == 2 and out == ""
    assert err == "error: window must look like RxC, got '5by5'\n"


# -- augment ----------------------------------------------------------------------


def test_augment_p3_square(capsys, tmp_path):
    path = _write_set(tmp_path, "p3.json", "rect:3x3", [(1, 1), (3, 2)])
    code, payload, _ = run_json(capsys, "augment", path)
    assert code == 0
    assert payload["vertex_count"] == 11
    assert len(payload["pendants"]) == 2
    assert payload["report"]["is_eds"] is True
    assert {"attached_to": [1, 3], "pendant": 0} in payload["pendants"]


def test_augment_rejects_conflicts(capsys, tmp_path):
    path = _write_set(tmp_path, "bad.json", "rect:3x3", [(1, 1), (1, 2)])
    code, _, err = run(capsys, "augment", path)
    assert code == 2 and "2-packing" in err


# -- oversized inputs ------------------------------------------------------------

HUGE = "rect:100000x100000"


@pytest.fixture
def no_vertex_listing(monkeypatch):
    """Make listing any lattice's vertices a failure (exit 4, not 2)."""

    def refuse(self):
        raise AssertionError(f"listed the vertices of {self.descriptor()}")

    monkeypatch.setattr(Lattice, "vertices", refuse)


def _assert_rejected_before_work(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error:") and "more than the limit" in err


@pytest.mark.parametrize("command", ["verify", "render", "augment"])
def test_oversized_set_file_rejected(capsys, tmp_path, no_vertex_listing, command):
    path = _write_set(tmp_path, "huge.json", HUGE, [(1, 1)])
    _assert_rejected_before_work(*run(capsys, command, path))


def test_oversized_motif_window_rejected(capsys, no_vertex_listing):
    _assert_rejected_before_work(
        *run(capsys, "motif", "--lattice", "rect", "--window", "100000x100000")
    )


def test_oversized_construction_rejected(capsys, no_vertex_listing):
    _assert_rejected_before_work(*run(capsys, "construct", "knight", "--n", "100000"))


@pytest.mark.parametrize("command", ["table", "conjecture"])
def test_oversized_square_range_rejected(capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("ran the DP")

    monkeypatch.setattr(solver, "dp_F_rect", refuse)
    _assert_rejected_before_work(*run(capsys, command, "--from", "7", "--to", "2001"))


def test_largest_square_range_accepted(capsys):
    code, payload, _ = run_json(capsys, "table", "--from", "7", "--to", "2000", "--dp-width", "6")
    assert code == 0 and len(payload["rows"]) == 1994
    assert payload["rows"][-1]["n"] == 2000 and payload["rows"][-1]["verified"] is False


# -- board-sized output by rows and columns ---------------------------------------

# Boards beyond the golden sizes, of every kind and shape the row formatters
# meet: strips one row or one column wide, a tall rectangle, a triangle, a
# hexagonal board and each torus.
_BOARDS = [
    "rect:1x17",
    "rect:17x1",
    "rect:37x23",
    "tri:13",
    "hex:9x14",
    "rect-torus:5x7",
    "tri-torus:7x9",
    "hex-torus:6x8",
]


def _random_set(lattice, seed, share):
    # About ``share`` of the vertices: a set with voids and, for a large
    # share, conflicts (counts of 2 or more).
    vertices = lattice.vertices()
    return tuple(sorted(random.Random(seed).sample(vertices, max(1, int(share * len(vertices))))))


def _board_sets(descriptor):
    lattice = Lattice.from_descriptor(descriptor)
    return lattice, [(), _random_set(lattice, 1, 0.1), _random_set(lattice, 2, 0.4)]


@pytest.mark.parametrize("descriptor", _BOARDS)
def test_coverage_by_rows_matches_reference(descriptor):
    lattice, sets = _board_sets(descriptor)
    for members in sets:
        report = audit(lattice, members)
        data = report_to_json(report)
        got = _report(lattice, report)
        assert got["coverage"].lines == reference_coverage_lines(data["coverage"])
        # The vertex arrays are _Lines too: each line is its item as encoded.
        for key in ("voids", "conflicts"):
            assert got[key].lines == [json.dumps(v, separators=(", ", ": ")) for v in data[key]]
        arrays = dict.fromkeys(("voids", "conflicts", "coverage"))
        assert {**got, **arrays} == {**data, **arrays}
        # Every indent, up to one too deep for a coverage item's own line.
        for width in range(0, 70, 3):
            pad = " " * width
            assert _dumps(got, pad) == reference_dumps(data, pad)
    assert max(audit(lattice, sets[2]).coverage) >= 2


def test_lines_array_inside_short_containers():
    # A container short enough for one line is encoded whole, with a _Lines
    # array in it encoded as its items; at each indent the layout is the
    # one its items would get as data.
    items = [[[1, 1], 1], [[1, 2], 0]]
    lines = _Lines(["[[1, 1], 1]", "[[1, 2], 0]"], 11)
    for wrap in (lambda a: a, lambda a: {"c": a}, lambda a: [a, 7], lambda a: {"r": {"c": a, "k": 1}}):
        for width in range(0, 70, 2):
            assert _dumps(wrap(lines), " " * width) == reference_dumps(wrap(items), " " * width)


def _greedy_packing(lattice, seed):
    # A maximal 2-packing, grown in a random vertex order: it leaves voids.
    members = []
    vertices = lattice.vertices()
    random.Random(seed).shuffle(vertices)
    for v in vertices:
        if audit(lattice, members + [v]).is_two_packing:
            members.append(v)
    return normalize_set(members)


@pytest.mark.parametrize("descriptor", ["rect:1x1", "rect:2x1", "rect:1x3", "rect:7x9", "rect:37x23"])
def test_coverage_of_augmented_board_matches_reference(descriptor):
    # The base lattice's rows, then one pair per pendant.
    lattice = Lattice.from_descriptor(descriptor)
    for members in ((), _greedy_packing(lattice, 3)):
        augmented, eds = near_grid_augment(lattice, members)
        report = audit(augmented, eds)
        data = report_to_json(report)
        got = _report(lattice, report)
        encoded = [json.dumps(item, sort_keys=True, separators=(", ", ": ")) for item in data["coverage"]]
        lines = reference_coverage_lines(data["coverage"])
        assert got["coverage"].lines == [line or text for line, text in zip(lines, encoded)]
        assert lines[lattice.vertex_count :] == [None] * len(augmented.pendants)
        for width in range(0, 70, 3):
            assert _dumps(got, " " * width) == reference_dumps(data, " " * width)


def _small_boards():
    # Every bounded board and torus of each kind with sides 1 to 9 that is
    # not among _BOARDS: 275 more boards, so that each torus size meets the
    # wrap-edge rule.
    boards = []
    for kind in LatticeKind:
        for torus in (False, True):
            for rows in range(1, 10):
                for cols in range(1, 10):
                    try:
                        boards.append(Lattice(kind, rows, cols, torus).descriptor())
                    except ValueError:
                        continue
    return [d for d in boards if d not in _BOARDS]


@pytest.mark.parametrize("descriptor", _BOARDS + _small_boards())
def test_svg_by_rows_matches_reference(descriptor):
    lattice, sets = _board_sets(descriptor)
    for members in sets:
        report = audit(lattice, members)
        assert list(svg_lines(lattice, members, report)) == list(reference_svg_lines(lattice, members, report))


# -- render ---------------------------------------------------------------------


def test_render_ascii_board_exact():
    lat = rect(3, 3)
    members = ((1, 1), (3, 2))
    board = ascii_board(lat, members, audit(lat, members))
    assert board == "@ . o\n. . o\n. @ ."


def test_render_triangle_indents():
    lat = tri(3)
    members = ((1, 2),)
    board = ascii_board(lat, members, audit(lat, members))
    assert board == ". @ .\n . .\n  o"


def test_render_custom_glyphs():
    lat = rect(2, 2)
    members = ((1, 1),)
    style = RenderStyle(dominator="#", dominated="-", void="?")
    assert ascii_board(lat, members, audit(lat, members), style) == "# -\n- ?"
    with pytest.raises(ValueError):
        RenderStyle(dominator="x", dominated="x", void="o")


def test_render_svg_structure():
    lat = rect(3, 3)
    members = ((1, 1), (3, 2))
    svg = "\n".join(svg_lines(lat, members, audit(lat, members)))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<circle") == 9
    assert 'fill="white"' in svg  # voids drawn hollow


def test_render_svg_triangle_and_torus():
    lat = tri(3)
    svg = "\n".join(svg_lines(lat, ((1, 2),), audit(lat, ((1, 2),))))
    assert svg.count("<circle") == 6
    assert svg.count("<line") == 9  # 3 + 3 + 3 edges of the side-3 patch
    torus = rect(4, 4, torus=True)
    svg = "\n".join(svg_lines(torus, (), audit(torus, ())))
    # wrap-around edges are skipped: 24 interior edges remain of 32
    assert svg.count("<line") == 24


def test_render_cli_svg_out_file(capsys, tmp_path):
    path = _write_set(tmp_path, "eds.json", "rect:4x4", [(1, 2), (2, 4), (3, 1), (4, 3)])
    out_path = tmp_path / "board.svg"
    code, out, _ = run(capsys, "render", path, "--format", "svg", "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("<svg")


@pytest.mark.parametrize(
    "lattice,members,fmt",
    [
        ("rect:4x4", [(1, 2), (2, 4), (3, 1), (4, 3)], "svg"),
        ("tri:5", [(1, 1), (1, 4), (3, 2), (4, 1)], "svg"),
        ("hex-torus:4x4", [(1, 1), (2, 3), (3, 3), (4, 1)], "svg"),
        ("rect-torus:5x5", [(1, 3), (2, 1), (3, 4), (4, 2), (5, 5)], "svg"),
        ("rect:3x10", [(1, 1), (1, 7), (2, 10), (3, 2), (3, 5), (3, 8)], "ascii"),
    ],
    ids=["rect-svg", "tri-svg", "hex-torus-svg", "rect-torus-svg", "rect-ascii"],
)
def test_render_out_file_matches_stdout(capsys, tmp_path, lattice, members, fmt):
    path = _write_set(tmp_path, "set.json", lattice, members)
    out_path = tmp_path / "board"
    code, out, _ = run(capsys, "render", path, "--format", fmt)
    assert code == 0
    code, nothing, _ = run(capsys, "render", path, "--format", fmt, "--out", str(out_path))
    assert code == 0 and nothing == ""
    assert out_path.read_bytes() == out.encode()


class _Writes(io.StringIO):
    """A stdout that keeps each string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [("render", "@", "--format", "svg"), ("construct", "knight", "--n", "9", "--render", "svg")],
    ids=["render", "construct"],
)
def test_cli_streams_svg(tmp_path, monkeypatch, argv):
    path = _write_set(tmp_path, "eds.json", "rect:9x9", [(1, 2), (2, 4), (3, 1), (4, 3)])
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([path if a == "@" else a for a in argv]) == 0
    out = stdout.getvalue()
    svg = out[out.index("<svg"):]
    assert out.count("<svg") == 1 and svg.endswith("</svg>\n")
    # Written row by row: no single write holds half the document.
    assert max(len(w) for w in stdout.writes if "<" in w) < len(svg) / 2


def test_render_cli_defaults_to_ascii(capsys, tmp_path):
    path = _write_set(tmp_path, "p3.json", "rect:3x3", [(1, 1), (3, 2)])
    code, out, _ = run(capsys, "render", path)
    assert code == 0
    assert out == "@ . o\n. . o\n. @ .\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "knight", "--n", "7", "--render", "ascii", "--glyphs", "ab"),
        ("construct", "knight", "--n", "7", "--render", "svg", "--glyphs", "ab"),
        ("render", "@", "--glyphs", "ab"),
        ("render", "@", "--format", "svg", "--glyphs", "xxo"),
    ],
)
def test_bad_glyphs_rejected_before_work(capsys, tmp_path, no_vertex_listing, argv):
    path = _write_set(tmp_path, "p3.json", "rect:3x3", [(1, 1), (3, 2)])
    code, out, err = run(capsys, *(path if a == "@" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# -- determinism ----------------------------------------------------------------


def test_identical_invocations_are_byte_identical(capsys):
    _, first, _ = run(capsys, "construct", "knight", "--n", "10")
    _, second, _ = run(capsys, "construct", "knight", "--n", "10")
    assert first == second
    _, first, _ = run(capsys, "solve", "rect:6x6")
    _, second, _ = run(capsys, "solve", "rect:6x6")
    assert first == second


# -- JSON layout ------------------------------------------------------------------

_json_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-9, 9)
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=8)
    | st.lists(children, max_size=8).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=6),
    max_leaves=60,
)


@given(_json_trees, st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_dumps_matches_reference(obj, pad):
    assert _dumps(obj, " " * pad) == reference_dumps(obj, " " * pad)


# Containers whose one-line form has exactly ``length`` >= 7 characters.


def _sized_list(length):
    # n one-digit items take 3n characters; the last item takes up the rest.
    n = length // 3
    return [0] * (n - 1) + [10 ** (length - 3 * n)]


def _sized_bools(length):
    # "true, " is six characters.
    k = (length - 3) // 6
    return [True] * k + [10 ** (length - 3 - 6 * k)]


def _sized_string(length):
    # A non-ASCII character prints as a six-character escape.
    return ["\u00e9" + "a" * (length - 10)] if length >= 10 else ["a" * (length - 4)]


def _sized_dict(length):
    # The shortest object, {"": 0}, is the tightest case of the 7n bound.
    return {"": _sized_list(length - 6)} if length >= 9 else {"": 10 ** (length - 7)}


_SIZED = {"ints": _sized_list, "bools": _sized_bools, "string": _sized_string, "dict": _sized_dict}


@pytest.mark.parametrize("kind", sorted(_SIZED))
def test_dumps_width_edges(kind):
    for room in range(7, 77):
        pad = " " * (76 - room)
        for length in (room, room + 1):
            obj = _SIZED[kind](length)
            assert len(json.dumps(obj, separators=(", ", ": "))) == length
            got = _dumps(obj, pad)
            assert got == reference_dumps(obj, pad)
            assert ("\n" in got) == (length > room)


def _sized_int_item(length):
    # A nested int-only item, [[0, ..., 10^k], 0], of ``length`` >= 8 characters.
    return [_sized_list(length - 5), 0]


def _deep_tuple(value):
    # The same JSON value with every list a tuple.
    return tuple(map(_deep_tuple, value)) if isinstance(value, list) else value


def test_dumps_int_item_width_edges():
    # A list too wide for one line puts each item on a line two spaces
    # further in; an int-only item stays whole only when it fits that room.
    # Besides a longer item, a coverage pair [[i, j], c], a pair [i, j] and
    # a one-item array, each as lists and as tuples.
    for width in range(41):
        pad = " " * width
        room = 76 - width - 2
        for length in (room, room + 1):
            items = [
                _sized_int_item(length),
                [[1, 10 ** (length - 11)], 2],
                [10 ** (length - 6), 3],
                [10 ** (length - 3)],
            ]
            for item in items + list(map(_deep_tuple, items)):
                assert len(json.dumps(item, separators=(", ", ": "))) == length
                obj = [item, item]
                got = _dumps(obj, pad)
                assert got == reference_dumps(obj, pad)
                assert (got.count("\n") == 3) == (length == room)


@pytest.mark.parametrize("item", [[[True, 1], 0], [[1, [2, 3]], -4]])
def test_dumps_nested_and_bool_items(item):
    for item in (item, _deep_tuple(item)):
        obj = [item] * 12
        for value in (item, obj):
            assert _dumps(value) == reference_dumps(value)
        assert ("[[true, 1], 0]" in _dumps(obj)) == (item[0][0] is True)


def test_dumps_tuple_items():
    assert _dumps((5,)) == "[5]"
    assert _dumps(((True, 1), 0)) == "[[true, 1], 0]"
    # ((1, 2), 3) takes 11 characters: alone and as a list item, it stays on
    # one line at room 11 and is broken up at room 10.
    item = ((1, 2), 3)
    for room in (11, 10):
        for obj, pad in ((item, " " * (76 - room)), ([item] * 12, " " * (74 - room))):
            got = _dumps(obj, pad)
            assert got == reference_dumps(obj, pad)
            assert ("[[1, 2], 3]" in got) == (room == 11)


class _Int(int):
    """An int subclass: the encoder prints it as the int it holds."""


_PENDANT = {"attached_to": [1, 2], "pendant": 0}
# Per array shape, odd items among coordinates and among coverage pairs
# given as data, as a library caller's report_to_json gives them.
_ODD_ITEMS = {
    "coordinate": {
        "bool": [True, 2],
        "int-subclass": [_Int(7), 2],
        "float": [1.5, 2],
        "3-array": [1, 2, 3],
        "coverage-pair": [[1, 2], 3],
        "pendant": _PENDANT,
        "int-keyed-object": {1: 2, 3: 4},
    },
    "coverage": {
        "bool": [[True, 2], 3],
        "int-subclass": [[1, 2], _Int(3)],
        "float": [[1, 2], 3.0],
        "3-array": [[1, 2, 3], 4],
        "coordinate": [1, 2],
        "pendant": [_PENDANT, 1],
        "int-keyed-object": [{1: 2, 3: 4}, 5],
    },
}


@pytest.mark.parametrize("shape", sorted(_ODD_ITEMS))
def test_dumps_late_odd_items(shape):
    # Long arrays of one shape whose odd items come late: one item near the
    # end, or a tail of them, as pendants follow the coordinates.  Each as
    # lists and as tuples, with the other items at the width edges.
    for width in range(0, 41, 5):
        pad = " " * width
        room = 76 - width - 2
        for length in (room, room + 1):
            bulk = [[1, 10 ** (length - 11)], 2] if shape == "coverage" else [10 ** (length - 6), 3]
            assert len(json.dumps(bulk, separators=(", ", ": "))) == length
            for odd in _ODD_ITEMS[shape].values():
                for obj in ([bulk] * 40 + [odd] + [bulk] * 2, [bulk] * 40 + [odd] * 3):
                    for value in (obj, _deep_tuple(obj)):
                        assert _dumps(value, pad) == reference_dumps(value, pad)


def test_dumps_real_payloads(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "knight", "--n", "40")
    outputs = [out]
    payload = json.loads(out)
    path = _write_set(tmp_path, "knight.json", payload["lattice"], payload["set"])
    code, out, _ = run(capsys, "augment", path)
    assert code == 0 and json.loads(out)["pendants"]
    outputs.append(out)
    # (1, 2) and (2, 2) are dominated non-members of the knight set.
    crowded = _write_set(tmp_path, "crowded.json", payload["lattice"], payload["set"] + [[1, 2], [2, 2]])
    code, out, _ = run(capsys, "verify", crowded)
    assert code == 3 and json.loads(out)["report"]["conflicts"]
    outputs.append(out)
    for kind in ("rect", "tri", "hex"):
        outputs.append(run(capsys, "motif", "--lattice", kind, "--window", "30x30")[1])
        # Without a window the motif's cells are the one board-sized array.
        outputs.append(run(capsys, "motif", "--lattice", kind)[1])
    # A witness per kind.
    for descriptor in ("rect:12x12", "tri:9", "hex:6x8"):
        code, out, _ = run(capsys, "solve", descriptor)
        assert code == 0 and json.loads(out)["witness"]
        outputs.append(out)
    # Two members far apart on a torus leave voids.
    sparse = _write_set(tmp_path, "sparse.json", "tri-torus:9x9", [[1, 1], [5, 5]])
    code, out, _ = run(capsys, "verify", sparse)
    assert code == 1 and json.loads(out)["report"]["voids"]
    outputs.append(out)
    for out in outputs:
        assert out == reference_dumps(json.loads(out)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "knight", "--n", "30"),
        ("verify", "@"),
        ("solve", "rect:10x30"),
        ("table", "--from", "7", "--to", "12"),
        ("conjecture", "--from", "7", "--to", "12"),
        ("motif", "--lattice", "rect", "--window", "30x30"),
        ("motif", "--lattice", "tri"),
        ("augment", "@"),
        ("render", "--format", "svg", "@"),
    ],
    ids=["construct", "verify", "solve", "table", "conjecture", "motif-window", "motif", "augment", "render"],
)
def test_board_sized_arrays_reach_dumps_as_lines(capsys, tmp_path, monkeypatch, argv):
    # A plain list or tuple is laid out with a call per item, so every
    # board-sized array must reach _dumps as _Lines: on a 30 x 30 board no
    # plain array of more than 16 items is passed to it, at any depth.
    dumps, sizes = effdom.cli._dumps, []

    def spy(obj, pad=""):
        sizes.append(len(obj) if isinstance(obj, (list, tuple)) else 0)
        return dumps(obj, pad)

    monkeypatch.setattr(effdom.cli, "_dumps", spy)
    path = _knight_file(tmp_path, 30)
    assert main([path if a == "@" else a for a in argv]) in (0, 1)
    assert capsys.readouterr().out
    assert max(sizes, default=0) <= 16
    assert bool(sizes) == (argv[0] != "render")
