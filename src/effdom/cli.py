"""Command-line interface.

Subcommands: construct, verify, solve, table, conjecture, motif, augment,
render.  Primary output is deterministic JSON on stdout, with no timing
data (timings go to stderr).  Layout: keys sorted, ", " and ": " as
separators, and an array (a list or a tuple, as in the ``json`` module) or
object kept on one line when that line fits in 76 columns after its
indent; otherwise each item gets its own line, indented two more spaces.
Board-sized arrays are printed without a call per item: an array of
coordinates ``[i, j]`` by one comprehension, and a report's coverage array
``[[i, j], c]`` by lattice row, from a prefix per row, a string per column
and one per count, formatted once per command.  ``render --format svg`` is
written row by row as it is drawn.  The argument parser is built once per
process, and the cyclic collector is paused while a command runs (see
``main``).

Exit codes: 0 success (for ``verify``: the set is an efficient dominating
set), 1 a valid 2-packing that leaves voids (or a construction whose
audit missed its contract), 2 usage or parse errors, 3 the set is not a
2-packing, 4 an internal error (a bug in effdom, reported on one stderr
line), 141 stdout closed by its reader before the output ended (as for a
writer killed by SIGPIPE; nothing is printed on stderr).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from typing import Iterable

from . import constructions, periodic, solver
from .lattice import Lattice, LatticeKind
from .packing import (
    DominationReport,
    audit,
    set_from_json,
    summary_to_json,
    vertex_to_json,
)
from .render import RenderStyle, ascii_board, svg_lines

EXIT_OK = 0
EXIT_VOIDS = 1
EXIT_USAGE = 2
EXIT_CONFLICTS = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

WIDTH = 76
_ARRAYS = (list, tuple)


class _Lines:
    """An array given as the one-line forms of its items, none wider than
    ``width``: ``_dumps`` joins them, and only the encoder parses them back,
    for a container short enough to go on one line."""

    __slots__ = ("lines", "width")

    def __init__(self, lines: list[str], width: int) -> None:
        self.lines = lines
        self.width = width


def _items(obj) -> list:
    # The encoder's hook for the one type it does not know: a _Lines array
    # is encoded as its items.
    if type(obj) is _Lines:
        return list(map(json.loads, obj.lines))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_encode = json.JSONEncoder(sort_keys=True, separators=(", ", ": "), default=_items).encode


def _coverage(lattice: Lattice, report: DominationReport) -> _Lines:
    """The report's coverage array, formatted by lattice row.

    The counts are indexed by vertex id, so the items of row i are its
    prefix ``[[i, `` joined to each column's ``j], `` and each count's
    ``c]``, with every piece formatted once.  Vertices past the lattice's
    own, the pendants of an augmented graph, follow as encoded pairs.
    """
    counts = report.coverage
    marks = [f"{c}]" for c in range(max(counts) + 1)]
    cols = [f"{j}], " for j in range(1, lattice.cols + 1)]
    lines = []
    for i, row in enumerate(lattice.row_ids(), start=1):
        head = f"[[{i}, "
        lines += [head + col + marks[c] for col, c in zip(cols, counts[row.start : row.stop])]
    # Rows, columns and counts only grow, so the last of each is the widest.
    width = len(head) + len(cols[-1]) + len(marks[-1])
    start = lattice.vertex_count
    for v, c in zip(report.order[start:], counts[start:]):
        lines.append(_encode((vertex_to_json(v), c)))
        width = max(width, len(lines[-1]))
    return _Lines(lines, width)


def _report(lattice: Lattice, report: DominationReport) -> dict:
    """``report_to_json``'s object with its coverage array from ``_coverage``."""
    return {**summary_to_json(report), "coverage": _coverage(lattice, report)}


def _coordinate_lines(items) -> list:
    """The one-line form of each item of an array that is a coordinate
    ``[i, j]``; None for any other item, and for every item when one does
    not unpack as a pair.

    One comprehension formats the whole array with no call per item.  Each
    item is unpacked first and checked after: only a list or tuple of exact
    ints passes, so a dict, whose keys unpack, and bools, an int subclass,
    are left to the encoder.
    """
    try:
        return [
            f"[{i}, {j}]" if type(i) is int and type(j) is int and type(v) in _ARRAYS else None
            for v in items
            for i, j in (v,)
        ]
    except (TypeError, ValueError):
        return [None] * len(items)


def _least_width(obj) -> int:
    # Fewest characters a one-line form can take: an array of n items needs
    # 3n (one each, ", " between, brackets), an object of n keys 7n.
    if isinstance(obj, dict):
        return 7 * len(obj)
    if isinstance(obj, _ARRAYS):
        return 3 * len(obj)
    if type(obj) is _Lines:
        return 3 * len(obj.lines)
    return 1


def _block(lines: list[str], pad: str) -> str:
    # An array laid out one item per line, two spaces in from ``pad``.
    inner = pad + "  "
    body = inner + (",\n" + inner).join(lines) if lines else ""
    return f"[\n{body}\n{pad}]"


def _dumps(obj, pad: str = "") -> str:
    """``obj`` in the module's JSON layout, as if it started after ``pad``.

    An array may be a list, a tuple or a ``_Lines``.  A container is encoded
    for the one-line test only when its least width fits; an object, which
    the encoder writes in one piece, must also fit with each value at its
    own least width (a key takes at least six characters besides its
    value).  Otherwise it is laid out item by item without being encoded.
    There, the items of an array are first written by ``_coordinate_lines``;
    the common case, every item a coordinate that fits its line, needs
    nothing more.  Any other item, or one too wide, is laid out by
    ``_dumps`` in turn.  A ``_Lines`` array is only joined, on one line or
    one item per line; its items are parsed back and laid out as data only
    when one is too wide for its line.
    """
    room = WIDTH - len(pad)
    if type(obj) is _Lines:
        if _least_width(obj) <= room:
            line = "[" + ", ".join(obj.lines) + "]"
            if len(line) <= room:
                return line
        if obj.width > room - 2:
            return _dumps(_items(obj), pad)
        return _block(obj.lines, pad)
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, _ARRAYS)):
        return _encode(obj)
    fits = _least_width(obj) <= room
    if fits and is_dict:
        fits = 6 * len(obj) + sum(map(_least_width, obj.values())) <= room
    if fits:
        line = _encode(obj)
        if len(line) <= room:
            return line
    inner = pad + "  "
    if is_dict:
        items = [f"{inner}{_encode(k)}: {_dumps(obj[k], inner)}" for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    room -= 2  # an item's line starts two spaces further in
    lines = _coordinate_lines(obj)
    # Any other item, or one too wide, is laid out by _dumps, from the first
    # such item on; in augment's "eds" that is the pendant tail.
    if max(map(len, filter(None, lines)), default=0) > room:
        start = 0
    else:
        start = lines.index(None) if None in lines else len(lines)
    lines[start:] = [
        line if line is not None and len(line) <= room else _dumps(v, inner)
        for v, line in zip(obj[start:], lines[start:])
    ]
    return _block(lines, pad)


def _emit(obj) -> None:
    print(_dumps(obj))


def _style(args) -> RenderStyle:
    glyphs = getattr(args, "glyphs", None)
    if not glyphs:
        return RenderStyle()
    if len(glyphs) != 3:
        raise ValueError("--glyphs needs exactly three characters: dominator, dominated, void")
    return RenderStyle(dominator=glyphs[0], dominated=glyphs[1], void=glyphs[2])


def _print_board(
    fmt: str, lattice: Lattice, members, report: DominationReport, style: RenderStyle, file=None
) -> None:
    # The SVG goes out row by row, so the whole document is never held.
    if fmt == "svg":
        pieces = svg_lines(lattice, tuple(members), report)
    else:
        pieces = (ascii_board(lattice, tuple(members), report, style),)
    for piece in pieces:
        print(piece, file=file)


def _load_set_file(path: str) -> tuple[Lattice, tuple]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("the set file nests too deeply to parse") from None
    return set_from_json(obj)


def _audited_set(lattice: Lattice, members, report: DominationReport) -> dict:
    # Coordinate tuples print as arrays as they are; no list per member.
    return {
        "lattice": lattice.descriptor(),
        "set": members,
        "report": _report(lattice, report),
    }


# -- construct ----------------------------------------------------------------


def cmd_construct(args) -> int:
    style = _style(args)
    construction = constructions.CONSTRUCTIONS[args.name]
    # An n outside the entry's domain is refused in its own words, before
    # the lattice refuses a size; an oversized n still meets MAX_VERTICES
    # before any set is built.
    constructions.require_n(args.name, args.n)
    lattice = construction.lattice(args.n)
    members = construction.build(args.n)
    report = audit(lattice, members)
    _emit({"construction": args.name, "n": args.n, **_audited_set(lattice, members, report)})
    if args.render:
        _print_board(args.render, lattice, members, report, style)
    return EXIT_OK if construction.contract(args.n, report) else EXIT_VOIDS


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    lattice, members = _load_set_file(args.set_file)
    if args.lattice:
        lattice = Lattice.from_descriptor(args.lattice)
    report = audit(lattice, members)
    _emit(_audited_set(lattice, members, report))
    if not report.is_two_packing:
        return EXIT_CONFLICTS
    return EXIT_OK if report.is_eds else EXIT_VOIDS


# -- solve --------------------------------------------------------------------


def _solve_lattice(lattice: Lattice, method: str, brute_limit: int, dp_width: int) -> solver.SolveResult:
    rectangular = lattice.kind is LatticeKind.RECTANGULAR and not lattice.torus
    side = min(lattice.rows, lattice.cols)
    if method == "auto":
        method = "dp" if rectangular else "brute"
    if method == "dp":
        if not rectangular:
            raise ValueError("the column DP only handles bounded rectangular lattices")
        if side > dp_width:
            raise ValueError(
                f"the shorter side of {lattice.descriptor()} has {side} rows, "
                f"more than the DP width limit {dp_width}; raise --dp-width"
            )
        return solver.dp_F_rect(lattice.rows, lattice.cols, width_limit=dp_width)
    if lattice.vertex_count > brute_limit:
        advice = "raise --brute-limit"
        if rectangular and side <= dp_width:
            advice = "use --method dp or " + advice
        raise ValueError(
            f"{lattice.descriptor()} has {lattice.vertex_count} vertices, which exceeds "
            f"the brute-force limit {brute_limit}; {advice}"
        )
    return solver.brute_force_F(lattice, limit=brute_limit)


def _warn_raised_limits(args) -> None:
    brute_limit = getattr(args, "brute_limit", solver.BRUTE_FORCE_LIMIT)
    dp_width = getattr(args, "dp_width", solver.DP_WIDTH_LIMIT)
    if brute_limit > solver.BRUTE_FORCE_LIMIT:
        _warn(f"brute-force limit raised to {brute_limit} vertices; runtime grows exponentially")
    if dp_width > solver.DP_WIDTH_LIMIT:
        _warn(f"DP width raised to {dp_width} rows; the profile state space grows exponentially")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def cmd_solve(args) -> int:
    _warn_raised_limits(args)
    lattice = Lattice.from_descriptor(args.lattice)
    result = _solve_lattice(lattice, args.method, args.brute_limit, args.dp_width)
    _emit(
        {
            "lattice": lattice.descriptor(),
            "F": result.f_value,
            "witness": result.witness,
            "explored": result.explored,
        }
    )
    print(f"elapsed_ms={int(result.elapsed * 1000)}", file=sys.stderr)
    return EXIT_OK


# -- table / conjecture ---------------------------------------------------------


def _check_range(args) -> None:
    # The conjectured F, and so every row, is defined from n = 7 on.
    if args.lo < 7:
        raise ValueError(f"--from must be at least 7, got {args.lo}")
    if args.lo > args.hi:
        raise ValueError(f"empty range: --from {args.lo} is greater than --to {args.hi}")


def _emit_square_rows(args, view) -> int:
    """One row per n x n square from ``check_conjecture``, shown by ``view``."""
    _check_range(args)
    _warn_raised_limits(args)
    rows = [
        {"n": r.n, **view(r), "match": r.matches, "verified": r.dp_value is not None}
        for r in solver.check_conjecture(args.lo, args.hi, width_limit=args.dp_width)
    ]
    _emit({"rows": rows})
    return EXIT_OK


def cmd_table(args) -> int:
    # Voids are n^2 - F: predicted from the conjectured F, exact from the DP.
    def voids(n: int, f: int | None) -> int | None:
        return None if f is None else n * n - f

    return _emit_square_rows(
        args,
        lambda r: {"predicted_voids": voids(r.n, r.conjectured), "dp_voids": voids(r.n, r.dp_value)},
    )


def cmd_conjecture(args) -> int:
    return _emit_square_rows(args, lambda r: {"conjectured": r.conjectured, "dp_value": r.dp_value})


# -- motif ----------------------------------------------------------------------


def _parse_window(text: str) -> tuple[int, int]:
    rows_s, _, cols_s = text.partition("x")
    try:
        return int(rows_s), int(cols_s)
    except ValueError:
        raise ValueError(f"window must look like RxC, got {text!r}") from None


def cmd_motif(args) -> int:
    if args.lattice == "hex":
        if args.residue:
            raise ValueError("the hexagonal motif takes no residue")
        motif = periodic.hex_code_motif()
    else:
        motif = {"rect": periodic.rect_code_motif, "tri": periodic.tri_code_motif}[args.lattice](args.residue)
    if args.window:
        # The window comes first, so an unusable one is rejected before any work.
        size = _parse_window(args.window)
        window = periodic.window_lattice(motif, *size)
        expansion = periodic.expand_motif(motif, *size)
    report = periodic.verify_perfect(motif)
    torus = motif.torus_lattice()
    payload = {
        "kind": motif.kind.value,
        "periods": list(motif.periods),
        "cells": motif.cells,
        "density": motif.density,
        "perfect": report.is_eds,
        "report": _report(torus, report),
    }
    board = (torus, motif.cells, report)
    if args.window:
        window_report = audit(window, expansion)
        payload["window"] = window.descriptor()
        payload["expansion"] = expansion
        payload["window_report"] = _report(window, window_report)
        board = (window, expansion, window_report)
    if args.format == "json":
        _emit(payload)
    else:
        print(ascii_board(*board))
    return EXIT_OK if report.is_eds else EXIT_VOIDS


# -- augment ---------------------------------------------------------------------


def cmd_augment(args) -> int:
    lattice, members = _load_set_file(args.set_file)
    augmented, eds = constructions.near_grid_augment(lattice, members)
    report = audit(augmented, eds)
    _emit(
        {
            "base_lattice": lattice.descriptor(),
            "set": members,
            "pendants": [p.to_json() for p in augmented.pendants],
            "vertex_count": augmented.vertex_count,
            # Only the pendants need vertex_to_json; coordinates stay tuples.
            "eds": [v if type(v) is tuple else vertex_to_json(v) for v in eds],
            "report": _report(lattice, report),
        }
    )
    return EXIT_OK if report.is_eds else EXIT_VOIDS


# -- render ----------------------------------------------------------------------


def cmd_render(args) -> int:
    style = _style(args)
    lattice, members = _load_set_file(args.set_file)
    report = audit(lattice, members)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _print_board(args.format, lattice, members, report, style, fh)
    else:
        _print_board(args.format, lattice, members, report, style)
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effdom",
        description="Efficient domination (perfect 1-codes) on lattice graphs: "
        "constructions, audits, exact solvers and periodic motifs.",
        epilog="Exit codes: 0 ok / efficient dominating set; 1 valid 2-packing "
        "with voids; 2 usage or parse error; 3 not a 2-packing; "
        "4 internal error; 141 stdout closed by its reader before the output ended.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named set construction and audit it")
    p.add_argument("name", choices=tuple(constructions.CONSTRUCTIONS))
    p.add_argument("--n", type=int, required=True, help="strip length / square side")
    p.add_argument("--render", choices=("ascii", "svg"), help="append a board rendering")
    p.add_argument("--glyphs", help="three characters: dominator, dominated, void")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="audit a vertex-set JSON file")
    p.add_argument("set_file", help="path to a set file, or - for stdin")
    p.add_argument("--lattice", help="override the lattice descriptor from the file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="compute F exactly for a lattice descriptor")
    p.add_argument("lattice", help="e.g. rect:5x5, rect-torus:6x6, tri:4, hex:4x6")
    p.add_argument("--method", choices=("auto", "dp", "brute"), default="auto")
    p.add_argument("--brute-limit", type=int, default=solver.BRUTE_FORCE_LIMIT)
    p.add_argument("--dp-width", type=int, default=solver.DP_WIDTH_LIMIT)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="voids n^2 - F(n x n): DP value vs prediction")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--dp-width", type=int, default=solver.DP_WIDTH_LIMIT)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("conjecture", help="DP value vs conjectured F(n x n)")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--dp-width", type=int, default=solver.DP_WIDTH_LIMIT)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("motif", help="verify a periodic perfect-code motif")
    p.add_argument("--lattice", choices=("rect", "tri", "hex"), required=True)
    p.add_argument("--residue", type=int, default=0)
    p.add_argument("--window", help="expand into a bounded RxC window")
    p.add_argument("--format", choices=("json", "ascii"), default="json")
    p.set_defaults(func=cmd_motif)

    p = sub.add_parser("augment", help="pendant-augment a 2-packing into a near-grid EDS")
    p.add_argument("set_file", help="path to a set file, or - for stdin")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("render", help="draw a set file as ASCII or SVG")
    p.add_argument("set_file", help="path to a set file, or - for stdin")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument("--glyphs", help="three characters: dominator, dominated, void")
    p.set_defaults(func=cmd_render)

    return parser


def _reader_gone() -> int:
    """Exit code for a stdout whose reader left early: the output just ends.

    What stdout still buffers is sent to /dev/null, so the flush at
    interpreter exit cannot fail again and print "Exception ignored".
    """
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_BROKEN_PIPE


# The parser main uses, built on its first call: parsing leaves no state in it.
_parser = functools.cache(build_parser)


def main(argv: Iterable[str] | None = None) -> int:
    args = _parser().parse_args(list(argv) if argv is not None else None)
    # The cyclic collector is paused while the command runs.  Its tables
    # (vertex ids, neighbour tuples, coverage, output lines) hold no
    # reference cycles, so a pass would only walk them, hundreds of times
    # per command on a large board, and find nothing to free.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early is met here, not at exit
        return code
    except BrokenPipeError:
        return _reader_gone()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Any other failure is a bug, not a verdict: keep it off exit 1
        # ("valid 2-packing with voids") and off the traceback path.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
