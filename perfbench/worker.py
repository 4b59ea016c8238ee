"""Timed passes of one benchmark run, in a process of their own.

Usage: python3 perfbench/worker.py PLAN.json  (written by run.py)

The process imports effdom from the checkout's ``src``, then calls
``effdom.cli.main(argv)`` for each command of the pass, one at a time on
one thread, until the time budget is spent.  Each call is timed on the
wall clock and at the reference speed (speed.py).  Stdout goes to a file, as it
would for a user redirecting it, so capture costs no memory; each distinct
output is kept for run.py to check.  Only this process runs the program,
so its peak RSS is the program's plus the interpreter's.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import speed

MODULES = ("cli", "constructions", "lattice", "packing", "periodic", "render", "solver")


def import_effdom(root: Path) -> dict:
    """effdom's modules, imported from root/src and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"effdom.{name}") for name in MODULES}
    where = Path(modules["cli"].__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"effdom was imported from {where}, not from {src}")
    return modules


def call(main, argv: list[str], out_path: Path, table: dict) -> tuple[float, float, int]:
    """Wall seconds, reference seconds (see speed.py) and exit code of
    main(argv), its stdout written to out_path."""
    with open(out_path, "w", encoding="utf-8") as out, open(os.devnull, "w") as err, speed.Probe(table) as probe:
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out.flush()
        wall = perf_counter() - t0
    return wall, probe.rescale(wall), code


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def run(plan: dict) -> dict:
    root, workdir = Path(plan["root"]), Path(plan["workdir"])
    modules = import_effdom(root)
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer(modules)
    table = speed.make_table()
    outputs: dict[str, dict[str, str]] = {}  # label -> digest -> kept stdout file
    passes = []
    clocks = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        main = modules["cli"].main
        if traced:
            tracer.install()
            main = tracer.wrap("cli", main)
        gc.collect()
        began = perf_counter()
        records = []
        for index, command in enumerate(plan["commands"]):
            label = command["label"]
            out_path = workdir / f"{label}.out"
            record = {"label": label, "s": None, "wall": None, "exit": None, "sha": None, "bytes": None, "error": None}
            if traced:
                tracer.request = [len(passes), index]
            try:
                record["wall"], record["s"], record["exit"] = call(main, command["argv"], out_path, table)
            except Exception as exc:  # a crash is a failed command, not a failed run
                record["error"] = f"{type(exc).__name__}: {exc}"
            else:
                record["sha"] = _digest(out_path)
                record["bytes"] = out_path.stat().st_size
                kept = outputs.setdefault(label, {})
                if record["sha"] not in kept:
                    kept[record["sha"]] = str(workdir / f"{label}-{len(kept)}.kept")
                    shutil.copyfile(out_path, kept[record["sha"]])
            records.append(record)
        clocks.append(perf_counter() - began)
        entry = {"traced": traced, "commands": records}
        if traced:
            tracer.uninstall()
            entry["layers"] = tracer.take()
        passes.append(entry)
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and perf_counter() - start + statistics.median(clocks) > plan["seconds"]:
            break
    if tracer is not None:
        tracer.dump(plan["spans"])
    return {
        "passes": passes,
        "outputs": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    plan_path = Path(sys.argv[1])
    plan = json.loads(plan_path.read_text())
    result = run(plan)
    Path(plan["result"]).write_text(json.dumps(result))
