"""effdom benchmark: one run of one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload dp-grids --seed 1 --seconds 40 --trace 0

A closed loop with one client: a worker process (worker.py) calls
``effdom.cli.main(argv)`` for one command at a time, pass after pass, until
``--seconds`` is spent.  This process makes the seeded inputs, measures
set-up time in fresh interpreters, checks every answer and prints each
metric by name with its unit.  The last stdout line is the JSON result:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``
(where traced passes alternate with untraced ones, whose ratio is the
tracing overhead).  ``--record FILE`` appends the run, with its samples and
work counters, to a JSON-lines file that compare.py reads.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
# A fresh interpreter times a fixed module body before and after the import,
# so the spawn is rescaled by the speed of the core it ran on.
SETUP_CODE = "from time import perf_counter\n" + inspect.getsource(speed.exec_seconds) + f"""
t0 = perf_counter(); code = compile({speed.module_source()!r}, "probe", "exec")
before = exec_seconds(code); probe_s = perf_counter() - t0
import sys
sys.path.insert(0, "src")
import effdom.cli
effdom.cli.build_parser()
t0 = perf_counter(); after = exec_seconds(code); probe_s += perf_counter() - t0
print(before, after, probe_s)
"""
RUN_LIMIT_S = 170  # the whole run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RunError(Exception):
    """The run could not be made; no result is printed."""


# -- statistics ------------------------------------------------------------------


def tail(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} of n={n}"
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        text += f", p{p} {statistics.quantiles(samples, n=100, method='inclusive')[p - 1]:.6g}"
    return text


def pass_wall(passes: list[dict], key: str = "s") -> tuple[float, dict]:
    """Seconds for one pass: each command's median over the passes, summed.
    ``key`` "s" reads reference seconds, "wall" raw wall seconds."""
    per_command: dict[str, list[float]] = {}
    for p in passes:
        for c in p["commands"]:
            if c[key] is not None:
                per_command.setdefault(c["label"], []).append(c[key])
    medians = {label: statistics.median(v) for label, v in per_command.items()}
    return sum(medians.values()), per_command


# -- set-up, inputs and the worker -------------------------------------------------


def measure_setup(root: Path) -> tuple[list[float], list[float]]:
    """Reference and wall seconds from spawning a fresh interpreter to
    ``import effdom`` and ``build_parser()`` done.  Bytecode is cached, as an
    installed package would have it; the first spawn only fills that cache."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    reference, wall = [], []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env, capture_output=True, text=True, timeout=30)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RunError(f"importing effdom failed:\n{proc.stderr}")
        before, after, probe_s = map(float, proc.stdout.split())
        wall.append(elapsed - probe_s)
        reference.append(wall[-1] * (speed.REFERENCE_S / before + speed.REFERENCE_S / after) / 2)
    return reference[1:], wall[1:]


def run_worker(root: Path, workdir: Path, commands: list, args, deadline: float) -> dict:
    plan = {
        "root": str(root),
        "workdir": str(workdir),
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": [{"label": c.label, "argv": c.argv} for c in commands],
        "result": str(workdir / "result.json"),
        "spans": str(HERE / ".out" / f"spans-{args.workload}-seed{args.seed}.jsonl"),
    }
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)], cwd=root, timeout=deadline - perf_counter())
    except subprocess.TimeoutExpired:
        raise RunError("the passes did not finish within the run limit") from None
    if proc.returncode != 0:
        raise RunError(f"the worker exited {proc.returncode}")
    return json.loads(Path(plan["result"]).read_text())


# -- checking ------------------------------------------------------------------------


def evaluate(commands: list, result: dict) -> tuple[int, list[str], dict]:
    """Attempted commands, failure reasons and per-command work counters.

    A command fails on an exception, a wrong exit code, an answer its check
    rejects, or stdout that differs from the first pass."""
    by_label = {c.label: c for c in commands}
    verdicts: dict[tuple[str, str], tuple[str | None, dict]] = {}
    first_sha: dict[str, str] = {}
    counters: dict[str, dict] = {}
    attempted, failures = 0, []
    for number, p in enumerate(result["passes"]):
        for rec in p["commands"]:
            attempted += 1
            label = rec["label"]
            command = by_label[label]
            where = f"pass {number} {label}"
            if rec["error"] is not None:
                failures.append(f"{where}: {rec['error']}")
                continue
            if rec["exit"] != command.exit_code:
                failures.append(f"{where}: exit {rec['exit']}, expected {command.exit_code}")
                continue
            sha = first_sha.setdefault(label, rec["sha"])
            if rec["sha"] != sha:
                failures.append(f"{where}: stdout differs from pass 0")
                continue
            key = (label, sha)
            if key not in verdicts:
                text = Path(result["outputs"][label][sha]).read_text(encoding="utf-8")
                try:
                    verdicts[key] = (None, command.check(text))
                except Exception as exc:  # malformed output is a wrong answer
                    verdicts[key] = (f"{type(exc).__name__}: {exc}", {})
            problem, found = verdicts[key]
            if problem is not None:
                failures.append(f"{where}: {problem}")
                continue
            counters[label] = {"stdout_bytes": rec["bytes"], **found}
    return attempted, failures, counters


# -- per-layer metrics ------------------------------------------------------------------


def _calls(name):
    return lambda L: L["totals"].get(name, [0, 0.0, 0.0])[0]


def _self(name):
    return lambda L: L["totals"].get(name, [0, 0.0, 0.0])[2]


def _count(key):
    return lambda L: L["counters"].get(key, 0)


def _rate(key, name):
    return lambda L: L["counters"].get(key, 0) / _self(name)(L) if _self(name)(L) else 0.0


# (metric, unit, value of one traced pass); times are medians over traced
# passes, counts must repeat exactly across them.
LAYER_METRICS = (
    ("solver.dp.calls", "count", _calls("solver.dp")),
    ("solver.dp.self_s", "s", _self("solver.dp")),
    ("solver.dp.transitions", "count", _count("solver.dp.transitions")),
    ("solver.dp.transitions_per_s", "1/s", _rate("solver.dp.transitions", "solver.dp")),
    ("solver.dp.audit_s", "s", lambda L: L["edges"].get("solver.dp>packing.audit", 0.0)),
    ("solver.brute.calls", "count", _calls("solver.brute")),
    ("solver.brute.self_s", "s", _self("solver.brute")),
    ("solver.brute.nodes", "count", _count("solver.brute.nodes")),
    ("solver.brute.nodes_per_s", "1/s", _rate("solver.brute.nodes", "solver.brute")),
    ("solver.table.self_s", "s", _self("solver.table")),
    ("lattice.neighbors.calls", "count", _calls("lattice.neighbors")),
    ("lattice.neighbors.self_s", "s", _self("lattice.neighbors")),
    ("lattice.degree.calls", "count", _calls("lattice.degree")),
    ("lattice.vertices.calls", "count", _calls("lattice.vertices")),
    ("lattice.vertices.self_s", "s", _self("lattice.vertices")),
    ("packing.audit.calls", "count", _calls("packing.audit")),
    ("packing.audit.self_s", "s", _self("packing.audit")),
    ("packing.audit.vertices", "count", _count("packing.audit.vertices")),
    ("packing.audit.members", "count", _count("packing.audit.members")),
    ("constructions.knight.self_s", "s", _self("constructions.knight")),
    ("constructions.augment.self_s", "s", _self("constructions.augment")),
    ("constructions.augmented_neighbors.calls", "count", _calls("constructions.augmented_neighbors")),
    ("constructions.augmented_neighbors.self_s", "s", _self("constructions.augmented_neighbors")),
    ("periodic.expand.self_s", "s", _self("periodic.expand")),
    ("periodic.contains_translate.calls", "count", _calls("periodic.contains_translate")),
    ("periodic.contains_translate.self_s", "s", _self("periodic.contains_translate")),
    ("render.svg.self_s", "s", _self("render.svg")),
    ("render.svg.bytes", "bytes", _count("render.svg.bytes")),
    ("cli.self_s", "s", _self("cli")),
    ("cli.stdout_bytes", "bytes", lambda L: L["stdout_bytes"]),
)


def layer_metrics(result: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics, counters that differ between traced passes, and
    counters the program no longer provides."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    pass_layers, speeds = [], []
    for p in traced:
        layers = dict(p["layers"], stdout_bytes=sum(c["bytes"] or 0 for c in p["commands"]))
        pass_layers.append(layers)
        timed = [c for c in p["commands"] if c["s"] is not None]
        speeds.append(sum(c["s"] for c in timed) / sum(c["wall"] for c in timed))
    metrics, unsteady = {}, []
    missing = sorted({m for L in pass_layers for m in L["missing"]})
    # Span times are wall seconds; rescale them with their pass's mean speed.
    scale = {"s": lambda v, k: v * k, "1/s": lambda v, k: v / k}
    for name, unit, value in LAYER_METRICS:
        values = [value(L) for L in pass_layers]
        if unit in scale:
            value = statistics.median(scale[unit](v, k) for v, k in zip(values, speeds))
        else:
            value = values[0]
            if len(set(values)) > 1:
                unsteady.append(f"{name} differs between traced passes: {values}")
        metrics[name] = {"value": value, "unit": unit}
    ratio = pass_wall(traced)[0] / pass_wall(plain)[0]
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics, unsteady, missing


# -- main ------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run to a JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure(args, root: Path) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    (HERE / ".out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=HERE / ".out") as tmp:
        workdir = Path(tmp)
        setup, setup_wall = measure_setup(root) if args.trace == 0 else ([], [])
        commands = workloads.build(args.workload, args.seed, workdir)
        result = run_worker(root, workdir, commands, args, deadline)
        attempted, failures, counters = evaluate(commands, result)
    run = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds}
    run["passes"] = len(result["passes"])
    run["counters"] = counters
    if args.trace == 0:
        wall, per_command = pass_wall(result["passes"])
        run["samples"] = {"setup_s": setup, **per_command}
        run["wall_clock"] = {"wall_s": pass_wall(result["passes"], "wall")[0], "setup_s": statistics.median(setup_wall)}
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        run["missing"] = sorted(f"{label}.{k}" for label, found in counters.items() for k, v in found.items() if v is None)
    else:
        metrics, unsteady, run["missing"] = layer_metrics(result)
        # Traced counts, so that compare.py can check them across runs.
        run["counters"]["layers"] = {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "bytes")}
        failures += unsteady
    run["failures"] = failures
    run["result"] = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return run


def summary(run: dict) -> list[str]:
    result = run["result"]
    lines = [
        f"perfbench {run['workload']} seed={run['seed']} trace={run['trace']}: "
        f"{run['passes']} passes, {result['attempted']} commands, {result['failed']} failed"
    ]
    for name, m in result["metrics"].items():
        detail = ""
        if name in run.get("samples", {}):
            detail = f"  ({tail(run['samples'][name])})"
        value = f"{m['value']:>16}" if isinstance(m["value"], int) else f"{m['value']:>16.6f}"
        lines.append(f"  {name:<44} {value} {m['unit']}{detail}")
    for name, value in run.get("wall_clock", {}).items():
        lines.append(f"  {name + ' (wall clock, not rescaled)':<44} {value:>16.6f} s")
    lines.append(f"  {'failed_ratio':<44} {result['failed'] / result['attempted']:>16.6f} ratio")
    for label, found in sorted(run["counters"].items()):
        samples = run.get("samples", {}).get(label)
        per_pass = f"  ({tail(samples)} s)" if samples else ""
        lines.append(f"  counters {label}: " + ", ".join(f"{k}={v}" for k, v in found.items()) + per_pass)
    lines += [f"  missing counter: {m}" for m in run["missing"]]
    lines += [f"  FAILED {f}" for f in run["failures"]]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker
    # and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "effdom" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/effdom/cli.py is not here", file=sys.stderr)
        return 2
    try:
        run = measure(args, root)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(run) + "\n")
    print("\n".join(summary(run)))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
