"""Compare a parent and a change from two sets of benchmark runs.

    python3 perfbench/compare.py pairs PARENT_ROOT CHANGE_ROOT --out DIR
    python3 perfbench/compare.py report PARENT.jsonl CHANGE.jsonl

``pairs`` runs run.py with ``--record`` in two checkouts that hold identical
benchmark files: every workload with ``--trace 0`` for seeds 1 to 10 and
with ``--trace 1`` for seed 1, alternating which side runs first, and then
reports.  ``report`` reads two record files written by ``run.py --record``.
Runs are paired by workload, seed and trace.

For each workload and end-to-end metric (direction and bound from
BENCHMARK.json) the verdict follows the rule for small sandboxes: the change
has *improved* (or got *worse*) only when it wins (or loses) at least nine
tenths of the pairs, ties counting for neither, and the medians differ by
more than the parent's own quartile spread; otherwise it is *unresolved*.
Separately, ``bound`` says whether the change's median stays within the
metric's regression bound of the parent's.  Work counters of each pair,
plain and traced, are compared exactly; a counter one side lacks is reported
as missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
SEEDS = range(1, 11)  # plain runs of every workload on each side
TRACED_SEEDS = (1,)  # traced runs, for their work counters


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], lower_is_better: bool) -> tuple[str, int, int]:
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    gain = sign * (statistics.median(parent) - statistics.median(change))
    spread = quartile_spread(parent)
    need = WIN_SHARE * len(parent)
    if wins >= need and gain > spread:
        return "improved", wins, losses
    if losses >= need and -gain > spread:
        return "worse", wins, losses
    return "unresolved", wins, losses


def counter_changes(parent: dict, change: dict) -> list[str]:
    notes = []
    for label in sorted(set(parent) | set(change)):
        p, c = parent.get(label, {}), change.get(label, {})
        for key in sorted(set(p) | set(c)):
            if c.get(key) is None and p.get(key) is not None:
                notes.append(f"{label}.{key}: missing in change")
            elif p.get(key) is None and c.get(key) is not None:
                notes.append(f"{label}.{key}: missing in parent")
            elif p[key] != c[key]:
                notes.append(f"{label}.{key}: {p[key]} -> {c[key]}")
    return notes


def _by_seed(runs: list[dict], workload: str, trace: int) -> dict:
    return {r["seed"]: r for r in runs if r["workload"] == workload and r["trace"] == trace}


def _counter_lines(parent: dict, change: dict, what: str) -> list[str]:
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return []
    notes = sorted({n for s in seeds for n in counter_changes(parent[s]["counters"], change[s]["counters"])})
    return [f"  {what} counter {n}" for n in notes] or [f"  {what} work counters identical in {len(seeds)} pairs"]


def _metric_line(metric: dict, parent: dict, change: dict, seeds: list) -> str:
    name = metric["name"]
    pv = [parent[s]["result"]["metrics"][name]["value"] for s in seeds]
    cv = [change[s]["result"]["metrics"][name]["value"] for s in seeds]
    call, wins, losses = verdict(pv, cv, metric["better"] == "lower")
    mp, mc = statistics.median(pv), statistics.median(cv)
    worse_by = (mc - mp if metric["better"] == "lower" else mp - mc) / mp
    bound = "within" if worse_by <= metric["bound"] else "OUTSIDE"
    return (
        f"  {name:<12} parent {mp:.6g} (IQR {quartile_spread(pv):.3g}) change {mc:.6g} {metric['unit']}"
        f"  wins {wins}/{len(seeds)} losses {losses}  {call}; {worse_by:+.1%} vs bound {metric['bound']:.0%}: {bound}"
    )


def report(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> list[str]:
    lines = []
    for workload in sorted({r["workload"] for r in parent_runs + change_runs}):
        parent, change = _by_seed(parent_runs, workload, 0), _by_seed(change_runs, workload, 0)
        seeds = sorted(set(parent) & set(change))
        lines.append(f"{workload}: {len(seeds)} pairs (seeds {seeds})")
        if seeds:
            failed = [sum(side[s]["result"]["failed"] for s in seeds) for side in (parent, change)]
            lines.append(f"  failed commands: parent {failed[0]}, change {failed[1]}")
            lines += [_metric_line(metric, parent, change, seeds) for metric in spec["end_to_end"]]
        lines += _counter_lines(parent, change, "plain")
        lines += _counter_lines(_by_seed(parent_runs, workload, 1), _by_seed(change_runs, workload, 1), "traced")
    return lines


def _benchmark_digest(root: Path) -> str:
    digest = hashlib.sha256()
    files = [root / "BENCHMARK.json", *sorted((root / "perfbench").glob("*.py"))]
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def pairs(parent_root: str, change_root: str, out_dir: str, spec: dict) -> list[str]:
    roots = {"parent": Path(parent_root).resolve(), "change": Path(change_root).resolve()}
    if _benchmark_digest(roots["parent"]) != _benchmark_digest(roots["change"]):
        raise SystemExit("the two checkouts hold different benchmark files; copy one side's perfbench/ and BENCHMARK.json to the other")
    out = Path(out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    runs = [(seed, 0) for seed in SEEDS] + [(seed, 1) for seed in TRACED_SEEDS]
    for i, (seed, trace) in enumerate(runs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in (w["name"] for w in spec["workloads"]):
            for side in order:
                argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
                argv += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace), "--record", str(out / f"{side}.jsonl")]
                subprocess.run(argv, cwd=roots[side], check=True, stdout=subprocess.DEVNULL)
    return report(load(out / "parent.jsonl"), load(out / "change.jsonl"), spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("report", help="compare two record files")
    p.add_argument("parent")
    p.add_argument("change")
    p = sub.add_parser("pairs", help="run alternating pairs in two checkouts, then compare")
    p.add_argument("parent", help="root of the parent checkout")
    p.add_argument("change", help="root of the change checkout")
    p.add_argument("--out", required=True, help="directory for parent.jsonl and change.jsonl")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    if args.mode == "report":
        lines = report(load(args.parent), load(args.change), spec)
    else:
        lines = pairs(args.parent, args.change, args.out, spec)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
