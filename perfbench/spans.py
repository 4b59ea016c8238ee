"""Span wrappers installed around effdom's public functions for traced passes.

Each wrapped call is a span: name, start, end and the span that caused it,
plus a request id (pass, command) shared by every span of one CLI call.
Self time is a span's duration minus the time its child spans cover; the
stack below tracks that as calls return.  Spans of the hot leaf functions
(called ~10^5 times per pass) are only aggregated, the rest are kept in
memory and written out by ``dump`` when the run ends.

Names bound with ``from ... import`` are wrapped where they are looked up
(``effdom.cli.audit``, ``effdom.cli.svg_board``, ...).  A target that a later
version no longer has is skipped and reported by ``missing``.
"""

from __future__ import annotations

import json
from time import perf_counter

HOT = frozenset(
    {
        "lattice.neighbors",
        "lattice.degree",
        "lattice.vertices",
        "constructions.augmented_neighbors",
        "periodic.contains_translate",
    }
)

# (module or "module.Class", attribute, span name)
TARGETS = (
    ("lattice.Lattice", "neighbors", "lattice.neighbors"),
    ("lattice.Lattice", "degree", "lattice.degree"),
    ("lattice.Lattice", "vertices", "lattice.vertices"),
    ("packing", "audit", "packing.audit"),
    ("solver", "audit", "packing.audit"),
    ("constructions", "audit", "packing.audit"),
    ("periodic", "audit", "packing.audit"),
    ("cli", "audit", "packing.audit"),
    ("solver", "dp_F_rect", "solver.dp"),
    ("solver", "brute_force_F", "solver.brute"),
    ("solver", "check_conjecture", "solver.table"),
    ("solver", "table_voids", "solver.table"),
    ("constructions", "knight_construction", "constructions.knight"),
    ("constructions", "near_grid_augment", "constructions.augment"),
    ("constructions.AugmentedLattice", "neighbors", "constructions.augmented_neighbors"),
    ("periodic", "expand_motif", "periodic.expand"),
    ("periodic.Motif", "contains_translate", "periodic.contains_translate"),
    ("render", "svg_board", "render.svg"),
    ("cli", "svg_board", "render.svg"),
)


def _add(counters: dict, key: str, value) -> None:
    """Add to a counter; a value the program no longer provides is missing."""
    if value is None:
        counters.setdefault("missing", set()).add(key)
    else:
        counters[key] = counters.get(key, 0) + value


def _count_audit(counters, args, kwargs, report) -> None:
    coverage = getattr(report, "coverage", None)
    members = args[1] if len(args) > 1 else kwargs.get("members")
    _add(counters, "packing.audit.vertices", len(coverage) if coverage is not None else None)
    _add(counters, "packing.audit.members", len(members) if hasattr(members, "__len__") else None)


# span name -> function(counters, args, kwargs, result) run after each call
COUNTERS = {
    "solver.dp": lambda c, a, k, r: _add(c, "solver.dp.transitions", getattr(r, "explored", None)),
    "solver.brute": lambda c, a, k, r: _add(c, "solver.brute.nodes", getattr(r, "explored", None)),
    "packing.audit": _count_audit,
    "render.svg": lambda c, a, k, r: _add(c, "render.svg.bytes", len(r) if isinstance(r, str) else None),
}


class Tracer:
    def __init__(self, effdom_modules: dict):
        self._modules = effdom_modules
        self._stack = [[0.0, "", None]]  # frames: [child time, name, span id]
        self._patches = []
        self._next_id = 0
        self.request = None
        self.spans = []  # (span id, parent id, request, name, start, end)
        self.totals = {}  # name -> [calls, total s, self s]
        self.edges = {}  # "parent>child" -> total s of child spans
        self.counters = {}
        self.missing = set()

    def wrap(self, name: str, fn):
        stack, spans, edges = self._stack, self.spans, self.edges
        agg = self.totals.setdefault(name, [0, 0.0, 0.0])
        count = COUNTERS.get(name)
        hot = name in HOT
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name, None]
            if not hot:
                tracer._next_id += 1
                frame[2] = tracer._next_id
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                parent[0] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if not hot:
                    edge = parent[1] + ">" + name
                    edges[edge] = edges.get(edge, 0.0) + duration
                    spans.append((frame[2], parent[2], tracer.request, name, t0, t1))
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner_path, attr, name in TARGETS:
            module, _, cls = owner_path.partition(".")
            owner = self._modules.get(module)
            if owner is not None and cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(f"{owner_path}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> dict:
        """Per-layer totals since the last call, then reset them."""
        counters = dict(self.counters)
        missing = sorted(counters.pop("missing", set()) | self.missing)
        out = {
            "totals": {name: list(agg) for name, agg in self.totals.items() if agg[0]},
            "edges": dict(self.edges),
            "counters": counters,
            "missing": missing,
        }
        for agg in self.totals.values():
            agg[:] = [0, 0.0, 0.0]
        self.edges.clear()
        self.counters.clear()
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request, "name": name, "start": t0, "end": t1}) + "\n")
