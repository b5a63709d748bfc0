"""Outside-in tracing of polyorbit's layers.

The tracer wraps the public entry points of each module from outside the
program: every module of the package that holds a wrapped function, under
any name, gets the wrapper in its place, and wrapped methods are replaced on
their class.  Small helpers such as ``dot`` or ``frac`` are never wrapped:
they run inside every layer, and a span per call would both move their time
into ``polycore`` and dominate the cost of tracing.

A span records its name, start, end, parent span and the job it ran in.
Spans stay in memory until the run ends.  Worker threads of the package's
thread pools inherit the span that submitted their work, so a parent's self
time excludes time its children spent on other threads.  A call nested
directly inside a span of the same name (recursion, or one grouped entry
point calling another) records no span of its own.
"""
from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = ("polycore", "permgrp", "symdetect", "repconv", "latcount", "symilp", "cli")

_ELIM = ("rank", "det", "nullspace", "solve_linear", "invert_matrix", "row_space_basis",
         "integer_kernel_basis", "affine_hull", "affinely_independent_subset")


def _orbit_elements(orb) -> int:
    return orb.size if orb.expanded else 0


# span name -> ([(module, attribute path)], size of a result or None)
ENTRY_POINTS = {
    "polycore.solve_lp": ([("polycore", "solve_lp")], None),
    "polycore.elim": ([("polycore", f) for f in _ELIM], None),
    "polycore.incidence": ([("polycore", "incidence")], None),
    "polycore.remove_redundancy": ([("polycore", "remove_redundancy")], None),
    "permgrp.orbit_of_set": ([("permgrp", "orbit_of_set")], _orbit_elements),
    "permgrp.set_stabilizer": ([("permgrp", "set_stabilizer")], None),
    "permgrp.schreier_sims": ([("permgrp", "PermutationGroup.__init__"),
                               ("permgrp", "schreier_sims")], None),
    "symdetect.affine_symmetry_group": ([("symdetect", "affine_symmetry_group")], None),
    "symdetect.restricted_symmetries_H": ([("symdetect", "restricted_symmetries_H")], None),
    # affine_symmetry_group and restricted_symmetries_H realize candidates
    # through these private classes, not through the public functions
    "symdetect.realize": ([("symdetect", "_VertexRealizer.realize"),
                           ("symdetect", "_RowRealizer.realize"),
                           ("symdetect", "realize_vertex_permutation"),
                           ("symdetect", "realize_row_permutation")], None),
    "repconv.dd_cone": ([("repconv", "dd_cone")], lambda res: len(res[1])),
    "repconv.convert_dd": ([("repconv", "convert_dd")], None),
    "repconv.adjacency_decomposition": ([("repconv", "adjacency_decomposition")], None),
    # the CLI reaches the incidence method only through the engine that
    # adjacency_decomposition runs at levels (1, 1)
    "repconv.incidence_decomposition": ([("repconv", "incidence_decomposition"),
                                         ("repconv", "_idm_orbits")], None),
    "repconv.adjacency_graph": ([("repconv", "adjacency_graph")], None),
    "latcount.count_lattice_points": ([("latcount", "count_lattice_points")], int),
    "latcount.count_with_symmetry": ([("latcount", "count_with_symmetry")], None),
    "latcount.ehrhart": ([("latcount", "ehrhart")], None),
    "latcount.volume": ([("latcount", "volume")], None),
    "latcount.slice_decomposition": ([("latcount", "slice_decomposition")], None),
    "symilp.symmetric_ilp_feasible": ([("symilp", "symmetric_ilp_feasible")], None),
    "symilp.symmetric_ilp_optimize": ([("symilp", "symmetric_ilp_optimize")], None),
    "symilp.canonical_core_point": ([("symilp", "canonical_core_point")], None),
    "symilp.check_invariance": ([("symilp", "check_invariance")], None),
    "cli.parse_polyfile": ([("cli", "parse_polyfile")], None),
    "cli.main": ([("cli", "main")], None),
}

# modules whose thread pools run traced work
_POOL_MODULES = ("repconv", "symilp")


class Tracer:
    """Span recorder; ``install`` patches the imported polyorbit package."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, job, size]
        self.job = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, size):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == name:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), None, parent, tracer.job, 0]
            tracer.spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if size is not None:
                rec[5] = size(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _adopt(self, parent, fn, *args, **kwargs):
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def install(self) -> None:
        mods = {m: sys.modules[f"polyorbit.{m}"] for m in LAYERS}
        package = [mod for key, mod in sys.modules.items()
                   if key == "polyorbit" or key.startswith("polyorbit.")]
        for name, (targets, size) in ENTRY_POINTS.items():
            for mod_name, path in targets:
                owner = mods[mod_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                wrapped = self._wrap(name, fn, size)
                if outer:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

        tracer = self

        class InheritingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._adopt, parent, fn, *args, **kwargs)

        for m in _POOL_MODULES:
            mods[m].ThreadPoolExecutor = InheritingExecutor

    def reset(self) -> None:
        self.spans = []

    def counts(self) -> dict:
        """Deterministic part of a trace: calls and summed sizes per name."""
        out: dict = {}
        for name, _, _, _, _, size in self.spans:
            calls, total = out.get(name, (0, 0))
            out[name] = (calls + 1, total + size)
        return out

    def self_times(self) -> list:
        """(span, self seconds): duration minus the union of child intervals."""
        children: dict = {}
        for rec in self.spans:
            if rec[3] is not None:
                children.setdefault(id(rec[3]), []).append((rec[1], rec[2]))
        out = []
        for rec in self.spans:
            covered, reach = 0.0, rec[1]
            for start, end in sorted(children.get(id(rec), ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append((rec, rec[2] - rec[1] - covered))
        return out

    def dump(self, path: str) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[name, start, end, None if parent is None else index[id(parent)], job]
                for name, start, end, parent, job, _ in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": rows}, fh)


def _has_ancestor(rec, layer: str) -> bool:
    parent = rec[3]
    while parent is not None:
        if parent[0].startswith(layer + "."):
            return True
        parent = parent[3]
    return False


def layer_metrics(tracer: Tracer, jobs: list, results: dict, scale: dict,
                  overhead: float) -> dict:
    """Every per-layer metric of the benchmark, from one traced pass; self
    times are multiplied by the scale factor of their job."""
    command = {job.name: job.argv[0] for job in jobs}
    self_s: dict = {}
    calls: dict = {}
    sizes: dict = {}
    for rec, own in tracer.self_times():
        name = rec[0]
        self_s[name] = self_s.get(name, 0.0) + own * scale[rec[4]]
        calls[name] = calls.get(name, 0) + 1
        sizes[name] = sizes.get(name, 0) + rec[5]

    def n_calls(name, where=lambda rec: True):
        return sum(1 for rec in tracer.spans if rec[0] == name and where(rec))

    def ratio(num, den):
        return num / den if den else 0.0

    convert_orbits = sum(int(results[job.name].out.split("\n", 1)[0].split()[-1])
                         for job in jobs if command[job.name] == "convert"
                         and results[job.name].code == 0)
    feasible = sum(1 for job in jobs if command[job.name] == "ilp"
                   and results[job.name].out.startswith("feasible"))
    m = {}
    sec, cnt = "s", "count"
    for name in ("polycore.solve_lp", "polycore.elim", "repconv.dd_cone",
                 "permgrp.orbit_of_set", "permgrp.set_stabilizer",
                 "latcount.count_lattice_points"):
        m[f"{name}.calls"] = (calls.get(name, 0), cnt)
    m["symdetect.realize.calls"] = (calls.get("symdetect.realize", 0), cnt)
    m["symilp.canonical_core_point.calls"] = (calls.get("symilp.canonical_core_point", 0), cnt)
    for name in ("polycore.solve_lp", "polycore.elim", "polycore.incidence",
                 "polycore.remove_redundancy", "repconv.dd_cone",
                 "repconv.adjacency_decomposition", "repconv.incidence_decomposition",
                 "repconv.adjacency_graph", "permgrp.orbit_of_set", "permgrp.set_stabilizer",
                 "permgrp.schreier_sims", "symdetect.affine_symmetry_group",
                 "symdetect.restricted_symmetries_H", "latcount.count_lattice_points",
                 "latcount.ehrhart", "latcount.volume", "latcount.slice_decomposition",
                 "symilp.symmetric_ilp_feasible", "symilp.symmetric_ilp_optimize",
                 "symilp.check_invariance", "cli.parse_polyfile", "cli.main"):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), sec)
    m["repconv.dd_cone.rays_out"] = (sizes.get("repconv.dd_cone", 0), cnt)
    m["permgrp.orbit_of_set.elements"] = (sizes.get("permgrp.orbit_of_set", 0), cnt)
    m["repconv.orbit_yield"] = (ratio(convert_orbits, n_calls(
        "permgrp.orbit_of_set", lambda rec: command[rec[4]] == "convert")), "ratio")
    m["latcount.points_per_lp"] = (ratio(sizes.get("latcount.count_lattice_points", 0), n_calls(
        "polycore.solve_lp", lambda rec: _has_ancestor(rec, "latcount"))), "ratio")
    m["symilp.probe_yield"] = (ratio(feasible, n_calls(
        "symilp.canonical_core_point", lambda rec: command[rec[4]] == "ilp")), "ratio")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                    if k.startswith(layer + ".")), sec)
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m
