"""Span tracer that observes rspider from outside the program.

``traced(log)`` wraps, for its duration, the public functions of the five
rspider modules and the public methods of the classes the workloads use
(``Sphere`` geometry ops and ``PcaProblem`` oracle calls), then restores the
originals. The program's source is never edited. Each wrapped call records a
span (name, start, end, parent) and the change of the charged IFO count
across it. Spans live in compact arrays in memory; ``layer_metrics`` derives
the per-layer figures from their self times and counts when the run ends.

The wrappers only read the objective's counter. ``SpanLog.counter_mismatches``
counts solver spans whose own counter delta differs from the delta the oracle
spans beneath them accounted for, so an unwrapped charging path shows.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

MODULES = ("geometry", "oracle", "optim", "diagnostics", "bench")
METHODS = {
    "geometry.Sphere": ("exp", "log", "transport", "retract", "dist"),
    "oracle.PcaProblem": ("component_rgrad", "minibatch_rgrad", "full_rgrad", "value"),
}
SOLVERS = ("rsgd", "rsvrg", "spider_nonconvex", "spider_gd1", "spider_gd2")
GRADIENTS = ("oracle.component_rgrad", "oracle.minibatch_rgrad", "oracle.full_rgrad")
BUILDS = ("oracle.packed_spectrum", "oracle.problem_from_spectrum", "oracle.generate_gap_matrix")


def _components(name, obj, args):
    """Component gradients one oracle call evaluates, charged or not."""
    if name == "oracle.component_rgrad":
        return 1
    if name == "oracle.minibatch_rgrad":
        return len(args[0])
    if name == "oracle.full_rgrad":
        return obj.n
    return 0


class SpanLog:
    """In-memory span store; one row per wrapped call, in call order."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.ifo = array("q")      # charged IFO delta across the span
        self.size = array("q")     # component gradients evaluated (oracle spans)
        self.in_solver = array("b")
        self.charged = 0           # running charged IFO, advanced by oracle spans
        self.checked_tangents = 0  # TangentVector.__init__ calls
        self.solver_meta: list[tuple[int, dict, int]] = []  # (span, meta, steps)
        self.counter_mismatches = 0
        self._stack: list[int] = []
        self._ifo0 = array("q")
        self._oracle_depth = 0
        self._solver_depth = 0

    def name_id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.in_solver.append(1 if self._solver_depth else 0)
        self._ifo0.append(self.charged)
        self.size.append(0)
        self.end.append(0)
        self.ifo.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        self.ifo[i] = self.charged - self._ifo0[i]

    @contextlib.contextmanager
    def span(self, name: str):
        """Span for the caller's own block; yields the span's index."""
        i = self.open(self.name_id(name))
        try:
            yield i
        finally:
            self.close(i)

    # -- wrapper factories ----------------------------------------------------
    def wrap_plain(self, name, fn):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    def wrap_oracle(self, name, fn):
        nid = self.name_id(name)

        def wrapper(obj, *args, **kwargs):
            c0 = obj.counter.calls
            i = self.open(nid)
            self._oracle_depth += 1
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self._oracle_depth -= 1
                if self._oracle_depth == 0:
                    self.charged += obj.counter.calls - c0
                self.size[i] = _components(name, obj, args)
                self.close(i)

        return wrapper

    def wrap_solver(self, name, fn):
        nid = self.name_id(name)

        def wrapper(obj, *args, **kwargs):
            c0 = obj.counter.calls
            i = self.open(nid)
            self._solver_depth += 1
            try:
                out = fn(obj, *args, **kwargs)
            finally:
                self._solver_depth -= 1
                self.close(i)
            if obj.counter.calls - c0 != self.ifo[i]:
                self.counter_mismatches += 1
            trace = out[1]
            self.solver_meta.append((i, trace.meta, trace.records[-1].k))
            return out

        return wrapper

    def wrap_tangent_init(self, fn):
        def wrapper(*args, **kwargs):
            self.checked_tangents += 1
            return fn(*args, **kwargs)

        return wrapper


def _rspider_modules():
    return [m for k, m in sys.modules.items() if k == "rspider" or k.startswith("rspider.")]


@contextlib.contextmanager
def traced(log: SpanLog):
    """Install the wrappers for the duration of the block, then restore."""
    import rspider

    undo = []

    def put(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for modname in MODULES:
            mod = getattr(rspider, modname)
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{modname}.{attr}"
                wrapped = log.wrap_solver(name, fn) if attr in SOLVERS else log.wrap_plain(name, fn)
                # rebind every module namespace that imported the function
                for m in _rspider_modules():
                    if getattr(m, attr, None) is fn:
                        put(m, attr, wrapped)
        for qual, methods in METHODS.items():
            modname, clsname = qual.split(".")
            cls = getattr(getattr(rspider, modname), clsname)
            for attr in methods:
                fn = cls.__dict__[attr]
                name = f"{modname}.{attr}"
                put(cls, attr, log.wrap_oracle(name, fn) if modname == "oracle" else log.wrap_plain(name, fn))
        tv = rspider.geometry.TangentVector
        put(tv, "__init__", log.wrap_tangent_init(tv.__dict__["__init__"]))
        yield log
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


# -- per-layer metrics ---------------------------------------------------------


def _percentile_with_tail(values, tail=10):
    """Highest whole percentile with at least ``tail`` samples above it."""
    n = len(values)
    level = max(0, math.floor(100.0 * (n - tail) / n)) if n else 0
    return level, (float(np.percentile(values, level)) if n else 0.0)


def layer_metrics(log: SpanLog, *, sweep_span: int, d: int, untraced_wall: float,
                  overshoot: float) -> dict[str, tuple[float, str]]:
    """Derive every per-layer metric from the recorded spans."""
    n = len(log.name)
    name = np.frombuffer(log.name, dtype=np.int32)
    parent = np.frombuffer(log.parent, dtype=np.int32)
    dur = (np.frombuffer(log.end, dtype=np.int64) - np.frombuffer(log.start, dtype=np.int64)) / 1e9
    ifo = np.frombuffer(log.ifo, dtype=np.int64)
    size = np.frombuffer(log.size, dtype=np.int64)
    in_solver = np.frombuffer(log.in_solver, dtype=np.int8).astype(bool)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def ids(*names):
        return [log._ids[x] for x in names if x in log._ids]

    def mask(*names):
        return np.isin(name, ids(*names))

    def prefix(p):
        return np.isin(name, [i for x, i in log._ids.items() if x.startswith(p)])

    sweep_wall = float(dur[sweep_span])
    out: dict[str, tuple[float, str]] = {}

    for op in ("exp", "transport", "retract", "dist"):
        m = mask(f"geometry.{op}")
        out[f"geometry.{op}.calls"] = (int(m.sum()), "count")
        out[f"geometry.{op}.us"] = (float(self_t[m].mean() * 1e6) if m.any() else 0.0, "us")
    out["geometry.checked_tangents"] = (log.checked_tangents, "count")
    out["geometry.share"] = (float(self_t[prefix("geometry.")].sum()) / sweep_wall, "ratio")

    for op in ("component_rgrad", "minibatch_rgrad", "full_rgrad", "value"):
        m = mask(f"oracle.{op}")
        out[f"oracle.{op}.calls"] = (int(m.sum()), "count")
        out[f"oracle.{op}.us"] = (float(self_t[m].mean() * 1e6) if m.any() else 0.0, "us")
    mb = mask("oracle.minibatch_rgrad")
    out["oracle.minibatch_rgrad.mean_batch"] = (float(size[mb].mean()) if mb.any() else 0.0, "count")
    grad = mask(*GRADIENTS)
    evaluated = int(size[grad].sum())
    out["oracle.ns_per_component"] = (float(self_t[grad].sum()) * 1e9 / max(evaluated, 1), "ns")
    mb_time = float(self_t[mb].sum())
    gathered = float(size[mb].sum()) * d * 8  # bytes computed from batch x d x 8
    out["oracle.gather_gb_per_s_computed"] = (gathered / mb_time / 1e9 if mb_time else 0.0, "GB/s")
    out["oracle.charged_share"] = (int(ifo[grad].sum()) / max(evaluated, 1), "ratio")
    build = mask(*BUILDS)
    top_build = build & ~np.isin(parent_name, ids(*BUILDS))
    out["oracle.build_s"] = (float(dur[top_build].sum()), "s")
    out["oracle.leading_eigpair_s"] = (float(dur[mask("oracle.leading_eigpair")].sum()), "s")

    solver = mask(*(f"optim.{s}" for s in SOLVERS))
    steps = sum(k for _i, _meta, k in log.solver_meta)
    solver_time = float(dur[solver].sum())
    out["optim.steps"] = (steps, "count")
    out["optim.us_per_step"] = (solver_time * 1e6 / max(steps, 1), "us")
    out["optim.self_us_per_step"] = (float(self_t[prefix("optim.")].sum()) * 1e6 / max(steps, 1), "us")
    tracer_calls = mask("oracle.value", "oracle.full_rgrad") & in_solver & (ifo == 0)
    out["optim.tracer_share"] = (float(self_t[tracer_calls].sum()) / max(solver_time, 1e-12), "ratio")
    out["optim.anchor_ifo_share"] = (_anchor_share(log, name, parent, ifo), "ratio")

    out["diagnostics.pl_constant_estimate_s"] = (
        float(dur[mask("diagnostics.pl_constant_estimate")].sum()), "s")

    cell = mask("bench.run_cell")
    cell_s = np.sort(dur[cell])
    level, top = _percentile_with_tail(cell_s)
    out["bench.cells"] = (int(cell.sum()), "count")
    out["bench.run_cell_s.p50"] = (float(np.median(cell_s)) if cell_s.size else 0.0, "s")
    out["bench.run_cell_s.ptop"] = (top, "s")
    out["bench.run_cell_s.ptop_level"] = (level, "%")
    out["bench.run_cell_s.samples"] = (int(cell_s.size), "count")
    cell_build = build & np.isin(parent_name, ids("bench.run_cell"))
    out["bench.build_share"] = (float(dur[cell_build].sum()) / max(float(cell_s.sum()), 1e-12), "ratio")
    out["bench.grid_overshoot_epochs"] = (overshoot, "epochs")
    out["trace_overhead_share"] = (sweep_wall / untraced_wall - 1.0, "ratio")
    return out


def _anchor_share(log, name, parent, ifo):
    """Anchor IFO over charged IFO of the solver calls.

    Uses ``trace.meta["ifo_breakdown"]`` where the solver returns one
    (spider, spider-gd2). rsvrg returns none; its anchors are the snapshot
    full gradients, read from the oracle spans directly beneath it.
    spider-gd1 returns none and is left out.
    """
    anchor = total = 0
    full = log._ids.get("oracle.full_rgrad", -2)
    for i, meta, _k in log.solver_meta:
        tallies = meta.get("ifo_breakdown")
        if tallies is not None:
            anchor += tallies["anchor"]
            total += tallies["anchor"] + tallies["correction"]
        elif meta.get("algo") == "rsvrg":
            under = parent == i
            anchor += int(ifo[under & (name == full)].sum())
            total += int(ifo[i])
    return anchor / total if total else 0.0
