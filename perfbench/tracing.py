"""Outside-in per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each simulator layer from here,
the benchmark's own files, so nothing under ``src/`` changes.  Each
wrapped call records a span (layer, parent span, start, end) into flat
in-memory arrays; self time is a span's duration minus the durations of
its direct child spans.  The simulator is single-threaded, so spans nest
strictly and no layer waits on another in host time.

``install(tracer)`` applies every wrapper and returns a ``Patches`` whose
``remove()`` restores the originals.  A target that no longer exists
(renamed or removed by a later change) is skipped and listed in
``Patches.missing`` instead of failing the run; its layer then reads
zero calls.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable

import numpy as np

# Layer -> the (module, attribute path) targets wrapped for it.  Module
# functions are replaced in every loaded module that imported them by
# name; methods are replaced on the class that defines them and on every
# subclass that overrides them (CachedExecutionModel's pricing, each
# concrete FleetRouter's route).
LAYERS: dict[str, list[tuple[str, str]]] = {
    "workload": [("repro.workload.datasets", "generate_requests")],
    "api.clone": [("repro.api", "clone_requests")],
    "cluster.fleet": [("repro.cluster.fleet", "simulate_fleet")],
    "cluster.route": [("repro.cluster.router", "FleetRouter.route")],
    "engine": [
        ("repro.engine.vectorized", "VectorizedReplicaEngine.step"),
        ("repro.engine.vectorized", "VectorizedReplicaEngine.deliver"),
    ],
    "engine.token_observer": [
        ("repro.engine.vectorized", "VectorizedReplicaEngine.token_observer"),
    ],
    "engine.sync_out": [("repro.engine.arrays", "RequestArrays.sync_out")],
    "scheduling.schedule": [("repro.scheduling.vectorized", "VecScheduler.schedule")],
    "scheduling.complete": [
        ("repro.scheduling.vectorized", "VecScheduler.on_batch_complete"),
    ],
    "memory": [
        ("repro.scheduling.vectorized", "VecPagedMemory.try_admit"),
        ("repro.scheduling.vectorized", "VecPagedMemory.try_bulk_decode"),
        ("repro.scheduling.vectorized", "VecPagedMemory.append_token"),
        ("repro.scheduling.vectorized", "VecPagedMemory.free"),
    ],
    "perf.price": [
        ("repro.perf.linear", "LinearModel.stage_time"),
        ("repro.perf.attention", "AttentionModel.work_time"),
        ("repro.perf.iteration", "ExecutionModel.stage_iteration_time"),
        ("repro.perf.iteration", "ExecutionModel.pipeline_send_time"),
    ],
    "metrics.summarize": [("repro.metrics.summary", "summarize")],
    "metrics.capacity": [("repro.metrics.capacity", "find_capacity")],
}

# Counted (no span) because they run inside a layer's self time and a
# span per call would swamp the measurement.
COUNTED = {"cluster.snapshot.calls": ("repro.cluster.fleet", "_ReplicaSlot.snapshot")}

ROOT = "op"


class Tracer:
    """Spans of the current traced op, plus counters at layer boundaries."""

    def __init__(self) -> None:
        self.layers: list[str] = [ROOT]
        self.counters: Counter[str] = Counter()
        # Cumulative perf-cache counters per execution model, keyed by
        # the model when a caller shares one across calls.
        self.cache_stats: dict[Any, Any] = {}
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []

    def reset(self) -> None:
        """Forget the previous op's spans and counters."""
        for column in (self.span_layer, self.span_parent, self.span_start, self.span_end):
            del column[:]
        self._stack.clear()
        self.counters.clear()
        self.cache_stats.clear()

    def layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def wrap(
        self,
        fn: Callable,
        layer: str,
        observe: Callable[[Any, tuple, dict], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call (and ``observe`` on return)."""
        lid = self.layer_id(layer)
        layers = self.span_layer.append
        parents = self.span_parent.append
        starts = self.span_start
        ends = self.span_end
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(starts)
            layers(lid)
            parents(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                starts[sid] = begin
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn: Callable, name: str) -> Callable:
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- derived per-layer numbers --------------------------------------
    def layer_totals(self, span_cost: float = 0.0) -> dict[str, tuple[int, float]]:
        """Layer -> (calls, self seconds) over the recorded spans.

        ``span_cost`` (see ``calibrate``) is taken off a parent's self
        time once per direct child, removing the wrappers' own cost.
        """
        layer, parent, start, end = self._columns()
        duration = end - start
        nested = parent >= 0
        size = len(duration)
        children = np.bincount(parent[nested], weights=duration[nested], minlength=size)
        num_children = np.bincount(parent[nested], minlength=size)
        self_time = duration - children - span_cost * num_children
        size = len(self.layers)
        calls = np.bincount(layer, minlength=size)
        seconds = np.bincount(layer, weights=self_time, minlength=size)
        return {
            name: (int(calls[i]), float(seconds[i]))
            for i, name in enumerate(self.layers)
        }

    def op_metrics(self, span_cost: float) -> dict[str, float]:
        """Every per-layer metric of the current op."""
        totals = self.layer_totals(span_cost)
        counters = self.counters
        out: dict[str, float] = {}
        for layer in LAYERS:
            calls, self_s = totals.get(layer, (0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        out["trace.unattributed_s"] = totals[ROOT][1]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        for name in ("cluster.snapshot.calls", "engine.events", "engine.batches",
                     "metrics.capacity.probes"):
            out[name] = counters[name]
        out["cluster.snapshots_per_route"] = ratio(
            counters["cluster.snapshot.calls"], out["cluster.route.calls"]
        )
        out["scheduling.schedule.empty_frac"] = ratio(
            counters["scheduling.schedule.empty"], out["scheduling.schedule.calls"]
        )
        out["memory.admit_refused_frac"] = ratio(
            counters["memory.admit_refused"], counters["memory.admit_attempts"]
        )
        out["perf.price.calls_per_batch"] = ratio(
            out["perf.price.calls"], counters["engine.batches"]
        )
        lookups = hits = 0
        for stats in self.cache_stats.values():
            lookups += stats.hits + stats.misses + stats.work_hits + stats.work_misses
            hits += stats.hits + stats.work_hits
        out["perf.cache.lookups"] = lookups
        out["perf.cache.hit_rate"] = ratio(hits, lookups)
        return out

    @staticmethod
    def calibrate(calls: int = 20_000, repeats: int = 5) -> float:
        """Host seconds one wrapped call adds to its caller's self time.

        Times a wrapped no-op and subtracts the span it records: what is
        left is the wrapper's bookkeeping outside the span.  Median of
        ``repeats``.
        """
        probe = Tracer()
        noop = probe.wrap(lambda: None, "calibration")
        samples = []
        for _ in range(repeats):
            probe.reset()
            begin = perf_counter()
            for _ in range(calls):
                noop()
            total = perf_counter() - begin
            _, _, start, end = probe._columns()
            samples.append((total - float((end - start).sum())) / calls)
        return float(np.median(samples))

    def save(self, path) -> None:
        """Write the recorded spans as an ``.npz`` of flat columns."""
        layer, parent, start, end = self._columns()
        np.savez(
            path, names=np.array(self.layers), layer=layer, parent=parent,
            start=start, end=end,
        )

    def _columns(self) -> tuple[np.ndarray, ...]:
        # Copies, so no numpy view pins the arrays' buffers and blocks
        # the next op from growing or clearing them.
        return (
            np.frombuffer(self.span_layer, dtype=np.int32).copy(),
            np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            np.frombuffer(self.span_start).copy(),
            np.frombuffer(self.span_end).copy(),
        )


class Patches:
    """Applied wrappers and how to undo them."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []
        self.missing: list[str] = []

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _resolve(module_name: str, path: str) -> tuple[Any, str] | None:
    """(owner, attribute) for ``module:path``, or None if it is gone."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return owner, attr


def _patch_function(patches: Patches, module: Any, attr: str, make: Callable) -> bool:
    original = getattr(module, attr, None)
    if not callable(original):
        return False
    wrapper = make(original)
    for holder in list(sys.modules.values()):
        if getattr(holder, attr, None) is original:
            setattr(holder, attr, wrapper)
            patches._undo.append(lambda h=holder: setattr(h, attr, original))
    return True


def _patch_method(patches: Patches, cls: type, attr: str, make: Callable) -> bool:
    """Wrap ``attr`` on ``cls`` and on every subclass that overrides it."""
    patched = False
    for klass in [cls, *_subclasses(cls)]:
        original = klass.__dict__.get(attr)
        if not callable(original) or getattr(original, "__isabstractmethod__", False):
            continue
        setattr(klass, attr, make(original))
        patches._undo.append(lambda k=klass, o=original: setattr(k, attr, o))
        patched = True
    return patched


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _patch_observer_slot(patches: Patches, cls: type, attr: str, make: Callable) -> bool:
    """Wrap whatever callable an engine gets installed as ``attr``.

    A property on the class intercepts the instance assignment, so the
    callback is wrapped whoever installs it; removing the property
    leaves the stored (wrapped) value readable as a plain attribute.
    """
    if attr in cls.__dict__:
        return False

    def get(engine):
        return engine.__dict__.get(attr)

    def set_(engine, fn):
        engine.__dict__[attr] = make(fn) if fn is not None else None

    setattr(cls, attr, property(get, set_))
    patches._undo.append(lambda: delattr(cls, attr))
    return True


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's public functions; see ``LAYERS``."""
    patches = Patches()
    observers = _observers(tracer)
    for layer, targets in LAYERS.items():
        for module_name, path in targets:

            def make(fn, layer=layer, observe=observers.get(path)):
                return tracer.wrap(fn, layer, observe)

            resolved = _resolve(module_name, path)
            ok = False
            if resolved is not None:
                owner, attr = resolved
                if layer == "engine.token_observer":
                    ok = _patch_observer_slot(patches, owner, attr, make)
                elif isinstance(owner, type):
                    ok = _patch_method(patches, owner, attr, make)
                else:
                    ok = _patch_function(patches, owner, attr, make)
            if not ok:
                patches.missing.append(f"{module_name}.{path}")
    for name, (module_name, path) in COUNTED.items():
        resolved = _resolve(module_name, path)
        owner, attr = resolved if resolved is not None else (None, "")
        if not (isinstance(owner, type) and _patch_method(
            patches, owner, attr, lambda fn, name=name: tracer.count(fn, name)
        )):
            patches.missing.append(f"{module_name}.{path}")
    return patches


def _observers(tracer: Tracer) -> dict[str, Callable[[Any, tuple, dict], None]]:
    counters = tracer.counters

    def schedule(batch, args, kwargs) -> None:
        if batch is None:
            counters["scheduling.schedule.empty"] += 1

    def admit(admitted, args, kwargs) -> None:
        counters["memory.admit_attempts"] += 1
        if not admitted:
            counters["memory.admit_refused"] += 1

    def fleet(result, args, kwargs) -> None:
        fleet_result = result[0]
        for replica in fleet_result.replica_results:
            stats = replica.engine_stats
            if stats is not None:
                counters["engine.events"] += stats.num_events
                counters["engine.batches"] += stats.num_batches
        if fleet_result.cache_stats is not None:
            model = kwargs.get("exec_model")
            key = id(model) if model is not None else ("call", len(tracer.cache_stats))
            tracer.cache_stats[key] = fleet_result.cache_stats

    def capacity(result, args, kwargs) -> None:
        counters["metrics.capacity.probes"] += result.num_probes

    return {
        "VecScheduler.schedule": schedule,
        "VecPagedMemory.try_admit": admit,
        "simulate_fleet": fleet,
        "find_capacity": capacity,
    }
