"""Memoized execution model: exact-key caching of iteration pricing.

Capacity searches, SLO sweeps and the Table-4 ablations evaluate
thousands of near-identical batch compositions per run, and the
analytical roofline model re-derives every one of them from scratch.
``CachedExecutionModel`` wraps an :class:`ExecutionModel` with two
memoization tiers, both keyed on values that fully determine the
result (the wrapped model's constants are immutable per run, so
entries never need invalidating):

* **batch tier** — the canonical batch signature (every work's token
  count, KV-context length, phase and ``emits_token`` flag, plus the
  first/last-stage flags) maps straight to the finished
  :class:`IterationTime`;
* **component tier** — on a batch-tier miss, the per-work attention
  time, the linear time (a function of total/logit token counts only)
  and the "others"/TP-communication times (functions of the total
  token count only) are memoized individually.  Real workloads repeat
  component keys far more often than whole batch compositions (decode
  contexts recur across requests and probes), so even cold batches are
  mostly assembled from warm parts.

Results are **bit-identical** to the uncached model: cache hits replay
previously computed floats, and misses recompute each component with
the same calls in the same summation order the uncached path uses.

Both tiers are FIFO-bounded so long multitenant runs cannot grow the
cache without limit; hit/miss/eviction counters are exposed as
:class:`CacheStats` and surfaced through ``repro.telemetry``.
"""

from __future__ import annotations

import enum
import hashlib
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

from repro.hardware.gpu import GPUSpec
from repro.models.config import ModelConfig
from repro.parallel.comm import pp_send_time, tp_comm_time
from repro.parallel.config import ParallelConfig
from repro.perf.calibration import Calibration
from repro.perf.iteration import ExecutionModel
from repro.types import IterationTime, TokenWork, ZERO_TIME

# Roomy enough that a full capacity search never evicts (a smoke sweep
# produces ~30k distinct batch signatures), small enough that a day-long
# multitenant run stays bounded.
DEFAULT_MAX_ENTRIES = 1 << 17

BatchSignature = tuple[bool, bool, tuple[tuple[int, int, bool, bool], ...]]

# Bump when the cache key/value layout changes: snapshots carry the
# version, and loaders reject mismatching ones instead of replaying
# entries computed under different semantics.
SNAPSHOT_VERSION = 1


def execution_fingerprint(
    model: ModelConfig,
    gpu: GPUSpec,
    parallel: ParallelConfig,
    calibration: Calibration,
) -> str:
    """Stable hash of everything that determines cached values.

    Two execution models with equal fingerprints produce bit-identical
    pricing, so their cache entries are interchangeable — across
    processes, runs and machines.  The hash covers every field of the
    four configuration dataclasses (recursively, so link specs and
    enum members are included) plus the snapshot schema version.
    """

    def canonical(value):
        if isinstance(value, enum.Enum):
            return value.value
        raise TypeError(f"unhashable config field {value!r}")

    payload = {
        "snapshot_version": SNAPSHOT_VERSION,
        "model": asdict(model),
        "gpu": asdict(gpu),
        "parallel": asdict(parallel),
        "calibration": asdict(calibration),
    }
    blob = json.dumps(payload, sort_keys=True, default=canonical)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


@dataclass
class CacheSnapshot:
    """A serializable copy of one :class:`CachedExecutionModel`'s tiers.

    Snapshots are what the persistent disk cache stores and what worker
    processes exchange: plain dicts of hashable keys to floats (or
    :class:`IterationTime` tuples), tagged with the owning model's
    fingerprint so entries are never replayed under a different
    configuration.
    """

    fingerprint: str
    version: int = SNAPSHOT_VERSION
    batch: dict[BatchSignature, IterationTime] = field(default_factory=dict)
    work: dict[tuple[int, int, bool], float] = field(default_factory=dict)
    linear: dict[tuple[int, int], float] = field(default_factory=dict)
    token: dict[int, tuple[float, float]] = field(default_factory=dict)
    send: dict[int, float] = field(default_factory=dict)

    @property
    def num_entries(self) -> int:
        return (
            len(self.batch)
            + len(self.work)
            + len(self.linear)
            + len(self.token)
            + len(self.send)
        )

    def merge(self, other: "CacheSnapshot") -> int:
        """Union ``other``'s entries into this snapshot.

        Both snapshots must share a fingerprint, which guarantees any
        overlapping keys hold bit-identical values — so merge order
        cannot change the result.  Returns the number of new entries.
        """
        if other.fingerprint != self.fingerprint:
            raise ValueError(
                f"cannot merge snapshot {other.fingerprint} into "
                f"{self.fingerprint}: fingerprints differ"
            )
        if other.version != self.version:
            raise ValueError(
                f"cannot merge snapshot version {other.version} into "
                f"version {self.version}"
            )
        before = self.num_entries
        self.batch.update(other.batch)
        self.work.update(other.work)
        self.linear.update(other.linear)
        self.token.update(other.token)
        self.send.update(other.send)
        return self.num_entries - before


def batch_signature(
    works: Sequence[TokenWork],
    is_first_stage: bool = True,
    is_last_stage: bool = True,
) -> BatchSignature:
    """The canonical, order-preserving key of one stage iteration.

    Work order is part of the key: the uncached model sums per-work
    attention times in batch order, and float addition is not
    associative, so collapsing permuted batches onto one entry could
    break bit-identity.
    """
    return (
        is_first_stage,
        is_last_stage,
        tuple((w.num_tokens, w.past_len, w.is_prefill, w.emits_token) for w in works),
    )


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one :class:`CachedExecutionModel`.

    ``hits``/``misses``/``evictions``/``size`` describe the batch tier;
    ``work_hits``/``work_misses`` describe the per-work attention tier,
    where most of the wall-clock savings come from, and
    ``component_evictions`` counts evictions from *any* component tier
    (work/linear/token/send) — kept separate so batch-tier telemetry
    stays truthful.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_entries: int = DEFAULT_MAX_ENTRIES
    work_hits: int = 0
    work_misses: int = 0
    component_evictions: int = 0

    @property
    def lookups(self) -> int:
        """Lookups on either tier; 0 means the model was never consulted."""
        return self.hits + self.misses + self.work_hits + self.work_misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def work_hit_rate(self) -> float:
        total = self.work_hits + self.work_misses
        return self.work_hits / total if total else 0.0

    def as_row(self) -> dict[str, int | float]:
        """Flat counters for telemetry tables (see ``run_counters``)."""
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "cache_component_evictions": self.component_evictions,
            "cache_size": self.size,
            "cache_hit_rate": self.hit_rate,
            "cache_work_hits": self.work_hits,
            "cache_work_misses": self.work_misses,
            "cache_work_hit_rate": self.work_hit_rate,
        }


class CachedExecutionModel(ExecutionModel):
    """Drop-in :class:`ExecutionModel` with exact-key memoization.

    Construct it around an existing model::

        cached = CachedExecutionModel(deployment.execution_model())

    Everything the base class offers (derived helpers, the attributes
    engines and schedulers read) keeps working and routes through the
    cache.  One instance may be shared across every simulation of a
    capacity search — the model's inputs are immutable per run, so
    warm entries stay valid across probes and counters accumulate over
    the model's lifetime.
    """

    def __init__(
        self, inner: ExecutionModel, max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        super().__init__(inner.model, inner.gpu, inner.parallel, inner.calibration)
        self.max_entries = max_entries
        self._batch_cache: dict[BatchSignature, IterationTime] = {}
        self._work_cache: dict[tuple[int, int, bool], float] = {}
        self._linear_cache: dict[tuple[int, int], float] = {}
        # num_tokens -> (others_time, tp_comm_time) and -> pp send time.
        self._token_cache: dict[int, tuple[float, float]] = {}
        self._send_cache: dict[int, float] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._component_evictions = 0
        self._work_hits = 0
        self._work_misses = 0

    # ------------------------------------------------------------------
    # Cached core interface
    # ------------------------------------------------------------------
    def stage_iteration_time(
        self,
        works: Sequence[TokenWork],
        is_first_stage: bool = True,
        is_last_stage: bool = True,
    ) -> IterationTime:
        if not works:
            return ZERO_TIME
        key = batch_signature(works, is_first_stage, is_last_stage)
        cached = self._batch_cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        result = self._assemble(works, is_first_stage, is_last_stage)
        batch_cache = self._batch_cache
        if len(batch_cache) >= self.max_entries:
            # FIFO eviction: dicts iterate in insertion order, so the
            # oldest signature goes first.  O(1), no per-hit bookkeeping.
            batch_cache.pop(next(iter(batch_cache)))
            self._evictions += 1
        batch_cache[key] = result
        return result

    def pipeline_send_time(self, works: Sequence[TokenWork]) -> float:
        num_tokens = sum(w.num_tokens for w in works)
        send = self._send_cache.get(num_tokens)
        if send is None:
            send = pp_send_time(self.model, self.parallel, num_tokens)
            self._bounded_put(self._send_cache, num_tokens, send)
        return send

    # ------------------------------------------------------------------
    # Introspection & maintenance
    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        """An immutable snapshot of the cumulative counters."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._batch_cache),
            max_entries=self.max_entries,
            work_hits=self._work_hits,
            work_misses=self._work_misses,
            component_evictions=self._component_evictions,
        )

    @property
    def fingerprint(self) -> str:
        """The configuration hash keying this model's persistent cache."""
        return execution_fingerprint(
            self.model, self.gpu, self.parallel, self.calibration
        )

    @property
    def num_entries(self) -> int:
        """Total entries across every tier (cheap: no snapshot copy)."""
        return (
            len(self._batch_cache)
            + len(self._work_cache)
            + len(self._linear_cache)
            + len(self._token_cache)
            + len(self._send_cache)
        )

    def export_snapshot(self) -> CacheSnapshot:
        """Copy every tier into a serializable :class:`CacheSnapshot`."""
        return CacheSnapshot(
            fingerprint=self.fingerprint,
            batch=dict(self._batch_cache),
            work=dict(self._work_cache),
            linear=dict(self._linear_cache),
            token=dict(self._token_cache),
            send=dict(self._send_cache),
        )

    def load_snapshot(self, snapshot: CacheSnapshot) -> int:
        """Pre-warm the tiers from a snapshot; returns entries added.

        Existing in-memory entries win (they are bit-identical anyway,
        since the fingerprint pins every input of the computation);
        loading never touches the hit/miss counters, so stats keep
        describing this process's own lookups.  Each tier respects
        ``max_entries``: excess snapshot entries are dropped, not
        evicted through the FIFO (no eviction counters move).
        """
        if snapshot.fingerprint != self.fingerprint:
            raise ValueError(
                f"snapshot fingerprint {snapshot.fingerprint} does not match "
                f"model fingerprint {self.fingerprint}"
            )
        if snapshot.version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {snapshot.version} unsupported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        added = 0
        for cache, entries in (
            (self._batch_cache, snapshot.batch),
            (self._work_cache, snapshot.work),
            (self._linear_cache, snapshot.linear),
            (self._token_cache, snapshot.token),
            (self._send_cache, snapshot.send),
        ):
            for key, value in entries.items():
                if len(cache) >= self.max_entries:
                    break
                if key not in cache:
                    cache[key] = value
                    added += 1
        return added

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        self._batch_cache.clear()
        self._work_cache.clear()
        self._linear_cache.clear()
        self._token_cache.clear()
        self._send_cache.clear()
        self._hits = self._misses = self._evictions = 0
        self._component_evictions = 0
        self._work_hits = self._work_misses = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _assemble(
        self, works: Sequence[TokenWork], is_first_stage: bool, is_last_stage: bool
    ) -> IterationTime:
        """Recompute one iteration from (mostly warm) component parts.

        Mirrors ``ExecutionModel.stage_iteration_time`` call for call;
        every component value is exactly the float the uncached path
        would produce, summed in the same order.
        """
        num_tokens = sum(w.num_tokens for w in works)
        num_logit_tokens = sum(1 for w in works if w.emits_token)

        linear_key = (num_tokens, num_logit_tokens if is_last_stage else 0)
        linear = self._linear_cache.get(linear_key)
        if linear is None:
            linear = self.linear.stage_time(*linear_key)
            self._bounded_put(self._linear_cache, linear_key, linear)

        work_cache = self._work_cache
        attention = 0
        for w in works:
            work_key = (w.num_tokens, w.past_len, w.is_prefill)
            work_time = work_cache.get(work_key)
            if work_time is None:
                self._work_misses += 1
                work_time = self.attention.work_time(w)
                self._bounded_put(work_cache, work_key, work_time)
            else:
                self._work_hits += 1
            attention = attention + work_time

        token_costs = self._token_cache.get(num_tokens)
        if token_costs is None:
            token_costs = (
                self._others_time(num_tokens),
                tp_comm_time(self.model, self.parallel, num_tokens, self.stage_layers),
            )
            self._bounded_put(self._token_cache, num_tokens, token_costs)
        others, comm = token_costs

        overhead = self._fixed_overhead(is_first_stage)
        return IterationTime(linear, attention, others, comm, overhead)

    def _bounded_put(self, cache: dict, key, value) -> None:
        # Component tiers only — the batch tier has its own inline FIFO
        # and its own eviction counter in ``stage_iteration_time``.
        if len(cache) >= self.max_entries:
            cache.pop(next(iter(cache)))
            self._component_evictions += 1
        cache[key] = value
