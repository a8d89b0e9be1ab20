"""The replica serving engine: scheduler + execution model + pipeline.

``ReplicaEngine`` simulates one model replica end to end.  The first
pipeline stage doubles as the scheduling point: whenever it is free
(and the in-flight micro-batch cap allows), the scheduler forms the
next batch, which then flows through the stages, paying per-stage
execution time plus inter-stage activation transfers.  Token progress
is committed when a batch leaves the *last* stage, exactly like a real
iteration-level serving system (§2.5, §3.3).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.batch import Batch
from repro.engine.simulator import EventQueue
from repro.metrics.timeline import IterationRecord
from repro.perf.iteration import ExecutionModel
from repro.scheduling.base import Scheduler
from repro.types import IterationTime, Request

if TYPE_CHECKING:
    from repro.memory.prefix import PrefixCacheStats
    from repro.perf.cache import CacheStats

_ARRIVAL = "arrival"
_STAGE_DONE = "stage_done"
_STAGE_ENQUEUE = "stage_enqueue"

# Called once per finished request; returns follow-up requests to
# inject (e.g. the next round of a conversation).
FollowupFn = Callable[[Request, float], list[Request]]

# Called once per committed iteration that emitted decode tokens, with
# that batch's TBT samples in batch order; lets an external driver (the
# fleet simulator) observe live per-replica TBT without re-scanning
# request state.
TokenObserver = Callable[[list[float]], None]


@dataclass(frozen=True)
class EngineStats:
    """How the engine itself performed (not the simulated system)."""

    kind: str
    num_events: int
    num_batches: int
    # Host seconds: ``run()`` time, or the fleet driver's loop time on
    # a merged fleet result.  Never part of equality — it is not output.
    wall_time_s: float = field(compare=False)

    @property
    def events_per_batch(self) -> float:
        if self.num_batches == 0:
            return 0.0
        return self.num_events / self.num_batches


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    requests: list[Request]
    records: list[IterationRecord]
    makespan: float
    num_stages: int
    num_preemptions: int = 0
    unfinished: list[Request] = field(default_factory=list)
    # Snapshot of the execution-model cache counters at the end of the
    # run (None when the engine ran on an uncached model).  A model
    # shared across runs (e.g. one capacity search) accumulates, so
    # per-run deltas require differencing consecutive snapshots.
    cache_stats: "CacheStats | None" = None
    # Filled by ``run()``; None for results assembled elsewhere (fleet
    # crash snapshots, merged fleet results).  Excluded from the
    # differential golden comparison alongside cache_stats — it
    # describes the engine, not the simulated system.
    engine_stats: "EngineStats | None" = None
    # Prefix-cache counters from the scheduler's memory manager (None
    # when prefix caching is off or the allocator is reservation-style).
    # Excluded from the differential golden comparison only in the
    # sense that both engines must produce *equal* stats — the
    # conversation differential test asserts exactly that.
    prefix_stats: "PrefixCacheStats | None" = None

    @property
    def finished_requests(self) -> list[Request]:
        return [r for r in self.requests if r.is_finished]


class _Stage:
    """One pipeline stage: either executing a batch or queueing them."""

    __slots__ = ("busy", "queue")

    def __init__(self) -> None:
        self.busy = False
        self.queue: list[Batch] = []


class ReplicaEngine:
    """Discrete-event simulation of one serving replica."""

    # The golden-reference core; the vectorized engine reports
    # kind="vectorized" and must match this one bit-for-bit.
    kind = "object"

    # Effective host<->device copy bandwidth for KV swap traffic
    # (PCIe-4.0 x16 class, overlap-corrected).
    DEFAULT_SWAP_BANDWIDTH = 20e9

    def __init__(
        self,
        exec_model: ExecutionModel,
        scheduler: Scheduler,
        max_inflight_batches: int | None = None,
        swap_bandwidth: float = DEFAULT_SWAP_BANDWIDTH,
    ) -> None:
        if swap_bandwidth <= 0:
            raise ValueError("swap_bandwidth must be positive")
        self.exec_model = exec_model
        self.scheduler = scheduler
        self.swap_bandwidth = swap_bandwidth
        self.num_stages = exec_model.parallel.pipeline_parallel
        # Classic micro-batch pipelining: at most one micro-batch per
        # stage in flight, keeping the pipe full without runaway queues.
        self.max_inflight = (
            max_inflight_batches if max_inflight_batches is not None else self.num_stages
        )
        if self.max_inflight < 1:
            raise ValueError("max_inflight_batches must be >= 1")

        self._events = EventQueue()
        self._stages = [_Stage() for _ in range(self.num_stages)]
        self._inflight = 0
        self._records: list[IterationRecord] = []
        self._followup_fn: FollowupFn | None = None
        self._all_requests: list[Request] = []
        self.token_observer: TokenObserver | None = None
        self._num_events = 0
        self._wall_time_s = 0.0
        # Multiplier on every iteration's wall time — 1.0 is nominal;
        # the fleet raises it to model straggler/throttled replicas.
        self.perf_scale = 1.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        requests: list[Request],
        max_time: float | None = None,
        followup_fn: "FollowupFn | None" = None,
    ) -> SimulationResult:
        """Simulate until all requests finish (or ``max_time`` elapses).

        ``followup_fn(request, now)`` is called once per finished
        request and may return new requests to inject (their
        ``arrival_time`` must be ≥ ``now``) — this is how closed-loop
        workloads such as multi-round conversations are driven.
        """
        if not requests:
            raise ValueError("run() needs at least one request")
        wall_start = time.perf_counter()
        self._followup_fn = followup_fn
        self._all_requests = list(requests)
        for request in requests:
            self._events.push(request.arrival_time, _ARRIVAL, request)

        now = 0.0
        while self._events:
            now, kind, payload = self._events.pop()
            if max_time is not None and now > max_time:
                break
            self._num_events += 1
            self._dispatch(kind, payload, now)
        self._wall_time_s += time.perf_counter() - wall_start

        unfinished = [r for r in self._all_requests if not r.is_finished]
        if unfinished and max_time is None:
            raise RuntimeError(
                f"simulation drained its event queue with {len(unfinished)} "
                "unfinished requests — scheduler/memory deadlock "
                f"(first stuck: request {unfinished[0].request_id})"
            )
        return self.result(makespan=float(now))

    # ------------------------------------------------------------------
    # Stepped interface (driven by the fleet simulator)
    # ------------------------------------------------------------------
    # ``run`` owns the event loop for a standalone replica.  A fleet
    # driver instead *steps* each replica through a shared virtual
    # clock: it delivers routed arrivals with ``deliver`` and pops one
    # internal event at a time with ``step``, interleaving replicas in
    # global time order.  Delivering an arrival at time t after all
    # internal events strictly before t — and before those at exactly
    # t — reproduces ``run``'s pop order bit for bit, because ``run``
    # pushes every arrival before any stage event, so arrivals win the
    # queue's insertion-order tie-break.

    def deliver(self, request: Request, now: float) -> None:
        """Inject an arriving request at time ``now`` (stepped mode)."""
        self._all_requests.append(request)
        self.scheduler.add_request(request, now)
        self._try_schedule(now)

    def kick(self, now: float) -> None:
        """Re-attempt scheduling after an external state change.

        A replica can stall with waiting work but no internal events
        when admission is blocked (e.g. a capacity_loss fault shrank
        the KV pool); restoring the blocker must nudge the scheduler —
        arrivals are the only other trigger.
        """
        self._try_schedule(now)

    def next_event_time(self) -> float | None:
        """Timestamp of the next internal event, or ``None`` if idle."""
        return self._events.peek_time()

    def step(self) -> float:
        """Pop and process exactly one internal event; returns its time."""
        now, kind, payload = self._events.pop()
        self._num_events += 1
        self._dispatch(kind, payload, now)
        return now

    def pending_requests(self) -> list[Request]:
        """Delivered requests that have not finished (any phase)."""
        return [r for r in self._all_requests if not r.is_finished]

    # Live workload gauges for the fleet router.  The object engine
    # recomputes them by scanning; the vectorized engine keeps them as
    # counters — both must return the same integers for a given state.
    def num_pending(self) -> int:
        """Number of delivered-but-unfinished requests."""
        return sum(1 for r in self._all_requests if not r.is_finished)

    def outstanding_tokens(self) -> int:
        """Prefill+decode tokens still owed across pending requests."""
        return sum(
            r.remaining_prefill + r.remaining_output
            for r in self._all_requests
            if not r.is_finished
        )

    @property
    def records(self) -> list[IterationRecord]:
        return self._records

    @property
    def all_requests(self) -> list[Request]:
        return self._all_requests

    def engine_stats(self) -> EngineStats:
        """Counters so far — valid mid-run (the fleet polls these)."""
        return EngineStats(
            kind=self.kind,
            num_events=self._num_events,
            num_batches=self.scheduler.num_scheduled_batches,
            wall_time_s=self._wall_time_s,
        )

    def result(self, makespan: float) -> SimulationResult:
        """Snapshot of this engine's state as a ``SimulationResult``."""
        return SimulationResult(
            requests=list(self._all_requests),
            records=self._records,
            makespan=makespan,
            num_stages=self.num_stages,
            num_preemptions=self.scheduler.num_preemptions,
            unfinished=[r for r in self._all_requests if not r.is_finished],
            cache_stats=getattr(self.exec_model, "cache_stats", None),
            engine_stats=self.engine_stats(),
            prefix_stats=getattr(self.scheduler.memory, "prefix_stats", None),
        )

    def _dispatch(self, kind: str, payload: object, now: float) -> None:
        if kind == _ARRIVAL:
            self.scheduler.add_request(payload, now)
            self._try_schedule(now)
        elif kind == _STAGE_DONE:
            self._on_stage_done(*payload, now=now)
        elif kind == _STAGE_ENQUEUE:
            self._on_stage_enqueue(*payload, now=now)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown event kind {kind!r}")

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _try_schedule(self, now: float) -> None:
        stage0 = self._stages[0]
        while not stage0.busy and self._inflight < self.max_inflight:
            batch = self.scheduler.schedule(now)
            if batch is None:
                return
            self._inflight += 1
            self._start_stage(0, batch, now)

    def _start_stage(self, stage_idx: int, batch: Batch, now: float) -> None:
        stage = self._stages[stage_idx]
        stage.busy = True
        breakdown = self.exec_model.stage_iteration_time(
            batch.works,
            is_first_stage=stage_idx == 0,
            is_last_stage=stage_idx == self.num_stages - 1,
        )
        if stage_idx == 0 and batch.swap_bytes:
            swap_time = batch.swap_bytes / self.swap_bandwidth
            breakdown = breakdown + IterationTime(0.0, 0.0, 0.0, swap_time, 0.0)
        if self.perf_scale != 1.0:
            breakdown = breakdown.scaled(self.perf_scale)
        end = now + breakdown.total
        self._records.append(
            IterationRecord(
                stage=stage_idx,
                start=now,
                end=end,
                batch_id=batch.batch_id,
                num_prefill_tokens=batch.num_prefill_tokens,
                num_decode_tokens=batch.num_decode_tokens,
                num_prefill_seqs=batch.num_prefill_seqs,
                num_decode_seqs=batch.num_decode_seqs,
                breakdown=breakdown,
            )
        )
        self._events.push(end, _STAGE_DONE, (stage_idx, batch))

    def _on_stage_done(self, stage_idx: int, batch: Batch, now: float) -> None:
        stage = self._stages[stage_idx]
        stage.busy = False

        if stage_idx < self.num_stages - 1:
            send = self.exec_model.pipeline_send_time(batch.works)
            self._events.push(now + send, _STAGE_ENQUEUE, (stage_idx + 1, batch))
        else:
            self._inflight -= 1
            finished = self.scheduler.on_batch_complete(batch, now)
            if self.token_observer is not None:
                # A token emitted by *this* batch carries timestamp
                # ``now``; the gap to its predecessor is one TBT sample
                # (the first token has no predecessor).
                tbts = []
                for item in batch.items:
                    times = item.request.token_times
                    if len(times) >= 2 and times[-1] == now:
                        tbts.append(now - times[-2])
                if tbts:
                    self.token_observer(tbts)
            if self._followup_fn is not None:
                for request in finished:
                    for followup in self._followup_fn(request, now):
                        if followup.arrival_time < now - 1e-9:
                            raise ValueError(
                                "followup_fn returned a request arriving in "
                                f"the past ({followup.arrival_time} < {now})"
                            )
                        self._all_requests.append(followup)
                        self._events.push(followup.arrival_time, _ARRIVAL, followup)

        # The freed stage pulls its next queued micro-batch, and a free
        # first stage asks the scheduler for fresh work.
        if stage.queue:
            self._start_stage(stage_idx, stage.queue.pop(0), now)
        self._try_schedule(now)

    def _on_stage_enqueue(self, stage_idx: int, batch: Batch, now: float) -> None:
        stage = self._stages[stage_idx]
        if stage.busy:
            stage.queue.append(batch)
        else:
            self._start_stage(stage_idx, batch, now)
