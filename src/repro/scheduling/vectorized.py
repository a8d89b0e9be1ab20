"""Array-backed scheduler cores for the vectorized engine.

Each core is a faithful port of its object-scheduler counterpart
(``repro.scheduling.*`` / ``repro.core.sarathi``) operating on row
indices into a :class:`repro.engine.arrays.RequestArrays` instead of
``Request`` objects.  Faithful means *operation for operation*: pool
ordering, FCFS tie-breaks, preemption victim choice, chunking
arithmetic and memory-watermark checks all replicate the object code
path exactly, so the two engines produce bit-identical schedules.  The
differential suite (``tests/differential``) is the enforcement
mechanism; the object engine remains the golden reference.

The speed comes from the composition fast path: the dominant iteration
shape — a block of decodes with no memory pressure — is assembled with
a handful of numpy operations instead of per-request object traffic.
Any iteration that could preempt, swap or otherwise interleave falls
back to an exact scalar port of the object control flow.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.batch import _batch_ids
from repro.engine.arrays import (
    PH_DECODE,
    PH_FINISHED,
    PH_PREEMPTED,
    PH_PREFILL,
    PH_QUEUED,
    RequestArrays,
)
from repro.memory.prefix import PrefixCacheStats, SharedPrefixStore
from repro.scheduling.base import DEFAULT_MAX_BATCH_SIZE
from repro.scheduling.base import Scheduler as _ObjectScheduler
from repro.scheduling.policy import MemoryView, PoolView, SchedulingPolicy
from repro.types import IterationTime, PreemptionMode

__all__ = [
    "VecBatch",
    "VecPagedMemory",
    "VecReservationMemory",
    "VecSarathiScheduler",
    "VecDynamicSarathiScheduler",
    "VecVLLMScheduler",
    "VecOrcaScheduler",
    "VecFasterTransformerScheduler",
    "VecChunkedPrefillsOnlyScheduler",
    "VecPolicyScheduler",
    "RequestRowView",
]

_EMPTY_ROWS = np.empty(0, dtype=np.int64)


class VecBatch:
    """One iteration's work as row arrays plus per-item prefill lists.

    Batch item order is the decode block (row order set by the policy)
    followed by the prefill items — every built-in policy composes
    batches in that shape, and pricing/commit preserve it so attention
    summation order matches the object engine's float-for-float.  A
    plug-in policy may interleave the two; its batch then carries
    ``order``, the item order as indices into decodes-then-prefills,
    and pricing and commit follow it instead.
    """

    __slots__ = (
        "batch_id",
        "swap_bytes",
        "decode_rows",
        "decode_ctx",
        "p_rows",
        "p_chunk",
        "p_past",
        "p_is_last",
        "p_rows_arr",
        "num_tokens",
        "num_logit_tokens",
        "num_prefill_tokens",
        "num_decode_tokens",
        "num_prefill_seqs",
        "num_decode_seqs",
        "order",
    )

    def __init__(
        self,
        decode_rows: np.ndarray,
        decode_ctx: np.ndarray,
        p_rows: list[int],
        p_chunk: list[int],
        p_past: list[int],
        p_is_last: list[bool],
        order: list[int] | None = None,
    ) -> None:
        self.batch_id = next(_batch_ids)
        self.order = order
        self.swap_bytes = 0
        self.decode_rows = decode_rows
        self.decode_ctx = decode_ctx
        self.p_rows = p_rows
        self.p_chunk = p_chunk
        self.p_past = p_past
        self.p_is_last = p_is_last
        self.p_rows_arr = (
            np.array(p_rows, dtype=np.int64) if p_rows else _EMPTY_ROWS
        )
        num_decode = len(decode_rows)
        num_prefill_tokens = sum(p_chunk)
        self.num_decode_seqs = num_decode
        self.num_decode_tokens = num_decode
        self.num_prefill_seqs = len(p_rows)
        self.num_prefill_tokens = num_prefill_tokens
        self.num_tokens = num_decode + num_prefill_tokens
        # Decodes always emit; a prefill item prices a logit exactly
        # when it is the prompt's final chunk (TokenWork.emits_token).
        self.num_logit_tokens = num_decode + sum(p_is_last)

    @property
    def size(self) -> int:
        return len(self.decode_rows) + len(self.p_rows)

    def items(self) -> list[tuple[int, bool, int]]:
        """``(row, is_prefill, num_tokens)`` per item, in item order."""
        items = [(row, False, 1) for row in self.decode_rows.tolist()]
        items.extend(zip(self.p_rows, [True] * len(self.p_rows), self.p_chunk))
        if self.order is None:
            return items
        return [items[i] for i in self.order]


# ----------------------------------------------------------------------
# Memory managers over rows
# ----------------------------------------------------------------------
class VecPagedMemory:
    """Row-indexed port of :class:`repro.memory.block_manager.PagedBlockManager`.

    The prefix-cache extension mirrors the object allocator operation
    for operation: lookups fire only for fresh rows, claimed shared
    blocks shift ``prefill_done`` past the cached span, and retained
    refcount-0 entries are evicted LRU-first when admissions or decode
    appends need their blocks.  Both engines drive the same
    deterministic :class:`SharedPrefixStore` logic, so stores evolve
    bit-identically under the differential contract.
    """

    def __init__(
        self,
        arrays: RequestArrays,
        capacity_tokens: int,
        block_size: int,
        watermark: float = 0.01,
        prefix_store: SharedPrefixStore | None = None,
    ) -> None:
        if capacity_tokens <= 0:
            raise ValueError("capacity_tokens must be positive")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if not 0.0 <= watermark < 1.0:
            raise ValueError("watermark must be in [0, 1)")
        if prefix_store is not None and prefix_store.block_size != block_size:
            raise ValueError(
                f"prefix store block_size {prefix_store.block_size} != "
                f"allocator block_size {block_size}"
            )
        self.A = arrays
        self.block_size = block_size
        self.num_blocks = capacity_tokens // block_size
        self._watermark_blocks = int(self.num_blocks * watermark)
        self.free_blocks = self.num_blocks
        self._held = np.zeros(0, dtype=np.int64)
        self._store = prefix_store
        # Shared blocks each row claimed at admission (parallel to
        # ``_held``, so the bulk-decode fast path stays vectorized).
        self._shared = np.zeros(0, dtype=np.int64)
        self._claim_prefix: dict[int, int] = {}  # row -> claimed prefix id

    def _held_arr(self) -> np.ndarray:
        if self._held.size < self.A.n:
            grown = np.zeros(max(self.A.n, self._held.size * 2, 1024), dtype=np.int64)
            grown[: self._held.size] = self._held
            self._held = grown
        return self._held

    def _shared_arr(self) -> np.ndarray:
        if self._shared.size < self.A.n:
            grown = np.zeros(max(self.A.n, self._shared.size * 2, 1024), dtype=np.int64)
            grown[: self._shared.size] = self._shared
            self._shared = grown
        return self._shared

    def blocks_for(self, num_tokens: int) -> int:
        return (num_tokens + self.block_size - 1) // self.block_size

    def _initial_blocks(self, row: int) -> int:
        A = self.A
        context = int(A.prefill_done[row] + A.decode_steps[row])
        return self.blocks_for(max(int(A.prefill_target[row]), context))

    # -- prefix-cache plumbing ----------------------------------------
    def _lookup_eligible(self, row: int) -> bool:
        A = self.A
        return (
            self._store is not None
            and A.prefix_id[row] >= 0
            and A.prefill_done[row] == 0
            and A.decode_steps[row] == 0
        )

    def _cached_tokens(self, row: int) -> int:
        if not self._lookup_eligible(row):
            return 0
        A = self.A
        return self._store.usable_tokens(
            int(A.prefix_id[row]),
            int(A.prefix_len[row]),
            int(A.prefill_target[row]),
        )

    def _exclude_id(self, row: int) -> int | None:
        if not self._lookup_eligible(row):
            return None
        return int(self.A.prefix_id[row])

    def _evictable(self, exclude: int | None = None) -> int:
        if self._store is None:
            return 0
        return self._store.evictable_blocks(exclude=exclude)

    @property
    def prefix_stats(self) -> PrefixCacheStats | None:
        return self._store.stats if self._store is not None else None

    @property
    def shared_block_count(self) -> int:
        return self._store.shared_blocks if self._store is not None else 0

    # -- allocator operations -----------------------------------------
    def can_admit(self, row: int) -> bool:
        needed = self._initial_blocks(row) - self._cached_tokens(row) // self.block_size
        evictable = self._evictable(exclude=self._exclude_id(row))
        return self.free_blocks + evictable - needed >= self._watermark_blocks

    def _claim_and_reserve(self, row: int, needed_gate: bool) -> bool:
        """Shared admit body: claim the prefix, evict, reserve blocks.

        ``needed_gate`` selects the watermark check (try_admit) versus
        the raise-on-failure contract (admit).  Returns False only in
        gate mode.
        """
        A = self.A
        cached = 0
        if self._lookup_eligible(row):
            cached = self._cached_tokens(row)
        needed = self._initial_blocks(row) - cached // self.block_size
        if needed_gate:
            evictable = self._evictable(exclude=self._exclude_id(row))
            if self.free_blocks + evictable - needed < self._watermark_blocks:
                return False
        if self._lookup_eligible(row):
            claimed = self._store.claim(
                int(A.prefix_id[row]),
                int(A.prefix_len[row]),
                int(A.prefill_target[row]),
                owner=row,
            )
            assert claimed == cached
        if needed > self.free_blocks and self._store is not None:
            self.free_blocks += self._store.evict_for(
                needed - self.free_blocks,
                exclude=int(A.prefix_id[row]) if A.prefix_id[row] >= 0 else None,
            )
        if needed > self.free_blocks:
            if cached:
                self._store.release(int(A.prefix_id[row]), owner=row)
            raise MemoryError(
                f"cannot admit row {row}: needs {needed} blocks, "
                f"{self.free_blocks} free"
            )
        self.free_blocks -= needed
        self._held_arr()[row] = needed
        if cached:
            self._shared_arr()[row] = cached // self.block_size
            self._claim_prefix[row] = int(A.prefix_id[row])
            A.prefill_done[row] = cached
        return True

    def admit(self, row: int) -> None:
        self._claim_and_reserve(row, needed_gate=False)

    def try_admit(self, row: int) -> bool:
        """can_admit + admit fused (one lookup, one eviction scan)."""
        return self._claim_and_reserve(row, needed_gate=True)

    def _needs_new_block(self, row: int) -> bool:
        A = self.A
        held_tokens = int(
            self._held_arr()[row] + self._shared_arr()[row]
        ) * self.block_size
        return int(A.prefill_done[row] + A.decode_steps[row]) + 1 > held_tokens

    def can_append_token(self, row: int) -> bool:
        if self._held_arr()[row] == 0:
            raise ValueError(f"row {row} holds no allocation")
        if not self._needs_new_block(row):
            return True
        # Shortfall form so a capacity_loss deficit (negative free) is
        # paid down before the append, not papered over.
        return self.free_blocks + self._evictable() >= 1

    def append_token(self, row: int) -> None:
        if self._held_arr()[row] == 0:
            raise ValueError(f"row {row} holds no allocation")
        if not self._needs_new_block(row):
            return
        if self.free_blocks < 1 and self._store is not None:
            self.free_blocks += self._store.evict_for(1 - self.free_blocks)
        if self.free_blocks < 1:
            raise MemoryError("out of KV blocks")
        self.free_blocks -= 1
        self._held_arr()[row] += 1

    def free(self, row: int) -> None:
        held = self._held_arr()
        h = int(held[row])
        if h == 0:
            return  # freeing a row that holds nothing is a no-op
        self.free_blocks += h
        held[row] = 0
        if self._store is None:
            return
        shared = self._shared_arr()
        if shared[row]:
            self._store.release(self._claim_prefix.pop(row), owner=row)
            shared[row] = 0
        A = self.A
        if A.phase[row] == PH_FINISHED and A.prefix_id[row] >= 0:
            context = int(A.prefill_done[row] + A.decode_steps[row])
            cap = int(A.prefix_publish_len[row])
            publish = context if cap < 0 else min(cap, context)
            absorbed = self._store.register(
                int(A.prefix_id[row]), int(A.prefix_len[row]), publish
            )
            self.free_blocks -= absorbed

    def try_bulk_decode(self, rows: np.ndarray, ctx: np.ndarray) -> bool:
        """Reserve one decode slot for every row, or change nothing.

        Succeeds exactly when the object engine's per-row
        ``append_token`` sequence would have succeeded without
        preemption: each row needs at most one fresh block, so the
        sequential drains succeed iff free + evictable blocks cover the
        count.  Evicting the shortfall up front reclaims the same LRU
        entries the object engine's one-block-at-a-time appends would
        have, in the same order — no running row references a
        refcount-0 entry, so candidates cannot differ.
        """
        held = self._held_arr()[rows]
        shared = self._shared_arr()[rows]
        needs = ctx + 1 > (held + shared) * self.block_size
        count = int(needs.sum())
        shortfall = count - self.free_blocks
        if shortfall > 0:
            if self._store is None or self._evictable() < shortfall:
                return False
            self.free_blocks += self._store.evict_for(shortfall)
            if count > self.free_blocks:  # pragma: no cover - defensive
                return False
        if count:
            self._held[rows] = held + needs
            self.free_blocks -= count
        return True

    @property
    def free_token_slots(self) -> int:
        return self.free_blocks * self.block_size

    @property
    def total_token_slots(self) -> int:
        return self.num_blocks * self.block_size

    @property
    def occupancy(self) -> float:
        total = self.total_token_slots
        if total <= 0:
            return 0.0
        return 1.0 - self.free_token_slots / total

    # -- capacity faults ----------------------------------------------
    def shed_capacity(self, fraction: float) -> int:
        # Same integer arithmetic as the object allocator — free may go
        # negative; admissions fail and the normal eviction/preemption
        # machinery works the deficit off identically in both engines.
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        lost = int(self.num_blocks * fraction)
        self.num_blocks -= lost
        self.free_blocks -= lost
        return lost

    def restore_capacity(self, amount: int) -> None:
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        self.num_blocks += amount
        self.free_blocks += amount


class VecReservationMemory:
    """Row-indexed port of :class:`repro.memory.block_manager.ReservationManager`."""

    def __init__(
        self, arrays: RequestArrays, capacity_tokens: int, reserve_len: int
    ) -> None:
        if capacity_tokens <= 0:
            raise ValueError("capacity_tokens must be positive")
        if reserve_len <= 0:
            raise ValueError("reserve_len must be positive")
        self.A = arrays
        self.capacity_tokens = capacity_tokens
        self.reserve_len = reserve_len
        self.free_tokens = capacity_tokens
        self._reserved = np.zeros(0, dtype=np.int64)

    def _reserved_arr(self) -> np.ndarray:
        if self._reserved.size < self.A.n:
            grown = np.zeros(
                max(self.A.n, self._reserved.size * 2, 1024), dtype=np.int64
            )
            grown[: self._reserved.size] = self._reserved
            self._reserved = grown
        return self._reserved

    def _reservation_for(self, row: int) -> int:
        A = self.A
        remaining_output = int(A.output_len[row] - A.num_emitted[row])
        return max(self.reserve_len, int(A.prefill_target[row]) + remaining_output)

    def can_admit(self, row: int) -> bool:
        return self.free_tokens >= self._reservation_for(row)

    def admit(self, row: int) -> None:
        reserved = self._reserved_arr()
        needed = self._reservation_for(row)
        if needed > self.free_tokens:
            raise MemoryError(
                f"cannot admit row {row}: needs {needed} token slots, "
                f"{self.free_tokens} free"
            )
        self.free_tokens -= needed
        reserved[row] = needed

    def try_admit(self, row: int) -> bool:
        """can_admit + admit with the reservation computed once."""
        needed = self._reservation_for(row)
        if needed > self.free_tokens:
            return False
        self.free_tokens -= needed
        self._reserved_arr()[row] = needed
        return True

    def can_append_token(self, row: int) -> bool:
        return self._reserved_arr()[row] > 0

    def append_token(self, row: int) -> None:
        # Growth is prepaid by the reservation.
        return

    def free(self, row: int) -> None:
        reserved = self._reserved_arr()
        self.free_tokens += int(reserved[row])
        reserved[row] = 0

    def try_bulk_decode(self, rows: np.ndarray, ctx: np.ndarray) -> bool:
        return True

    @property
    def free_token_slots(self) -> int:
        return self.free_tokens

    @property
    def total_token_slots(self) -> int:
        return self.capacity_tokens

    @property
    def occupancy(self) -> float:
        total = self.total_token_slots
        if total <= 0:
            return 0.0
        return 1.0 - self.free_token_slots / total

    # -- capacity faults ----------------------------------------------
    def shed_capacity(self, fraction: float) -> int:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        lost = int(self.capacity_tokens * fraction)
        self.capacity_tokens -= lost
        self.free_tokens -= lost
        return lost

    def restore_capacity(self, amount: int) -> None:
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        self.capacity_tokens += amount
        self.free_tokens += amount


# ----------------------------------------------------------------------
# Scheduler core base
# ----------------------------------------------------------------------
class VecScheduler:
    """Shared pools, counters and preemption machinery (rows edition).

    Mirrors :class:`repro.scheduling.base.Scheduler`.  On single-stage
    (pp=1) engines at most one batch is ever in flight, so the
    in-flight set is empty whenever ``_build_batch`` runs and tracking
    it would be pure overhead; the engine flips ``track_in_flight`` on
    for pipelined deployments, where requests stay claimed across
    several stage iterations and must be excluded from re-batching
    exactly like the object scheduler's ``_in_flight`` set.
    """

    name = "abstract"

    # Fleet admission hook, as on the object base; only the plug-in
    # adapter sets one.
    admission_hook = None

    _base_budgets = None
    # Brownout budget-clamp hook — byte-for-byte the object base's
    # logic, so both engines apply identical clamps at identical times.
    override_token_budget = _ObjectScheduler.override_token_budget

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecPagedMemory | VecReservationMemory,
        max_batch_size: int,
        preemption_mode: str = "recompute",
        kv_bytes_per_token: int = 0,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        preemption_mode = PreemptionMode.parse(preemption_mode)
        if preemption_mode is PreemptionMode.SWAP and kv_bytes_per_token <= 0:
            raise ValueError("swap mode needs kv_bytes_per_token > 0")
        self.A = arrays
        self.memory = memory
        self.max_batch_size = max_batch_size
        self.preemption_mode = preemption_mode
        self.kv_bytes_per_token = kv_bytes_per_token
        self.waiting: deque[int] = deque()
        self.running: list[int] = []
        self._running_set: set[int] = set()
        self.swapped: list[int] = []
        self._claimed: set[int] = set()
        # Rows scheduled into a batch that has not completed yet; only
        # populated when the engine sets ``track_in_flight`` (pp > 1).
        self._in_flight: set[int] = set()
        self.track_in_flight = False
        self._pending_swap_bytes = 0
        self.num_scheduled_batches = 0
        self.num_preemptions = 0
        self.num_swap_outs = 0
        self.num_swap_ins = 0
        # Live workload gauges the fleet router reads per arrival; kept
        # incrementally so snapshots stay O(1) instead of O(requests).
        self.num_pending = 0
        self.outstanding_tokens = 0
        # Bumped whenever the running set or any member's prefill
        # status changes; policies key their sorted/partitioned row
        # caches on it.
        self._run_version = 0

    # -- engine-facing -------------------------------------------------
    def add_row(self, row: int, now: float) -> None:
        A = self.A
        arrival = float(A.arrival_time[row])
        if arrival > now + 1e-9:
            raise ValueError(
                f"request {A.requests[row].request_id} arrives at {arrival}, "
                f"but now is {now}"
            )
        self.waiting.append(row)

    def note_ingested(self, row: int) -> None:
        """Account a freshly mirrored row into the workload gauges."""
        A = self.A
        self.num_pending += 1
        self.outstanding_tokens += int(
            (A.prefill_target[row] - A.prefill_done[row])
            + (A.output_len[row] - A.num_emitted[row])
        )

    def note_ingested_bulk(self, first: int) -> None:
        A = self.A
        sl = slice(first, A.n)
        self.num_pending += A.n - first
        self.outstanding_tokens += int(
            np.sum(A.prefill_target[sl] - A.prefill_done[sl])
            + np.sum(A.output_len[sl] - A.num_emitted[sl])
        )

    def schedule(self, now: float) -> VecBatch | None:
        self._claimed.clear()
        self._try_swap_in()
        batch = self._build_batch(now)
        self._claimed.clear()
        if batch is None:
            return None
        batch.swap_bytes = self._pending_swap_bytes
        self._pending_swap_bytes = 0
        A = self.A
        prows = batch.p_rows_arr
        if len(prows):
            first_sched = A.first_scheduled_at[prows]
            fresh = np.isnan(first_sched)
            if fresh.any():
                A.first_scheduled_at[prows[fresh]] = now
            queued = A.phase[prows] == PH_QUEUED
            if queued.any():
                A.phase[prows[queued]] = PH_PREFILL
        # Decode rows need no transitions: a decoding request was
        # scheduled before (first_scheduled_at set) and left QUEUED at
        # its first prefill (or at swap-in).
        if self.track_in_flight:
            in_flight = self._in_flight
            in_flight.update(batch.decode_rows.tolist())
            in_flight.update(batch.p_rows)
            self._run_version += 1
        self.num_scheduled_batches += 1
        return batch

    def on_batch_complete(
        self, batch: VecBatch, now: float
    ) -> tuple[list[int], list[int]]:
        """Commit one iteration's progress.

        Returns ``(finished, prefill_emits)``: rows that finished, in
        batch item order, and prefill rows whose completed chunk
        emitted the request's first token this iteration.
        """
        A = self.A
        if self._in_flight:
            self._in_flight.difference_update(batch.decode_rows.tolist())
            self._in_flight.difference_update(batch.p_rows)
            self._run_version += 1
        finished: list[int] = []
        prefill_emits: list[int] = []
        rows = batch.decode_rows
        if len(rows):
            A.decode_steps[rows] += 1
            A.num_emitted[rows] += 1
            A.prev_emit[rows] = A.last_emit[rows]
            A.last_emit[rows] = now
            self.outstanding_tokens -= len(rows)
            fin_mask = A.num_emitted[rows] >= A.output_len[rows]
            if fin_mask.any():
                fin_rows = rows[fin_mask]
                A.phase[fin_rows] = PH_FINISHED
                A.finished_at[fin_rows] = now
                for row in fin_rows.tolist():
                    self.memory.free(row)
                    self._run_remove(row)
                    finished.append(row)
                self.num_pending -= len(fin_rows)
        prows = batch.p_rows_arr
        if len(prows):
            # Per-item prefill commits have no cross-item interaction
            # (memory is only freed for finished rows), so committing
            # them as masked vector writes preserves the object
            # engine's sequential semantics and its item ordering.
            chunks = np.array(batch.p_chunk, dtype=np.int64)
            done = A.prefill_done[prows] + chunks
            A.prefill_done[prows] = done
            self.outstanding_tokens -= int(chunks.sum())
            complete = done >= A.prefill_target[prows]
            if complete.any():
                comp = prows[complete]
                A.phase[comp] = PH_DECODE
                self._run_version += 1
                emits = A.num_emitted[comp] == 0
                if emits.any():
                    emit_rows = comp[emits]
                    A.num_emitted[emit_rows] = 1
                    A.prev_emit[emit_rows] = A.last_emit[emit_rows]
                    A.last_emit[emit_rows] = now
                    no_first = np.isnan(A.first_token_at[emit_rows])
                    if no_first.any():
                        A.first_token_at[emit_rows[no_first]] = now
                    self.outstanding_tokens -= len(emit_rows)
                    prefill_emits = emit_rows.tolist()
                fin = A.num_emitted[comp] >= A.output_len[comp]
                if fin.any():
                    fin_rows = comp[fin]
                    A.phase[fin_rows] = PH_FINISHED
                    A.finished_at[fin_rows] = now
                    for row in fin_rows.tolist():
                        self.memory.free(row)
                        self._run_remove(row)
                        finished.append(row)
                    self.num_pending -= len(fin_rows)
        return finished, prefill_emits

    def _build_batch(self, now: float) -> VecBatch | None:  # pragma: no cover
        raise NotImplementedError

    # -- pool maintenance ----------------------------------------------
    def _run_add(self, row: int) -> None:
        self.running.append(row)
        self._running_set.add(row)
        self._run_version += 1

    def _run_remove(self, row: int) -> None:
        if row in self._running_set:
            self.running.remove(row)
            self._running_set.remove(row)
            self._run_version += 1

    def _schedulable_rows(self) -> list[int]:
        """Running rows not claimed by an in-flight batch, running order.

        Port of ``Scheduler._schedulable_running``; with tracking off
        (pp=1) the in-flight set is empty and this is just ``running``.
        """
        in_flight = self._in_flight
        if not in_flight:
            return self.running
        return [r for r in self.running if r not in in_flight]

    # -- shared policy helpers (exact ports) ---------------------------
    def _admit_waiting_head(self) -> int | None:
        if not self.waiting:
            return None
        head = self.waiting[0]
        # A prefix-cache hit advances prefill_done inside try_admit;
        # the skipped tokens leave the outstanding-work gauge (the
        # object engine recomputes the gauge by scanning, so this
        # adjustment keeps the counters bit-identical).
        done_before = int(self.A.prefill_done[head])
        if not self.memory.try_admit(head):
            return None
        cached = int(self.A.prefill_done[head]) - done_before
        if cached:
            self.outstanding_tokens -= cached
        self.waiting.popleft()
        self._run_add(head)
        return head

    def _prepare_decode(self, row: int) -> bool:
        if not self._preempt_for_decode(row):
            return False
        self.memory.append_token(row)
        self._claimed.add(row)
        return True

    def _preempt_for_decode(self, row: int) -> bool:
        A = self.A
        while not self.memory.can_append_token(row):
            victim = self._pick_preemption_victim(row)
            if victim is None or A.arrival_time[victim] < A.arrival_time[row]:
                self._evict(row, force_recompute=True)
                return False
            self._evict(victim)
        return True

    def _pick_preemption_victim(self, protect: int) -> int | None:
        # max() over candidates in running order: the *first* row with
        # the strictly greatest arrival time wins, like the object code.
        # In-flight rows are never victims (their KV is in use by a
        # pipelined batch); the set is empty at pp=1.
        arrival = self.A.arrival_time
        claimed = self._claimed
        in_flight = self._in_flight
        best: int | None = None
        best_time = -math.inf
        for row in self.running:
            if row == protect or row in claimed or row in in_flight:
                continue
            t = arrival[row]
            if t > best_time:
                best = row
                best_time = t
        return best

    def _evict(self, victim: int, force_recompute: bool = False) -> None:
        if self.preemption_mode is PreemptionMode.SWAP and not force_recompute:
            self._swap_out(victim)
            return
        A = self.A
        self.memory.free(victim)
        old_remaining = int(A.prefill_target[victim] - A.prefill_done[victim])
        A.prefill_target[victim] = A.prompt_len[victim] + A.num_emitted[victim]
        A.prefill_done[victim] = 0
        A.decode_steps[victim] = 0
        A.phase[victim] = PH_QUEUED
        A.num_restarts[victim] += 1
        self.outstanding_tokens += int(A.prefill_target[victim]) - old_remaining
        self._run_remove(victim)
        self.waiting.appendleft(victim)
        self.num_preemptions += 1

    def _swap_out(self, victim: int) -> None:
        A = self.A
        context = int(A.prefill_done[victim] + A.decode_steps[victim])
        self._pending_swap_bytes += self.kv_bytes_per_token * context
        self.memory.free(victim)
        A.phase[victim] = PH_PREEMPTED
        self._run_remove(victim)
        self.swapped.append(victim)
        self.num_preemptions += 1
        self.num_swap_outs += 1

    def _try_swap_in(self) -> None:
        if not self.swapped:
            return
        A = self.A
        still_out = []
        for row in self.swapped:
            if self.memory.can_admit(row):
                self.memory.admit(row)
                context = int(A.prefill_done[row] + A.decode_steps[row])
                self._pending_swap_bytes += self.kv_bytes_per_token * context
                A.phase[row] = (
                    PH_DECODE
                    if A.prefill_done[row] >= A.prefill_target[row]
                    else PH_PREFILL
                )
                self._run_add(row)
                self.num_swap_ins += 1
            else:
                still_out.append(row)
        self.swapped = still_out

    # -- introspection (fleet snapshot parity) -------------------------
    @property
    def num_waiting(self) -> int:
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self.running)

    @property
    def has_work(self) -> bool:
        if self.waiting or self.swapped:
            return True
        if not self._in_flight:
            return bool(self.running)
        in_flight = self._in_flight
        return any(r not in in_flight for r in self.running)


# ----------------------------------------------------------------------
# Sorted/partitioned running-set cache shared by arrival-FCFS policies
# ----------------------------------------------------------------------
class _ArrivalSortedMixin(VecScheduler):
    """Caches the running set partitioned and arrival-sorted.

    ``sorted(decodes, key=arrival_time)`` with a stable sort over the
    running-order partition reproduces the object schedulers' decode
    ordering; the cache makes the steady decode loop O(1) per
    iteration instead of O(B log B).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cache_version = -1
        self._cached_decodes_sorted = _EMPTY_ROWS
        self._cached_partials = _EMPTY_ROWS

    def _partition(self) -> tuple[np.ndarray, np.ndarray]:
        """(decodes sorted by arrival — stable, partials in running order).

        Partitions the *schedulable* running rows; in-flight mutations
        bump ``_run_version`` so the cache never serves stale rows.
        """
        if self._cache_version != self._run_version:
            A = self.A
            run_arr = np.array(self._schedulable_rows(), dtype=np.int64)
            if run_arr.size:
                complete = A.prefill_done[run_arr] >= A.prefill_target[run_arr]
                decodes = run_arr[complete]
                self._cached_partials = run_arr[~complete]
                order = np.argsort(A.arrival_time[decodes], kind="stable")
                self._cached_decodes_sorted = decodes[order]
            else:
                self._cached_decodes_sorted = _EMPTY_ROWS
                self._cached_partials = _EMPTY_ROWS
            self._cache_version = self._run_version
        return self._cached_decodes_sorted, self._cached_partials

    def _decode_block(
        self, sorted_rows: np.ndarray, check_complete: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """The decode block: bulk fast path or exact scalar fallback.

        ``check_complete`` ports the vLLM/chunked-only guard that skips
        prefill-incomplete rows inside the candidate walk; sarathi
        pre-partitions instead so it passes False.  Filtering before
        the max-batch-size slice is exact: skipped rows don't count
        toward the object loop's size either, and nothing turns a
        running row incomplete without also removing it from running.
        """
        A = self.A
        if check_complete and len(sorted_rows):
            sorted_rows = sorted_rows[
                A.prefill_done[sorted_rows] >= A.prefill_target[sorted_rows]
            ]
        cand = sorted_rows[: self.max_batch_size]
        if len(cand):
            ctx = A.prefill_done[cand] + A.decode_steps[cand]
            if self.memory.try_bulk_decode(cand, ctx):
                return cand, ctx
        # Memory pressure: replay the object engine's per-row loop with
        # preemption exactly (evictions may drop later candidates).
        rows: list[int] = []
        ctxs: list[int] = []
        running_set = self._running_set
        for row in sorted_rows.tolist():
            if len(rows) >= self.max_batch_size:
                break
            if check_complete and A.prefill_done[row] < A.prefill_target[row]:
                continue
            if row not in running_set:
                continue  # evicted by an earlier preemption
            if not self._prepare_decode(row):
                continue
            rows.append(row)
            ctxs.append(int(A.prefill_done[row] + A.decode_steps[row]))
        return (
            np.array(rows, dtype=np.int64),
            np.array(ctxs, dtype=np.int64),
        )


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class VecSarathiScheduler(_ArrivalSortedMixin):
    """Port of :class:`repro.core.sarathi.SarathiScheduler` (Algorithm 3)."""

    name = "sarathi"

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecPagedMemory,
        token_budget: int,
        max_batch_size: int,
        chunk_prefills: bool = True,
        preemption_mode: str = "recompute",
        kv_bytes_per_token: int = 0,
    ) -> None:
        super().__init__(
            arrays,
            memory,
            max_batch_size,
            preemption_mode=preemption_mode,
            kv_bytes_per_token=kv_bytes_per_token,
        )
        if token_budget <= 0:
            raise ValueError("token_budget must be positive")
        self.token_budget = token_budget
        self.chunk_prefills = chunk_prefills

    def _build_batch(self, now: float) -> VecBatch | None:
        A = self.A
        sorted_decodes, partials = self._partition()
        decode_rows, decode_ctx = self._decode_block(sorted_decodes)
        tokens_used = len(decode_rows)
        size = tokens_used

        p_rows: list[int] = []
        p_chunk: list[int] = []
        p_past: list[int] = []
        p_is_last: list[bool] = []

        def add_prefill(row: int, chunk: int) -> None:
            remaining = int(A.prefill_target[row] - A.prefill_done[row])
            p_rows.append(row)
            p_chunk.append(chunk)
            p_past.append(int(A.prefill_done[row]))
            p_is_last.append(chunk >= remaining)

        # Continue partially completed prefills before admitting new
        # work (lines 9-12).
        running_set = self._running_set
        for row in partials.tolist():
            if size >= self.max_batch_size:
                break
            if row not in running_set:
                continue  # evicted by a preemption above
            chunk = self._chunk_for(row, tokens_used)
            if chunk <= 0:
                break
            add_prefill(row, chunk)
            tokens_used += chunk
            size += 1

        # Admit new requests within the leftover budget (lines 13-20).
        while size < self.max_batch_size and tokens_used < self.token_budget:
            if not self.waiting:
                break
            head = self.waiting[0]
            chunk = self._chunk_for(head, tokens_used)
            if chunk <= 0:
                break
            admitted = self._admit_waiting_head()
            if admitted is None:
                break  # memory full
            # Admission may have claimed a cached prefix, shrinking the
            # remaining prefill below the pre-admission estimate;
            # recompute so the chunk never overruns (still >= 1: the
            # cache always leaves at least one token to prefill).
            chunk = self._chunk_for(admitted, tokens_used)
            add_prefill(admitted, chunk)
            tokens_used += chunk
            size += 1

        if size == 0:
            return None
        return VecBatch(decode_rows, decode_ctx, p_rows, p_chunk, p_past, p_is_last)

    def _chunk_for(self, row: int, tokens_used: int) -> int:
        A = self.A
        remaining = int(A.prefill_target[row] - A.prefill_done[row])
        if not self.chunk_prefills:
            # Hybrid-batching-only ablation: whole prompts; budget only
            # gates whether more requests join.
            return remaining if tokens_used < self.token_budget else 0
        leftover = self.token_budget - tokens_used
        if leftover <= 0:
            return 0
        chunk = min(remaining, leftover)
        return chunk if chunk > 0 else 0


class VecDynamicSarathiScheduler(VecSarathiScheduler):
    """Port of :class:`repro.core.dynamic.DynamicSarathiScheduler`.

    Re-runs the §4.3 budget decision every iteration against the live
    decode pool, exactly like the object scheduler: bisection over the
    step grid for the largest budget whose predicted hybrid-iteration
    latency meets the TBT SLO.  Instead of an opaque ``works -> cost``
    oracle it prices candidates from the model's shared component
    tables (:attr:`ExecutionModel.pricing`, the ones the vectorized
    engine reads), assembled in
    ``stage_iteration_time``'s operation order so every probe produces
    the same float the object's ``iteration_cost`` closure would — the
    budget choices, and hence the schedules, stay bit-identical.

    The decode pool's attention sum is folded left-to-right once per
    ``_pick_budget`` and shared across probes; that matches the
    object's per-probe ``sum(...)`` because float addition is
    deterministic and every probe folds the same prefix.
    """

    name = "sarathi-dynamic"

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecPagedMemory,
        exec_model,
        tbt_slo: float,
        min_budget: int = 128,
        max_budget: int = 8192,
        budget_step: int = 128,
        max_batch_size: int = 128,
    ) -> None:
        if tbt_slo <= 0:
            raise ValueError("tbt_slo must be positive")
        if not 0 < min_budget <= max_budget:
            raise ValueError("need 0 < min_budget <= max_budget")
        if budget_step <= 0:
            raise ValueError("budget_step must be positive")
        super().__init__(
            arrays,
            memory,
            token_budget=min_budget,
            max_batch_size=max_batch_size,
        )
        self.exec_model = exec_model
        self.tbt_slo = tbt_slo
        self.min_budget = min_budget
        self.max_budget = max_budget
        self.budget_step = budget_step
        self.budget_history: list[int] = []
        self._pp = exec_model.parallel.pipeline_parallel
        # The model's shared component tables (the engine prices from
        # the same ones); ``_fits`` replays every float operation.
        self._pricing = exec_model.pricing

    def _build_batch(self, now: float) -> VecBatch | None:
        self.token_budget = self._pick_budget()
        self.budget_history.append(self.token_budget)
        return super()._build_batch(now)

    # ------------------------------------------------------------------
    def _pick_budget(self) -> int:
        """Largest budget whose predicted iteration fits the SLO."""
        A = self.A
        rows = np.asarray(self._schedulable_rows(), dtype=np.int64)
        done = A.prefill_done[rows]
        decoding = done >= A.prefill_target[rows]
        ctx = done[decoding] + A.decode_steps[rows[decoding]]
        num_decodes = len(ctx)
        decode_attn = 0
        if num_decodes:
            for value in self._pricing.decode_attention(ctx):
                decode_attn = decode_attn + value
        lo = self.min_budget
        if not self._fits(lo, num_decodes, decode_attn):
            return self.min_budget
        hi = self.max_budget
        if self._fits(hi, num_decodes, decode_attn):
            return self.max_budget
        while hi - lo > self.budget_step:
            mid = lo + (hi - lo) // (2 * self.budget_step) * self.budget_step
            if mid == lo:
                break
            if self._fits(mid, num_decodes, decode_attn):
                lo = mid
            else:
                hi = mid
        return lo

    def _fits(self, budget: int, num_decodes: int, decode_attn: float) -> bool:
        pricing = self._pricing
        num_tokens = num_decodes
        attention = decode_attn
        prefill_tokens = budget - num_decodes
        if prefill_tokens > 0:
            attention = attention + pricing.prefill_attention(prefill_tokens, budget)
            num_tokens += prefill_tokens
        elif num_decodes == 0:
            return True  # empty candidate — mirrors the object guard
        others, comm = pricing.token_terms(num_tokens)
        stage = IterationTime(
            pricing.linear(num_tokens, num_decodes),
            attention,
            others,
            comm,
            pricing.overhead_first,
        ).total
        if self._pp == 1:
            cost = stage
        else:
            cost = self._pp * stage + (self._pp - 1) * pricing.send(num_tokens)
        return cost <= self.tbt_slo


class VecVLLMScheduler(_ArrivalSortedMixin):
    """Port of :class:`repro.scheduling.vllm.VLLMScheduler` (Algorithm 2)."""

    name = "vllm"

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecPagedMemory,
        max_batch_size: int,
        max_batched_tokens: int = 16384,
        preemption_mode: str = "recompute",
        kv_bytes_per_token: int = 0,
    ) -> None:
        super().__init__(
            arrays,
            memory,
            max_batch_size,
            preemption_mode=preemption_mode,
            kv_bytes_per_token=kv_bytes_per_token,
        )
        if max_batched_tokens <= 0:
            raise ValueError("max_batched_tokens must be positive")
        self.max_batched_tokens = max_batched_tokens

    def _build_batch(self, now: float) -> VecBatch | None:
        A = self.A
        # Eager prefills first (lines 5-9).
        p_rows: list[int] = []
        p_chunk: list[int] = []
        p_past: list[int] = []
        p_is_last: list[bool] = []
        num_tokens = 0
        while (
            len(self.running) < self.max_batch_size
            and len(p_rows) < self.max_batch_size
        ):
            if not self.waiting:
                break
            head = self.waiting[0]
            if (
                p_rows
                and num_tokens + int(A.prefill_target[head]) > self.max_batched_tokens
            ):
                break
            admitted = self._admit_waiting_head()
            if admitted is None:
                break
            remaining = int(A.prefill_target[admitted] - A.prefill_done[admitted])
            p_rows.append(admitted)
            p_chunk.append(remaining)
            p_past.append(int(A.prefill_done[admitted]))
            p_is_last.append(True)
            num_tokens += remaining
        if p_rows:
            return VecBatch(_EMPTY_ROWS, _EMPTY_ROWS, p_rows, p_chunk, p_past, p_is_last)

        # Otherwise a decode-only batch (line 12).  vLLM sorts the whole
        # running pool and skips prefill-incomplete rows inside the
        # loop, so the sorted cache covers every runner here.
        sorted_rows = self._sorted_all_running()
        decode_rows, decode_ctx = self._decode_block(sorted_rows, check_complete=True)
        if not len(decode_rows):
            return None
        return VecBatch(decode_rows, decode_ctx, [], [], [], [])

    def _sorted_all_running(self) -> np.ndarray:
        sorted_decodes, partials = self._partition()
        if not len(partials):
            return sorted_decodes
        # Rare (swap re-admission): merge back to the object engine's
        # ordering — the schedulable pool, stably sorted by arrival.
        run_arr = np.array(self._schedulable_rows(), dtype=np.int64)
        order = np.argsort(self.A.arrival_time[run_arr], kind="stable")
        return run_arr[order]


class VecOrcaScheduler(VecScheduler):
    """Port of :class:`repro.scheduling.orca.OrcaScheduler`."""

    name = "orca"

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecReservationMemory,
        max_batch_size: int,
    ) -> None:
        super().__init__(arrays, memory, max_batch_size)
        self._cache_version = -1
        self._cached_running = _EMPTY_ROWS

    def _build_batch(self, now: float) -> VecBatch | None:
        A = self.A
        if self._cache_version != self._run_version:
            self._cached_running = np.array(
                self._schedulable_rows(), dtype=np.int64
            )
            self._cache_version = self._run_version
        run_arr = self._cached_running
        decode_rows = run_arr[: self.max_batch_size]
        if len(decode_rows) and not bool(
            np.all(
                A.prefill_done[decode_rows] >= A.prefill_target[decode_rows]
            )
        ):
            # A running request's full prefill always commits with the
            # batch that admitted it (in-flight rows are excluded), so
            # a partial schedulable runner would mean the port diverged
            # from the object engine.
            raise RuntimeError(
                "vectorized orca core saw a partially prefilled running request"
            )
        decode_ctx = (
            A.prefill_done[decode_rows] + A.decode_steps[decode_rows]
            if len(decode_rows)
            else _EMPTY_ROWS
        )
        size = len(decode_rows)

        p_rows: list[int] = []
        p_chunk: list[int] = []
        p_past: list[int] = []
        p_is_last: list[bool] = []
        while size < self.max_batch_size:
            admitted = self._admit_waiting_head()
            if admitted is None:
                break
            remaining = int(A.prefill_target[admitted] - A.prefill_done[admitted])
            p_rows.append(admitted)
            p_chunk.append(remaining)
            p_past.append(int(A.prefill_done[admitted]))
            p_is_last.append(True)
            size += 1
        if size == 0:
            return None
        return VecBatch(decode_rows, decode_ctx, p_rows, p_chunk, p_past, p_is_last)


class VecFasterTransformerScheduler(VecScheduler):
    """Port of :class:`repro.scheduling.faster_transformer.FasterTransformerScheduler`."""

    name = "faster-transformer"

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecReservationMemory,
        max_batch_size: int,
    ) -> None:
        super().__init__(arrays, memory, max_batch_size)
        self._members: list[int] = []

    def _build_batch(self, now: float) -> VecBatch | None:
        A = self.A
        members = [r for r in self._members if A.phase[r] != PH_FINISHED]
        self._members = members
        if not members:
            while len(self._members) < self.max_batch_size:
                admitted = self._admit_waiting_head()
                if admitted is None:
                    break
                self._members.append(admitted)
            members = self._members
        in_flight = self._in_flight
        if in_flight:
            members = [r for r in members if r not in in_flight]
        if not members:
            return None

        member_arr = np.array(members, dtype=np.int64)
        incomplete = A.prefill_done[member_arr] < A.prefill_target[member_arr]
        if bool(incomplete.any()):
            # Line 8 of Algorithm 1: prefill the whole batch at once.
            p_rows: list[int] = []
            p_chunk: list[int] = []
            p_past: list[int] = []
            for row in member_arr[incomplete].tolist():
                p_rows.append(row)
                p_chunk.append(int(A.prefill_target[row] - A.prefill_done[row]))
                p_past.append(int(A.prefill_done[row]))
            return VecBatch(
                _EMPTY_ROWS, _EMPTY_ROWS, p_rows, p_chunk, p_past, [True] * len(p_rows)
            )
        # Line 10: decode-only until the batch drains.
        decode_ctx = A.prefill_done[member_arr] + A.decode_steps[member_arr]
        return VecBatch(member_arr, decode_ctx, [], [], [], [])


class VecChunkedPrefillsOnlyScheduler(_ArrivalSortedMixin):
    """Port of :class:`repro.scheduling.ablations.ChunkedPrefillsOnlyScheduler`."""

    name = "chunked-prefills-only"

    def __init__(
        self,
        arrays: RequestArrays,
        memory: VecPagedMemory,
        token_budget: int,
        max_batch_size: int,
    ) -> None:
        super().__init__(arrays, memory, max_batch_size)
        if token_budget <= 0:
            raise ValueError("token_budget must be positive")
        self.token_budget = token_budget
        self._last_was_prefill = False

    def _build_batch(self, now: float) -> VecBatch | None:
        if self._last_was_prefill:
            batch = self._decode_batch() or self._prefill_batch()
        else:
            batch = self._prefill_batch() or self._decode_batch()
        if batch is not None:
            self._last_was_prefill = bool(batch.p_rows)
        return batch

    def _decode_batch(self) -> VecBatch | None:
        sorted_rows = self._sorted_all_running()
        decode_rows, decode_ctx = self._decode_block(sorted_rows, check_complete=True)
        if not len(decode_rows):
            return None
        return VecBatch(decode_rows, decode_ctx, [], [], [], [])

    def _sorted_all_running(self) -> np.ndarray:
        sorted_decodes, partials = self._partition()
        if not len(partials):
            return sorted_decodes
        run_arr = np.array(self._schedulable_rows(), dtype=np.int64)
        order = np.argsort(self.A.arrival_time[run_arr], kind="stable")
        return run_arr[order]

    def _prefill_batch(self) -> VecBatch | None:
        A = self.A
        p_rows: list[int] = []
        p_chunk: list[int] = []
        p_past: list[int] = []
        p_is_last: list[bool] = []
        tokens_used = 0

        def add_prefill(row: int, chunk: int) -> None:
            remaining = int(A.prefill_target[row] - A.prefill_done[row])
            p_rows.append(row)
            p_chunk.append(chunk)
            p_past.append(int(A.prefill_done[row]))
            p_is_last.append(chunk >= remaining)

        # Ongoing partial prefills first (running order), then admit.
        for row in self._schedulable_rows():
            if A.prefill_done[row] >= A.prefill_target[row]:
                continue
            chunk = self._next_chunk(row, tokens_used)
            if chunk <= 0:
                break
            add_prefill(row, chunk)
            tokens_used += chunk
        while len(p_rows) < self.max_batch_size and tokens_used < self.token_budget:
            if not self.waiting:
                break
            head = self.waiting[0]
            chunk = self._next_chunk(head, tokens_used)
            if chunk <= 0:
                break
            admitted = self._admit_waiting_head()
            if admitted is None:
                break
            # Recompute after admission: a prefix-cache hit shrinks the
            # remaining prefill (see VecSarathiScheduler._build_batch).
            chunk = self._next_chunk(admitted, tokens_used)
            add_prefill(admitted, chunk)
            tokens_used += chunk
        if not p_rows:
            return None
        return VecBatch(_EMPTY_ROWS, _EMPTY_ROWS, p_rows, p_chunk, p_past, p_is_last)

    def _next_chunk(self, row: int, tokens_used: int) -> int:
        A = self.A
        remaining = int(A.prefill_target[row] - A.prefill_done[row])
        leftover = self.token_budget - tokens_used
        if leftover <= 0:
            return 0
        chunk = min(remaining, leftover)
        return chunk if chunk > 0 else 0


# ----------------------------------------------------------------------
# Plug-in policies (the SchedulingPolicy protocol) over rows
# ----------------------------------------------------------------------
class RequestRowView:
    """Read-only view of one row: the ``Request`` attributes policies read.

    The plug-in adapter hands these to
    :meth:`~repro.scheduling.policy.SchedulingPolicy.compose_batch` in
    place of ``Request`` objects.  Identity fields are copied from the
    row's request; serving state is read live from the arrays.  Any
    assignment raises, so a policy cannot touch engine state.
    """

    __slots__ = (
        "_arrays",
        "_row",
        "request_id",
        "arrival_time",
        "client_id",
        "prompt_len",
        "output_len",
    )

    def __init__(self, arrays: RequestArrays, row: int) -> None:
        request = arrays.requests[row]
        init = object.__setattr__
        init(self, "_arrays", arrays)
        init(self, "_row", row)
        init(self, "request_id", request.request_id)
        init(self, "arrival_time", request.arrival_time)
        init(self, "client_id", request.client_id)
        init(self, "prompt_len", request.prompt_len)
        init(self, "output_len", request.output_len)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"pool entries are read-only (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"pool entries are read-only (cannot delete {name!r})")

    @property
    def prefill_done(self) -> int:
        return int(self._arrays.prefill_done[self._row])

    @property
    def remaining_prefill(self) -> int:
        A, row = self._arrays, self._row
        return int(A.prefill_target[row] - A.prefill_done[row])

    @property
    def num_emitted(self) -> int:
        return int(self._arrays.num_emitted[self._row])

    @property
    def remaining_output(self) -> int:
        return self.output_len - self.num_emitted

    @property
    def context_len(self) -> int:
        A, row = self._arrays, self._row
        return int(A.prefill_done[row] + A.decode_steps[row])

    @property
    def is_prefill_complete(self) -> bool:
        A, row = self._arrays, self._row
        return bool(A.prefill_done[row] >= A.prefill_target[row])

    def __repr__(self) -> str:
        return (
            f"RequestRowView(request_id={self.request_id}, "
            f"prefill_done={self.prefill_done}, num_emitted={self.num_emitted})"
        )


class VecPolicyScheduler(VecScheduler):
    """Port of :class:`repro.scheduling.policy.PolicyScheduler` onto rows.

    The policy composes from a :class:`PoolView` of
    :class:`RequestRowView` entries (one cached view per row); each
    directive maps back to its row by request id, and every invariant
    is enforced in the object adapter's order.  Directives may
    interleave decodes and prefills, so such a batch carries its item
    order and commits item by item, as the object engine does.
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        arrays: RequestArrays,
        memory: VecPagedMemory | VecReservationMemory,
        token_budget: int,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        preemption_mode: str = "recompute",
        kv_bytes_per_token: int = 0,
    ) -> None:
        super().__init__(
            arrays,
            memory,
            max_batch_size,
            preemption_mode=preemption_mode,
            kv_bytes_per_token=kv_bytes_per_token,
        )
        if token_budget <= 0:
            raise ValueError("token_budget must be positive")
        self.policy = policy
        self.name = policy.name
        self.token_budget = token_budget
        hook = getattr(policy, "admit", None)
        self.admission_hook = hook if callable(hook) else None
        self._views: dict[int, RequestRowView] = {}

    def _view(self, row: int) -> RequestRowView:
        view = self._views.get(row)
        if view is None:
            view = self._views[row] = RequestRowView(self.A, row)
        return view

    def _can_admit(self, entry: RequestRowView) -> bool:
        return self.memory.can_admit(entry._row)

    # ------------------------------------------------------------------
    def _pool_view(self, now: float) -> PoolView:
        A = self.A
        view = self._view
        decodes: list[RequestRowView] = []
        prefills: list[RequestRowView] = []
        for row in self._schedulable_rows():
            if A.prefill_done[row] >= A.prefill_target[row]:
                decodes.append(view(row))
            else:
                prefills.append(view(row))
        return PoolView(
            now=now,
            decodes=tuple(decodes),
            prefills=tuple(prefills),
            waiting=tuple(view(row) for row in self.waiting),
            token_budget=self.token_budget,
            max_batch_size=self.max_batch_size,
            memory=MemoryView(
                occupancy=self.memory.occupancy,
                can_admit=self._can_admit,
            ),
        )

    def _build_batch(self, now: float) -> VecBatch | None:
        pool = self._pool_view(now)
        directives = self.policy.compose_batch(pool)

        A = self.A
        name = self.policy.name
        decode_rows: list[int] = []
        decode_ctx: list[int] = []
        p_rows: list[int] = []
        p_chunk: list[int] = []
        p_past: list[int] = []
        p_is_last: list[bool] = []
        # Item order: a decode's index (>= 0) or -1 - a prefill's index.
        kinds: list[int] = []
        tokens_used = 0
        seen: set[int] = set()
        offered = {entry.request_id: entry._row for entry in pool.runnable}
        decodable = {entry.request_id for entry in pool.decodes}
        running = self._running_set
        for directive in directives:
            if len(kinds) >= self.max_batch_size or tokens_used >= self.token_budget:
                break
            request_id = directive.request.request_id
            row = offered.get(request_id)
            if row is None:
                raise ValueError(
                    f"policy {name!r} directed request {request_id}, "
                    "which is not in its pool view"
                )
            if request_id in seen:
                raise ValueError(
                    f"policy {name!r} directed request {request_id} "
                    "twice in one batch"
                )
            seen.add(request_id)

            if directive.chunk is None:
                if request_id not in decodable:
                    raise ValueError(
                        f"policy {name!r} decoded request {request_id} "
                        "before its prefill completed "
                        "(pass chunk= for prefill work)"
                    )
                if row not in running:
                    continue  # evicted by an earlier directive's preemption
                if not self._prepare_decode(row):
                    continue  # no KV room this iteration
                kinds.append(len(decode_rows))
                decode_rows.append(row)
                decode_ctx.append(int(A.prefill_done[row] + A.decode_steps[row]))
                tokens_used += 1
                continue

            if A.prefill_done[row] >= A.prefill_target[row]:
                raise ValueError(
                    f"policy {name!r} scheduled a prefill chunk for request "
                    f"{request_id}, which is already decoding "
                    "(omit chunk= for decode work)"
                )
            if row not in running:
                if row not in self.waiting:
                    continue  # evicted and re-queued state shifted; skip
                if not self.memory.can_admit(row):
                    continue  # KV full; policy may retry next round
                self.waiting.remove(row)
                done_before = int(A.prefill_done[row])
                self.memory.admit(row)
                # A claimed cached prefix leaves the outstanding-work
                # gauge, as in _admit_waiting_head.
                self.outstanding_tokens -= int(A.prefill_done[row]) - done_before
                self._run_add(row)
            # Admission may have claimed a cached prefix, shrinking the
            # remaining prefill — clamp after admission, like Sarathi.
            remaining = int(A.prefill_target[row] - A.prefill_done[row])
            chunk = min(directive.chunk, self.token_budget - tokens_used, remaining)
            if chunk <= 0:
                continue
            self._claimed.add(row)
            kinds.append(-1 - len(p_rows))
            p_rows.append(row)
            p_chunk.append(chunk)
            p_past.append(int(A.prefill_done[row]))
            p_is_last.append(chunk >= remaining)
            tokens_used += chunk
        if not kinds:
            return None
        num_decodes = len(decode_rows)
        order = [k if k >= 0 else num_decodes - 1 - k for k in kinds]
        return VecBatch(
            np.array(decode_rows, dtype=np.int64),
            np.array(decode_ctx, dtype=np.int64),
            p_rows,
            p_chunk,
            p_past,
            p_is_last,
            None if order == list(range(len(order))) else order,
        )

    def on_batch_complete(
        self, batch: VecBatch, now: float
    ) -> tuple[list[int], list[int]]:
        if batch.order is None:
            return super().on_batch_complete(batch, now)
        # Interleaved batch: commit item by item, so finished rows are
        # freed (and reported) in the object engine's item order.
        A = self.A
        if self._in_flight:
            self._in_flight.difference_update(batch.decode_rows.tolist())
            self._in_flight.difference_update(batch.p_rows)
            self._run_version += 1
        finished: list[int] = []
        prefill_emits: list[int] = []
        for row, is_prefill, num_tokens in batch.items():
            if is_prefill:
                A.prefill_done[row] += num_tokens
                self.outstanding_tokens -= num_tokens
                if A.prefill_done[row] < A.prefill_target[row]:
                    continue
                A.phase[row] = PH_DECODE
                self._run_version += 1
                if A.num_emitted[row] == 0:
                    A.num_emitted[row] = 1
                    A.prev_emit[row] = A.last_emit[row]
                    A.last_emit[row] = now
                    if math.isnan(A.first_token_at[row]):
                        A.first_token_at[row] = now
                    self.outstanding_tokens -= 1
                    prefill_emits.append(row)
            else:
                A.decode_steps[row] += 1
                A.num_emitted[row] += 1
                A.prev_emit[row] = A.last_emit[row]
                A.last_emit[row] = now
                self.outstanding_tokens -= 1
            if A.num_emitted[row] >= A.output_len[row]:
                A.phase[row] = PH_FINISHED
                A.finished_at[row] = now
                self.memory.free(row)
                self._run_remove(row)
                finished.append(row)
                self.num_pending -= 1
        return finished, prefill_emits

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"VecPolicyScheduler(policy={self.policy.name!r}, "
            f"token_budget={self.token_budget}, "
            f"max_batch_size={self.max_batch_size})"
        )
