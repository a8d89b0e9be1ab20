"""The scheduler plug-in protocol: policies without engine internals.

A :class:`SchedulingPolicy` sees two narrow, documented hooks and
nothing else — no memory manager, no batch objects, no engine state:

* **Batch composition** (mandatory): given a :class:`PoolView` — the
  runnable pools, token budget and a memory snapshot — return the next
  iteration as an ordered list of :class:`BatchDirective`\\ s.  The
  :class:`PolicyScheduler` adapter enforces the engine's invariants
  (budget, batch-size cap, KV admission, preemption), so a policy may
  freely over-emit: directives that no longer fit are truncated or
  skipped.

* **Admission** (optional): ``admit(snapshot, request, now)`` is
  consulted by the fleet router with a live
  :class:`~repro.cluster.router.ReplicaSnapshot` (queue depth,
  outstanding tokens, KV occupancy, windowed p99 TBT) before a request
  is delivered.  Returning ``False`` defers the request into the
  fleet's backoff-retry loop (it is eventually shed if never admitted).
  Policies without the hook admit everything, exactly as before.

Determinism contract: both hooks must be pure functions of their
arguments plus the policy's own seeded state.  No wall-clock reads, no
unseeded randomness, no iteration-order dependence on ``id()`` — the
simulator's bit-identical replay (sweep resume, differential tests)
relies on it.

See DESIGN.md §12 for the full contract and README for a worked
example of registering a custom policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.batch import ScheduledWork
from repro.memory.block_manager import MemoryManager
from repro.scheduling.base import DEFAULT_MAX_BATCH_SIZE, Scheduler
from repro.types import Request, TokenWork

if TYPE_CHECKING:
    from repro.cluster.router import ReplicaSnapshot


@dataclass(frozen=True)
class MemoryView:
    """Read-only snapshot of the replica's KV memory for policies.

    ``can_admit`` answers "would this waiting request fit right now?"
    without reserving anything — admission itself stays inside the
    adapter.
    """

    occupancy: float
    can_admit: Callable[[Request], bool]


@dataclass(frozen=True)
class PoolView:
    """What the batch-composition hook sees each scheduling round.

    ``decodes`` are running requests whose prefill is complete (one
    token each this iteration if scheduled); ``prefills`` are running
    requests mid-prefill; ``waiting`` are arrived-but-unadmitted
    requests in FCFS order.  Requests already inside an in-flight
    pipeline micro-batch are excluded.  On the vectorized engine the
    entries are read-only row views
    (:class:`~repro.scheduling.vectorized.RequestRowView`) exposing the
    ``Request`` attributes policies read; assigning to one raises.  On
    the object reference they are the ``Request`` objects, and
    mutating them is a contract violation.
    """

    now: float
    decodes: tuple[Request, ...]
    prefills: tuple[Request, ...]
    waiting: tuple[Request, ...]
    token_budget: int
    max_batch_size: int
    memory: MemoryView

    @property
    def runnable(self) -> tuple[Request, ...]:
        """Every request the policy may direct, decodes first."""
        return self.decodes + self.prefills + self.waiting


@dataclass(frozen=True)
class BatchDirective:
    """One policy decision: run ``request`` this iteration.

    ``chunk=None`` decodes one token (the request must be mid-decode);
    an integer caps the prefill chunk — the adapter clamps it to the
    leftover token budget and the request's remaining prefill, so
    ``chunk`` is an upper bound, not a promise.
    """

    request: Request
    chunk: int | None = None

    def __post_init__(self) -> None:
        if self.chunk is not None and self.chunk <= 0:
            raise ValueError(f"chunk must be positive or None, got {self.chunk}")


class SchedulingPolicy:
    """Base class for plug-in scheduling policies.

    Subclasses must override :meth:`compose_batch`; they may override
    :meth:`admit` (leave it ``None`` to accept all traffic).  ``name``
    labels telemetry and repr output.
    """

    name: str = "policy"

    # Optional admission hook: subclasses override with a method of
    # signature (snapshot: ReplicaSnapshot, request, now) -> bool.
    admit: Callable[["ReplicaSnapshot", Request, float], bool] | None = None

    def compose_batch(self, pool: PoolView) -> list[BatchDirective]:
        raise NotImplementedError


class PolicyScheduler(Scheduler):
    """Adapter running a :class:`SchedulingPolicy` inside the object engine.

    The golden reference for
    :class:`~repro.scheduling.vectorized.VecPolicyScheduler`, which
    ports it line for line onto request rows.

    Translates directives into scheduled work while enforcing every
    engine invariant the policy is shielded from: the token budget
    (decodes cost one token, Sarathi accounting), the batch-size cap,
    KV reservation with preemption for decodes, and block admission
    for waiting requests (admitted out of FCFS order when the policy
    says so).  Contract violations — duplicate directives, directives
    for unknown requests, decoding a request the pool did not offer as
    a decode — raise immediately with the policy's name;
    memory-driven impossibilities are silently skipped, because pool
    state legitimately shifts as earlier directives preempt.
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        memory: MemoryManager,
        token_budget: int,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        preemption_mode: str = "recompute",
        kv_bytes_per_token: int = 0,
    ) -> None:
        super().__init__(
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

    # ------------------------------------------------------------------
    def _pool_view(self, now: float) -> PoolView:
        decodes: list[Request] = []
        prefills: list[Request] = []
        for request in self._schedulable_running():
            if request.is_prefill_complete:
                decodes.append(request)
            else:
                prefills.append(request)
        return PoolView(
            now=now,
            decodes=tuple(decodes),
            prefills=tuple(prefills),
            waiting=tuple(self.waiting),
            token_budget=self.token_budget,
            max_batch_size=self.max_batch_size,
            memory=MemoryView(
                occupancy=self.memory.occupancy,
                can_admit=self.memory.can_admit,
            ),
        )

    def _build_batch(self, now: float) -> list[ScheduledWork]:
        pool = self._pool_view(now)
        directives = self.policy.compose_batch(pool)

        items: list[ScheduledWork] = []
        tokens_used = 0
        seen: set[int] = set()
        offered = {r.request_id for r in pool.runnable}
        # Decode legality is judged on the pool the policy saw: an
        # earlier directive's recompute preemption may since have reset
        # a decoding request's prefill, which is not the policy's fault.
        decodable = {r.request_id for r in pool.decodes}
        for directive in directives:
            if len(items) >= self.max_batch_size or tokens_used >= self.token_budget:
                break
            request = directive.request
            if request.request_id not in offered:
                raise ValueError(
                    f"policy {self.policy.name!r} directed request "
                    f"{request.request_id}, which is not in its pool view"
                )
            if request.request_id in seen:
                raise ValueError(
                    f"policy {self.policy.name!r} directed request "
                    f"{request.request_id} twice in one batch"
                )
            seen.add(request.request_id)

            if directive.chunk is None:
                if request.request_id not in decodable:
                    raise ValueError(
                        f"policy {self.policy.name!r} decoded request "
                        f"{request.request_id} before its prefill completed "
                        "(pass chunk= for prefill work)"
                    )
                if request not in self.running:
                    continue  # evicted by an earlier directive's preemption
                if not self._prepare_decode(request):
                    continue  # no KV room this iteration
                items.append(ScheduledWork(
                    request=request, work=TokenWork.decode(request.context_len)
                ))
                tokens_used += 1
                continue

            if request.is_prefill_complete:
                raise ValueError(
                    f"policy {self.policy.name!r} scheduled a prefill chunk "
                    f"for request {request.request_id}, which is already "
                    "decoding (omit chunk= for decode work)"
                )
            if request not in self.running:
                if request not in self.waiting:
                    continue  # evicted and re-queued state shifted; skip
                if not self.memory.can_admit(request):
                    continue  # KV full; policy may retry next round
                self.waiting.remove(request)
                self.memory.admit(request)
                self.running.append(request)
            # Admission may have claimed a cached prefix, shrinking the
            # remaining prefill — clamp after admission, like Sarathi.
            chunk = min(
                directive.chunk,
                self.token_budget - tokens_used,
                request.remaining_prefill,
            )
            if chunk <= 0:
                continue
            self._claimed.add(request.request_id)
            items.append(ScheduledWork(
                request=request,
                work=TokenWork.prefill_chunk(
                    chunk,
                    past_len=request.prefill_done,
                    is_last=chunk >= request.remaining_prefill,
                ),
            ))
            tokens_used += chunk
        return items

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"PolicyScheduler(policy={self.policy.name!r}, "
            f"token_budget={self.token_budget}, "
            f"max_batch_size={self.max_batch_size})"
        )
