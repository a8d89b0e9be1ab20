"""Theory-grounded scheduling policies from the queueing literature.

Implements, on top of the plug-in protocol (:mod:`repro.scheduling.policy`),
the policies studied by "Optimal Scheduling Algorithms for LLM
Inference: Theory and Practice" (PAPERS.md):

* :class:`SRPTOraclePolicy` — Shortest Remaining Processing Time with
  *oracle-known* output lengths.  SRPT minimizes mean flow time on a
  single server, so this is the upper bound every practical scheduler
  is measured against on the leaderboard.
* :class:`SRPTPredictedPolicy` — the deployable variant: a bucketed
  output-length estimator with configurable multiplicative error
  (deterministic per request), modeling a length-prediction model.
* :class:`AgingPriorityPolicy` — tenant-priority FCFS with starvation
  aging: a request's effective priority improves linearly with waiting
  time, so low-priority tenants are delayed under load but never
  starved.

All three compose batches under the adapter's token budget (so they
inherit Sarathi-style chunked prefills and bounded iterations) and
none defines an admission hook — they reorder work, they never shed
it.  They register themselves as ``srpt_oracle``, ``srpt_predicted``
and ``fcfs_aging`` on import (the registry imports this module).
"""

from __future__ import annotations

import math
import random

from repro.scheduling.policy import BatchDirective, PoolView, SchedulingPolicy
from repro.types import Request, stable_request_key

# Default knobs for the registered instances; custom variants can be
# registered under new names via register_policy.
DEFAULT_BUCKET_SIZE = 32
DEFAULT_PREDICTION_ERROR = 0.3


class SRPTOraclePolicy(SchedulingPolicy):
    """SRPT with oracle output lengths — the mean-latency upper bound.

    Ranks every runnable request by its true remaining service demand
    (remaining prefill tokens + remaining output tokens) and spends the
    token budget shortest-first.  Ties break by arrival time then
    request id, keeping the order deterministic.
    """

    name = "srpt-oracle"

    def remaining_service(self, request: Request) -> float:
        return request.remaining_prefill + request.remaining_output

    def compose_batch(self, pool: PoolView) -> list[BatchDirective]:
        ranked = sorted(
            pool.runnable,
            key=lambda r: (
                self.remaining_service(r), r.arrival_time, r.request_id
            ),
        )
        return [
            BatchDirective(r)
            if r.is_prefill_complete
            else BatchDirective(r, chunk=pool.token_budget)
            for r in ranked
        ]


class SRPTPredictedPolicy(SRPTOraclePolicy):
    """SRPT under a *predicted* output length, as deployed systems must.

    The predictor buckets the true output length up to a multiple of
    ``bucket_size`` (what a classifier over length classes would emit)
    and perturbs it by a deterministic per-request multiplicative error
    drawn uniformly from ``[1 - error, 1 + error]``.  ``error=0.0``
    degrades gracefully to bucketed-oracle SRPT; larger errors measure
    how fast SRPT's advantage decays with predictor quality.

    The perturbation is keyed on stable request identity (lengths,
    tenant, arrival time) rather than the process-local request id, so
    identical traces get identical predictions in every run and worker.
    """

    name = "srpt-predicted"

    def __init__(
        self,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        error: float = DEFAULT_PREDICTION_ERROR,
        seed: int = 0,
    ) -> None:
        if bucket_size <= 0:
            raise ValueError(f"bucket_size must be positive, got {bucket_size}")
        if error < 0:
            raise ValueError(f"error must be non-negative, got {error}")
        self.bucket_size = bucket_size
        self.error = error
        self.seed = seed
        self._predictions: dict[int, int] = {}

    def predicted_output_len(self, request: Request) -> int:
        cached = self._predictions.get(request.request_id)
        if cached is not None:
            return cached
        bucketed = math.ceil(request.output_len / self.bucket_size) * self.bucket_size
        rng = random.Random(self.seed * 0x9E3779B9 + stable_request_key(request))
        factor = 1.0 + self.error * rng.uniform(-1.0, 1.0)
        predicted = max(1, round(bucketed * factor))
        self._predictions[request.request_id] = predicted
        return predicted

    def remaining_service(self, request: Request) -> float:
        predicted_remaining = max(
            0, self.predicted_output_len(request) - request.num_emitted
        )
        return request.remaining_prefill + predicted_remaining


class AgingPriorityPolicy(SchedulingPolicy):
    """Tenant-priority FCFS with linear starvation aging.

    ``client_id`` doubles as the tenant's priority class (lower is more
    important, 0 the highest).  A request's effective priority is
    ``client_id - aging_rate × wait_seconds``: within a class requests
    run FCFS, across classes high-priority traffic goes first, and a
    starving low-priority request eventually out-ranks fresh
    high-priority arrivals.  Ongoing decodes are composed first so held
    KV memory keeps draining — aging governs who gets the *leftover*
    budget, preserving the stall-free iteration shape.
    """

    name = "fcfs-aging"

    def __init__(self, aging_rate: float = 0.1) -> None:
        if aging_rate < 0:
            raise ValueError(f"aging_rate must be non-negative, got {aging_rate}")
        self.aging_rate = aging_rate

    def effective_priority(self, request: Request, now: float) -> float:
        waited = max(0.0, now - request.arrival_time)
        return request.client_id - self.aging_rate * waited

    def compose_batch(self, pool: PoolView) -> list[BatchDirective]:
        def rank(request: Request) -> tuple:
            return (
                self.effective_priority(request, pool.now),
                request.arrival_time,
                request.request_id,
            )

        directives = [
            BatchDirective(r) for r in sorted(pool.decodes, key=rank)
        ]
        directives.extend(
            BatchDirective(r, chunk=pool.token_budget)
            for r in sorted((*pool.prefills, *pool.waiting), key=rank)
        )
        return directives


def _register() -> None:
    from repro.scheduling.registry import register_policy

    register_policy(
        "srpt_oracle",
        lambda ctx: SRPTOraclePolicy(),
        description="SRPT with oracle-known output lengths — the "
        "mean-latency upper bound (Optimal-Scheduling paper).",
    )
    register_policy(
        "srpt_predicted",
        lambda ctx: SRPTPredictedPolicy(),
        description="SRPT under a bucketed output-length predictor with "
        f"±{DEFAULT_PREDICTION_ERROR:.0%} deterministic error.",
    )
    register_policy(
        "fcfs_aging",
        lambda ctx: AgingPriorityPolicy(),
        description="Tenant-priority FCFS with linear starvation aging "
        "over client_id priority classes.",
    )


_register()
