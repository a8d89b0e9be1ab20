"""Request routers for the event-driven fleet simulator.

At every arrival a :class:`FleetRouter` receives a live
:class:`ReplicaSnapshot` per replica — queue depth, outstanding tokens,
KV occupancy, recently observed TBT tail — exactly the feedback a
production gateway gets from replica health/metrics endpoints.  The
fleet (:mod:`repro.cluster.fleet`) fails over deterministically when a
router picks a crashed or draining replica, so a router may ignore the
snapshots entirely (:class:`RoundRobinRouter`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from operator import attrgetter

from repro.types import Request


# ----------------------------------------------------------------------
# Live replica state (produced by the fleet simulator each arrival)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaSnapshot:
    """What the routing tier knows about one replica *right now*."""

    index: int
    alive: bool
    # Requests queued at the replica but not yet admitted to KV memory.
    queue_depth: int
    # Requests admitted and progressing (prefill or decode).
    num_running: int
    # All unfinished requests resident on the replica.
    num_pending: int
    # Remaining prefill + remaining output tokens across pending work.
    outstanding_tokens: int
    # Fraction of KV-cache capacity currently claimed, in [0, 1].
    kv_occupancy: float
    # P99 over the replica's recent TBT samples (None before any
    # decode tokens have been observed, or right after a restart).
    recent_p99_tbt: float | None
    # Health monitor is draining this replica: alive and finishing its
    # in-flight work, but not accepting new arrivals.
    draining: bool = False


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
class FleetRouter(abc.ABC):
    """Routes arrivals against live replica state (fleet simulator)."""

    def __init__(self, num_replicas: int) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.num_replicas = num_replicas

    @abc.abstractmethod
    def route(
        self, request: Request, now: float, replicas: list[ReplicaSnapshot]
    ) -> int:
        """Replica index for this request; should pick an alive replica."""


class RoundRobinRouter(FleetRouter):
    """Cycle through replicas regardless of request size or state."""

    def __init__(self, num_replicas: int) -> None:
        super().__init__(num_replicas)
        self._next = 0

    def route(
        self, request: Request, now: float, replicas: list[ReplicaSnapshot]
    ) -> int:
        choice = self._next
        self._next = (self._next + 1) % self.num_replicas
        return choice


_LOAD_KEY = attrgetter("outstanding_tokens", "queue_depth", "index")


def _least_loaded(pool: list[ReplicaSnapshot]) -> int:
    """Lowest outstanding work; queue depth then index break ties."""
    return min(pool, key=_LOAD_KEY).index


class LeastOutstandingTokensRouter(FleetRouter):
    """Join the replica with the least *live* outstanding work.

    It reads each replica's actual remaining prefill+decode tokens at
    the moment of arrival — finished work stops counting, so a replica
    that drained its backlog immediately becomes attractive again (true
    join-shortest-queue on token work rather than request count).
    """

    def route(
        self, request: Request, now: float, replicas: list[ReplicaSnapshot]
    ) -> int:
        alive = [s for s in replicas if s.alive]
        if not alive:
            raise ValueError("no alive replica to route to")
        return _least_loaded(alive)


class SloAwareRouter(FleetRouter):
    """Avoid replicas whose recent TBT tail violates the SLO.

    Replicas whose observed recent P99 TBT exceeds ``tbt_slo`` are
    treated as degraded and skipped while at least one healthy replica
    exists (a degraded replica keeps its current work; it just stops
    receiving new arrivals until its tail recovers).  Within the chosen
    pool the least-outstanding-tokens rule applies.
    """

    def __init__(self, num_replicas: int, tbt_slo: float) -> None:
        super().__init__(num_replicas)
        if tbt_slo <= 0:
            raise ValueError("tbt_slo must be positive")
        self.tbt_slo = tbt_slo

    def route(
        self, request: Request, now: float, replicas: list[ReplicaSnapshot]
    ) -> int:
        alive = [s for s in replicas if s.alive]
        if not alive:
            raise ValueError("no alive replica to route to")
        healthy = [
            s
            for s in alive
            if s.recent_p99_tbt is None or s.recent_p99_tbt <= self.tbt_slo
        ]
        return _least_loaded(healthy or alive)
