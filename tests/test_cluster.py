"""Tests for the round-robin router and ``simulate_fleet`` over several replicas."""

from __future__ import annotations

import pytest

from repro.api import ServingConfig, simulate
from repro.cluster.fleet import FleetConfig, simulate_fleet
from repro.cluster.router import FleetRouter, RoundRobinRouter

from tests.conftest import make_request


class TestRouters:
    def test_invalid_replica_count(self):
        with pytest.raises(ValueError):
            RoundRobinRouter(0)

    def test_round_robin_cycles(self):
        router = RoundRobinRouter(3)
        # Round-robin ignores the snapshots.
        choices = [router.route(make_request(), 0.0, []) for _ in range(6)]
        assert choices == [0, 1, 2, 0, 1, 2]


class TestSimulateCluster:
    def _trace(self, n=30, qps_gap=0.05):
        return [
            make_request(prompt_len=128, output_len=6, arrival_time=qps_gap * i)
            for i in range(n)
        ]

    def _run(self, deployment, trace, num_replicas, router=None):
        return simulate_fleet(
            deployment,
            ServingConfig(),
            trace,
            FleetConfig(num_replicas=num_replicas),
            router=router,
        )

    def test_all_requests_finish(self, tiny_deployment):
        result, metrics = self._run(tiny_deployment, self._trace(), 3)
        assert metrics.num_requests == 30
        merged = result.merged()
        assert not merged.unfinished

    def test_single_replica_matches_simulate(self, tiny_deployment):
        trace = self._trace()
        _, solo = simulate(tiny_deployment, ServingConfig(), trace)
        _, fleet = self._run(tiny_deployment, trace, 1, RoundRobinRouter(1))
        assert fleet.p99_tbt == pytest.approx(solo.p99_tbt)
        assert fleet.median_ttft == pytest.approx(solo.median_ttft)

    def test_more_replicas_reduce_queueing(self, tiny_deployment):
        trace = [
            make_request(prompt_len=1500, output_len=20, arrival_time=0.02 * i)
            for i in range(40)
        ]
        _, one = self._run(tiny_deployment, trace, 1)
        _, four = self._run(tiny_deployment, trace, 4)
        assert four.median_ttft < one.median_ttft

    def test_input_not_mutated(self, tiny_deployment):
        trace = self._trace()
        self._run(tiny_deployment, trace, 2, RoundRobinRouter(2))
        assert all(r.prefill_done == 0 for r in trace)

    def test_router_replica_mismatch_rejected(self, tiny_deployment):
        # A router sized for more replicas than the fleet has.
        with pytest.raises(ValueError, match="router is configured"):
            self._run(tiny_deployment, self._trace(), 2, RoundRobinRouter(4))

    def test_bad_router_output_rejected(self, tiny_deployment):
        class OffByOne(FleetRouter):
            def route(self, request, now, replicas):
                return len(replicas)

        with pytest.raises(ValueError, match="invalid replica"):
            self._run(tiny_deployment, self._trace(), 2, OffByOne(2))

    def test_empty_trace_rejected(self, tiny_deployment):
        with pytest.raises(ValueError):
            self._run(tiny_deployment, [], 2, RoundRobinRouter(2))

    def test_assignments_cover_all_requests(self, tiny_deployment):
        trace = self._trace(n=20)
        result, _ = self._run(tiny_deployment, trace, 4)
        assert len(result.assignments) == 20
        assert all(0 <= a < 4 for a in result.assignments.values())
