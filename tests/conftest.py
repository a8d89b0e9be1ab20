"""Shared fixtures: small deployments and request factories.

Simulation tests run against the Tiny-1B catalog model so the whole
suite stays fast while exercising exactly the same code paths as the
paper-scale models.
"""

from __future__ import annotations

import pytest

from repro.api import Deployment
from repro.hardware.catalog import A100_80G, ETHERNET_100G
from repro.memory.block_manager import PagedBlockManager, ReservationManager
from repro.models.catalog import TINY_1B
from repro.parallel.config import ParallelConfig
from repro.types import Request

# The paper's scheduler families (§2.5, §4) plus the Table-4 ablations:
# every built-in registry name, in registration order.
BUILTIN_SCHEDULERS = (
    "faster_transformer",
    "orca",
    "vllm",
    "sarathi",
    "sarathi_dynamic",
    "chunked_prefills_only",
    "hybrid_batching_only",
)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked slow (full differential matrix, big benches)",
    )


def pytest_collection_modifyitems(config, items) -> None:
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow: run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(params=["object", "vectorized"])
def engine(request) -> str:
    """The engine kind under test.

    Any suite that takes this fixture runs twice — once against the
    object (golden-reference) core and once against the vectorized
    core — and must pass bit-identically on both.  Pass the value as
    ``ServingConfig(engine=engine)``.
    """
    return request.param


@pytest.fixture
def tiny_deployment() -> Deployment:
    """Tiny-1B on one A100 — the fast single-stage test deployment."""
    return Deployment(model=TINY_1B, gpu=A100_80G)


@pytest.fixture
def tiny_pp_deployment() -> Deployment:
    """Tiny-1B on two A100s with 2-way pipeline parallelism."""
    return Deployment(
        model=TINY_1B,
        gpu=A100_80G,
        parallel=ParallelConfig(pipeline_parallel=2, pp_link=ETHERNET_100G),
    )


@pytest.fixture
def paged_memory() -> PagedBlockManager:
    return PagedBlockManager(capacity_tokens=4096, block_size=16)


@pytest.fixture
def reservation_memory() -> ReservationManager:
    return ReservationManager(capacity_tokens=8192, reserve_len=1024)


def shrink_kv_memory(
    built, capacity_tokens: int = 4096, block_size: int = 16,
    prefix_cache: bool = False,
) -> None:
    """Swap a drastically smaller KV pool into a freshly built engine.

    The dual pattern the determinism and differential suites use to
    force preemption pressure: the object scheduler gets a small
    ``PagedBlockManager``, the vectorized one the row-indexed
    ``VecPagedMemory`` of identical shape.  Call before ``run``.
    ``prefix_cache`` attaches a fresh shared-prefix store, so cache
    behavior under memory pressure can be exercised too.
    """
    from repro.memory.prefix import SharedPrefixStore

    store = SharedPrefixStore(block_size=block_size) if prefix_cache else None
    if built.kind == "vectorized":
        from repro.scheduling.vectorized import VecPagedMemory

        built.scheduler.memory = VecPagedMemory(
            built.scheduler.A,
            capacity_tokens=capacity_tokens,
            block_size=block_size,
            watermark=0.0,
            prefix_store=store,
        )
    else:
        built.scheduler.memory = PagedBlockManager(
            capacity_tokens=capacity_tokens, block_size=block_size, watermark=0.0,
            prefix_store=store,
        )


def make_request(
    prompt_len: int = 64,
    output_len: int = 8,
    arrival_time: float = 0.0,
) -> Request:
    """A request with small defaults for unit tests."""
    return Request(
        prompt_len=prompt_len, output_len=output_len, arrival_time=arrival_time
    )


@pytest.fixture
def request_factory():
    return make_request
