"""Scheduling policies: the paper's baselines, ablations, and plug-ins.

The Sarathi-Serve scheduler itself — the paper's core contribution —
lives in :mod:`repro.core`.  Third-party policies enter through the
plug-in protocol (:mod:`repro.scheduling.policy`) and the registry
(:mod:`repro.scheduling.registry`); the theory-grounded baselines
(SRPT oracle/predicted, priority+aging) live in
:mod:`repro.scheduling.theory`.
"""

from repro.scheduling.ablations import (
    ChunkedPrefillsOnlyScheduler,
    hybrid_batching_only_scheduler,
)
from repro.scheduling.base import DEFAULT_MAX_BATCH_SIZE, Scheduler
from repro.scheduling.faster_transformer import FasterTransformerScheduler
from repro.scheduling.orca import OrcaScheduler
from repro.scheduling.policy import (
    BatchDirective,
    MemoryView,
    PolicyScheduler,
    PoolView,
    SchedulingPolicy,
)
from repro.scheduling.registry import (
    SchedulerBuildContext,
    SchedulerSpec,
    VecSchedulerBuildContext,
    list_specs,
    register,
    register_policy,
    registered_names,
    resolve,
    unregister,
)
from repro.scheduling.theory import (
    AgingPriorityPolicy,
    SRPTOraclePolicy,
    SRPTPredictedPolicy,
)
from repro.scheduling.vllm import DEFAULT_MAX_BATCHED_TOKENS, VLLMScheduler

__all__ = [
    "Scheduler",
    "DEFAULT_MAX_BATCH_SIZE",
    "DEFAULT_MAX_BATCHED_TOKENS",
    "FasterTransformerScheduler",
    "OrcaScheduler",
    "VLLMScheduler",
    "ChunkedPrefillsOnlyScheduler",
    "hybrid_batching_only_scheduler",
    # plug-in protocol
    "SchedulingPolicy",
    "PolicyScheduler",
    "PoolView",
    "MemoryView",
    "BatchDirective",
    # registry
    "SchedulerSpec",
    "SchedulerBuildContext",
    "VecSchedulerBuildContext",
    "register",
    "register_policy",
    "registered_names",
    "resolve",
    "list_specs",
    "unregister",
    # theory-grounded policies
    "SRPTOraclePolicy",
    "SRPTPredictedPolicy",
    "AgingPriorityPolicy",
]
