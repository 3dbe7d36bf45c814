"""Generative workload models for the paper's five server applications.

Each generator produces :class:`~repro.workloads.base.RequestSpec` objects —
tier-structured sequences of execution phases annotated with solo hardware
behavior and system-call patterns — calibrated against the characterization
published in the paper (request lengths, transaction mixes, CPI ranges,
system-call distance distributions).
"""

from repro.workloads.base import Phase, RequestSpec, Stage, WorkloadGenerator
from repro.workloads.microbench import MbenchData, MbenchSpin
from repro.workloads.registry import (
    FixedKindWorkload,
    available_workloads,
    make_faulted_workload,
    make_workload,
)
from repro.workloads.rubis import RubisWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpch import TpchWorkload
from repro.workloads.webserver import WebServerWorkload
from repro.workloads.webwork import WeBWorKWorkload

__all__ = [
    "FixedKindWorkload",
    "MbenchData",
    "MbenchSpin",
    "Phase",
    "RequestSpec",
    "RubisWorkload",
    "Stage",
    "TpccWorkload",
    "TpchWorkload",
    "WeBWorKWorkload",
    "WebServerWorkload",
    "WorkloadGenerator",
    "available_workloads",
    "make_faulted_workload",
    "make_workload",
]
