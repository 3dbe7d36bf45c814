"""Simulated multicore hardware substrate.

The paper measured a 2-socket, 4-core Intel Xeon 5160 ("Woodcrest") machine
where each pair of cores shares one 4 MB L2 cache, using per-core hardware
performance counters.  This package substitutes a behavioral model that
exposes the same four counters the paper samples (CPU cycles, retired
instructions, L2 references, L2 misses) and couples co-running cores through
shared-L2 miss-ratio inflation and memory-bus bandwidth stalls.
"""

from repro.hardware.cache import SharedL2Model
from repro.hardware.counters import CounterSnapshot, SamplingContext, SamplingCostModel
from repro.hardware.cpu import (
    EffectiveRates,
    PhaseBehavior,
    compute_effective_rates,
)
from repro.hardware.memory import MemoryBusModel
from repro.hardware.platform import WOODCREST, MachineConfig

__all__ = [
    "CounterSnapshot",
    "EffectiveRates",
    "MachineConfig",
    "MemoryBusModel",
    "PhaseBehavior",
    "SamplingContext",
    "SamplingCostModel",
    "SharedL2Model",
    "WOODCREST",
    "compute_effective_rates",
]
