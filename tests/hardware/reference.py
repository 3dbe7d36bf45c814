"""Reference contention solve: the oracle for the simulator's rate slots.

:func:`compute_effective_rates` solves every running core's effective
rates from scratch in one pass; :class:`EffectiveRates` is its return
type.  The simulator keeps the same solve per core, in the ``cpi``,
``ref_rate`` and ``miss_ratio`` slots of its cores, recomputing only what
changed (``ServerSimulator._recompute_rates``).
``tests/kernel/test_rate_solve_properties.py`` pins those slots to this
function bit for bit, ``tests/hardware/test_cpu.py`` and
``tests/test_distributed.py`` check the contention model's shape through
it.
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.cache import SharedL2Model, phase_pressure
from repro.hardware.counters import CounterSnapshot
from repro.hardware.cpu import PhaseBehavior
from repro.hardware.memory import MemoryBusModel
from repro.hardware.platform import MachineConfig


class EffectiveRates:
    """Contention-adjusted execution rates for one core's current phase.

    The return type of :func:`compute_effective_rates`; the simulator
    keeps the same three values in per-core slots instead.  A hand-written
    ``__slots__`` class whose value semantics (equality, hashing, repr)
    match the former frozen dataclass exactly; treat instances as
    immutable.
    """

    __slots__ = ("cpi", "l2_refs_per_ins", "l2_miss_ratio")

    def __init__(self, cpi: float, l2_refs_per_ins: float, l2_miss_ratio: float):
        self.cpi = cpi
        self.l2_refs_per_ins = l2_refs_per_ins
        self.l2_miss_ratio = l2_miss_ratio

    def _fields(self) -> tuple:
        return (self.cpi, self.l2_refs_per_ins, self.l2_miss_ratio)

    def __repr__(self) -> str:
        return (
            f"EffectiveRates(cpi={self.cpi!r}, "
            f"l2_refs_per_ins={self.l2_refs_per_ins!r}, "
            f"l2_miss_ratio={self.l2_miss_ratio!r})"
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def counters_for_instructions(self, instructions: float) -> CounterSnapshot:
        refs = instructions * self.l2_refs_per_ins
        return CounterSnapshot(
            cycles=instructions * self.cpi,
            instructions=instructions,
            l2_refs=refs,
            l2_misses=refs * self.l2_miss_ratio,
        )

    def instructions_for_cycles(self, cycles: float) -> float:
        return cycles / self.cpi


def compute_effective_rates(
    machine: MachineConfig,
    cache: SharedL2Model,
    bus: MemoryBusModel,
    behaviors: Dict[int, PhaseBehavior],
) -> Dict[int, EffectiveRates]:
    """Compute every running core's effective rates under contention.

    ``behaviors`` maps core id -> the phase currently running there (idle
    cores are simply absent).  The computation is a single pass:

    1. each running phase exerts cache pressure on its L2-domain peers,
       inflating their miss ratio and reference rate;
    2. each core's approximate miss traffic then contributes bus occupancy,
       inflating the *other* cores' effective miss penalty;
    3. the final CPI combines the base CPI with the inflated miss costs.
    """
    pressures = {
        core: phase_pressure(b.l2_refs_per_ins, b.base_cpi, b.cache_footprint)
        for core, b in behaviors.items()
    }

    miss_ratios: Dict[int, float] = {}
    ref_rates: Dict[int, float] = {}
    for core, behavior in behaviors.items():
        co_pressure = sum(
            pressures[peer]
            for peer in machine.l2_peers_of(core)
            if peer in behaviors
        )
        miss_ratios[core] = cache.effective_miss_ratio(
            behavior.l2_miss_ratio, behavior.cache_footprint, co_pressure
        )
        ref_rates[core] = cache.effective_ref_rate(
            behavior.l2_refs_per_ins, co_pressure
        )

    traffic = {
        core: bus.miss_traffic(
            ref_rates[core],
            miss_ratios[core],
            behaviors[core].solo_cpi(machine.l2_miss_penalty_cycles),
        )
        for core in behaviors
    }
    # Bus occupancy accumulates per machine: cores on different machines
    # (bus domains) do not contend for each other's memory bandwidth.
    bus_totals: Dict[int, float] = {}
    for core, value in traffic.items():
        domain = machine.bus_domain_of(core)
        bus_totals[domain] = bus_totals.get(domain, 0.0) + value

    rates: Dict[int, EffectiveRates] = {}
    for core, behavior in behaviors.items():
        others = bus_totals[machine.bus_domain_of(core)] - traffic[core]
        penalty = bus.effective_miss_penalty(
            machine.l2_miss_penalty_cycles, others
        )
        cpi = behavior.base_cpi + penalty * ref_rates[core] * miss_ratios[core]
        rates[core] = EffectiveRates(
            cpi=cpi,
            l2_refs_per_ins=ref_rates[core],
            l2_miss_ratio=miss_ratios[core],
        )
    return rates
