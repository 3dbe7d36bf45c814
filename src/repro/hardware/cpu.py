"""Solo hardware behavior of one execution phase.

The simulator is a piecewise-constant-rate model: between OS-visible events,
each core executes with fixed effective rates (cycles per instruction, L2
references per instruction, L2 miss ratio) derived from the running phase's
base behavior (:class:`PhaseBehavior`) plus the contention exerted by
co-runners.  At every event the affected cores lazily accumulate counters
for the elapsed interval and the rates are recomputed
(``ServerSimulator._recompute_rates``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PhaseBehavior:
    """Solo (uncontended) hardware behavior of one execution phase."""

    #: Cycles per instruction with all L2 misses excluded (hits included).
    base_cpi: float
    #: L2 cache references per retired instruction.
    l2_refs_per_ins: float
    #: Solo L2 miss ratio (misses per reference).
    l2_miss_ratio: float
    #: Fraction of the shared L2 this phase wants to occupy, in [0, 1].
    cache_footprint: float

    def __post_init__(self):
        # Written so that NaN fails each check: a NaN rate would put a NaN
        # deadline in the simulator's event calendar, where that core's
        # phase would never end.
        if not self.base_cpi > 0:
            raise ValueError("base_cpi must be positive")
        if not self.l2_refs_per_ins >= 0:
            raise ValueError("l2_refs_per_ins must be non-negative")
        if not 0.0 <= self.l2_miss_ratio <= 1.0:
            raise ValueError("l2_miss_ratio must be in [0, 1]")
        if not 0.0 <= self.cache_footprint <= 1.0:
            raise ValueError("cache_footprint must be in [0, 1]")

    def solo_cpi(self, miss_penalty_cycles: float) -> float:
        """Overall CPI when running alone on the machine."""
        return self.base_cpi + (
            miss_penalty_cycles * self.l2_refs_per_ins * self.l2_miss_ratio
        )
