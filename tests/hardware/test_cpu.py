"""Tests for phase behavior and effective-rate computation."""

import pytest

from repro.hardware.cache import SharedL2Model
from repro.hardware.cpu import (
    EffectiveRates,
    PhaseBehavior,
    compute_effective_rates,
)
from repro.hardware.memory import MemoryBusModel
from repro.hardware.platform import WOODCREST, serial_machine

SCAN = PhaseBehavior(
    base_cpi=0.95, l2_refs_per_ins=0.024, l2_miss_ratio=0.35, cache_footprint=1.0
)
COMPUTE = PhaseBehavior(
    base_cpi=1.3, l2_refs_per_ins=0.002, l2_miss_ratio=0.15, cache_footprint=0.05
)


def rates_for(behaviors, machine=WOODCREST):
    return compute_effective_rates(
        machine, SharedL2Model(), MemoryBusModel(), behaviors
    )


class TestPhaseBehavior:
    def test_solo_cpi(self):
        b = PhaseBehavior(1.0, 0.01, 0.5, 0.5)
        assert b.solo_cpi(200.0) == pytest.approx(1.0 + 200 * 0.01 * 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(base_cpi=0.0, l2_refs_per_ins=0.0, l2_miss_ratio=0.0, cache_footprint=0.0),
            dict(base_cpi=1.0, l2_refs_per_ins=-0.1, l2_miss_ratio=0.0, cache_footprint=0.0),
            dict(base_cpi=1.0, l2_refs_per_ins=0.0, l2_miss_ratio=1.5, cache_footprint=0.0),
            dict(base_cpi=1.0, l2_refs_per_ins=0.0, l2_miss_ratio=0.0, cache_footprint=2.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PhaseBehavior(**kwargs)


class TestEffectiveRates:
    def test_counters_for_instructions(self):
        r = EffectiveRates(cpi=2.0, l2_refs_per_ins=0.01, l2_miss_ratio=0.5)
        c = r.counters_for_instructions(1000)
        assert c.cycles == pytest.approx(2000)
        assert c.instructions == pytest.approx(1000)
        assert c.l2_refs == pytest.approx(10)
        assert c.l2_misses == pytest.approx(5)

    def test_instructions_for_cycles_inverse(self):
        r = EffectiveRates(cpi=2.5, l2_refs_per_ins=0.0, l2_miss_ratio=0.0)
        assert r.instructions_for_cycles(250) == pytest.approx(100)

    def test_value_semantics_match_the_former_dataclass(self):
        """Equality, hash and repr as the frozen dataclass defined them."""
        r = EffectiveRates(cpi=2.0, l2_refs_per_ins=0.01, l2_miss_ratio=0.5)
        same = EffectiveRates(2.0, 0.01, 0.5)
        assert r == same and not r != same
        assert hash(r) == hash(same) == hash((2.0, 0.01, 0.5))
        assert len({r, same}) == 1
        assert r != EffectiveRates(2.0, 0.01, 0.25)
        assert r != EffectiveRates(2.5, 0.01, 0.5)
        # A field tuple is not an EffectiveRates, and no subclass is
        # equal either (the dataclass compared exact classes).
        assert r != (2.0, 0.01, 0.5)
        assert r.__eq__((2.0, 0.01, 0.5)) is NotImplemented

        class Sub(EffectiveRates):
            __slots__ = ()

        assert r != Sub(2.0, 0.01, 0.5)
        assert repr(r) == (
            "EffectiveRates(cpi=2.0, l2_refs_per_ins=0.01, l2_miss_ratio=0.5)"
        )
        assert eval(repr(r)) == r

    def test_slotted(self):
        r = EffectiveRates(cpi=2.0, l2_refs_per_ins=0.01, l2_miss_ratio=0.5)
        assert not hasattr(r, "__dict__")
        with pytest.raises(AttributeError):
            r.extra = 1.0


class TestComputeEffectiveRates:
    def test_solo_matches_solo_cpi(self):
        rates = rates_for({0: SCAN}, machine=serial_machine())
        assert rates[0].cpi == pytest.approx(
            SCAN.solo_cpi(WOODCREST.l2_miss_penalty_cycles)
        )
        assert rates[0].l2_miss_ratio == pytest.approx(SCAN.l2_miss_ratio)

    def test_l2_peer_inflates(self):
        solo = rates_for({0: SCAN})
        pair = rates_for({0: SCAN, 1: SCAN})
        assert pair[0].cpi > solo[0].cpi
        assert pair[0].l2_miss_ratio > solo[0].l2_miss_ratio

    def test_cross_die_couples_only_through_bus(self):
        """A core on the other die adds bus pressure but no L2 inflation."""
        solo = rates_for({0: SCAN})
        cross = rates_for({0: SCAN, 2: SCAN})
        assert cross[0].l2_miss_ratio == pytest.approx(solo[0].l2_miss_ratio)
        assert cross[0].cpi > solo[0].cpi  # bus contention only

    def test_same_die_hurts_more_than_cross_die(self):
        same = rates_for({0: SCAN, 1: SCAN})
        cross = rates_for({0: SCAN, 2: SCAN})
        assert same[0].cpi > cross[0].cpi

    def test_compute_phase_barely_affected(self):
        """The WeBWorK story: tiny footprint -> negligible obfuscation."""
        solo = rates_for({0: COMPUTE}, machine=serial_machine())
        crowded = rates_for({0: COMPUTE, 1: SCAN, 2: SCAN, 3: SCAN})
        assert crowded[0].cpi < solo[0].cpi * 1.15

    def test_scan_heavily_affected_when_crowded(self):
        solo = rates_for({0: SCAN}, machine=serial_machine())
        crowded = rates_for({0: SCAN, 1: SCAN, 2: SCAN, 3: SCAN})
        assert crowded[0].cpi > solo[0].cpi * 1.3

    def test_idle_cores_absent_from_result(self):
        rates = rates_for({2: SCAN})
        assert set(rates) == {2}

    def test_symmetry(self):
        rates = rates_for({0: SCAN, 1: SCAN, 2: SCAN, 3: SCAN})
        assert rates[0].cpi == pytest.approx(rates[3].cpi)
