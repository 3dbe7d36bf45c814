"""Tests for workload construction helpers and the reference jitter chain."""

import numpy as np
import pytest

from repro.workloads.util import phase
from tests.workloads.reference import jittered, jittered_int


class TestJittered:
    def test_zero_frac_identity(self, rng):
        assert jittered(rng, 5.0, 0.0) == 5.0

    def test_floor_at_half_nominal(self):
        """Even extreme draws never produce non-positive rates."""
        rng = np.random.default_rng(0)
        draws = [jittered(rng, 1.0, 3.0) for _ in range(2000)]
        assert min(draws) >= 0.5

    def test_scale_free(self, rng):
        """The floor scales with the value (no absolute cutoff that would
        clobber small rates like refs/ins)."""
        tiny = [jittered(np.random.default_rng(k), 0.001, 0.1) for k in range(200)]
        assert min(tiny) >= 0.0005
        assert max(tiny) < 0.0015

    def test_jittered_int_minimum(self, rng):
        assert jittered_int(rng, 10, 0.0) == 1000  # default floor
        assert jittered_int(rng, 10, 0.0, lo=5) == 10

    def test_mean_preserved(self):
        rng = np.random.default_rng(1)
        draws = [jittered(rng, 10.0, 0.1) for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(10.0, rel=0.02)


class TestPhaseHelper:
    def test_builds_phase(self):
        p = phase("x", 1000, cpi=1.5, refs=0.01, miss=0.3, footprint=0.5)
        assert p.name == "x"
        assert p.instructions == 1000
        assert p.behavior.base_cpi == 1.5
        assert p.entry_syscall is None
        assert p.syscall_rate_per_ins == 0.0

    def test_entry_and_rate(self):
        p = phase(
            "y", 500, cpi=1.0, refs=0.0, miss=0.0, footprint=0.0,
            entry="read", rate=0.001, pool=("read",),
        )
        assert p.entry_syscall == "read"
        assert p.mean_syscall_distance_ins() == 1000.0

    def test_float_instructions_coerced(self):
        p = phase("z", 1000.7, cpi=1.0, refs=0.0, miss=0.0, footprint=0.0)
        assert p.instructions == 1000
