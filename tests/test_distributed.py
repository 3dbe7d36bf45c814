"""Tests for the distributed (multi-machine) extension — paper Section 7."""

import numpy as np
import pytest

from repro.analysis.placement import (
    compare_placements,
    machine_breakdown,
    per_machine_variation,
)
from repro.hardware.cpu import PhaseBehavior
from repro.hardware.cache import SharedL2Model
from repro.hardware.memory import MemoryBusModel
from repro.hardware.platform import MachineConfig, cluster_machine
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.workloads.registry import make_workload
from tests.hardware.reference import compute_effective_rates

SCAN = PhaseBehavior(
    base_cpi=0.95, l2_refs_per_ins=0.024, l2_miss_ratio=0.35, cache_footprint=1.0
)

RUBIS_TIERS = ("tomcat", "jboss", "mysql", "jboss_render", "tomcat_out")


def two_machine_run(placement, num_requests=16, seed=3, delay_us=80.0):
    machine = cluster_machine(2, 4)
    config = SimConfig(
        machine=machine,
        sampling=SamplingPolicy.interrupt(100.0),
        num_requests=num_requests,
        concurrency=10,
        seed=seed,
        tier_placement=placement,
        network_delay_us=delay_us,
    )
    return machine, ServerSimulator(make_workload("rubis"), config).run()


class TestClusterMachine:
    def test_topology(self):
        machine = cluster_machine(2, 4)
        assert machine.num_cores == 8
        assert machine.num_machines == 2
        assert machine.machine_cores(0) == (0, 1, 2, 3)
        assert machine.machine_cores(1) == (4, 5, 6, 7)
        assert machine.bus_domain_of(5) == 1
        assert machine.bus_peers_of(0) == (1, 2, 3)

    def test_l2_domains_within_machines(self):
        machine = cluster_machine(3, 4)
        for die in machine.l2_domains:
            machines = {machine.bus_domain_of(c) for c in die}
            assert len(machines) == 1

    def test_single_machine_default_bus(self):
        machine = MachineConfig()
        assert machine.num_machines == 1
        assert machine.bus_peers_of(0) == (1, 2, 3)

    def test_l2_domain_spanning_machines_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(
                num_cores=4,
                l2_domains=((0, 1), (2, 3)),
                bus_domains=((0, 2), (1, 3)),
            )

    def test_invalid_cluster_params(self):
        with pytest.raises(ValueError):
            cluster_machine(0, 4)


class TestCrossMachineContention:
    def test_no_bus_coupling_across_machines(self):
        machine = cluster_machine(2, 4)
        cache, bus = SharedL2Model(), MemoryBusModel()
        # One scan alone on machine 0.
        solo = compute_effective_rates(machine, cache, bus, {0: SCAN})
        # Scans saturating machine 1 must not slow machine 0's core.
        remote = compute_effective_rates(
            machine, cache, bus, {0: SCAN, 4: SCAN, 5: SCAN, 6: SCAN, 7: SCAN}
        )
        assert remote[0].cpi == pytest.approx(solo[0].cpi)

    def test_local_coupling_still_applies(self):
        machine = cluster_machine(2, 4)
        cache, bus = SharedL2Model(), MemoryBusModel()
        solo = compute_effective_rates(machine, cache, bus, {0: SCAN})
        local = compute_effective_rates(machine, cache, bus, {0: SCAN, 1: SCAN})
        assert local[0].cpi > solo[0].cpi


class TestTierPlacement:
    def test_stages_land_on_assigned_machines(self):
        placement = {t: 0 for t in RUBIS_TIERS}
        placement["mysql"] = 1
        machine, run = two_machine_run(placement)
        for trace in run.traces:
            machines_used = {machine.bus_domain_of(int(c)) for c in trace.core}
            assert machines_used == {0, 1}

    def test_all_on_one_machine_leaves_other_idle(self):
        placement = {t: 0 for t in RUBIS_TIERS}
        machine, run = two_machine_run(placement)
        assert np.all(run.busy_cycles_per_core[4:] == 0.0)

    def test_network_delay_adds_latency_not_cpu(self):
        split = {t: 0 for t in RUBIS_TIERS}
        split["mysql"] = 1
        _, slow_net = two_machine_run(split, delay_us=500.0, seed=9)
        _, fast_net = two_machine_run(split, delay_us=1.0, seed=9)
        lat_slow = np.mean(
            [t.completion_cycle - t.arrival_cycle for t in slow_net.traces]
        )
        lat_fast = np.mean(
            [t.completion_cycle - t.arrival_cycle for t in fast_net.traces]
        )
        assert lat_slow > lat_fast
        # The latency gap reflects the network delay (requests cross
        # machines twice), partially offset by closed-loop queueing:
        # in-flight requests relieve CPU contention for the others.
        assert lat_slow - lat_fast > 250.0 * 3000.0
        # The delay is pure wait: per-request CPU consumption is unchanged.
        cpu_slow = np.mean([t.cpu_time_us() for t in slow_net.traces])
        cpu_fast = np.mean([t.cpu_time_us() for t in fast_net.traces])
        assert cpu_slow == pytest.approx(cpu_fast, rel=0.1)

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError):
            two_machine_run({"mysql": 7})

    def test_unplaced_tier_defaults_to_machine_zero(self):
        machine, run = two_machine_run({"mysql": 1})  # others unlisted
        for trace in run.traces:
            domains = {machine.bus_domain_of(int(c)) for c in trace.core}
            assert domains == {0, 1}


class TestPlacementAnalysis:
    @pytest.fixture(scope="class")
    def split_run(self):
        placement = {t: 0 for t in RUBIS_TIERS}
        placement["mysql"] = 1
        return two_machine_run(placement, num_requests=16)

    def test_machine_breakdown_conserves_counters(self, split_run):
        machine, run = split_run
        trace = run.traces[0]
        shares = machine_breakdown(trace, machine)
        assert set(shares) == {0, 1}
        total_ins = sum(s.instructions for s in shares.values())
        assert total_ins == pytest.approx(trace.total_instructions)
        total_cycles = sum(s.cycles for s in shares.values())
        assert total_cycles == pytest.approx(trace.total_cycles)

    def test_per_machine_variation_report(self, split_run):
        machine, run = split_run
        report = per_machine_variation(run.traces, machine)
        assert set(report) == {0, 1}
        shares = [report[m]["instruction_share"] for m in (0, 1)]
        assert sum(shares) == pytest.approx(1.0)
        for stats in report.values():
            assert stats["mean_cpi"] > 0
            assert stats["cpi_cov"] >= 0
            assert stats["requests_seen"] == len(run.traces)

    def test_compare_placements_returns_sorted_rows(self):
        machine = cluster_machine(2, 4)
        placements = {
            "together": {t: 0 for t in RUBIS_TIERS},
            "db-split": {**{t: 0 for t in RUBIS_TIERS}, "mysql": 1},
        }
        rows = compare_placements(
            "rubis", placements, machine, num_requests=10, seed=4
        )
        assert [r["placement"] for r in rows] == sorted(
            (r["placement"] for r in rows),
            key=lambda label: next(
                row["mean_latency_us"] for row in rows if row["placement"] == label
            ),
        )
        for row in rows:
            assert row["mean_cpi"] > 0
            assert row["throughput_req_per_s"] > 0

    def test_spreading_relieves_contention(self):
        """Isolating the database must lower mean CPI vs consolidation —
        the placement-guidance claim of the paper's future work."""
        machine = cluster_machine(2, 4)
        placements = {
            "together": {t: 0 for t in RUBIS_TIERS},
            "db-split": {**{t: 0 for t in RUBIS_TIERS}, "mysql": 1},
        }
        rows = {
            r["placement"]: r
            for r in compare_placements(
                "rubis", placements, machine, num_requests=24, seed=5
            )
        }
        assert rows["db-split"]["mean_cpi"] < rows["together"]["mean_cpi"]
