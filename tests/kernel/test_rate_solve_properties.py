"""Property lockdown of the engine's per-core contention solve.

``ServerSimulator._recompute_rates`` caches each core's cache pressure,
solo CPI, miss ratio, reference rate and bus traffic, and recomputes them
only when that core's behavior object or its L2 co-pressure changes.
These tests drive the solve directly through sequences of per-core
changes — phase changes, cores going idle, peers coming back, one
behavior object on several cores, fully idle L2 domains — and demand
after every step that each busy core's rate slots (``cpi``, ``ref_rate``,
``miss_ratio``) equal the reference solve ``compute_effective_rates``
(``tests/hardware/reference.py``) on the same behaviors, bit for bit, and
that every idle core's ``cpi`` is None.  The reference is recomputed from
scratch each step, so any stale cache entry shows up as a differing bit.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import SharedL2Model
from repro.hardware.cpu import PhaseBehavior
from repro.hardware.platform import (
    WOODCREST,
    MachineConfig,
    cluster_machine,
    serial_machine,
)
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.workloads.registry import make_workload
from tests.hardware.reference import EffectiveRates, compute_effective_rates

MACHINES = [WOODCREST, cluster_machine(2, 4), serial_machine()]

SCAN = PhaseBehavior(0.95, 0.024, 0.35, 1.0)
JOIN = PhaseBehavior(1.1, 0.018, 0.5, 0.7)
COMPUTE = PhaseBehavior(1.3, 0.002, 0.15, 0.05)
#: Zero footprint exerts zero pressure: a busy peer then contributes the
#: float 0.0, where an idle one leaves the int 0 the reference sums from.
NO_FOOTPRINT = PhaseBehavior(0.8, 0.01, 0.2, 0.0)


def _make_sim(machine) -> ServerSimulator:
    # Interrupt sampling: the solve's timer updates then draw no RNG.
    return ServerSimulator(
        make_workload("mbench_spin"),
        SimConfig(machine=machine, sampling=SamplingPolicy.interrupt(100.0)),
    )


def _place(sim, cid, behavior) -> None:
    """Run ``behavior`` on core ``cid`` (None idles it), as a dispatch does."""
    core = sim.cores[cid]
    if behavior is None:
        core.task = None
        sim._clear_core(core)
        return
    core.task = SimpleNamespace(phase_index=0, instructions_done_in_phase=0.0)
    core.phases = (SimpleNamespace(behavior=behavior, instructions=1e6),)


def _bits(rates) -> tuple:
    return (
        rates.cpi.hex(),
        rates.l2_refs_per_ins.hex(),
        rates.l2_miss_ratio.hex(),
    )


def _slot_rates(core) -> EffectiveRates:
    """The core's rate slots, in the reference's return type."""
    return EffectiveRates(core.cpi, core.ref_rate, core.miss_ratio)


def _check(sim) -> None:
    sim._recompute_rates()
    running = {
        core.cid: core.phases[core.task.phase_index].behavior
        for core in sim.cores
        if core.task is not None
    }
    expected = compute_effective_rates(
        sim.machine, sim.config.cache, sim.config.bus, running
    )
    for core in sim.cores:
        if core.task is None:
            assert core.cpi is None
            continue
        assert _bits(_slot_rates(core)) == _bits(expected[core.cid]), core.cid
        assert _slot_rates(core) == expected[core.cid]


def _walk(machine, steps) -> ServerSimulator:
    sim = _make_sim(machine)
    for cid, behavior in steps:
        _place(sim, cid, behavior)
        _check(sim)
    return sim


def test_named_transitions():
    """Each case the cache must notice, on the two-die machine."""
    _walk(
        WOODCREST,
        [
            (0, SCAN),
            (1, JOIN),
            (2, COMPUTE),
            (3, NO_FOOTPRINT),
            (0, COMPUTE),  # phase change: core 0 and its peer recompute
            (1, None),  # a core goes idle: core 0's co-pressure drops to int 0
            (1, JOIN),  # the peer comes back with its old behavior
            (2, SCAN),
            (3, SCAN),  # one behavior object on two peer cores
            (1, SCAN),  # ... and on three cores across both dies
            (0, None),
            (1, None),  # an all-idle L2 domain next to a busy one
            (2, NO_FOOTPRINT),  # a busy zero-pressure peer: float 0.0
            (0, SCAN),
            (2, None),
            (3, None),  # the other domain idles
            (0, None),  # every core idle
            (3, JOIN),
        ],
    )


def test_equal_but_distinct_behavior_objects():
    """A fresh object with equal values hits no identity-keyed entry."""
    twin = PhaseBehavior(
        SCAN.base_cpi, SCAN.l2_refs_per_ins, SCAN.l2_miss_ratio,
        SCAN.cache_footprint,
    )
    _walk(WOODCREST, [(0, SCAN), (1, JOIN), (0, twin), (1, twin), (0, SCAN)])


behaviors = st.builds(
    PhaseBehavior,
    base_cpi=st.floats(min_value=0.2, max_value=6.0),
    l2_refs_per_ins=st.floats(min_value=0.0, max_value=0.06),
    l2_miss_ratio=st.floats(min_value=0.0, max_value=1.0),
    cache_footprint=st.one_of(
        st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    machine=st.sampled_from(MACHINES),
    pool=st.lists(behaviors, min_size=1, max_size=4),
    moves=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_solve_matches_reference_after_every_step(machine, pool, moves):
    # Indices into a small shared pool make the same behavior object
    # recur on one core and land on several cores at once.
    steps = [
        (cid % machine.num_cores, None if pick is None else pool[pick % len(pool)])
        for cid, pick in moves
    ]
    _walk(machine, steps)


CAP = SharedL2Model().miss_ratio_cap

#: Behaviors where the solve's clamps bind: solo miss ratios at or above
#: the cap, where ``max(base, inflated)`` keeps the base, and footprints
#: of exactly 0 and 1, the ends of the sensitivity clamp.  Heavy
#: reference rates on cheap CPIs push the co-pressure toward saturation.
clamp_behaviors = st.builds(
    PhaseBehavior,
    base_cpi=st.floats(min_value=0.2, max_value=6.0),
    l2_refs_per_ins=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=0.5)
    ),
    l2_miss_ratio=st.one_of(
        st.just(CAP), st.just(1.0), st.floats(min_value=CAP, max_value=1.0)
    ),
    cache_footprint=st.sampled_from([0.0, 1.0]),
)


#: At a 220-cycle miss penalty one core's bus traffic stays below
#: 24/220 of the bus; a 2-cycle penalty lets it reach the 0.9 bound.
CHEAP_MISSES = MachineConfig(l2_miss_penalty_cycles=2.0)


@settings(max_examples=150, deadline=None)
@given(
    machine=st.sampled_from(MACHINES + [CHEAP_MISSES]),
    pool=st.lists(
        st.one_of(clamp_behaviors, behaviors), min_size=1, max_size=4
    ),
    moves=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_solve_matches_reference_where_clamps_bind(machine, pool, moves):
    steps = [
        (cid % machine.num_cores, None if pick is None else pool[pick % len(pool)])
        for cid, pick in moves
    ]
    sim = _walk(machine, steps)
    for core in sim.cores:
        if core.task is not None:
            base = core.behavior.l2_miss_ratio
            if base >= CAP:
                assert core.miss_ratio == base
