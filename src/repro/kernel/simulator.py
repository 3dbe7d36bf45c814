"""The server-system simulator: closed-loop requests on a multicore OS.

This is the substitution for the paper's instrumented Linux kernel running
real server applications.  A closed loop of clients keeps ``concurrency``
requests in flight; request tasks are scheduled over the simulated cores
with per-core runqueues and quanta; between OS-visible events every core
executes its current phase at contention-adjusted rates.  Counter samplers
run at context switches, periodic interrupts, and (optionally) system-call
entrances, paying the observer-effect costs of Table 1.  Completed requests
yield serialized :class:`~repro.kernel.tracker.RequestTrace` timelines.

The engine is laid out for requests per second; every IEEE-754 operation
and every RNG draw keeps one fixed order, so output is byte-deterministic
(``tests/kernel/test_engine_golden.py`` pins it):

* **deadline calendar** — the five per-core event timers (phase end,
  quantum expiry, resched opportunity, interrupt, rate-based syscall)
  live in one plain list of ``5 * num_cores`` floats, laid out row-major
  with one row per kind in :data:`_EVENT_PRIORITY` order and one column
  per core.  ``_next_event`` takes ``min`` of the list and the
  ``list.index`` of that time: both keep the first of equal values, so
  among ties of the minimum time the smallest ``(kind_priority,
  core_id)`` wins.  Arrivals (priority 0) win ties against every core
  event via a ``<=`` head check.  Idle cores hold ``inf`` in every row.
  A timer write is a list store and idling a core one slice store, and
  times stay Python floats.
* **scalar per-core accumulators** — period counters accumulate as four
  plain floats per core, and a flushed period is one 9-value row added
  to its request's flat period list
  (:data:`~repro.kernel.tracker.PERIOD_FIELDS`); no per-period object
  outlives the flush.
* **batched event application** — runs of sampler events (interrupt
  samples, rate-based syscalls) cannot change dispatch, completion, or
  shedding state, so the inner loop drains them without re-entering the
  outer run-completion bookkeeping.  Every event still advances every
  busy core at its own timestamp, in order, inside the loop itself, so
  the batching is control-flow elision, not arithmetic fusion — see
  ``docs/perf.md``.
* **per-core contention solve** — each core keeps the behavior its cache
  pressure and solo CPI were computed for, and the (behavior,
  co-pressure) pair its miss ratio, reference rate and bus traffic were
  computed for, and recomputes them only when that identity or value
  changes, in one pass that shares the cache model's saturation term.  Bus totals, penalties and CPIs are rebuilt on every solve in
  ascending core order, exactly as the reference solve in
  ``tests/hardware/reference.py`` does, into plain float slots on the
  core, and sampling cost snapshots are memoized per run.  Timer resets
  and RNG draws still run on every recompute — only *values* are reused,
  never side effects.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from math import exp, isfinite
from typing import Dict, List, Optional

import numpy as np

from repro.hardware.cache import SharedL2Model, phase_pressure
from repro.hardware.counters import SamplingContext, SamplingCostModel
from repro.hardware.memory import MemoryBusModel
from repro.hardware.platform import WOODCREST, MachineConfig
from repro.kernel.sampling import SamplerStats, SamplingMode, SamplingPolicy
from repro.kernel.scheduler import RoundRobinScheduler, SchedulerPolicy
from repro.kernel.syscalls import next_rate_syscall_cycles
from repro.kernel.task import Task, TaskState
from repro.kernel.tracker import RequestTracker
from repro.obs.profiling import active_profiler, profiled_stage
from repro.obs.trace import NULL_COLLECTOR, TraceCollector
from repro.traffic import (
    LatencyStore,
    RoundRobinDispatch as RoundRobinDispatchPolicy,
    TrafficConfig,
)
from repro.workloads.base import WorkloadGenerator

_INF = float("inf")

#: Deterministic same-timestamp event ordering.  Events settle by the
#: explicit key ``(time, _EVENT_PRIORITY[kind], core_id)`` — arrivals
#: first (they may make idle cores dispatchable), then phase boundaries,
#: quantum expiries, resched opportunities, interrupts, and rate-based
#: syscalls, with the lowest core id winning inside a kind.  The order is
#: part of the byte-identity surface the golden corpus pins; traffic-layer
#: or event-loop refactors must not change it silently.
_EVENT_PRIORITY = {
    "arrival": 0,
    "phase_end": 1,
    "quantum_end": 2,
    "resched": 3,
    "interrupt": 4,
    "ratecall": 5,
}

#: Deadline-calendar rows: the per-core timer kinds in event-priority
#: order.  Arrivals, which outrank every row, live in the pending-arrival
#: heap instead.
_CALENDAR_KINDS = tuple(
    kind
    for kind in sorted(_EVENT_PRIORITY, key=_EVENT_PRIORITY.__getitem__)
    if kind != "arrival"
)
_ROW_PHASE = _CALENDAR_KINDS.index("phase_end")
_ROW_QUANTUM = _CALENDAR_KINDS.index("quantum_end")
_ROW_RESCHED = _CALENDAR_KINDS.index("resched")
_ROW_INTERRUPT = _CALENDAR_KINDS.index("interrupt")
_ROW_RATECALL = _CALENDAR_KINDS.index("ratecall")

#: Bounded sample-cost memo size (cleared on overflow, never evicted
#: piecemeal).
_MEMO_CAP = 4096


@dataclass
class SimConfig:
    """Configuration for one simulation run."""

    machine: MachineConfig = WOODCREST
    cache: SharedL2Model = field(default_factory=SharedL2Model)
    bus: MemoryBusModel = field(default_factory=MemoryBusModel)
    cost_model: SamplingCostModel = field(default_factory=SamplingCostModel)
    sampling: SamplingPolicy = field(default_factory=SamplingPolicy)
    scheduler: Optional[SchedulerPolicy] = None
    #: Closed-loop client count (requests kept in flight).
    concurrency: int = 8
    #: Total requests to complete before the run ends.
    num_requests: int = 100
    seed: int = 0
    #: Subtract the minimum per-sample observer cost from trace counters.
    compensate: bool = True
    #: Cycles to refill the entire shared L2 after a context switch to a
    #: different task (scaled by the incoming phase's footprint).  The paper
    #: measured an extreme worst case above 12 ms; typical footprints make
    #: this far smaller.
    ctx_switch_refill_cycles: float = 4_000_000.0
    #: When set, the run accounts the wall-clock time during which 0..N
    #: cores simultaneously execute above this L2 misses-per-instruction
    #: level (Figure 12's measurement).
    high_usage_mpi_threshold: Optional[float] = None
    #: Distributed deployment (the paper's future work): maps a stage tier
    #: name to the machine (bus domain) hosting it.  Tiers not listed run
    #: on machine 0.  None keeps the single-machine behavior.
    tier_placement: Optional[Dict[str, int]] = None
    #: One-way network latency for a cross-machine stage hand-off.
    network_delay_us: float = 50.0
    #: Open-system traffic layer: arrival process, dispatch policy, and
    #: bounded-admission backpressure (:class:`repro.traffic.TrafficConfig`).
    #: None — or closed-loop arrivals with round-robin dispatch — is
    #: byte-identical to the paper's closed generative loop.
    traffic: Optional[TrafficConfig] = None
    #: Request-scoped trace collector (None disables tracing; the disabled
    #: fast path is a single attribute check per instrumentation point).
    #: Emission never touches the simulation RNG or any simulated state,
    #: so enabling tracing cannot perturb results.
    collector: Optional[TraceCollector] = None


@dataclass
class SimResult:
    """Everything a simulation run produced."""

    workload_name: str
    config: SimConfig
    traces: list
    sampler_stats: SamplerStats
    scheduler: SchedulerPolicy
    #: Wall cycles during which exactly k cores ran at high usage.
    timeline_cycles: np.ndarray
    wall_cycles: float
    busy_cycles_per_core: np.ndarray
    #: Per-request queueing/sojourn latencies (only for runs with a
    #: configured traffic layer; None for plain closed-loop runs).
    latency: Optional[LatencyStore] = None
    #: Open-loop arrivals refused by the bounded admission queue.
    requests_shed: int = 0

    def high_usage_fractions(self) -> Dict[str, float]:
        """Fraction of wall time with >=2, >=3, and all 4 cores at high usage."""
        total = self.timeline_cycles.sum()
        if total == 0:
            return {">=2": 0.0, ">=3": 0.0, "all": 0.0}
        n = len(self.timeline_cycles) - 1
        return {
            ">=2": float(self.timeline_cycles[2:].sum() / total),
            ">=3": float(self.timeline_cycles[3:].sum() / total) if n >= 3 else 0.0,
            "all": float(self.timeline_cycles[n] / total),
        }

    def request_cpis(self) -> np.ndarray:
        return np.array([t.overall_cpi() for t in self.traces])

    def register_metrics(self, registry) -> None:
        """Fill a :class:`repro.obs.metrics.MetricsRegistry` from this run.

        Counters cover requests and sampling/scheduling activity, gauges
        the run extent, and period-weighted histograms the per-request and
        per-period CPI distributions (the numbers the reports print).
        """
        registry.counter("requests_completed").inc(len(self.traces))
        self.sampler_stats.register_metrics(registry)
        for key, value in sorted(getattr(self.scheduler, "stats", {}).items()):
            registry.counter(f"sched_{key}").inc(int(value))
        registry.gauge("wall_cycles").set(self.wall_cycles)
        registry.gauge("busy_cycles").set(float(self.busy_cycles_per_core.sum()))
        request_cpi = registry.histogram("request_cpi")
        request_cpu = registry.histogram("request_cpu_us")
        period_cpi = registry.histogram("period_cpi")
        for trace in self.traces:
            request_cpi.observe(
                trace.overall_cpi(), weight=trace.total_instructions
            )
            request_cpu.observe(trace.cpu_time_us())
            values, weights = trace.period_values("cpi")
            for value, weight in zip(values, weights):
                period_cpi.observe(float(value), weight=float(weight))
        if self.latency is not None:
            self.latency.register_metrics(registry)


class _CoreRun:
    """Per-core mutable runtime state.

    The core's event timers are not here: they live in column ``cid`` of
    the simulator's deadline calendar.  ``adv`` is the cycle this core
    was last advanced to (an injected stall pushes it past ``now``, and
    the stalled interval then retires no instructions), and ``busy`` its
    busy cycles.  The open period's counters accumulate as four plain
    floats.  The contention-solve slots cache this core's share of the
    rate solve (:meth:`ServerSimulator._recompute_rates`), keyed by the
    behavior (and co-pressure) they were computed for; holding the
    behavior keeps its identity from being recycled.  ``cpi``,
    ``ref_rate`` and ``miss_ratio`` are the core's current effective
    rates; ``cpi`` is None while the core has no solved rates (idle, or
    dispatched since the last solve).
    """

    __slots__ = (
        "cid",
        "task",
        "last_task_id",
        "last_sample",
        "period_start",
        "period_inj_ik",
        "period_inj_int",
        "phases",
        "pc_cycles",
        "pc_instructions",
        "pc_l2_refs",
        "pc_l2_misses",
        "periods_sink",
        "adv",
        "busy",
        "cpi",
        "l2_peers",
        "bus_domain",
        "behavior",
        "pressure",
        "solo_cpi",
        "contended",
        "co_pressure",
        "miss_ratio",
        "ref_rate",
        "traffic",
    )

    def __init__(self, core_id: int, l2_peers: tuple, bus_domain: int):
        self.cid = core_id
        # Peers by id, not by core object: core <-> core references would
        # form cycles that outlive the run.
        self.l2_peers = l2_peers
        self.bus_domain = bus_domain
        self.task: Optional[Task] = None
        self.last_task_id: Optional[int] = None
        self.last_sample = 0.0
        self.period_start = 0.0
        self.period_inj_ik = 0
        self.period_inj_int = 0
        # Current stage's phase tuple, set at _switch_in and cleared with
        # the core: replaces the request.stages[i].phases[j] chain on the
        # per-event hot sites.  Sound because core.task is only assigned
        # in _switch_in (stage hand-offs create fresh tasks) and
        # enter_next_phase never leaves the stage.
        self.phases = None
        self.periods_sink = None
        self.pc_cycles = 0.0
        self.pc_instructions = 0.0
        self.pc_l2_refs = 0.0
        self.pc_l2_misses = 0.0
        self.adv = 0.0
        self.busy = 0.0
        self.cpi = None
        # Contention-solve cache: pressure and solo CPI are valid for
        # ``behavior``; miss ratio, reference rate and bus traffic for
        # (``contended``, ``co_pressure``).
        self.behavior = None
        self.pressure = 0.0
        self.solo_cpi = 0.0
        self.contended = None
        self.co_pressure = None
        self.miss_ratio = 0.0
        self.ref_rate = 0.0
        self.traffic = 0.0


class _DispatchView:
    """Read-only queue-state window for dispatch policies.

    The view holds the simulator's core and runqueue lists, not the
    simulator: a back-reference would close a simulator -> view ->
    simulator cycle, and a finished run (its traces, specs, stages and
    phases) would then stay alive until a full cyclic-GC pass instead of
    being freed by refcount when the last reference drops.
    """

    __slots__ = ("_cores", "_runqueues")

    def __init__(self, cores: list, runqueues: list):
        self._cores = cores
        self._runqueues = runqueues

    def queue_depth(self, core_id: int) -> int:
        running = 1 if self._cores[core_id].task is not None else 0
        return len(self._runqueues[core_id]) + running

    def outstanding_work(self, core_id: int) -> float:
        total = 0.0
        task = self._cores[core_id].task
        if task is not None:
            total += task.remaining_in_stage
        for queued in self._runqueues[core_id]:
            total += queued.remaining_in_stage
        return total


class ServerSimulator:
    """Discrete-event simulation of one workload on the machine."""

    def __init__(self, workload: WorkloadGenerator, config: SimConfig):
        if config.concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if config.num_requests < 1:
            raise ValueError("num_requests must be at least 1")
        self.workload = workload
        self.config = config
        machine = self.machine = config.machine
        self.policy = config.sampling
        self.scheduler = config.scheduler or RoundRobinScheduler()
        self.rng = np.random.default_rng(config.seed)
        self.obs = config.collector if config.collector is not None else NULL_COLLECTOR
        # Per-kind emission guards, precomputed so a kind-filtered
        # collector skips even the keyword packing on its dense callsites.
        obs = self.obs
        self._trace_phase = obs.enabled and obs.wants("phase_transition")
        self._trace_sample = obs.enabled and obs.wants("sample")
        self._trace_enqueue = obs.enabled and obs.wants("task_enqueued")
        self._trace_dispatch = obs.enabled and obs.wants("task_dispatched")
        self._trace_switch_out = obs.enabled and obs.wants("task_switched_out")
        self._trace_handoff = obs.enabled and obs.wants("stage_handoff")
        self._trace_sched = obs.enabled and (
            obs.wants("sched_avoidance") or obs.wants("sched_preempt")
        )
        self.tracker = RequestTracker(
            cost_model=config.cost_model,
            frequency_ghz=machine.frequency_ghz,
            compensate=config.compensate,
            collector=self.obs,
        )
        self.stats = SamplerStats()
        self.now = 0.0
        # The deadline calendar: a flat list of floats laid out row-major,
        # one row per timer kind in priority order, one column per core;
        # a core's slots are all inf while it is idle.  Slot ``i`` is the
        # ``_slot_kind[i]`` timer of core ``_slot_core[i]``.
        self._ncores = num_cores = machine.num_cores
        slots = range(len(_CALENDAR_KINDS) * num_cores)
        self._dl = [_INF] * len(slots)
        self._slot_core = [i % num_cores for i in slots]
        self._slot_kind = [_CALENDAR_KINDS[i // num_cores] for i in slots]
        self._idle_column = [_INF] * len(_CALENDAR_KINDS)
        # First slot of each row: a timer lives at its row's base + core id.
        self._at_phase = _ROW_PHASE * num_cores
        self._at_quantum = _ROW_QUANTUM * num_cores
        self._at_resched = _ROW_RESCHED * num_cores
        self._at_interrupt = _ROW_INTERRUPT * num_cores
        self._at_ratecall = _ROW_RATECALL * num_cores
        self.cores = [
            _CoreRun(i, machine.l2_peers_of(i), machine.bus_domain_of(i))
            for i in range(num_cores)
        ]
        self.runqueues: List[List[Task]] = [[] for _ in self.cores]
        self.traces: list = []
        self._admitted = 0
        self._completed = 0
        self._shed = 0
        self._next_task_id = 0
        # Traffic layer: arrival process + dispatch policy + latency store.
        # No traffic config at all keeps the closed loop with the historical
        # round-robin placement (byte-identical, no latency accounting).
        self.traffic = traffic = config.traffic
        self._open_loop = traffic is not None and not traffic.arrivals.is_closed_loop
        self._admission_limit = traffic.admission_limit if traffic else None
        self.dispatch_policy = (
            traffic.dispatch if traffic else RoundRobinDispatchPolicy()
        )
        self.dispatch_policy.reset(config.seed)
        self._dispatch_view = _DispatchView(self.cores, self.runqueues)
        self.latency = (
            LatencyStore(machine.frequency_ghz) if traffic else None
        )
        #: In-flight arrivals: (ready_cycle, seq, spec, stage, tenant) —
        #: cross-machine stage hand-offs (spec set) and open-loop
        #: admissions (spec None).
        self._pending_arrivals: list = []
        self._arrival_seq = 0
        self._network_delay_cycles = machine.us_to_cycles(
            config.network_delay_us
        )
        if config.tier_placement:
            for tier, machine_id in config.tier_placement.items():
                if not 0 <= machine_id < machine.num_machines:
                    raise ValueError(
                        f"tier {tier!r} placed on machine {machine_id}, but "
                        f"the platform has {machine.num_machines}"
                    )
        self._timeline = np.zeros(num_cores + 1)
        # Cached cycle conversions, the scheduler timings' one reader.
        # Each check fails NaN: a quantum <= 0 never lets the clock pass
        # its expiry, and a NaN one never expires.
        quantum_us = self.scheduler.quantum_us
        if not (isfinite(quantum_us) and quantum_us > 0):
            raise ValueError(
                f"scheduler quantum_us must be finite and > 0, got {quantum_us!r}"
            )
        resched_us = self.scheduler.resched_interval_us
        if resched_us is not None and not (
            isfinite(resched_us) and resched_us > 0
        ):
            raise ValueError(
                "scheduler resched_interval_us must be None, or finite and "
                f"> 0, got {resched_us!r}"
            )
        self._quantum_cycles = machine.us_to_cycles(quantum_us)
        self._resched_cycles = (
            machine.us_to_cycles(resched_us) if resched_us is not None else None
        )
        self._t_syscall_min_cycles = machine.us_to_cycles(
            self.policy.t_syscall_min_us
        )
        self._accepts_trigger = self.policy.trigger_acceptor()
        self._wants_syscall = self.policy.wants_syscall_events()
        # Delay from a sample to the core's next interrupt row: the
        # sampling period, the syscall modes' backup interrupt, or never.
        if self.policy.mode is SamplingMode.INTERRUPT:
            self._sampler_delay = machine.us_to_cycles(
                self.policy.interrupt_period_us
            )
        elif self._wants_syscall:
            self._sampler_delay = machine.us_to_cycles(
                self.policy.t_backup_int_us
            )
        else:
            self._sampler_delay = None
        self._cost_memo_ik = {}
        self._cost_memo_int = {}
        self._miss_penalty = machine.l2_miss_penalty_cycles
        # Per-domain bus totals, reset in place by every solve.
        self._bus_zeros = [0.0] * machine.num_machines
        self._bus_totals = list(self._bus_zeros)
        # Model parameters of the one-pass contention solve.
        cache = config.cache
        self._neg_pressure_scale = -cache.pressure_scale
        self._miss_ratio_cap = cache.miss_ratio_cap
        self._ref_inflation = cache.ref_inflation
        bus = config.bus
        self._cycles_per_miss = bus.cycles_per_miss
        self._max_occupancy = bus.max_occupancy
        self._bus_gamma = bus.contention_gamma
        self._bus_beta = bus.contention_beta
        self._bus_occ_clamp = (bus.machine_cores - 1) * bus.max_occupancy
        # The base scheduler hook is a documented no-op; skipping the call
        # for policies that don't override it keeps the flush path lean.
        self._scheduler_samples = (
            type(self.scheduler).on_sample is not SchedulerPolicy.on_sample
        )
        # Direct period appends bypass close_period's per-sample lookup;
        # only safe when no period_sample observer needs the emission.
        self._direct_periods = not self.tracker.emits_period_samples
        #: Ambient stage profiler, captured at run() so per-request
        #: generation time can be attributed out of the simulate stage.
        self._profiler = None
        #: Fault-schedule hooks (duck-typed so plain workloads cost one
        #: getattr at construction, nothing per admission): scheduled
        #: fault wrappers queue activation-window transitions to drain
        #: into the obs stream, and accept the arrival's tenant tag so
        #: tenant-targeted clauses can see it before sampling.
        self._fault_drain = getattr(workload, "drain_fault_events", None)
        self._fault_note_tenant = getattr(workload, "note_tenant", None)

    # ------------------------------------------------------------------ API

    def run(self) -> SimResult:
        self._profiler = active_profiler()
        with profiled_stage("simulate"):
            return self._run()

    def _prepare_generation(self) -> None:
        """Block-ahead synthesis: pre-generate specs when draw-order safe.

        The block-stamping workloads expose ``prepare_block``, which
        synthesizes the whole run's request specs in one pass ahead
        of simulation.  That reorders no RNG draw as long as nothing else
        draws from ``self.rng`` between admissions: arrival schedules are
        pre-drawn in full (``exposes_schedule``), dispatch policies use
        their own seeded streams, and only syscall-sampling policies draw
        mid-run (rate-based syscall gaps/names) — so those disable it.
        Wrapped workloads (fault injection, fixed-kind) don't expose the
        hook and keep per-request synthesis.
        """
        prepare = getattr(self.workload, "prepare_block", None)
        if prepare is None:
            return
        if self.policy.wants_syscall_events():
            return
        if self.traffic is not None and not getattr(
            self.traffic.arrivals, "exposes_schedule", False
        ):
            return
        with profiled_stage("generate"):
            prepare(self.rng, 0, self.config.num_requests)

    def _run(self) -> SimResult:
        if self.obs.enabled:
            self.obs.emit(
                "run_start",
                self.now,
                workload=self.workload.name,
                scheduler=self.scheduler.describe(),
                sampling=self.policy.mode.value,
                seed=self.config.seed,
                num_requests=self.config.num_requests,
                concurrency=self.config.concurrency,
            )
            if self.traffic is not None:
                self.obs.emit("traffic", self.now, **self.traffic.describe())
        if self._open_loop:
            # Open system: pre-draw the whole arrival schedule, so the
            # run is a pure function of (process, seed).
            for arrival in self.traffic.arrivals.schedule(
                self.rng, self.config.num_requests, self.machine.frequency_ghz
            ):
                self._defer_admission(arrival.cycle, arrival.tenant)
            self._prepare_generation()
        else:
            self._prepare_generation()
            while self._admitted < min(
                self.config.concurrency, self.config.num_requests
            ):
                self._admit()
        for core in range(len(self.cores)):
            self._dispatch(core)
        self._recompute_rates()

        handlers = {
            "arrival": self._on_arrival,
            "quantum_end": self._on_quantum_end,
            "resched": self._on_resched,
            "ratecall": self._on_ratecall,
        }
        account = self.config.high_usage_mpi_threshold is not None
        num = self.config.num_requests
        next_event = self._next_event
        sample = self._sample
        cores = self.cores
        interrupt_ctx = SamplingContext.INTERRUPT
        # Shed arrivals count toward run completion: they were offered
        # load that the bounded admission queue refused.
        while self._completed + self._shed < num:
            t, core_id, kind = next_event()
            # Batched application: sampler events (interrupts, rate-based
            # syscalls) cannot complete, shed, or redispatch anything, so
            # runs of them drain here without re-testing run completion.
            # Interrupts — the densest kind — skip the handler hop too.
            while True:
                if t == _INF:
                    raise RuntimeError(
                        f"simulation deadlock at cycle {self.now}: "
                        f"{self._completed}/{self.config.num_requests} completed"
                    )
                if account:
                    self._account_timeline(t)
                # Same-timestamp events need no advance: cores were already
                # advanced to t by the previous event at t, and injections
                # only ever move core.adv forward past it.
                if t != self.now:
                    # Accumulate every core's counters up to t.  Cycles
                    # re-anchor on wall time (no float drift); instructions,
                    # references and misses follow the operation order of
                    # the reference rates' counters_for_instructions
                    # (tests/hardware/reference.py) on the core's rate
                    # slots.  A core stalled past t by an injection makes
                    # no progress.
                    for core in cores:
                        elapsed = t - core.adv
                        if elapsed <= 0.0:
                            continue
                        core.adv = t
                        cpi = core.cpi
                        if cpi is None:
                            continue
                        instructions = elapsed / cpi
                        refs = instructions * core.ref_rate
                        misses = refs * core.miss_ratio
                        core.busy += elapsed
                        task = core.task
                        if task is not None and instructions > 0:
                            core.pc_cycles += elapsed
                            core.pc_instructions += instructions
                            core.pc_l2_refs += refs
                            core.pc_l2_misses += misses
                            task.instructions_done_in_phase += instructions
                    self.now = t
                if kind == "interrupt":
                    sample(cores[core_id], interrupt_ctx)
                    t, core_id, kind = next_event()
                    continue
                if kind == "phase_end":
                    self._on_phase_end(core_id)
                    break
                handlers[kind](core_id)
                if kind == "ratecall":
                    t, core_id, kind = next_event()
                    continue
                break

        if self.obs.enabled:
            self.obs.emit(
                "run_end",
                self.now,
                completed=self._completed,
                total_samples=self.stats.total_samples,
            )
        return SimResult(
            workload_name=self.workload.name,
            config=self.config,
            traces=self.traces,
            sampler_stats=self.stats,
            scheduler=self.scheduler,
            timeline_cycles=self._timeline,
            wall_cycles=self.now,
            busy_cycles_per_core=np.array([c.busy for c in self.cores]),
            latency=self.latency,
            requests_shed=self._shed,
        )

    # ----------------------------------------------------------- event loop

    def _next_event(self):
        """The earliest pending event as ``(time, core_id, kind)``.

        Same-timestamp events settle by the explicit, documented key
        ``(time, _EVENT_PRIORITY[kind], core_id)``: the calendar is laid
        out row-major with rows in priority order, ``min`` keeps the
        first of equal minima and ``list.index`` returns the first equal
        slot, so among equal minimum times the smallest ``(priority,
        core_id)`` wins.  That holds for every deadline but NaN (``min``
        passes over a NaN that is not first), which is why the sampling
        policy refuses NaN timings.  Idle cores hold ``inf`` in every
        slot (maintained by ``_clear_core``), so they never win.  An
        arrival at the same timestamp beats every core event (priority 0
        via ``<=``).
        """
        dl = self._dl
        t = min(dl)
        pending = self._pending_arrivals
        if pending and pending[0][0] <= t:
            return pending[0][0], -1, "arrival"
        if t == _INF:
            return _INF, -1, "none"
        index = dl.index(t)
        return t, self._slot_core[index], self._slot_kind[index]

    def _account_timeline(self, t: float) -> None:
        threshold = self.config.high_usage_mpi_threshold
        count = 0
        for core in self.cores:
            if core.cpi is None:
                continue
            if core.ref_rate * core.miss_ratio > threshold:
                count += 1
        self._timeline[count] += t - self.now

    # ------------------------------------------------------- event handlers

    def _on_phase_end(self, core_id: int) -> None:
        """Phase boundary: the next phase, a stage hand-off, or completion.

        ``core.phases`` replaces the ``task.stage.phases`` property chain
        and ``task.enter_next_phase`` is inlined on the dominant
        within-stage branch.
        """
        core = self.cores[core_id]
        task = core.task
        phases = core.phases
        idx = task.phase_index
        # Snap to the exact phase boundary (float drift from rate changes).
        task.instructions_done_in_phase = float(phases[idx].instructions)

        if idx != len(phases) - 1:
            name = phases[idx + 1].entry_syscall
            if name is not None:
                self.tracker.record_syscall(task.request_id, self.now, name)
                if self._accepts_trigger(name) and (
                    self.now - core.last_sample >= self._t_syscall_min_cycles
                ):
                    self._sample(core, SamplingContext.IN_KERNEL)
            # --- inlined task.enter_next_phase() ---
            task.phase_index = idx + 1
            task.instructions_done_in_phase = 0.0
            if self._trace_phase:
                self.obs.emit(
                    "phase_transition",
                    self.now,
                    request_id=task.request_id,
                    task_id=task.task_id,
                    core=core_id,
                    stage=task.stage_index,
                    phase=task.phase_index,
                    entry_syscall=name,
                )
            self._recompute_rates()
            return

        if not task.on_last_stage:
            self._hand_off_stage(core, task)
        else:
            self._complete_request(core, task)
        self._dispatch(core_id)
        self._recompute_rates()

    def _on_quantum_end(self, core_id: int) -> None:
        core = self.cores[core_id]
        task = core.task
        self._switch_out(core, SamplingContext.IN_KERNEL)
        self.runqueues[core_id].append(task)  # round-robin: requeue at tail
        self._dispatch(core_id)
        self._recompute_rates()

    def _on_resched(self, core_id: int) -> None:
        core = self.cores[core_id]
        current = core.task
        running = {c.cid: c.task for c in self.cores}
        idx = self.scheduler.should_preempt(
            core_id, current, self.runqueues[core_id], running
        )
        if idx is None:
            self._dl[self._at_resched + core_id] = (
                self.now + self._resched_cycles
            )
            return
        incoming = self.runqueues[core_id].pop(idx)
        if self._trace_sched:
            self.obs.emit(
                "sched_preempt",
                self.now,
                request_id=incoming.request_id,
                task_id=incoming.task_id,
                core=core_id,
                preempted_request_id=current.request_id,
                preempted_task_id=current.task_id,
            )
        self._switch_out(core, SamplingContext.IN_KERNEL)
        # Keep the preempted request at the head so it resumes first.
        self.runqueues[core_id].insert(0, current)
        self._switch_in(core, incoming)
        self._recompute_rates()

    def _on_ratecall(self, core_id: int) -> None:
        core = self.cores[core_id]
        task = core.task
        pool = core.phases[task.phase_index].syscall_pool
        name = pool[int(self.rng.integers(len(pool)))]
        if self._accepts_trigger(name):
            self._sample(core, SamplingContext.IN_KERNEL)
        else:
            self._reset_ratecall(core)

    # ------------------------------------------------------- request admin

    def _admit(self, tenant: Optional[int] = None) -> None:
        profiler = self._profiler
        if self._fault_note_tenant is not None:
            self._fault_note_tenant(tenant)
        if profiler is None:
            spec = self.workload.sample_request(self.rng, self._admitted)
        else:
            start = time.perf_counter()
            spec = self.workload.sample_request(self.rng, self._admitted)
            profiler.add("generate", time.perf_counter() - start)
        self._admitted += 1
        if self._fault_drain is not None:
            for transition in self._fault_drain():
                if self.obs.enabled:
                    self.obs.emit(
                        transition["kind"],
                        self.now,
                        request_id=transition["request_id"],
                        clause=transition["clause"],
                        fault=transition["fault"],
                        window_lo=transition["window_lo"],
                        window_hi=transition["window_hi"],
                    )
        if tenant is not None:
            spec.metadata["tenant"] = tenant
        self.tracker.start_request(spec, self.now)
        if self.latency is not None:
            self.latency.on_arrival(
                spec.request_id, spec.kind, self.now, tenant=tenant
            )
        if self.obs.enabled:
            self.obs.emit(
                "request_admitted",
                self.now,
                request_id=spec.request_id,
                app=spec.app,
                request_kind=spec.kind,
                total_instructions=int(spec.total_instructions),
                injected_fault=spec.metadata.get("injected_fault"),
            )
        self._enqueue_stage(spec, stage_index=0)

    def _shed_arrival(self, tenant: Optional[int]) -> None:
        """Refuse one open-loop arrival at the bounded admission queue."""
        self._shed += 1
        if self.latency is not None:
            self.latency.on_shed(self.now)
        if self.obs.enabled:
            self.obs.emit(
                "request_shed",
                self.now,
                in_flight=self._admitted - self._completed,
                admission_limit=self._admission_limit,
                tenant=tenant,
            )

    def _on_arrival(self, core_id: int) -> None:
        # Heap timestamps compare exactly: an event's batch is everything
        # scheduled at the very same float cycle.  (The old absolute 1e-9
        # epsilon fell below float spacing at large cycle counts, making
        # batch membership — and hence _recompute_rates timing — depend on
        # the run's time magnitude.)
        while self._pending_arrivals and (
            self._pending_arrivals[0][0] <= self.now
        ):
            _, _, spec, stage_index, tenant = heapq.heappop(
                self._pending_arrivals
            )
            if spec is None:
                if (
                    self._admission_limit is not None
                    and self._admitted - self._completed >= self._admission_limit
                ):
                    self._shed_arrival(tenant)
                else:
                    self._admit(tenant)
            else:
                self._enqueue_stage(spec, stage_index)
        self._recompute_rates()

    def _machine_of_tier(self, tier: str) -> int:
        if not self.config.tier_placement:
            return 0
        return self.config.tier_placement.get(tier, 0)

    def _enqueue_stage(self, spec, stage_index: int) -> None:
        tier = spec.stages[stage_index].tier
        machine_id = self._machine_of_tier(tier)
        machine_cores = self.machine.machine_cores(machine_id)
        core_id = self.dispatch_policy.choose(
            machine_id, machine_cores, spec, stage_index, self._dispatch_view
        )
        if core_id not in machine_cores:
            raise ValueError(
                f"dispatch policy {self.dispatch_policy.name!r} placed "
                f"stage {stage_index} on core {core_id}, not one of "
                f"machine {machine_id}'s cores {tuple(machine_cores)}"
            )
        task = Task(
            task_id=self._next_task_id,
            request=spec,
            stage_index=stage_index,
            home_core=core_id,
            enqueue_cycle=self.now,
        )
        self._next_task_id += 1
        if self._trace_enqueue:
            self.obs.emit(
                "task_enqueued",
                self.now,
                request_id=spec.request_id,
                task_id=task.task_id,
                core=core_id,
                stage=stage_index,
                tier=tier,
            )
        self.runqueues[core_id].append(task)
        if self.cores[core_id].task is None:
            self._dispatch(core_id)

    def _defer_stage(self, spec, stage_index: int, ready_cycle: float) -> None:
        """Queue a stage arrival after a network hand-off delay."""
        heapq.heappush(
            self._pending_arrivals,
            (ready_cycle, self._arrival_seq, spec, stage_index, None),
        )
        self._arrival_seq += 1

    def _defer_admission(
        self, ready_cycle: float, tenant: Optional[int] = None
    ) -> None:
        """Schedule an open-loop request admission."""
        heapq.heappush(
            self._pending_arrivals,
            (ready_cycle, self._arrival_seq, None, 0, tenant),
        )
        self._arrival_seq += 1

    def _hand_off_stage(self, core: _CoreRun, task: Task) -> None:
        """Request propagates to the next tier through socket operations."""
        self._switch_out(core, SamplingContext.IN_KERNEL)
        task.state = TaskState.DONE
        self.tracker.record_syscall(task.request_id, self.now, "write")
        self.tracker.record_syscall(task.request_id, self.now, "read")
        next_stage = task.stage_index + 1
        source = self.machine.bus_domain_of(core.cid)
        target = self._machine_of_tier(task.request.stages[next_stage].tier)
        if self._trace_handoff:
            self.obs.emit(
                "stage_handoff",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core.cid,
                next_stage=next_stage,
                target_machine=target,
                cross_machine=target != source,
            )
        if target != source:
            self._defer_stage(
                task.request, next_stage, self.now + self._network_delay_cycles
            )
        else:
            self._enqueue_stage(task.request, next_stage)

    def _complete_request(self, core: _CoreRun, task: Task) -> None:
        self._switch_out(core, SamplingContext.IN_KERNEL)
        task.state = TaskState.DONE
        trace = self.tracker.finish_request(task.request_id, self.now)
        self.traces.append(trace)
        self._completed += 1
        if self.latency is not None:
            self.latency.on_complete(task.request_id, self.now)
        self.dispatch_policy.observe_completion(
            task.request.kind, trace.cpu_time_us()
        )
        if self.obs.enabled:
            self.obs.emit(
                "request_completed",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core.cid,
                periods=trace.num_periods,
            )
        if not self._open_loop and self._admitted < self.config.num_requests:
            self._admit()

    # --------------------------------------------------------- dispatching

    def _dispatch(self, core_id: int) -> None:
        core = self.cores[core_id]
        if core.task is not None:
            return
        running = {c.cid: c.task for c in self.cores}
        idx = self.scheduler.pick(core_id, self.runqueues[core_id], running)
        if idx is None:
            self._clear_core(core)
            return
        task = self.runqueues[core_id].pop(idx)
        if idx != 0 and self._trace_sched:
            # A non-head pick is a contention-easing avoidance decision.
            self.obs.emit(
                "sched_avoidance",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core_id,
                queue_index=idx,
            )
        self._switch_in(core, task)

    def _clear_core(self, core: _CoreRun) -> None:
        core.cpi = None
        core.periods_sink = None
        core.phases = None
        self._dl[core.cid :: self._ncores] = self._idle_column

    def _switch_in(self, core: _CoreRun, task: Task) -> None:
        if self._trace_dispatch:
            self.obs.emit(
                "task_dispatched",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core.cid,
                stage=task.stage_index,
                phase=task.phase_index,
            )
        if (
            self.latency is not None
            and task.stage_index == 0
            and not task.has_started
        ):
            self.latency.on_start(task.request_id, self.now)
        task.state = TaskState.RUNNING
        core.task = task
        core.periods_sink = (
            self.tracker.period_sink(task.request_id)
            if self._direct_periods
            else None
        )
        core.period_start = self.now
        core.pc_cycles = 0.0
        core.pc_instructions = 0.0
        core.pc_l2_refs = 0.0
        core.pc_l2_misses = 0.0
        core.period_inj_ik = 0
        core.period_inj_int = 0
        core.last_sample = self.now
        cid = core.cid
        self._dl[self._at_quantum + cid] = self.now + self._quantum_cycles
        self._dl[self._at_resched + cid] = (
            self.now + self._resched_cycles if self._resched_cycles else _INF
        )

        phases = task.request.stages[task.stage_index].phases
        core.phases = phases
        phase = phases[task.phase_index]
        # First dispatch of a stage records its opening syscall.
        if task.phase_index == 0 and task.instructions_done_in_phase == 0:
            if phase.entry_syscall is not None:
                self.tracker.record_syscall(
                    task.request_id, self.now, phase.entry_syscall
                )

        # The switch itself samples the counters in-kernel (mandatory for
        # attribution) and the incoming task pays cache-refill pollution if
        # the core last ran someone else.
        cost = self._sample_cost(
            SamplingContext.IN_KERNEL, phase.behavior.cache_footprint
        )
        cost_cycles = cost.cycles
        cost_instructions = cost.instructions
        cost_refs = cost.l2_refs
        cost_misses = cost.l2_misses
        self.stats.record(SamplingContext.IN_KERNEL, mandatory=True)
        # A resuming task whose core ran someone else in between finds its
        # cached state evicted and pays a footprint-scaled refill transient
        # (the context-switch cache pollution of Section 5.2).  The refill
        # is not an instantaneous lump: the task keeps retiring phase
        # instructions at roughly doubled CPI while its lines stream back,
        # so the injected counters carry matching instruction progress.
        if task.has_started and core.last_task_id != task.task_id:
            behavior = phase.behavior
            footprint = behavior.cache_footprint
            refill_cycles = footprint * self.config.ctx_switch_refill_cycles
            transient_cpi = 2.0 * behavior.solo_cpi(
                self.machine.l2_miss_penalty_cycles
            )
            instructions = min(
                refill_cycles / transient_cpi, 0.9 * task.remaining_in_phase
            )
            refill_cycles = instructions * transient_cpi
            lines = footprint * (
                self.machine.l2_size_kb * 1024 / self.machine.l2_line_bytes
            )
            cost_cycles = cost_cycles + refill_cycles
            cost_instructions = cost_instructions + instructions
            cost_refs = cost_refs + lines
            cost_misses = cost_misses + lines
            task.advance_instructions(instructions)
        task.has_started = True
        self._inject(core, cost_cycles, cost_instructions, cost_refs, cost_misses)
        core.period_inj_ik += 1
        core.last_task_id = task.task_id

        self._reset_sampler_timers(core)

    def _switch_out(self, core: _CoreRun, context: SamplingContext) -> None:
        """Flush the running task's period and free the core."""
        task = core.task
        if task is None:
            raise RuntimeError("switch_out on idle core")
        if self._trace_switch_out:
            self.obs.emit(
                "task_switched_out",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core.cid,
                context=context.value if context is not None else None,
            )
        self._flush_period(core)
        task.state = TaskState.READY
        core.task = None
        self._clear_core(core)

    # ------------------------------------------------------------ sampling

    def _sample_cost(self, context: SamplingContext, pollution: float):
        """Memoized, shareable sampling-cost snapshot."""
        memo = (
            self._cost_memo_ik
            if context is SamplingContext.IN_KERNEL
            else self._cost_memo_int
        )
        cost = memo.get(pollution)
        if cost is None:
            cost = self.config.cost_model.cost(context, pollution)
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[pollution] = cost
        return cost

    def _inject(self, core: _CoreRun, cycles, instructions, refs, misses):
        """Inject sampling-cost events and stall the core for their cycles.

        The injected cycles consume wall-clock time without phase
        progress: moving ``core.adv`` forward means the stalled interval
        produces no instructions when the event loop next advances it.
        """
        core.busy += cycles
        core.adv += cycles
        core.pc_cycles += cycles
        core.pc_instructions += instructions
        core.pc_l2_refs += refs
        core.pc_l2_misses += misses

    def _flush_period(self, core: _CoreRun) -> None:
        now = self.now
        cycles = core.pc_cycles
        instructions = core.pc_instructions
        if self._scheduler_samples:
            self.scheduler.on_sample(
                core.task, instructions, core.pc_l2_misses, cycles
            )
        # close_period drops no-activity periods; mirroring its test here
        # skips building their rows entirely.
        if cycles > 0 or instructions > 0:
            self.tracker.close_period(
                core.task.request_id,
                (
                    core.period_start,
                    now,
                    core.cid,
                    cycles,
                    instructions,
                    core.pc_l2_refs,
                    core.pc_l2_misses,
                    core.period_inj_ik,
                    core.period_inj_int,
                ),
            )
        core.period_start = now
        core.pc_cycles = 0.0
        core.pc_instructions = 0.0
        core.pc_l2_refs = 0.0
        core.pc_l2_misses = 0.0
        core.period_inj_ik = 0
        core.period_inj_int = 0

    def _sample(self, core: _CoreRun, context: SamplingContext) -> None:
        """Take one counter sample on a busy core (non-mandatory).

        One method body covers flush + stats + cost injection + timer
        resets: sampler events are by far the densest event kind, so call
        overhead and repeated attribute loads dominate otherwise.
        """
        task = core.task
        now = self.now
        if self._trace_sample:
            self.obs.emit(
                "sample",
                now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core.cid,
                context=context.value,
            )
        # --- inlined _flush_period ---
        cycles = core.pc_cycles
        instructions = core.pc_instructions
        if self._scheduler_samples:
            self.scheduler.on_sample(task, instructions, core.pc_l2_misses, cycles)
        if cycles > 0 or instructions > 0:
            # One row in PERIOD_FIELDS order; the tuple dies once its
            # values are in the request's flat list.
            row = (
                core.period_start,
                now,
                core.cid,
                cycles,
                instructions,
                core.pc_l2_refs,
                core.pc_l2_misses,
                core.period_inj_ik,
                core.period_inj_int,
            )
            sink = core.periods_sink
            if sink is None:
                self.tracker.close_period(task.request_id, row)
            else:
                sink += row
        core.period_start = now
        # --- inlined SamplerStats.record(mandatory=False) + cost memo
        # (per-context dicts with plain float keys dodge the enum hash) ---
        phase = core.phases[task.phase_index]
        pollution = phase.behavior.cache_footprint
        if context is SamplingContext.IN_KERNEL:
            self.stats.in_kernel_samples += 1
            memo = self._cost_memo_ik
            core.period_inj_ik = 1
            core.period_inj_int = 0
        else:
            self.stats.interrupt_samples += 1
            memo = self._cost_memo_int
            core.period_inj_ik = 0
            core.period_inj_int = 1
        cost = memo.get(pollution)
        if cost is None:
            cost = self.config.cost_model.cost(context, pollution)
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[pollution] = cost
        # --- inlined _inject: the period counters restart from the
        # injected cost (0.0 + x == x bit-exactly) ---
        cost_cycles = cost.cycles
        core.busy += cost_cycles
        last_advance = core.adv + cost_cycles
        core.adv = last_advance
        core.pc_cycles = cost_cycles
        core.pc_instructions = cost.instructions
        core.pc_l2_refs = cost.l2_refs
        core.pc_l2_misses = cost.l2_misses
        core.last_sample = now
        # --- inlined _reset_sampler_timers + phase-end/ratecall update ---
        dl = self._dl
        cid = core.cid
        delay = self._sampler_delay
        dl[self._at_interrupt + cid] = _INF if delay is None else now + delay
        cpi = core.cpi
        if cpi is not None:
            remaining = phase.instructions - task.instructions_done_in_phase
            if remaining <= 0.0:
                remaining = 0.0  # == max(0.0, remaining) bit-exactly
            dl[self._at_phase + cid] = last_advance + remaining * cpi
            if self._wants_syscall:
                self._reset_ratecall(core)

    def _reset_sampler_timers(self, core: _CoreRun) -> None:
        delay = self._sampler_delay
        self._dl[self._at_interrupt + core.cid] = (
            _INF if delay is None else self.now + delay
        )

    # ------------------------------------------------------------- rates

    def _recompute_rates(self) -> None:
        """Solve every busy core's effective rates and reset its timers.

        A per-core transcription of the reference solve in
        ``tests/hardware/reference.py``, bit-identical by construction:
        each cached value is what that function's model calls return for
        the same arguments, and is reused only while those arguments are
        unchanged (the same behavior object, an equal co-pressure), which
        in practice leaves just the core that changed phase and its L2
        peer to recompute.  Peer pressures sum from int
        ``0`` in ``l2_peers_of`` order, and bus totals, penalties and CPIs
        are rebuilt on every call in ascending core order — that
        function's accumulation order.  The rates land in each core's
        ``cpi``/``ref_rate``/``miss_ratio`` slots, so a solve allocates
        nothing.  Timer updates (and their RNG draws) follow in the same
        core order.
        """
        cores = self.cores
        for core in cores:
            task = core.task
            if task is not None:
                behavior = core.phases[task.phase_index].behavior
                if behavior is not core.behavior:
                    core.behavior = behavior
                    core.pressure = phase_pressure(
                        behavior.l2_refs_per_ins,
                        behavior.base_cpi,
                        behavior.cache_footprint,
                    )
                    solo_cpi = behavior.solo_cpi(self._miss_penalty)
                    # MemoryBusModel.miss_traffic's argument check, made
                    # once per behavior instead of once per solve.
                    if solo_cpi <= 0:
                        raise ValueError("approx_cpi must be positive")
                    core.solo_cpi = solo_cpi

        neg_scale = self._neg_pressure_scale
        cap = self._miss_ratio_cap
        ref_inflation = self._ref_inflation
        cycles_per_miss = self._cycles_per_miss
        max_occupancy = self._max_occupancy
        totals = self._bus_totals
        totals[:] = self._bus_zeros
        for core in cores:
            if core.task is None:
                continue
            co_pressure = 0
            for peer in core.l2_peers:
                peer_core = cores[peer]
                if peer_core.task is not None:
                    co_pressure = co_pressure + peer_core.pressure
            behavior = core.behavior
            if behavior is not core.contended or co_pressure != core.co_pressure:
                # One pass over SharedL2Model.effective_miss_ratio and
                # effective_ref_rate, which compute the same saturation,
                # then MemoryBusModel.miss_traffic, op for op.  Their
                # argument checks hold for every validated behavior; the
                # conditionals pick exactly what min() and max() return,
                # NaN included.
                base = behavior.l2_miss_ratio
                footprint = behavior.cache_footprint
                sensitivity = footprint if footprint > 0.0 else 0.0
                if not sensitivity < 1.0:
                    sensitivity = 1.0
                saturation = 1.0 - exp(neg_scale * co_pressure)
                inflated = base + ((cap - base) * saturation * sensitivity)
                miss_ratio = inflated if inflated > base else base
                ref_rate = behavior.l2_refs_per_ins * (
                    1.0 + ref_inflation * saturation
                )
                core.miss_ratio = miss_ratio
                core.ref_rate = ref_rate
                traffic = ref_rate * miss_ratio / core.solo_cpi * cycles_per_miss
                core.traffic = (
                    traffic if traffic < max_occupancy else max_occupancy
                )
                core.contended = behavior
                core.co_pressure = co_pressure
            domain = core.bus_domain
            totals[domain] = totals[domain] + core.traffic

        penalty_base = self._miss_penalty
        gamma = self._bus_gamma
        beta = self._bus_beta
        occ_clamp = self._bus_occ_clamp
        dl = self._dl
        at_phase = self._at_phase
        wants_syscall = self._wants_syscall
        for core in cores:
            task = core.task
            if task is None:
                continue
            # Inlined MemoryBusModel.effective_miss_penalty, op for op;
            # the conditionals pick exactly what max(0.0, x) and
            # min(x, clamp) return, NaN included.
            occupancy = totals[core.bus_domain] - core.traffic
            occupancy = occupancy if occupancy > 0.0 else 0.0
            if occ_clamp < occupancy:
                occupancy = occ_clamp
            penalty = penalty_base * (
                1.0 + gamma * occupancy + beta * occupancy**2
            )
            cpi = core.behavior.base_cpi + (
                penalty * core.ref_rate * core.miss_ratio
            )
            core.cpi = cpi
            # --- phase-end timer from the new rates ---
            remaining = (
                core.phases[task.phase_index].instructions
                - task.instructions_done_in_phase
            )
            if not remaining > 0.0:
                remaining = 0.0  # == max(0.0, remaining), NaN included
            dl[at_phase + core.cid] = core.adv + remaining * cpi
            if wants_syscall:
                self._reset_ratecall(core)

    def _reset_ratecall(self, core: _CoreRun) -> None:
        slot = self._at_ratecall + core.cid
        if not self._wants_syscall:
            self._dl[slot] = _INF
            return
        task = core.task
        phase = core.phases[task.phase_index]
        if phase.syscall_rate_per_ins <= 0:
            self._dl[slot] = _INF
            return
        # The earliest instant a rate-based syscall could trigger a sample;
        # by exponential memorylessness the next call after that instant is
        # one fresh draw away.
        earliest = max(
            core.adv,
            core.last_sample + self._t_syscall_min_cycles,
        )
        delay = next_rate_syscall_cycles(
            self.rng, phase.syscall_rate_per_ins, core.cpi
        )
        self._dl[slot] = earliest + delay


def run_workload(workload, config: Optional[SimConfig] = None, **overrides) -> SimResult:
    """Convenience wrapper: simulate a workload and return the result.

    ``workload`` may be a generator instance or a registered name.
    Keyword overrides are applied on top of ``config`` (or a default one).
    """
    from repro.workloads.registry import make_workload

    if isinstance(workload, str):
        workload = make_workload(workload)
    if config is None:
        config = SimConfig()
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return ServerSimulator(workload, config).run()
