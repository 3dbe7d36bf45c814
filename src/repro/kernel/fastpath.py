"""The simulator fast path: SoA deadline calendar + batched event loop.

:class:`FastpathSimulator` restructures the hot path of
:class:`~repro.kernel.simulator.ServerSimulator` for raw requests/sec while
producing **byte-identical** output — every IEEE-754 operation and every
RNG draw happens in exactly the same order as the reference loop, so golden
corpora, canonical JSONL exports, metrics snapshots, and latency rows match
bit for bit.  The restructurings:

* **structure-of-arrays deadline calendar** — the five per-core event
  timers (phase end, quantum expiry, resched opportunity, interrupt,
  rate-based syscall) live in one ``(5, num_cores)`` numpy matrix whose
  rows are ordered by the documented event priority.  ``_next_event`` is a
  single vectorized ``argmin`` over the C-order flattened matrix: among
  ties of the minimum time, ``argmin`` returns the first occurrence, i.e.
  the smallest ``(kind_priority, core_id)`` — exactly the reference loop's
  pinned ``(time, kind_priority, core_id)`` tie-break.  Arrivals (priority
  0) win ties against every core event via a ``<=`` head check, matching
  the reference scan that seeds its best with the arrival and requires
  core events to beat it strictly.
* **scalar per-core accumulators** — period and total counters accumulate
  as four plain floats per core instead of chained frozen
  ``CounterSnapshot`` allocations.  A left-fold of per-field scalar adds
  performs the identical operation sequence, so the flushed
  :class:`~repro.kernel.tracker.PeriodRecord` counters are bit-identical.
* **batched event application** — runs of sampler events (interrupt
  samples, rate-based syscalls) cannot change dispatch, completion, or
  shedding state, so the inner loop drains them without re-entering the
  outer run-completion bookkeeping.  True arithmetic merging of event
  batches is impossible under byte-identity (every event must advance
  every busy core at its own timestamp, in order), so the batching is
  control-flow elision, not arithmetic fusion — see ``docs/perf.md``.
* **per-core contention solve** — each core keeps the behavior its cache
  pressure and solo CPI were computed for, and the (behavior,
  co-pressure) pair its miss ratio, reference rate and bus traffic were
  computed for, and recomputes them only when that identity or value
  changes.  Bus totals, penalties and CPIs are rebuilt on every solve in
  ascending core order, exactly as
  :func:`~repro.hardware.cpu.compute_effective_rates` does, and sampling
  cost snapshots are memoized per run.  Timer resets and RNG draws still
  run on every recompute — only *values* are reused, never side effects.

``REPRO_SIM_FASTPATH=0`` in the environment routes plain
``ServerSimulator(...)`` constructions back to the reference loop;
results are identical either way — the toggle exists so CI can assert
exactly that.
"""

from __future__ import annotations

import os

import numpy as np

from repro.hardware.cache import phase_pressure
from repro.hardware.counters import CounterSnapshot, SamplingContext
from repro.hardware.cpu import EffectiveRates
from repro.kernel.sampling import SamplingMode
from repro.kernel.scheduler import SchedulerPolicy
from repro.kernel.simulator import (
    _INF,
    SimResult,
    ServerSimulator,
    _CoreRun,
)
from repro.kernel.syscalls import next_rate_syscall_cycles
from repro.kernel.task import TaskState
from repro.kernel.tracker import PeriodRecord

FASTPATH_ENV = "REPRO_SIM_FASTPATH"

#: Calendar rows in event-priority order; row index = priority - 1
#: (arrivals, priority 0, live in the pending-arrival heap instead).
_CALENDAR_KINDS = ("phase_end", "quantum_end", "resched", "interrupt", "ratecall")
_ROW_PHASE = 0
_ROW_QUANTUM = 1
_ROW_RESCHED = 2
_ROW_INTERRUPT = 3
_ROW_RATECALL = 4

#: Bounded sample-cost memo size (cleared on overflow, never evicted
#: piecemeal).
_MEMO_CAP = 4096


def fastpath_enabled() -> bool:
    """Whether plain constructions route to the fast path.

    Read at construction time, so tests can flip the environment
    per-simulator.  ``REPRO_SIM_FASTPATH=0`` disables; anything else
    (including unset) enables.
    """
    return os.environ.get(FASTPATH_ENV, "1") != "0"


class _FastCoreRun(_CoreRun):
    """Per-core state whose event timers live in the shared calendar.

    The five timer attributes of :class:`_CoreRun` become properties over
    one column of the simulator's ``(5, num_cores)`` deadline matrix, so
    base-class handlers (and tests that poke ``sim.cores[i].phase_end``)
    stay transparently in sync with the vectorized ``_next_event``.
    Period and total counters accumulate as plain floats; the
    ``period_counters`` property materializes a snapshot on demand.  The
    contention-solve slots cache this core's share of
    :func:`~repro.hardware.cpu.compute_effective_rates`, keyed by the
    behavior (and co-pressure) they were computed for; holding the
    behavior keeps its identity from being recycled.
    """

    __slots__ = (
        "cid",
        "_dl",
        "phases",
        "pc_cycles",
        "pc_instructions",
        "pc_l2_refs",
        "pc_l2_misses",
        "tot_cycles",
        "tot_instructions",
        "tot_l2_refs",
        "tot_l2_misses",
        "periods_sink",
        "adv",
        "busy",
        "rx",
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

    def __init__(
        self, core_id: int, deadlines: np.ndarray, l2_peers: tuple, bus_domain: int
    ):
        # The calendar column must exist before _CoreRun.__init__ assigns
        # the timer attributes (those writes go through the properties).
        self.cid = core_id
        self._dl = deadlines
        # Peers by id, not by core object: core <-> core references would
        # form cycles that outlive the run.
        self.l2_peers = l2_peers
        self.bus_domain = bus_domain
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
        self.periods_sink = None
        # Current stage's phase tuple, set at _switch_in and cleared with
        # the core: replaces the request.stages[i].phases[j] chain on the
        # per-event hot sites.  Sound because core.task is only assigned
        # in _switch_in (stage hand-offs create fresh tasks) and
        # enter_next_phase never leaves the stage.
        self.phases = None
        # Slot mirrors of CoreState.last_advance_cycle / busy_cycles /
        # rates: every mutation site is overridden here, so the mirrors
        # are authoritative during the run and synced back to the shared
        # CoreState when _run finishes (dataclass dict lookups are
        # measurable at per-event frequency).
        self.adv = 0.0
        self.busy = 0.0
        self.rx = None
        self.pc_cycles = 0.0
        self.pc_instructions = 0.0
        self.pc_l2_refs = 0.0
        self.pc_l2_misses = 0.0
        self.tot_cycles = 0.0
        self.tot_instructions = 0.0
        self.tot_l2_refs = 0.0
        self.tot_l2_misses = 0.0
        super().__init__(core_id)

    # Timer properties shadow the base-class slots; getters return plain
    # floats so values never leak numpy scalars into serialized output.

    @property
    def phase_end(self):
        return float(self._dl[_ROW_PHASE, self.cid])

    @phase_end.setter
    def phase_end(self, value):
        self._dl[_ROW_PHASE, self.cid] = value

    @property
    def quantum_end(self):
        return float(self._dl[_ROW_QUANTUM, self.cid])

    @quantum_end.setter
    def quantum_end(self, value):
        self._dl[_ROW_QUANTUM, self.cid] = value

    @property
    def next_resched(self):
        return float(self._dl[_ROW_RESCHED, self.cid])

    @next_resched.setter
    def next_resched(self, value):
        self._dl[_ROW_RESCHED, self.cid] = value

    @property
    def next_interrupt(self):
        return float(self._dl[_ROW_INTERRUPT, self.cid])

    @next_interrupt.setter
    def next_interrupt(self, value):
        self._dl[_ROW_INTERRUPT, self.cid] = value

    @property
    def next_ratecall(self):
        return float(self._dl[_ROW_RATECALL, self.cid])

    @next_ratecall.setter
    def next_ratecall(self, value):
        self._dl[_ROW_RATECALL, self.cid] = value

    @property
    def period_counters(self):
        return CounterSnapshot(
            cycles=self.pc_cycles,
            instructions=self.pc_instructions,
            l2_refs=self.pc_l2_refs,
            l2_misses=self.pc_l2_misses,
        )

    @period_counters.setter
    def period_counters(self, value):
        self.pc_cycles = value.cycles
        self.pc_instructions = value.instructions
        self.pc_l2_refs = value.l2_refs
        self.pc_l2_misses = value.l2_misses


class FastpathSimulator(ServerSimulator):
    """SoA/calendar restructuring of the reference event loop.

    Only data-structure plumbing is overridden; every scheduling,
    dispatch, hand-off, and completion decision stays in the base class,
    operating through the timer properties and overridden helpers.  The
    differential suite (``tests/kernel/test_fastpath_differential.py``)
    asserts byte-identity against :class:`ReferenceSimulator` across the
    workload x sampling x traffic grid.
    """

    def __init__(self, workload, config):
        super().__init__(workload, config)
        self._ncores = self.machine.num_cores
        self._phase_row = self._dl[_ROW_PHASE]
        self._cost_memo_ik = {}
        self._cost_memo_int = {}
        self._miss_penalty = self.machine.l2_miss_penalty_cycles
        # Per-domain bus totals, reset in place by every solve.
        self._bus_zeros = [0.0] * self.machine.num_machines
        self._bus_totals = list(self._bus_zeros)
        bus = self.config.bus
        self._bus_gamma = bus.contention_gamma
        self._bus_beta = bus.contention_beta
        self._bus_occ_clamp = (bus.machine_cores - 1) * bus.max_occupancy
        # The base scheduler hook is a documented no-op; skipping the call
        # for policies that don't override it keeps the flush path lean.
        self._scheduler_samples = (
            type(self.scheduler).on_sample is not SchedulerPolicy.on_sample
        )
        self._accepts_trigger = self.policy.trigger_acceptor()
        self._wants_syscall = self.policy.wants_syscall_events()
        self._argmin = self._dl_flat.argmin
        # Direct period appends bypass close_period's per-sample lookup;
        # only safe when no period_sample observer needs the emission.
        self._direct_periods = not self.tracker.emits_period_samples
        if self.policy.mode is SamplingMode.INTERRUPT:
            self._sampler_delay = self._interrupt_cycles
        elif self._wants_syscall:
            self._sampler_delay = self._backup_cycles
        else:
            self._sampler_delay = None

    def _make_cores(self, num_cores: int) -> list:
        # Runs inside ServerSimulator.__init__: the calendar must exist
        # before the cores whose timer properties write through to it.
        deadlines = np.full((5, num_cores), _INF)
        self._dl = deadlines
        self._dl_flat = deadlines.reshape(-1)
        machine = self.machine
        return [
            _FastCoreRun(
                i, deadlines, machine.l2_peers_of(i), machine.bus_domain_of(i)
            )
            for i in range(num_cores)
        ]

    # ----------------------------------------------------------- event loop

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
            "phase_end": self._on_phase_end,
            "quantum_end": self._on_quantum_end,
            "resched": self._on_resched,
            "interrupt": self._on_interrupt,
            "ratecall": self._on_ratecall,
        }
        account = self.config.high_usage_mpi_threshold is not None
        num = self.config.num_requests
        next_event = self._next_event
        advance_all = self._advance_all
        sample = self._sample
        cores = self.cores
        interrupt_ctx = SamplingContext.INTERRUPT
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
                    advance_all(t)
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

        for core in self.cores:
            state = core.state
            state.total = CounterSnapshot(
                cycles=core.tot_cycles,
                instructions=core.tot_instructions,
                l2_refs=core.tot_l2_refs,
                l2_misses=core.tot_l2_misses,
            )
            state.last_advance_cycle = core.adv
            state.busy_cycles = core.busy
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
            busy_cycles_per_core=np.array([c.state.busy_cycles for c in self.cores]),
            latency=self.latency,
            requests_shed=self._shed,
        )

    def _next_event(self):
        """Vectorized argmin over the deadline calendar.

        The matrix rows are ordered by event priority and the flatten is
        C-order, so among equal minimum times ``argmin``'s
        first-occurrence rule picks the smallest ``(priority, core_id)``
        — the reference loop's exact ``(time, kind_priority, core_id)``
        key.  Idle cores hold ``inf`` in every row (maintained by
        ``_clear_core``), so they never win.  An arrival at the same
        timestamp beats every core event (priority 0 via ``<=``).
        """
        index = int(self._argmin())
        t = self._dl_flat[index]
        pending = self._pending_arrivals
        if pending and pending[0][0] <= t:
            return pending[0][0], -1, "arrival"
        if t == _INF:
            return _INF, -1, "none"
        row = index // self._ncores
        return float(t), index - row * self._ncores, _CALENDAR_KINDS[row]

    def _advance_all(self, t: float) -> None:
        # Scalar transcription of CoreState.advance + the period/task
        # bookkeeping: identical per-field operation order, no frozen
        # snapshot allocations on the hot path.
        for core in self.cores:
            elapsed = t - core.adv
            if elapsed <= 0.0:
                continue
            core.adv = t
            rates = core.rx
            if rates is None:
                continue
            instructions = elapsed / rates.cpi
            refs = instructions * rates.l2_refs_per_ins
            misses = refs * rates.l2_miss_ratio
            core.tot_cycles += elapsed
            core.tot_instructions += instructions
            core.tot_l2_refs += refs
            core.tot_l2_misses += misses
            core.busy += elapsed
            task = core.task
            if task is not None and instructions > 0:
                core.pc_cycles += elapsed
                core.pc_instructions += instructions
                core.pc_l2_refs += refs
                core.pc_l2_misses += misses
                task.instructions_done_in_phase += instructions

    # ------------------------------------------------------------- sampling

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

    def _inject(self, core: _FastCoreRun, cycles, instructions, refs, misses):
        """Scalar transcription of ``CoreState.inject`` + period adds."""
        core.tot_cycles += cycles
        core.tot_instructions += instructions
        core.tot_l2_refs += refs
        core.tot_l2_misses += misses
        core.busy += cycles
        core.adv += cycles
        core.pc_cycles += cycles
        core.pc_instructions += instructions
        core.pc_l2_refs += refs
        core.pc_l2_misses += misses

    def _flush_period(self, core, context) -> None:
        now = self.now
        cycles = core.pc_cycles
        instructions = core.pc_instructions
        if self._scheduler_samples:
            self.scheduler.on_sample(
                core.task, instructions, core.pc_l2_misses, cycles
            )
        # close_period drops no-activity periods; mirroring its test here
        # skips the snapshot/record allocations for them entirely.
        if cycles > 0 or instructions > 0:
            self.tracker.close_period(
                core.task.request_id,
                PeriodRecord(
                    start_cycle=core.period_start,
                    end_cycle=now,
                    core=core.cid,
                    counters=CounterSnapshot(
                        cycles=cycles,
                        instructions=instructions,
                        l2_refs=core.pc_l2_refs,
                        l2_misses=core.pc_l2_misses,
                    ),
                    injected_in_kernel=core.period_inj_ik,
                    injected_interrupt=core.period_inj_int,
                    closing_context=context,
                ),
            )
        core.period_start = now
        core.pc_cycles = 0.0
        core.pc_instructions = 0.0
        core.pc_l2_refs = 0.0
        core.pc_l2_misses = 0.0
        core.period_inj_ik = 0
        core.period_inj_int = 0

    def _sample(self, core, context: SamplingContext) -> None:
        """The flattened per-sample hot path.

        One method body covers flush + stats + cost injection + timer
        resets (the reference splits these across five calls): sampler
        events are by far the densest event kind, so call overhead and
        repeated attribute loads dominate otherwise.  Every arithmetic
        operation keeps the reference's exact order.
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
            # Positional construction: keyword packing is measurable at
            # this call frequency.  Field order is pinned by the
            # PeriodRecord / CounterSnapshot signatures.
            record = PeriodRecord(
                core.period_start,
                now,
                core.cid,
                CounterSnapshot(
                    cycles, instructions, core.pc_l2_refs, core.pc_l2_misses
                ),
                core.period_inj_ik,
                core.period_inj_int,
                context,
            )
            sink = core.periods_sink
            if sink is None:
                self.tracker.close_period(task.request_id, record)
            else:
                sink.append(record)
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
        cost_instructions = cost.instructions
        cost_refs = cost.l2_refs
        cost_misses = cost.l2_misses
        core.tot_cycles += cost_cycles
        core.tot_instructions += cost_instructions
        core.tot_l2_refs += cost_refs
        core.tot_l2_misses += cost_misses
        core.busy += cost_cycles
        last_advance = core.adv + cost_cycles
        core.adv = last_advance
        core.pc_cycles = cost_cycles
        core.pc_instructions = cost_instructions
        core.pc_l2_refs = cost_refs
        core.pc_l2_misses = cost_misses
        core.last_sample = now
        # --- inlined _reset_sampler_timers + _update_core_timers ---
        dl = self._dl
        cid = core.cid
        delay = self._sampler_delay
        dl[_ROW_INTERRUPT, cid] = _INF if delay is None else now + delay
        rates = core.rx
        if rates is not None:
            remaining = phase.instructions - task.instructions_done_in_phase
            if remaining <= 0.0:
                remaining = 0.0  # == max(0.0, remaining) bit-exactly
            dl[_ROW_PHASE, cid] = last_advance + remaining * rates.cpi
            if self._wants_syscall:
                self._reset_ratecall(core)

    def _reset_sampler_timers(self, core) -> None:
        delay = self._sampler_delay
        self._dl[_ROW_INTERRUPT, core.cid] = (
            _INF if delay is None else self.now + delay
        )

    def _on_phase_end(self, core_id: int) -> None:
        """Flattened base handler for the densest non-sampler event.

        ``core.phases`` replaces the ``task.stage.phases`` property chain
        and ``enter_next_phase`` is inlined on the dominant within-stage
        branch; every operation and its order match the reference.
        """
        core = self.cores[core_id]
        task = core.task
        phases = core.phases
        idx = task.phase_index
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

    def _on_ratecall(self, core_id: int) -> None:
        core = self.cores[core_id]
        task = core.task
        pool = core.phases[task.phase_index].syscall_pool
        name = pool[int(self.rng.integers(len(pool)))]
        if self._accepts_trigger(name):
            self._sample(core, SamplingContext.IN_KERNEL)
        else:
            self._reset_ratecall(core)

    # ---------------------------------------------------------- dispatching

    def _clear_core(self, core) -> None:
        core.state.rates = None
        core.rx = None
        core.periods_sink = None
        core.phases = None
        self._dl[:, core.cid] = _INF

    def _switch_in(self, core, task) -> None:
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
        self._dl[_ROW_QUANTUM, cid] = self.now + self._quantum_cycles
        self._dl[_ROW_RESCHED, cid] = (
            self.now + self._resched_cycles if self._resched_cycles else _INF
        )

        phases = task.request.stages[task.stage_index].phases
        core.phases = phases
        phase = phases[task.phase_index]
        if task.phase_index == 0 and task.instructions_done_in_phase == 0:
            if phase.entry_syscall is not None:
                self.tracker.record_syscall(
                    task.request_id, self.now, phase.entry_syscall
                )

        cost = self._sample_cost(
            SamplingContext.IN_KERNEL, phase.behavior.cache_footprint
        )
        cost_cycles = cost.cycles
        cost_instructions = cost.instructions
        cost_refs = cost.l2_refs
        cost_misses = cost.l2_misses
        self.stats.record(SamplingContext.IN_KERNEL, mandatory=True)
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

    # --------------------------------------------------------------- rates

    def _recompute_rates(self) -> None:
        """Per-core transcription of
        :func:`~repro.hardware.cpu.compute_effective_rates`.

        Bit-identical by construction: each cached value is the model
        call the reference makes, with the same arguments, and is reused
        only while those arguments are unchanged (the same behavior
        object, an equal co-pressure), which in practice leaves just the
        core that changed phase and its L2 peer to recompute.  Peer
        pressures sum from int ``0`` in ``l2_peers_of`` order, and bus
        totals, penalties and CPIs are rebuilt on every call in ascending
        core order — the reference's accumulation order.  Timer updates
        (and their RNG draws) follow in the same core order.
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
                    core.solo_cpi = behavior.solo_cpi(self._miss_penalty)

        cache = self.config.cache
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
                miss_ratio = cache.effective_miss_ratio(
                    behavior.l2_miss_ratio, behavior.cache_footprint, co_pressure
                )
                ref_rate = cache.effective_ref_rate(
                    behavior.l2_refs_per_ins, co_pressure
                )
                core.miss_ratio = miss_ratio
                core.ref_rate = ref_rate
                core.traffic = self.config.bus.miss_traffic(
                    ref_rate, miss_ratio, core.solo_cpi
                )
                core.contended = behavior
                core.co_pressure = co_pressure
            domain = core.bus_domain
            totals[domain] = totals[domain] + core.traffic

        penalty_base = self._miss_penalty
        gamma = self._bus_gamma
        beta = self._bus_beta
        occ_clamp = self._bus_occ_clamp
        phase_row = self._phase_row
        wants_syscall = self._wants_syscall
        for core in cores:
            task = core.task
            if task is None:
                core.state.rates = None
                core.rx = None
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
            ref_rate = core.ref_rate
            miss_ratio = core.miss_ratio
            rates = EffectiveRates(
                core.behavior.base_cpi + penalty * ref_rate * miss_ratio,
                ref_rate,
                miss_ratio,
            )
            core.state.rates = rates
            core.rx = rates
            # --- inlined _update_core_timers ---
            remaining = (
                core.phases[task.phase_index].instructions
                - task.instructions_done_in_phase
            )
            if not remaining > 0.0:
                remaining = 0.0  # == max(0.0, remaining), NaN included
            phase_row[core.cid] = core.adv + remaining * rates.cpi
            if wants_syscall:
                self._reset_ratecall(core)

    def _update_core_timers(self, core) -> None:
        task = core.task
        rates = core.rx
        if task is None or rates is None:
            return
        phase = core.phases[task.phase_index]
        remaining = max(
            0.0, phase.instructions - task.instructions_done_in_phase
        )
        self._dl[_ROW_PHASE, core.cid] = core.adv + remaining * rates.cpi
        # In non-syscall sampling modes the ratecall row is invariantly
        # inf (set by __init__/_clear_core; _reset_ratecall would only
        # rewrite inf), so the write is skipped entirely.
        if self._wants_syscall:
            self._reset_ratecall(core)

    def _reset_ratecall(self, core) -> None:
        cid = core.cid
        if not self._wants_syscall:
            self._dl[_ROW_RATECALL, cid] = _INF
            return
        task = core.task
        phase = core.phases[task.phase_index]
        if phase.syscall_rate_per_ins <= 0:
            self._dl[_ROW_RATECALL, cid] = _INF
            return
        earliest = max(
            core.adv,
            core.last_sample + self._t_syscall_min_cycles,
        )
        delay = next_rate_syscall_cycles(
            self.rng, phase.syscall_rate_per_ins, core.rx.cpi
        )
        self._dl[_ROW_RATECALL, cid] = earliest + delay


class ReferenceSimulator(ServerSimulator):
    """The reference event loop, pinned regardless of the environment.

    Construct this class directly to bypass the ``__new__`` routing —
    the differential suite and the speed benchmark compare
    :class:`FastpathSimulator` against it without touching the
    environment.
    """
