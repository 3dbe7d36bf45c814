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
* **memoized pure kernels** — contention rate sets
  (:func:`~repro.hardware.cpu.compute_effective_rates`) and sampling cost
  snapshots are pure functions of hashable inputs; both are memoized per
  run with bounded caches.  Timer resets and RNG draws still run on every
  recompute — only the *values* are cached, never the side effects.

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

#: Bounded memo sizes (cleared on overflow, never evicted piecemeal).
_MEMO_CAP = 4096
#: Distinct whole-run rate keys tolerated with zero hits before the
#: rates memo concludes behavior sets never recur and turns itself off.
_RATES_MEMO_PROBATION = 256


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
    ``period_counters`` property materializes a snapshot on demand.
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
    )

    def __init__(self, core_id: int, deadlines: np.ndarray):
        # The calendar column must exist before _CoreRun.__init__ assigns
        # the timer attributes (those writes go through the properties).
        self.cid = core_id
        self._dl = deadlines
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
        ncores = self.machine.num_cores
        deadlines = np.full((5, ncores), _INF)
        self._dl = deadlines
        self._dl_flat = deadlines.reshape(-1)
        self._ncores = ncores
        self.cores = [_FastCoreRun(i, deadlines) for i in range(ncores)]
        self._rates_memo = {}
        # Whole-key rate memoization only pays when behavior sets recur
        # (mbench's constant behaviors).  Jittered server phases make
        # every key unique, so the per-event key build, probe, store, and
        # periodic clears are pure overhead there: workloads declare that
        # via ``jittered_behaviors``, and unlabeled workloads fall back
        # to a runtime probation (_RATES_MEMO_PROBATION distinct keys
        # with zero hits turns the memo off for good).  Purely a caching
        # decision: rates are recomputed identically either way.
        self._rates_memo_enabled = not getattr(
            workload, "jittered_behaviors", False
        )
        self._rates_memo_hits = 0
        self._pressure_memo = {}
        self._contention_memo = {}
        self._cost_memo_ik = {}
        self._cost_memo_int = {}
        self._miss_penalty = self.machine.l2_miss_penalty_cycles
        self._l2_peers = [self.machine.l2_peers_of(i) for i in range(ncores)]
        self._bus_domains = [self.machine.bus_domain_of(i) for i in range(ncores)]
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
        behaviors = {}
        for core in self.cores:
            task = core.task
            if task is not None:
                behaviors[core.cid] = core.phases[task.phase_index].behavior
        # Cores iterate in id order, so the (cid, id(behavior)) tuple is a
        # canonical key with a cheap int hash.  The memo value pins the
        # behavior objects, so an id in a live key can never be recycled
        # to a different behavior.  Only the pure rate values are memoized
        # — the per-core timer updates below (and their RNG draws) run on
        # every recompute, exactly as in the reference.
        if self._rates_memo_enabled:
            key = tuple((cid, id(b)) for cid, b in behaviors.items())
            entry = self._rates_memo.get(key)
            if entry is None:
                rates = self._compute_rates(behaviors)
                memo = self._rates_memo
                if len(memo) >= _RATES_MEMO_PROBATION and not self._rates_memo_hits:
                    # Hundreds of distinct keys and not one reuse: this
                    # run's behavior sets never recur (jittered server
                    # phases make them unique).  Stop keying for good.
                    self._rates_memo_enabled = False
                    memo.clear()
                elif len(memo) >= _MEMO_CAP:
                    memo.clear()
                else:
                    memo[key] = (tuple(behaviors.values()), rates)
            else:
                self._rates_memo_hits += 1
                rates = entry[1]
        else:
            rates = self._compute_rates(behaviors)
        dl = self._dl
        wants_syscall = self._wants_syscall
        for core in self.cores:
            r = rates[core.cid]
            if r is not None:
                core.state.rates = r
                core.rx = r
                # --- inlined _update_core_timers (task/rates non-None:
                # r came from this core's current behavior) ---
                task = core.task
                phase = core.phases[task.phase_index]
                remaining = max(
                    0.0, phase.instructions - task.instructions_done_in_phase
                )
                dl[_ROW_PHASE, core.cid] = core.adv + remaining * r.cpi
                if wants_syscall:
                    self._reset_ratecall(core)
            elif core.task is None:
                core.state.rates = None
                core.rx = None

    def _compute_rates(self, behaviors):
        """Inlined :func:`~repro.hardware.cpu.compute_effective_rates`.

        Bit-identical by construction: every accumulation (peer-pressure
        sums, per-domain bus totals) runs in the reference's exact order
        with the reference's exact start values, and the cache/bus model
        methods are invoked with the same arguments — just behind
        per-behavior and per-(behavior, co-pressure) memos, which is
        sound because the models are frozen and the functions pure.
        """
        cache = self.config.cache
        bus = self.config.bus
        penalty_base = self._miss_penalty
        pressure_memo = self._pressure_memo
        contention_memo = self._contention_memo

        # The inner memos key on id(behavior): PhaseBehavior's frozen-
        # dataclass __hash__ recomputes a field-tuple hash on every lookup,
        # and these dicts are probed several times per event.  id keys are
        # sound because the pressure memo holds a strong reference to each
        # behavior it has seen (so its id cannot be recycled while an entry
        # exists), and the contention memo — whose keys borrow those ids —
        # is cleared whenever the pressure memo is.
        # cid-indexed lists (None/0.0 for idle cores): iteration below is
        # always in ascending cid order — the reference's core order — so
        # every float accumulation is performed in the identical sequence,
        # and list indexing replaces per-event dict churn.
        ncores = self._ncores
        pressures = [None] * ncores
        solo_cpis = [0.0] * ncores
        for cid, behavior in behaviors.items():
            bid = id(behavior)
            entry = pressure_memo.get(bid)
            if entry is None:
                entry = (
                    behavior,
                    phase_pressure(
                        behavior.l2_refs_per_ins,
                        behavior.base_cpi,
                        behavior.cache_footprint,
                    ),
                    behavior.solo_cpi(penalty_base),
                )
                if len(pressure_memo) >= _MEMO_CAP:
                    pressure_memo.clear()
                    contention_memo.clear()
                pressure_memo[bid] = entry
            pressures[cid] = entry[1]
            solo_cpis[cid] = entry[2]

        contention = [None] * ncores
        bus_totals = {}
        for cid, behavior in behaviors.items():
            # sum() over the peer generator starts from int 0 and adds in
            # l2_peers_of order; replicate both exactly.
            co_pressure = 0
            for peer in self._l2_peers[cid]:
                peer_pressure = pressures[peer]
                if peer_pressure is not None:
                    co_pressure = co_pressure + peer_pressure
            ckey = (id(behavior), co_pressure)
            entry = contention_memo.get(ckey)
            if entry is None:
                miss_ratio = cache.effective_miss_ratio(
                    behavior.l2_miss_ratio, behavior.cache_footprint, co_pressure
                )
                ref_rate = cache.effective_ref_rate(
                    behavior.l2_refs_per_ins, co_pressure
                )
                entry = (
                    miss_ratio,
                    ref_rate,
                    bus.miss_traffic(ref_rate, miss_ratio, solo_cpis[cid]),
                )
                if len(contention_memo) >= _MEMO_CAP:
                    contention_memo.clear()
                contention_memo[ckey] = entry
            contention[cid] = entry
            domain = self._bus_domains[cid]
            bus_totals[domain] = bus_totals.get(domain, 0.0) + entry[2]

        gamma = self._bus_gamma
        beta = self._bus_beta
        occ_clamp = self._bus_occ_clamp
        rates = [None] * ncores
        for cid, behavior in behaviors.items():
            miss_ratio, ref_rate, traffic = contention[cid]
            others = bus_totals[self._bus_domains[cid]] - traffic
            # Inlined MemoryBusModel.effective_miss_penalty, op for op.
            occupancy = max(0.0, others)
            occupancy = min(occupancy, occ_clamp)
            penalty = penalty_base * (
                1.0 + gamma * occupancy + beta * occupancy**2
            )
            rates[cid] = EffectiveRates(
                cpi=behavior.base_cpi + penalty * ref_rate * miss_ratio,
                l2_refs_per_ins=ref_rate,
                l2_miss_ratio=miss_ratio,
            )
        return rates

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
