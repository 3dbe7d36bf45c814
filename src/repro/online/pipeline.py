"""The streaming online-analysis pipeline.

:class:`OnlinePipeline` subscribes to the simulator's structured event
stream (:class:`repro.obs.trace.TraceCollector`) and runs, incrementally
and with bounded per-request state, the paper's three "online" claims on
live traffic instead of post-hoc trace arrays:

1. **Incremental identification** — each completed fixed-instruction
   window extends the request's partial L2-references-per-instruction
   pattern; the pattern is matched against the signature bank
   (:class:`repro.core.identification.OnlineIdentifier`) and the match
   *commits* once the predicted label has been stable for
   :data:`COMMIT_STREAK` consecutive windows, recording how early (in
   instructions) the commitment happened (Figure 10, online).
2. **vaEWMA prediction** — every execution period's CPI feeds a
   per-request variable-aging EWMA (Equation 5); the one-step-ahead error
   is accumulated per request class and tracked in a
   :class:`~repro.obs.metrics.MetricsRegistry` (Figure 11, online).
3. **Streaming anomaly detection** — per semantic group (request kind),
   an :class:`~repro.core.centroids.IncrementalCentroid` maintains the
   running mean window CPI pattern; a request whose mean absolute
   deviation from its group centroid exceeds an adaptive P-square quantile
   threshold is flagged, and flags are scored for precision / recall /
   time-to-detect against the injected-fault ground truth carried on the
   request spec (Figures 8-9, online, validated like Fournier et al.).

The paper fixes these choices once, and so does the pipeline: the three
settings of :class:`OnlineConfig` are the only ones a caller picks, and
the rest are the module constants below.

Determinism contract: processing is a pure function of the event stream
and the pipeline's initial state.  Checkpoint (:mod:`repro.online.
checkpoint`) and restore mid-stream, and every subsequent decision — and
the final report — is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.centroids import GroupCentroids, IncrementalCentroid
from repro.core.identification import OnlineIdentifier
from repro.core.prediction import VaEwma
from repro.core.quantile import OnlineQuantile
from repro.hardware.counters import SamplingContext, SamplingCostModel
from repro.online.windows import IncrementalWindower


#: Event kinds the pipeline consumes.  A live collector restricted to
#: these (``TraceCollector(kinds=SUBSCRIBED_KINDS)``) skips record
#: construction for the simulator's denser instrumentation events,
#: keeping streaming overhead proportional to the analysis itself.
SUBSCRIBED_KINDS = frozenset(
    {"run_start", "request_admitted", "period_sample", "request_completed"}
)

#: Bank size at which the per-window identification sweep switches from
#: the plain-Python accumulation to the vectorized
#: :class:`~repro.core.kernels.PrefixL1Sweeper`.  Below this, interpreter
#: arithmetic beats numpy dispatch; above it the O(bank) numpy update
#: wins.  Both paths produce bit-identical distances, so the threshold
#: never affects decisions.
SWEEP_MIN_BANK = 64

#: Consecutive windows with a stable predicted label before the
#: identification commits.
COMMIT_STREAK = 3
#: Cap on the partial pattern (and attribution features) kept per
#: request: bounded memory on arbitrarily long requests.
MAX_WINDOWS = 256
#: Cap on the anomaly centroid's length per group.
CENTROID_MAX_WINDOWS = 512
#: Minimum observed windows before a request may be flagged.
ANOMALY_MIN_WINDOWS = 2
#: Minimum score observations in a group before flagging starts.
ANOMALY_WARMUP = 24
#: vaEWMA aging constant (Equation 5); its unit length is the window.
EWMA_ALPHA = 0.6

#: The minimum per-sample observer cost subtracted from each period, as
#: the offline trace compensation does: (instructions, cycles, l2_refs,
#: l2_misses) of an in-kernel sample, then of an interrupt sample.
_COMPENSATION = tuple(
    float(getattr(cost, name))
    for cost in map(
        SamplingCostModel().minimum_cost,
        (SamplingContext.IN_KERNEL, SamplingContext.INTERRUPT),
    )
    for name in ("instructions", "cycles", "l2_refs", "l2_misses")
)


@dataclass(frozen=True)
class OnlineConfig:
    """The streaming pipeline's settings (all deterministic)."""

    #: Fixed instruction window for patterns (identification + anomaly).
    window_instructions: float = 100_000.0
    #: Quantile of the per-window anomaly-score stream used as threshold.
    anomaly_quantile: float = 0.9
    #: Run the :class:`~repro.online.attribution.CauseAttributor` on
    #: flagged requests (opt-in: records, reports, and checkpoints gain
    #: attribution fields only when enabled, so every pre-attribution
    #: byte surface is unchanged at the default).
    attribute: bool = False

    def __post_init__(self):
        if not self.window_instructions > 0:
            raise ValueError(
                "window_instructions must be positive, "
                f"got {self.window_instructions!r}"
            )
        if not 0.0 < self.anomaly_quantile < 1.0:
            raise ValueError(
                "anomaly_quantile must be in (0, 1), "
                f"got {self.anomaly_quantile!r}"
            )


def check_identifier_window(
    config: OnlineConfig, identifier: Optional[OnlineIdentifier]
) -> None:
    """Refuse an identifier trained at another window than ``config``'s:
    its signatures would be matched against windows of a different size."""
    if (
        identifier is not None
        and identifier.window_instructions != config.window_instructions
    ):
        raise ValueError(
            "identifier was trained at window_instructions="
            f"{identifier.window_instructions!r}, but the pipeline windows "
            f"at window_instructions={config.window_instructions!r}"
        )


class _OpenRequest:
    """Streaming state for one in-flight request (bounded)."""

    __slots__ = (
        "request_id",
        "kind",
        "injected_fault",
        "admitted_cycle",
        "windower",
        "pattern",
        "ident_dists",
        "windows",
        "streak_label",
        "streak",
        "committed_label",
        "commit_windows",
        "predictor",
        "dist_sum",
        "dist_windows",
        "flagged",
        "flag_windows",
        "flag_score",
        "feature_windows",
        "centroid",
        "quantile",
        "baselines",
    )

    def __init__(self, request_id: int, kind: str, injected_fault, admitted_cycle,
                 windower: IncrementalWindower, predictor: VaEwma):
        self.request_id = request_id
        self.kind = kind
        self.injected_fault = injected_fault
        self.admitted_cycle = admitted_cycle
        self.windower = windower
        self.pattern: List[float] = []
        # Running per-signature prefix distances (a list on the Python
        # path, an ndarray under the vectorized sweeper); derived from
        # `pattern`, so not checkpointed — rebuilt on the first poll
        # after restore.
        self.ident_dists = None
        self.windows = 0
        self.streak_label: Optional[str] = None
        self.streak = 0
        self.committed_label: Optional[str] = None
        self.commit_windows: Optional[int] = None
        self.predictor = predictor
        self.dist_sum = 0.0
        self.dist_windows = 0
        self.flagged = False
        self.flag_windows: Optional[int] = None
        self.flag_score: Optional[float] = None
        # Per-window (cpi, refs_per_ins, miss_ratio) features, tracked
        # only when attribution is enabled (None otherwise, and then
        # absent from checkpoint state — the legacy byte surface).
        self.feature_windows: Optional[List[List[float]]] = None
        # The kind's shared anomaly centroid, P-square threshold and
        # attribution baselines, resolved from the pipeline on first use
        # (exactly when the per-kind lookup used to create them), so each
        # window skips the get-or-create lookups.  References into
        # pipeline state, not state of their own: never checkpointed, and
        # resolved afresh after a restore.
        self.centroid: Optional[IncrementalCentroid] = None
        self.quantile: Optional[OnlineQuantile] = None
        self.baselines: Optional[tuple] = None

    def to_state(self) -> dict:
        state = {
            "request_id": self.request_id,
            "kind": self.kind,
            "injected_fault": self.injected_fault,
            "admitted_cycle": self.admitted_cycle,
            "windower": self.windower.to_state(),
            "pattern": list(self.pattern),
            "windows": self.windows,
            "streak_label": self.streak_label,
            "streak": self.streak,
            "committed_label": self.committed_label,
            "commit_windows": self.commit_windows,
            "predictor_estimate": self.predictor._estimate,
            "dist_sum": self.dist_sum,
            "dist_windows": self.dist_windows,
            "flagged": self.flagged,
            "flag_windows": self.flag_windows,
            "flag_score": self.flag_score,
        }
        if self.feature_windows is not None:
            state["feature_windows"] = [list(w) for w in self.feature_windows]
        return state

    @classmethod
    def from_state(
        cls, state: dict, window_instructions: float
    ) -> "_OpenRequest":
        predictor = VaEwma(alpha=EWMA_ALPHA, unit_length=window_instructions)
        predictor._estimate = state["predictor_estimate"]
        request = cls(
            request_id=int(state["request_id"]),
            kind=state["kind"],
            injected_fault=state["injected_fault"],
            admitted_cycle=state["admitted_cycle"],
            windower=IncrementalWindower.from_state(state["windower"]),
            predictor=predictor,
        )
        request.pattern = [float(v) for v in state["pattern"]]
        request.windows = int(state["windows"])
        request.streak_label = state["streak_label"]
        request.streak = int(state["streak"])
        request.committed_label = state["committed_label"]
        request.commit_windows = state["commit_windows"]
        request.dist_sum = float(state["dist_sum"])
        request.dist_windows = int(state["dist_windows"])
        request.flagged = bool(state["flagged"])
        request.flag_windows = state["flag_windows"]
        request.flag_score = state["flag_score"]
        if "feature_windows" in state:
            request.feature_windows = [
                [float(v) for v in window]
                for window in state["feature_windows"]
            ]
        return request


@dataclass
class _ClassErrors:
    """Per-class rolling prediction-error accumulator (length-weighted)."""

    n: int = 0
    abs_sum: float = 0.0
    sq_sum: float = 0.0
    weight: float = 0.0

    def add(self, error: float, length: float) -> None:
        self.n += 1
        self.abs_sum += abs(error) * length
        self.sq_sum += error * error * length
        self.weight += length


class OnlinePipeline:
    """Event-driven streaming analysis over the simulator's trace stream.

    Use :meth:`process_event` as a :meth:`TraceCollector.subscribe`
    callback for live runs, or :meth:`process_events` to replay a recorded
    JSONL stream.  Events already covered by a restored checkpoint
    (``seq <= last_seq``) are skipped, so "restore then replay the whole
    stream" is safe and deterministic.
    """

    def __init__(
        self,
        config: Optional[OnlineConfig] = None,
        identifier: Optional[OnlineIdentifier] = None,
        registry=None,
    ):
        self.config = config or OnlineConfig()
        check_identifier_window(self.config, identifier)
        self.identifier = identifier
        self.registry = registry
        if self.config.attribute:
            from repro.online.attribution import CauseAttributor

            self.attributor: Optional[CauseAttributor] = CauseAttributor()
        else:
            self.attributor = None
        self.centroids = GroupCentroids(CENTROID_MAX_WINDOWS)
        self.quantiles: Dict[str, OnlineQuantile] = {}
        self.class_errors: Dict[str, _ClassErrors] = {}
        self.open: Dict[int, _OpenRequest] = {}
        self.records: List[dict] = []
        self.last_seq = -1
        self.events_seen = 0
        self.periods_seen = 0
        self.windows_seen = 0
        self.workload_name: Optional[str] = None
        self.seed: Optional[int] = None
        # Bank rows for the incremental identification sweep, fetched on
        # first use (the identifier may be attached before it is fitted).
        self._prefix_rows: Optional[tuple] = None
        # Vectorized sweeper + labels, installed instead of the Python
        # accumulation when the bank reaches SWEEP_MIN_BANK rows.
        self._sweeper = None
        self._sweep_labels: Optional[List[Optional[str]]] = None
        # Instruments resolved once: registry lookups are get-or-create
        # with name-collision checks, too heavy for the per-event path.
        if self.registry is not None:
            self._c_periods = self.registry.counter("online_periods")
            self._c_windows = self.registry.counter("online_windows")
            self._c_commits = self.registry.counter("online_commits")
            self._c_flags = self.registry.counter("online_flags")
            self._c_completed = self.registry.counter("online_requests_completed")
            self._h_pred_error = self.registry.histogram(
                "online_prediction_abs_error"
            )
            self._h_anomaly = self.registry.histogram("online_anomaly_score")
            self._h_commit_ins = self.registry.histogram(
                "online_commit_instructions"
            )

    # -- event intake ----------------------------------------------------

    def process_event(self, event) -> None:
        """Consume one :class:`~repro.obs.trace.ObsEvent` (idempotent by seq)."""
        if event.seq <= self.last_seq:
            return
        self.last_seq = event.seq
        self.events_seen += 1
        kind = event.kind
        if kind == "period_sample":
            self._on_period(event)
        elif kind == "request_admitted":
            self._on_admitted(event)
        elif kind == "request_completed":
            self._on_completed(event)
        elif kind == "run_start":
            self.workload_name = event.data.get("workload")
            self.seed = event.data.get("seed")

    def process_events(self, events) -> None:
        for event in events:
            self.process_event(event)

    # -- stage plumbing --------------------------------------------------

    def _on_admitted(self, event) -> None:
        config = self.config
        self.open[event.request_id] = _OpenRequest(
            request_id=event.request_id,
            kind=event.data.get("request_kind", "?"),
            injected_fault=event.data.get("injected_fault"),
            admitted_cycle=event.cycle,
            windower=IncrementalWindower(config.window_instructions),
            predictor=VaEwma(
                alpha=EWMA_ALPHA, unit_length=config.window_instructions
            ),
        )

    def _on_period(self, event) -> None:
        request = self.open.get(event.request_id)
        if request is None:  # stream attached mid-run; ignore strangers
            return
        self.periods_seen += 1
        if self.registry is not None:
            self._c_periods.inc()
        # Observer-effect compensation, inlined: this runs per period and
        # the call + tuple traffic of a helper was measurable.
        data = event.data
        (ik_instructions, ik_cycles, ik_l2_refs, ik_l2_misses,
         it_instructions, it_cycles, it_l2_refs, it_l2_misses) = _COMPENSATION
        n_ik = float(data.get("injected_in_kernel", 0))
        n_int = float(data.get("injected_interrupt", 0))
        instructions = (
            float(data["instructions"])
            - n_ik * ik_instructions - n_int * it_instructions
        )
        cycles = float(data["cycles"]) - n_ik * ik_cycles - n_int * it_cycles
        l2_refs = float(data["l2_refs"]) - n_ik * ik_l2_refs - n_int * it_l2_refs
        l2_misses = (
            float(data["l2_misses"]) - n_ik * ik_l2_misses - n_int * it_l2_misses
        )
        # Floored as max(1.0, x) / max(0.0, x) would floor them (NaN
        # included), without four builtin calls per period.
        instructions = instructions if instructions > 1.0 else 1.0
        cycles = cycles if cycles > 1.0 else 1.0
        l2_refs = l2_refs if l2_refs > 0.0 else 0.0
        l2_misses = l2_misses if l2_misses > 0.0 else 0.0

        # Stage 2: per-period vaEWMA prediction of CPI, scored one step
        # ahead (the floor above keeps instructions positive).
        value = cycles / instructions
        predictor = request.predictor
        predicted = predictor._estimate
        if predicted is not None:
            error = predicted - value
            label = request.committed_label or request.kind
            accumulator = self.class_errors.get(label)
            if accumulator is None:
                accumulator = self.class_errors[label] = _ClassErrors()
            accumulator.add(error, instructions)
            if self.registry is not None:
                self._h_pred_error.observe(abs(error), weight=instructions)
        predictor.observe(value, instructions)

        # Stages 1 + 3 run per completed fixed-instruction window.
        for window in request.windower.feed_counters(
            instructions, cycles, l2_refs, l2_misses
        ):
            self._on_window(request, window)

    def _on_window(self, request: _OpenRequest, window: tuple) -> None:
        config = self.config
        registry = self.registry
        self.windows_seen += 1
        window_index = request.windows
        request.windows += 1
        if registry is not None:
            self._c_windows.inc()
        # The window's two fixed metrics: CPI (anomaly, attribution) and
        # L2 references per instruction (identification, attribution; the
        # identifier's IDENTIFY_METRIC, which its signatures are built of).
        instructions = window[0]
        if instructions > 0:
            cpi = window[1] / instructions
            refs_per_ins = window[2] / instructions
        else:
            cpi = refs_per_ins = 0.0

        # Stage 1: incremental identification until committed.  The
        # per-signature prefix distance grows with the pattern — one
        # O(bank) update per window, never a full re-sweep.
        if request.committed_label is None and self.identifier is not None:
            rows_penalty = self._prefix_rows
            if rows_penalty is None:
                rows_penalty = self._prefix_rows = self.identifier.prefix_rows()
                if len(rows_penalty[0]) >= SWEEP_MIN_BANK:
                    self._sweeper, self._sweep_labels = (
                        self.identifier.prefix_sweeper()
                    )
            rows, penalty = rows_penalty
            pattern = request.pattern
            appended = False
            if len(pattern) < MAX_WINDOWS:
                pattern.append(refs_per_ins)
                appended = True
            dists = request.ident_dists
            sweeper = self._sweeper
            if sweeper is not None:
                # Large bank: vectorized O(bank) kernel update per window
                # (bit-identical to the scalar accumulation below).
                if dists is None:
                    dists = request.ident_dists = sweeper.start(pattern)
                elif appended:
                    sweeper.extend(dists, len(pattern) - 1, refs_per_ins)
                best = int(np.argmin(dists))
            else:
                if dists is None:
                    # First poll, or first poll after a checkpoint
                    # restore: accumulate the whole pattern in the same
                    # element order the incremental updates use, so a
                    # restored run stays byte-identical to an
                    # uninterrupted one.
                    dists = request.ident_dists = [0.0] * len(rows)
                    for index, (values, length, _) in enumerate(rows):
                        total = 0.0
                        for w, x in enumerate(pattern):
                            if w < length:
                                d = x - values[w]
                                total += d if d >= 0.0 else -d
                            else:
                                total += penalty
                        dists[index] = total
                elif appended:
                    w = len(pattern) - 1
                    for index, (values, length, _) in enumerate(rows):
                        if w < length:
                            d = refs_per_ins - values[w]
                            dists[index] += d if d >= 0.0 else -d
                        else:
                            dists[index] += penalty
                best = 0
                best_distance = dists[0]
                for index in range(1, len(dists)):
                    if dists[index] < best_distance:
                        best_distance = dists[index]
                        best = index
            label = rows[best][2]
            if label == request.streak_label:
                request.streak += 1
            else:
                request.streak_label = label
                request.streak = 1
            if request.streak >= COMMIT_STREAK:
                request.committed_label = label
                request.commit_windows = request.windows
                # The running distances only serve the commit decision.
                request.ident_dists = None
                if registry is not None:
                    self._c_commits.inc()
                    self._h_commit_ins.observe(
                        request.windows * config.window_instructions
                    )

        # Stage 3: streaming centroid-deviation anomaly detection.  The
        # window's CPI is scored against the kind's pre-existing
        # population, then joins it as evidence.
        centroid = request.centroid
        if centroid is None:
            centroid = request.centroid = self.centroids.group(request.kind)
        deviation = centroid.observe(window_index, cpi)
        if deviation is not None:
            request.dist_sum += deviation
            request.dist_windows += 1
            score = request.dist_sum / request.dist_windows
            quantile = request.quantile
            if quantile is None:
                quantile = self.quantiles.get(request.kind)
                if quantile is None:
                    quantile = self.quantiles[request.kind] = OnlineQuantile(
                        q=config.anomaly_quantile
                    )
                request.quantile = quantile
            if (
                not request.flagged
                and quantile.count >= ANOMALY_WARMUP
                and request.dist_windows >= ANOMALY_MIN_WINDOWS
            ):
                threshold = quantile.estimate()
                if threshold is not None and score > threshold:
                    request.flagged = True
                    request.flag_windows = request.windows
                    request.flag_score = score
                    if registry is not None:
                        self._c_flags.inc()
            quantile.observe(score)
            if registry is not None:
                self._h_anomaly.observe(score)

        # Cause attribution (opt-in): track per-window signature features
        # and fold unflagged windows into the kind's baseline.  A window
        # that just triggered the flag is already excluded — baselines
        # learn from traffic still believed healthy.
        attributor = self.attributor
        if attributor is not None:
            l2_refs = window[2]
            miss_ratio = window[3] / l2_refs if l2_refs > 0 else 0.0
            features = request.feature_windows
            if features is None:
                features = request.feature_windows = []
            if len(features) < MAX_WINDOWS:
                features.append([cpi, refs_per_ins, miss_ratio])
            if not request.flagged:
                baselines = request.baselines
                if baselines is None:
                    baselines = request.baselines = attributor.baselines(
                        request.kind
                    )
                attributor.observe_window(
                    baselines, window_index, cpi, refs_per_ins
                )

    def _on_completed(self, event) -> None:
        request = self.open.pop(event.request_id, None)
        if request is None:
            return
        # A request shorter than one window still contributes its partial
        # tail (mirroring the offline windowing convention).
        for window in request.windower.flush_counters():
            self._on_window(request, window)
        config = self.config
        record = {
            "request_id": request.request_id,
            "kind": request.kind,
            "injected_fault": request.injected_fault,
            "windows": request.windows,
            "instructions_observed": request.windows * config.window_instructions,
            "committed_label": request.committed_label,
            "commit_instructions": (
                request.commit_windows * config.window_instructions
                if request.commit_windows is not None
                else None
            ),
            "label_correct": (
                request.committed_label == request.kind
                if request.committed_label is not None
                else None
            ),
            "flagged": request.flagged,
            "time_to_detect_instructions": (
                request.flag_windows * config.window_instructions
                if request.flag_windows is not None
                else None
            ),
            "flag_score": request.flag_score,
            "latency_cycles": event.cycle - request.admitted_cycle,
        }
        if self.attributor is not None:
            record["attributed_cause"] = (
                self.attributor.classify(
                    request.kind, request.feature_windows or ()
                )
                if request.flagged
                else None
            )
        self.records.append(record)
        if self.registry is not None:
            self._c_completed.inc()

    # -- checkpointing ---------------------------------------------------

    def to_state(self) -> dict:
        """Full pipeline state as a JSON-ready dict (see checkpoint docs)."""
        state = {
            "config": asdict(self.config),
            "identifier": (
                self.identifier.to_state() if self.identifier is not None else None
            ),
            "centroids": self.centroids.to_state(),
            "quantiles": {
                key: self.quantiles[key].to_state()
                for key in sorted(self.quantiles)
            },
            "class_errors": {
                key: asdict(self.class_errors[key])
                for key in sorted(self.class_errors)
            },
            "open": [
                self.open[request_id].to_state()
                for request_id in sorted(self.open)
            ],
            "records": list(self.records),
            "last_seq": self.last_seq,
            "events_seen": self.events_seen,
            "periods_seen": self.periods_seen,
            "windows_seen": self.windows_seen,
            "workload_name": self.workload_name,
            "seed": self.seed,
        }
        if self.attributor is not None:
            state["attributor"] = self.attributor.to_state()
        return state

    @classmethod
    def from_state(cls, state: dict, registry=None) -> "OnlinePipeline":
        config = OnlineConfig(**state["config"])
        identifier = (
            OnlineIdentifier.from_state(state["identifier"])
            if state["identifier"] is not None
            else None
        )
        pipeline = cls(config=config, identifier=identifier, registry=registry)
        pipeline.centroids = GroupCentroids.from_state(state["centroids"])
        pipeline.quantiles = {
            key: OnlineQuantile.from_state(quantile_state)
            for key, quantile_state in state["quantiles"].items()
        }
        pipeline.class_errors = {
            key: _ClassErrors(**errors)
            for key, errors in state["class_errors"].items()
        }
        pipeline.open = {
            request_state["request_id"]: _OpenRequest.from_state(
                request_state, config.window_instructions
            )
            for request_state in state["open"]
        }
        pipeline.records = list(state["records"])
        pipeline.last_seq = int(state["last_seq"])
        pipeline.events_seen = int(state["events_seen"])
        pipeline.periods_seen = int(state["periods_seen"])
        pipeline.windows_seen = int(state["windows_seen"])
        pipeline.workload_name = state["workload_name"]
        pipeline.seed = state["seed"]
        if pipeline.attributor is not None and "attributor" in state:
            from repro.online.attribution import CauseAttributor

            pipeline.attributor = CauseAttributor.from_state(
                state["attributor"]
            )
        return pipeline


def train_identifier(
    workload,
    num_requests: int = 30,
    seed: int = 9001,
    window_instructions: float = 100_000.0,
) -> OnlineIdentifier:
    """Fit an :class:`OnlineIdentifier` from a clean calibration run.

    The run samples on the workload's interrupt period with up to 8
    clients.  The signature bank must be built from *unperturbed*
    traffic, so pass the underlying workload (not a fault-injecting
    wrapper).
    """
    from repro.kernel.sampling import SamplingPolicy
    from repro.kernel.simulator import ServerSimulator, SimConfig

    config = SimConfig(
        sampling=SamplingPolicy.interrupt(workload.sampling_period_us),
        num_requests=num_requests,
        concurrency=min(8, num_requests),
        seed=seed,
    )
    result = ServerSimulator(workload, config).run()
    identifier = OnlineIdentifier(
        window_instructions=window_instructions, seed=seed
    )
    return identifier.fit(result.traces)
