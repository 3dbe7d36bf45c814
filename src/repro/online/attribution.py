"""Online cause attribution: classify *why* a flagged request is anomalous.

The streaming anomaly detector (:class:`~repro.online.pipeline.
OnlinePipeline`, stage 3) says "this request deviates from its group";
the :class:`CauseAttributor` closes the paper's Section 4.3 loop by
saying *why*, from the same per-window counter stream the detector
already consumes — no extra instrumentation, bounded per-request state.

Features per completed window (all ratios against *per-window-index*
group centroids — the same incremental structure the anomaly stage uses
— learned from not-yet-flagged traffic, so a request's natural phase
profile is part of the baseline, not part of the signal):

* **CPI elevation** ``cpi / centroid_cpi[window]`` — how inflated, and
  in which windows (the *shape*: one spike, several disjoint spikes, a
  clean head with an elevated tail, or uniform inflation).
* **Reference-rate ratio** ``l2_refs_per_ins / centroid_refs[window]``
  — spinning executes almost no memory references (ratio well below
  one); bandwidth and locality faults push it well above one.  The
  per-index baseline matters: a commit phase's naturally low reference
  rate must not read as spinning.
* **Miss ratio** (absolute) — separates pathological locality (nearly
  every reference misses) from bandwidth saturation (streaming with a
  moderate miss ratio).

The decision tree mirrors the taxonomy's signature axes
(:mod:`repro.faults.taxonomy`):

1. A *strong* spike with a low reference ratio → spin family: extreme
   elevation is a ``gc_pause``; several disjoint spin runs a
   ``lock_convoy``; one run a ``lock_stall``.
2. A strong spike with a very high reference ratio → ``membw_saturation``
   (streaming); high reference ratio *and* high miss ratio →
   ``cache_thrash``.
3. Otherwise the elevation is moderate: a clean head with an elevated
   tail is a ``slow_replica``; broad coverage of mildly elevated
   windows a ``slowdown``; several disjoint mild runs a
   ``gray_degradation``.

Requests flagged before any window clears the elevation gates (or
before the kind's centroids have warmed up) attribute to ``"unknown"``
rather than guess.

Determinism contract: baselines accumulate in event order, state
round-trips exactly through :meth:`CauseAttributor.to_state` /
:meth:`from_state`, and every decision is a pure function of the window
stream — checkpoint/restore and failover replay reproduce the decision
log byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.centroids import GroupCentroids

__all__ = [
    "ATTRIBUTION_UNKNOWN",
    "AttributionThresholds",
    "CauseAttributor",
    "score_attribution",
    "score_detection",
]

#: Attribution verdict when no feature clears its gate.
ATTRIBUTION_UNKNOWN = "unknown"


@dataclass(frozen=True)
class AttributionThresholds:
    """Decision-tree gates (pinned; calibrated against injected faults on
    the tpcc/rubis/webserver smoke grid under multicore contention)."""

    #: A window is *mildly* elevated (shape analysis) at this CPI ratio.
    weak_elevation: float = 1.18
    #: A window whose reference ratio collapses to or below this (with
    #: CPI elevated past ``gc_min_elevation``) → gc_pause: the pause
    #: executes essentially no memory references, a collapse nothing
    #: else in the taxonomy produces.
    gc_refs_ratio: float = 0.3
    gc_min_elevation: float = 1.6
    #: At least ``membw_sustained_windows`` windows with a reference
    #: ratio at or above ``membw_sustained_refs`` → membw_saturation:
    #: saturation streams for a long stretch, thrashing spikes briefly.
    membw_sustained_refs: float = 2.0
    membw_sustained_windows: int = 3
    #: Maximum reference ratio at or above this → locality family
    #: (streaming or thrashing floods the reference stream).
    locality_refs_ratio: float = 2.5
    #: Weaker locality evidence: any elevated window whose reference
    #: ratio reaches this while missing at or above
    #: ``thrash_miss_ratio`` → cache_thrash (a straddling span dilutes
    #: the reference spike below the primary gate).
    locality_secondary_refs: float = 1.3
    locality_secondary_elevation: float = 1.3
    #: Miss ratio at the reference-spike window splitting cache_thrash
    #: (at or above) from membw_saturation (below: streaming misses
    #: moderately).
    thrash_miss_ratio: float = 0.7
    #: Spin evidence: a window with a reference ratio at or below this
    #: *and* CPI elevation at or above ``spin_elevation`` (dilute
    #: spinning depresses references while inflating CPI).
    spin_refs_ratio: float = 0.85
    spin_elevation: float = 1.4
    #: A spin window's elevation must exceed the mean elevation of
    #: windows more than two away by this factor — spin spans are local
    #: spikes, scaled faults elevate whole regions.
    spike_local_contrast: float = 1.25
    #: Convoy-run counting admits weaker spin windows (each convoy span
    #: is shorter than a lone stall, so per-window dilution is higher).
    convoy_refs_ratio: float = 0.88
    convoy_elevation: float = 1.3
    #: Disjoint spin-window runs at or above this → lock_convoy
    #: (fewer → lock_stall).
    convoy_runs: int = 2
    #: Smoothed last-third mean elevation over first-third mean at or
    #: above this (with the tail itself elevated past
    #: ``replica_tail_elevation``) → slow_replica: a degraded
    #: backend/tier slows the back of the request, not the front.  The
    #: middle third — where the degradation turns on — is ignored.
    replica_contrast: float = 1.25
    replica_tail_elevation: float = 1.15
    #: ... and the head itself must look healthy (a uniform slowdown's
    #: head does not).
    replica_head_elevation: float = 1.18
    #: ... and the tail's reference stream must stay ordinary (a late
    #: thrash span floods it).
    replica_max_tail_refs: float = 1.7
    #: Hysteresis bands for the elevated/healthy state machine used to
    #: count gray-degradation on/off alternations over the *smoothed*
    #: elevation shape: a window is elevated at or above
    #: ``gray_high_elevation``, healthy at or below
    #: ``gray_low_elevation``; ``gray_transitions`` state flips →
    #: gray_degradation.
    gray_high_elevation: float = 1.25
    gray_low_elevation: float = 1.1
    gray_transitions: int = 4
    #: Mildly-elevated coverage at or above this fraction of windows →
    #: slowdown (uniform inflation).
    slowdown_coverage: float = 0.5
    #: Tie-break for a single mild run: mean elevation at or above this
    #: → slowdown, below → gray_degradation.
    slowdown_elevation: float = 1.3
    #: Requests a kind's centroids must absorb before attribution starts.
    baseline_min_requests: int = 6


#: The gates every :class:`CauseAttributor` decides with.  They are fixed,
#: not a setting: a checkpoint carries baselines only, so a restored
#: attributor could not honour gates chosen at construction.
THRESHOLDS = AttributionThresholds()


class CauseAttributor:
    """Per-kind centroid baselines + signature classifier (deterministic)."""

    def __init__(self):
        #: Per-kind per-window-index running means, fed only from windows
        #: of requests not yet flagged (event order is part of the
        #: checkpoint byte-identity surface).
        self.cpi_centroids = GroupCentroids()
        self.refs_centroids = GroupCentroids()

    # -- baseline learning ----------------------------------------------

    #: Pooled-baseline group name; ``*`` cannot collide with a request
    #: kind (workload kinds are identifier-like).
    POOLED = "*"

    def baselines(self, kind: str) -> tuple:
        """The four running baselines a ``kind`` window folds into.

        ``(cpi, refs)`` centroids of the kind itself, then of the pooled
        cross-kind fallback, created on first use.  A group is never
        replaced once created, so a caller may keep the tuple for as long
        as it keeps this attributor.
        """
        return (
            self.cpi_centroids.group(kind),
            self.refs_centroids.group(kind),
            self.cpi_centroids.group(self.POOLED),
            self.refs_centroids.group(self.POOLED),
        )

    def observe_window(self, baselines: tuple, window_index: int,
                       cpi: float, refs_per_ins: float) -> None:
        """Fold one unflagged window into its kind's running baselines
        (and the pooled cross-kind fallback), as :meth:`baselines`
        returned them."""
        cpi_kind, refs_kind, cpi_pooled, refs_pooled = baselines
        cpi_kind.observe(window_index, cpi)
        refs_kind.observe(window_index, refs_per_ins)
        cpi_pooled.observe(window_index, cpi)
        refs_pooled.observe(window_index, refs_per_ins)

    def warm(self, kind: str) -> bool:
        """Whether the kind's baselines have absorbed enough requests."""
        return (
            self.cpi_centroids.group(kind).count_at(0)
            >= THRESHOLDS.baseline_min_requests
        )

    def _baseline_group(self, kind: str) -> Optional[str]:
        """The baseline to judge a request against: its own kind once
        warm, else the pooled cross-kind fallback (rare kinds would
        otherwise stay unattributable for the whole run)."""
        if self.warm(kind):
            return kind
        if self.warm(self.POOLED):
            return self.POOLED
        return None

    # -- classification --------------------------------------------------

    def classify(
        self, kind: str, features: Sequence[Sequence[float]]
    ) -> str:
        """Attribute a flagged request from its (cpi, refs, miss) windows."""
        baseline_group = self._baseline_group(kind) if features else None
        if baseline_group is None:
            return ATTRIBUTION_UNKNOWN
        t = THRESHOLDS
        cpi_centroid = self.cpi_centroids.group(baseline_group)
        refs_centroid = self.refs_centroids.group(baseline_group)

        # CPI elevation is judged against the *per-index* centroid (the
        # shape signal needs the kind's natural phase profile removed);
        # deep indices without population evidence fall back to the last
        # index that has some.  Reference ratios are judged against the
        # kind's *overall* mean instead: an injected span shifts every
        # later window's content relative to the index-aligned centroid,
        # which would make per-index reference ratios noisy exactly at
        # the windows the spin/locality tests inspect.
        refs_base = _overall_mean(refs_centroid)
        elevations: List[float] = []
        refs_ratios: List[float] = []
        miss_ratios: List[float] = []
        cpi_base: Optional[float] = None
        for index, window in enumerate(features):
            cpi, refs_per_ins, miss_ratio = window[0], window[1], window[2]
            mean = cpi_centroid.mean_at(index)
            if mean is not None and mean > 0:
                cpi_base = mean
            elevations.append(cpi / cpi_base if cpi_base else 1.0)
            refs_ratios.append(
                refs_per_ins / refs_base if refs_base else 1.0
            )
            miss_ratios.append(miss_ratio)

        count = len(features)
        weak = [i for i in range(count) if elevations[i] >= t.weak_elevation]

        # Trailing windows are unreliable (the final flush is partial and
        # drains with fewer co-runners), so counter-signature tests only
        # inspect a trimmed prefix.  Shape rules keep the full range —
        # their tail slack absorbs the same effect.
        if count >= 8:
            trimmed = count - 2
        elif count >= 4:
            trimmed = count - 1
        else:
            trimmed = count

        # GC pause: the reference rate collapses while CPI explodes —
        # nothing else in the taxonomy silences the reference stream.
        for i in range(trimmed):
            if (
                refs_ratios[i] <= t.gc_refs_ratio
                and elevations[i] >= t.gc_min_elevation
            ):
                return "gc_pause"

        # Locality family: a flooded reference stream.  Saturation
        # streams across several windows; thrashing spikes one or two
        # with a pathological miss ratio.
        sustained = sum(
            1
            for i in range(trimmed)
            if refs_ratios[i] >= t.membw_sustained_refs
        )
        if sustained >= t.membw_sustained_windows:
            return "membw_saturation"
        refs_peak = max(range(trimmed), key=lambda i: refs_ratios[i])
        if refs_ratios[refs_peak] >= t.locality_refs_ratio:
            if miss_ratios[refs_peak] >= t.thrash_miss_ratio:
                return "cache_thrash"
            return "membw_saturation"
        for i in range(trimmed):
            if (
                refs_ratios[i] >= t.locality_secondary_refs
                and miss_ratios[i] >= t.thrash_miss_ratio
                and elevations[i] >= t.locality_secondary_elevation
            ):
                return "cache_thrash"

        # Spin family: depressed references co-located with inflated CPI
        # that forms a *local* spike.  The locality guard separates spin
        # spans from scaled faults: a stall inflates one spot relative
        # to its surroundings, while a slowdown/slow-replica elevates
        # whole regions, so even its naturally reference-light windows
        # are no higher than their neighborhood.
        def _local_spike(i: int) -> bool:
            surround = [
                elevations[j]
                for j in range(count)
                if abs(j - i) > 2
            ]
            if not surround:
                return True
            return (
                elevations[i]
                >= t.spike_local_contrast * (sum(surround) / len(surround))
            )

        spin_windows = [
            i
            for i in range(trimmed)
            if refs_ratios[i] <= t.spin_refs_ratio
            and elevations[i] >= t.spin_elevation
            and _local_spike(i)
        ]
        if spin_windows:
            # No local-contrast guard here: a convoy's several spans
            # raise each other's surroundings, and the family decision
            # is already made.
            convoy_windows = [
                i
                for i in range(trimmed)
                if refs_ratios[i] <= t.convoy_refs_ratio
                and elevations[i] >= t.convoy_elevation
            ]
            if _runs(convoy_windows) >= t.convoy_runs:
                return "lock_convoy"
            return "lock_stall"

        # Scaled family (no counter signature): the elevation shape
        # decides, over a median-3 smoothing that suppresses
        # single-window contention noise.
        if not weak:
            return ATTRIBUTION_UNKNOWN
        smoothed = _median3(elevations)
        third = count // 3
        if third:
            head_mean = sum(smoothed[:third]) / third
            tail_mean = sum(smoothed[count - third:]) / third
            tail_refs_quiet = all(
                refs_ratios[i] < t.replica_max_tail_refs
                for i in range(count - third, count)
            )
            if (
                head_mean > 0
                and head_mean <= t.replica_head_elevation
                and tail_mean / head_mean >= t.replica_contrast
                and tail_mean >= t.replica_tail_elevation
                and tail_refs_quiet
            ):
                return "slow_replica"
        if (
            _transitions(
                smoothed, t.gray_high_elevation, t.gray_low_elevation
            )
            >= t.gray_transitions
        ):
            return "gray_degradation"
        covered = sum(1 for e in smoothed if e >= t.weak_elevation)
        if covered / count >= t.slowdown_coverage:
            return "slowdown"
        if _runs(weak) >= 2:
            return "gray_degradation"
        mean_elevation = sum(elevations[i] for i in weak) / len(weak)
        if mean_elevation >= t.slowdown_elevation:
            return "slowdown"
        return "gray_degradation"

    # -- checkpointing ---------------------------------------------------

    def to_state(self) -> dict:
        return {
            "cpi_centroids": self.cpi_centroids.to_state(),
            "refs_centroids": self.refs_centroids.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CauseAttributor":
        attributor = cls()
        attributor.cpi_centroids = GroupCentroids.from_state(
            state["cpi_centroids"]
        )
        attributor.refs_centroids = GroupCentroids.from_state(
            state["refs_centroids"]
        )
        return attributor


def _runs(indices: Sequence[int]) -> int:
    """Count maximal runs of consecutive window indices."""
    runs = 0
    previous = None
    for index in indices:
        if previous is None or index > previous + 1:
            runs += 1
        previous = index
    return runs


def _median3(values: Sequence[float]) -> List[float]:
    """Sliding median-of-three (endpoints pass through)."""
    count = len(values)
    if count < 3:
        return list(values)
    smoothed = [values[0]]
    for i in range(1, count - 1):
        smoothed.append(
            sorted((values[i - 1], values[i], values[i + 1]))[1]
        )
    smoothed.append(values[-1])
    return smoothed


def _transitions(elevations: Sequence[float], high: float, low: float) -> int:
    """Count elevated/healthy state flips with hysteresis.

    Windows between ``low`` and ``high`` keep the current state, so a
    single noisy dip inside an otherwise uniform elevation does not
    register as an on/off alternation.
    """
    flips = 0
    state = None
    for elevation in elevations:
        if elevation >= high:
            if state == "low":
                flips += 1
            state = "high"
        elif elevation <= low:
            if state == "high":
                flips += 1
            state = "low"
    return flips


def _overall_mean(centroid) -> Optional[float]:
    """Population-weighted mean across a centroid's window indices."""
    total = 0.0
    weight = 0
    for index in range(len(centroid)):
        count = centroid.count_at(index)
        mean = centroid.mean_at(index)
        if count and mean is not None:
            total += mean * count
            weight += count
    return total / weight if weight else None


def score_detection(flagged_ids, injected_ids, population: int) -> dict:
    """Recall/precision of an anomaly detector against injected ground truth.

    Recall is ``None`` when nothing was injected: there was nothing to
    find, so no share of it was found.  Precision is ``None`` when nothing
    was flagged, for the same reason.
    """
    flagged = set(flagged_ids)
    injected = set(injected_ids)
    true_positives = len(flagged & injected)
    return {
        "recall": true_positives / len(injected) if injected else None,
        "precision": true_positives / len(flagged) if flagged else None,
        "flagged": len(flagged),
        "injected": len(injected),
        "population": population,
    }


def score_attribution(records: Sequence[dict]) -> dict:
    """Score attribution decisions against injected ground truth.

    ``records`` are completed-request records carrying ``injected_fault``
    (ground truth), ``flagged``, and ``attributed_cause``.  Returns a
    JSON-ready document: per-kind precision/recall/accuracy, a confusion
    matrix over true kinds (rows) and attributed causes (columns, with
    ``missed`` for undetected injections), and overall accuracy over the
    detected-and-injected population.
    """
    confusion: Dict[str, Dict[str, int]] = {}
    per_kind: Dict[str, Dict[str, float]] = {}
    attributed_counts: Dict[str, int] = {}
    detected_total = 0
    correct_total = 0
    false_attributions = 0

    for record in records:
        truth = record.get("injected_fault")
        cause = record.get("attributed_cause")
        if cause is not None:
            attributed_counts[cause] = attributed_counts.get(cause, 0) + 1
        if truth is None:
            if cause is not None:
                row = confusion.setdefault("none", {})
                row[cause] = row.get(cause, 0) + 1
                false_attributions += 1
            continue
        stats = per_kind.setdefault(
            truth,
            {"injected": 0, "detected": 0, "correct": 0},
        )
        stats["injected"] += 1
        row = confusion.setdefault(truth, {})
        if cause is None:
            row["missed"] = row.get("missed", 0) + 1
            continue
        stats["detected"] += 1
        detected_total += 1
        row[cause] = row.get(cause, 0) + 1
        if cause == truth:
            stats["correct"] += 1
            correct_total += 1

    rows = []
    for kind in sorted(per_kind):
        stats = per_kind[kind]
        attributed = attributed_counts.get(kind, 0)
        rows.append(
            {
                "kind": kind,
                "injected": stats["injected"],
                "detected": stats["detected"],
                "correct": stats["correct"],
                "recall": (
                    stats["correct"] / stats["injected"]
                    if stats["injected"]
                    else None
                ),
                "precision": (
                    stats["correct"] / attributed if attributed else None
                ),
                "accuracy_given_detected": (
                    stats["correct"] / stats["detected"]
                    if stats["detected"]
                    else None
                ),
            }
        )
    return {
        "per_kind": rows,
        "confusion": {
            truth: dict(sorted(confusion[truth].items()))
            for truth in sorted(confusion)
        },
        "detected": detected_total,
        "correct": correct_total,
        "accuracy": correct_total / detected_total if detected_total else None,
        "false_attributions": false_attributions,
    }
