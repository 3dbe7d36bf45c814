"""Sharded sweep execution: fork workers, timeouts, retries, quarantine.

The executor walks a manifest's pending scenarios in plan order and
settles each one: ``done`` with its result document, or — after a
per-scenario timeout or ``retries`` additional failed attempts —
``quarantined`` with the error, never aborting the rest of the sweep.
The manifest is saved (atomically) after every settled scenario, so a
``SIGKILL`` at any point loses at most the scenarios in flight; resuming
re-plans from the embedded spec and re-runs exactly the pending ids.

Scenarios run through :func:`repro.parallel.fork_map`: with ``jobs > 1``
or a timeout, each scenario gets its *own* forked process, its
description travels there by address-space inheritance and only the
result document crosses a pipe, so a timed-out or crashed scenario is
killed without harming the others.  Because every scenario is an
independent pure function of its description, shard count cannot change
any result; jobs=1 and jobs=N manifests are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.parallel import LostTask, fork_map
from repro.sweep.cache import ScenarioCache
from repro.sweep.manifest import SweepManifest
from repro.sweep.scenario import run_scenario
from repro.sweep.spec import Scenario

__all__ = ["SweepOptions", "run_sweep"]


@dataclass
class SweepOptions:
    """Execution knobs for one :func:`run_sweep` call."""

    #: Worker processes alive at once; 1 without a timeout (or no fork
    #: support) runs scenarios in-process.
    jobs: int = 1
    #: Per-scenario wall-clock limit; setting it runs every scenario in a
    #: forked worker, even at ``jobs=1``, so a hung one can be killed.
    timeout_s: Optional[float] = None
    #: Additional attempts after a scenario's first failure.
    retries: int = 1
    #: Settle at most this many scenarios, then return (tests use this to
    #: emulate an interrupted sweep; CI kills the process for real).
    stop_after: Optional[int] = None
    #: Cross-sweep result cache; hits settle without executing.
    cache: Optional[ScenarioCache] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and not (
            math.isfinite(self.timeout_s) and self.timeout_s > 0
        ):
            raise ValueError(
                f"timeout_s must be finite and > 0, got {self.timeout_s}"
            )
        if self.stop_after is not None and self.stop_after < 1:
            raise ValueError(f"stop_after must be >= 1, got {self.stop_after}")


class _Progress:
    """Settlement bookkeeping: manifest, cache, progress callback."""

    def __init__(self, manifest: SweepManifest, manifest_path, options, progress):
        self.manifest = manifest
        self.manifest_path = manifest_path
        self.options = options
        self.progress = progress
        self.settled = 0

    def _save(self) -> None:
        if self.manifest_path is not None:
            self.manifest.save(self.manifest_path)

    def done(self, scenario: Scenario, document: Dict, attempts: int,
             from_cache: bool = False) -> None:
        self.manifest.mark_done(scenario.scenario_id, document, attempts)
        cache = self.options.cache
        if cache is not None and not from_cache:
            cache.put(scenario.content_key, document)
            cache.save()
        self._save()
        self.settled += 1
        if self.progress is not None:
            status = "cached" if from_cache else "done"
            self.progress(scenario.scenario_id, status)

    def quarantined(self, scenario: Scenario, attempts: int, error: str) -> None:
        self.manifest.mark_quarantined(scenario.scenario_id, attempts, error)
        self._save()
        self.settled += 1
        if self.progress is not None:
            self.progress(scenario.scenario_id, f"quarantined: {error}")

    @property
    def budget_left(self) -> bool:
        stop_after = self.options.stop_after
        return stop_after is None or self.settled < stop_after


def run_sweep(
    manifest: SweepManifest,
    manifest_path: Optional[str] = None,
    options: Optional[SweepOptions] = None,
    progress=None,
) -> SweepManifest:
    """Settle the manifest's pending scenarios (subject to ``stop_after``).

    ``progress`` is an optional ``(scenario_id, status_text)`` callback.
    Returns the (mutated) manifest; when ``manifest_path`` is given it has
    been saved after every settlement, including before returning early.
    """
    options = options or SweepOptions()
    tracker = _Progress(manifest, manifest_path, options, progress)
    objects = manifest.scenario_objects()
    pending = [objects[sid] for sid in manifest.pending_ids()]

    if manifest_path is not None:
        # Persist the plan up front so a kill during the very first
        # scenario still leaves a resumable manifest on disk.
        manifest.save(manifest_path)

    remaining: List[Scenario] = []
    for scenario in pending:
        if not tracker.budget_left:
            return manifest
        cached = (
            options.cache.get(scenario.content_key)
            if options.cache is not None
            else None
        )
        if cached is not None:
            # A hit counts as one attempt: the manifest must not encode
            # whether a cache happened to be warm, or warm-cache resumes
            # would break the byte-identity contract.
            tracker.done(scenario, cached, attempts=1, from_cache=True)
        else:
            remaining.append(scenario)

    if options.stop_after is not None:
        remaining = remaining[: options.stop_after - tracker.settled]

    # run_scenario is looked up here, at call time, so a monkeypatched
    # copy reaches the forked workers too.
    for index, ok, value, attempts in fork_map(
        run_scenario,
        remaining,
        options.jobs,
        timeout_s=options.timeout_s,
        retries=options.retries,
    ):
        scenario = remaining[index]
        if ok:
            tracker.done(scenario, value, attempts)
        else:
            reason = (
                str(value)
                if isinstance(value, LostTask)
                else f"{type(value).__name__}: {value}"
            )
            tracker.quarantined(scenario, attempts, reason)
    return manifest
