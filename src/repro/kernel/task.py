"""Schedulable tasks bound to request contexts.

A request may propagate over multiple server modules (tiers); within one
tier it is hosted by one task.  The tracker stitches the per-task execution
periods back into one continuous request timeline, exactly as the paper's
kernel instrumentation does for context switches and socket propagations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.workloads.base import Phase, RequestSpec, Stage


class TaskState(Enum):
    READY = "ready"
    RUNNING = "running"
    DONE = "done"


@dataclass(slots=True)
class Task:
    """One tier's worth of a request's execution."""

    task_id: int
    request: RequestSpec
    stage_index: int
    home_core: int
    state: TaskState = TaskState.READY
    phase_index: int = 0
    instructions_done_in_phase: float = 0.0
    enqueue_cycle: float = 0.0
    #: Whether the task has executed before (a resuming task whose cached
    #: state was evicted pays context-switch cache pollution; a fresh task's
    #: compulsory misses are already part of its phase miss ratios).
    has_started: bool = False
    #: Online prediction state attached by adaptive schedulers.
    predictor_state: dict = field(default_factory=dict)

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def stage(self) -> Stage:
        return self.request.stages[self.stage_index]

    @property
    def current_phase(self) -> Phase:
        return self.stage.phases[self.phase_index]

    @property
    def remaining_in_phase(self) -> float:
        return max(
            0.0, self.current_phase.instructions - self.instructions_done_in_phase
        )

    @property
    def remaining_in_stage(self) -> float:
        """Instructions left in this task's whole stage (dispatch load view).

        O(1) via the stage's cached cumulative-instruction table; the
        integer prefix sum is exact, so the float result is identical to
        summing the prior phases on every call.
        """
        stage = self.stage
        done_prior = stage.cumulative_instructions[self.phase_index]
        return max(
            0.0,
            stage.instructions - done_prior - self.instructions_done_in_phase,
        )

    @property
    def on_last_phase(self) -> bool:
        return self.phase_index == len(self.stage.phases) - 1

    @property
    def on_last_stage(self) -> bool:
        return self.stage_index == len(self.request.stages) - 1

    def advance_instructions(self, instructions: float) -> None:
        """Record phase progress; phase transitions are explicit events."""
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        self.instructions_done_in_phase += instructions

    def enter_next_phase(self) -> Optional[str]:
        """Move to the next phase in the stage; return its entry syscall.

        Raises if already on the stage's last phase — stage/request
        completion is handled by the simulator, not here.
        """
        if self.on_last_phase:
            raise RuntimeError("enter_next_phase called on last phase of stage")
        self.phase_index += 1
        self.instructions_done_in_phase = 0.0
        return self.current_phase.entry_syscall
