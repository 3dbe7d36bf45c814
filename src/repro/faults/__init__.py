"""Composable fault taxonomy and seeded fault schedules.

The ground-truth half of the detection/attribution loop: a taxonomy of
behavioral fault kinds (:mod:`repro.faults.taxonomy`) and composable,
seeded schedules over them (:mod:`repro.faults.schedule`), parsed from
the ``--faults`` spec grammar.  The analysis half — classifying *why* a
flagged request is anomalous — lives in
:mod:`repro.online.attribution`, scored against the ground truth this
package records.
"""

from repro.faults.schedule import (
    FaultClause,
    FaultSchedule,
    ScheduledFaultWorkload,
    parse_fault_schedule,
)
from repro.faults.taxonomy import (
    FAULT_TAXONOMY,
    INJECTORS,
    LEGACY_FAULT_KINDS,
)

__all__ = [
    "FAULT_TAXONOMY",
    "INJECTORS",
    "LEGACY_FAULT_KINDS",
    "FaultClause",
    "FaultSchedule",
    "ScheduledFaultWorkload",
    "parse_fault_schedule",
]
