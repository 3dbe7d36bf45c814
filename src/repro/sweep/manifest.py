"""Versioned sweep manifests: durable, resumable progress documents.

A manifest is the single source of truth for a sweep in flight: the
embedded spec (so resume needs nothing but the manifest), the planned
scenario order, and one entry per scenario — ``pending``, ``done`` (with
its full result document), or ``quarantined`` (with the error that
exhausted its retries).  Serialization is canonical JSON under the same
discipline as ``repro-online-checkpoint``: a versioned envelope, loud
failure on foreign or future documents, and content that depends only on
*what* completed, never on completion order — so a sweep killed mid-run
and resumed produces a manifest byte-identical to an uninterrupted one.

Saves are atomic (temp file + rename): a ``SIGKILL`` between scenarios
leaves either the previous manifest or the new one, never a torn file.
"""

from __future__ import annotations

from typing import Dict, List

from repro.jsondoc import atomic_write, canonical, read_document
from repro.sweep.scenario import validate_result_document
from repro.sweep.spec import Scenario, SweepSpec

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "STATUS_DONE",
    "STATUS_PENDING",
    "STATUS_QUARANTINED",
    "SweepManifest",
]

MANIFEST_FORMAT = "repro-sweep-manifest"
MANIFEST_VERSION = 1

STATUS_PENDING = "pending"
STATUS_DONE = "done"
STATUS_QUARANTINED = "quarantined"
_STATUSES = (STATUS_PENDING, STATUS_DONE, STATUS_QUARANTINED)


def _fresh_entry() -> Dict:
    return {"status": STATUS_PENDING, "attempts": 0, "error": None, "result": None}


class SweepManifest:
    """Plan + progress of one sweep, keyed by scenario id."""

    def __init__(self, spec: SweepSpec, scenarios: Dict[str, Dict], order: List[str]):
        self.spec = spec
        self.scenarios = scenarios
        self.order = list(order)

    # -- planning --------------------------------------------------------

    @classmethod
    def plan(cls, spec: SweepSpec) -> "SweepManifest":
        """A fresh manifest with every scenario of the spec pending."""
        expanded = spec.expand()
        order = [s.scenario_id for s in expanded]
        if len(set(order)) != len(order):
            raise ValueError(f"spec {spec.name!r} produced duplicate scenario ids")
        return cls(spec, {sid: _fresh_entry() for sid in order}, order)

    def scenario_objects(self) -> Dict[str, Scenario]:
        """Reconstruct the Scenario for every id (expansion is deterministic)."""
        return {s.scenario_id: s for s in self.spec.expand()}

    # -- progress --------------------------------------------------------

    def ids_with_status(self, status: str) -> List[str]:
        return [sid for sid in self.order if self.scenarios[sid]["status"] == status]

    def pending_ids(self) -> List[str]:
        return self.ids_with_status(STATUS_PENDING)

    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in _STATUSES}
        for entry in self.scenarios.values():
            counts[entry["status"]] += 1
        counts["planned"] = len(self.order)
        return counts

    @property
    def complete(self) -> bool:
        """True when no scenario is pending (quarantined counts as settled)."""
        return not self.pending_ids()

    def result(self, scenario_id: str) -> Dict:
        entry = self.scenarios[scenario_id]
        if entry["status"] != STATUS_DONE:
            raise ValueError(
                f"scenario {scenario_id!r} has no result (status {entry['status']!r})"
            )
        return entry["result"]

    def mark_done(self, scenario_id: str, result: Dict, attempts: int = 1) -> None:
        validate_result_document(result, scenario_id)
        self.scenarios[scenario_id] = {
            "status": STATUS_DONE,
            "attempts": int(attempts),
            "error": None,
            "result": result,
        }

    def mark_quarantined(self, scenario_id: str, attempts: int, error: str) -> None:
        self.scenarios[scenario_id] = {
            "status": STATUS_QUARANTINED,
            "attempts": int(attempts),
            "error": str(error),
            "result": None,
        }

    def release_quarantined(self) -> List[str]:
        """Return quarantined scenarios to pending (``resume --retry-quarantined``)."""
        released = self.ids_with_status(STATUS_QUARANTINED)
        for sid in released:
            self.scenarios[sid] = _fresh_entry()
        return released

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> Dict:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "spec": self.spec.to_dict(),
            "spec_key": self.spec.spec_key,
            "order": self.order,
            "scenarios": self.scenarios,
        }

    def to_json(self) -> str:
        """Canonical bytes: a pure function of the spec and what completed."""
        return canonical(self.to_payload()) + "\n"

    @classmethod
    def from_payload(cls, payload, where: str = "manifest") -> "SweepManifest":
        """Rebuild a manifest; damage raises :class:`ValueError` naming
        ``where`` and the bad field."""
        payload = read_document(payload, MANIFEST_FORMAT, MANIFEST_VERSION, where)
        try:
            spec = SweepSpec.from_dict(payload.get("spec"))
        except ValueError as error:
            raise ValueError(f"{where}: embedded spec: {error}") from None
        if payload.get("spec_key") != spec.spec_key:
            raise ValueError(
                f"{where}: spec_key does not match its embedded spec "
                "(corrupt or hand-edited manifest)"
            )
        order = payload.get("order")
        planned = [s.scenario_id for s in spec.expand()]
        if order != planned:
            raise ValueError(
                f"{where}: scenario order does not match the spec's expansion "
                "(corrupt manifest or incompatible planner)"
            )
        scenarios = payload.get("scenarios")
        if not isinstance(scenarios, dict) or sorted(scenarios) != sorted(order):
            raise ValueError(f"{where}: scenarios do not cover the planned order")
        for sid, entry in scenarios.items():
            if not isinstance(entry, dict):
                raise ValueError(f"{where}: scenario {sid!r} entry is not an object")
            status = entry.get("status")
            if status not in _STATUSES:
                raise ValueError(
                    f"{where}: scenario {sid!r} has bad status {status!r}"
                )
            if status == STATUS_DONE:
                validate_result_document(
                    entry.get("result"), sid, f"{where}: scenario {sid!r} result"
                )
        return cls(spec, scenarios, order)

    @classmethod
    def from_json(cls, text: str, where: str = "manifest") -> "SweepManifest":
        return cls.from_payload(read_document(text, None, None, where), where)

    def save(self, path: str) -> None:
        """Atomic write: readers see the old or the new manifest, never a tear."""
        atomic_write(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "SweepManifest":
        with open(path) as fh:
            return cls.from_json(fh.read(), where=path)
