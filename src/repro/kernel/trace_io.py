"""JSON / JSONL export and import of request traces.

Captured request timelines are the interface between the online OS
tracking and offline modeling; persisting them lets analyses run on
recorded workloads (the paper's offline case studies) without re-running
the server.  Two encodings of the same per-request record:

* a plain JSON document holding every trace (the original format);
* JSONL — a header line followed by one trace object per line, written
  canonically (sorted keys, no whitespace) so identical runs export
  byte-identical files.  Streams and diffs better at fig12 scale, and
  matches the ``repro.obs`` event-export convention.

``save_traces``/``load_traces`` dispatch on a ``.jsonl`` path suffix.
"""

from __future__ import annotations

import json
import math
from typing import List

import numpy as np

from repro.jsondoc import canonical, read_document, read_jsonl
from repro.kernel.tracker import PERIOD_FIELDS, RequestTrace
from repro.workloads.base import RequestSpec, Stage
from repro.workloads.util import phase as make_phase

FORMAT = "repro-request-traces"
FORMAT_VERSION = 1

#: The serialized period columns: the row fields up to the two injected
#: counts, which are not stored (the counters are already compensated).
_COLUMNS = PERIOD_FIELDS[:7]


def trace_to_dict(trace: RequestTrace) -> dict:
    """Serialize one trace (measured timeline + minimal spec identity)."""
    spec = trace.spec
    return {
        "request_id": spec.request_id,
        "app": spec.app,
        "kind": spec.kind,
        "metadata": {k: _jsonable(v) for k, v in spec.metadata.items()},
        "arrival_cycle": trace.arrival_cycle,
        "completion_cycle": trace.completion_cycle,
        "frequency_ghz": trace.frequency_ghz,
        # Coerced to int so export -> import -> re-export is byte-stable
        # (the reconstructed spec stores integral phase instructions).
        "total_spec_instructions": int(round(spec.total_instructions)),
        "periods": {
            "start": trace.start.tolist(),
            "end": trace.end.tolist(),
            "core": trace.core.tolist(),
            "instructions": trace.instructions.tolist(),
            "cycles": trace.cycles.tolist(),
            "l2_refs": trace.l2_refs.tolist(),
            "l2_misses": trace.l2_misses.tolist(),
        },
        "syscalls": [[cycle, name] for cycle, name in trace.syscall_events],
    }


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _period_block(periods) -> np.ndarray:
    """The ``(P, 9)`` row block of the serialized period columns.

    Every column must be a list of floats or 64-bit ints as long as
    ``start``; a missing or short column or a bad entry raises
    :class:`ValueError` naming the column (and the entry's index).
    """
    if not isinstance(periods, dict):
        raise ValueError("periods is not an object of columns")
    columns = []
    for name in _COLUMNS:
        if name not in periods:
            raise ValueError(f"periods column {name!r} is missing")
        values = periods[name]
        if not isinstance(values, list):
            raise ValueError(f"periods column {name!r} is not a list")
        if columns and len(values) != len(columns[0]):
            raise ValueError(
                f"periods column {name!r} has {len(values)} entries, "
                f"'start' has {len(columns[0])}"
            )
        for index, value in enumerate(values):
            if type(value) is not float and (
                type(value) is not int or not -(2**63) <= value < 2**63
            ):
                raise ValueError(
                    f"periods column {name!r} entry {index} is {value!r}, "
                    "not a float or 64-bit int"
                )
        columns.append(values)
    # Zero injected counts: the stored counters need no compensation.
    zeros = [0] * len(columns[0])
    return np.array(columns + [zeros, zeros]).T


def _is_number(value) -> bool:
    """A finite float or an int; a bool is not a number here."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (
        isinstance(value, float) and math.isfinite(value)
    )


#: The checked fields outside the period columns: (test, what it needs).
_FIELDS = {
    "request_id": (
        lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"
    ),
    "app": (lambda v: isinstance(v, str), "a string"),
    "kind": (lambda v: isinstance(v, str), "a string"),
    "arrival_cycle": (_is_number, "a finite number"),
    "completion_cycle": (_is_number, "a finite number"),
    "frequency_ghz": (
        lambda v: _is_number(v) and v > 0, "a finite number above zero"
    ),
    "total_spec_instructions": (_is_number, "a finite number"),
    "metadata": (lambda v: isinstance(v, dict), "an object"),
}


def _field(data: dict, name: str, *default):
    """``data[name]`` (or ``default`` when given and the field is absent),
    checked against :data:`_FIELDS`; a bad value raises
    :class:`ValueError` naming the field."""
    value = data.get(name, *default) if default else data[name]
    test, expected = _FIELDS[name]
    if not test(value):
        raise ValueError(f"field {name!r} is {value!r}, not {expected}")
    return value


def _syscalls(data: dict) -> list:
    """The ``syscalls`` field as ``(cycle, name)`` pairs, checked."""
    entries = data.get("syscalls", [])
    if not isinstance(entries, list):
        raise ValueError(f"field 'syscalls' is {entries!r}, not a list")
    events = []
    for index, entry in enumerate(entries):
        if not (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and isinstance(entry[1], str)
            and _is_number(entry[0])
        ):
            raise ValueError(
                f"field 'syscalls' entry {index} is {entry!r}, "
                "not a [cycle, name] pair"
            )
        events.append((entry[0], entry[1]))
    return events


def trace_from_dict(data: dict) -> RequestTrace:
    """Reconstruct a trace.  The spec is rebuilt as a single opaque phase
    (the measured timeline, not the generative model, is what offline
    analyses consume).  A field of the wrong kind raises
    :class:`ValueError` naming it; a missing required one raises
    :class:`KeyError`."""
    if not isinstance(data, dict) or "periods" not in data:
        raise ValueError("not a serialized request trace")
    block = _period_block(data["periods"])
    total_ins = max(1, int(_field(data, "total_spec_instructions", 1)))
    spec = RequestSpec(
        request_id=_field(data, "request_id"),
        app=_field(data, "app"),
        kind=_field(data, "kind"),
        stages=(
            Stage(
                tier="recorded",
                phases=(
                    make_phase(
                        "recorded", total_ins, cpi=1.0, refs=0.0, miss=0.0,
                        footprint=0.0,
                    ),
                ),
            ),
        ),
        metadata=dict(_field(data, "metadata", {})),
    )
    return RequestTrace(
        spec=spec,
        arrival_cycle=_field(data, "arrival_cycle"),
        completion_cycle=_field(data, "completion_cycle"),
        periods=block,
        syscall_events=_syscalls(data),
        compensation=None,  # counters were stored already-compensated
        frequency_ghz=_field(data, "frequency_ghz", 3.0),
    )


def save_traces(traces: List[RequestTrace], path: str) -> None:
    """Write traces to ``path`` (JSONL when it ends in ``.jsonl``)."""
    if path.endswith(".jsonl"):
        save_traces_jsonl(traces, path)
        return
    document = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "traces": [trace_to_dict(t) for t in traces],
    }
    with open(path, "w") as fh:
        json.dump(document, fh)


def load_traces(path: str) -> List[RequestTrace]:
    """Read traces back from a JSON (or ``.jsonl``) file; a damaged one
    raises :class:`ValueError` naming the path and the trace index."""
    if path.endswith(".jsonl"):
        return load_traces_jsonl(path)
    with open(path) as fh:
        document = read_document(fh.read(), FORMAT, FORMAT_VERSION, path)
    records = document.get("traces")
    if not isinstance(records, list):
        raise ValueError(f"{path}: 'traces' is not a list")
    traces = []
    for index, record in enumerate(records):
        try:
            traces.append(trace_from_dict(record))
        except KeyError as error:
            raise ValueError(f"{path}, trace {index}: missing field {error}") from None
        except (ValueError, TypeError) as error:
            raise ValueError(f"{path}, trace {index}: {error}") from None
    return traces


def traces_to_jsonl(traces: List[RequestTrace]) -> str:
    """Canonical JSONL text: header line, then one trace per line.

    Canonical serialization (sorted keys, compact separators) makes the
    export a pure function of the trace contents — the property the
    determinism golden tests hash-compare.
    """
    lines = [
        canonical(
            {"format": FORMAT, "version": FORMAT_VERSION, "traces": len(traces)}
        )
    ]
    lines.extend(canonical(trace_to_dict(t)) for t in traces)
    return "\n".join(lines) + "\n"


def parse_traces_jsonl(text: str, where: str = "trace stream") -> List[RequestTrace]:
    """Parse JSONL text produced by :func:`traces_to_jsonl`.

    Raises :class:`ValueError` naming ``where`` (and the line) on a
    foreign header, unsupported version, malformed or damaged trace, or
    a count mismatch.
    """
    traces = []
    read_jsonl(
        text, FORMAT, FORMAT_VERSION, where,
        lambda payload: traces.append(trace_from_dict(payload)),
        count="traces",
    )
    return traces


def save_traces_jsonl(traces: List[RequestTrace], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(traces_to_jsonl(traces))


def load_traces_jsonl(path: str) -> List[RequestTrace]:
    with open(path) as fh:
        return parse_traces_jsonl(fh.read(), where=path)
