"""One seeded fuzz suite over every versioned-document reader.

Each case takes a valid document from its writer, damages it one way
(truncate it, delete a key, swap a value's type, insert a garbage line)
and hands the file to its reader.  The reader must accept the result or
raise its documented ``ValueError`` subclass with a message naming the
path; a ``KeyError``, ``TypeError``, ``AttributeError`` or
``IndexError`` fails the case.  The string grammars (``--faults``,
``--arrivals``, ``--sampling``) have suites of their own.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.kernel.trace_io import load_traces, save_traces
from repro.obs.trace import events_to_jsonl, load_events
from repro.online.checkpoint import (
    CheckpointError,
    checkpoint_to_json,
    load_checkpoint,
)
from repro.online.pipeline import OnlinePipeline, train_identifier
from repro.serve.aggregator import load_worker_report, merge_worker_reports
from repro.serve.instance import InstanceSpec, generate_instance_events
from repro.serve.service import save_worker_reports
from repro.serve.worker import ShardWorker, WorkerConfig, load_bank, save_bank
from repro.sweep.manifest import SweepManifest
from repro.sweep.scenario import (
    result_to_json,
    run_scenario,
    validate_result_document,
)
from repro.sweep.spec import SweepSpec
from repro.traffic import load_schedule, save_schedule
from repro.workloads.registry import make_workload

#: Values a type swap puts in place of a field (one of another type).
SWAPS = (None, 0, 1.5, "x", [], {}, True)

#: Lines a garbage insertion adds.
GARBAGE = ("{", "[]", "42", "null", '"x"', '{"a":1}', "garbage")


def _write(tmp, name, text):
    path = tmp / name
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """``{kind: (path, reader, error type)}`` for one valid document of
    each kind, written by its own writer."""
    tmp = tmp_path_factory.mktemp("documents")
    spec = InstanceSpec(
        instance=0, workload="tpcc", requests=3, seed=1, faults="lock_stall:0.5"
    )
    events = generate_instance_events(spec)
    identifier = train_identifier(make_workload("tpcc"), num_requests=3, seed=5)
    pipeline = OnlinePipeline(identifier=identifier)
    pipeline.process_events(events[: len(events) // 2])

    worker = ShardWorker(
        WorkerConfig(
            shard="w0", socket_path=str(tmp / "w0.sock"),
            checkpoint_dir=str(tmp / "ckpt"),
        )
    )
    worker._state_for(0).pipeline.process_events(events)

    workload = make_workload("mbench_spin")
    traces = ServerSimulator(
        workload,
        SimConfig(
            sampling=SamplingPolicy.interrupt(workload.sampling_period_us),
            num_requests=2, concurrency=2, seed=3,
        ),
    ).run().traces

    sweep = SweepSpec(
        name="fuzz", workloads=("mbench_spin",), sampling=("interrupt:100",),
        seeds=(0, 1), requests=2, concurrency=2,
    )
    manifest = SweepManifest.plan(sweep)
    scenario = sweep.expand()[0]
    result = run_scenario(scenario)
    manifest.mark_done(scenario.scenario_id, result)

    bank = tmp / "bank.json"
    save_bank(identifier, str(bank))
    save_traces(traces, str(tmp / "traces.jsonl"))
    save_traces(traces, str(tmp / "traces.json"))
    schedule = tmp / "schedule.jsonl"
    save_schedule([(0.5 * i, i % 3 if i % 2 else None) for i in range(6)],
                  str(schedule))
    return {
        "checkpoint": (
            _write(tmp, "ckpt.json", checkpoint_to_json(pipeline) + "\n"),
            load_checkpoint, CheckpointError,
        ),
        "bank": (bank, load_bank, ValueError),
        "worker report": (
            tmp / save_worker_reports([worker.build_report()], str(tmp))[0],
            lambda path: merge_worker_reports([load_worker_report(path)]),
            ValueError,
        ),
        "obs events": (
            _write(tmp, "events.jsonl", events_to_jsonl(events[:12])),
            load_events, ValueError,
        ),
        "traces jsonl": (tmp / "traces.jsonl", load_traces, ValueError),
        "traces json": (tmp / "traces.json", load_traces, ValueError),
        "arrival schedule": (schedule, load_schedule, ValueError),
        "sweep manifest": (
            _write(tmp, "manifest.json", manifest.to_json()),
            SweepManifest.load, ValueError,
        ),
        "sweep result": (
            _write(tmp, "result.json", result_to_json(result)),
            lambda path: validate_result_document(
                Path(path).read_text(), where=path
            ),
            ValueError,
        ),
        "sweep spec": (
            _write(tmp, "spec.json", json.dumps(sweep.to_dict())),
            SweepSpec.from_json_file, ValueError,
        ),
    }


def _slots(value):
    """Every ``(container, key)`` under a decoded JSON value."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return []
    slots = []
    for key, child in items:
        slots.append((value, key))
        slots.extend(_slots(child))
    return slots


def _damage(text: str, data) -> str:
    """``text`` damaged one of four ways, chosen by hypothesis."""
    lines = text.splitlines()
    how = data.draw(st.sampled_from(["truncate", "delete", "swap", "garbage"]))
    if how == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    if how == "garbage":
        index = data.draw(st.integers(0, len(lines)))
        lines.insert(index, data.draw(st.sampled_from(GARBAGE)))
        return "\n".join(lines) + "\n"
    decoded = [json.loads(line) for line in lines]
    slots = _slots(decoded)
    if how == "delete":
        slots = [(c, k) for c, k in slots if isinstance(c, dict)]
    container, key = data.draw(st.sampled_from(slots))
    if how == "delete":
        del container[key]
    else:
        old = container[key]
        container[key] = data.draw(
            st.sampled_from([v for v in SWAPS if type(v) is not type(old)])
        )
    return "\n".join(json.dumps(line) for line in decoded) + "\n"


@pytest.mark.parametrize(
    "kind",
    [
        "checkpoint", "bank", "worker report", "obs events", "traces jsonl",
        "traces json", "arrival schedule", "sweep manifest", "sweep result",
        "sweep spec",
    ],
)
@settings(
    derandomize=True, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_damaged_document_is_accepted_or_named(documents, kind, data):
    path, reader, error = documents[kind]
    damaged = path.with_name(f"damaged-{path.name}")
    damaged.write_text(_damage(path.read_text(), data))
    try:
        reader(str(damaged))
    except error as caught:
        assert str(damaged) in str(caught)
