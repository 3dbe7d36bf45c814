"""Checkpoint/restore: the byte-identity contract and format validation."""

import json

import pytest

from repro.online.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    checkpoint_from_json,
    checkpoint_to_json,
    load_checkpoint,
    save_checkpoint,
)
from repro.online.pipeline import OnlinePipeline
from repro.online.report import build_report


def fresh_pipeline(trained_identifier):
    """A pipeline whose identifier went through one state round trip, so
    live and restored sides share identical serialized provenance."""
    blob = checkpoint_to_json(OnlinePipeline(identifier=trained_identifier))
    return checkpoint_from_json(blob)


class TestByteIdentity:
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_mid_stream_restore_is_byte_identical(
        self, streamed_run, trained_identifier, fraction
    ):
        """Kill at an arbitrary point, restore, replay the whole stream:
        the final report and final checkpoint match an uninterrupted run."""
        _, events, _, _ = streamed_run
        uninterrupted = fresh_pipeline(trained_identifier)
        uninterrupted.process_events(events)
        reference_report = build_report(uninterrupted).to_json()
        reference_state = checkpoint_to_json(uninterrupted)

        cut = int(len(events) * fraction)
        first_half = fresh_pipeline(trained_identifier)
        first_half.process_events(events[:cut])
        resumed = checkpoint_from_json(checkpoint_to_json(first_half))
        # Full stream: the seq cursor must skip the already-folded prefix.
        resumed.process_events(events)

        assert build_report(resumed).to_json() == reference_report
        assert checkpoint_to_json(resumed) == reference_state

    def test_checkpoint_serialization_is_stable(
        self, streamed_run, trained_identifier
    ):
        _, events, _, _ = streamed_run
        pipeline = fresh_pipeline(trained_identifier)
        pipeline.process_events(events[: len(events) // 3])
        blob = checkpoint_to_json(pipeline)
        assert checkpoint_to_json(checkpoint_from_json(blob)) == blob

    def test_open_request_state_survives(self, streamed_run, trained_identifier):
        """Cut inside an in-flight request: its windower fill, streaks, and
        predictor estimate must survive the round trip."""
        _, events, _, _ = streamed_run
        pipeline = fresh_pipeline(trained_identifier)
        cut = next(
            i
            for i, e in enumerate(events)
            if e.kind == "period_sample" and i > len(events) // 4
        )
        pipeline.process_events(events[: cut + 1])
        assert pipeline.open, "cut did not land inside any in-flight request"
        restored = checkpoint_from_json(checkpoint_to_json(pipeline))
        assert set(restored.open) == set(pipeline.open)
        for rid, original in pipeline.open.items():
            assert restored.open[rid].to_state() == original.to_state()


class TestFileRoundTrip:
    def test_save_load(self, streamed_run, trained_identifier, tmp_path):
        _, events, _, _ = streamed_run
        pipeline = fresh_pipeline(trained_identifier)
        pipeline.process_events(events[: len(events) // 2])
        path = tmp_path / "ckpt.json"
        save_checkpoint(pipeline, str(path))
        restored = load_checkpoint(str(path))
        assert checkpoint_to_json(restored) == checkpoint_to_json(pipeline)


class TestValidation:
    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed"):
            checkpoint_from_json("not json{")

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError, match="not a repro-online-checkpoint document"):
            checkpoint_from_json(json.dumps({"format": "something-else"}))

    def test_rejects_future_version(self):
        payload = {
            "format": "repro-online-checkpoint",
            "version": CHECKPOINT_VERSION + 1,
            "state": {},
        }
        with pytest.raises(
            ValueError, match="unsupported repro-online-checkpoint version"
        ):
            checkpoint_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "field, value",
        [("ewma_alpha", 1.5), ("max_windows", 0), ("centroid_max_windows", 0)],
    )
    def test_rejects_out_of_range_config(self, field, value):
        """A config the pipeline cannot honour fails the load: these former
        settings are constants now, so a document that sets one is
        refused by name rather than read as if it applied."""
        payload = json.loads(checkpoint_to_json(OnlinePipeline()))
        payload["state"]["config"][field] = value
        with pytest.raises(CheckpointError, match=field):
            checkpoint_from_json(json.dumps(payload))

    def test_rejects_version_one(self, trained_identifier):
        """Version 1 carried the settings that are now constants; its
        documents are refused, not read with the knobs dropped."""
        payload = json.loads(
            checkpoint_to_json(OnlinePipeline(identifier=trained_identifier))
        )
        assert CHECKPOINT_VERSION == 2
        payload["version"] = 1
        with pytest.raises(
            CheckpointError, match="unsupported repro-online-checkpoint version 1"
        ):
            checkpoint_from_json(json.dumps(payload))

    def test_rejects_identifier_trained_at_another_window(
        self, trained_identifier
    ):
        payload = json.loads(
            checkpoint_to_json(OnlinePipeline(identifier=trained_identifier))
        )
        payload["state"]["config"]["window_instructions"] = 50_000.0
        with pytest.raises(CheckpointError, match="window_instructions"):
            checkpoint_from_json(json.dumps(payload))

    def test_pipeline_without_identifier_round_trips(self):
        pipeline = OnlinePipeline()
        restored = checkpoint_from_json(checkpoint_to_json(pipeline))
        assert restored.identifier is None


class TestCorruptPayloads:
    """Corrupt/truncated checkpoints must raise CheckpointError (a
    ValueError), never a raw KeyError/JSONDecodeError from the payload
    internals — the serve failover path depends on telling 'retry with
    tail replay' apart from a crash."""

    def test_truncated_document(self):
        blob = checkpoint_to_json(OnlinePipeline())
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            checkpoint_from_json(blob[: len(blob) // 2])

    def test_empty_document(self):
        with pytest.raises(CheckpointError, match="checkpoint: empty document"):
            checkpoint_from_json("   \n")

    def test_missing_state_key(self):
        payload = {"format": "repro-online-checkpoint",
                   "version": CHECKPOINT_VERSION}
        with pytest.raises(CheckpointError, match="no state object"):
            checkpoint_from_json(json.dumps(payload))

    def test_corrupt_state_payload_names_version(self):
        blob = json.loads(checkpoint_to_json(OnlinePipeline()))
        del blob["state"]["centroids"]  # would surface as a raw KeyError
        with pytest.raises(
            CheckpointError, match=f"version {CHECKPOINT_VERSION}"
        ):
            checkpoint_from_json(json.dumps(blob))

    def test_wrong_typed_state_payload(self):
        blob = json.loads(checkpoint_to_json(OnlinePipeline()))
        blob["state"]["open"] = {"not": "a list"}
        with pytest.raises(CheckpointError, match="corrupt checkpoint state"):
            checkpoint_from_json(json.dumps(blob))

    def test_truncated_file_on_disk(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(OnlinePipeline(), str(path))
        path.write_text(path.read_text()[:40])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_checkpoint_error_is_a_value_error(self):
        assert issubclass(CheckpointError, ValueError)
