"""Versioned checkpoint/restore for the streaming pipeline.

A checkpoint is a canonical JSON document (sorted keys, no whitespace)
holding the *entire* decision-relevant state of an
:class:`~repro.online.pipeline.OnlinePipeline`: identifier bank, group
centroids, P-square quantile markers, per-request open state (windower
fill, vaEWMA estimate, commit streaks), completed records, and the event
cursor ``last_seq``.

The restore contract is byte-identity, not approximation: Python floats
survive a JSON round trip exactly (``repr``-based encoding), so a pipeline
restored mid-stream and fed the remaining events produces decisions — and
a final report — byte-identical to an uninterrupted run.  The event
cursor makes restore idempotent: replaying the full stream after a restore
skips everything already folded in.

Format changes must bump ``CHECKPOINT_VERSION``; loading a foreign or
future document fails loudly.
"""

from __future__ import annotations

from repro.jsondoc import canonical, read_document
from repro.online.pipeline import OnlinePipeline

CHECKPOINT_FORMAT = "repro-online-checkpoint"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint document could not be read.

    Raised — instead of a raw :class:`KeyError` / :class:`json.
    JSONDecodeError` surfacing from the payload internals — for truncated
    files, malformed JSON, foreign documents, unsupported versions, and
    structurally corrupt state payloads.  Subclasses :class:`ValueError`
    so existing callers that catch broadly keep working.
    """


def checkpoint_to_json(pipeline: OnlinePipeline) -> str:
    """Serialize a pipeline's full state as canonical checkpoint JSON."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "state": pipeline.to_state(),
    }
    return canonical(payload)


def checkpoint_from_json(
    text: str, registry=None, where: str = "checkpoint"
) -> OnlinePipeline:
    """Rebuild a pipeline from checkpoint JSON (loud on bad input)."""
    payload = read_document(
        text, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, where, CheckpointError
    )
    state = payload.get("state")
    if not isinstance(state, dict):
        raise CheckpointError(f"{where}: checkpoint has no state object")
    try:
        return OnlinePipeline.from_state(state, registry=registry)
    except (LookupError, TypeError, ValueError, AttributeError) as error:
        raise CheckpointError(
            f"{where}: corrupt checkpoint state (version {CHECKPOINT_VERSION}): "
            f"{type(error).__name__}: {error}"
        ) from None


def save_checkpoint(pipeline: OnlinePipeline, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(checkpoint_to_json(pipeline))
        fh.write("\n")


def load_checkpoint(path: str, registry=None) -> OnlinePipeline:
    with open(path) as fh:
        return checkpoint_from_json(fh.read(), registry=registry, where=path)
