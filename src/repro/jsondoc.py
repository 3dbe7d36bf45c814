"""The versioned JSON document format, decided in one place.

Every document the package writes (traces, obs event streams, online
checkpoints and reports, serve banks, frames and reports, sweep
manifests, results and reports, arrival schedules) is a JSON object
naming its ``format`` and ``version``, or a JSONL stream whose first
line is such a header.  :func:`canonical` is their byte encoding,
:func:`read_document` and :func:`read_jsonl` their readers, and
:func:`atomic_write` replaces a file so that a reader, or a SIGKILL
mid-write, sees the old file or the new one, never a torn one.

A damaged input fails loudly with a named cause: the readers raise
``ValueError`` (or the subclass a caller passes as ``error``), and every
message starts with ``where``, the path or frame the text came from.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["atomic_write", "canonical", "read_document", "read_jsonl"]


def canonical(payload) -> str:
    """Sorted keys, no whitespace: equal content gives equal bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def read_document(text, fmt, version, where, error=ValueError) -> dict:
    """Parse one JSON object and check its ``format``/``version`` envelope.

    ``text`` is ``str`` or ``bytes``, or an already-decoded payload (a
    hello frame, a result inside a manifest) that gets the checks alone.
    ``fmt=None`` means no envelope: the document only has to be an
    object.  Raises ``error`` naming ``where`` on an empty, malformed or
    non-object input, a foreign format or an unsupported version.
    """
    payload = text
    if isinstance(text, (str, bytes)):
        try:
            payload = json.loads(text)
        except ValueError as cause:
            if not text.strip():
                raise error(f"{where}: empty document (truncated write?)") from None
            raise error(
                f"{where}: malformed JSON (truncated or corrupt): {cause}"
            ) from None
    if not isinstance(payload, dict):
        raise error(f"{where}: not an object (got {type(payload).__name__})")
    if fmt is not None:
        found = payload.get("format")
        if found != fmt:
            raise error(f"{where}: not a {fmt} document (format {found!r})")
        found = payload.get("version")
        if found != version:
            raise error(
                f"{where}: unsupported {fmt} version {found!r} "
                f"(this build reads version {version})"
            )
    return payload


def read_jsonl(text, fmt, version, where, record, count=None) -> dict:
    """Read a JSONL document, a header line and then one record per line;
    returns the header.

    The header gets :func:`read_document`'s checks; each later line is
    decoded and passed to ``record``.  Blank lines are skipped but keep
    their numbers.  A malformed line, or a ``ValueError``, ``KeyError``
    or ``TypeError`` from ``record``, raises ``ValueError`` naming
    ``where`` and the line.  When ``count`` names a header field, the
    record count it declares must match.
    """
    lines = [
        (number, line)
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not lines:
        raise ValueError(f"{where}: empty document (truncated write?)")
    number, line = lines[0]
    header = read_document(line, fmt, version, f"{where}, header line {number}")
    for number, line in lines[1:]:
        try:
            record(json.loads(line))
        except json.JSONDecodeError as cause:
            raise ValueError(f"{where}, line {number}: malformed JSON: {cause}") from None
        except KeyError as cause:
            raise ValueError(f"{where}, line {number}: missing field {cause}") from None
        except (ValueError, TypeError) as cause:
            raise ValueError(f"{where}, line {number}: {cause}") from None
    declared = header.get(count) if count else None
    if declared is not None and declared != len(lines) - 1:
        raise ValueError(
            f"{where}: header declares {declared!r} {count}, "
            f"the document holds {len(lines) - 1}"
        )
    return header


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temp file in ``path``'s directory (created if
    missing), then ``os.replace`` it onto ``path``."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(temp, path)
    except OSError:
        if os.path.exists(temp):
            os.unlink(temp)
        raise
