"""One JSON-lines writer for every JSONL file the simulator emits.

Span sinks (``repro.trace.sink``), the event-journal sink
(``repro.obs.journal``) and run capsules (``repro.xray.capsule``) all
write through :class:`JsonlWriter`.  The rule that keeps their bytes
fixed and their cost low: each line is encoded in one shot by
:data:`encode_line` (``JSONEncoder.encode``, the C encoder) and written
with one ``write``.  Never use the streaming ``json.dump``: same bytes,
but through the pure-Python iterencoder with a ``write`` per token.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Optional, Union

__all__ = ["JsonlWriter", "encode_line"]

#: Compact one-shot encoder shared by every JSONL line.
encode_line = json.JSONEncoder(separators=(",", ":")).encode


class JsonlWriter:
    """Writes schema-stamped JSON objects, one per line.

    ``path_or_handle`` is a path (opened ``"w"`` as UTF-8 and closed by
    :meth:`close`) or an open text handle, which is borrowed: flushed on
    close, never closed.  :meth:`write_record` sets the ``schema`` field
    (appended last unless already present) and counts the line under
    its ``type`` in :attr:`counts`.  Records written after
    :meth:`close` are dropped: shutdown stragglers are not errors.
    """

    def __init__(self, path_or_handle: Union[str, IO[str]],
                 schema: int) -> None:
        if isinstance(path_or_handle, str):
            self.path = path_or_handle
            self._handle: Optional[IO[str]] = open(
                path_or_handle, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self.path = ""
            self._handle = path_or_handle
            self._owns_handle = False
        self.schema = schema
        self.counts: Dict[Any, int] = {}

    def write_record(self, record: Dict[str, Any]) -> None:
        """Stamp, encode and write one record (no-op after close)."""
        if self._handle is None:
            return
        record["schema"] = self.schema
        self._handle.write(encode_line(record) + "\n")
        kind = record.get("type")
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def flush(self) -> None:
        """Push buffered lines to the OS (no-op after close)."""
        if self._handle is not None:
            self._handle.flush()

    def close(self, footer: Optional[Dict[str, Any]] = None) -> None:
        """Write ``footer`` as the last line, then flush and close an
        owned handle (idempotent; a borrowed handle stays open)."""
        if self._handle is None:
            return
        if footer is not None:
            self.write_record(footer)
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()
        self._handle = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
