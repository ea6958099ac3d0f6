"""PBIO data files: self-describing binary record archives.

PBIO "provides facilities for encoding application data structures so
that they may be transmitted in binary form over computer networks **or
written to data files** in a heterogeneous computing environment"
(Eisenhauer & Daley, quoted in the paper's §4.1.2).  A PBIO file is the
connection protocol persisted: format-metadata messages and data
messages in one stream, so a file written on a SPARC is fully
interpretable years later on any machine — the metadata travels with
the data.

File layout::

    8 bytes   magic "PBIOFILE"
    then framed messages (u32 length prefix + message), where each
    message is a standard context message (kind 2 format metadata or
    kind 1 data).  Metadata for a format always precedes its first data
    record, exactly like a connection.

:class:`IOFileWriter` appends records (pushing metadata on first use per
format); :class:`IOFileReader` iterates decoded records, learning
formats as they appear, and supports ``expect=`` projection for reading
old archives with evolved formats.  Both are file drivers of the record
stream in :mod:`repro.pbio.stream` — the same state machines a
connection runs — so a reader also expands a kind 4 batch message.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Iterator

from repro.errors import ChannelClosedError, DecodeError, WireError
from repro.pbio.context import DecodedRecord, IOContext
from repro.pbio.format import IOFormat
from repro.pbio.stream import RecordReceiver, RecordSender
from repro.wire.framing import frame, read_frame

MAGIC = b"PBIOFILE"


class IOFileWriter:
    """Write records (with embedded metadata) to a binary file.

    Parameters
    ----------
    target:
        A path or a writable binary file object.
    context:
        The encoding endpoint; its architecture is the file's NDR
        layout.  Formats must be registered with it before writing.
    """

    def __init__(self, target: str | os.PathLike | BinaryIO, context: IOContext) -> None:
        if hasattr(target, "write"):
            self._file: BinaryIO = target  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(target, "wb")
            self._owns_file = True
        self.context = context
        self._sender = RecordSender(context)
        self.records_written = 0
        self._file.write(MAGIC)

    def write(self, fmt: IOFormat | str, record: dict) -> None:
        """Append one record, preceding it with metadata on first use."""
        metadata, message = self._sender.record(fmt, record)
        if metadata is not None:
            self._file.write(frame(metadata))
            self._sender.confirm(fmt)
        self._file.write(frame(message))
        self.records_written += 1

    def close(self) -> None:
        """Flush (and close, if this writer opened the file)."""
        if self._owns_file:
            self._file.close()
        else:
            self._file.flush()

    def __enter__(self) -> "IOFileWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class IOFileReader:
    """Iterate decoded records from a PBIO file, on any architecture.

    The reader's context is independent of the writer's: formats are
    learned from the in-file metadata, and conversion happens exactly
    as it would on a network receive.
    """

    def __init__(
        self,
        source: str | os.PathLike | BinaryIO,
        context: IOContext | None = None,
    ) -> None:
        if hasattr(source, "read"):
            self._file: BinaryIO = source  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(source, "rb")
            self._owns_file = True
        self.context = context if context is not None else IOContext()
        magic = self._file.read(len(MAGIC))
        if magic != MAGIC:
            raise DecodeError(
                f"not a PBIO file: expected {MAGIC!r} magic, found {magic!r}"
            )
        self._receiver = RecordReceiver(self.context)
        self.records_read = 0

    def records(self, *, expect: str | None = None) -> Iterator[DecodedRecord]:
        """Yield every data record in file order.

        ``expect`` projects records onto a format registered in the
        reader's context (reading old archives with new code, or vice
        versa).
        """
        receiver = self._receiver
        while True:
            if receiver.ready:
                record = receiver.ready.popleft()
            else:
                try:
                    message = read_frame(self._file.read)
                except ChannelClosedError:
                    return  # clean end of file at a record boundary
                except WireError as exc:
                    raise DecodeError(f"truncated PBIO file: {exc}") from exc
                record = receiver.feed(message, expect)
                if record is None:
                    continue
            self.records_read += 1
            yield record

    def close(self) -> None:
        """Close the underlying file if this reader opened it."""
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "IOFileReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def dump_records(
    path: str | os.PathLike,
    context: IOContext,
    fmt: IOFormat | str,
    records: Iterator[dict] | list[dict],
) -> int:
    """Write an iterable of same-format records; returns the count."""
    with IOFileWriter(path, context) as writer:
        for record in records:
            writer.write(fmt, record)
        return writer.records_written


def load_records(
    path: str | os.PathLike,
    context: IOContext | None = None,
    *,
    expect: str | None = None,
) -> list[DecodedRecord]:
    """Read every record of a PBIO file into a list."""
    with IOFileReader(path, context) as reader:
        return list(reader.records(expect=expect))
