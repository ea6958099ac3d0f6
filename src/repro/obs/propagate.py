"""Trace-context piggybacking on PBIO context messages.

When wire tracing is on (:func:`repro.obs.trace.set_wire_tracing`), the
sending endpoints append a 16-byte block — ``u64 trace_id, u64
span_id``, big-endian — *after* the message body and set bit 0 of the
header's reserved field (PROTOCOL §11).  The header's ``length`` field
is untouched, so:

- receivers that predate this layer keep working: ``parse_header``
  ignores ``reserved`` and ``decode`` slices the body by ``length``,
  so the trailing block is invisible to them;
- :func:`extract` recovers the original message *byte-exactly* (strip
  the block, clear the bit), which the golden-vector suite asserts.

Injection happens in the record stream's sender
(``repro.pbio.stream.RecordSender``) — never inside
``IOContext.encode`` — so NDR bytes are provably never perturbed.

This module mirrors the §2 header layout locally instead of importing
``repro.pbio.context`` because pbio's hot path imports the obs package;
a pbio import here would be a cycle.
"""

from __future__ import annotations

import struct

from repro.obs.trace import (
    TraceContext,
    current_trace_context,
    wire_tracing_enabled,
)

# PROTOCOL §2 context header: kind, version, reserved, length, format id.
_HEADER = struct.Struct(">BBHI8s")
_HEADER_SIZE = _HEADER.size
_KIND_DATA = 1

#: Bit 0 of the header's u16 reserved field: "trace block appended".
TRACE_FLAG = 0x0001

#: The trailing block: u64 trace id, u64 span id, big-endian.
TRACE_BLOCK = struct.Struct(">QQ")
TRACE_BLOCK_SIZE = TRACE_BLOCK.size


def inject(message: bytes, context: TraceContext | None = None) -> bytes:
    """Append the trace block to a data message, if tracing warrants it.

    Returns ``message`` unchanged when wire tracing is off, when there
    is no context to propagate, when the message is not a well-formed
    kind-1 context message, or when a block is already present.
    """
    if context is None:
        if not wire_tracing_enabled():
            return message
        context = current_trace_context()
        if context is None:
            return message
    if len(message) < _HEADER_SIZE:
        return message
    kind, version, reserved, length, format_id = _HEADER.unpack_from(message)
    if kind != _KIND_DATA or reserved & TRACE_FLAG:
        return message
    header = _HEADER.pack(kind, version, reserved | TRACE_FLAG, length, format_id)
    block = TRACE_BLOCK.pack(context.trace_id, context.span_id)
    return header + message[_HEADER_SIZE:] + block


def extract(message: bytes) -> tuple[bytes, TraceContext | None]:
    """Strip a trace block from a message, recovering the original bytes.

    Returns ``(original_message, context)``; ``context`` is ``None``
    and the message is returned untouched when no block is flagged.
    Extraction does not consult the feature flag — a receiver always
    understands a flagged message, whether or not it emits them.
    """
    if len(message) < _HEADER_SIZE:
        return message, None
    kind, version, reserved, length, format_id = _HEADER.unpack_from(message)
    if not reserved & TRACE_FLAG:
        return message, None
    if len(message) < _HEADER_SIZE + length + TRACE_BLOCK_SIZE:
        # Flag set but no room for a block: malformed; leave it to the
        # decoder to complain about the body rather than guessing here.
        return message, None
    trace_id, span_id = TRACE_BLOCK.unpack_from(
        message, len(message) - TRACE_BLOCK_SIZE
    )
    header = _HEADER.pack(kind, version, reserved & ~TRACE_FLAG, length, format_id)
    original = header + message[_HEADER_SIZE:len(message) - TRACE_BLOCK_SIZE]
    return original, TraceContext(trace_id, span_id)
