"""Exception hierarchy for the ``repro`` package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
applications can catch failures from this library with a single handler
while still being able to discriminate by subsystem.

The hierarchy mirrors the package layout:

- :class:`ArchError` — architecture model / struct layout problems.
- :class:`XMLError` (with :class:`XMLSyntaxError`) — XML parsing.
- :class:`SchemaError` — XML Schema model construction and validation.
- :class:`PBIOError` family — binary I/O (format registration, encoding,
  decoding, conversion).
- :class:`WireError` — baseline wire formats (XDR, text XML) and framing.
- :class:`TransportError` — channel-level communication failures
  (with :class:`ChannelClosedError` and :class:`TransportTimeoutError`).
- :class:`DiscoveryError` — metadata discovery (all sources exhausted,
  malformed documents, unreachable servers), with
  :class:`MetadataHTTPError`, :class:`RetryExhaustedError` and
  :class:`CircuitOpenError` for the resilient retrieval path.
- :class:`BindingError` — associating formats with application data.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ArchError(ReproError):
    """Invalid architecture model or impossible struct layout request."""


class XMLError(ReproError):
    """Base class for XML processing errors."""


class XMLSyntaxError(XMLError):
    """The document is not well-formed XML.

    Carries the 1-based ``line`` and ``column`` of the offending input so
    callers can produce actionable diagnostics.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SchemaError(ReproError):
    """The XML Schema document is invalid or uses unsupported constructs."""


class SchemaValidationError(SchemaError):
    """An instance document does not conform to its schema."""


class PBIOError(ReproError):
    """Base class for PBIO binary I/O errors."""


class FormatRegistrationError(PBIOError):
    """A format could not be registered (bad fields, duplicate names...)."""


class EncodeError(PBIOError):
    """A record could not be encoded to the wire."""


class DecodeError(PBIOError):
    """A wire buffer could not be decoded (truncation, unknown format...)."""


class UnknownFormatError(DecodeError):
    """No metadata is known for a wire format id.

    Carries the ``format_id`` so a receiver that has a peer can ask it
    for the metadata (pull on miss) instead of failing.
    """

    def __init__(self, message: str, format_id: bytes) -> None:
        super().__init__(message)
        self.format_id = format_id


class ConversionError(PBIOError):
    """No conversion exists between a wire format and a native format."""


class WireError(ReproError):
    """Baseline wire-format (XDR / text XML) or framing failure."""


class TransportError(ReproError):
    """A channel could not deliver or receive a message."""


class ChannelClosedError(TransportError):
    """The peer closed the channel (clean EOF or reset)."""


class TransportTimeoutError(TransportError):
    """A channel operation exceeded its deadline.

    ``mid_frame`` is True when the timeout struck after part of a frame
    had arrived.  The partial frame stays buffered and the next ``recv``
    resumes it, so the flag is informational: the peer is mid-send, not
    idle.
    """

    def __init__(self, message: str, *, mid_frame: bool = False) -> None:
        super().__init__(message)
        self.mid_frame = mid_frame


class DiscoveryError(ReproError):
    """Metadata discovery failed across all configured sources."""


class MetadataHTTPError(DiscoveryError):
    """The metadata server answered with a non-200 status.

    Carries the ``status`` so retry policies can distinguish transient
    server-side failures (5xx, worth retrying) from definitive answers
    (404, not worth retrying).
    """

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


class RetryExhaustedError(DiscoveryError):
    """Every attempt allowed by the retry policy failed.

    ``attempts`` is how many requests were actually made; ``last_error``
    is the failure that ended the final attempt.
    """

    def __init__(self, message: str, *, attempts: int = 0,
                 last_error: Exception | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class CircuitOpenError(DiscoveryError):
    """The per-host circuit breaker is open: no request was attempted.

    Raised *before* touching the network when a host has failed enough
    consecutive times; ``retry_after`` says how long until the breaker
    will allow a probe.
    """

    def __init__(self, message: str, *, host: str = "",
                 retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.host = host
        self.retry_after = retry_after


class BindingError(ReproError):
    """Program data could not be bound to a registered message format."""
