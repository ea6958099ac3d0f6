"""An in-process format server: format id → format metadata.

PBIO deployments ran a "format server" daemon that handed out format
metadata keyed by format id, so receivers could resolve records whose
formats they had never seen without an in-band handshake.  Our format
ids are content-addressed (see
:attr:`~repro.pbio.format.IOFormat.format_id`), which removes the id
*allocation* role, leaving resolution: this class is a thread-safe id →
metadata registry that any number of contexts may share.

Network-remote resolution uses the same object behind the metadata
server (:mod:`repro.metaserver`); in-band resolution over a connection
uses the format-request message of the channel protocol instead.
"""

from __future__ import annotations

import threading

from repro.errors import UnknownFormatError
from repro.pbio.format import IOFormat
from repro.pbio.lru import BoundedLRU

#: Default bound on parsed-format cache entries.  The raw metadata map
#: stays unbounded (it is the source of truth); only parsed
#: :class:`IOFormat` objects — each carrying compiled plans — are
#: evictable, so cold formats cost bytes, not compiled code.
DEFAULT_DECODE_CAPACITY = 1024


class FormatServer:
    """Thread-safe registry mapping format ids to wire metadata.

    The parsed-format cache is a bounded LRU (``cache="fmserver"`` in
    the ``pbio_converter_cache_*`` metric series): a long-lived server
    fielding thousands of format versions keeps hot parses cached and
    lets cold ones fall off instead of leaking them forever.
    """

    def __init__(self, *, decode_capacity: int = DEFAULT_DECODE_CAPACITY) -> None:
        self._metadata: dict[bytes, bytes] = {}
        self._decoded: BoundedLRU = BoundedLRU(decode_capacity, name="fmserver")
        self._lock = threading.Lock()

    def register(self, fmt: IOFormat) -> bytes:
        """Register ``fmt`` (and its nested dependencies); returns its id.

        Registration is idempotent: content-addressed ids make re-registering
        the same format a no-op.
        """
        metadata = fmt.to_wire_metadata()
        with self._lock:
            self._metadata[fmt.format_id] = metadata
            for nested in fmt.nested_formats():
                self._metadata[nested.format_id] = nested.to_wire_metadata()
        # Invalidation outside the metadata lock: the LRU has its own.
        self._decoded.pop(fmt.format_id)
        for nested in fmt.nested_formats():
            self._decoded.pop(nested.format_id)
        return fmt.format_id

    def resolve(self, format_id: bytes) -> IOFormat:
        """Return the format registered under ``format_id``.

        The decode of the wire metadata is cached: a server fielding many
        resolutions of one hot format parses it once, not per call.  The
        cache entry is invalidated when the id is re-registered.

        Raises :class:`~repro.errors.UnknownFormatError` if the id is unknown —
        callers decide whether to fall back to in-band resolution.
        """
        fmt = self._decoded.get(format_id)
        if fmt is not None:
            return fmt
        with self._lock:
            metadata = self._metadata.get(format_id)
        if metadata is None:
            raise UnknownFormatError(
                f"format server has no format {format_id.hex()}", format_id
            )
        fmt = IOFormat.from_wire_metadata(metadata)
        self._decoded.put(format_id, fmt)
        return fmt

    def resolve_metadata(self, format_id: bytes) -> bytes:
        """Return the raw metadata bytes for ``format_id``."""
        with self._lock:
            metadata = self._metadata.get(format_id)
        if metadata is None:
            raise UnknownFormatError(
                f"format server has no format {format_id.hex()}", format_id
            )
        return metadata

    def known_ids(self) -> list[bytes]:
        """Every format id currently registered."""
        with self._lock:
            return list(self._metadata)

    def decode_cache_stats(self) -> dict:
        """LRU counters of the parsed-format cache (PROTOCOL §16)."""
        return self._decoded.stats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metadata)
