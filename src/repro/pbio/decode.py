"""The bounded converter cache: one compiled routine per observed pair.

Decoding is driven entirely by the *wire* format's metadata (which
arrived once, out-of-band or in-band).  For each (wire format, native
format) pair traffic actually presents, the receiver generates one
converter (:func:`repro.pbio.codegen.make_converter` — PBIO's "custom
routines created on-the-fly") that decodes the wire record straight into
the native shape, and keeps it here.

The cache is *instance-based* (PROTOCOL §16): a bounded, thread-safe LRU
(:class:`~repro.pbio.lru.BoundedLRU`) guarantees that pairs traffic no
longer touches cannot hold compiled code forever.  Content-addressed
format ids make the entries survive re-registration of identical
metadata for free.
"""

from __future__ import annotations

from repro.obs.instr import timed_codegen
from repro.pbio.codegen import Converter, make_converter
from repro.pbio.format import IOFormat
from repro.pbio.lru import BoundedLRU

#: Default bound on live converters per cache.  Each entry is one
#: compiled function (a few KB); 1024 pairs comfortably covers a server
#: speaking to a heterogeneous fleet while capping a 10k-format churn.
DEFAULT_CONVERTER_CAPACITY = 1024


class ConverterCache:
    """Bounded cache of converters keyed by (wire id, target id or None).

    One instance lives in each :class:`~repro.pbio.context.IOContext`
    by default; sharing one cache across contexts is safe (converters
    are pure functions) and supported — pass the same instance to
    several contexts to share compiled pairs across connections.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CONVERTER_CAPACITY,
        *,
        name: str = "converter",
    ) -> None:
        self._converters: BoundedLRU = BoundedLRU(capacity, name=name)
        self.builds = 0  # observable for amortization experiments

    @property
    def hits(self) -> int:
        """Cache hits (also exported as ``pbio_converter_cache_hits``)."""
        return self._converters.hits

    @property
    def capacity(self) -> int:
        return self._converters.capacity

    def __len__(self) -> int:
        return len(self._converters)

    def stats(self) -> dict:
        """LRU counters plus build count in one reportable dict."""
        return {**self._converters.stats(), "builds": self.builds}

    def invalidate(self, format_id: bytes) -> None:
        """Drop every cached converter involving ``format_id``.

        Only needed when a format *name* is rebound to different
        metadata — content-addressed ids mean identical re-registration
        never requires invalidation.
        """
        for key in self._converters.keys():
            if key[0] == format_id or key[1] == format_id:
                self._converters.pop(key)

    def lookup(
        self, wire_format: IOFormat, target_format: IOFormat | None = None
    ) -> Converter:
        """Return the pair's converter, generating and caching it on first miss."""
        key = (
            wire_format.format_id,
            target_format.format_id if target_format is not None else None,
        )
        converter = self._converters.get(key)
        if converter is not None:
            return converter
        converter = timed_codegen("converter", make_converter, wire_format, target_format)
        self._converters.put(key, converter)
        self.builds += 1
        return converter
