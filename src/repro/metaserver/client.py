"""Metadata retrieval: HTTP GET hardened for unreliable networks.

:func:`http_get` performs one raw retrieval (used by the discovery chain
and by format-id resolution).  :class:`MetadataClient` layers on the
resilience the paper's §3.3 deployment regime demands:

- **retry with exponential backoff + jitter** (:class:`RetryPolicy`) —
  transient connection failures and retryable 5xx statuses are retried
  up to a budget; exhaustion raises
  :class:`~repro.errors.RetryExhaustedError`;
- **a per-host circuit breaker** (:class:`CircuitBreaker`) — a host that
  keeps failing is not hammered: after ``failure_threshold`` consecutive
  failures the breaker opens and requests fail fast with
  :class:`~repro.errors.CircuitOpenError` until a cooldown passes, then
  a single half-open probe decides whether to close it again;
- **a bounded TTL + LRU cache with stale-while-revalidate** — repeated
  discovery of the same stream costs one round-trip per TTL window (the
  paper: "the infrequency with which message formats change works in
  favor of a system using remote discovery"), the cache cannot grow
  without bound, and when the server is unreachable an *expired* entry
  is still served, flagged ``stale=True`` — the operational form of the
  paper's format-change-infrequency argument.

Counters (``hits`` / ``fetches`` / ``retries`` / ``stale_serves`` /
``evictions`` and per-breaker ``trips``) make chaos runs reportable.
"""

from __future__ import annotations

import random
import socket
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    DiscoveryError,
    MetadataHTTPError,
    RetryExhaustedError,
    SchemaError,
    XMLError,
)
from repro.obs.metrics import get_registry
from repro.metaserver.http import (
    HTTPRequest,
    HTTPResponse,
    read_http_message,
    split_url,
)
from repro.pbio.format import IOFormat
from repro.pbio.lru import BoundedLRU
from repro.schema.model import SchemaDocument
from repro.schema.parser import parse_schema

#: Default bound on the client's parsed :class:`IOFormat` cache.
DEFAULT_FORMAT_CAPACITY = 256


def http_get(url: str, timeout: float = 5.0) -> bytes:
    """Fetch ``url`` with a one-shot HTTP/1.0 GET; returns the body.

    Raises :class:`~repro.errors.DiscoveryError` on connection failure
    or malformed responses, and :class:`~repro.errors.MetadataHTTPError`
    (carrying the status) on non-200 answers.
    """
    return http_request("GET", url, timeout=timeout)


def http_post(
    url: str,
    body: bytes,
    timeout: float = 5.0,
    content_type: str = "application/json",
) -> bytes:
    """POST ``body`` to ``url`` one-shot; returns the response body.

    The metadata plane's only POSTs are the idempotent ``/cluster/*``
    peer-sync messages (PROTOCOL.md §13); same error contract as
    :func:`http_get`.
    """
    return http_request("POST", url, body, timeout=timeout, content_type=content_type)


def http_request(
    method: str,
    url: str,
    body: bytes = b"",
    *,
    timeout: float = 5.0,
    content_type: str | None = None,
) -> bytes:
    """One-shot HTTP exchange shared by :func:`http_get` / :func:`http_post`."""
    host, port, path = split_url(url)
    headers = {"Host": f"{host}:{port}"}
    if content_type is not None and body:
        headers["Content-Type"] = content_type
    request = HTTPRequest(method, path, headers, body)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise DiscoveryError(f"cannot reach metadata server at {url}: {exc}") from exc
    try:
        sock.settimeout(timeout)
        sock.sendall(request.render())
        raw = read_http_message(sock.recv)
    except (OSError, socket.timeout) as exc:
        raise DiscoveryError(f"retrieval of {url} failed: {exc}") from exc
    finally:
        sock.close()
    response = HTTPResponse.parse(raw)
    if response.status != 200:
        raise MetadataHTTPError(
            f"metadata server returned {response.status} for {url}: "
            f"{response.body[:200].decode('utf-8', 'replace')}",
            status=response.status,
        )
    length = response.header("Content-Length")
    if length is not None and length.isdigit() and len(response.body) < int(length):
        # A truncated body (server died mid-send) must not parse as a
        # short-but-valid document.
        raise DiscoveryError(
            f"truncated response from {url}: got {len(response.body)} of "
            f"{length} bytes"
        )
    return response.body


@dataclass(frozen=True)
class RetryPolicy:
    """How :class:`MetadataClient` retries failed retrievals.

    Delay before attempt *n*'s retry is
    ``min(cap_delay, base_delay * multiplier**(n-1))``, then jittered by
    up to ``jitter`` of itself (full-jitter style, seeded — chaos runs
    are reproducible).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    cap_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    retryable_statuses: frozenset[int] = frozenset({500, 502, 503, 504})

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise DiscoveryError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.cap_delay < 0:
            raise DiscoveryError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise DiscoveryError("jitter must be in [0, 1]")

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff delay after failed attempt ``attempt`` (1-based)."""
        delay = min(self.cap_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter and delay > 0:
            delay -= rng.uniform(0, self.jitter * delay)
        return delay

    def is_retryable(self, exc: Exception) -> bool:
        """Whether a failed attempt is worth repeating."""
        if isinstance(exc, CircuitOpenError):
            return False
        if isinstance(exc, MetadataHTTPError):
            return exc.status in self.retryable_statuses
        # Connection refusals, timeouts, resets, truncated responses.
        return isinstance(exc, DiscoveryError)


#: Circuit breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker for one host.

    CLOSED: requests flow, consecutive failures are counted.  Reaching
    ``failure_threshold`` trips the breaker to OPEN: requests fail fast
    for ``reset_timeout`` seconds.  The first request after the cooldown
    runs as a HALF_OPEN probe — success closes the breaker, failure
    re-opens it for another cooldown.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        clock=time.monotonic,
        on_transition=None,
    ) -> None:
        if failure_threshold < 1:
            raise DiscoveryError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0  # CLOSED/HALF_OPEN -> OPEN transitions
        #: Called with (old_state, new_state) on every state change;
        #: MetadataClient hooks this into the metrics registry.
        self.on_transition = on_transition

    def _set_state(self, new_state: str) -> None:
        if new_state == self._state:
            return
        old_state, self._state = self._state, new_state
        if self.on_transition is not None:
            self.on_transition(old_state, new_state)

    @property
    def state(self) -> str:
        """Current state: ``closed``, ``open``, or ``half-open``."""
        self._maybe_half_open()
        return self._state

    def _maybe_half_open(self) -> None:
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._set_state(HALF_OPEN)

    def allow(self) -> bool:
        """Whether a request may proceed right now."""
        self._maybe_half_open()
        return self._state != OPEN

    def retry_after(self) -> float:
        """Seconds until an OPEN breaker will allow a probe."""
        if self._state != OPEN:
            return 0.0
        return max(0.0, self._opened_at + self.reset_timeout - self._clock())

    def record_success(self) -> None:
        """A request succeeded: close the breaker, clear the streak."""
        self._set_state(CLOSED)
        self._consecutive_failures = 0

    def record_failure(self) -> None:
        """A request failed: count it, trip to OPEN at the threshold."""
        self._maybe_half_open()
        self._consecutive_failures += 1
        if self._state == HALF_OPEN or (
            self._consecutive_failures >= self.failure_threshold
        ):
            self._set_state(OPEN)
            self._opened_at = self._clock()
            self.trips += 1


@dataclass(frozen=True)
class FetchResult:
    """One retrieval outcome: the bytes plus how they were obtained."""

    url: str
    body: bytes
    stale: bool = False  # served from an expired cache entry
    cached: bool = False  # served from a fresh cache entry
    attempts: int = 0  # network requests made (0 on a cache hit)


@dataclass
class _CacheEntry:
    fetched_at: float
    body: bytes


class MetadataClient:
    """Schema retrieval with retry, circuit breaking, and a bounded cache.

    Parameters
    ----------
    ttl:
        Seconds a cached document stays fresh.  ``0`` disables caching
        entirely (no fresh hits *and* no stale serves).
    timeout:
        Per-request socket timeout.
    retry:
        The :class:`RetryPolicy`; pass ``RetryPolicy(max_attempts=1)``
        for the old single-shot behavior.
    breaker_threshold / breaker_reset:
        Per-host circuit breaker tuning (consecutive failures to trip,
        seconds until a half-open probe).
    max_entries:
        LRU bound on the cache — a long-running consumer discovering
        many streams cannot grow memory without limit.
    format_capacity:
        LRU bound on the parsed :class:`IOFormat` cache behind
        :meth:`get_format` (``cache="client_format"`` in the
        ``pbio_converter_cache_*`` series) — parsed formats carry
        compiled plans, so cold ones must be evictable.
    stale_ttl:
        How long past expiry an entry may still be stale-served;
        ``None`` means for as long as it survives the LRU.
    seed:
        Seeds retry jitter (deterministic chaos runs).
    """

    def __init__(
        self,
        *,
        ttl: float = 60.0,
        timeout: float = 5.0,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 1.0,
        max_entries: int = 256,
        format_capacity: int = DEFAULT_FORMAT_CAPACITY,
        stale_ttl: float | None = None,
        seed: int = 0,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if max_entries < 1:
            raise DiscoveryError("max_entries must be at least 1")
        self.ttl = ttl
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_entries = max_entries
        self.stale_ttl = stale_ttl
        self._clock = clock
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._breaker_threshold = breaker_threshold
        self._breaker_reset = breaker_reset
        self._breakers: dict[str, CircuitBreaker] = {}
        self._cache: OrderedDict[str, _CacheEntry] = OrderedDict()
        self._formats: BoundedLRU = BoundedLRU(format_capacity, name="client_format")
        self.fetches = 0  # successful network retrievals (cache misses)
        self.hits = 0  # fresh cache hits
        self.retries = 0  # extra attempts beyond the first, per fetch
        self.stale_serves = 0  # expired entries served on fetch failure
        self.evictions = 0  # LRU evictions
        self.last_result: FetchResult | None = None
        #: Cluster-routing counters, incremented by the
        #: :class:`~repro.cluster.client.ClusterClient` riding this
        #: client; all-zero (but always present) for single-server use.
        self.cluster: dict[str, int] = {
            "shard_routes": 0,  # reads routed through the hash ring
            "replica_failovers": 0,  # replicas skipped on a read
            "quorum_ok": 0,  # writes acked by every replica
            "quorum_partial": 0,  # quorum met, some replicas missed
            "quorum_failed": 0,  # quorum not met
            "stale_failover_serves": 0,  # stale cache carried a failover read
        }

    # -- breakers ----------------------------------------------------------------

    def breaker_for(self, host: str) -> CircuitBreaker:
        """The circuit breaker guarding ``host`` (created on first use)."""
        breaker = self._breakers.get(host)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self._breaker_threshold,
                reset_timeout=self._breaker_reset,
                clock=self._clock,
                on_transition=self._breaker_transition_hook(host),
            )
            self._breakers[host] = breaker
        return breaker

    @staticmethod
    def _breaker_transition_hook(host: str):
        def record(old_state: str, new_state: str) -> None:
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "metaserver_breaker_transitions_total",
                    "circuit breaker state changes",
                    ("host", "to"),
                ).labels(host, new_state).inc()

        return record

    @staticmethod
    def _obs_request_latency(started: float, outcome: str) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.histogram(
                "metaserver_client_request_seconds",
                "wall time of one HTTP attempt",
                ("outcome",),
            ).labels(outcome).observe(time.perf_counter() - started)

    @staticmethod
    def _obs_cache_event(event: str) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "metaserver_client_cache_total",
                "metadata client cache events",
                ("event",),
            ).labels(event).inc()

    @property
    def breaker_trips(self) -> int:
        """Total breaker trips across every host."""
        return sum(breaker.trips for breaker in self._breakers.values())

    # -- retrieval ----------------------------------------------------------------

    def _fetch(
        self, url: str, *, method: str = "GET", body: bytes = b""
    ) -> tuple[bytes, int]:
        """Exchange with ``url`` under the retry policy; returns (body, attempts)."""
        host, port, _ = split_url(url)
        breaker = self.breaker_for(f"{host}:{port}")
        last_error: Exception | None = None
        attempts = 0
        for attempt in range(1, self.retry.max_attempts + 1):
            if not breaker.allow():
                raise CircuitOpenError(
                    f"circuit open for {host}:{port}; retry in "
                    f"{breaker.retry_after():.3f}s",
                    host=f"{host}:{port}",
                    retry_after=breaker.retry_after(),
                )
            attempts += 1
            if attempt > 1:
                self.retries += 1
                registry = get_registry()
                if registry.enabled:
                    registry.counter(
                        "metaserver_client_retries_total",
                        "fetch attempts beyond the first",
                    ).inc()
            started = time.perf_counter()
            try:
                answer = http_request(method, url, body, timeout=self.timeout)
            except DiscoveryError as exc:
                self._obs_request_latency(started, "error")
                breaker.record_failure()
                last_error = exc
                if attempt < self.retry.max_attempts and self.retry.is_retryable(exc):
                    self._sleep(self.retry.delay_for(attempt, self._rng))
                    continue
                if not self.retry.is_retryable(exc):
                    raise
                break
            self._obs_request_latency(started, "ok")
            breaker.record_success()
            return answer, attempts
        raise RetryExhaustedError(
            f"retrieval of {url} failed after {attempts} attempt(s): {last_error}",
            attempts=attempts,
            last_error=last_error,
        )

    def get(self, url: str) -> FetchResult:
        """Fetch ``url``: fresh cache, then network, then stale cache."""
        now = self._clock()
        entry = self._cache.get(url)
        if entry is not None and self.ttl > 0 and now - entry.fetched_at < self.ttl:
            self._cache.move_to_end(url)
            self.hits += 1
            self._obs_cache_event("hit")
            result = FetchResult(url, entry.body, cached=True)
            self.last_result = result
            return result
        try:
            body, attempts = self._fetch(url)
        except DiscoveryError:
            if entry is not None and self._stale_usable(entry, now):
                self.stale_serves += 1
                self._obs_cache_event("stale_serve")
                self._cache.move_to_end(url)
                result = FetchResult(url, entry.body, stale=True)
                self.last_result = result
                return result
            raise
        self.fetches += 1
        self._obs_cache_event("fetch")
        if self.ttl > 0:
            self._cache[url] = _CacheEntry(self._clock(), body)
            self._cache.move_to_end(url)
            while len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
                self.evictions += 1
                self._obs_cache_event("eviction")
        result = FetchResult(url, body, attempts=attempts)
        self.last_result = result
        return result

    def _stale_usable(self, entry: _CacheEntry, now: float) -> bool:
        if self.ttl <= 0:
            return False
        if self.stale_ttl is None:
            return True
        return now - entry.fetched_at < self.ttl + self.stale_ttl

    def get_bytes(self, url: str) -> bytes:
        """Fetch ``url``, serving from cache while fresh (body only)."""
        return self.get(url).body

    def get_schema(self, url: str) -> SchemaDocument:
        """Fetch and parse a schema document."""
        body = self.get_bytes(url)
        try:
            return parse_schema(body.decode("utf-8"))
        except (UnicodeDecodeError, XMLError, SchemaError) as exc:
            raise DiscoveryError(
                f"document at {url} is not a valid schema: {exc}"
            ) from exc

    def get_format(self, base_url: str, format_id: bytes) -> IOFormat:
        """Fetch PBIO format metadata by id from a server's /formats tree.

        The parsed :class:`IOFormat` is cached in a bounded LRU keyed by
        format id — content-addressed ids make the entries immune to
        re-registration, so a hit never re-parses (or re-fetches) the
        metadata of a hot format.
        """
        fmt = self._formats.get(format_id)
        if fmt is not None:
            return fmt
        body = self.get_bytes(f"{base_url}/formats/{format_id.hex()}")
        fmt = IOFormat.from_wire_metadata(body)
        self._formats.put(format_id, fmt)
        return fmt

    def get_lineage(self, base_url: str, format_id: bytes) -> dict:
        """Fetch a format's ancestry document (PROTOCOL §16)."""
        import json

        body = self.get_bytes(f"{base_url}/lineage/{format_id.hex()}")
        return json.loads(body.decode("utf-8"))

    def get_compatibility(
        self, base_url: str, wire_id: bytes, native_id: bytes
    ) -> dict:
        """Ask the server how a (wire, native) pair binds (PROTOCOL §16).

        Returns the JSON answer: ``relation`` plus ``compatible`` /
        ``identity`` / ``projection_needed``; with it a receiver decides
        identity fast path vs. projection without downloading either
        format's ancestor schemas.
        """
        import json

        body = self.get_bytes(
            f"{base_url}/lineage/{wire_id.hex()}/compat/{native_id.hex()}"
        )
        return json.loads(body.decode("utf-8"))

    def post(self, url: str, body: bytes) -> bytes:
        """POST ``body`` under the retry policy and circuit breaker.

        Never cached.  Safe to retry because the metadata plane's only
        POSTs — the ``/cluster/*`` peer-sync messages — are idempotent
        (last-writer-wins merge ignores re-deliveries).  This is what
        the :class:`~repro.cluster.client.ClusterClient` fans quorum
        writes out through, so replica writes get the same breaker
        fail-fast and backoff discipline as reads.
        """
        answer, _ = self._fetch(url, method="POST", body=body)
        return answer

    # -- cache management ---------------------------------------------------------

    def invalidate(self, url: str | None = None) -> None:
        """Drop one cached URL, or everything when ``url`` is None."""
        if url is None:
            self._cache.clear()
            self._formats.clear()
        else:
            self._cache.pop(url, None)

    def format_cache_stats(self) -> dict:
        """LRU counters of the parsed-format cache (PROTOCOL §16)."""
        return self._formats.stats()

    def stats(self) -> dict:
        """One reporting surface over every counter the client keeps.

        Cache behavior (``hits`` / ``fetches`` / ``stale_serves`` /
        ``evictions`` / ``entries``), retry effort (``retries``), and
        breaker health — total ``breaker_trips`` plus a ``breakers``
        mapping of host → current state (``closed``/``open``/``half-open``)
        and per-host trip count — in a single dict a chaos harness or
        operator dashboard can log wholesale.  The ``cluster`` section
        carries shard-routing, replica-failover, quorum-write, and
        stale-during-failover counts when a
        :class:`~repro.cluster.client.ClusterClient` rides this client.
        """
        return {
            "cluster": dict(self.cluster),
            "hits": self.hits,
            "fetches": self.fetches,
            "retries": self.retries,
            "stale_serves": self.stale_serves,
            "evictions": self.evictions,
            "entries": len(self._cache),
            "format_cache": self._formats.stats(),
            "breaker_trips": self.breaker_trips,
            "breakers": {
                host: {"state": breaker.state, "trips": breaker.trips}
                for host, breaker in self._breakers.items()
            },
        }
