"""Replica-aware client routing: quorum writes, failover reads.

:class:`ShardRouter` and :class:`QuorumWriter` are the pure,
transport-free core — key → owning shard + replica preference order,
straight off the :class:`~repro.cluster.ring.ClusterMap`, and the
W-of-N write rules (plan a write, conclude it) — shared by the sync
client here and the asyncio client
(:class:`~repro.aio.cluster.AsyncClusterClient`).

:class:`ClusterClient` drives a sharded cluster through an ordinary
:class:`~repro.metaserver.client.MetadataClient`, so every per-replica
request inherits the whole PR-1 resilience stack unchanged — the
:class:`~repro.metaserver.client.RetryPolicy` backoff, the per-host
:class:`~repro.metaserver.client.CircuitBreaker` (a dead replica fails
fast instead of costing a timeout on every read), and the stale-serve
TTL cache (a document fetched from a replica that later dies can still
be served, flagged stale, while the router fails over):

- **writes** (:meth:`publish` / :meth:`unpublish`) stamp a
  :class:`~repro.cluster.store.CatalogEntry` with this writer's next
  ``(version, origin)`` and fan it out to *every* replica of the owning
  shard.  ``write_quorum`` (W of N, default majority) acknowledgments
  make the write durable; fewer raise :class:`QuorumWriteError` carrying
  the per-replica failures.  Replicas that missed the write (W ≤ acks <
  N) are healed by server-side anti-entropy — the client does not
  retry them.
- **reads** (:meth:`get` and friends) try the key's replicas in
  preference order and fall over on any
  :class:`~repro.errors.DiscoveryError` — connection failure, open
  breaker, retry exhaustion, or an HTTP error (a diverged replica
  404ing a document its peers hold).  A replica death is a routing
  event, not a client-visible error, as long as any replica of the
  shard answers.

Routing, failover, quorum, and stale-during-failover outcomes are
counted on the underlying client (surfaced via
``MetadataClient.stats()["cluster"]``) and exported through
``repro.obs`` for ``/metrics``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.cluster.ring import ClusterMap, Shard
from repro.cluster.store import CatalogEntry
from repro.errors import DiscoveryError, SchemaError, XMLError
from repro.metaserver.client import FetchResult, MetadataClient
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.schema.model import SchemaDocument
from repro.schema.parser import parse_schema


class QuorumWriteError(DiscoveryError):
    """A write reached fewer than ``write_quorum`` replicas."""

    def __init__(self, message: str, *, result: "QuorumResult") -> None:
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class QuorumResult:
    """One quorum write's outcome across a shard's replicas."""

    path: str
    shard: str
    acks: int
    replicas: int
    quorum: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether the write met its quorum."""
        return self.acks >= self.quorum

    @property
    def outcome(self) -> str:
        """``ok`` (all replicas), ``partial`` (quorum met), or ``failed``."""
        if self.acks == self.replicas:
            return "ok"
        return "partial" if self.ok else "failed"


class ShardRouter:
    """Pure key → (shard, ordered replicas) routing over a cluster map."""

    def __init__(self, cluster_map: ClusterMap) -> None:
        self.cluster_map = cluster_map

    def route(self, key: str) -> tuple[Shard, tuple[str, ...]]:
        """The owning shard and its replicas in preference order."""
        shard = self.cluster_map.shard_for(key)
        return shard, self.cluster_map.replicas_for(key)

    def update(self, cluster_map: ClusterMap) -> None:
        """Adopt a newer layout (ignores older/equal versions)."""
        if cluster_map.version > self.cluster_map.version:
            self.cluster_map = cluster_map


def majority(replicas: int) -> int:
    """The majority quorum for ``replicas`` copies (N // 2 + 1)."""
    return replicas // 2 + 1


def count_outcome(name: str, label_names: tuple, labels: tuple) -> None:
    """Bump one cluster-client outcome counter in the metrics registry."""
    registry = get_registry()
    if registry.enabled:
        registry.counter(
            name, "cluster client routing/fan-out outcomes", label_names
        ).labels(*labels).inc()


@dataclass(frozen=True)
class WritePlan:
    """One stamped write: where it goes and what each replica is sent."""

    path: str
    shard: str
    replicas: tuple[str, ...]
    quorum: int
    body: bytes  # the POST /cluster/entries request body


class QuorumWriter:
    """The W-of-N write rules, transport-free: :meth:`plan` a write, let
    the client deliver ``plan.body`` to every replica its own way (a
    serial loop, a ``gather``), then :meth:`conclude` with the failures.
    """

    def __init__(
        self, router: ShardRouter, write_quorum: int | None, origin: str
    ) -> None:
        widest = max(len(s.replicas) for s in router.cluster_map.shards)
        if write_quorum is None:
            write_quorum = majority(widest)
        if not 1 <= write_quorum <= widest:
            raise DiscoveryError(
                f"write_quorum must be in [1, {widest}], got {write_quorum}"
            )
        self.router = router
        self.write_quorum = write_quorum
        self.origin = origin
        self._version = 0

    def plan(self, path: str, text: str = "", *, deleted: bool = False) -> WritePlan:
        """Stamp the next ``(version, origin)`` on a document (or, with
        ``deleted``, a tombstone) and route it to its shard."""
        if not deleted and not path.startswith("/"):
            raise DiscoveryError(f"paths must start with '/', got {path!r}")
        self._version += 1
        entry = CatalogEntry(
            path=path, text=text, version=self._version,
            origin=self.origin, deleted=deleted,
        )
        shard, replicas = self.router.route(path)
        return WritePlan(
            path=path, shard=shard.name, replicas=replicas,
            quorum=min(self.write_quorum, len(replicas)),
            body=json.dumps({"entries": [entry.to_json()]}).encode("utf-8"),
        )

    @staticmethod
    def conclude(plan: WritePlan, failures, stats: dict) -> "QuorumResult":
        """The write's outcome given the per-replica ``failures``; counts
        it in ``stats`` and the registry, raises
        :class:`QuorumWriteError` below quorum."""
        result = QuorumResult(
            path=plan.path, shard=plan.shard, acks=len(plan.replicas) - len(failures),
            replicas=len(plan.replicas), quorum=plan.quorum, failures=tuple(failures),
        )
        stats[f"quorum_{result.outcome}"] += 1
        count_outcome(
            "cluster_client_quorum_writes_total", ("outcome",), (result.outcome,)
        )
        if not result.ok:
            raise QuorumWriteError(
                f"write of {plan.path} reached {result.acks}/{result.replicas} "
                f"replicas of shard {plan.shard} (quorum {plan.quorum}): "
                f"{'; '.join(failures)}",
                result=result,
            )
        return result


class ClusterClient:
    """Sharded, replicated metadata access for synchronous callers.

    Parameters
    ----------
    cluster_map:
        The layout to route by.
    client:
        The :class:`~repro.metaserver.client.MetadataClient` carrying
        every per-replica request (retry, breakers, TTL/stale cache).
        A default one is built when omitted.
    write_quorum:
        Acks required for a write (W of N).  ``None`` means majority of
        the *largest* shard's replica count.  ``1`` gives
        availability-first semantics: any single live replica accepts
        the write and anti-entropy spreads it.
    origin:
        This writer's identity — the LWW tie-breaker.  Two writers with
        the same origin must not write concurrently; give each client a
        distinct origin.
    """

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        client: MetadataClient | None = None,
        write_quorum: int | None = None,
        origin: str = "cluster-client",
    ) -> None:
        self.router = ShardRouter(cluster_map)
        self.client = client if client is not None else MetadataClient()
        self._writer = QuorumWriter(self.router, write_quorum, origin)
        self.write_quorum = self._writer.write_quorum
        self.origin = origin

    @property
    def cluster_map(self) -> ClusterMap:
        return self.router.cluster_map

    # -- reads -------------------------------------------------------------------

    def get(self, path: str) -> FetchResult:
        """Fetch ``path``, failing over across the owning shard's replicas.

        Returns the first replica's :class:`FetchResult` (which may be
        cached or stale-served by the underlying client).  Raises the
        *last* replica's error only when every replica failed.
        """
        shard, replicas = self.router.route(path)
        stats = self.client.cluster
        stats["shard_routes"] += 1
        count_outcome("cluster_client_routes_total", ("shard",), (shard.name,))
        last_error: DiscoveryError | None = None
        for index, replica in enumerate(replicas):
            try:
                result = self.client.get(f"http://{replica}{path}")
            except DiscoveryError as exc:
                last_error = exc
                stats["replica_failovers"] += 1
                count_outcome(
                    "cluster_client_failovers_total", ("shard",), (shard.name,)
                )
                continue
            if result.stale:
                # The replica itself was unreachable; the stale cache
                # carried the read through the failover window.
                stats["stale_failover_serves"] += 1
                count_outcome("cluster_client_reads_total", ("outcome",), ("stale",))
            else:
                outcome = "fallback" if index else "primary"
                count_outcome("cluster_client_reads_total", ("outcome",), (outcome,))
            return result
        count_outcome("cluster_client_reads_total", ("outcome",), ("error",))
        raise DiscoveryError(
            f"all {len(replicas)} replicas of shard {shard.name} failed for "
            f"{path}: {last_error}"
        ) from last_error

    def get_bytes(self, path: str) -> bytes:
        """Fetch ``path`` with failover; body only."""
        return self.get(path).body

    def get_schema(self, path: str) -> SchemaDocument:
        """Fetch and parse a schema document with failover."""
        body = self.get_bytes(path)
        try:
            return parse_schema(body.decode("utf-8"))
        except (UnicodeDecodeError, XMLError, SchemaError) as exc:
            raise DiscoveryError(
                f"document at {path} is not a valid schema: {exc}"
            ) from exc

    # -- writes ------------------------------------------------------------------

    def publish(self, path: str, text: str) -> QuorumResult:
        """Replicate a document to the owning shard; W-of-N quorum."""
        return self._write(self._writer.plan(path, text))

    def unpublish(self, path: str) -> QuorumResult:
        """Replicate a tombstone for ``path`` (same quorum rules)."""
        return self._write(self._writer.plan(path, deleted=True))

    def _write(self, plan: WritePlan) -> QuorumResult:
        failures: list[str] = []
        with get_tracer().start_span("cluster.quorum_write") as span:
            for replica in plan.replicas:
                try:
                    self.client.post(f"http://{replica}/cluster/entries", plan.body)
                except DiscoveryError as exc:
                    failures.append(f"{replica}: {exc}")
            span.set_tag("shard", plan.shard)
            span.set_tag("acks", len(plan.replicas) - len(failures))
            span.set_tag("quorum", plan.quorum)
        return self._writer.conclude(plan, failures, self.client.cluster)

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        """The underlying client's stats (cluster counters included)."""
        return self.client.stats()
