"""The asyncio face of the sharded metadata plane.

:class:`AsyncClusterClient` is the coroutine counterpart of
:class:`~repro.cluster.client.ClusterClient`: the same
:class:`~repro.cluster.client.ShardRouter` routing (identical ring, so
sync and async clients agree on every key's owner), the same W-of-N
quorum semantics and :class:`~repro.cluster.client.QuorumResult`
reporting — but the write fan-out runs **concurrently**: one
``asyncio.gather`` POSTs the entry to every replica at once, so a slow
or dead replica costs max(latency), not sum.

Per-replica requests ride an
:class:`~repro.aio.client.AsyncMetadataClient` (pooled, pipelining
connections).  That client has no cache or breakers — the async plane's
resilience is the router's replica fallback itself plus the server-side
anti-entropy repair; callers needing stale-serve semantics use the sync
client.
"""

from __future__ import annotations

import asyncio

from repro.aio.client import AsyncMetadataClient
from repro.cluster.client import (
    QuorumResult,
    QuorumWriter,
    ShardRouter,
    WritePlan,
    count_outcome,
)
from repro.cluster.ring import ClusterMap
from repro.errors import DiscoveryError


class AsyncClusterClient:
    """Sharded, replicated metadata access for asyncio callers.

    Same parameters as :class:`~repro.cluster.client.ClusterClient`;
    ``client`` is an :class:`~repro.aio.client.AsyncMetadataClient`.
    """

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        client: AsyncMetadataClient | None = None,
        write_quorum: int | None = None,
        origin: str = "async-cluster-client",
    ) -> None:
        self.router = ShardRouter(cluster_map)
        self.client = client if client is not None else AsyncMetadataClient()
        self._writer = QuorumWriter(self.router, write_quorum, origin)
        self.write_quorum = self._writer.write_quorum
        self.origin = origin
        self.stats: dict[str, int] = {
            "shard_routes": 0,
            "replica_failovers": 0,
            "quorum_ok": 0,
            "quorum_partial": 0,
            "quorum_failed": 0,
        }

    @property
    def cluster_map(self) -> ClusterMap:
        return self.router.cluster_map

    async def close(self) -> None:
        """Close the underlying connection pool."""
        await self.client.close()

    async def __aenter__(self) -> "AsyncClusterClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- reads -------------------------------------------------------------------

    async def get(self, path: str) -> bytes:
        """Fetch ``path``, failing over across the owning shard's replicas."""
        shard, replicas = self.router.route(path)
        self.stats["shard_routes"] += 1
        last_error: DiscoveryError | None = None
        for index, replica in enumerate(replicas):
            try:
                body = await self.client.get(f"http://{replica}{path}")
            except DiscoveryError as exc:
                last_error = exc
                self.stats["replica_failovers"] += 1
                count_outcome(
                    "cluster_client_failovers_total", ("shard",), (shard.name,)
                )
                continue
            outcome = "fallback" if index else "primary"
            count_outcome("cluster_client_reads_total", ("outcome",), (outcome,))
            return body
        count_outcome("cluster_client_reads_total", ("outcome",), ("error",))
        raise DiscoveryError(
            f"all {len(replicas)} replicas of shard {shard.name} failed for "
            f"{path}: {last_error}"
        ) from last_error

    # -- writes ------------------------------------------------------------------

    async def publish(self, path: str, text: str) -> QuorumResult:
        """Replicate a document to the owning shard; W-of-N quorum."""
        return await self._write(self._writer.plan(path, text))

    async def unpublish(self, path: str) -> QuorumResult:
        """Replicate a tombstone for ``path`` (same quorum rules)."""
        return await self._write(self._writer.plan(path, deleted=True))

    async def _write(self, plan: WritePlan) -> QuorumResult:
        async def deliver(replica: str) -> str | None:
            try:
                await self.client.post(f"http://{replica}/cluster/entries", plan.body)
                return None
            except DiscoveryError as exc:
                return f"{replica}: {exc}"

        # Concurrent fan-out: every replica sees the write at once, so
        # quorum latency is the fastest W replicas, not a serial walk.
        outcomes = await asyncio.gather(*(deliver(r) for r in plan.replicas))
        failures = [o for o in outcomes if o is not None]
        return self._writer.conclude(plan, failures, self.stats)
