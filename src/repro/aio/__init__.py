"""``repro.aio`` — the asyncio serving plane.

The sync plane (``repro.transport``, ``repro.metaserver``,
``repro.events.remote``) is thread-per-connection: correct, simple, and
bounded by thread spawn and context-switch cost at high client counts.
This package is the same system on coroutines — one loop multiplexing
every connection — speaking **byte-identical wire formats**, so any
sync endpoint interoperates with any async endpoint:

- :class:`AsyncTCPChannel` — the framed message channel, an asyncio
  protocol over the shared read-ahead frame buffer, with a send lock,
  small-frame write coalescing, and backpressure in both directions;
- :class:`AsyncMetadataServer` — the metadata HTTP server, sharing a
  :class:`~repro.metaserver.catalog.MetadataCatalog` (and through it a
  :class:`~repro.pbio.fmserver.FormatServer`) with the threaded server,
  plus request pipelining and graceful drain on shutdown;
- :class:`AsyncMetadataClient` — pooled connections with request
  pipelining: many in-flight format resolutions over one socket;
- :class:`AsyncEventBroker` / :class:`AsyncBackboneClient` — the event
  backbone's broker front end and remote client on coroutines, with
  bounded per-subscriber queues; drivers of the same sans-IO protocol
  core (:mod:`repro.events.protocol`) as the threaded pair, so the two
  planes cannot disagree about an envelope;
- :class:`AsyncFaultyChannel` — PR 1's seeded
  :class:`~repro.faults.plan.FaultPlan` applied unchanged to the async
  plane;
- :class:`BackgroundLoop` — run async components from sync code (tests,
  tools, threaded applications).

See docs/PROTOCOL.md §10 for the concurrency model.
"""

from repro.aio.broker import AsyncBackboneClient, AsyncEventBroker, AsyncRemotePublisher
from repro.aio.channel import (
    AsyncChannel,
    AsyncTCPChannel,
    AsyncTCPListener,
    connect,
    listen,
)
from repro.aio.client import AsyncMetadataClient
from repro.aio.cluster import AsyncClusterClient
from repro.aio.faults import AsyncFaultyChannel
from repro.aio.metaserver import AsyncMetadataServer
from repro.aio.runner import BackgroundLoop

__all__ = [
    "AsyncBackboneClient",
    "AsyncChannel",
    "AsyncClusterClient",
    "AsyncEventBroker",
    "AsyncFaultyChannel",
    "AsyncMetadataClient",
    "AsyncMetadataServer",
    "AsyncRemotePublisher",
    "AsyncTCPChannel",
    "AsyncTCPListener",
    "BackgroundLoop",
    "connect",
    "listen",
]
