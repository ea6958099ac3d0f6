"""The event backbone (substrate S8).

The paper's application scenario (Figures 1 and 3) is an airline
operational information system: capture points publish structured
information streams onto a system-wide *event backbone*; display points,
data access points and transient handheld clients subscribe at run time.

This package implements that backbone as an in-process, thread-safe
publish/subscribe broker carrying *encoded PBIO messages*:

- publishers encode records with their own
  :class:`~repro.pbio.IOContext` (their own architecture — capture
  points are heterogeneous);
- the broker routes opaque message bytes per stream and *caches each
  stream's format-metadata messages*, replaying them to late joiners
  (the paper's handheld devices "which join the network when activated");
- subscribers decode with their own context, learning formats from the
  in-stream metadata — including formats they discovered via xml2wire
  moments earlier.

The broker never decodes data messages: like TIBCO or a multicast
fabric, it is payload-agnostic, which is exactly why NDR's
sender-native encoding works end to end.

Modules: :mod:`~repro.events.backbone` (streams, routing, metadata
replay), :mod:`~repro.events.endpoints` (publisher, subscription — the
in-process drivers of the record stream in :mod:`repro.pbio.stream`),
:mod:`~repro.events.protocol` (the broker envelope protocol as sans-IO
state machines: codec, ``ServerSession``, ``ClientSession``) and
:mod:`~repro.events.remote` (its threaded TCP driver; the asyncio one
is :mod:`repro.aio.broker`).
"""

from repro.events.backbone import EventBackbone, StreamStats
from repro.events.endpoints import Event, Publisher, Subscription
from repro.events.remote import BrokerServer, RemoteBackboneClient

__all__ = [
    "EventBackbone",
    "StreamStats",
    "Event",
    "Publisher",
    "Subscription",
    "BrokerServer",
    "RemoteBackboneClient",
]
