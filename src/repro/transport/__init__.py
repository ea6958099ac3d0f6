"""Message transports (substrate S6).

The paper insists that xml2wire/PBIO "does not predicate the use of
specific data delivery mechanisms" — TCP/IP, multicast middleware, or
cluster interconnects all work.  This package provides the
:class:`~repro.transport.channel.Channel` abstraction and two concrete
transports:

- :mod:`~repro.transport.inproc` — an in-process pipe (thread-safe,
  optionally shaped by a :class:`~repro.transport.netsim.NetworkModel`
  that simulates latency/bandwidth, either in real time or as virtual
  accounting for deterministic benchmarks);
- :mod:`~repro.transport.tcp` — real sockets over loopback or LAN, with
  the shared length-prefixed framing.

A third transport lives in :mod:`repro.mp`:
:class:`~repro.mp.shm.ShmChannel`, shared-memory ring buffers for
co-located processes (zero syscalls, zero copies; PROTOCOL §15).
:func:`connect_channel` selects a transport by endpoint URI —
``tcp://host:port`` or ``shm://a2b,b2a,capacity`` — so deployment
configuration, not code, decides whether two endpoints talk over a
socket or over memory.

:mod:`~repro.transport.connection` layers the PBIO message protocol on
any channel: data messages, eager format-metadata push on first use, and
pull-based format requests for late joiners.
"""

from repro.errors import TransportError
from repro.transport.channel import (
    Channel,
    recv_view_debug_enabled,
    set_recv_view_debug,
)
from repro.transport.connection import RecordConnection
from repro.transport.inproc import InprocChannel, make_pipe
from repro.transport.netsim import NetworkModel, NetworkStats
from repro.transport.tcp import (
    ReconnectingTCPChannel,
    TCPChannel,
    TCPListener,
    connect,
    listen,
)


def connect_channel(endpoint: str) -> Channel:
    """Open a :class:`Channel` to ``endpoint``, selecting the transport
    by URI scheme: ``tcp://host:port`` dials a socket,
    ``shm://a2b,b2a,capacity`` attaches the peer end of a shared-memory
    ring pair (the :mod:`repro.mp` import is deferred so TCP-only
    deployments never pay for it).
    """
    if endpoint.startswith("tcp://"):
        rest = endpoint[len("tcp://"):]
        host, _, port_text = rest.rpartition(":")
        if not host or not port_text.isdigit():
            raise TransportError(f"malformed tcp endpoint {endpoint!r}")
        return connect(host, int(port_text))
    if endpoint.startswith("shm://"):
        from repro.mp.shm import ShmChannel

        return ShmChannel.attach(endpoint)
    raise TransportError(
        f"unknown endpoint scheme {endpoint!r}; expected tcp:// or shm://"
    )


__all__ = [
    "Channel",
    "RecordConnection",
    "InprocChannel",
    "make_pipe",
    "NetworkModel",
    "NetworkStats",
    "ReconnectingTCPChannel",
    "TCPChannel",
    "TCPListener",
    "connect",
    "connect_channel",
    "listen",
    "recv_view_debug_enabled",
    "set_recv_view_debug",
]
