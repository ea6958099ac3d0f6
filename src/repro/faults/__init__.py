"""Deterministic fault injection for chaos testing the stack.

The paper's fault-tolerance story (§3.3) is architectural: remote
discovery degrades to compiled-in metadata when "a broken network link
or hardware failure" strikes.  Exercising that story needs broken links
on demand.  This package provides them, reproducibly:

- :class:`~repro.faults.plan.FaultPlan` /
  :class:`~repro.faults.plan.ServerFaultPlan` — seeded, deterministic
  schedules deciding *which* operation fails and *how* (explicit
  "fail the Nth op" entries plus probabilistic rates);
- :class:`~repro.faults.channel.FaultyChannel` — wraps any
  :class:`~repro.transport.channel.Channel` and injects connection
  resets, timeouts, message drops, byte corruption, and added latency;
- :class:`~repro.metaserver.server.FlakyMetadataServer` (over in
  :mod:`repro.metaserver`) consumes a :class:`ServerFaultPlan` to serve
  5xx errors, hangs, and truncated bodies.

The resilience layers under test: retry + circuit breaker +
stale-while-revalidate in :mod:`repro.metaserver.client`, source health
tracking in :mod:`repro.core.discovery`, resumable timeouts and bounded
reconnect in :mod:`repro.transport.tcp`.
"""

from repro.faults.channel import FaultyChannel, corrupt_bytes
from repro.faults.plan import (
    CHANNEL_FAULTS,
    POOL_FAULTS,
    SERVER_FAULTS,
    FaultEvent,
    FaultPlan,
    PoolFaultPlan,
    ServerFaultPlan,
)

__all__ = [
    "CHANNEL_FAULTS",
    "POOL_FAULTS",
    "SERVER_FAULTS",
    "FaultEvent",
    "FaultPlan",
    "PoolFaultPlan",
    "ServerFaultPlan",
    "FaultyChannel",
    "corrupt_bytes",
]
