"""Tests for :class:`repro.mp.pool.WorkerPool` (PROTOCOL §15.3).

Every test that spawns workers uses small pools and short supervision
ticks; the chaos test replays the repo-wide ``CHAOS_SEED`` so the
kill/respawn schedule is identical on every run.
"""

import json
import socket
import time

import pytest

from repro.errors import (
    DiscoveryError,
    MetadataHTTPError,
    TransportError,
    TransportTimeoutError,
)
from repro.faults import PoolFaultPlan
from repro.metaserver.client import MetadataClient, http_get, http_post
from repro.mp import pool as pool_mod
from repro.mp.pool import PoolStatus, WorkerPool, WorkerStatus, reuseport_available
from repro.transport.tcp import TCPListener

from tests.golden import vectors

#: Same deterministic chaos seed the cluster suite replays.
CHAOS_SEED = 20_260_807

requires_reuseport = pytest.mark.skipif(
    not reuseport_available(), reason="SO_REUSEPORT unavailable on this platform"
)


def both_modes():
    """Parametrize over serving modes, skipping reuseport where absent."""
    return pytest.mark.parametrize(
        "mode",
        [
            pytest.param("reuseport", marks=requires_reuseport),
            "handoff",
        ],
    )


def wait_until(predicate, timeout=10.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(DiscoveryError, match=">= 1 worker"):
            WorkerPool(workers=0)

    def test_rejects_unknown_plane(self):
        with pytest.raises(DiscoveryError, match="plane"):
            WorkerPool(plane="fibers")

    def test_rejects_unknown_mode(self):
        with pytest.raises(DiscoveryError, match="mode"):
            WorkerPool(mode="quantum")

    def test_reuseport_mode_requires_platform(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "reuseport_available", lambda: False)
        with pytest.raises(TransportError, match="SO_REUSEPORT"):
            WorkerPool(mode="reuseport")


class TestFallback:
    def test_auto_mode_falls_back_to_handoff(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "reuseport_available", lambda: False)
        pool = WorkerPool(workers=1)
        try:
            assert pool.mode == "handoff"
        finally:
            pool.stop()

    @pytest.mark.skipif(
        not hasattr(socket, "SO_REUSEPORT"),
        reason="platform never had SO_REUSEPORT",
    )
    def test_listener_flag_fails_without_platform_support(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT")
        with pytest.raises(TransportError, match="SO_REUSEPORT"):
            TCPListener(reuse_port=True)

    @requires_reuseport
    def test_two_listeners_share_a_port(self):
        first = TCPListener(reuse_port=True)
        try:
            second = TCPListener(port=first.address[1], reuse_port=True)
            second.close()
        finally:
            first.close()


class TestServing:
    @both_modes()
    def test_serves_published_documents(self, mode):
        with WorkerPool(workers=2, mode=mode) as pool:
            url = pool.publish_schema("/docs/hello", "<hello/>")
            assert url == pool.url_for("/docs/hello")
            for _ in range(5):
                assert http_get(url) == b"<hello/>"

    @requires_reuseport
    def test_kernel_shards_accepts_across_workers(self):
        with WorkerPool(workers=2, mode="reuseport") as pool:
            seen = set()
            for _ in range(40):
                body = http_get(pool.url_for("/mp/worker"))
                seen.add(json.loads(body)["worker"])
                if seen == {0, 1}:
                    break
            assert seen == {0, 1}

    def test_handoff_deals_to_every_worker(self):
        with WorkerPool(workers=2, mode="handoff") as pool:
            seen = set()
            for _ in range(8):
                body = http_get(pool.url_for("/mp/worker"))
                seen.add(json.loads(body)["worker"])
            assert seen == {0, 1}  # round-robin: 8 deals cover 2 workers

    @both_modes()
    def test_golden_vectors_byte_exact_through_pool(self, mode):
        """Satellite: both modes serve the golden wire bytes unchanged."""
        with WorkerPool(workers=2, mode=mode) as pool:
            pinned = {}
            for name in vectors.VECTOR_NAMES:
                golden_data = vectors.data_path(name).read_bytes()
                golden_meta = vectors.meta_path(name).read_bytes()
                pool.publish_schema(f"/golden/{name}/data", golden_data.hex())
                pool.publish_schema(f"/golden/{name}/meta", golden_meta.hex())
                pinned[name] = (golden_data, golden_meta)
            for name, (golden_data, golden_meta) in pinned.items():
                data = http_get(pool.url_for(f"/golden/{name}/data"))
                meta = http_get(pool.url_for(f"/golden/{name}/meta"))
                assert bytes.fromhex(data.decode()) == golden_data, name
                assert bytes.fromhex(meta.decode()) == golden_meta, name

    def test_unpublish_reaches_every_worker(self):
        with WorkerPool(workers=2) as pool:
            pool.publish_schema("/gone-soon", "<x/>")
            assert http_get(pool.url_for("/gone-soon")) == b"<x/>"
            pool.unpublish("/gone-soon")
            # Acknowledged: no worker still serves it, no waiting.
            for _ in range(6):
                with pytest.raises(MetadataHTTPError):
                    http_get(pool.url_for("/gone-soon"))

    @both_modes()
    def test_publish_and_unpublish_are_acknowledged(self, mode):
        """200 rounds of publish -> immediate GET -> unpublish -> immediate
        404, each fetched often enough to land on every worker (handoff
        deals connections round-robin; ``/mp/worker`` names who answered).
        Fails within a few rounds if either broadcast returns un-acked."""
        with WorkerPool(workers=2, mode=mode) as pool:
            answered = set()
            for round_number in range(200):
                path = f"/round/{round_number}"
                text = f"<round n='{round_number}'/>"
                url = pool.publish_schema(path, text)
                for _ in range(4):
                    assert http_get(url) == text.encode()
                pool.unpublish(path)
                for _ in range(4):
                    with pytest.raises(MetadataHTTPError):
                        http_get(url)
                answered.add(json.loads(http_get(pool.url_for("/mp/worker")))["worker"])
            assert answered == {0, 1}

    def test_unacknowledged_publish_times_out(self, monkeypatch):
        """A worker that never acks turns into a typed timeout, not a hang."""
        monkeypatch.setattr(pool_mod, "_CONVERGE_TIMEOUT", 0.3)
        with WorkerPool(workers=1) as pool:
            monkeypatch.setattr(pool, "_record_ack", lambda index, seq: None)
            with pytest.raises(TransportTimeoutError, match="not acknowledged"):
                pool.publish_schema("/never-acked", "<x/>")


class TestCrossWorkerPublish:
    def test_post_publish_converges_on_all_workers(self):
        with WorkerPool(workers=2) as pool:
            response = http_post(
                pool.url_for("/mp/publish?path=/late/doc"),
                b"<late/>",
                content_type="application/xml",
            )
            assert json.loads(response) == {"published": True, "converged": True}
            # The parent's re-broadcast was acknowledged before the
            # answer: every worker serves the document already.
            for _ in range(10):
                assert http_get(pool.url_for("/late/doc")) == b"<late/>"

    def test_publish_needs_absolute_path(self):
        with WorkerPool(workers=1) as pool:
            with pytest.raises(MetadataHTTPError):
                http_post(pool.url_for("/mp/publish?path=relative"), b"<x/>")
            with pytest.raises(MetadataHTTPError):
                http_get(pool.url_for("/mp/publish?path=/get-not-post"))


class TestChaos:
    def test_crash_respawn_loses_no_documents(self):
        """CHAOS_SEED replay: 2 kills, full recovery, no lost documents."""
        plan = PoolFaultPlan(CHAOS_SEED, crash=0.4, max_crashes=2)
        pool = WorkerPool(workers=2, fault_plan=plan, tick_seconds=0.05)
        with pool:
            pool.publish_schema("/keep-me", "<keep/>")
            wait_until(
                lambda: pool.status().total_respawns >= 2,
                timeout=20,
                message="two chaos kills",
            )
            pool.wait_ready(timeout=10)
            # The PR-1 retry budget absorbs any connection that raced
            # the kill; a respawned worker must already hold the doc.
            client = MetadataClient(ttl=0)
            result = client.get(pool.url_for("/keep-me"))
            assert result.body == b"<keep/>"
            status = pool.status()
            assert status.total_respawns >= 2
            assert status.alive == 2

    def test_respawn_disabled_leaves_worker_down(self):
        plan = PoolFaultPlan(CHAOS_SEED, crash=1.0, max_crashes=1)
        pool = WorkerPool(
            workers=2, fault_plan=plan, respawn=False, tick_seconds=0.05
        )
        # No __enter__: the immediate kill means "all ready" never holds.
        pool.start()
        try:
            wait_until(
                lambda: pool.status().alive == 1,
                timeout=10,
                message="one unrecovered kill",
            )
            assert pool.status().total_respawns == 0
        finally:
            pool.stop()


class TestStatusAndObs:
    def test_status_snapshot_shape(self):
        with WorkerPool(workers=2) as pool:
            status = pool.status()
            assert isinstance(status, PoolStatus)
            assert status.alive == 2
            assert status.total_respawns == 0
            assert [worker.index for worker in status.workers] == [0, 1]
            assert all(isinstance(w, WorkerStatus) for w in status.workers)
            as_dict = status.as_dict()
            assert as_dict["mode"] == pool.mode
            assert as_dict["port"] == pool.port
            assert len(as_dict["workers"]) == 2

    def test_mp_status_endpoint_reports_pool_health(self):
        with WorkerPool(workers=2, tick_seconds=0.05) as pool:
            def status_pushed():
                body = http_get(pool.url_for("/mp/status"))
                status = json.loads(body)
                return status.get("alive") == 2 and len(status.get("workers", [])) == 2

            wait_until(status_pushed, message="status push to reach workers")

    def test_parent_exports_worker_gauges(self, fresh_registry):
        with WorkerPool(workers=1, tick_seconds=0.05):
            wait_until(
                lambda: "mp_worker_up" in fresh_registry.snapshot(),
                timeout=5,
                message="parent obs push",
            )
            snap = fresh_registry.snapshot()
            assert snap["mp_worker_up"][(("worker", "0"),)] == 1.0
            assert snap["mp_worker_respawns_total"][(("worker", "0"),)] == 0

    def test_worker_metrics_endpoint_shows_pool_health(self):
        with WorkerPool(workers=1, tick_seconds=0.05) as pool:
            wait_until(
                lambda: b"mp_worker_up" in http_get(pool.url_for("/metrics")),
                message="pool gauges on a worker's /metrics",
            )


class TestAsyncPlane:
    @requires_reuseport
    def test_async_workers_serve_and_shard(self):
        with WorkerPool(workers=2, mode="reuseport", plane="async") as pool:
            pool.publish_schema("/async-doc", "<async/>")
            seen = set()
            for _ in range(40):
                assert http_get(pool.url_for("/async-doc")) == b"<async/>"
                seen.add(json.loads(http_get(pool.url_for("/mp/worker")))["worker"])
                if seen == {0, 1}:
                    break
            assert seen == {0, 1}
