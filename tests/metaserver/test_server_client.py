"""Integration tests for the metadata server and client."""

import pytest

from repro.arch import SPARC_32
from repro.errors import DiscoveryError
from repro.metaserver import MetadataClient, MetadataServer, http_get
from repro.pbio import FormatServer, IOContext, IOField

from tests.schema.conftest import FIGURE_9


@pytest.fixture
def server():
    with MetadataServer() as running:
        yield running


class TestStaticDocuments:
    def test_publish_and_fetch(self, server):
        url = server.publish_schema("/schemas/asdoff.xsd", FIGURE_9)
        assert http_get(url).decode("utf-8") == FIGURE_9

    def test_get_schema_parses(self, server):
        url = server.publish_schema("/schemas/asdoff.xsd", FIGURE_9)
        schema = MetadataClient().get_schema(url)
        assert "ASDOffEvent" in schema.complex_types

    def test_schema_document_object_serialized(self, server):
        from repro.schema import parse_schema

        url = server.publish_schema("/s.xsd", parse_schema(FIGURE_9))
        schema = MetadataClient().get_schema(url)
        assert schema.complex_type("ASDOffEvent").element("off").occurs.count == 5

    def test_missing_document_is_404(self, server):
        with pytest.raises(DiscoveryError, match="404"):
            http_get(server.url_for("/nope.xsd"))

    def test_unpublish_removes(self, server):
        url = server.publish_schema("/s.xsd", FIGURE_9)
        server.unpublish("/s.xsd")
        with pytest.raises(DiscoveryError, match="404"):
            http_get(url)

    def test_non_schema_document_rejected_by_client(self, server):
        url = server.publish_schema("/bad.xsd", "<notaschema/>")
        with pytest.raises(DiscoveryError, match="not a valid schema"):
            MetadataClient().get_schema(url)

    def test_schema_with_byte_order_mark_is_readable(self, server, tmp_path):
        from repro.schema import parse_schema_file

        url = server.publish_schema("/bom.xsd", "\ufeff" + FIGURE_9)
        assert "ASDOffEvent" in MetadataClient().get_schema(url).complex_types
        path = tmp_path / "bom.xsd"
        path.write_text(FIGURE_9, encoding="utf-8-sig")
        assert "ASDOffEvent" in parse_schema_file(path).complex_types

    def test_undecodable_document_rejected_by_client(self, server):
        from repro.metaserver.http import HTTPResponse

        server.catalog.attach_prefix_handler(
            "/latin1", lambda request: HTTPResponse(200, body=b"<a>\xe9</a>")
        )
        with pytest.raises(DiscoveryError, match="not a valid schema"):
            MetadataClient().get_schema(server.url_for("/latin1.xsd"))

    def test_programming_error_is_not_relabelled(self, server, monkeypatch):
        def broken(text):
            raise AttributeError("a bug, not a bad document")

        monkeypatch.setattr("repro.metaserver.client.parse_schema", broken)
        url = server.publish_schema("/s.xsd", FIGURE_9)
        with pytest.raises(AttributeError):
            MetadataClient().get_schema(url)

    def test_query_string_ignored_for_static_lookup(self, server):
        server.publish_schema("/s.xsd", FIGURE_9)
        body = http_get(server.url_for("/s.xsd?client=gate7"))
        assert b"ASDOffEvent" in body


class TestDynamicGeneration:
    def test_handler_sees_request(self, server):
        def handler(request):
            client = request.path.partition("?client=")[2] or "anonymous"
            return f'<?xml version="1.0"?><client name="{client}"/>'

        server.publish_dynamic("/dyn.xsd", handler)
        body = http_get(server.url_for("/dyn.xsd?client=gate7"))
        assert b'name="gate7"' in body

    def test_handler_failure_is_500(self, server):
        def handler(request):
            raise RuntimeError("boom")

        server.publish_dynamic("/dyn.xsd", handler)
        with pytest.raises(DiscoveryError, match="500"):
            http_get(server.url_for("/dyn.xsd"))

    def test_format_scoping_by_requestor(self, server):
        """The paper's format-scoping: different schema slices per client."""
        full = FIGURE_9
        restricted = FIGURE_9.replace(
            '<xsd:element name="eta" type="xsd:unsigned-long" minOccurs="0" maxOccurs="*" />',
            "",
        )

        def handler(request):
            if "privileged" in request.path:
                return full
            return restricted

        server.publish_dynamic("/scoped.xsd", handler)
        client = MetadataClient(ttl=0)
        open_schema = client.get_schema(server.url_for("/scoped.xsd?role=public"))
        priv_schema = client.get_schema(server.url_for("/scoped.xsd?role=privileged"))
        assert "eta" not in open_schema.complex_type("ASDOffEvent").element_names()
        assert "eta" in priv_schema.complex_type("ASDOffEvent").element_names()


class TestFormatMetadataOverHTTP:
    def test_resolve_format_by_id(self, server):
        format_server = FormatServer()
        server.attach_format_server(format_server)
        ctx = IOContext(SPARC_32, format_server=format_server)
        fmt = ctx.register_format(
            "point", [IOField("x", "double", 8, 0), IOField("y", "double", 8, 8)]
        )
        host, port = server.address
        fetched = MetadataClient().get_format(f"http://{host}:{port}", fmt.format_id)
        assert fetched.format_id == fmt.format_id

    def test_unknown_format_id_404(self, server):
        server.attach_format_server(FormatServer())
        with pytest.raises(DiscoveryError, match="404"):
            http_get(server.url_for("/formats/" + "00" * 8))

    def test_malformed_hex_id_400(self, server):
        server.attach_format_server(FormatServer())
        with pytest.raises(DiscoveryError, match="400"):
            http_get(server.url_for("/formats/zzzz"))


class TestClientCaching:
    def test_cache_serves_repeat_fetches(self, server):
        url = server.publish_schema("/s.xsd", FIGURE_9)
        client = MetadataClient(ttl=300)
        for _ in range(5):
            client.get_schema(url)
        assert client.fetches == 1
        assert client.hits == 4

    def test_ttl_zero_disables_cache(self, server):
        url = server.publish_schema("/s.xsd", FIGURE_9)
        client = MetadataClient(ttl=0)
        client.get_bytes(url)
        client.get_bytes(url)
        assert client.fetches == 2

    def test_invalidate_forces_refetch(self, server):
        url = server.publish_schema("/s.xsd", FIGURE_9)
        client = MetadataClient(ttl=300)
        client.get_bytes(url)
        client.invalidate(url)
        client.get_bytes(url)
        assert client.fetches == 2

    def test_cache_survives_server_death(self, server):
        """Fault tolerance: cached metadata keeps a client working when
        the metadata server is unreachable."""
        url = server.publish_schema("/s.xsd", FIGURE_9)
        client = MetadataClient(ttl=3600)
        first = client.get_schema(url)
        server.stop()
        second = client.get_schema(url)  # served from cache
        assert second.type_names() == first.type_names()


class TestServerLifecycle:
    def test_unreachable_server_raises_discovery_error(self):
        with MetadataServer() as server:
            host, port = server.address
        with pytest.raises(DiscoveryError, match="cannot reach"):
            http_get(f"http://{host}:{port}/x", timeout=0.5)

    def test_head_request_omits_body(self, server):
        import socket

        from repro.metaserver.http import HTTPRequest, HTTPResponse

        server.publish_schema("/s.xsd", FIGURE_9)
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(HTTPRequest("HEAD", "/s.xsd").render())
        # HEAD responses advertise Content-Length but carry no body, so
        # read straight to EOF rather than via the length-driven reader.
        raw = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            raw += chunk
        sock.close()
        response = HTTPResponse.parse(raw)
        assert response.status == 200
        assert response.body == b""
        assert int(response.header("content-length")) == len(FIGURE_9.encode())

    def test_post_rejected_405(self, server):
        import socket

        from repro.metaserver.http import HTTPRequest, HTTPResponse, read_http_message

        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(HTTPRequest("POST", "/s.xsd", body=b"x").render())
        response = HTTPResponse.parse(read_http_message(sock.recv))
        sock.close()
        assert response.status == 405

    def test_double_start_rejected(self):
        server = MetadataServer()
        server.start()
        try:
            with pytest.raises(DiscoveryError, match="already started"):
                server.start()
        finally:
            server.stop()
