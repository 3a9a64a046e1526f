"""Origin server and relay proxy tests."""

import pytest

from repro.http.messages import ByteRange, HttpRequest, RangeError
from repro.http.proxy import RelayProxy
from repro.http.server import WebServer


def server():
    s = WebServer("eBay")
    s.publish("/big", 4_000_000)
    return s


class TestWebServer:
    def test_full_get(self):
        resp = server().handle(HttpRequest("eBay", "/big"))
        assert resp.status == 200
        assert resp.body_bytes == 4_000_000

    def test_range_get(self):
        resp = server().handle(
            HttpRequest("eBay", "/big", ByteRange.first_bytes(100_000))
        )
        assert resp.status == 206
        assert resp.body_bytes == 100_000
        assert resp.resource_size == 4_000_000

    def test_suffix_get(self):
        resp = server().handle(HttpRequest("eBay", "/big", ByteRange.suffix_from(100)))
        assert resp.body_bytes == 4_000_000 - 100

    def test_unsatisfiable_range(self):
        with pytest.raises(RangeError):
            server().handle(
                HttpRequest("eBay", "/big", ByteRange.suffix_from(4_000_000))
            )

    def test_wrong_host(self):
        with pytest.raises(ValueError, match="reached server"):
            server().handle(HttpRequest("Google", "/big"))

    def test_missing_resource(self):
        with pytest.raises(KeyError, match="no resource"):
            server().handle(HttpRequest("eBay", "/nope"))

    def test_publish_validation(self):
        s = WebServer("X")
        with pytest.raises(ValueError):
            s.publish("", 10)
        with pytest.raises(ValueError):
            s.publish("/f", 0)

    def test_republish_replaces(self):
        s = server()
        s.publish("/big", 100)
        assert s.resource_size("/big") == 100

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            WebServer("")


class TestRelayProxy:
    def test_forward(self):
        proxy = RelayProxy("Texas")
        proxy.register_origin(server())
        resp = proxy.forward(HttpRequest("eBay", "/big", ByteRange.first_bytes(10)))
        assert resp.status == 206
        assert proxy.forwarded_count == 1

    def test_unknown_origin(self):
        proxy = RelayProxy("Texas")
        with pytest.raises(KeyError, match="no route to origin"):
            proxy.forward(HttpRequest("eBay", "/big"))

    def test_knows_origin(self):
        proxy = RelayProxy("Texas")
        assert not proxy.knows_origin("eBay")
        proxy.register_origin(server())
        assert proxy.knows_origin("eBay")

    def test_forward_count_increments(self):
        proxy = RelayProxy("Texas")
        proxy.register_origin(server())
        for _ in range(3):
            proxy.forward(HttpRequest("eBay", "/big"))
        assert proxy.forwarded_count == 3

    def test_error_does_not_count(self):
        proxy = RelayProxy("Texas")
        proxy.register_origin(server())
        with pytest.raises(KeyError):
            proxy.forward(HttpRequest("eBay", "/missing"))
        assert proxy.forwarded_count == 0

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RelayProxy("")
