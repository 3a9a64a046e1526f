"""issue_download tests: HTTP over fluid flows."""

import pytest

from repro.http.messages import ByteRange, HttpRequest
from repro.http.transfer import TcpParams, issue_download
from repro.util.units import kb, mb, mbps_to_bytes_per_s


class TestDirectDownload(object):
    def test_full_download_moves_all_bytes(self, mini_world):
        w = mini_world(direct_mbps=1.0, file_mb=1.0)
        sim, net, _ = w.universe()
        path = w.builder.direct("C", "S")
        t = issue_download(net, path.route, w.server, HttpRequest("S", "/f"))
        net.run_to_completion(t.flow)
        assert t.flow.completed_at is not None and t.flow.remaining == 0.0
        assert t.flow.delivered == pytest.approx(mb(1))

    def test_range_download_moves_range_only(self, mini_world):
        w = mini_world()
        sim, net, _ = w.universe()
        path = w.builder.direct("C", "S")
        req = HttpRequest("S", "/f", ByteRange.first_bytes(int(kb(100))))
        t = issue_download(net, path.route, w.server, req)
        net.run_to_completion(t.flow)
        assert t.flow.size == pytest.approx(kb(100))

    def test_throughput_close_to_bottleneck(self, mini_world):
        w = mini_world(direct_mbps=2.0, file_mb=4.0)
        sim, net, _ = w.universe()
        path = w.builder.direct("C", "S")
        t = issue_download(
            net, path.route, w.server, HttpRequest("S", "/f"),
            tcp=TcpParams(max_window=1e9),
        )
        net.run_to_completion(t.flow)
        assert t.throughput() == pytest.approx(mbps_to_bytes_per_s(2.0), rel=0.05)

    def test_window_cap_limits_throughput(self, mini_world):
        w = mini_world(direct_mbps=50.0, access_mbps=100.0, file_mb=4.0)
        sim, net, _ = w.universe()
        path = w.builder.direct("C", "S")
        t = issue_download(
            net, path.route, w.server, HttpRequest("S", "/f"),
            tcp=TcpParams(max_window=65536.0),
        )
        net.run_to_completion(t.flow)
        ceiling = 65536.0 / path.route.rtt
        # Setup latency and slow start keep the average strictly below the
        # window ceiling, but close to it for a multi-megabyte file.
        assert 0.88 * ceiling <= t.throughput() <= ceiling


class TestIndirectDownload:
    def test_proxy_required(self, mini_world):
        w = mini_world()
        sim, net, _ = w.universe()
        path = w.builder.indirect("C", "R1", "S")
        with pytest.raises(ValueError, match="relay proxy"):
            issue_download(net, path.route, w.server, HttpRequest("S", "/f"))

    def test_proxy_mismatch_rejected(self, mini_world):
        w = mini_world(relay_mbps={"R1": 2.0, "R2": 3.0})
        sim, net, _ = w.universe()
        p1 = w.builder.indirect("C", "R1", "S")
        p2 = w.builder.indirect("C", "R2", "S")
        with pytest.raises(ValueError, match="via"):
            issue_download(
                net, p1.route, w.server, HttpRequest("S", "/f"), proxy=p2.proxy
            )

    def test_indirect_bottleneck_is_overlay_hop(self, mini_world, fast_tcp):
        w = mini_world(direct_mbps=1.0, relay_mbps={"R1": 3.0}, file_mb=4.0)
        sim, net, _ = w.universe()
        path = w.builder.indirect("C", "R1", "S")
        t = issue_download(
            net, path.route, w.server, HttpRequest("S", "/f"),
            proxy=path.proxy, tcp=fast_tcp,
        )
        net.run_to_completion(t.flow)
        assert t.throughput() == pytest.approx(mbps_to_bytes_per_s(3.0), rel=0.1)

    def test_forward_counted_on_proxy(self, mini_world):
        w = mini_world()
        sim, net, _ = w.universe()
        path = w.builder.indirect("C", "R1", "S")
        issue_download(
            net, path.route, w.server, HttpRequest("S", "/f"), proxy=path.proxy
        )
        assert path.proxy.forwarded_count == 1


class TestCallbacks:
    def test_on_complete_receives_transfer(self, mini_world):
        w = mini_world()
        sim, net, _ = w.universe()
        done = []
        path = w.builder.direct("C", "S")
        t = issue_download(
            net, path.route, w.server, HttpRequest("S", "/f"), on_complete=done.append
        )
        net.run_to_completion(t.flow)
        assert done == [t]

    def test_abort_prevents_completion(self, mini_world):
        w = mini_world(file_mb=8.0)
        sim, net, _ = w.universe()
        path = w.builder.direct("C", "S")
        t = issue_download(net, path.route, w.server, HttpRequest("S", "/f"))
        sim.run(until=1.0)
        t.abort(net)
        sim.run()
        assert t.done and t.flow.remaining > 0.0
