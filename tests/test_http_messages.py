"""HTTP message and byte-range algebra tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.http.messages import ByteRange, HttpRequest, HttpResponse, RangeError


class TestByteRangeConstruction:
    def test_first_bytes(self):
        r = ByteRange.first_bytes(100)
        assert (r.first, r.last) == (0, 99)
        assert r.length == 100

    def test_first_bytes_rejects_zero(self):
        with pytest.raises(RangeError):
            ByteRange.first_bytes(0)

    def test_suffix(self):
        r = ByteRange.suffix_from(500)
        assert r.first == 500 and r.last is None and r.length is None

    def test_inverted_rejected(self):
        with pytest.raises(RangeError):
            ByteRange(10, 5)

    def test_negative_rejected(self):
        with pytest.raises(RangeError):
            ByteRange(-1)


class TestHeaderRoundTrip:
    def test_closed_range(self):
        assert ByteRange(0, 99).header_value() == "bytes=0-99"
        assert ByteRange.parse("bytes=0-99") == ByteRange(0, 99)

    def test_open_range(self):
        assert ByteRange(100).header_value() == "bytes=100-"
        assert ByteRange.parse("bytes=100-") == ByteRange(100, None)

    def test_malformed(self):
        for bad in ("bytes=", "0-99", "bytes=a-b", "bytes=5", "bytes=-5"):
            with pytest.raises(RangeError):
                ByteRange.parse(bad)

    def test_whitespace_tolerated(self):
        assert ByteRange.parse("  bytes=1-2  ") == ByteRange(1, 2)

    @given(st.integers(0, 10**9), st.one_of(st.none(), st.integers(0, 10**9)))
    def test_round_trip_property(self, first, last):
        if last is not None and last < first:
            first, last = last, first
        r = ByteRange(first, last)
        assert ByteRange.parse(r.header_value()) == r


class TestResolveAndRemainder:
    def test_resolve_clamps_last(self):
        r = ByteRange(0, 10_000).resolve(100)
        assert r.last == 99

    def test_resolve_open_range(self):
        r = ByteRange.suffix_from(10).resolve(100)
        assert (r.first, r.last) == (10, 99)

    def test_resolve_unsatisfiable(self):
        with pytest.raises(RangeError):
            ByteRange(100).resolve(100)

    def test_remainder_basic(self):
        # After probing the first 100 bytes, the remainder phase fetches
        # ``suffix_from(100)``: the rest of the file.
        probe = ByteRange.first_bytes(100).resolve(1000)
        rem = ByteRange.suffix_from(probe.last + 1).resolve(1000)
        assert (rem.first, rem.last) == (100, 999)

    def test_remainder_none_when_probe_covers_file(self):
        # A probe that covers the whole file leaves no satisfiable remainder.
        with pytest.raises(RangeError):
            ByteRange.suffix_from(1000).resolve(1000)
        with pytest.raises(RangeError):
            ByteRange.suffix_from(2000).resolve(1000)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_probe_plus_remainder_cover_file_exactly(self, x, n):
        # The session's two-phase fetch: probe ``first_bytes(x)``, then
        # fetch ``suffix_from(x)``; a probe covering the file leaves none.
        probe = ByteRange.first_bytes(x)
        if x >= n:
            with pytest.raises(RangeError):
                ByteRange.suffix_from(x).resolve(n)
            return
        rem = ByteRange.suffix_from(x).resolve(n)
        assert rem.first == x
        assert rem.last == n - 1
        assert probe.resolve(n).length + rem.length == n


class TestHttpRequest:
    def test_forwarded_preserves_range(self):
        req = HttpRequest("eBay", "/f", ByteRange(5, 9))
        fwd = req.forwarded("Texas")
        assert fwd.via == "Texas"
        assert fwd.byte_range == req.byte_range
        assert fwd.host == req.host


class TestHttpResponse:
    def test_body_bytes(self):
        resp = HttpResponse(206, 1000, ByteRange(0, 99))
        assert resp.body_bytes == 100

    def test_unresolved_range_rejected(self):
        with pytest.raises(RangeError):
            HttpResponse(206, 1000, ByteRange(0, None))
