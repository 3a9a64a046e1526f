"""HTTP message and byte-range modelling.

The paper's mechanism is built entirely on HTTP/1.1 features: **range
requests** (RFC 7233 ``Range: bytes=first-last``) to fetch the first
``x`` bytes as a throughput probe, and **proxying** to interpose a relay.
This module models exactly the message semantics the mechanism needs -
resources, range headers and their algebra, and response status logic -
without the wire format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.util.validation import check_positive

__all__ = ["ByteRange", "HttpRequest", "HttpResponse", "RangeError"]


class RangeError(ValueError):
    """An unsatisfiable or malformed byte range."""


_RANGE_RE = re.compile(r"^bytes=(\d+)-(\d*)$")


@dataclass(frozen=True)
class ByteRange:
    """A half-open byte interval ``[first, last]`` (inclusive, RFC style).

    ``last`` of ``None`` means "to the end of the resource".
    """

    first: int
    last: Optional[int] = None

    def __post_init__(self) -> None:
        if self.first < 0:
            raise RangeError(f"range start must be >= 0, got {self.first}")
        if self.last is not None and self.last < self.first:
            raise RangeError(f"range end {self.last} precedes start {self.first}")

    @classmethod
    def first_bytes(cls, x: int) -> "ByteRange":
        """The probe range: the first ``x`` bytes (``bytes=0-(x-1)``)."""
        if x <= 0:
            raise RangeError(f"probe size must be positive, got {x}")
        return cls(0, x - 1)

    @classmethod
    def suffix_from(cls, offset: int) -> "ByteRange":
        """Everything from ``offset`` to the end (``bytes=offset-``)."""
        return cls(offset, None)

    @classmethod
    def parse(cls, header: str) -> "ByteRange":
        """Parse a ``bytes=first-last`` header value."""
        m = _RANGE_RE.match(header.strip())
        if not m:
            raise RangeError(f"malformed Range header {header!r}")
        first = int(m.group(1))
        last = int(m.group(2)) if m.group(2) else None
        return cls(first, last)

    def header_value(self) -> str:
        """Render as a ``Range`` header value."""
        last = "" if self.last is None else str(self.last)
        return f"bytes={self.first}-{last}"

    def resolve(self, resource_size: int) -> "ByteRange":
        """Clamp against a concrete resource size; raise if unsatisfiable."""
        if resource_size <= 0:
            raise RangeError(f"resource size must be positive, got {resource_size}")
        if self.first >= resource_size:
            raise RangeError(
                f"range starts at {self.first} but resource has {resource_size} bytes"
            )
        last = resource_size - 1 if self.last is None else min(self.last, resource_size - 1)
        return ByteRange(self.first, last)

    @property
    def length(self) -> Optional[int]:
        """Number of bytes covered, or ``None`` for open-ended ranges."""
        if self.last is None:
            return None
        return self.last - self.first + 1

    def __str__(self) -> str:
        return self.header_value()


@dataclass(frozen=True)
class HttpRequest:
    """A GET request for a resource, optionally with a byte range.

    Attributes
    ----------
    host:
        Target server name (the paper hard-codes server IPs; we use names).
    path:
        Resource path on the server.
    byte_range:
        Optional range; ``None`` requests the entire resource.
    via:
        Relay name when the request travels the indirect path, for logging.
    """

    host: str
    path: str
    byte_range: Optional[ByteRange] = None
    via: Optional[str] = None

    def forwarded(self, relay: str) -> "HttpRequest":
        """The request as re-issued by a relay proxy toward the origin."""
        return HttpRequest(self.host, self.path, self.byte_range, via=relay)


@dataclass(frozen=True)
class HttpResponse:
    """The server's answer: status plus the byte span it will send."""

    status: int
    resource_size: int
    body_range: ByteRange

    def __post_init__(self) -> None:
        check_positive(self.resource_size, "resource_size")
        if self.body_range.last is None:
            raise RangeError("response body range must be fully resolved")

    @property
    def body_bytes(self) -> int:
        """Payload size in bytes."""
        length = self.body_range.length
        assert length is not None
        return length

