"""Origin web server model.

A :class:`WebServer` owns named resources of known sizes (the paper downloads
multi-megabyte files from eBay/Google/Microsoft/Yahoo) and answers GET and
range-GET requests with the byte span it will transmit.  Actual byte movement
happens in the fluid engine; the server decides *what* is sent.
"""

from __future__ import annotations

from typing import Dict

from repro.http.messages import ByteRange, HttpRequest, HttpResponse
from repro.util.validation import check_positive

__all__ = ["WebServer"]


class WebServer:
    """A named origin server with a resource catalogue.

    Parameters
    ----------
    name:
        Server name; must match the request's ``Host`` header.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("server name must be non-empty")
        self.name = name
        self._resources: Dict[str, int] = {}

    def publish(self, path: str, size_bytes: int) -> None:
        """Register (or replace) a resource of ``size_bytes`` at ``path``."""
        if not path:
            raise ValueError("resource path must be non-empty")
        check_positive(size_bytes, "size_bytes")
        self._resources[path] = int(size_bytes)

    def resource_size(self, path: str) -> int:
        """Size of the resource at ``path`` (KeyError with context if absent)."""
        try:
            return self._resources[path]
        except KeyError:
            raise KeyError(f"server {self.name!r} has no resource {path!r}") from None

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Answer a request: 200 for full GETs, 206 for satisfiable ranges.

        Raises
        ------
        ValueError
            If the request is addressed to a different host.
        KeyError
            If the resource does not exist.
        RangeError
            If the requested range is unsatisfiable (maps to HTTP 416).
        """
        if request.host != self.name:
            raise ValueError(
                f"request for host {request.host!r} reached server {self.name!r}"
            )
        size = self.resource_size(request.path)
        if request.byte_range is None:
            return HttpResponse(200, size, ByteRange(0, size - 1))
        resolved = request.byte_range.resolve(size)  # raises RangeError if bad
        return HttpResponse(206, size, resolved)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WebServer({self.name!r}, resources={len(self._resources)})"
