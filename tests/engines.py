"""Pin the fluid tick a test runs on.

A :class:`~repro.tcp.fluid.FluidNetwork` picks its tick from its live
population, so tests reach either tick through the one private knob the
engine has: the promotion bound ``repro.tcp.fluid._PROMOTE_ABOVE``.
"""

import math
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.tcp import fluid


@contextmanager
def forced_engine(vector: bool) -> Iterator[None]:
    """Run the vector core from the first flow (``True``) or keep the
    per-object tick throughout (``False``) inside the ``with`` block."""
    with mock.patch.object(fluid, "_PROMOTE_ABOVE", 0 if vector else math.inf):
        yield
