"""repro.vec — batched struct-of-arrays fluid transport engine.

The vector engine holds the whole flow population in numpy arrays (rates
and remaining bytes per row; links, ramp and multiplicity per cohort of
identical rows; per-link capacities), solves max-min fairness for the
entire population per epoch, one solver flow per cohort, and replaces
per-flow Python bookkeeping with vectorized next-completion /
next-breakpoint scans.

Nobody selects it: a :class:`repro.tcp.fluid.FluidNetwork` promotes itself
to a :class:`VectorCore` the first time its active population exceeds the
dense-solver window (``repro.tcp.fluid._DENSE_MAX_FLOWS``).  Within that
window the core routes its allocation through the dense
:func:`repro.tcp.maxmin.maxmin_allocate`, whose rates the per-object tick's
solvers reproduce bit for bit, so promotion never changes a byte (pinned by
the test suite).  :func:`certify_maxmin` checks any allocation over the
core's sparse incidence in O(nnz); the sanitizer runs it on every tick.
:mod:`repro.vec.race` runs a population's direct/relay probe race as core
rows, with no flow objects.  See DESIGN.md §12.
"""

from repro.vec.engine import VectorCore
from repro.vec.solver import certify_maxmin, waterfill_sparse

__all__ = ["VectorCore", "certify_maxmin", "waterfill_sparse"]
