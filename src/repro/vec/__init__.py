"""repro.vec — batched struct-of-arrays fluid transport engine.

The vector engine holds the whole flow population in numpy arrays (an
alive mask and a group per row; bytes and rate per group of rows that
share a cohort and a size; links, ramp and multiplicity per cohort of
identical rows; per-link capacities), solves max-min fairness for the
entire population per epoch, one solver flow per cohort, and replaces
per-flow Python bookkeeping with vectorized next-completion /
next-breakpoint scans over the groups.

Probe races run on it: :meth:`repro.tcp.fluid.FluidNetwork.start_races`
hands a population's direct/relay race (:mod:`repro.vec.race`) to a
:class:`~repro.vec.engine.VectorCore` as rows, with no flow objects, while
object flows always run the per-object tick.  The core gives disjoint rows
``min(bottleneck, cap)`` and solves every shared population with
:func:`~repro.vec.solver.waterfill_sparse`, whose summation order the
per-object tick's solvers share, so a race writes the bytes of its
per-object reference at any population (pinned by the test suite).
:func:`~repro.vec.solver.certify_maxmin` checks any allocation over the
core's sparse incidence in O(nnz); the sanitizer runs it on every tick.
See DESIGN.md §12.
"""
