"""High-level pipeline: the public face of the library.

:func:`repro.core.pipeline.reorder` is the one-call entry point — structure in,
ordering plus envelope statistics out — and
:func:`repro.core.pipeline.compare_orderings` runs several orderings on a
single matrix through the batch engine's cell and returns the
:class:`repro.batch.results.SuiteResult` of one paper-table row block.
"""

from repro.core.pipeline import EnvelopeReport, compare_orderings, reorder

__all__ = ["reorder", "compare_orderings", "EnvelopeReport"]
