"""``repro.store`` — the disk-backed, content-addressed artifact cache.

Public surface:

* :class:`~repro.store.core.ArtifactStore` — one cache directory of npz
  containers, addressed by ``sha256(kind | builder version | pattern digest
  | params)``, written atomically and schema-checked on read
  (corrupt-or-stale entries are a miss, never a crash);
* :func:`~repro.store.core.get_default_store` /
  :func:`~repro.store.core.set_default_store` — the process-wide default
  resolved from an explicit override or the ``REPRO_STORE`` environment
  variable (``repro suite/bench --store DIR`` sets the latter so worker
  processes inherit it);
* :mod:`repro.store.spectral` — the codecs that move registry patterns,
  coarsening hierarchies and converged Fiedler vectors in and out of a
  store (the only kinds whose entries show a measured end-to-end gain,
  weighed against their write cost).

See ``docs/performance.md`` ("Persistent artifact store") for the
content-address scheme and invalidation rules.
"""

from repro.store.core import (
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    canonical_params,
    get_default_store,
    reset_default_store,
    set_default_store,
)
from repro.store.spectral import pattern_digest, problem_digest

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ArtifactStore",
    "canonical_params",
    "get_default_store",
    "reset_default_store",
    "set_default_store",
    "pattern_digest",
    "problem_digest",
]
