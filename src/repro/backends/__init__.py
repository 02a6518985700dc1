"""Per-kernel backend registry: production numpy, loop ``python``, JIT ``numba``.

The envelope pipeline is dominated by a handful of inner loops — BFS level
sweeps, the Cuthill-McKee queue, the GPS/GK level numbering, Sloan's
priority heap, and the CSR matvec under Lanczos/RQI — and each of those hot
sites asks this registry which implementation to run:

* ``numpy`` — the production paths (always available, the default):
  compiled scipy BFS and whole-level array operations, and for the GPS/GK
  and Sloan numbering loops, heaps over Python lists.  The registry signals
  it by returning *no* kernel, so the call site falls through to its own
  code.
* ``python`` — the loop-form kernels of :mod:`repro.backends.kernels`,
  interpreted.  Slow; these vertex-at-a-time loops are the reference every
  production path is tested against, and the exact code numba compiles.
* ``numba`` — the same kernels JIT-compiled
  (:mod:`repro.backends.numba_backend`).  Optional and explicit: when numba
  is absent an inherited request falls back to numpy and the fallback is
  recorded, so artifacts and ``/statsz`` can report it.

The requested tier comes from :func:`set_backend` (the ``--backend`` CLI
flag), else the ``REPRO_BACKEND`` environment variable (exported by the CLI
so pool workers inherit it), else ``numpy``.

Identity guarantee: every backend returns bit-identical results — orderings
are integer algorithms with replicated tie-breaking, and the compiled CSR
matvec preserves scipy's summation order (no ``fastmath``).  The per-kernel
property tests and the differential sweep run against every available
backend.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.backends import kernels as _kernels
from repro.backends import numba_backend as _numba

__all__ = [
    "KERNELS",
    "BACKENDS",
    "BackendUnavailableError",
    "numba_available",
    "numba_versions",
    "available_backends",
    "normalize_backend",
    "set_backend",
    "requested_backend",
    "require_backend",
    "resolve_backend",
    "kernel_impl",
    "spmv_operator",
    "backend_status",
    "backend_summary",
    "backend_events",
    "reset_events",
]

#: Kernels the registry dispatches (hot sites in graph/orderings/eigen).
KERNELS = tuple(_kernels.LOOP_KERNELS)

#: Tiers accepted by ``--backend`` / ``REPRO_BACKEND``; the first is the default.
BACKENDS = ("numpy", "python", "numba")

_lock = threading.Lock()
_override: str | None = None
_events: dict = {}
_fallbacks: int = 0
_invalid_env: str | None = None


class BackendUnavailableError(RuntimeError):
    """An explicitly requested backend cannot run in this environment.

    Carries the failing ``backend``, a ``reason`` and the ``available``
    backend list so the CLI can exit 2 with a structured message.
    """

    def __init__(self, backend: str, reason: str):
        self.backend = backend
        self.reason = reason
        self.available = available_backends()
        self.message = (
            f"backend {backend!r} is unavailable: {reason}; "
            f"available backends: {', '.join(self.available)}"
        )
        super().__init__(self.message)

    def __str__(self) -> str:
        return self.message


def numba_available() -> bool:
    """True when the numba tier can compile (numba imports cleanly)."""
    return _numba.available()


def numba_versions() -> dict:
    """``{"numba": ..., "llvmlite": ...}`` when installed, else ``{}``."""
    return _numba.versions()


def available_backends() -> list[str]:
    """Backends that can actually run in this environment."""
    names = ["numpy", "python"]
    if numba_available():
        names.append("numba")
    return names


def normalize_backend(name: str) -> str:
    """Validate and canonicalize a requested backend name.

    Accepts any of ``numpy``, ``python``, ``numba`` (case-insensitive).
    Raises ``ValueError`` otherwise.
    """
    key = str(name).strip().lower()
    if key not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of: {', '.join(BACKENDS)}"
        )
    return key


def set_backend(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-level backend override.

    The override outranks ``REPRO_BACKEND``; the CLI also exports the
    environment variable so pool workers inherit the choice.
    """
    global _override
    _override = None if name is None else normalize_backend(name)


def requested_backend() -> str:
    """The effective request: override > ``REPRO_BACKEND`` env > ``numpy``.

    An unrecognized environment value is treated as ``numpy`` (and surfaced
    through :func:`backend_status`) rather than crashing worker processes.
    """
    global _invalid_env
    if _override is not None:
        return _override
    env = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if not env:
        return "numpy"
    if env in BACKENDS:
        return env
    _invalid_env = env
    return "numpy"


def require_backend(name: str) -> str:
    """Validate that an explicit request can run; raise otherwise.

    ``numba`` raises :class:`BackendUnavailableError` when numba is not
    importable — the CLI turns that into a structured exit 2.
    """
    key = normalize_backend(name)
    if key == "numba" and not numba_available():
        raise BackendUnavailableError(
            "numba", "the 'numba' package is not installed in this environment"
        )
    return key


def _record(kernel: str, choice: str, fallback: bool = False) -> None:
    global _fallbacks
    with _lock:
        key = (kernel, choice)
        _events[key] = _events.get(key, 0) + 1
        if fallback:
            _fallbacks += 1


def resolve_backend(kernel: str) -> str:
    """The backend tier that will serve one call of *kernel*.

    A request for ``numba`` without numba resolves to ``numpy`` (the
    fallback is counted; the CLI rejects the explicit flag up front).
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of: {', '.join(KERNELS)}")
    choice = requested_backend()
    fallback = choice == "numba" and not numba_available()
    if fallback:
        choice = "numpy"
    _record(kernel, choice, fallback)
    return choice


def kernel_impl(kernel: str):
    """The loop/compiled implementation serving one call, or ``None``.

    ``None`` means "use the production numpy path at the call site" — the
    hot sites do ``impl = kernel_impl(...); if impl is None: <numpy code>``.
    """
    choice = resolve_backend(kernel)
    if choice == "numpy":
        return None
    if choice == "python":
        return _kernels.LOOP_KERNELS[kernel]
    return _numba.compiled_kernels()[kernel]


def spmv_operator(matrix):
    """A backend matvec closure for a CSR float64 matrix, or ``None``.

    Returns ``None`` when the numpy tier is selected or the matrix is not a
    plain float64 CSR — callers keep their ``matrix @ v`` path.  The closure
    is bit-identical to scipy's matvec (same in-row summation order).
    """
    import scipy.sparse as sp

    if not (sp.issparse(matrix) and matrix.format == "csr" and matrix.dtype == np.float64):
        return None
    impl = kernel_impl("spmv")
    if impl is None:
        return None
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    nrows = int(matrix.shape[0])

    def matvec(v):
        vec = np.ascontiguousarray(v, dtype=np.float64)
        if vec.ndim != 1 or vec.shape[0] != nrows:
            return matrix @ v
        out = np.empty(nrows, dtype=np.float64)
        impl(indptr, indices, data, vec, out)
        return out

    return matvec


def backend_events() -> dict:
    """Per-``(kernel, backend)`` call counts since process start (or reset)."""
    with _lock:
        return {f"{kernel}:{choice}": count for (kernel, choice), count in sorted(_events.items())}


def reset_events() -> None:
    """Zero the event counters (test/bench hook)."""
    global _fallbacks, _invalid_env
    with _lock:
        _events.clear()
        _fallbacks = 0
        _invalid_env = None


def backend_status() -> dict:
    """Snapshot for artifacts and ``/statsz``.

    Keys: the effective ``requested`` backend, numba availability and
    versions, per-kernel dispatch counts, how many calls fell back from an
    unavailable explicit request, and any unrecognized ``REPRO_BACKEND``
    value that was ignored.
    """
    status = {
        "requested": requested_backend(),
        "available": available_backends(),
        "numba_available": numba_available(),
        "events": backend_events(),
        "fallbacks": _fallbacks,
    }
    status.update(numba_versions())
    if _invalid_env:
        status["ignored_invalid_env"] = _invalid_env
    return status


def backend_summary() -> dict:
    """Deterministic backend block for suite artifacts (full/timing form).

    Unlike :func:`backend_status`, this carries no call counters — the same
    run configuration always produces the same summary, so it can live in
    the timing section of a suite artifact without perturbing replays.
    ``fallback`` is true when ``numba`` was explicitly requested but the
    package is absent (every dispatch served numpy instead).
    """
    requested = requested_backend()
    summary = {
        "requested": requested,
        "numba_available": numba_available(),
        "fallback": requested == "numba" and not numba_available(),
    }
    summary.update(numba_versions())
    return summary
