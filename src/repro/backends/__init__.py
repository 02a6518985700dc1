"""Per-kernel backend registry: production ``numpy`` and loop ``python``.

The combinatorial orderings are dominated by a handful of inner loops — BFS
level sweeps, the Cuthill-McKee queue, the GPS/GK level numbering and
Sloan's priority heap — and each of those hot sites asks this registry
which implementation to run:

* ``numpy`` — the production paths (the default): compiled scipy BFS and
  whole-level array operations, and for the GPS/GK and Sloan numbering
  loops, heaps over Python lists.  The registry signals it by returning
  *no* kernel, so the call site falls through to its own code.
* ``python`` — the loop-form kernels of :mod:`repro.backends.kernels`,
  interpreted.  Slow; these vertex-at-a-time loops are the reference every
  production path is tested against.

The requested tier comes from :func:`set_backend` (the ``--backend`` CLI
flag), else the ``REPRO_BACKEND`` environment variable (exported by the CLI
so pool workers inherit it), else ``numpy``.  An unrecognized environment
value (a retired tier name or a typo) is served as ``numpy`` and reported by
:func:`backend_summary`, rather than crashing worker processes.

Identity guarantee: both tiers return bit-identical orderings — they are
integer algorithms with replicated tie-breaking.  The per-kernel property
tests and the differential sweep pin it.
"""

from __future__ import annotations

import os
import threading

from repro.backends import kernels as _kernels

__all__ = [
    "KERNELS",
    "BACKENDS",
    "normalize_backend",
    "set_backend",
    "requested_backend",
    "kernel_impl",
    "backend_summary",
    "backend_events",
    "reset_events",
]

#: Kernels the registry dispatches (hot sites in graph/orderings).
KERNELS = tuple(_kernels.LOOP_KERNELS)

#: Tiers accepted by ``--backend`` / ``REPRO_BACKEND``; the first is the default.
BACKENDS = ("numpy", "python")

_lock = threading.Lock()
_override: str | None = None
_events: dict = {}


def normalize_backend(name: str) -> str:
    """Validate and canonicalize a requested backend name.

    Accepts ``numpy`` or ``python`` (case-insensitive).  Raises
    ``ValueError`` otherwise.
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


def _env_request() -> str:
    return os.environ.get("REPRO_BACKEND", "").strip().lower()


def requested_backend() -> str:
    """The effective request: override > ``REPRO_BACKEND`` env > ``numpy``.

    An unrecognized environment value is served as ``numpy``.
    """
    if _override is not None:
        return _override
    env = _env_request()
    return env if env in BACKENDS else "numpy"


def kernel_impl(kernel: str):
    """The loop kernel serving one call of *kernel*, or ``None``.

    ``None`` means "use the production numpy path at the call site" — the
    hot sites do ``impl = kernel_impl(...); if impl is None: <numpy code>``.
    Every call is counted per ``(kernel, tier)`` in :func:`backend_events`.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of: {', '.join(KERNELS)}")
    choice = requested_backend()
    with _lock:
        _events[kernel, choice] = _events.get((kernel, choice), 0) + 1
    return _kernels.LOOP_KERNELS[kernel] if choice == "python" else None


def backend_events() -> dict:
    """Per-``(kernel, backend)`` call counts since process start (or reset)."""
    with _lock:
        return {f"{kernel}:{choice}": count for (kernel, choice), count in sorted(_events.items())}


def reset_events() -> None:
    """Zero the event counters (test/bench hook)."""
    with _lock:
        _events.clear()


def backend_summary() -> dict:
    """The backend block of suite artifacts (timing form) and ``/statsz``.

    ``requested`` is the tier every dispatch serves; ``ignored_invalid_env``
    appears when an unrecognized ``REPRO_BACKEND`` value was served as
    ``numpy`` instead.  It carries no call counters, so the same run
    configuration always produces the same block.
    """
    summary = {"requested": requested_backend()}
    env = _env_request()
    if _override is None and env and env not in BACKENDS:
        summary["ignored_invalid_env"] = env
    return summary
