"""Optional numba tier: JIT compilation of :mod:`repro.backends.kernels`.

numba is an optional dependency — the container images and the numpy-only CI
lane do not ship it.  Everything here is import-gated: :func:`available`
probes once per process, :func:`compiled_kernels` compiles lazily on first
use, and a missing (or broken) numba simply reports unavailable so the
registry falls back to the numpy tier.

The kernels are compiled with ``cache=True`` (compile once per interpreter /
on-disk cache across processes) and **without** ``fastmath``: the identity
guarantee of the backend registry depends on LLVM not reassociating the
floating-point sums in :func:`repro.backends.kernels.csr_matvec_kernel`.
"""

from __future__ import annotations

from repro.backends import kernels as _kernels

__all__ = ["available", "versions", "compiled_kernels"]

_PROBED: bool | None = None
_COMPILED: dict | None = None


def available() -> bool:
    """True when numba imports cleanly (probed once per process)."""
    global _PROBED
    if _PROBED is None:
        try:
            import numba  # noqa: F401

            _PROBED = True
        except Exception:
            _PROBED = False
    return _PROBED


def versions() -> dict:
    """``{"numba": ..., "llvmlite": ...}`` when available, else ``{}``."""
    if not available():
        return {}
    out: dict = {}
    try:
        import numba

        out["numba"] = getattr(numba, "__version__", "unknown")
    except Exception:  # pragma: no cover - available() just succeeded
        return {}
    try:
        import llvmlite

        out["llvmlite"] = getattr(llvmlite, "__version__", "unknown")
    except Exception:  # pragma: no cover - ships with numba
        out["llvmlite"] = "unknown"
    return out


def compiled_kernels() -> dict:
    """Name → JIT-compiled kernel.  Raises ``ImportError`` when numba is absent."""
    global _COMPILED
    if _COMPILED is None:
        import numba

        jit = numba.njit(cache=True, fastmath=False)
        _COMPILED = {name: jit(func) for name, func in _kernels.LOOP_KERNELS.items()}
    return _COMPILED


def _reset_for_tests() -> None:
    """Forget the probe/compile caches (test hook)."""
    global _PROBED, _COMPILED
    _PROBED = None
    _COMPILED = None
