"""Disk-backed, content-addressed artifact cache (the ``repro.store`` core).

An :class:`ArtifactStore` holds npz containers keyed by **content address**:
``sha256(kind | builder version | pattern digest | canonical params)``.  The
address pins everything that determines an artifact's bytes — the structure
it was derived from, which builder produced it and with which parameters —
so an entry can never be served for the wrong input, and bumping a builder's
version constant invalidates exactly that builder's entries (they simply
stop being addressed; ``repro cache clear`` reclaims the space).

Durability contract
-------------------
* Writes go through :func:`repro.utils.atomic.atomic_output_file`
  (write-tempfile-then-``os.replace``), so a run killed mid-write can never
  leave a truncated entry under a valid address — at worst a ``*.tmp*``
  droppings file that readers ignore.
* Reads schema-check every entry (npz integrity, metadata presence, and a
  full address match) and treat **anything** unexpected — a corrupt zip, a
  hand-truncated file, a stale schema, an address collision — as a cache
  miss, deleting the bad entry best-effort.  A store directory can therefore
  be shared, killed into, bit-rotted or version-skewed and the worst case is
  always "rebuild from scratch", never a crash.

The store itself is format-agnostic (it moves dictionaries of numpy arrays
plus a JSON metadata blob); the codecs of the three stored kinds — registry
patterns, coarsening hierarchies and converged Fiedler vectors — live in
:mod:`repro.store.spectral`.  Only artifacts whose entries show a measured
end-to-end gain, weighed against their write cost, are stored: Laplacians,
component labels and component splits showed none and stay in memory.

Process-wide default
--------------------
:func:`get_default_store` resolves the ambient store: an explicit
:func:`set_default_store` override first, else the ``REPRO_STORE``
environment variable (which child worker processes inherit — that is how one
``--store DIR`` flag reaches every suite worker).  The per-worker problem
cache, the hierarchy memo and the Fiedler solve consult it lazily, so a run
without a store configured pays one ``os.environ`` lookup and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import os
from io import BytesIO
from pathlib import Path

import numpy as np

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ArtifactStore",
    "canonical_params",
    "get_default_store",
    "set_default_store",
]

#: Version of the npz container layout (the ``__meta__`` schema).  Bumping it
#: invalidates every existing entry at once.
STORE_SCHEMA_VERSION = 1

_META_KEY = "__meta__"

#: Sentinel meaning "no explicit override installed" (``None`` is a valid
#: override meaning "store disabled even if REPRO_STORE is set").
_UNSET = object()

_default_override = _UNSET
_stores_by_root: dict[str, "ArtifactStore"] = {}


def canonical_params(params: dict) -> str:
    """Stable JSON text of a parameter dictionary (sorted keys, no spaces).

    Raises :class:`TypeError` for non-JSON-serializable values — callers that
    cannot canonicalize their parameters must skip the store rather than
    guess an address.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


class ArtifactStore:
    """One cache directory of content-addressed npz artifact containers.

    Entries live under ``<root>/objects/<key[:2]>/<key>.npz``; the two-level
    fan-out keeps directory listings sane for large stores.  ``stats`` counts
    this process's traffic (hits / misses / writes / corrupt evictions) — the
    CLI prints it after a store-enabled run and tests assert on it.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.stats = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
                      "quarantined": 0}

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved for post-mortem inspection."""
        return self.root / "quarantine"

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #
    def key(self, kind: str, builder_version: int, pattern_digest: str,
            params: dict | None = None) -> str:
        """Content address of one artifact (hex sha256)."""
        payload = "\x1f".join([
            str(STORE_SCHEMA_VERSION), str(kind), str(int(builder_version)),
            str(pattern_digest), canonical_params(params or {}),
        ])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------ #
    # read / write
    # ------------------------------------------------------------------ #
    def save(self, kind: str, builder_version: int, pattern_digest: str,
             arrays: dict, params: dict | None = None) -> Path:
        """Atomically persist one artifact; returns the entry path.

        ``arrays`` maps names to numpy arrays (numeric or unicode dtypes —
        never object arrays; entries are read back with
        ``allow_pickle=False`` so a poisoned store cannot execute code).
        """
        key = self.key(kind, builder_version, pattern_digest, params)
        meta = {
            "store_schema": STORE_SCHEMA_VERSION,
            "kind": str(kind),
            "builder_version": int(builder_version),
            "pattern_digest": str(pattern_digest),
            "params": canonical_params(params or {}),
        }
        path = self.path_for(key)
        from repro.utils.atomic import atomic_output_file

        with atomic_output_file(path, suffix=".npz") as tmp:
            with open(tmp, "wb") as handle:
                np.savez_compressed(
                    handle, **{_META_KEY: np.array(json.dumps(meta))}, **arrays
                )
        self.stats["writes"] += 1
        self._maybe_injure(path, key)
        return path

    @staticmethod
    def _maybe_injure(path: Path, key: str) -> None:
        """Fault-injection hook: damage a just-written entry when a
        ``store.torn`` / ``store.corrupt`` rule fires (no-op otherwise).

        Damage lands *after* the atomic replace — simulating bit rot or a
        torn device write below the filesystem's durability promises, which
        the read path must absorb as a miss + quarantine.
        """
        from repro import faults

        try:
            if faults.fires("store.torn", key) is not None:
                data = path.read_bytes()
                path.write_bytes(data[: len(data) // 2])
            elif faults.fires("store.corrupt", key) is not None:
                data = bytearray(path.read_bytes())
                if data:
                    data[len(data) // 2] ^= 0xFF
                    path.write_bytes(bytes(data))
        except OSError:  # pragma: no cover - injury failing is a non-event
            pass

    def load(self, kind: str, builder_version: int, pattern_digest: str,
             params: dict | None = None) -> dict | None:
        """Load one artifact's arrays, or ``None`` on any kind of miss.

        A miss is: no entry, an unreadable/corrupt container (killed write,
        truncation, bit rot), a metadata mismatch (schema skew or — however
        unlikely — an address collision).  Corrupt-or-stale entries are
        deleted best-effort so they stop costing a read attempt.
        """
        key = self.key(kind, builder_version, pattern_digest, params)
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats["misses"] += 1
            return None
        try:
            with np.load(BytesIO(raw), allow_pickle=False) as container:
                meta = json.loads(str(container[_META_KEY][()]))
                arrays = {name: container[name] for name in container.files
                          if name != _META_KEY}
        except Exception:
            # zipfile.BadZipFile, zlib.error, KeyError, json errors, numpy
            # format errors ... — every one of them means "not a usable
            # entry", and distinguishing them buys nothing.
            self._evict_corrupt(path)
            return None
        expected = {
            "store_schema": STORE_SCHEMA_VERSION,
            "kind": str(kind),
            "builder_version": int(builder_version),
            "pattern_digest": str(pattern_digest),
            "params": canonical_params(params or {}),
        }
        if meta != expected:
            self._evict_corrupt(path)
            return None
        self.stats["hits"] += 1
        return arrays

    def _evict_corrupt(self, path: Path) -> None:
        """Remove a corrupt/stale entry from the addressable space.

        The entry is *quarantined* — moved to ``<root>/quarantine/`` — not
        deleted, so the evidence of bit rot, torn writes or version skew
        survives for inspection (``repro cache info`` counts it; ``repro
        cache clear --quarantine`` reclaims it).  Either way the entry stops
        being addressable, so the caller's "corrupt is a miss" contract is
        unchanged.  Falls back to deletion when the move itself fails.
        """
        self.stats["corrupt"] += 1
        self.stats["misses"] += 1
        target = self.quarantine_dir / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            self.stats["quarantined"] += 1
        except OSError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing eviction is fine
                pass

    def quarantined_entries(self) -> list[Path]:
        """Paths of quarantined (corrupt, no longer addressable) entries."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(p for p in self.quarantine_dir.iterdir() if p.is_file())

    # ------------------------------------------------------------------ #
    # maintenance (the ``repro cache`` surface)
    # ------------------------------------------------------------------ #
    def entries(self) -> list[dict]:
        """Metadata of every readable entry (corrupt ones reported as such).

        Each row carries ``key``, ``path``, ``bytes`` and — when the
        container is readable — its ``kind`` / ``builder_version`` /
        ``pattern_digest`` / ``params``; unreadable containers get
        ``kind="<corrupt>"`` so ``repro cache ls`` surfaces them instead of
        hiding them.
        """
        rows = []
        objects = self.root / "objects"
        for path in sorted(objects.glob("*/*.npz")) if objects.is_dir() else []:
            row = {"key": path.stem, "path": path,
                   "bytes": path.stat().st_size}
            try:
                with np.load(path, allow_pickle=False) as container:
                    meta = json.loads(str(container[_META_KEY][()]))
                row.update(
                    kind=meta.get("kind", "?"),
                    builder_version=meta.get("builder_version"),
                    pattern_digest=meta.get("pattern_digest", ""),
                    params=meta.get("params", "{}"),
                )
            except Exception:
                row.update(kind="<corrupt>", builder_version=None,
                           pattern_digest="", params="{}")
            rows.append(row)
        return rows

    def clear(self, include_quarantine: bool = False) -> int:
        """Delete every entry (and stray temp files); returns entries removed.

        Quarantined entries are *kept* by default — they are evidence of
        corruption, not cache state — and reclaimed only with
        ``include_quarantine=True`` (``repro cache clear --quarantine``).
        """
        removed = 0
        objects = self.root / "objects"
        if objects.is_dir():
            for path in objects.glob("*/*"):
                is_entry = path.suffix == ".npz" and not path.name.startswith(".")
                path.unlink(missing_ok=True)
                removed += int(is_entry)
        if include_quarantine:
            for path in self.quarantined_entries():
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def info(self) -> dict:
        """Aggregate view: per-kind entry counts/bytes plus this process's stats."""
        kinds: dict[str, dict] = {}
        total_bytes = 0
        count = 0
        for row in self.entries():
            bucket = kinds.setdefault(row["kind"], {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += row["bytes"]
            total_bytes += row["bytes"]
            count += 1
        quarantined = self.quarantined_entries()
        return {
            "root": str(self.root),
            "store_schema": STORE_SCHEMA_VERSION,
            "entries": count,
            "bytes": total_bytes,
            "kinds": kinds,
            "quarantine": {
                "entries": len(quarantined),
                "bytes": sum(p.stat().st_size for p in quarantined),
            },
            "process_stats": dict(self.stats),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"ArtifactStore(root={str(self.root)!r})"


def _store_for(root) -> ArtifactStore:
    """One :class:`ArtifactStore` per resolved root, so stats accumulate."""
    resolved = str(Path(root).expanduser().resolve())
    store = _stores_by_root.get(resolved)
    if store is None:
        store = _stores_by_root[resolved] = ArtifactStore(resolved)
    return store


def set_default_store(store) -> None:
    """Install (or clear) the process-wide default store.

    Accepts an :class:`ArtifactStore`, a directory path, or ``None`` to
    disable the store even when ``REPRO_STORE`` is set.  Pass the module's
    :data:`UNSET` sentinel — via :func:`reset_default_store` — to drop the
    override and fall back to the environment.
    """
    global _default_override
    if store is None or isinstance(store, ArtifactStore):
        _default_override = store
    else:
        _default_override = _store_for(store)


def reset_default_store() -> None:
    """Remove any :func:`set_default_store` override (tests / REPL hygiene)."""
    global _default_override
    _default_override = _UNSET


def get_default_store() -> ArtifactStore | None:
    """The ambient store: explicit override first, else ``REPRO_STORE``."""
    if _default_override is not _UNSET:
        return _default_override
    root = os.environ.get("REPRO_STORE", "").strip()
    if not root:
        return None
    return _store_for(root)
