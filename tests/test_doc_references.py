"""Every file the documentation names exists.

The scan reads README.md, ``docs/*.md`` and every Python file under
``src/``, ``benchmarks/`` and ``examples/`` (docstrings and comments are the
only places such a file can name another).  It checks every ``*.md`` name
and every ``benchmarks/``, ``examples/`` or ``docs/`` path that ends in
``.py`` or ``.md``.  A name resolves against the repository root or the
directory of the file that cites it.  Harness outputs under
``benchmarks/results/`` are left out: the harnesses write them.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A relative file name: slash-separated segments of word characters, dots
# and dashes, not preceded by one (so URLs and absolute paths stay out).
NAME = re.compile(r"(?<![\w./-])[\w.-]+(?:/[\w.-]+)*\.(?:md|py)\b")
CHECKED_DIRS = ("benchmarks/", "examples/", "docs/")
HARNESS_OUTPUTS = "benchmarks/results/"


def _documents() -> list[Path]:
    python = [path for top in ("src", "benchmarks", "examples")
              for path in sorted((ROOT / top).rglob("*.py"))]
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")), *python]


def _cited(text: str) -> set[str]:
    return {
        name for name in NAME.findall(text)
        if (name.endswith(".md") or name.startswith(CHECKED_DIRS))
        and not name.startswith(HARNESS_OUTPUTS)
    }


def test_the_scan_finds_names():
    assert {"docs/running.md", "benchmarks/bench_fidelity.py"} <= _cited(
        (ROOT / "README.md").read_text(encoding="utf-8"))
    assert _cited("see https://example.org/notes.md, /abs/x.md, `bench_*.py`, "
                  "benchmarks/results/fidelity.md and examples/spy_figures.py") == {
        "examples/spy_figures.py"}


def test_every_cited_file_exists():
    missing = []
    for document in _documents():
        for name in sorted(_cited(document.read_text(encoding="utf-8"))):
            if not ((ROOT / name).exists() or (document.parent / name).exists()):
                missing.append(f"{document.relative_to(ROOT)}: {name}")
    assert not missing, "names of files that do not exist:\n" + "\n".join(missing)
