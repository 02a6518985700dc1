"""Put the benchmark's flat modules and the library on the import path.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent

for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
