"""Make the benchmark's modules and the program importable."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
os.environ.setdefault("ISOBAR_NATIVE_CACHE", str(ROOT / ".perfbench" / "native"))
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
