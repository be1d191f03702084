"""Compare two saved benchmark results side by side.

    python3 perfbench/compare.py .perfbench/results/A.json .perfbench/results/B.json

Prints every metric of both results, the change from the first to the
second, and how fast the host ran the same zlib job for each.  Results
taken in different environments — another ``histcore`` backend (native
kernel vs numpy fallback), Python, numpy or machine — are flagged, and
the command then exits 1: such a comparison says more about the
environment than about the program.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from envinfo import mismatches  # noqa: E402


def compare(first: dict, second: dict) -> tuple[list[str], list[str]]:
    """Report lines and environment mismatches of two result documents."""
    lines = [
        f"{'metric':40s} {'first':>14s} {'second':>14s} {'change':>9s}",
    ]
    for name, entry in first["metrics"].items():
        other = second["metrics"].get(name)
        if other is None:
            lines.append(f"{name:40s} {entry['value']:14.6g} {'-':>14s}")
            continue
        base = entry["value"]
        change = (other["value"] - base) / base if base else float("nan")
        lines.append(
            f"{name:40s} {base:14.6g} {other['value']:14.6g} {change:+9.1%}"
        )
    return lines, mismatches(first["environment"], second["environment"])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    first, second = (json.loads(Path(p).read_text()) for p in argv)
    for doc in (first, second):
        print(f"{doc['workload']} seed {doc['seed']} trace {doc['trace']}: "
              f"{json.dumps(doc['environment'], sort_keys=True)}")
    speeds = [doc["environment"].get("zlib_job_s") for doc in (first, second)]
    if all(speeds):
        print(f"host speed: the same zlib job took {speeds[0]:.4f} s and "
              f"{speeds[1]:.4f} s ({speeds[1] / speeds[0] - 1:+.1%})")
    if first["workload"] != second["workload"]:
        print("FLAG: the results are of different workloads")
        return 1
    lines, different = compare(first, second)
    print("\n".join(lines))
    for item in different:
        print(f"FLAG: different environment, {item}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
