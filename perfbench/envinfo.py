"""The environment block attached to every result.

CPU capacity is *measured*: the same zlib job runs alone and then as
two concurrent processes, and ``effective_cpus`` is how many of them
the host really runs at once.  ``nproc`` can overstate it on a shared
or throttled host.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

import numpy as np

#: The child's job: compress 1 MiB of seeded random bytes a fixed number
#: of times and print its own compute seconds (interpreter start-up is
#: excluded from the figure).
_ZLIB_JOB = (
    "import random, time, zlib\n"
    "data = random.Random(0).randbytes(1 << 20)\n"
    "start = time.perf_counter()\n"
    "for _ in range(8):\n"
    "    zlib.compress(data, 6)\n"
    "print(time.perf_counter() - start)\n"
)


def _job_seconds(count: int) -> list[float]:
    """Run ``count`` copies of the zlib job at once; their compute times."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _ZLIB_JOB],
            stdout=subprocess.PIPE, text=True,
        )
        for _ in range(count)
    ]
    times = []
    for proc in procs:
        out, _ = proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"zlib probe exited {proc.returncode}")
        times.append(float(out.strip()))
    return times


def cpu_capacity() -> tuple[float, float]:
    """``(effective_cpus, zlib_job_s)``: two-process zlib scaling (2.0 on
    two free cores, ~1.0 on one) and the job's time alone, a yardstick
    for the host's speed when the result was taken."""
    alone = _job_seconds(1)[0]
    paired = _job_seconds(2)
    return 2.0 * alone / (sum(paired) / len(paired)), alone


def histcore_backend() -> tuple[str, str]:
    """``("native" | "fallback", description)`` of the histogram kernel."""
    from repro.analysis.histcore import native_available, native_backend_description

    description = native_backend_description()
    if native_available():
        # The kernel's cache path says nothing about the backend itself.
        description = description.split(" (", 1)[0]
    return ("native" if native_available() else "fallback"), description


def environment() -> dict:
    """The environment block: measured CPU capacity, versions, backend."""
    backend, description = histcore_backend()
    cpus, zlib_job_s = cpu_capacity()
    return {
        "effective_cpus": round(cpus, 3),
        "zlib_job_s": round(zlib_job_s, 4),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "histcore_backend": backend,
        "histcore_description": description,
        "machine": platform.machine(),
    }


#: Keys that must match for two results to be compared like for like.
COMPARABLE_KEYS = ("histcore_backend", "python", "numpy", "machine")


def mismatches(env_a: dict, env_b: dict) -> list[str]:
    """Environment differences that make a comparison not like for like."""
    return [
        f"{key}: {env_a.get(key)!r} vs {env_b.get(key)!r}"
        for key in COMPARABLE_KEYS
        if env_a.get(key) != env_b.get(key)
    ]
