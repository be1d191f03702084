#!/usr/bin/env python
"""Seekable-container benchmark: footer opens vs scan opens vs full decode.

Measures, across container sizes:

* **open latency** — `ContainerFile` via the index footer (O(footer)),
  the same file with its footer stripped (fallback structural scan),
  and the in-memory `ContainerReader` (load + scan);
* **random range reads** — many small `read_range` calls through a
  footer-opened `ContainerFile` against the strict decompress-then-
  slice baseline;
* **skewed reads through a bounded cache** — `ContainerFile` with
  `cache_chunks = n_chunks // 4` serving reads whose chunk follows a
  seeded Zipf popularity: reads per second, and solver decodes per
  read (counted by a pass-through codec wrapper, so the figure means
  the same on any version of the reader).

Canonical invocation (records the repo's benchmark artifact)::

    PYTHONPATH=src python benchmarks/run_random_access.py --json BENCH_random_access.json

Results are wall-clock measurements: run on an idle machine, and do
not run the test suite concurrently.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from repro.core.metadata import ContainerHeader, locate_footer
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerFile, ContainerReader
from repro.datasets.synthetic import build_structured
from repro.testing.chaos import ChaosWrapper, chaos_codec

_CHUNK = 50_000
#: Zipf exponent of chunk popularity in the bounded-cache scenario.
_ZIPF = 1.6
#: Skewed reads per container: enough for the cache to reach its
#: steady state, so first touches do not dominate.
_SKEWED_READS_PER_CHUNK = 16


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_case(n_elements: int, repeats: int, n_reads: int,
                  seed: int, tmp: str) -> dict:
    rng = np.random.default_rng(seed)
    values = build_structured(n_elements, np.float64, 6, rng)
    config = IsobarConfig(chunk_elements=_CHUNK, sample_elements=2048)
    payload = IsobarCompressor(config).compress(values)
    footer_start = locate_footer(payload).start

    footered = os.path.join(tmp, f"footer_{n_elements}.isbr")
    stripped = os.path.join(tmp, f"scan_{n_elements}.isbr")
    with open(footered, "wb") as sink:
        sink.write(payload)
    with open(stripped, "wb") as sink:
        sink.write(payload[:footer_start])

    def open_footer():
        with ContainerFile(footered) as reader:
            assert reader.opened_via == "footer"

    def open_scan():
        with ContainerFile(stripped) as reader:
            assert reader.opened_via == "scan"

    def open_memory():
        ContainerReader(payload)

    row = {
        "n_elements": n_elements,
        "n_chunks": -(-n_elements // _CHUNK),
        "container_bytes": len(payload),
        "footer_bytes": len(payload) - footer_start,
        "open_footer_us": round(_best_of(repeats, open_footer) * 1e6, 1),
        "open_scan_us": round(_best_of(repeats, open_scan) * 1e6, 1),
        "open_memory_us": round(_best_of(repeats, open_memory) * 1e6, 1),
    }
    row["open_speedup_vs_scan"] = round(
        row["open_scan_us"] / row["open_footer_us"], 2
    )

    # Narrow windows — the checkpoint-inspection access pattern random
    # access exists for; wide spans degenerate to a full decode.
    window = 1_000
    starts = rng.integers(0, n_elements - window, size=n_reads)
    spans = [(int(a), int(a) + window) for a in starts]

    with ContainerFile(footered) as reader:
        start = time.perf_counter()
        for a, b in spans:
            reader.read_range(a, b)
        ranged = time.perf_counter() - start

    decoder = IsobarCompressor()
    start = time.perf_counter()
    restored = decoder.decompress(payload)
    for a, b in spans:
        restored[a:b]
    full = time.perf_counter() - start

    row.update(
        n_range_reads=n_reads,
        range_reads_ms=round(ranged * 1e3, 2),
        full_decode_then_slice_ms=round(full * 1e3, 2),
        range_speedup_vs_full=round(full / ranged, 2) if ranged else None,
    )
    row.update(_measure_skewed(footered, payload, row["n_chunks"], window,
                               rng))
    return row


def _measure_skewed(path: str, payload: bytes, n_chunks: int, window: int,
                    rng: np.random.Generator) -> dict:
    """Zipf-skewed reads through a cache holding a quarter of the chunks."""
    cache_chunks = n_chunks // 4
    ranking = rng.permutation(n_chunks)
    weights = 1.0 / np.arange(1, n_chunks + 1) ** _ZIPF
    popularity = np.empty(n_chunks)
    popularity[ranking] = weights / weights.sum()
    n_skewed = _SKEWED_READS_PER_CHUNK * n_chunks
    chunks = rng.choice(n_chunks, size=n_skewed, p=popularity)
    offsets = rng.integers(0, _CHUNK - window, size=n_skewed)
    spans = [
        (int(c) * _CHUNK + int(o), int(c) * _CHUNK + int(o) + window)
        for c, o in zip(chunks, offsets)
    ]
    header, _ = ContainerHeader.decode(payload)
    counter = ChaosWrapper(header.codec_name)
    with chaos_codec(counter), ContainerFile(
        path, cache_chunks=cache_chunks
    ) as reader:
        start = time.perf_counter()
        for a, b in spans:
            reader.read_range(a, b)
        elapsed = time.perf_counter() - start
    return {
        "skewed_cache_chunks": cache_chunks,
        "n_skewed_reads": n_skewed,
        "skewed_reads_per_s": round(n_skewed / elapsed, 1),
        "skewed_solver_decodes_per_read": round(counter.calls / n_skewed, 4),
    }


def run(n_sizes: list[int], repeats: int, n_reads: int, seed: int) -> dict:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n_elements in n_sizes:
            row = _measure_case(n_elements, repeats, n_reads, seed, tmp)
            rows.append(row)
            print(
                f"n={n_elements:<10d} open footer={row['open_footer_us']}us "
                f"scan={row['open_scan_us']}us "
                f"({row['open_speedup_vs_scan']}x)  "
                f"{n_reads} range reads={row['range_reads_ms']}ms vs "
                f"full decode={row['full_decode_then_slice_ms']}ms  "
                f"skewed cache={row['skewed_cache_chunks']}: "
                f"{row['skewed_reads_per_s']} reads/s, "
                f"{row['skewed_solver_decodes_per_read']} solver "
                "decodes/read",
                flush=True,
            )
    return {
        "benchmark": "random_access",
        "chunk_elements": _CHUNK,
        "seed": seed,
        "repeats": repeats,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", type=int,
                        default=[200_000, 800_000, 3_200_000],
                        help="container sizes in elements")
    parser.add_argument("--repeats", type=int, default=7,
                        help="open-latency repeats (best-of)")
    parser.add_argument("--reads", type=int, default=64,
                        help="random range reads per container")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result as JSON")
    args = parser.parse_args(argv)

    result = run(args.sizes, args.repeats, args.reads, args.seed)
    if args.json:
        with open(args.json, "w") as sink:
            json.dump(result, sink, indent=2)
            sink.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
