#!/usr/bin/env python
"""Load the compression service, with and without injected chaos.

Stands a real :class:`~repro.service.app.IsobarService` up on a
background thread, fires concurrent compress / decompress / salvage
traffic at it from worker threads, and reports what the resilience
machinery did about it::

    PYTHONPATH=src python benchmarks/run_service_load.py \
        --json BENCH_service.json

Two scenarios run by default:

* **baseline** — no faults.  The acceptance bar: every request
  answers 200/206, zero 5xx, zero sheds.
* **chaos** — wire-level faults (delays, mid-body stalls, truncated
  responses) *and* a flaky solver shadowing ``bzip2`` (the codec the
  selector picks for these bodies), against a deliberately small
  admission queue.  The bar changes shape: every
  request must still **terminate** with a documented status — 200
  (possibly degraded), 429 shed, 503, 504, or a detected transport
  failure (bucketed as the synthetic status 599) — and the report
  must account for sheds, degraded responses and injected faults.

Each request is a single raw attempt (client retries disabled) so the
histogram reflects what the *service* did, not what retries papered
over.  Latency is per-exchange wall clock; p50/p99 over the scenario.

The ``service``-marked pytest entry and ``run_all.py`` both reuse
:func:`run` in ``--smoke`` form.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow running straight from a checkout
    _SRC = Path(__file__).resolve().parents[1] / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.datasets.synthetic import build_structured
from repro.service.app import ServiceConfig, ServiceThread
from repro.service.chaos import NetworkChaos, NetworkChaosPolicy
from repro.service.client import ServiceClient
from repro.service.errors import ServiceUnavailableError
from repro.testing.chaos import FlakyCodec, chaos_codec

#: Synthetic status for requests that ended in a transport failure the
#: client *detected* (refused, reset, truncated chunked body).  Keeps
#: the "every request terminates with a documented status" ledger
#: closed under chaos.
TRANSPORT_FAILURE_STATUS = 599

#: Statuses the service contract documents (``docs/service.md``).
DOCUMENTED_STATUSES = frozenset(
    {200, 206, 400, 404, 405, 408, 413, 422, 429, 500, 503, 504,
     TRANSPORT_FAILURE_STATUS}
)


def _build_bodies(seed: int, n_bodies: int, elements: int) -> list[bytes]:
    """Distinct request bodies (chaos triggers key on content)."""
    rng = np.random.default_rng(seed)
    bodies = []
    for index in range(n_bodies):
        values = build_structured(
            elements + 17 * index, np.dtype(np.float64), 3, rng
        )
        bodies.append(np.ascontiguousarray(values).tobytes())
    return bodies


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples), q))


class _Ledger:
    """Thread-safe per-scenario accounting."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.wall_seconds = 0.0
        self.latencies_ms: list[float] = []
        self.status_counts: dict[int, int] = {}
        self.degraded = 0
        self.roundtrip_failures = 0

    def record(self, status: int, latency_ms: float,
               *, degraded: bool = False, roundtrip_ok: bool = True) -> None:
        with self.lock:
            self.latencies_ms.append(latency_ms)
            self.status_counts[status] = self.status_counts.get(status, 0) + 1
            if degraded:
                self.degraded += 1
            if not roundtrip_ok:
                self.roundtrip_failures += 1


def _worker(
    worker_id: int,
    host: str,
    port: int,
    bodies: list[bytes],
    containers: list[bytes],
    n_requests: int,
    ledger: _Ledger,
) -> None:
    client = ServiceClient(
        host, port, timeout_seconds=30.0, max_retries=0,
        jitter_seed=worker_id,
    )
    no_retry: frozenset[int] = frozenset()
    for i in range(n_requests):
        kind = ("compress", "compress", "decompress", "salvage")[i % 4]
        start = time.perf_counter()
        degraded = False
        roundtrip_ok = True
        try:
            if kind == "compress":
                body = bodies[(worker_id + i) % len(bodies)]
                response = client.request(
                    "POST", "/v1/compress", body,
                    {"X-Isobar-Dtype": "float64"}, retryable=no_retry,
                )
                status = response.status
                if status == 200:
                    degraded = response.header("x-isobar-degraded") is not None
            elif kind == "decompress":
                container = containers[(worker_id + i) % len(containers)]
                response = client.request(
                    "POST", "/v1/decompress", container, retryable=no_retry,
                )
                status = response.status
                if status == 200:
                    declared = response.header("x-isobar-elements")
                    roundtrip_ok = (
                        declared is not None
                        and len(response.body) == int(declared) * 8
                    )
            else:
                container = containers[(worker_id + i) % len(containers)]
                response = client.request(
                    "POST", "/v1/salvage?policy=skip", container,
                    retryable=no_retry,
                )
                status = response.status
        except ServiceUnavailableError:
            status = TRANSPORT_FAILURE_STATUS
        ledger.record(
            status, (time.perf_counter() - start) * 1000.0,
            degraded=degraded, roundtrip_ok=roundtrip_ok,
        )


def _run_scenario(
    *,
    name: str,
    chaos: NetworkChaos | None,
    flaky_percent: float,
    workers: int,
    requests_per_worker: int,
    bodies: list[bytes],
    config: ServiceConfig,
    verbose: bool,
) -> dict:
    # Containers for the decompress/salvage traffic, produced locally
    # so scenario setup cannot be wrecked by the injected faults.
    from repro.core.pipeline import IsobarCompressor

    local = IsobarCompressor(config.isobar)
    containers = [
        local.compress(np.frombuffer(body, dtype=np.float64))
        for body in bodies
    ]

    handle = ServiceThread(config, chaos=chaos)
    host, port = handle.start()
    ledger = _Ledger()
    try:
        seed_client = ServiceClient(host, port, max_retries=2)

        def _drive() -> None:
            threads = [
                threading.Thread(
                    target=_worker,
                    args=(wid, host, port, bodies, containers,
                          requests_per_worker, ledger),
                )
                for wid in range(workers)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            ledger.wall_seconds = time.perf_counter() - started

        if flaky_percent > 0:
            # Shadow the solver for the duration of the measured run;
            # the resilience layer degrades the doomed chunks and the
            # response stays 200 with X-Isobar-Degraded.
            with chaos_codec(FlakyCodec(
                "bzip2", fail_percent=flaky_percent, seed=1,
            )):
                _drive()
        else:
            _drive()

        stats = seed_client.stats()
    finally:
        handle.stop()

    total = len(ledger.latencies_ms)
    report = {
        "scenario": name,
        "requests": total,
        "workers": workers,
        "wall_seconds": round(ledger.wall_seconds, 3),
        "req_per_second": round(total / ledger.wall_seconds, 1)
        if ledger.wall_seconds else 0.0,
        "latency_ms": {
            "p50": round(_percentile(ledger.latencies_ms, 50), 2),
            "p99": round(_percentile(ledger.latencies_ms, 99), 2),
            "max": round(max(ledger.latencies_ms, default=0.0), 2),
        },
        "status_counts": {
            str(k): v for k, v in sorted(ledger.status_counts.items())
        },
        "shed": stats["shed"],
        "degraded_responses": stats["degraded_responses"],
        "degraded_seen_by_clients": ledger.degraded,
        "aborted_responses": stats["aborted_responses"],
        "roundtrip_failures": ledger.roundtrip_failures,
        "chaos_injected": chaos.counts() if chaos is not None else None,
    }
    if verbose:
        print(f"[{name}] {total} requests in {report['wall_seconds']}s "
              f"({report['req_per_second']} req/s), "
              f"p50 {report['latency_ms']['p50']}ms "
              f"p99 {report['latency_ms']['p99']}ms")
        print(f"[{name}] statuses {report['status_counts']}, "
              f"shed {report['shed']}, "
              f"degraded {report['degraded_responses']}, "
              f"aborted {report['aborted_responses']}")
    return report


def _verify(report: dict, *, chaos: bool) -> list[str]:
    """The acceptance assertions; returns human-readable violations."""
    problems = []
    statuses = {int(k) for k in report["status_counts"]}
    undocumented = statuses - DOCUMENTED_STATUSES
    if undocumented:
        problems.append(
            f"{report['scenario']}: undocumented statuses {undocumented}"
        )
    if report["roundtrip_failures"]:
        problems.append(
            f"{report['scenario']}: {report['roundtrip_failures']} "
            "decompress bodies did not match their declared element count"
        )
    if not chaos:
        bad = {s for s in statuses if s >= 500}
        if bad:
            problems.append(
                f"{report['scenario']}: 5xx with no chaos injected: "
                f"{sorted(bad)}"
            )
        if report["shed"]:
            problems.append(
                f"{report['scenario']}: shed {report['shed']} requests "
                "with no chaos and a generous queue"
            )
    return problems


def run(
    *,
    smoke: bool = False,
    seed: int = 0,
    verbose: bool = True,
) -> tuple[dict, list[str]]:
    """Both scenarios; returns ``(report, violations)``."""
    if smoke:
        workers, per_worker, n_bodies, elements = 4, 6, 4, 6_000
    else:
        workers, per_worker, n_bodies, elements = 8, 25, 8, 40_000
    bodies = _build_bodies(seed, n_bodies, elements)

    # Both scenarios serve the default compression config (cached
    # selector, default chunking): what the service actually runs.
    baseline_config = ServiceConfig(max_inflight=4, max_queue=64)
    baseline = _run_scenario(
        name="baseline", chaos=None, flaky_percent=0.0,
        workers=workers, requests_per_worker=per_worker,
        bodies=bodies, config=baseline_config, verbose=verbose,
    )

    chaos = NetworkChaos(NetworkChaosPolicy(
        seed=seed, delay_percent=25.0, delay_seconds=0.02,
        stall_percent=20.0, stall_seconds=0.05,
        truncate_percent=25.0,
    ))
    chaos_config = ServiceConfig(
        max_inflight=2, max_queue=3,  # small on purpose: force sheds
    )
    chaotic = _run_scenario(
        name="chaos", chaos=chaos, flaky_percent=20.0,
        workers=workers, requests_per_worker=per_worker,
        bodies=bodies, config=chaos_config, verbose=verbose,
    )

    violations = _verify(baseline, chaos=False) + _verify(chaotic, chaos=True)
    report = {
        "harness": "run_service_load",
        "smoke": smoke,
        "seed": seed,
        "scenarios": {"baseline": baseline, "chaos": chaotic},
        "documented_statuses": sorted(DOCUMENTED_STATUSES),
        "violations": violations,
    }
    return report, violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast pass (used by run_all / pytest)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the full report as JSON to PATH")
    args = parser.parse_args(argv)

    report, violations = run(smoke=args.smoke, seed=args.seed)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote report -> {args.json}")
    if violations:
        for problem in violations:
            print(f"VIOLATION: {problem}", file=sys.stderr)
        return 1
    print("service load: all acceptance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
