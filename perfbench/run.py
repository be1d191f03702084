"""The repository benchmark: four seeded workloads, one command.

    python3 perfbench/run.py --workload file_roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload untraced for half of ``--seconds``,
then replays exactly the same operations with per-layer spans, checks
that the traced run wrote byte-identical containers, and reports the
per-layer metrics and the tracing overhead.  Every operation's output
is checked; a wrong output makes the command exit non-zero.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Human-readable lines before it give every
metric with its unit and sample count, and the environment block.
Full results (and the spans of a traced run) are written under
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("compress_mb_s", "MB/s", "higher", 0.25),
    ("decompress_mb_s", "MB/s", "higher", 0.25),
    ("ratio", "x", "higher", 0.05),
    ("cpu_s_per_mb", "s/MB", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Span names a traced run's roots may carry, per workload: any other
#: root means a server-side span failed to join its request.
TRACE_ROOTS = {
    "file_roundtrip": {"cli.call"},
    "service_mixed": {"service.request"},
    "range_reads": {"random_access.open", "random_access.read"},
    "stream_checkpoint": {
        "stream.open", "stream.write", "stream.close", "stream.read",
    },
}

#: Largest tolerated gap between summed self times and root durations.
SELF_SUM_TOLERANCE = 0.05

MB = 1_000_000.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=sorted(TRACE_ROOTS) + ["all"],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare() -> None:
    """Keep every file the program writes inside the checkout, and make
    the program importable from its sources."""
    src = ROOT / "src"
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["ISOBAR_NATIVE_CACHE"] = str(STATE / "native")
    tempfile.tempdir = None
    sys.path.insert(0, str(src))


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(tally, setup_times: list[float]) -> dict:
    """The end-to-end metrics of one untraced run."""
    from spans import percentile

    ops = len(tally.op_ms)
    timed_bytes = tally.decompress_bytes
    if not tally.compress_in_setup:
        timed_bytes += tally.compress_bytes
    op_p50 = percentile(tally.op_ms, 50)
    if op_p50 is None:
        raise RuntimeError(f"too few samples for a p50: {ops} operations")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ops_per_s": _metric(ops / tally.wall_s, "1/s", ops),
        "op_p50_ms": _metric(op_p50, "ms", ops),
        "compress_mb_s": _metric(
            tally.compress_bytes / MB / tally.compress_s, "MB/s", tally.compress_ops
        ),
        "decompress_mb_s": _metric(
            tally.decompress_bytes / MB / tally.decompress_s, "MB/s",
            len(tally.decompress_ms),
        ),
        "ratio": _metric(
            tally.raw_bytes / tally.stored_bytes, "x", tally.containers
        ),
        "cpu_s_per_mb": _metric(
            (tally.cpu_s - tally.check_cpu_s) / (timed_bytes / MB), "s/MB", ops
        ),
        "peak_rss_mb": _metric(rss_mb, "MB", 1),
        "setup_s": _metric(
            statistics.median(setup_times), "s", len(setup_times)
        ),
    }


def tails(tally) -> dict:
    """Highest reportable tail percentile of each latency series."""
    from spans import tail_percentile

    out = {}
    for label, samples in (("op", tally.op_ms), ("decompress", tally.decompress_ms)):
        found = tail_percentile(samples)
        if found is not None:
            q, value = found
            out[f"{label}_p{q:g}_ms"] = _metric(value, "ms", len(samples))
    return out


def timed_run(workload, seconds: float) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    cpu_start = time.process_time()
    start = time.perf_counter()
    tally = workload.run(seconds=seconds, min_units=workload.min_units)
    tally.wall_s = time.perf_counter() - start
    tally.cpu_s = time.process_time() - cpu_start
    return {
        "tally": tally,
        "metrics": end_to_end(tally, setup_times),
        "tails": tails(tally),
        "checks": {},
    }


def traced_run(workload, seconds: float) -> dict:
    from layers import UNITS, layer_metrics, traced
    from spans import Tracer, roots

    workload.setup()
    start = time.perf_counter()
    plain = workload.run(seconds=seconds / 2)
    plain_wall = time.perf_counter() - start
    tracer = Tracer()
    with traced(tracer):
        start = time.perf_counter()
        tally = workload.run(units=plain.units, tracer=tracer)
        traced_wall = time.perf_counter() - start
    values = layer_metrics(
        tracer.spans,
        untraced_wall=plain_wall,
        traced_wall=traced_wall,
        overhead_bytes=tally.overhead_bytes,
        container_input_bytes=tally.raw_bytes,
    )
    stray = sorted(
        {s.name for s in roots(tracer.spans)} - TRACE_ROOTS[workload.name]
    )
    checks = {
        f"containers_identical ({len(tally.digests)} compared)": (
            plain.digests == tally.digests
        ),
        f"spans_joined (stray roots: {stray or 'none'})": not stray,
        "self_sum_within_tolerance": (
            abs(values["trace.self_sum_frac"] - 1.0) <= SELF_SUM_TOLERANCE
        ),
    }
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.errors = plain.errors + tally.errors
    metrics = {
        name: _metric(value, UNITS[name], len(tracer.spans))
        for name, value in values.items()
    }
    return {
        "tally": tally,
        "metrics": metrics,
        "tails": {},
        "checks": checks,
        "spans": tracer.spans,
    }


def _write_results(name: str, document: dict, spans) -> Path:
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}.json"
    path.write_text(json.dumps(document, indent=2, default=str) + "\n")
    if spans:
        with open(results / f"{name}-spans.jsonl", "w") as handle:
            for s in spans:
                handle.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "request": s.request,
                    "attrs": s.attrs,
                }) + "\n")
    return path


def run_one(args: argparse.Namespace) -> int:
    _prepare()
    from envinfo import environment
    from workloads import WORKLOADS

    env = environment()
    workdir = STATE / "work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](workdir, args.seed)
    try:
        if args.trace:
            outcome = traced_run(workload, args.seconds)
        else:
            outcome = timed_run(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    tally = outcome["tally"]
    correct = tally.failed == 0 and all(outcome["checks"].values())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "scale": workload.scale(),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "errors": tally.errors,
        "checks": outcome["checks"],
        "metrics": outcome["metrics"],
        "tails": outcome["tails"],
    }
    path = _write_results(name, document, outcome.get("spans"))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("scale " + json.dumps(document["scale"], sort_keys=True))
    for metric, entry in {**outcome["metrics"], **outcome["tails"]}.items():
        print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']:9s}"
              f" n={entry['samples']}")
    print(f"  {'failed_frac':40s} {document['failed_frac']:14.6g} "
          f"{'fraction':9s} n={tally.attempted}")
    for key, value in outcome["checks"].items():
        print(f"  check {key}: {value}")
    for error in tally.errors:
        print(f"  error: {error}")
    print(f"results {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in outcome["metrics"].items()
        },
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in sorted(TRACE_ROOTS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode})")
            summary["correct"] = False
            continue
        summary["correct"] &= bool(result["correct"]) and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{workload}.{metric}"] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
