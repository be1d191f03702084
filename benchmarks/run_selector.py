#!/usr/bin/env python
"""Selector benchmark: predict-first decisions vs the EUPA timing probe.

For every dataset in the registry, measures three decision paths on
identical inputs and an identical candidate space:

* **probe** — ``EupaSelector.select``: the paper's oracle, which times
  every (codec, linearization) candidate on the sample;
* **predict** — ``LearnedSelector.select`` after warm-up: the online
  regressor decides from content features without any timing;
* **cached** — ``CachedSelector.select`` on a warm cache: the decision
  replays from the LRU + TTL map.

and the **ratio regret** of the learned choice against the probed
oracle: ``(best_measured_ratio - chosen_measured_ratio) / best``.

A second, **mixed-size** scenario trains a fresh learned selector on
16 consecutive 2048-element chunks of each dataset and then asks it
about a 40 000-element body of the same dataset — the shape of a
service that sees small and large requests — and reports the regret of
that decision against the probed oracle.

Acceptance gates (see ROADMAP): predict- and cache-path decision
latency >= 5x below the probe, mean regret <= 5 %, mixed-size mean
regret <= 1 %.

Canonical invocation (records the repo's benchmark artifact)::

    PYTHONPATH=src python benchmarks/run_selector.py --json BENCH_selector.json

``--smoke`` runs three datasets at reduced size for the checks gate.
Results are wall-clock measurements: run on an idle machine, and do
not run the test suite concurrently.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro.core.preferences import IsobarConfig
from repro.core.selector import EupaSelector
from repro.core.selector_learned import (
    CachedSelector,
    LearnedSelector,
    OnlineRatioModel,
    SelectorDecisionCache,
)
from repro.datasets import dataset_names, generate_dataset

_SMOKE_DATASETS = ("gts_phi_l", "msg_bt", "obs_error")

#: Mixed-size scenario: training chunks, their size, and the query size.
MIXED_TRAIN_CHUNKS = 16
MIXED_TRAIN_ELEMENTS = 2048
MIXED_QUERY_ELEMENTS = 40_000


def _best_of(repeats: int, fn) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _measure_dataset(
    name: str, n_elements: int, repeats: int, seed: int, config: IsobarConfig
) -> dict:
    values = generate_dataset(name, n_elements=n_elements, seed=seed)

    # Fresh model and cache per dataset: the benchmark reports cold
    # warm-up behaviour, not whatever earlier datasets taught the
    # process-wide singletons.
    model = OnlineRatioModel()
    learned = LearnedSelector(config, model=model)
    cache = SelectorDecisionCache()
    cached = CachedSelector(config, cache=cache, inner=learned)

    probe_seconds, oracle = _best_of(
        repeats, lambda: EupaSelector(config).select(values)
    )
    measured = {
        (c.codec_name, c.linearization): c.ratio for c in oracle.candidates
    }

    # Warm-up: probes on the same seeded sample train the model until
    # the predict path engages (2 observations suffice by default, the
    # cap only guards against a pathological residual).
    warmups = 0
    while warmups < 6:
        decision = learned.select(values)
        warmups += 1
        if decision.origin == "predicted":
            break

    predict_seconds, predicted = _best_of(
        repeats, lambda: learned.select(values)
    )
    cached.select(values)  # populate the cache
    cached_seconds, replayed = _best_of(
        repeats, lambda: cached.select(values)
    )

    chosen = measured.get((predicted.codec_name, predicted.linearization))
    best = max(measured.values()) if measured else None
    regret = (
        max(0.0, (best - chosen) / best)
        if chosen is not None and best else None
    )

    row = {
        "dataset": name,
        "n_elements": n_elements,
        "warmup_probes": warmups,
        "probe_origin": oracle.origin,
        "predict_origin": predicted.origin,
        "cached_origin": replayed.origin,
        "probe_choice": f"{oracle.codec_name}+{oracle.linearization.value}",
        "predict_choice": (
            f"{predicted.codec_name}+{predicted.linearization.value}"
        ),
        "probe_ms": round(probe_seconds * 1e3, 3),
        "predict_ms": round(predict_seconds * 1e3, 3),
        "cached_ms": round(cached_seconds * 1e3, 3),
        "ratio_regret": round(regret, 5) if regret is not None else None,
    }
    row["predict_speedup"] = (
        round(probe_seconds / predict_seconds, 2) if predict_seconds else None
    )
    row["cached_speedup"] = (
        round(probe_seconds / cached_seconds, 2) if cached_seconds else None
    )
    return row


def _measure_mixed_size(name: str, seed: int, config: IsobarConfig) -> dict:
    values = generate_dataset(
        name, n_elements=MIXED_QUERY_ELEMENTS, seed=seed
    )
    learned = LearnedSelector(config, model=OnlineRatioModel())
    size = MIXED_TRAIN_ELEMENTS
    for i in range(MIXED_TRAIN_CHUNKS):
        learned.select(values[i * size:(i + 1) * size])
    decision = learned.select(values)
    oracle = EupaSelector(config).select(values)
    measured = {
        (c.codec_name, c.linearization): c.ratio for c in oracle.candidates
    }
    best = max(measured.values())
    chosen = measured[(decision.codec_name, decision.linearization)]
    return {
        "dataset": name,
        "query_origin": decision.origin,
        "probe_choice": f"{oracle.codec_name}+{oracle.linearization.value}",
        "query_choice": (
            f"{decision.codec_name}+{decision.linearization.value}"
        ),
        "ratio_regret": round(max(0.0, (best - chosen) / best), 5),
    }


def run(names: tuple[str, ...], n_elements: int, repeats: int,
        seed: int) -> dict:
    config = IsobarConfig(selector_seed=seed)
    rows = []
    for name in names:
        row = _measure_dataset(name, n_elements, repeats, seed, config)
        rows.append(row)
        print(
            f"{name:<14s} probe={row['probe_ms']:>8.3f}ms "
            f"predict={row['predict_ms']:>7.3f}ms "
            f"({row['predict_speedup']}x) "
            f"cached={row['cached_ms']:>7.3f}ms "
            f"({row['cached_speedup']}x)  "
            f"regret={row['ratio_regret']}  "
            f"[{row['probe_choice']} vs {row['predict_choice']}]",
            flush=True,
        )

    mixed_rows = [_measure_mixed_size(name, seed, config) for name in names]
    mixed_regrets = [r["ratio_regret"] for r in mixed_rows]
    mixed = {
        "train_chunks": MIXED_TRAIN_CHUNKS,
        "train_elements": MIXED_TRAIN_ELEMENTS,
        "query_elements": MIXED_QUERY_ELEMENTS,
        "rows": mixed_rows,
        "datasets": len(mixed_rows),
        "predicted": sum(
            1 for r in mixed_rows if r["query_origin"] == "predicted"
        ),
        "mean_ratio_regret": round(
            sum(mixed_regrets) / len(mixed_regrets), 5
        ),
        "max_ratio_regret": round(max(mixed_regrets), 5),
    }

    regrets = [r["ratio_regret"] for r in rows if r["ratio_regret"] is not None]
    predicted = [r for r in rows if r["predict_origin"] == "predicted"]
    summary = {
        "datasets": len(rows),
        "predicted_path_engaged": len(predicted),
        "mean_ratio_regret": (
            round(sum(regrets) / len(regrets), 5) if regrets else None
        ),
        "max_ratio_regret": round(max(regrets), 5) if regrets else None,
        "mean_predict_speedup": round(
            sum(r["predict_speedup"] for r in rows) / len(rows), 2
        ),
        "mean_cached_speedup": round(
            sum(r["cached_speedup"] for r in rows) / len(rows), 2
        ),
        "min_predict_speedup": min(r["predict_speedup"] for r in rows),
        "min_cached_speedup": min(r["cached_speedup"] for r in rows),
    }
    return {
        "benchmark": "selector",
        "seed": seed,
        "repeats": repeats,
        "n_elements": n_elements,
        "sample_elements": config.sample_elements,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "rows": rows,
        "summary": summary,
        "mixed_size": mixed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--elements", type=int, default=200_000,
                        help="elements per dataset")
    parser.add_argument("--repeats", type=int, default=5,
                        help="latency repeats (best-of)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="three datasets at reduced size (checks gate)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result as JSON")
    args = parser.parse_args(argv)

    names = _SMOKE_DATASETS if args.smoke else dataset_names()
    elements = min(args.elements, 60_000) if args.smoke else args.elements
    repeats = min(args.repeats, 3) if args.smoke else args.repeats
    result = run(names, elements, repeats, args.seed)

    summary = result["summary"]
    mixed = result["mixed_size"]
    print(
        f"mean regret={summary['mean_ratio_regret']} "
        f"mean predict speedup={summary['mean_predict_speedup']}x "
        f"mean cached speedup={summary['mean_cached_speedup']}x "
        f"mixed-size mean regret={mixed['mean_ratio_regret']} "
        f"({mixed['predicted']} of {mixed['datasets']} predicted)"
    )
    failures = []
    if summary["predicted_path_engaged"] != summary["datasets"]:
        failures.append(
            "predict path failed to engage on "
            f"{summary['datasets'] - summary['predicted_path_engaged']} "
            "dataset(s)"
        )
    if summary["mean_ratio_regret"] is None or (
        summary["mean_ratio_regret"] > 0.05
    ):
        failures.append(
            f"mean ratio regret {summary['mean_ratio_regret']} above 5%"
        )
    if not args.smoke and summary["mean_predict_speedup"] < 5.0:
        failures.append(
            f"mean predict speedup {summary['mean_predict_speedup']}x "
            "below the 5x gate"
        )
    if not args.smoke and summary["mean_cached_speedup"] < 5.0:
        failures.append(
            f"mean cached speedup {summary['mean_cached_speedup']}x "
            "below the 5x gate"
        )
    if mixed["mean_ratio_regret"] > 0.01:
        failures.append(
            f"mixed-size mean ratio regret {mixed['mean_ratio_regret']} "
            "above 1%"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)

    if args.json:
        with open(args.json, "w") as sink:
            json.dump(result, sink, indent=2)
            sink.write("\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
