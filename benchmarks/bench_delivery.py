"""Frontier overhead: envelope ingest against a direct push.

Standalone script (like ``bench_soak.py``) — run it directly:

    PYTHONPATH=src python benchmarks/bench_delivery.py            # full run
    PYTHONPATH=src python benchmarks/bench_delivery.py --quick    # CI smoke

One scenario, ``frontier-overhead``: the same clean, in-order feed pushed
directly into ``StreamingCAD`` and routed through an ``IngestFrontier`` as
one-reading-per-envelope deliveries.  The frontier's records must be
bit-identical and its per-envelope overhead is reported.  Records under
disordered, redelivered, skewed and late delivery, under both late
policies, are checked against the reference engine on generated cases by
``tests/test_oracle.py``.

Results go to ``BENCH_delivery.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core import CADConfig, StreamingCAD
from repro.ingest import FrontierConfig, IngestFrontier, envelopes_from_matrix
from repro.timeseries import MultivariateTimeSeries

from bench_soak import bare_run, identical, synthetic_values


def frontier_run(
    config: CADConfig,
    history: MultivariateTimeSeries,
    envelopes,
    frontier_config: FrontierConfig,
):
    """Unsupervised frontier loop: push envelopes, stream flushed rows."""
    frontier = IngestFrontier(frontier_config)
    stream = StreamingCAD(config, frontier_config.n_sensors)
    stream.warm_up(history)
    records = []
    start = time.perf_counter()
    for envelope in envelopes:
        frontier.push(envelope)
        while (row := frontier.pop_ready()) is not None:
            record = stream.push(row)
            if record is not None:
                records.append(record)
    for row in frontier.drain():
        record = stream.push(row)
        if record is not None:
            records.append(record)
    return records, time.perf_counter() - start, frontier


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke (seconds)")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--sensors", type=int, default=16)
    parser.add_argument("--window", type=int, default=64)
    parser.add_argument("--step", type=int, default=4)
    parser.add_argument("--horizon", type=int, default=16)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_delivery.json"), help="output JSON path"
    )
    args = parser.parse_args()
    rounds = args.rounds if args.rounds is not None else (300 if args.quick else 2000)

    window, step, n = args.window, args.step, args.sensors
    horizon = args.horizon
    live_length = window + (rounds - 1) * step
    values = synthetic_values(n, 4 * window + live_length, seed=args.seed)
    history = MultivariateTimeSeries(values[:, : 4 * window])
    live = values[:, 4 * window :]
    config = CADConfig(window=window, step=step, allow_missing=True, engine="fast")
    clean_envelopes = list(envelopes_from_matrix(live))
    failures = []
    results: dict[str, dict] = {}

    base_records, base_seconds = bare_run(config, history, live)
    clean_config = FrontierConfig(n_sensors=n, disorder_horizon=horizon)
    clean_records, clean_seconds, clean_frontier = frontier_run(
        config, history, clean_envelopes, clean_config
    )
    clean_identical = identical(base_records, clean_records)
    if not clean_identical:
        failures.append(
            "frontier-overhead: clean-delivery records diverged from direct push"
        )
    stats = clean_frontier.stats()
    if stats.reordered or stats.deduped or stats.late_dropped or stats.rows_dropped:
        failures.append("frontier-overhead: clean delivery tripped fault counters")
    # Wall time includes per-envelope python dispatch; indicative only —
    # correctness (bit-identity) is the gate, like bench_soak's overhead.
    overhead = clean_seconds / base_seconds - 1.0
    per_envelope_us = 1e6 * clean_seconds / max(1, len(clean_envelopes))
    print(
        f"frontier-overhead {len(clean_records)} rounds  direct {base_seconds:6.2f}s  "
        f"frontier {clean_seconds:6.2f}s  {per_envelope_us:5.1f}us/envelope  "
        f"identical={clean_identical}"
    )
    results["frontier_overhead"] = {
        "rounds": len(clean_records),
        "envelopes": len(clean_envelopes),
        "direct_seconds": round(base_seconds, 3),
        "frontier_seconds": round(clean_seconds, 3),
        "overhead_fraction": round(overhead, 4),
        "per_envelope_us": round(per_envelope_us, 2),
        "records_identical": clean_identical,
    }

    payload = {
        "benchmark": "delivery_soak",
        "quick": args.quick,
        "config": {
            "rounds": rounds,
            "sensors": n,
            "window": window,
            "step": step,
            "horizon": horizon,
            "seed": args.seed,
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "results": results,
        "failures": failures,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("delivery OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
