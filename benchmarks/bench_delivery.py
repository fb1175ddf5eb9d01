"""Delivery-chaos soak for the ingest frontier.

Standalone script (like ``bench_soak.py``) — run it directly:

    PYTHONPATH=src python benchmarks/bench_delivery.py            # full soak
    PYTHONPATH=src python benchmarks/bench_delivery.py --quick    # CI smoke

Three scenarios, one shared synthetic feed:

``frontier-overhead``
    The same clean, in-order feed pushed directly into ``StreamingCAD``
    and routed through an ``IngestFrontier`` as one-reading-per-envelope
    deliveries.  The frontier's records must be bit-identical and its
    per-envelope overhead is reported.
``delivery-chaos``
    A seeded :class:`repro.ingest.DeliveryChaosModel` shuffles delivery
    within the frontier's disorder horizon, redelivers a slice of
    envelopes (some far beyond the horizon) and skews every producer
    clock — under a supervised stream with checkpoints enabled.  The
    frontier must absorb all of it: the emitted ``RoundRecord`` sequence
    must be **bit-identical** to the fault-free run, and the health
    counters must show the chaos actually fired (reordered, deduped and
    late-dropped all nonzero — late drops are redelivered copies whose
    original already landed, so no data is lost).
``late-data``
    Delivery delays deliberately exceed the horizon, so real readings
    miss their flush — the one fault class the frontier cannot hide.
    Quantifies the two late policies: ``nan_patch`` preserves the round
    grid and degrades (NaN cells into degraded-data masking), ``drop``
    skips incomplete rows and shifts the grid.

Results go to ``BENCH_delivery.json``; the chaos scenario's final
``HealthSnapshot`` goes to ``BENCH_delivery_health.json`` (both uploaded
as CI artifacts by the delivery-chaos job).
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import CADConfig, StreamingCAD
from repro.ingest import (
    DeliveryChaosModel,
    FrontierConfig,
    IngestFrontier,
    envelopes_from_matrix,
)
from repro.runtime import StreamSupervisor, SupervisorConfig, VirtualClock
from repro.timeseries import MultivariateTimeSeries

from bench_soak import bare_run, identical, stray_files, synthetic_values


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
    parser.add_argument(
        "--health-out",
        type=Path,
        default=Path("BENCH_delivery_health.json"),
        help="final HealthSnapshot of the delivery-chaos scenario",
    )
    args = parser.parse_args()
    rounds = args.rounds if args.rounds is not None else (300 if args.quick else 2000)
    checkpoint_every = 25 if args.quick else 100

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

    # ------------------------------------------------------------- #
    # Scenario 1: frontier overhead (clean in-order envelopes)
    # ------------------------------------------------------------- #
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

    # ------------------------------------------------------------- #
    # Scenario 2: delivery chaos under the supervisor (bit-identity)
    # ------------------------------------------------------------- #
    # Originals delayed at most `horizon` ticks always beat the flush;
    # redelivered copies may lag up to 4x the horizon, so a slice of them
    # arrives late and exercises the drop path with nothing to lose.
    chaos = DeliveryChaosModel(
        seed=args.seed,
        out_of_order_rate=0.25,
        max_disorder=horizon,
        redelivery_rate=0.05,
        redelivery_max_delay=4 * horizon,
        skew_magnitude=0.4,
    )
    delivered = chaos.deliver(clean_envelopes)
    chaos_frontier = IngestFrontier(
        FrontierConfig(
            n_sensors=n, disorder_horizon=horizon, skew=chaos.skews(n)
        )
    )
    with tempfile.TemporaryDirectory(prefix="repro-delivery-") as tmp:
        supervisor = StreamSupervisor(
            config,
            n,
            supervisor=SupervisorConfig(checkpoint_every=checkpoint_every),
            checkpoint_dir=Path(tmp),
            clock=VirtualClock(),
            frontier=chaos_frontier,
            resume=False,
        )
        supervisor.warm_up(history)
        start = time.perf_counter()
        chaos_records = supervisor.ingest_many(delivered)
        chaos_records.extend(supervisor.finish())
        chaos_seconds = time.perf_counter() - start
        health = supervisor.health()
        chaos_stray = stray_files(supervisor, Path(tmp))
    chaos_identical = identical(base_records, chaos_records)
    if not chaos_identical:
        failures.append(
            "delivery-chaos: records under chaotic delivery diverged from clean run"
        )
    if health.samples_reordered == 0:
        failures.append("delivery-chaos: nothing was reordered (soak proved nothing)")
    if health.samples_deduped == 0:
        failures.append("delivery-chaos: nothing was deduped (soak proved nothing)")
    if health.samples_late_dropped == 0:
        failures.append("delivery-chaos: nothing arrived late (soak proved nothing)")
    if chaos_stray:
        failures.append(f"delivery-chaos: {chaos_stray} stray checkpoint files")
    print(
        f"delivery-chaos    {len(chaos_records)} rounds in {chaos_seconds:6.2f}s  "
        f"delivered {len(delivered)}  reordered {health.samples_reordered}  "
        f"deduped {health.samples_deduped}  late {health.samples_late_dropped}  "
        f"stray {chaos_stray}  identical={chaos_identical}"
    )
    results["delivery_chaos"] = {
        "rounds": len(chaos_records),
        "seconds": round(chaos_seconds, 3),
        "envelopes_delivered": len(delivered),
        "records_identical": chaos_identical,
        "stray_files": chaos_stray,
        "health": health.to_dict(),
    }
    args.health_out.write_text(health.to_json() + "\n")

    # ------------------------------------------------------------- #
    # Scenario 3: late data beyond the horizon (policy comparison)
    # ------------------------------------------------------------- #
    late_chaos = DeliveryChaosModel(
        seed=args.seed + 1,
        out_of_order_rate=0.10,
        max_disorder=3 * horizon,
    )
    late_delivered = late_chaos.deliver(clean_envelopes)
    policies: dict[str, dict] = {}
    for policy in ("nan_patch", "drop"):
        records, seconds, frontier = frontier_run(
            config,
            history,
            late_delivered,
            FrontierConfig(
                n_sensors=n, disorder_horizon=horizon, late_policy=policy
            ),
        )
        stats = frontier.stats()
        degraded = sum(
            1 for r in records if r.quality is not None and r.quality.degraded
        )
        policies[policy] = {
            "rounds": len(records),
            "seconds": round(seconds, 3),
            "late_dropped": stats.late_dropped,
            "cells_nan_patched": stats.nan_patched,
            "rows_dropped": stats.rows_dropped,
            "rows_emitted": stats.rows_emitted,
            "degraded_rounds": degraded,
        }
        print(
            f"late-data/{policy:9s} {len(records)} rounds  "
            f"late {stats.late_dropped}  patched {stats.nan_patched}  "
            f"rows dropped {stats.rows_dropped}  degraded rounds {degraded}"
        )
    if policies["nan_patch"]["cells_nan_patched"] == 0:
        failures.append("late-data: nan_patch never patched a cell")
    if policies["nan_patch"]["rows_emitted"] != live.shape[1]:
        failures.append("late-data: nan_patch did not preserve the round grid")
    if policies["drop"]["rows_dropped"] == 0:
        failures.append("late-data: drop never dropped a row")
    if policies["drop"]["rows_emitted"] >= policies["nan_patch"]["rows_emitted"]:
        failures.append("late-data: drop emitted no fewer rows than nan_patch")
    results["late_data"] = {
        "max_disorder": 3 * horizon,
        "horizon": horizon,
        "policies": policies,
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
            "checkpoint_every": checkpoint_every,
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
    print(f"wrote {args.out} and {args.health_out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("delivery soak OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
