"""Supervision overhead: the supervised runtime against a bare stream.

Standalone script (like ``bench_perf.py``) — run it directly:

    PYTHONPATH=src python benchmarks/bench_soak.py            # 5k-round run
    PYTHONPATH=src python benchmarks/bench_soak.py --quick    # CI smoke

One scenario, ``overhead``: the same live feed through a bare
``StreamingCAD`` and through the supervisor with everything quiet (no
chaos, no checkpoints).  The supervisor's records must be bit-identical
to the bare stream's; its overhead is reported.  Records under crashes,
stalls, torn checkpoints and quarantine are checked against the reference
engine on generated cases by ``tests/test_oracle.py``.

Results go to ``BENCH_soak.json``.  The helpers here (synthetic feed,
timed bare run) are shared with ``bench_fleet.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core import CADConfig, StreamingCAD
from repro.runtime import StreamSupervisor, SupervisorConfig, VirtualClock
from repro.timeseries import MultivariateTimeSeries


def synthetic_values(n_sensors: int, t_total: int, seed: int = 11) -> np.ndarray:
    """Correlated sensors (shared sine drivers + noise), like bench_perf."""
    rng = np.random.default_rng(seed)
    t = np.arange(t_total)
    periods = rng.uniform(120.0, 400.0, 6)
    phases = rng.uniform(0.0, 6.0, 6)
    drivers = np.vstack(
        [np.sin(2.0 * np.pi * t / p + ph) for p, ph in zip(periods, phases)]
    )
    values = np.empty((n_sensors, t_total))
    for i in range(n_sensors):
        values[i] = (
            rng.uniform(0.8, 1.2) * drivers[i % len(drivers)]
            + 0.1 * rng.standard_normal(t_total)
        )
    return values


def bare_run(config: CADConfig, history: MultivariateTimeSeries, live: np.ndarray):
    """Unsupervised reference: per-sample push loop, timed."""
    stream = StreamingCAD(config, live.shape[0])
    stream.warm_up(history)
    records = []
    start = time.perf_counter()
    for column in live.T:
        record = stream.push(column)
        if record is not None:
            records.append(record)
    return records, time.perf_counter() - start


def supervised_run(
    config: CADConfig,
    history: MultivariateTimeSeries,
    live: np.ndarray,
    sup_config: SupervisorConfig,
):
    supervisor = StreamSupervisor(
        config, live.shape[0], supervisor=sup_config, clock=VirtualClock()
    )
    supervisor.warm_up(history)
    start = time.perf_counter()
    records = supervisor.process_many(live)
    return records, time.perf_counter() - start


def identical(a, b) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke (seconds)")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--sensors", type=int, default=16)
    parser.add_argument("--window", type=int, default=64)
    parser.add_argument("--step", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_soak.json"), help="output JSON path"
    )
    args = parser.parse_args()
    rounds = args.rounds if args.rounds is not None else (300 if args.quick else 5000)

    window, step, n = args.window, args.step, args.sensors
    live_length = window + (rounds - 1) * step
    values = synthetic_values(n, 4 * window + live_length, seed=args.seed)
    history = MultivariateTimeSeries(values[:, : 4 * window])
    live = values[:, 4 * window :]
    config = CADConfig(window=window, step=step, allow_missing=True, engine="fast")
    failures = []
    results: dict[str, dict] = {}

    # Min-of-repeats on both sides: single-run wall time jitters +/-20%
    # on small boxes, which would drown the effect being measured.  Even
    # so the number is indicative only — correctness (bit-identity) is
    # the gate; overhead is reported, not enforced, because scheduler
    # noise on shared CI boxes exceeds the effect size.
    repeats = 2 if args.quick else 3
    quiet = SupervisorConfig(checkpoint_every=0)
    base_seconds = quiet_seconds = float("inf")
    for _ in range(repeats):
        base_records, seconds = bare_run(config, history, live)
        base_seconds = min(base_seconds, seconds)
        quiet_records, seconds = supervised_run(config, history, live, quiet)
        quiet_seconds = min(quiet_seconds, seconds)
    overhead = quiet_seconds / base_seconds - 1.0
    quiet_identical = identical(base_records, quiet_records)
    if not quiet_identical:
        failures.append("overhead: quiet supervised records diverged from bare stream")
    print(
        f"overhead        {len(base_records)} rounds  bare {base_seconds:6.2f}s  "
        f"supervised {quiet_seconds:6.2f}s  overhead {100 * overhead:+5.1f}%  "
        f"identical={quiet_identical}"
    )
    results["overhead"] = {
        "rounds": len(base_records),
        "bare_seconds": round(base_seconds, 3),
        "supervised_seconds": round(quiet_seconds, 3),
        "overhead_fraction": round(overhead, 4),
        "records_identical": quiet_identical,
    }

    payload = {
        "benchmark": "supervised_soak",
        "quick": args.quick,
        "config": {
            "rounds": rounds,
            "sensors": n,
            "window": window,
            "step": step,
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
    print("soak OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
