"""Chaos/soak harness for the supervised streaming runtime.

Standalone script (like ``bench_perf.py``) — run it directly:

    PYTHONPATH=src python benchmarks/bench_soak.py            # 5k-round soak
    PYTHONPATH=src python benchmarks/bench_soak.py --quick    # CI smoke

Three scenarios, one shared synthetic feed:

``overhead``
    The same live feed through a bare ``StreamingCAD`` and through the
    supervisor with everything quiet (no chaos, no checkpoints).  The
    supervisor must stay within a few percent of the bare stream and its
    records must be bit-identical.
``process-chaos``
    Seeded mid-round crashes, watchdog-tripping stalls (virtual clock) and
    torn checkpoint generations, at rates that fire hundreds of times over
    the soak.  The supervisor must finish the stream purely through
    checkpoint restore + replay, and the emitted ``RoundRecord`` sequence
    must be **bit-identical** to the fault-free run — determinism survives
    recovery.
``sensor-flapping``
    A flapping sensor (NaN square wave via
    :func:`repro.datasets.faults.inject_sensor_flapping`) must trip its
    circuit breaker, sit quarantined through the flap, pass probation once
    the sensor heals, and re-close — while every round before the flap
    stays bit-identical to the fault-free run.  (Rounds at and after the
    flap legitimately differ: quarantine masks a sensor, and masking *is*
    a data change under degraded-data semantics.)

Results go to ``BENCH_soak.json``; the chaos scenario's final
``HealthSnapshot`` goes to ``BENCH_soak_health.json`` (uploaded as a CI
artifact by the chaos-soak job).
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import CADConfig, StreamingCAD
from repro.datasets import FaultModel
from repro.runtime import (
    BreakerPolicy,
    BreakerState,
    ChaosModel,
    RetryPolicy,
    StreamSupervisor,
    SupervisorConfig,
    VirtualClock,
)
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
    *,
    checkpoint_dir: Path | None = None,
    chaos: ChaosModel | None = None,
):
    supervisor = StreamSupervisor(
        config,
        live.shape[0],
        supervisor=sup_config,
        checkpoint_dir=checkpoint_dir,
        clock=VirtualClock(),
        chaos=chaos,
        resume=False,
    )
    supervisor.warm_up(history)
    start = time.perf_counter()
    records = supervisor.process_many(live)
    return records, time.perf_counter() - start, supervisor


def identical(a, b) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


_ARCHIVE_NAME = re.compile(r"^(ckpt-\d{10})\.npz$")


def stray_files(supervisor: StreamSupervisor, directory: Path) -> int:
    """Join the supervisor's checkpoint reclaim, then count the entries in
    ``directory`` other than live ``ckpt-<round>.npz/.json`` pairs."""
    assert supervisor.rotation is not None
    supervisor.rotation.join_reclaim()
    names = {entry.name for entry in directory.iterdir()}
    pairs = {
        match.group(1)
        for match in map(_ARCHIVE_NAME.match, names)
        if match is not None and match.group(1) + ".json" in names
    }
    return len(names) - 2 * len(pairs)


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
    parser.add_argument(
        "--health-out",
        type=Path,
        default=Path("BENCH_soak_health.json"),
        help="final HealthSnapshot of the chaos scenario",
    )
    args = parser.parse_args()
    rounds = args.rounds if args.rounds is not None else (300 if args.quick else 5000)
    checkpoint_every = 25 if args.quick else 100

    window, step, n = args.window, args.step, args.sensors
    live_length = window + (rounds - 1) * step
    values = synthetic_values(n, 4 * window + live_length, seed=args.seed)
    history = MultivariateTimeSeries(values[:, : 4 * window])
    live = values[:, 4 * window :]
    config = CADConfig(window=window, step=step, allow_missing=True, engine="fast")
    failures = []
    results: dict[str, dict] = {}

    # ------------------------------------------------------------- #
    # Scenario 1: overhead (quiet supervisor vs bare stream)
    # ------------------------------------------------------------- #
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
        quiet_records, seconds, _ = supervised_run(config, history, live, quiet)
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

    # ------------------------------------------------------------- #
    # Scenario 2: process chaos (crash / stall / torn checkpoints)
    # ------------------------------------------------------------- #
    chaos = ChaosModel(
        seed=args.seed,
        crash_rate=0.02,
        slow_rate=0.02,
        slow_seconds=2.0,
        corrupt_rate=0.2,
    )
    chaos_config = SupervisorConfig(
        retry=RetryPolicy(max_retries=6, base_delay=0.05, seed=args.seed),
        round_deadline=1.0,
        checkpoint_every=checkpoint_every,
        keep_checkpoints=3,
    )
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        chaos_records, chaos_seconds, supervisor = supervised_run(
            config,
            history,
            live,
            chaos_config,
            checkpoint_dir=Path(tmp),
            chaos=chaos,
        )
        health = supervisor.health()
        chaos_stray = stray_files(supervisor, Path(tmp))
    chaos_identical = identical(base_records, chaos_records)
    if not chaos_identical:
        failures.append("process-chaos: recovered records diverged from fault-free run")
    if health.crashes_recovered == 0 or health.slow_rounds == 0:
        failures.append("process-chaos: chaos model never fired (soak proved nothing)")
    if chaos_stray:
        failures.append(f"process-chaos: {chaos_stray} stray checkpoint files")
    print(
        f"process-chaos   {len(chaos_records)} rounds in {chaos_seconds:6.2f}s  "
        f"crashes {health.crashes_recovered}  slow {health.slow_rounds}  "
        f"retries {health.retries}  checkpoints {health.checkpoints_written}  "
        f"stray {chaos_stray}  identical={chaos_identical}"
    )
    results["process_chaos"] = {
        "rounds": len(chaos_records),
        "seconds": round(chaos_seconds, 3),
        "records_identical": chaos_identical,
        "stray_files": chaos_stray,
        "health": health.to_dict(),
    }
    args.health_out.write_text(health.to_json() + "\n")

    # ------------------------------------------------------------- #
    # Scenario 3: sensor flapping -> breaker quarantine lifecycle
    # ------------------------------------------------------------- #
    flap_sensor = 3
    flap_start = live_length // 3
    flap_stop = flap_start + 30 * step
    faults = FaultModel(
        flapping=((flap_sensor, flap_start, flap_stop, step, 0.75),),
        seed=args.seed,
    )
    flapped = faults.apply(live)
    breaker_policy = BreakerPolicy(
        failure_threshold=3, open_rounds=8, probation_rounds=4
    )
    flap_config = SupervisorConfig(
        breaker=breaker_policy, checkpoint_every=checkpoint_every
    )
    with tempfile.TemporaryDirectory(prefix="repro-soak-flap-") as tmp:
        flap_records, flap_seconds, flap_supervisor = supervised_run(
            config, history, flapped, flap_config, checkpoint_dir=Path(tmp)
        )
        flap_supervisor.rotation.join_reclaim()
    flap_health = flap_supervisor.health()
    breaker = flap_supervisor.breakers[flap_sensor]
    # Rounds whose window closed before the flap began saw untouched data.
    clean_prefix = sum(1 for r in base_records if r.stop <= flap_start)
    prefix_identical = identical(
        base_records[:clean_prefix], flap_records[:clean_prefix]
    )
    if not prefix_identical:
        failures.append("sensor-flapping: pre-flap rounds diverged from fault-free run")
    if flap_health.breaker_trips == 0:
        failures.append("sensor-flapping: breaker never tripped")
    if breaker.state is not BreakerState.CLOSED:
        failures.append(
            f"sensor-flapping: breaker stuck {breaker.state.value} after the flap healed"
        )
    if len(flap_records) != len(base_records):
        failures.append("sensor-flapping: stream did not complete every round")
    print(
        f"sensor-flapping {len(flap_records)} rounds in {flap_seconds:6.2f}s  "
        f"trips {flap_health.breaker_trips}  "
        f"final={breaker.state.value}  degraded {flap_health.degraded_rounds}  "
        f"prefix_identical={prefix_identical}"
    )
    results["sensor_flapping"] = {
        "rounds": len(flap_records),
        "seconds": round(flap_seconds, 3),
        "clean_prefix_rounds": clean_prefix,
        "prefix_identical": prefix_identical,
        "breaker_trips": flap_health.breaker_trips,
        "final_breaker_state": breaker.state.value,
        "health": flap_health.to_dict(),
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
    print("soak OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
