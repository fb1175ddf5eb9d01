"""Multi-tenant fleet throughput, with identity against solo runs.

Standalone script (like ``bench_soak.py``) — run it directly:

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full run
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick    # CI smoke

One scenario, ``fleet-identity``: N tenants with distinct feeds (and two
*engine-check* tenants sharing one feed on different engines) streamed
through an N-tenant :class:`repro.fleet.FleetManager` with stage-A
offload.  Every tenant's records must be bit-identical to its solo
``bare_run``, and the two engine-check tenants must agree with each
other.  Aggregate fleet throughput is measured against the single-tenant
baseline; the >= 3x scaling gate is enforced only where the host has
enough cores to make scaling physically possible (recorded either way).
Tenants under crashes, cold kills with manifest resume, and delivery
chaos are checked against the reference engine on generated cases by
``tests/test_oracle.py``.

Results go to ``BENCH_fleet.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core import CADConfig
from repro.core.parallel import shutdown_worker_pool
from repro.fleet import FleetConfig, FleetManager, TenantSpec, anomaly_feed
from repro.timeseries import MultivariateTimeSeries

from bench_soak import bare_run, identical, synthetic_values


def tenant_feeds(tenants, n, t_total, window, seed):
    """Per-tenant (history, live) pairs from distinct synthetic seeds."""
    feeds = {}
    for i, tenant in enumerate(tenants):
        values = synthetic_values(n, t_total + 4 * window, seed + 17 * i)
        history = MultivariateTimeSeries(values[:, : 4 * window], allow_missing=True)
        feeds[tenant] = (history, values[:, 4 * window :])
    return feeds


def fleet_stream(manager, tenants, feeds):
    """Drive a fleet sample-by-sample; returns (records, seconds)."""
    t_total = feeds[tenants[0]][1].shape[1]
    records = []
    start = time.perf_counter()
    for index in range(t_total):
        for tenant in tenants:
            manager.submit(tenant, feeds[tenant][1][:, index])
        records.extend(manager.pump())
    records.extend(manager.finish())
    return records, time.perf_counter() - start


def split_by_tenant(records, tenants):
    by_tenant = {tenant: [] for tenant in tenants}
    for fleet_record in records:
        by_tenant[fleet_record.tenant].append(fleet_record.record)
    return by_tenant


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke (seconds)")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_fleet.json"), help="output JSON path"
    )
    args = parser.parse_args()

    if args.quick:
        n, window, step, rounds, n_tenants, jobs = 16, 64, 8, 60, 3, 2
    else:
        n, window, step, rounds, n_tenants, jobs = 32, 128, 8, 250, 8, 4
    t_total = window + step * (rounds - 1)
    shards = 16
    cpus = os.cpu_count() or 1

    failures: list[str] = []
    results: dict[str, dict] = {}

    def config(engine="fast"):
        return CADConfig(
            window=window, step=step, engine=engine, allow_missing=True
        )

    def spec(tenant, engine="fast"):
        return TenantSpec(tenant, config(engine), n)

    print(
        f"fleet: {n_tenants} tenants x {rounds} rounds  "
        f"n={n} w={window} s={step}  jobs={jobs} shards={shards}  cpus={cpus}"
    )

    tenants = [f"tenant-{i:02d}" for i in range(n_tenants)]
    feeds = tenant_feeds(tenants, n, t_total, window, args.seed)
    # Engine-check pair: same feed, different engines, must agree.
    eng_feed = tenant_feeds(["engcheck"], n, t_total, window, args.seed + 999)[
        "engcheck"
    ]
    eng_tenants = ["engcheck-fast", "engcheck-ref"]
    feeds.update({t: eng_feed for t in eng_tenants})

    oracles = {}
    solo_seconds = {}
    for tenant in tenants:
        oracles[tenant], solo_seconds[tenant] = bare_run(
            config(), feeds[tenant][0], feeds[tenant][1]
        )
    oracles["engcheck-fast"], _ = bare_run(config(), *eng_feed)
    oracles["engcheck-ref"], _ = bare_run(config("reference"), *eng_feed)

    all_tenants = tenants + eng_tenants
    manager = FleetManager(
        [spec(t) for t in tenants]
        + [spec("engcheck-fast"), spec("engcheck-ref", engine="reference")],
        fleet=FleetConfig(shards=shards, seed=args.seed, quantum=64, offload_jobs=jobs),
    )
    manager.warm_up({t: feeds[t][0] for t in all_tenants})
    records, fleet_seconds = fleet_stream(manager, all_tenants, feeds)
    by_tenant = split_by_tenant(records, all_tenants)

    per_tenant_identical = {
        tenant: identical(by_tenant[tenant], oracles[tenant])
        for tenant in all_tenants
    }
    identity_ok = all(per_tenant_identical.values())
    engine_identity = identical(by_tenant["engcheck-fast"], by_tenant["engcheck-ref"])
    if not identity_ok:
        broken = sorted(t for t, ok in per_tenant_identical.items() if not ok)
        failures.append(f"fleet-identity: tenants diverged from solo oracles: {broken}")
    if not engine_identity:
        failures.append("fleet-identity: fast and reference engines diverged in-fleet")

    total_rounds = sum(len(by_tenant[t]) for t in all_tenants)
    solo_total = sum(solo_seconds.values())
    single_rps = len(oracles[tenants[0]]) / max(solo_seconds[tenants[0]], 1e-9)
    aggregate_rps = total_rounds / max(fleet_seconds, 1e-9)
    speedup = aggregate_rps / max(single_rps, 1e-9)
    throughput_gate = (not args.quick) and cpus >= 8
    if throughput_gate and speedup < 3.0:
        failures.append(
            f"fleet-identity: aggregate throughput {speedup:.2f}x single-tenant, "
            "gate requires >= 3x at equal pool size"
        )
    health = manager.health()
    print(
        f"fleet-identity    {total_rounds} rounds in {fleet_seconds:6.2f}s  "
        f"(solo total {solo_total:6.2f}s)  aggregate {aggregate_rps:7.1f} r/s  "
        f"single {single_rps:7.1f} r/s  speedup {speedup:4.2f}x  "
        f"identical={identity_ok} engines={engine_identity}"
    )
    results["fleet_identity"] = {
        "tenants": len(all_tenants),
        "rounds_total": total_rounds,
        "seconds": round(fleet_seconds, 3),
        "solo_seconds_total": round(solo_total, 3),
        "records_identical": identity_ok,
        "engine_identity": engine_identity,
        "per_tenant_identical": per_tenant_identical,
        "aggregate_rounds_per_sec": round(aggregate_rps, 2),
        "single_rounds_per_sec": round(single_rps, 2),
        "speedup_vs_single": round(speedup, 3),
        "throughput_gate_enforced": throughput_gate,
        "offloaded_rounds": health.offloaded_rounds,
        "abnormal_feed": len(anomaly_feed(records)),
    }
    if health.offloaded_rounds == 0:
        failures.append("fleet-identity: no rounds were offloaded to the pool")

    shutdown_worker_pool()
    results["all_outputs_identical"] = bool(identity_ok and engine_identity)

    payload = {
        "benchmark": "fleet_soak",
        "quick": args.quick,
        "config": {
            "tenants": n_tenants,
            "rounds_per_tenant": rounds,
            "sensors": n,
            "window": window,
            "step": step,
            "shards": shards,
            "offload_jobs": jobs,
            "seed": args.seed,
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "cpus": cpus,
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
    print("fleet OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
