"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered simulated datasets.
``generate --dataset NAME --out FILE``
    Materialise a dataset and save it as npz.
``detect --dataset NAME [--theta T] [--csv FILE]``
    Run CAD on a registered dataset (or a CSV exported with
    ``repro.datasets.export_csv``) and print the anomalies with root-cause
    rankings and DaE scores.  ``--allow-missing`` switches the detector into
    degraded-data mode (NaN readings tolerated, per-round data-quality
    report); ``--fault-rate R`` additionally corrupts the test feed with
    missing-at-random gaps to demo fault tolerance.
``compare --dataset NAME [--methods A,B,...]``
    Run several methods and print F1_PA / F1_DPA plus Ahead/Miss vs CAD.
``run --dataset NAME [--supervised] [...]``
    Stream a dataset sample-by-sample through ``StreamingCAD``.  With
    ``--supervised`` the stream runs under the :mod:`repro.runtime`
    supervisor — per-round watchdog (``--deadline``), bounded retries
    (``--max-retries``), sensor circuit breakers (``--quarantine-after``),
    rotated crash-safe checkpoints (``--checkpoint-every``,
    ``--checkpoint-dir``) — and ends with a health report
    (``--health-out`` writes it as JSON).  ``--disorder-horizon H`` (with
    ``--late-policy``) routes the feed through the :mod:`repro.ingest`
    frontier as timestamped envelopes, tolerating out-of-order, duplicate
    and late delivery.
``fleet run --dataset NAME --tenants N [...]``
    Stream a dataset through N independent tenant pipelines multiplexed
    over one shared worker pool (:mod:`repro.fleet`): deterministic shard
    routing (``--shards``), fair seed-deterministic scheduling
    (``--seed``, ``--quantum``), optional stage-A offload (``--jobs``)
    and a crash-safe fleet checkpoint manifest (``--manifest-dir``,
    ``--checkpoint-every``).  Ends with the cross-tenant anomaly feed and
    a fleet health rollup (``--health-out`` writes it as JSON).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .baselines import METHOD_NAMES, CADDetector, make_detector
from .bench import probe_rc_level, tuned_cad_config
from .core import CADConfig, rank_root_causes
from .datasets import dataset_names, load_dataset, save_dataset
from .evaluation import ahead_miss, best_f1, best_predictions


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default="fast",
        help="per-round pipeline: fast (incremental correlation and TSG "
        "maintenance, array-backed Louvain) or reference (readable "
        "dict-based path); outputs are identical",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAD: early anomaly detection with correlation analysis (ICDE 2023 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list registered simulated datasets")

    generate = commands.add_parser("generate", help="materialise a dataset to npz")
    generate.add_argument("--dataset", required=True, choices=dataset_names())
    generate.add_argument("--out", required=True, help="output .npz path")

    detect = commands.add_parser("detect", help="run CAD on a dataset")
    detect.add_argument("--dataset", required=True, choices=dataset_names())
    detect.add_argument(
        "--theta",
        type=float,
        default=None,
        help="outlier threshold; default: probe the RC level and use 0.85x",
    )
    detect.add_argument(
        "--top-causes", type=int, default=5, help="root-cause sensors to print per anomaly"
    )
    detect.add_argument(
        "--allow-missing",
        action="store_true",
        help="degraded-data mode: tolerate NaN readings and report data quality",
    )
    detect.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="corrupt the test feed with this missing-at-random rate (implies --allow-missing)",
    )
    detect.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the injected faults"
    )
    detect.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for offline detection (-1 = all CPUs); "
        "results are identical for any job count",
    )
    _add_engine_flag(detect)

    run = commands.add_parser(
        "run", help="stream a dataset through StreamingCAD, optionally supervised"
    )
    run.add_argument("--dataset", required=True, choices=dataset_names())
    run.add_argument(
        "--supervised",
        action="store_true",
        help="wrap the stream in the repro.runtime supervisor",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="retry budget per round before giving up (supervised only)",
    )
    run.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-round watchdog deadline in seconds (supervised only)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        help="rounds between checkpoint generations; 0 disables (supervised only)",
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for rotated checkpoints; resumes from it when non-empty",
    )
    run.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        help="consecutive faulty rounds before a sensor's breaker opens; "
        "0 disables quarantining (supervised only)",
    )
    run.add_argument(
        "--allow-missing",
        action="store_true",
        help="degraded-data mode: tolerate NaN readings",
    )
    run.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="corrupt the streamed feed with this missing-at-random rate "
        "(implies --allow-missing)",
    )
    run.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the injected faults"
    )
    run.add_argument(
        "--health-out",
        default=None,
        help="write the final HealthSnapshot as JSON to this path (supervised only)",
    )
    run.add_argument(
        "--disorder-horizon",
        type=int,
        default=0,
        help="route the feed through the ingest frontier as timestamped "
        "envelopes, reordering within this many rows; 0 pushes rows directly",
    )
    run.add_argument(
        "--late-policy",
        choices=("drop", "nan_patch"),
        default="nan_patch",
        help="frontier handling of rows incomplete at flush time: nan_patch "
        "emits NaN cells into the degraded-data path (implies "
        "--allow-missing), drop skips the row",
    )
    _add_engine_flag(run)

    fleet = commands.add_parser(
        "fleet", help="multi-tenant fleet runtime (repro.fleet)"
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_commands.add_parser(
        "run", help="stream a dataset through N tenant pipelines over one pool"
    )
    fleet_run.add_argument("--dataset", required=True, choices=dataset_names())
    fleet_run.add_argument(
        "--tenants",
        type=int,
        default=2,
        help="number of tenant pipelines (ids tenant-00, tenant-01, ...)",
    )
    fleet_run.add_argument(
        "--shards",
        type=int,
        default=8,
        help="width of the shard space tenants hash into",
    )
    fleet_run.add_argument(
        "--manifest-dir",
        default=None,
        help="directory for the fleet checkpoint manifest and per-tenant "
        "checkpoints; resumes from it when non-empty",
    )
    fleet_run.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="shared-pool workers for stage-A offload; 0 runs every round "
        "in-process (outputs are identical either way)",
    )
    fleet_run.add_argument(
        "--quantum",
        type=int,
        default=256,
        help="fairness quantum: max pending samples one tenant consumes "
        "per scheduler cycle",
    )
    fleet_run.add_argument(
        "--seed", type=int, default=0, help="seeds the per-cycle scheduling permutation"
    )
    fleet_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        help="rounds between per-tenant checkpoint generations; 0 disables",
    )
    _add_engine_flag(fleet_run)
    fleet_run.add_argument(
        "--health-out",
        default=None,
        help="write the final FleetHealthSnapshot as JSON to this path",
    )

    compare = commands.add_parser("compare", help="compare methods on a dataset")
    compare.add_argument("--dataset", required=True, choices=dataset_names())
    compare.add_argument(
        "--methods",
        default="CAD,LOF,ECOD,IForest",
        help=f"comma-separated subset of: {', '.join(METHOD_NAMES)}",
    )
    compare.add_argument("--seed", type=int, default=0)
    return parser


def cmd_datasets() -> int:
    for name in dataset_names():
        data = None
        try:
            from .datasets import get_spec

            spec = get_spec(name)
            print(
                f"{name:12s}  {spec.n_sensors:5d} sensors  "
                f"history {spec.history_length:6d}  test {spec.test_length:6d}  "
                f"{spec.n_anomalies} anomalies"
            )
        finally:
            del data
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    save_dataset(dataset, args.out)
    print(f"wrote {args.dataset} to {args.out} "
          f"({dataset.n_sensors} sensors, {dataset.test.length} test points)")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset)
    theta = args.theta
    if theta is None:
        theta = 0.85 * probe_rc_level(data)
        print(f"probed RC level -> theta = {theta:.3f}")
    if not 0.0 <= args.fault_rate < 1.0:
        raise SystemExit(f"--fault-rate must be in [0, 1), got {args.fault_rate}")
    allow_missing = args.allow_missing or args.fault_rate > 0.0
    config = CADConfig.suggest(
        data.test.length,
        data.n_sensors,
        k=data.recommended_k,
        theta=theta,
        allow_missing=allow_missing,
        n_jobs=args.jobs,
        engine=args.engine,
    )
    test = data.test
    if args.fault_rate > 0.0:
        from .datasets import FaultModel
        from .timeseries import MultivariateTimeSeries

        faults = FaultModel(missing_rate=args.fault_rate, seed=args.fault_seed)
        test = MultivariateTimeSeries(faults.apply(test.values), allow_missing=True)
        print(
            f"injected missing-at-random faults at rate {args.fault_rate:.3f} "
            f"(seed {args.fault_seed})"
        )
    detector = CADDetector(config)
    detector.fit(data.history)
    scores = detector.score(test)
    result = detector.last_result

    print(f"\n{result.n_anomalies} anomalies on {args.dataset}:")
    for anomaly in result.anomalies:
        causes = rank_root_causes(result, anomaly)[: args.top_causes]
        ranked = ", ".join(f"{c.sensor}({c.evidence:.1f})" for c in causes)
        print(f"  [{anomaly.start:6d}, {anomaly.stop:6d})  top causes: {ranked}")

    if allow_missing:
        from .bench import format_quality_report

        print()
        print(format_quality_report(result.rounds))

    print(f"\nF1_PA  = {best_f1(scores, data.labels, 'pa'):.3f}")
    print(f"F1_DPA = {best_f1(scores, data.labels, 'dpa'):.3f}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .core import StreamingCAD
    from .runtime import BreakerPolicy, RetryPolicy, StreamSupervisor, SupervisorConfig

    if not 0.0 <= args.fault_rate < 1.0:
        raise SystemExit(f"--fault-rate must be in [0, 1), got {args.fault_rate}")
    if args.max_retries < 0:
        raise SystemExit(f"--max-retries must be >= 0, got {args.max_retries}")
    if args.quarantine_after < 0:
        raise SystemExit(f"--quarantine-after must be >= 0, got {args.quarantine_after}")
    if args.disorder_horizon < 0:
        raise SystemExit(
            f"--disorder-horizon must be >= 0, got {args.disorder_horizon}"
        )

    data = load_dataset(args.dataset)
    quarantining = args.supervised and args.quarantine_after > 0
    nan_patching = args.disorder_horizon > 0 and args.late_policy == "nan_patch"
    allow_missing = (
        args.allow_missing or args.fault_rate > 0.0 or quarantining or nan_patching
    )
    config = CADConfig.suggest(
        data.test.length,
        data.n_sensors,
        k=data.recommended_k,
        allow_missing=allow_missing,
        engine=args.engine,
    )
    test_values = data.test.values
    if args.fault_rate > 0.0:
        from .datasets import FaultModel

        faults = FaultModel(missing_rate=args.fault_rate, seed=args.fault_seed)
        test_values = faults.apply(test_values)
        print(
            f"injected missing-at-random faults at rate {args.fault_rate:.3f} "
            f"(seed {args.fault_seed})"
        )

    frontier = None
    if args.disorder_horizon > 0:
        from .ingest import FrontierConfig, IngestFrontier, envelopes_from_matrix

        frontier = IngestFrontier(
            FrontierConfig(
                n_sensors=data.n_sensors,
                disorder_horizon=args.disorder_horizon,
                late_policy=args.late_policy,
            )
        )
        envelopes = envelopes_from_matrix(test_values)

    if args.supervised:
        supervisor = StreamSupervisor(
            config,
            data.n_sensors,
            supervisor=SupervisorConfig(
                retry=RetryPolicy(max_retries=args.max_retries),
                breaker=BreakerPolicy(failure_threshold=args.quarantine_after),
                round_deadline=args.deadline,
                checkpoint_every=args.checkpoint_every,
            ),
            checkpoint_dir=args.checkpoint_dir,
            frontier=frontier,
        )
        # A supervisor recovered from --checkpoint-dir already carries its
        # warmed statistics; re-warming would advance the round counter
        # past the recovered state.
        if supervisor.stream.samples_seen == 0:
            supervisor.warm_up(data.history)
        if frontier is not None:
            # Envelopes are re-sent in full: (sensor, seq) dedup and late
            # accounting absorb the overlap with the recovered state.
            records = supervisor.ingest_many(envelopes)
            records.extend(supervisor.finish())
        else:
            # Raw rows carry no identity, so resume from the recovered
            # sample count instead of re-feeding duplicates as new data.
            records = supervisor.process_many(
                test_values[:, supervisor.stream.samples_seen :]
            )
        health = supervisor.health()
    else:
        stream = StreamingCAD(config, data.n_sensors)
        stream.warm_up(data.history)
        if frontier is not None:
            records = []
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
        else:
            records = stream.push_many(test_values)
        health = None

    abnormal = sum(1 for record in records if record.abnormal)
    mode = "supervised" if args.supervised else "unsupervised"
    print(
        f"streamed {args.dataset} ({mode}): {len(records)} rounds, "
        f"{abnormal} abnormal"
    )
    if frontier is not None:
        stats = frontier.stats()
        print(
            f"frontier: accepted {stats.accepted} | reordered {stats.reordered} | "
            f"deduped {stats.deduped} | late {stats.late_dropped} | "
            f"nan-patched {stats.nan_patched} | rows dropped {stats.rows_dropped}"
        )
    if health is not None:
        status = "healthy" if health.healthy else "DEGRADED"
        print(
            f"health: {status} | retries {health.retries} | "
            f"slow {health.slow_rounds} | crashes {health.crashes_recovered} | "
            f"checkpoints {health.checkpoints_written} | "
            f"quarantined {list(health.open_breakers)} | "
            f"probation {list(health.half_open_breakers)} | "
            f"shed {health.samples_shed}"
        )
        if args.health_out is not None:
            with open(args.health_out, "w", encoding="utf-8") as handle:
                handle.write(health.to_json())
                handle.write("\n")
            print(f"wrote health snapshot to {args.health_out}")
    return 0


def cmd_fleet_run(args: argparse.Namespace) -> int:
    from .fleet import FleetConfig, FleetManager, TenantSpec, anomaly_feed
    from .runtime import SupervisorConfig

    if args.tenants < 1:
        raise SystemExit(f"--tenants must be >= 1, got {args.tenants}")
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.jobs < 0:
        raise SystemExit(f"--jobs must be >= 0, got {args.jobs}")
    if args.quantum < 1:
        raise SystemExit(f"--quantum must be >= 1, got {args.quantum}")
    if args.seed < 0:
        raise SystemExit(f"--seed must be >= 0, got {args.seed}")
    if args.checkpoint_every < 0:
        raise SystemExit(
            f"--checkpoint-every must be >= 0, got {args.checkpoint_every}"
        )

    data = load_dataset(args.dataset)
    config = CADConfig.suggest(
        data.test.length,
        data.n_sensors,
        k=data.recommended_k,
        allow_missing=True,
        engine=args.engine,
    )
    tenant_ids = [f"tenant-{i:02d}" for i in range(args.tenants)]
    supervisor_config = SupervisorConfig(checkpoint_every=args.checkpoint_every)
    manager = FleetManager(
        [
            TenantSpec(tenant, config, data.n_sensors, supervisor=supervisor_config)
            for tenant in tenant_ids
        ],
        fleet=FleetConfig(
            shards=args.shards,
            seed=args.seed,
            quantum=args.quantum,
            offload_jobs=args.jobs,
        ),
        manifest_dir=args.manifest_dir,
    )
    start = {
        tenant: manager.supervisor(tenant).stream.samples_seen
        for tenant in tenant_ids
    }
    # Warm up only tenants starting from scratch: a tenant recovered from
    # its checkpoint lineage already carries its warmed statistics, and
    # re-warming would advance the round counter past the recovered state.
    fresh = {tenant: data.history for tenant in tenant_ids if start[tenant] == 0}
    if fresh:
        manager.warm_up(fresh)

    test_values = data.test.values
    records = []
    # Indices every tenant resumed past feed nothing: pumping them would
    # only count idle scheduler cycles.
    for index in range(min(start.values()), test_values.shape[1]):
        for tenant in tenant_ids:
            if index >= start[tenant]:
                manager.submit(tenant, test_values[:, index])
        records.extend(manager.pump())
    records.extend(manager.finish())

    health = manager.health()
    feed = anomaly_feed(records)
    print(
        f"fleet streamed {args.dataset} x{args.tenants}: "
        f"{health.rounds_completed} rounds over {args.shards} shards, "
        f"{len(feed)} abnormal"
    )
    for entry in feed:
        print(
            f"  {entry.tenant} round {entry.record.index} "
            f"[{entry.record.start}, {entry.record.stop}) "
            f"deviation {entry.record.deviation:.2f}"
        )
    status = "healthy" if health.healthy else "DEGRADED"
    print(
        f"health: {status} | cycles {health.cycles} | "
        f"offloaded {health.offloaded_rounds} | "
        f"fallbacks {health.stage_fallbacks} | "
        f"resyncs {health.cache_resyncs} | "
        f"retries {health.retries} | shed {health.samples_shed} | "
        f"checkpoints {health.checkpoints_written}"
    )
    if manager.manifest_path is not None:
        print(f"fleet manifest: {manager.manifest_path}")
    if args.health_out is not None:
        with open(args.health_out, "w", encoding="utf-8") as handle:
            handle.write(health.to_json())
            handle.write("\n")
        print(f"wrote fleet health snapshot to {args.health_out}")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "run":
        return cmd_fleet_run(args)
    raise AssertionError(f"unhandled fleet command {args.fleet_command!r}")


def cmd_compare(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    predictions = {}
    print(f"{'method':8s}  {'F1_PA':>6s}  {'F1_DPA':>6s}")
    for name in methods:
        if name == "CAD":
            detector = make_detector(name, cad_config=tuned_cad_config(data))
        else:
            detector = make_detector(name, seed=args.seed)
        detector.fit(data.history)
        scores = detector.score(data.test)
        predictions[name] = best_predictions(scores, data.labels, "dpa")
        print(f"{name:8s}  {100 * best_f1(scores, data.labels, 'pa'):6.1f}"
              f"  {100 * best_f1(scores, data.labels, 'dpa'):6.1f}")

    if "CAD" in predictions and len(predictions) > 1:
        print(f"\n{'CAD vs':8s}  {'Ahead':>6s}  {'Miss':>6s}")
        for name, other in predictions.items():
            if name == "CAD":
                continue
            relative = ahead_miss(predictions["CAD"], other, data.labels)
            print(f"{name:8s}  {100 * relative.ahead:6.1f}  {100 * relative.miss:6.1f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return cmd_datasets()
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "detect":
        return cmd_detect(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "fleet":
        return cmd_fleet(args)
    if args.command == "compare":
        return cmd_compare(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
