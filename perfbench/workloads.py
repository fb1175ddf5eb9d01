"""The four benchmark workloads, their generated inputs and their oracles.

Every workload turns a seed into a fixed job (history + live feed from the
repo's own simulator), then runs that job in *passes*: each pass builds the
system from scratch (timed as set-up), feeds the whole live input through
the public API in a closed loop at full speed, and returns the records it
got.  The benchmark repeats passes until its time is up, so a faster system
does more passes of the same job and the oracle is computed once per run.

The oracle is the same job on ``engine="reference"``; a pass is correct only
when its records are bitwise equal to the oracle's.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.core import CAD, CADConfig, RoundRecord, StreamingCAD
from repro.core.parallel import get_worker_pool, shutdown_worker_pool
from repro.datasets.registry import Dataset, build_dataset, get_spec
from repro.fleet import FleetConfig, FleetManager, TenantSpec
from repro.ingest import (
    DeliveryChaosModel,
    FrontierConfig,
    IngestFrontier,
    envelopes_from_matrix,
)
from repro.runtime import ChaosModel, StreamSupervisor, SupervisorConfig, VirtualClock

#: Workload shapes per size.  ``full`` is what the benchmark measures;
#: ``tiny`` drives the same code paths in well under a second (smoke test).
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "wide-stream": dict(n=256, k=20, window=512, step=8, warm=24, live=192),
        "delivery-supervised": dict(
            n=32, k=10, window=128, step=16, warm=24, live=200, horizon=8, every=50
        ),
        "fleet-8": dict(tenants=8, n=32, k=10, window=128, step=8, warm=16, live=240),
        "batch-detect": dict(n=96, k=10, window=256, step=4, warm=192, live=320, refresh=64),
    },
    "tiny": {
        "wide-stream": dict(n=12, k=4, window=32, step=4, warm=4, live=8),
        "delivery-supervised": dict(
            n=6, k=3, window=16, step=4, warm=4, live=12, horizon=3, every=4
        ),
        "fleet-8": dict(tenants=3, n=6, k=3, window=16, step=4, warm=4, live=8),
        "batch-detect": dict(n=10, k=4, window=16, step=2, warm=24, live=24, refresh=8),
    },
}


def jobs() -> int:
    """Pool workers for the parallel workloads: one per CPU."""
    return os.cpu_count() or 1


def record_key(record: RoundRecord) -> tuple:
    """A record as a tuple that compares equal only when bitwise equal."""
    quality = record.quality
    return (
        record.index,
        record.start,
        record.stop,
        record.n_variations,
        float(record.mean).hex(),
        float(record.std).hex(),
        float(record.deviation).hex(),
        record.abnormal,
        tuple(sorted(record.outliers)),
        tuple(sorted(record.variations)),
        record.n_communities,
        None
        if quality is None
        else (
            float(quality.missing_fraction).hex(),
            tuple(sorted(quality.masked_sensors)),
            quality.degraded,
        ),
    )


def mismatches(keys: list[tuple], oracle: list[tuple]) -> int:
    """Expected rounds missing or not bitwise equal, plus extra rounds."""
    wrong = sum(
        1 for i, expected in enumerate(oracle) if i >= len(keys) or keys[i] != expected
    )
    return wrong + max(0, len(keys) - len(oracle))


def generate(base: str, seed: int, n: int, window: int, step: int, warm: int, live: int) -> Dataset:
    """Simulated history of ``warm`` rounds and a live feed of ``live`` rounds."""
    spec = get_spec(base)
    live_length = window + step * (live - 1)
    return build_dataset(
        dataclasses.replace(
            spec,
            seed=seed,
            n_sensors=n,
            n_communities=min(spec.n_communities, max(2, n // 3)),
            history_length=window + step * (warm - 1),
            test_length=live_length,
            n_anomalies=2,
            duration_range=(max(2, live_length // 20), max(2, live_length // 10)),
        )
    )


class RoundMark:
    """Round counter the loops bump; a tracer stands in when tracing."""

    round = 0


@dataclass
class Pass:
    """What one pass measured and returned."""

    setup_s: float
    feed_s: float
    #: Rounds the pass processed (throughput numerator).
    rounds: int
    #: One latency per emitted record: the duration of the call returning it.
    latencies_ms: list[float]
    #: Calls that returned records (the latency samples, before weighting).
    calls: int
    #: Record keys per stream (one stream, or one per tenant).
    keys: dict[str, list[tuple]]
    counts: dict[str, float] = field(default_factory=dict)
    shm_leaks: int = 0
    #: Host speed correction applied to every time of the pass.
    factor: float = 1.0
    #: Expected rounds missing or not bitwise equal to the oracle.
    failed: int = 0


def _shm_leaks() -> int:
    """Shared-memory segments this process created that are still present."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return 0
    prefix = f"repro-{os.getpid()}-"
    return sum(1 for entry in shm.iterdir() if entry.name.startswith(prefix))


class Workload:
    name = ""
    #: True when the workload spins up the worker pool.
    pool = False

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.shape = SIZES[size][self.name]
        self.work_dir = work_dir
        self.passes_run = 0

    def oracle(self) -> dict[str, list[tuple]]:
        raise NotImplementedError

    def run_pass(self, mark: Any, traced: bool) -> Pass:
        raise NotImplementedError

    def solo(self) -> tuple[int, float] | None:
        """Rounds and seconds of the same job run single-threaded, if any."""
        return None

    def host(self) -> dict[str, Any]:
        return {"pool_workers": jobs() if self.pool else 0}

    def children_peak_mb(self) -> float:
        """Largest peak RSS of a reaped pool worker (the pool shuts down per pass)."""
        if not self.pool:
            return 0.0
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _reference(config: CADConfig) -> CADConfig:
    return dataclasses.replace(config, engine="reference", n_jobs=1)


def _stream_oracle(config: CADConfig, data: Dataset) -> list[tuple]:
    stream = StreamingCAD(_reference(config), data.n_sensors)
    stream.warm_up(data.history)
    return [record_key(r) for r in stream.push_many(data.test.values)]


class WideStream(Workload):
    """A bare ``StreamingCAD`` over many sensors, one ``push`` at a time."""

    name = "wide-stream"

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        super().__init__(seed, size, work_dir)
        s = self.shape
        self.config = CADConfig(window=s["window"], step=s["step"], k=s["k"])
        self.data = generate("is2-sim", seed, s["n"], s["window"], s["step"], s["warm"], s["live"])
        self.columns = list(self.data.test.values.T)

    def oracle(self) -> dict[str, list[tuple]]:
        return {"": _stream_oracle(self.config, self.data)}

    def run_pass(self, mark: Any, traced: bool) -> Pass:
        begin = perf_counter()
        stream = StreamingCAD(self.config, self.data.n_sensors)
        stream.warm_up(self.data.history)
        setup = perf_counter() - begin

        push = stream.push
        records: list[RoundRecord] = []
        latencies: list[float] = []
        start = perf_counter()
        for column in self.columns:
            t = perf_counter()
            record = push(column)
            if record is not None:
                latencies.append((perf_counter() - t) * 1e3)
                records.append(record)
                mark.round += 1
        feed = perf_counter() - start
        return Pass(
            setup,
            feed,
            len(records),
            latencies,
            len(latencies),
            {"": [record_key(r) for r in records]},
            {"inputs": len(self.columns)},
        )


class DeliverySupervised(Workload):
    """A supervised stream fed one timestamped envelope at a time."""

    name = "delivery-supervised"

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        super().__init__(seed, size, work_dir)
        s = self.shape
        self.config = CADConfig(
            window=s["window"], step=s["step"], k=s["k"], allow_missing=True
        )
        self.data = generate(
            "smd-sim-01", seed, s["n"], s["window"], s["step"], s["warm"], s["live"]
        )
        horizon = s["horizon"]
        delivery = DeliveryChaosModel(
            seed=seed,
            out_of_order_rate=0.2,
            max_disorder=horizon,
            redelivery_rate=0.02,
            redelivery_max_delay=4 * horizon,
            skew_magnitude=0.3,
        )
        self.delivered = delivery.deliver(envelopes_from_matrix(self.data.test.values))
        self.frontier = FrontierConfig(
            n_sensors=s["n"], disorder_horizon=horizon, skew=delivery.skews(s["n"])
        )
        self.supervisor = SupervisorConfig(checkpoint_every=s["every"])
        self.chaos = self._one_crash_chaos(seed)

    def _one_crash_chaos(self, seed: int) -> ChaosModel:
        """A seeded crash model that kills exactly one live round per pass.

        The crash lands at most three rounds after a checkpoint, so recovery
        restores a generation and replays a short gap.  Holding the count and
        the gap fixed keeps the cost of recovery the same from seed to seed.
        """
        s = self.shape
        first, every = s["warm"], s["every"]
        for salt in range(100_000):
            chaos = ChaosModel(seed=seed * 100_000 + salt, crash_rate=0.005)
            crashed = [
                r - first
                for r in range(first, first + s["live"])
                if chaos.round_fate(r, 0) == "crash"
            ]
            if (
                len(crashed) == 1
                and crashed[0] >= every
                and crashed[0] % every < 4
                and chaos.round_fate(first + crashed[0], 1) is None
            ):
                return chaos
        raise RuntimeError("no one-crash chaos schedule found")

    def oracle(self) -> dict[str, list[tuple]]:
        return {"": _stream_oracle(self.config, self.data)}

    def run_pass(self, mark: Any, traced: bool) -> Pass:
        checkpoints = self.work_dir / f"pass-{self.passes_run}"
        self.passes_run += 1
        begin = perf_counter()
        supervisor = StreamSupervisor(
            self.config,
            self.data.n_sensors,
            supervisor=self.supervisor,
            checkpoint_dir=checkpoints,
            clock=VirtualClock(),
            chaos=self.chaos,
            frontier=IngestFrontier(self.frontier),
            resume=False,
        )
        supervisor.warm_up(self.data.history)
        setup = perf_counter() - begin

        ingest = supervisor.ingest
        frontier = supervisor.frontier
        records: list[RoundRecord] = []
        latencies: list[float] = []
        calls = 0
        start = perf_counter()
        for envelope in self.delivered:
            t = perf_counter()
            new = ingest(envelope)
            if new:
                elapsed = (perf_counter() - t) * 1e3
                latencies.extend([elapsed] * len(new))
                records.extend(new)
                calls += 1
                mark.round += len(new)
                if traced:
                    mark.peak("ingest.pending_rows", frontier.stats().pending_rows)
        t = perf_counter()
        new = supervisor.finish()
        latencies.extend([(perf_counter() - t) * 1e3] * len(new))
        records.extend(new)
        calls += bool(new)
        feed = perf_counter() - start

        health = supervisor.health()
        stats = frontier.stats()
        shutil.rmtree(checkpoints, ignore_errors=True)
        counts = {
            "inputs": self.data.test.length,
            "envelopes": len(self.delivered),
            "rows": stats.rows_emitted,
            "reordered": stats.reordered,
            "deduped": stats.deduped,
            "late_dropped": stats.late_dropped,
            "crashes": health.crashes_recovered,
            "checkpoints": health.checkpoints_written,
            "queue_hwm": health.queue_high_watermark,
        }
        keys = {"": [record_key(r) for r in records]}
        return Pass(setup, feed, len(records), latencies, calls, keys, counts)


class Fleet8(Workload):
    """Eight tenants over one shared pool: submit a row each, then ``pump``."""

    name = "fleet-8"
    pool = True

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        super().__init__(seed, size, work_dir)
        s = self.shape
        self.config = CADConfig(
            window=s["window"], step=s["step"], k=s["k"], allow_missing=True
        )
        self.tenants = tuple(f"tenant-{i}" for i in range(s["tenants"]))
        self.data = {
            tenant: generate(
                "smd-sim-01",
                seed * 100 + i,
                s["n"],
                s["window"],
                s["step"],
                s["warm"],
                s["live"],
            )
            for i, tenant in enumerate(self.tenants)
        }
        self.columns = {t: list(d.test.values.T) for t, d in self.data.items()}
        self.length = self.data[self.tenants[0]].test.length
        self.fleet = FleetConfig(shards=16, seed=seed, quantum=64, offload_jobs=jobs())

    def oracle(self) -> dict[str, list[tuple]]:
        return {t: _stream_oracle(self.config, d) for t, d in self.data.items()}

    def run_pass(self, mark: Any, traced: bool) -> Pass:
        n = self.shape["n"]
        begin = perf_counter()
        manager = FleetManager(
            [TenantSpec(t, self.config, n) for t in self.tenants], fleet=self.fleet
        )
        manager.warm_up({t: d.history for t, d in self.data.items()})
        setup = perf_counter() - begin

        submit, pump = manager.submit, manager.pump
        tenants, columns = self.tenants, self.columns
        records = []
        latencies: list[float] = []
        calls = 0
        start = perf_counter()
        for index in range(self.length):
            t = perf_counter()
            for tenant in tenants:
                submit(tenant, columns[tenant][index])
            new = pump()
            if new:
                elapsed = (perf_counter() - t) * 1e3
                latencies.extend([elapsed] * len(new))
                records.extend(new)
                calls += 1
                mark.round += len(new)
        t = perf_counter()
        new = manager.finish()
        latencies.extend([(perf_counter() - t) * 1e3] * len(new))
        records.extend(new)
        calls += bool(new)
        feed = perf_counter() - start

        health = manager.health()
        cycles = manager.cycle
        shutdown_worker_pool()
        keys: dict[str, list[tuple]] = {t: [] for t in tenants}
        for fleet_record in records:
            keys[fleet_record.tenant].append(record_key(fleet_record.record))
        counts = {
            "inputs": self.length * len(tenants),
            "offloaded": health.offloaded_rounds,
            "fallbacks": health.stage_fallbacks + health.cache_resyncs,
            "cycles": cycles,
            "crashes": health.crashes_recovered,
            "checkpoints": health.checkpoints_written,
            "queue_hwm": max(snap.queue_high_watermark for _, _, snap in health.tenants),
        }
        return Pass(setup, feed, len(records), latencies, calls, keys, counts, _shm_leaks())

    def solo(self) -> tuple[int, float] | None:
        """The same feeds through bare ``StreamingCAD``s, one after another."""
        rounds, seconds = 0, 0.0
        for tenant, data in self.data.items():
            stream = StreamingCAD(self.config, data.n_sensors)
            stream.warm_up(data.history)
            push = stream.push
            start = perf_counter()
            for column in self.columns[tenant]:
                if push(column) is not None:
                    rounds += 1
            seconds += perf_counter() - start
        return rounds, seconds


class BatchDetect(Workload):
    """Offline ``CAD.warm_up`` + ``CAD.detect`` fanned over the worker pool."""

    name = "batch-detect"
    pool = True

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        super().__init__(seed, size, work_dir)
        s = self.shape
        self.config = CADConfig(
            window=s["window"],
            step=s["step"],
            k=s["k"],
            corr_refresh=s["refresh"],
            n_jobs=jobs(),
        )
        self.data = generate(
            "is1-sim", seed, s["n"], s["window"], s["step"], s["warm"], s["live"]
        )

    def oracle(self) -> dict[str, list[tuple]]:
        cad = CAD(_reference(self.config), self.data.n_sensors)
        cad.warm_up(self.data.history)
        return {"": [record_key(r) for r in cad.detect(self.data.test).rounds]}

    def run_pass(self, mark: Any, traced: bool) -> Pass:
        begin = perf_counter()
        cad = CAD(self.config, self.data.n_sensors)
        get_worker_pool(self.config.n_jobs)
        setup = perf_counter() - begin

        start = perf_counter()
        cad.warm_up(self.data.history)
        t = perf_counter()
        result = cad.detect(self.data.test)
        end = perf_counter()
        shutdown_worker_pool()
        records = result.rounds
        mark.round += len(records)
        return Pass(
            setup,
            end - start,
            cad.rounds_processed,
            [(end - t) * 1e3] * len(records),
            1,
            {"": [record_key(r) for r in records]},
            {"inputs": 0},
            _shm_leaks(),
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (WideStream, DeliverySupervised, Fleet8, BatchDetect)
}
