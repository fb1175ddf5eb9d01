"""Multi-tenant fleet manager: N supervised CAD pipelines, one pool.

:class:`FleetManager` owns one :class:`~repro.runtime.StreamSupervisor`
per tenant — each with its own :class:`~repro.core.config.CADConfig`,
breaker bank, checkpoint lineage and (optionally) ingest frontier — and
interleaves their rounds over the process-wide shared
:class:`~repro.core.parallel.WorkerPool`:

* **Routing** — envelopes carry a ``tenant`` id; a deterministic
  :class:`~repro.fleet.router.ShardRouter` maps tenants to shards and
  shards to pool workers (stable affinity).
* **Scheduling** — :meth:`pump` runs one fair cycle: tenants are visited
  in a seed-deterministic permutation (:func:`~repro.fleet.scheduler.cycle_order`),
  each consuming at most ``quantum`` pending samples.  A tenant's
  round-completing sample is *dispatched* to its affine worker (stage A
  offload) and the cycle moves on; results are collected and completed —
  through the full supervised envelope — at the end of the cycle.
* **State discipline** — workers cache one stage-A pipeline per tenant
  (keyed by a per-manager serial, so a recreated manager never trusts a
  previous manager's caches).  The parent's pipeline goes stale while
  rounds run remotely; worker state is shipped back exactly when a
  checkpoint needs it, and every sync point (finish, checkpoint_now,
  cache loss) restores the invariant before in-process work resumes.
* **Checkpointing** — with a ``manifest_dir``, each tenant rotates
  checkpoints under ``tenants/<tenant>/`` and the fleet writes an atomic
  v4 manifest naming every tenant's directory, shard and schedule
  position.  Kill the process anywhere; constructing a new manager over
  the same directory resumes every tenant at its exact round.
* **Errors** — a runtime error one tenant's supervisor raises (while it
  resumes, pumps, finishes or checkpoints) reaches the caller with its own
  type, its ``tenant`` attribute set and a note naming the tenant.

Per-tenant outputs are bit-identical to N solo runs by construction:
nothing a tenant's pipeline consumes depends on any other tenant —
scheduling only changes *when* a tenant's next sample is processed,
never *what* it sees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from ..core.checkpoint import load_fleet_manifest, save_fleet_manifest
from ..core.config import CADConfig
from ..core.parallel import StaleWorkerCacheError, WorkerPool, get_worker_pool
from ..core.result import RoundRecord
from ..ingest.envelope import SampleEnvelope
from ..ingest.frontier import FrontierConfig, IngestFrontier
from ..runtime.chaos import ChaosModel
from ..runtime.clock import Clock
from ..runtime.errors import (
    CheckpointError,
    ConfigurationError,
    FleetManifestError,
    SupervisorError,
    UnknownTenantError,
)
from ..runtime.supervisor import StreamSupervisor, SupervisorConfig
from ..timeseries.mts import MultivariateTimeSeries
from .health import FleetHealthSnapshot, FleetRecord
from .router import ShardRouter, validate_tenant_id
from .scheduler import cycle_order

__all__ = ["TenantSpec", "FleetConfig", "FleetManager", "MANIFEST_NAME"]

#: Manifest file name inside the fleet's manifest directory.
MANIFEST_NAME = "manifest.json"

#: Per-tenant checkpoint directories live under ``<manifest_dir>/tenants/``.
_TENANTS_DIRNAME = "tenants"

#: Worker-side pipeline caches are keyed ``"<manager serial>:<tenant>"``.
#: The serial is process-unique, so a *new* FleetManager over the same
#: tenants (e.g. an in-process kill/resume) misses the old cache entries
#: and re-ships state instead of trusting pipelines another manager
#: instance advanced.
_FLEET_SERIAL = itertools.count()


def _name_tenant(error: SupervisorError, tenant: str) -> None:
    """Attribute a tenant supervisor's error to its tenant (type kept)."""
    if error.tenant is None:
        error.tenant = tenant
        error.add_note(f"raised by fleet tenant {tenant!r}")


@dataclass(frozen=True)
class TenantSpec:
    """Static description of one tenant pipeline.

    ``frontier`` switches the tenant to envelope ingest (out-of-order
    delivery tolerated); without it the tenant consumes pre-aligned
    sample rows via :meth:`FleetManager.submit`.  ``chaos`` injects the
    tenant's own fault schedule (soak harness).
    """

    tenant: str
    config: CADConfig
    n_sensors: int
    supervisor: SupervisorConfig | None = None
    frontier: FrontierConfig | None = None
    chaos: ChaosModel | None = None

    def __post_init__(self) -> None:
        validate_tenant_id(self.tenant)
        if self.n_sensors < 1:
            raise ConfigurationError(
                f"tenant {self.tenant!r}: n_sensors must be >= 1, got {self.n_sensors}"
            )


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs (all deterministic).

    Attributes
    ----------
    shards:
        Width of the shard space tenants hash into.
    seed:
        Seeds the per-cycle scheduling permutation (non-negative).
    quantum:
        Fairness quantum — max pending samples one tenant consumes per
        scheduler cycle.
    offload_jobs:
        Workers of the shared pool used for stage-A offload; 0 keeps
        every round in-process (no pool dependency).
    """

    shards: int = 1
    seed: int = 0
    quantum: int = 256
    offload_jobs: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.quantum < 1:
            raise ConfigurationError(f"quantum must be >= 1, got {self.quantum}")
        if self.offload_jobs < 0:
            raise ConfigurationError(
                f"offload_jobs must be >= 0, got {self.offload_jobs}"
            )


class _TenantRuntime:
    """Mutable per-tenant scheduler state."""

    __slots__ = ("spec", "shard", "supervisor", "cache_key", "remote_cached")

    def __init__(
        self,
        spec: TenantSpec,
        shard: int,
        supervisor: StreamSupervisor,
        cache_key: str,
    ) -> None:
        self.spec = spec
        self.shard = shard
        self.supervisor = supervisor
        self.cache_key = cache_key
        #: True while the affine worker's cached pipeline is known to
        #: equal this tenant's stream position (state need not be shipped).
        self.remote_cached = False


class _Dispatch:
    """One in-flight offloaded round (dispatch → collect within a cycle)."""

    __slots__ = ("rt", "raw", "window", "task_id", "want_state")

    def __init__(
        self,
        rt: _TenantRuntime,
        raw: np.ndarray,
        window: np.ndarray,
        task_id: int,
        want_state: bool,
    ) -> None:
        self.rt = rt
        self.raw = raw
        self.window = window
        self.task_id = task_id
        self.want_state = want_state


class FleetManager:
    """Owns and schedules a fleet of tenant pipelines (see module docs)."""

    def __init__(
        self,
        specs: Iterable[TenantSpec],
        *,
        fleet: FleetConfig | None = None,
        manifest_dir: str | Path | None = None,
        clock: Clock | None = None,
        resume: bool = True,
    ) -> None:
        self._fleet = fleet if fleet is not None else FleetConfig()
        spec_list = list(specs)
        if not spec_list:
            raise ConfigurationError("a fleet needs at least one tenant")
        self._router = ShardRouter([s.tenant for s in spec_list], self._fleet.shards)
        self._serial = next(_FLEET_SERIAL)
        self._manifest_dir = Path(manifest_dir) if manifest_dir is not None else None
        self._cycle = 0
        self._offloaded_rounds = 0
        self._stage_fallbacks = 0
        self._cache_resyncs = 0

        specs_by_id = {spec.tenant: spec for spec in spec_list}
        if resume:
            self._adopt_manifest(specs_by_id)

        self._runtimes: dict[str, _TenantRuntime] = {}
        for tenant in sorted(specs_by_id):
            spec = specs_by_id[tenant]
            shard = self._router.shard_of(tenant)
            checkpoint_dir = (
                self._manifest_dir / _TENANTS_DIRNAME / tenant
                if self._manifest_dir is not None
                else None
            )
            frontier = (
                IngestFrontier(spec.frontier) if spec.frontier is not None else None
            )
            try:
                supervisor = StreamSupervisor(
                    spec.config,
                    spec.n_sensors,
                    supervisor=spec.supervisor,
                    checkpoint_dir=checkpoint_dir,
                    clock=clock,
                    chaos=spec.chaos,
                    frontier=frontier,
                    resume=resume,
                )
            except SupervisorError as error:
                _name_tenant(error, tenant)
                raise
            self._runtimes[tenant] = _TenantRuntime(
                spec, shard, supervisor, f"{self._serial}:{tenant}"
            )

        self._pool: WorkerPool | None = (
            get_worker_pool(self._fleet.offload_jobs)
            if self._fleet.offload_jobs > 0
            else None
        )
        self._write_manifest()

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #

    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenant ids, sorted."""
        return self._router.tenants

    @property
    def router(self) -> ShardRouter:
        """The fleet's shard router."""
        return self._router

    @property
    def cycle(self) -> int:
        """Scheduler cycles completed (also the next cycle's index)."""
        return self._cycle

    @property
    def manifest_path(self) -> Path | None:
        """Path of the fleet manifest (None when running ephemeral)."""
        if self._manifest_dir is None:
            return None
        return self._manifest_dir / MANIFEST_NAME

    def supervisor(self, tenant: str) -> StreamSupervisor:
        """The tenant's supervisor (diagnostics / tests)."""
        return self._rt(tenant).supervisor

    # ----------------------------------------------------------------- #
    # Feeding
    # ----------------------------------------------------------------- #

    def warm_up(self, histories: Mapping[str, MultivariateTimeSeries]) -> None:
        """Seed per-tenant detector statistics from historical data."""
        for tenant in sorted(histories):
            self._rt(tenant).supervisor.warm_up(histories[tenant])

    def submit(self, tenant: str, sample: np.ndarray) -> bool:
        """Offer one aligned sample row to a tenant's bounded queue.

        Backpressure is per tenant: a slow tenant sheds from *its own*
        queue (per its shed policy) and cannot stall the others.  Returns
        False when the sample was shed.
        """
        rt = self._rt(tenant)
        if rt.supervisor.frontier is not None:
            raise ConfigurationError(
                f"tenant {tenant!r} ingests timestamped envelopes; "
                "route them via ingest(), not submit()"
            )
        return rt.supervisor.submit(sample)

    def ingest(self, envelope: SampleEnvelope) -> None:
        """Route one timestamped envelope to its tenant's frontier.

        The envelope's ``tenant`` field addresses the pipeline; the empty
        default routes to the fleet's single tenant (the solo-compatible
        mode) and raises :class:`~repro.runtime.errors.UnknownTenantError`
        in a multi-tenant fleet.
        """
        tenant = envelope.tenant
        if tenant == "":
            if len(self._runtimes) == 1:
                tenant = next(iter(self._runtimes))
            else:
                raise UnknownTenantError("")
        rt = self._rt(tenant)
        frontier = rt.supervisor.frontier
        if frontier is None:
            raise ConfigurationError(
                f"tenant {tenant!r} has no ingest frontier; feed aligned "
                "sample rows via submit()"
            )
        rt.supervisor.push_envelope(envelope)

    def ingest_many(self, envelopes: Iterable[SampleEnvelope]) -> None:
        """Route a batch of envelopes (any delivery order, any tenants)."""
        for envelope in envelopes:
            self.ingest(envelope)

    # ----------------------------------------------------------------- #
    # Scheduling
    # ----------------------------------------------------------------- #

    def pump(self) -> list[FleetRecord]:
        """Run one fair scheduler cycle; return the new fleet records.

        Visits every tenant in this cycle's seed-deterministic order,
        consuming at most ``quantum`` pending samples each.  With offload
        enabled, a tenant's turn ends at its first round-completing
        sample: stage A is dispatched to the tenant's affine worker and
        the next tenant runs while it computes.  All dispatched rounds are
        collected and completed (through the full supervised envelope —
        chaos fates, watchdog, breakers, checkpoints) before pump returns,
        so records never outlive a cycle.
        """
        order = cycle_order(self._runtimes, self._fleet.seed, self._cycle)
        self._cycle += 1
        records: list[FleetRecord] = []
        wave: list[_Dispatch] = []
        for tenant in order:
            try:
                self._feed(self._runtimes[tenant], records, wave)
            except SupervisorError as error:
                _name_tenant(error, tenant)
                raise
        for entry in wave:
            self._complete(entry, records)
        return records

    def drain(self) -> list[FleetRecord]:
        """Pump until no tenant has a pending sample or flushable row."""
        records: list[FleetRecord] = []
        while any(
            self._has_ready(self._runtimes[t]) for t in sorted(self._runtimes)
        ):
            records.extend(self.pump())
        return records

    def finish(self) -> list[FleetRecord]:
        """End of stream: drain queues, flush frontiers past watermarks.

        Rows a tenant's watermark was still holding back are processed
        in-process (worker caches are synced first, then invalidated —
        the workers never see these rows).  Writes the final manifest.
        """
        records = self.drain()
        for tenant in sorted(self._runtimes):
            rt = self._runtimes[tenant]
            supervisor = rt.supervisor
            if supervisor.frontier is None:
                continue
            rows = list(supervisor.frontier.drain())
            if not rows:
                continue
            try:
                self._sync_tenant(rt)
                for row in rows:
                    self._extend(records, rt, supervisor.process(row))
            except SupervisorError as error:
                _name_tenant(error, tenant)
                raise
            rt.remote_cached = False
        self._write_manifest()
        return records

    def checkpoint_now(self) -> None:
        """Checkpoint every tenant immediately and rewrite the manifest.

        Tenants whose live pipeline lags offloaded rounds sync worker
        state back first (a state fetch, not a replay), so the written
        generation is exactly the stream's current round.
        """
        for tenant in sorted(self._runtimes):
            rt = self._runtimes[tenant]
            try:
                self._sync_tenant(rt)
                rt.supervisor.checkpoint_now()
            except SupervisorError as error:
                _name_tenant(error, tenant)
                raise
        self._write_manifest()

    def health(self) -> FleetHealthSnapshot:
        """Aggregate fleet health (see :class:`FleetHealthSnapshot`)."""
        per_tenant = {
            tenant: (rt.shard, rt.supervisor.health())
            for tenant, rt in sorted(self._runtimes.items())
        }
        return FleetHealthSnapshot.aggregate(
            per_tenant,
            shards=self._fleet.shards,
            cycles=self._cycle,
            offloaded_rounds=self._offloaded_rounds,
            stage_fallbacks=self._stage_fallbacks,
            cache_resyncs=self._cache_resyncs,
            pool_jobs=self._pool.jobs if self._pool is not None else 0,
        )

    # ----------------------------------------------------------------- #
    # Internals
    # ----------------------------------------------------------------- #

    def _rt(self, tenant: str) -> _TenantRuntime:
        try:
            return self._runtimes[tenant]
        except KeyError:
            raise UnknownTenantError(tenant) from None

    def _extend(
        self,
        records: list[FleetRecord],
        rt: _TenantRuntime,
        new: list[RoundRecord],
    ) -> None:
        for record in new:
            records.append(FleetRecord(rt.spec.tenant, rt.shard, record))

    def _has_ready(self, rt: _TenantRuntime) -> bool:
        supervisor = rt.supervisor
        if supervisor.pending_samples > 0:
            return True
        frontier = supervisor.frontier
        return frontier is not None and frontier.next_emit <= frontier.watermark

    def _next_raw(self, rt: _TenantRuntime) -> np.ndarray | None:
        """Pop the tenant's next pending sample row (None when idle).

        Popped rows are processed before control leaves the tenant's
        turn — frontier rows advance the frontier the moment they pop,
        so a checkpoint between pop and process would lose them.
        """
        supervisor = rt.supervisor
        frontier = supervisor.frontier
        if frontier is not None:
            return frontier.pop_ready()
        if supervisor.pending_samples > 0:
            return supervisor.pop_pending()
        return None

    def _feed(
        self,
        rt: _TenantRuntime,
        records: list[FleetRecord],
        wave: list[_Dispatch],
    ) -> None:
        """One tenant's turn: up to ``quantum`` samples, one dispatch."""
        supervisor = rt.supervisor
        stream = supervisor.stream
        taken = 0
        while taken < self._fleet.quantum:
            raw = self._next_raw(rt)
            if raw is None:
                return
            taken += 1
            if (
                self._pool is not None
                and stream.samples_seen + 1 == stream.next_round_end
            ):
                wave.append(self._dispatch(rt, raw))
                return
            self._extend(records, rt, supervisor.process(raw))

    def _dispatch(self, rt: _TenantRuntime, raw: np.ndarray) -> _Dispatch:
        """Ship one round-completing sample's stage A to the affine worker."""
        assert self._pool is not None
        supervisor = rt.supervisor
        window = supervisor.stage_window(raw)
        state = None if rt.remote_cached else supervisor.pipeline_state()
        want_state = supervisor.checkpoint_due_next_round
        task_id = self._pool.submit_tenant_round(
            self._router.worker_of(rt.spec.tenant, self._pool.jobs),
            rt.spec.config,
            rt.spec.n_sensors,
            tenant=rt.cache_key,
            windows=[window],
            pipeline_state=state,
            return_state=want_state,
        )
        return _Dispatch(rt, raw, window, task_id, want_state)

    def _complete(self, entry: _Dispatch, records: list[FleetRecord]) -> None:
        """Collect one dispatched round and run it through stage B."""
        assert self._pool is not None
        rt = entry.rt
        supervisor = rt.supervisor
        try:
            try:
                stages, state_after = self._pool.collect(entry.task_id)
            except StaleWorkerCacheError:
                # The affine worker lost its cache (death/respawn or pool
                # turnover): re-seed it with fresh parent state and retry.
                self._cache_resyncs += 1
                rt.remote_cached = False
                if supervisor.pipeline_stale:
                    supervisor.resync_pipeline()
                task_id = self._pool.submit_tenant_round(
                    self._router.worker_of(rt.spec.tenant, self._pool.jobs),
                    rt.spec.config,
                    rt.spec.n_sensors,
                    tenant=rt.cache_key,
                    windows=[entry.window],
                    pipeline_state=supervisor.pipeline_state(),
                    return_state=entry.want_state,
                )
                stages, state_after = self._pool.collect(task_id)
            retries_before = supervisor.retries_performed
            self._extend(
                records, rt, supervisor.process_staged(entry.raw, stages[0], state_after)
            )
            if supervisor.retries_performed != retries_before:
                # A mid-round recovery recomputed the round in process.
                # Deterministic replay leaves the rebuilt local pipeline
                # equal to the worker's cache, so the cache stays valid.
                self._stage_fallbacks += 1
            rt.remote_cached = True
            self._offloaded_rounds += 1
        except BaseException as error:
            # The round did not complete; whether the worker advanced is
            # unknowable here, so stop trusting its cache.
            rt.remote_cached = False
            if isinstance(error, SupervisorError):
                _name_tenant(error, rt.spec.tenant)
            raise

    def _sync_tenant(self, rt: _TenantRuntime) -> None:
        """Make the tenant's live pipeline current before in-process work.

        Fast path: fetch the cached state back from the affine worker
        (an empty-window probe).  If the cache is gone, fall back to
        checkpoint-restore + replay (:meth:`StreamSupervisor.resync_pipeline`).
        """
        supervisor = rt.supervisor
        if not supervisor.pipeline_stale:
            return
        if self._pool is not None and rt.remote_cached:
            task_id = self._pool.submit_tenant_round(
                self._router.worker_of(rt.spec.tenant, self._pool.jobs),
                rt.spec.config,
                rt.spec.n_sensors,
                tenant=rt.cache_key,
                windows=[],
                return_state=True,
            )
            try:
                _, state = self._pool.collect(task_id)
            except StaleWorkerCacheError:
                state = None
            if state is not None:
                supervisor.adopt_pipeline_state(state)
                return
            self._cache_resyncs += 1
            rt.remote_cached = False
        supervisor.resync_pipeline()

    # ----------------------------------------------------------------- #
    # Manifest
    # ----------------------------------------------------------------- #

    def _adopt_manifest(self, specs_by_id: dict[str, TenantSpec]) -> None:
        """Validate and adopt an existing fleet manifest (resume path)."""
        if self._manifest_dir is None:
            return
        path = self._manifest_dir / MANIFEST_NAME
        if not path.exists():
            return
        try:
            manifest = load_fleet_manifest(path)
        except CheckpointError as exc:
            raise FleetManifestError(f"unreadable fleet manifest {path}: {exc}") from exc
        if manifest["shards"] != self._fleet.shards:
            raise FleetManifestError(
                f"manifest {path} was written for {manifest['shards']} shards, "
                f"fleet is configured with {self._fleet.shards}; resharding "
                "invalidates tenant/worker affinity"
            )
        for tenant in sorted(manifest["tenants"]):
            entry = manifest["tenants"][tenant]
            if tenant not in specs_by_id:
                problem = "is not configured; resuming would orphan its checkpoints"
            elif not isinstance(entry, dict):
                problem = "entry is not an object"
            elif entry.get("shard") != self._router.shard_of(tenant):
                problem = (
                    f"recorded on shard {entry.get('shard')}, router assigns "
                    f"{self._router.shard_of(tenant)}"
                )
            elif entry.get("n_sensors") != specs_by_id[tenant].n_sensors:
                problem = (
                    f"checkpoints hold {entry.get('n_sensors')}-sensor streams, "
                    f"spec says {specs_by_id[tenant].n_sensors}"
                )
            else:
                continue
            error = FleetManifestError(f"manifest {path}: tenant {tenant!r} {problem}")
            error.tenant = tenant
            raise error
        cycle = manifest["cycle"]
        if cycle < 0:
            raise FleetManifestError(f"manifest {path}: negative cycle {cycle}")
        self._cycle = cycle

    def _write_manifest(self) -> None:
        if self._manifest_dir is None:
            return
        tenants = {
            tenant: {
                "shard": rt.shard,
                "directory": f"{_TENANTS_DIRNAME}/{tenant}",
                "n_sensors": rt.spec.n_sensors,
                "engine": rt.spec.config.engine,
            }
            for tenant, rt in sorted(self._runtimes.items())
        }
        save_fleet_manifest(
            self._manifest_dir / MANIFEST_NAME,
            shards=self._fleet.shards,
            seed=self._fleet.seed,
            cycle=self._cycle,
            tenants=tenants,
        )
