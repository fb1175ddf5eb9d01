"""Parallel offline execution of stage A (window -> communities).

``CAD.warm_up`` and ``CAD.detect`` see all their windows up front, so the
expensive stage-A work can fan out over worker processes while stage B (the
sequential tracker/moments replay) stays in the main process.  The output
is **bit-identical** to a sequential run for any job count:

* The reference engine has no cross-round state at all — every chunk split
  is trivially safe.
* The fast engine's cross-round state (the rolling-correlation kernel and
  the TSG builder's candidate sets) re-anchors itself whenever
  ``absolute_round % corr_refresh == 0``: the kernel refreshes exactly, so
  its post-round state is a function of the current window and the round
  counter alone.  The builder's candidate sets need no anchor of their
  own: every row's set is the top-k of the round's matrix, kept where the
  separation certificate proves it unique and re-ranked by the
  row-independent ``argpartition`` where not, so a fresh builder, which
  ranks every row, ends the anchor round with the same sets as the
  sequential one.  A worker that starts a *fresh* pipeline at an anchor
  round therefore reproduces the sequential pipeline's state exactly.
  Chunks are cut only at anchor rounds; the first (possibly unaligned)
  chunk ships the live pipeline state instead.

The main pipeline adopts the last chunk's final state afterwards, so a
subsequent streaming ``process_window`` continues exactly where a
sequential run would have.

Worker-pool design (DESIGN.md §10).  A naive ``ProcessPoolExecutor`` per
call pays process spawn on every call, which swamps the parallel win for
small sensor counts.  This module instead keeps one persistent
:class:`WorkerPool` per process:

* Workers are long-lived and survive across ``warm_up``/``detect`` calls
  (and across :class:`~repro.runtime.supervisor.StreamSupervisor` watchdog
  retries — recovery restores detector state, not the pool).
* Every task carries its data in the message on the worker's own task
  queue.  An offline chunk of ``m`` rounds ships one ``(n, w + s·(m−1))``
  sample span — the columns its windows cover, once — and the worker
  slices the ``m`` overlapping windows from it, so a chunk costs about
  ``s/w`` of what its windows would.  An unpickled array is private to the
  worker: nothing the parent does afterwards can alias it.
* A worker that dies mid-task is respawned on a fresh queue (the pool's
  ``generation`` counter increments) and its outstanding tasks are
  resubmitted; duplicate results are deduplicated by task id, which is
  safe because stage-A tasks are pure functions of their inputs.

Fleet extension (DESIGN.md §12).  The multi-tenant scheduler offloads
*single rounds* instead of refresh-aligned chunks: a task tagged with a
``tenant`` key advances a worker-side cached :class:`CommunityPipeline`
for that tenant (shipped once via ``pipeline_state``, then advanced
in-place round after round), so steady-state traffic ships one masked
window per round and no kernel state.  A worker that does not hold the
named cache entry — fresh spawn after a crash, pool recreation —
answers with :class:`StaleWorkerCacheError` and the scheduler re-ships
state; the cached state is a pure function of the window sequence, so
offloaded rounds stay bit-identical to in-process ones.
"""

from __future__ import annotations

import atexit
import math
import os
import queue
import multiprocessing as mp
from typing import Any, Iterator

import numpy as np

from ..timeseries.windows import WindowSpec
from .config import CADConfig
from .pipeline import CommunityPipeline, RoundCommunity

#: Chunks per worker the scheduler aims for — enough slack to balance load
#: without drowning in task-dispatch overhead.
_CHUNKS_PER_JOB = 4

#: How long a result wait blocks before checking workers for liveness.
_POLL_SECONDS = 0.1

#: One offline chunk: (pipeline state or None, absolute start round,
#: ``(n, w + s·(m−1))`` sample span, whether to ship the final state back).
Chunk = tuple[dict[str, Any] | None, int, np.ndarray, bool]


class StaleWorkerCacheError(RuntimeError):
    """A tenant-tagged task found no cached pipeline in the worker.

    Answered (never raised parent-side unless collected) by a worker that
    was asked to advance a tenant pipeline it does not hold — a fresh
    respawn after a crash, a recreated pool, or a brand-new tenant.  The
    fleet scheduler reacts by re-shipping the tenant's pipeline state with
    the retried task; correctness is unaffected because the cache is pure
    derived state.
    """

    def __init__(self, tenant: str) -> None:
        super().__init__(
            f"worker holds no cached stage-A pipeline for tenant task "
            f"{tenant!r}; resubmit with pipeline_state"
        )
        self.tenant = tenant

    def __reduce__(self) -> tuple[Any, tuple[str]]:
        return (StaleWorkerCacheError, (self.tenant,))


def resolve_jobs(n_jobs: int | None) -> int:
    """Normalise a job count: None -> 1, -1 -> all CPUs, else validated."""
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1 (all CPUs), got {n_jobs}")
    return n_jobs


def _chunk_bounds(
    start_round: int, n_rounds: int, refresh: int | None, jobs: int
) -> list[tuple[int, int]]:
    """Half-open local chunk bounds; every cut after the first sits on an
    anchor round when ``refresh`` is given (fast engine)."""
    target = max(1, math.ceil(n_rounds / (jobs * _CHUNKS_PER_JOB)))
    if refresh is None:
        stride = target
        first_cut = min(stride, n_rounds)
    else:
        stride = max(refresh, math.ceil(target / refresh) * refresh)
        # First anchor strictly inside the segment; everything before it
        # must stay with the live kernel state.
        offset = (-start_round) % refresh
        first_cut = offset if offset > 0 else min(stride, n_rounds)
        if first_cut >= n_rounds:
            return [(0, n_rounds)]
    bounds = [(0, first_cut)]
    lo = first_cut
    while lo < n_rounds:
        hi = min(lo + stride, n_rounds)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _chunk_spans(
    values: np.ndarray, window: int, step: int, bounds: list[tuple[int, int]]
) -> list[np.ndarray]:
    """Per chunk, the sample columns its rounds' windows cover (views)."""
    return [values[:, lo * step : (hi - 1) * step + window] for lo, hi in bounds]


def _chunk_windows(span: np.ndarray, window: int, step: int) -> list[np.ndarray]:
    """The overlapping windows of a chunk span, in round order (views)."""
    width = span.shape[1]
    rounds, rest = divmod(width - window, step)
    if width < window or rest:
        raise ValueError(
            f"chunk span of shape {span.shape} does not hold whole windows "
            f"(window={window}, step={step})"
        )
    return [span[:, r * step : r * step + window] for r in range(rounds + 1)]


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


def _stage_chunk(
    config: CADConfig,
    n_sensors: int,
    pipeline_state: dict[str, Any] | None,
    start_round: int,
    span: np.ndarray,
    return_state: bool,
) -> tuple[list[RoundCommunity], dict[str, Any] | None]:
    """Worker entry point: run stage A over one chunk's sample span.

    ``pipeline_state`` seeds the first (unaligned) chunk; every other chunk
    starts a fresh pipeline positioned at its anchor ``start_round`` — the
    anchor's exact refresh, and the fresh builder's from-scratch ranking of
    every row, give the state the sequential run holds there.
    Only the final chunk serialises its state back (``return_state``) —
    that state includes a full window, which is not worth shipping per
    chunk.
    """
    windows = _chunk_windows(span, config.window, config.step)
    pipeline = CommunityPipeline(config, n_sensors)
    if pipeline.kernel is not None:
        if pipeline_state is not None:
            pipeline.restore_state(pipeline_state)
        else:
            pipeline.kernel.seek(start_round)
    stages = [pipeline.process(window) for window in windows]
    state_after = None
    if return_state and pipeline.kernel is not None:
        state_after = pipeline.to_state()
    return stages, state_after


def _stage_tenant_rounds(
    cache: dict[str, CommunityPipeline],
    tenant: str,
    config: CADConfig,
    n_sensors: int,
    pipeline_state: dict[str, Any] | None,
    windows: list[np.ndarray],
    return_state: bool,
) -> tuple[list[RoundCommunity], dict[str, Any] | None]:
    """Worker entry point for tenant-tagged round tasks.

    Advances the worker's cached pipeline for ``tenant`` — seeded from
    ``pipeline_state`` when shipped, answered with
    :class:`StaleWorkerCacheError` when neither a cache entry nor state
    exists (stateless reference-engine pipelines are simply rebuilt).
    The fast engine's kernel keeps the previous window by reference; the
    windows arrived pickled, so that reference is private to this worker.
    """
    pipeline = cache.get(tenant)
    if pipeline_state is not None or pipeline is None:
        pipeline = CommunityPipeline(config, n_sensors)
        if pipeline.kernel is not None:
            if pipeline_state is None:
                raise StaleWorkerCacheError(tenant)
            pipeline.restore_state(pipeline_state)
        cache[tenant] = pipeline
    stages = [pipeline.process(window) for window in windows]
    state_after = None
    if return_state and pipeline.kernel is not None:
        state_after = pipeline.to_state()
    return stages, state_after


def _pool_worker(tasks: Any, results: Any) -> None:
    """Long-lived worker loop: run each task message, reply with its id."""
    tenant_pipelines: dict[str, CommunityPipeline] = {}
    while True:
        task = tasks.get()
        if task is None:
            return
        task_id, tenant, config, n_sensors, chunk = task
        pipeline_state, start_round, data, return_state = chunk
        try:
            if tenant is not None:
                out = _stage_tenant_rounds(
                    tenant_pipelines,
                    tenant,
                    config,
                    n_sensors,
                    pipeline_state,
                    data,
                    return_state,
                )
            else:
                out = _stage_chunk(
                    config, n_sensors, pipeline_state, start_round, data, return_state
                )
            payload = (task_id, out, None)
        except BaseException as exc:
            payload = (task_id, None, exc)
        results.put(payload)


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


class _WorkerHandle:
    """A worker process plus its private task queue."""

    __slots__ = ("process", "tasks")

    def __init__(self, process: Any, tasks: Any) -> None:
        self.process = process
        self.tasks = tasks


class WorkerPool:
    """Persistent process pool; tasks carry their data on per-worker queues.

    One pool serves a whole process (see :func:`get_worker_pool`); it is
    cheap to keep alive — idle workers block on their task queue — and
    expensive to recreate, which is exactly why per-call pools lost money
    at small sensor counts.
    """

    def __init__(self, jobs: int, generation: int = 0) -> None:
        self.jobs = max(1, int(jobs))
        #: Incremented every time a dead worker is respawned; checkpointed
        #: by the supervisor so post-restore health reports keep counting.
        self.generation = int(generation)
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._results: Any = self._ctx.Queue()
        self._workers: list[_WorkerHandle] = []
        #: task id -> (worker index, message), kept for respawn resubmission.
        self._pending: dict[int, tuple[int, tuple[Any, ...]]] = {}
        self._completed: dict[int, tuple[Any, BaseException | None]] = {}
        self._task_serial = 0
        self._closed = False
        for _ in range(self.jobs):
            tasks = self._ctx.Queue()
            self._workers.append(_WorkerHandle(self._start_worker(tasks), tasks))

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def tasks_submitted(self) -> int:
        """Tasks dispatched so far (resubmissions after a respawn excluded)."""
        return self._task_serial

    # ------------------------------------------------------------------
    # lifecycle

    def _start_worker(self, tasks: Any) -> Any:
        process = self._ctx.Process(
            target=_pool_worker, args=(tasks, self._results), daemon=True
        )
        process.start()
        return process

    def _revive_dead_workers(self) -> None:
        for index, worker in enumerate(self._workers):
            if worker.process.is_alive():
                continue
            # Respawn on a *fresh* task queue: a worker killed mid-
            # ``Queue.get`` dies holding the queue's reader lock, and a
            # replacement on the same queue would block on it forever.
            # Every pending task for this worker is resubmitted below, so
            # tasks stranded in the abandoned queue are covered; a task
            # the dead worker already answered runs twice, which is
            # harmless (stage-A tasks are pure) — the duplicate result is
            # dropped by task id.
            self.generation += 1
            old_tasks = worker.tasks
            worker.tasks = self._ctx.Queue()
            worker.process = self._start_worker(worker.tasks)
            old_tasks.close()
            old_tasks.cancel_join_thread()
            for owner, message in self._pending.values():
                if owner == index:
                    worker.tasks.put(message)

    def shutdown(self) -> None:
        """Stop workers and close every queue."""
        if self._closed:
            return
        self._closed = True
        try:
            for worker in self._workers:
                try:
                    worker.tasks.put_nowait(None)
                except Exception:  # pragma: no cover - queue already broken
                    pass
            for worker in self._workers:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():  # pragma: no cover - hung worker
                    worker.process.terminate()
                    worker.process.join(timeout=2.0)
        finally:
            for worker in self._workers:
                worker.tasks.close()
                worker.tasks.cancel_join_thread()
            self._results.close()
            self._results.cancel_join_thread()
            self._pending.clear()
            self._completed.clear()

    # ------------------------------------------------------------------
    # submission / collection

    def _submit(
        self,
        worker_index: int,
        config: CADConfig,
        n_sensors: int,
        chunk: tuple[dict[str, Any] | None, int, Any, bool],
        tenant: str | None = None,
    ) -> int:
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        task_id = self._task_serial
        self._task_serial += 1
        message = (task_id, tenant, config, n_sensors, chunk)
        self._pending[task_id] = (worker_index, message)
        self._workers[worker_index].tasks.put(message)
        return task_id

    def _collect_any(self) -> None:
        """Block until one pending result lands in ``_completed``.

        Duplicate results (from respawn resubmission) are dropped; a
        timeout triggers a liveness sweep so a crashed worker cannot hang
        the collection loop.
        """
        while True:
            try:
                task_id, out, exc = self._results.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                self._revive_dead_workers()
                continue
            if self._pending.pop(task_id, None) is None:
                continue  # duplicate of an already-collected task
            self._completed[task_id] = (out, exc)
            return

    def _take(self, task_id: int) -> tuple[list[RoundCommunity], dict[str, Any] | None]:
        while task_id not in self._completed:
            self._collect_any()
        out, exc = self._completed.pop(task_id)
        if exc is not None:
            raise exc
        stages, state_after = out
        return stages, state_after

    def submit_tenant_round(
        self,
        worker_index: int,
        config: CADConfig,
        n_sensors: int,
        *,
        tenant: str,
        windows: list[np.ndarray],
        pipeline_state: dict[str, Any] | None = None,
        return_state: bool = False,
    ) -> int:
        """Submit one tenant's stage-A round(s) to a specific worker.

        ``tenant`` keys the worker-side pipeline cache (shard affinity: the
        fleet always routes a tenant to the same worker, so its cache entry
        lives exactly where its rounds land).  ``windows`` is usually one
        masked window; an *empty* list is a state-sync probe — no rounds
        run, but ``return_state=True`` ships the cached pipeline state back
        (used before checkpoints while the parent copy is stale).  The
        windows are pickled when the queue's feeder thread sends them, so
        the caller must not write into them afterwards.  Returns the task
        id for :meth:`collect`.
        """
        return self._submit(
            worker_index % self.jobs,
            config,
            n_sensors,
            (pipeline_state, 0, windows, return_state),
            tenant=tenant,
        )

    def collect(
        self, task_id: int
    ) -> tuple[list[RoundCommunity], dict[str, Any] | None]:
        """Block until ``task_id`` completes; return (stages, state_after).

        Raises whatever the worker raised — notably
        :class:`StaleWorkerCacheError`, which the fleet scheduler turns
        into a state re-ship rather than a failure.
        """
        return self._take(task_id)

    def run_chunks(
        self,
        config: CADConfig,
        n_sensors: int,
        chunks: list[Chunk],
    ) -> Iterator[tuple[list[RoundCommunity], dict[str, Any] | None]]:
        """Run ``chunks`` on the pool; yield results in submission order.

        Chunk ``i`` goes to worker ``i % jobs``.  Every chunk is submitted
        up front: a chunk message is its sample span, so the bytes in
        flight stay within the segment's own samples plus the overlap of
        one window per chunk.
        """
        ids = [
            self._submit(index % self.jobs, config, n_sensors, chunk)
            for index, chunk in enumerate(chunks)
        ]
        try:
            for task_id in ids:
                yield self._take(task_id)
        finally:
            # After a failed chunk (or an abandoned iteration) the later
            # results are unwanted: forgetting their ids drops them on
            # arrival and keeps a respawn from resubmitting them.
            for task_id in ids:
                self._pending.pop(task_id, None)
                self._completed.pop(task_id, None)


# --------------------------------------------------------------------- #
# Module-level pool (one per process)
# --------------------------------------------------------------------- #

_POOL: WorkerPool | None = None
#: Floor applied to any pool's generation counter — survives pool
#: recreation so checkpoint-restored generations keep counting upward.
_GENERATION_FLOOR = 0


def get_worker_pool(jobs: int) -> WorkerPool:
    """The process-wide pool, created (or grown) on demand.

    A pool with at least ``jobs`` workers is reused as-is; a smaller one
    is replaced.  Results are bit-identical either way.  The chunk cut is
    not: :func:`iter_round_communities` sizes its chunks from the job count
    it was asked for (:func:`_chunk_bounds`), never from the pool's size.
    """
    global _POOL
    jobs = resolve_jobs(jobs)
    if _POOL is not None and not _POOL.closed and _POOL.jobs >= jobs:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown()
    _POOL = WorkerPool(jobs, generation=_GENERATION_FLOOR)
    return _POOL


def shutdown_worker_pool() -> None:
    """Tear down the process-wide pool (idempotent; used by atexit/tests)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def pool_generation() -> int:
    """Current worker-pool generation (respawns survived), for health."""
    if _POOL is not None and not _POOL.closed:
        return _POOL.generation
    return _GENERATION_FLOOR


def restore_pool_generation(generation: int) -> None:
    """Adopt a checkpointed generation counter (monotonic, never rewinds)."""
    global _GENERATION_FLOOR
    _GENERATION_FLOOR = max(_GENERATION_FLOOR, int(generation))
    if _POOL is not None and not _POOL.closed:
        _POOL.generation = max(_POOL.generation, _GENERATION_FLOOR)


atexit.register(shutdown_worker_pool)


def iter_round_communities(
    pipeline: CommunityPipeline,
    values: np.ndarray,
    n_jobs: int | None = 1,
) -> Iterator[RoundCommunity]:
    """Yield stage-A results for every window of the ``(n, T)`` ``values``.

    Windows follow the pipeline's ``(window, step)``; trailing columns that
    do not fill a step are dropped, as in
    :func:`~repro.timeseries.windows.iter_windows`.  With ``n_jobs == 1`` —
    or when the segment is too short to split at an anchor — this streams
    views of ``values`` through the caller's pipeline in-process (a pool
    round-trip for a single chunk is pure overhead).  Otherwise it fans
    refresh-aligned chunks, one sample span each, over the persistent
    worker pool, yields the (identical) results in order, and leaves the
    pipeline in the same state a sequential run would have.
    """
    window, step = pipeline.config.window, pipeline.config.step
    n_rounds = WindowSpec(window, step).n_rounds(values.shape[1])
    jobs = resolve_jobs(n_jobs)
    kernel = pipeline.kernel
    start_round = 0 if kernel is None else kernel.rounds_seen
    refresh = None if kernel is None else kernel.refresh_every
    bounds = _chunk_bounds(start_round, n_rounds, refresh, jobs) if jobs > 1 else []
    if len(bounds) < 2:
        for r in range(n_rounds):
            yield pipeline.process(values[:, r * step : r * step + window])
        return

    first_state = None if kernel is None else pipeline.to_state()
    spans = _chunk_spans(values, window, step, bounds)
    chunks: list[Chunk] = [
        (
            first_state if index == 0 else None,
            start_round + lo,
            span,
            index == len(bounds) - 1,
        )
        for index, ((lo, _), span) in enumerate(zip(bounds, spans))
    ]
    pool = get_worker_pool(jobs)
    last_state: dict[str, Any] | None = None
    for stages, state_after in pool.run_chunks(
        pipeline.config, pipeline.n_sensors, chunks
    ):
        if state_after is not None:
            last_state = state_after
        yield from stages
    if kernel is not None and last_state is not None:
        pipeline.restore_state(last_state)
