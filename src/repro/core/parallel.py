"""Parallel offline execution of stage A (window -> communities).

``CAD.warm_up`` and ``CAD.detect`` see all their windows up front, so the
expensive stage-A work can fan out over worker processes while stage B (the
sequential tracker/moments replay) stays in the main process.  The output
is **bit-identical** to a sequential run for any job count:

* The reference engine has no cross-round state at all — every chunk split
  is trivially safe.
* The fast engine's cross-round state (the rolling-correlation kernel and
  the TSG builder's candidate sets) re-anchors itself whenever
  ``absolute_round % corr_refresh == 0``: the kernel refreshes exactly and
  the builder re-ranks every row from scratch.  At an anchor the
  post-round state is a function of the current window and the
  round counter alone, so a worker that starts a *fresh* pipeline at an
  anchor round reproduces the sequential pipeline's state exactly.  Chunks
  are therefore cut only at anchor rounds; the first (possibly unaligned)
  chunk ships the live pipeline state instead.

The main pipeline adopts the last chunk's final state afterwards, so a
subsequent streaming ``process_window`` continues exactly where a
sequential run would have.

Worker-pool design (DESIGN.md §10).  A naive ``ProcessPoolExecutor`` per
call pays process spawn plus a pickled copy of every window each time, which
swamps the parallel win for small sensor counts.  This module instead keeps
one persistent :class:`WorkerPool` per process:

* Workers are long-lived and survive across ``warm_up``/``detect`` calls
  (and across :class:`~repro.runtime.supervisor.StreamSupervisor` watchdog
  retries — recovery restores detector state, not the pool).
* Windows travel through ``multiprocessing.shared_memory`` ring slots —
  two per worker, sized on demand — so a chunk submission is one bulk
  ``memcpy`` into the slot plus a tiny task message; workers build numpy
  views directly over the slot (zero copy on the read side).  A slot is
  never rewritten until the result of the task that last used it has been
  collected, and slot names are never reused, so reader and writer can
  never overlap.
* A worker that dies mid-task is respawned on the same queues (the pool's
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
import itertools
import math
import os
import queue
import multiprocessing as mp
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Iterable, Iterator

import numpy as np

from .config import CADConfig
from .pipeline import CommunityPipeline, RoundCommunity

#: Chunks per worker the scheduler aims for — enough slack to balance load
#: without drowning in task-dispatch overhead.
_CHUNKS_PER_JOB = 4

#: Shared-memory ring slots per worker.  Two lets the parent stage chunk
#: ``i + jobs`` while the worker still computes chunk ``i``.
_SLOTS_PER_WORKER = 2

#: How long a result wait blocks before checking workers for liveness.
_POLL_SECONDS = 0.1

#: Process-wide counters feeding shared-memory slot names.  Two pools (or
#: one pool recreated across a fleet restart) must never mint the same
#: segment name: a stale attachment in a long-lived worker would silently
#: alias a fresh slot's buffer.  ``_POOL_SERIAL`` distinguishes pool
#: instances, ``_SLOT_NAME_COUNTER`` is monotonic across every pool in the
#: process, and the pool generation rides in the name for debuggability.
_POOL_SERIAL = itertools.count()
_SLOT_NAME_COUNTER = itertools.count()


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


def _stage_chunk(
    config: CADConfig,
    n_sensors: int,
    pipeline_state: dict[str, Any] | None,
    start_round: int,
    windows: list[np.ndarray],
    return_state: bool,
) -> tuple[list[RoundCommunity], dict[str, Any] | None]:
    """Worker entry point: run stage A over one chunk of windows.

    ``pipeline_state`` seeds the first (unaligned) chunk; every other chunk
    starts a fresh pipeline positioned at its anchor ``start_round`` — the
    anchor's unconditional refresh/re-rank makes the fresh state exact.
    Only the final chunk serialises its state back (``return_state``) —
    that state includes a full window, which is not worth shipping per
    chunk.
    """
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


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


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
    Windows are *copied* out of the shared slot: unlike chunk tasks, the
    cached pipeline outlives this task and the fast engine's kernel keeps the
    previous window by reference, which must not alias a slot the parent
    will rewrite.
    """
    pipeline = cache.get(tenant)
    if pipeline_state is not None or pipeline is None:
        pipeline = CommunityPipeline(config, n_sensors)
        if pipeline.kernel is not None:
            if pipeline_state is None:
                raise StaleWorkerCacheError(tenant)
            pipeline.restore_state(pipeline_state)
        cache[tenant] = pipeline
    stages = [pipeline.process(np.array(window)) for window in windows]
    state_after = None
    if return_state and pipeline.kernel is not None:
        state_after = pipeline.to_state()
    return stages, state_after


def _pool_worker(tasks: Any, results: Any) -> None:
    """Long-lived worker loop: attach slots by name, stage chunks, reply.

    Attachments are cached across tasks (reattaching is a syscall per
    task otherwise) and closed when the parent retires a slot name or the
    loop exits.  NumPy views over a slot's buffer are dropped before any
    close — an outstanding view would make ``close`` raise
    ``BufferError``.
    """
    attachments: dict[str, shared_memory.SharedMemory] = {}
    tenant_pipelines: dict[str, CommunityPipeline] = {}
    try:
        while True:
            task = tasks.get()
            if task is None:
                return
            (
                task_id,
                slot_name,
                shape,
                config,
                n_sensors,
                pipeline_state,
                start_round,
                return_state,
                tenant,
                retired,
            ) = task
            for name in retired:
                old = attachments.pop(name, None)
                if old is not None:
                    old.close()
            block = None
            windows: list[np.ndarray] | None = None
            try:
                try:
                    shm = attachments.get(slot_name)
                    if shm is None:
                        # Attaching registers the name with the parent's
                        # resource tracker (see WorkerPool._start_worker),
                        # which already holds it: a no-op.  Unregistering
                        # here would erase the parent's own registration.
                        shm = shared_memory.SharedMemory(name=slot_name)
                        attachments[slot_name] = shm
                    block = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
                    windows = [block[i] for i in range(shape[0])]
                    if tenant is not None:
                        out = _stage_tenant_rounds(
                            tenant_pipelines,
                            tenant,
                            config,
                            n_sensors,
                            pipeline_state,
                            windows,
                            return_state,
                        )
                    else:
                        out = _stage_chunk(
                            config,
                            n_sensors,
                            pipeline_state,
                            start_round,
                            windows,
                            return_state,
                        )
                    payload = (task_id, out, None)
                except BaseException as exc:
                    payload = (task_id, None, exc)
            finally:
                # Views into the slot buffer must die before the buffer
                # can ever be closed; the pipeline that borrowed them was
                # local to _stage_chunk and is already gone.
                del block, windows
            results.put(payload)
            payload = None
    finally:
        for shm in attachments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - views are dropped above
                pass


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


class _Slot:
    """One shared-memory staging slot owned by the parent."""

    __slots__ = ("shm", "name", "capacity", "busy")

    def __init__(self, shm: shared_memory.SharedMemory, name: str) -> None:
        self.shm = shm
        self.name = name
        self.capacity = shm.size
        #: task id currently reading this slot, or None when free.
        self.busy: int | None = None


class _WorkerHandle:
    """A worker process plus its private task queue and staging slots."""

    __slots__ = ("process", "tasks", "slots", "retired")

    def __init__(self, process: Any, tasks: Any) -> None:
        self.process = process
        self.tasks = tasks
        self.slots: list[_Slot | None] = [None] * _SLOTS_PER_WORKER
        #: slot names replaced since the last task message — shipped with
        #: the next message so the worker drops its stale attachments.
        self.retired: list[str] = []


class _Pending:
    __slots__ = ("worker", "ring", "message")

    def __init__(self, worker: int, ring: int, message: tuple) -> None:
        self.worker = worker
        self.ring = ring
        self.message = message


class WorkerPool:
    """Persistent process pool with shared-memory window transport.

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
        self._pending: dict[int, _Pending] = {}
        self._completed: dict[int, tuple[Any, BaseException | None]] = {}
        self._task_serial = 0
        self._pool_serial = next(_POOL_SERIAL)
        self._closed = False
        for _ in range(self.jobs):
            self._workers.append(self._spawn_worker())

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # lifecycle

    def _start_worker(self, tasks: Any) -> Any:
        # Every start method hands children the parent's resource tracker
        # if it is running — fork inherits it, spawn/forkserver pass its
        # fd — so workers' slot attachments register where the parent's
        # slots already are.  Only a fork before the tracker first starts
        # would leave a worker to launch a private tracker, which unlinks
        # every segment the worker attached when the worker exits.
        resource_tracker.ensure_running()
        process = self._ctx.Process(
            target=_pool_worker, args=(tasks, self._results), daemon=True
        )
        process.start()
        return process

    def _spawn_worker(self) -> _WorkerHandle:
        tasks = self._ctx.Queue()
        return _WorkerHandle(self._start_worker(tasks), tasks)

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
            # harmless (stage-A tasks are pure, slots are read-only to
            # workers) — the duplicate result is dropped by task id.
            self.generation += 1
            old_tasks = worker.tasks
            worker.tasks = self._ctx.Queue()
            worker.process = self._start_worker(worker.tasks)
            old_tasks.close()
            old_tasks.cancel_join_thread()
            for entry in self._pending.values():
                if entry.worker == index:
                    worker.tasks.put(entry.message)

    def shutdown(self) -> None:
        """Stop workers and release every shared-memory slot."""
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
            try:
                for worker in self._workers:
                    for slot in worker.slots:
                        if slot is None:
                            continue
                        # Per-slot isolation: a close() that raises (e.g.
                        # BufferError from a still-exported buffer view)
                        # must not skip the unlink of *this* slot or the
                        # cleanup of the remaining ones — an unlinked
                        # segment is reclaimed by the OS either way, a
                        # skipped unlink leaks /dev/shm past process exit.
                        try:
                            slot.shm.close()
                        except Exception:  # pragma: no cover - see above
                            pass
                        finally:
                            try:
                                slot.shm.unlink()
                            except Exception:  # pragma: no cover
                                pass
                    worker.slots = [None] * _SLOTS_PER_WORKER
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

    def _ensure_slot(self, worker: _WorkerHandle, ring: int, nbytes: int) -> _Slot:
        slot = worker.slots[ring]
        if slot is not None and slot.capacity >= nbytes:
            return slot
        if slot is not None:
            # Grow by replacement under a fresh name (resizing a mapped
            # segment in place is not portable).  The old name is shipped
            # to the worker with the next task so it drops its attachment;
            # unlinking now is safe — attached readers keep the segment
            # alive until they close it.
            worker.retired.append(slot.name)
            try:
                slot.shm.close()
            except Exception:  # pragma: no cover - exported view still live
                pass
            finally:
                try:
                    slot.shm.unlink()
                except Exception:  # pragma: no cover
                    pass
        # Process-wide unique name: pid + pool serial + pool generation +
        # a monotonic counter shared by every pool in the process.  A
        # per-pool counter alone can collide when two pools coexist (or a
        # fleet restart recreates the pool) and a long-lived worker still
        # holds an attachment under the stale name.
        name = (
            f"repro-{os.getpid()}-p{self._pool_serial}"
            f"g{self.generation}-{next(_SLOT_NAME_COUNTER)}"
        )
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 8))
        fresh = _Slot(shm, name)
        worker.slots[ring] = fresh
        return fresh

    def _submit(
        self,
        worker_index: int,
        ring: int,
        config: CADConfig,
        n_sensors: int,
        chunk: tuple[dict[str, Any] | None, int, list[np.ndarray], bool],
        tenant: str | None = None,
    ) -> int:
        pipeline_state, start_round, windows, return_state = chunk
        worker = self._workers[worker_index]
        window_len = int(windows[0].shape[1]) if windows else int(config.window)
        shape = (len(windows), n_sensors, window_len)
        nbytes = shape[0] * shape[1] * shape[2] * 8
        slot = self._ensure_slot(worker, ring, nbytes)
        if windows:
            block = np.ndarray(shape, dtype=np.float64, buffer=slot.shm.buf)
            for i, window in enumerate(windows):
                block[i] = window
            del block  # view must not outlive the slot (close would raise)
        task_id = self._task_serial
        self._task_serial += 1
        message = (
            task_id,
            slot.name,
            shape,
            config,
            n_sensors,
            pipeline_state,
            start_round,
            return_state,
            tenant,
            tuple(worker.retired),
        )
        worker.retired.clear()
        slot.busy = task_id
        self._pending[task_id] = _Pending(worker_index, ring, message)
        worker.tasks.put(message)
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
            entry = self._pending.pop(task_id, None)
            if entry is None:
                continue  # duplicate of an already-collected task
            slot = self._workers[entry.worker].slots[entry.ring]
            if slot is not None and slot.busy == task_id:
                slot.busy = None
            self._completed[task_id] = (out, exc)
            return

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
        (used before checkpoints while the parent copy is stale).  Blocks
        until the worker has a free ring slot; returns the task id for
        :meth:`collect`.
        """
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        worker_index = worker_index % self.jobs
        while True:
            worker = self._workers[worker_index]
            for ring in range(_SLOTS_PER_WORKER):
                slot = worker.slots[ring]
                if slot is None or slot.busy is None:
                    return self._submit(
                        worker_index,
                        ring,
                        config,
                        n_sensors,
                        (pipeline_state, 0, windows, return_state),
                        tenant=tenant,
                    )
            self._collect_any()  # both rings feeding earlier tasks

    def collect(
        self, task_id: int
    ) -> tuple[list[RoundCommunity], dict[str, Any] | None]:
        """Block until ``task_id`` completes; return (stages, state_after).

        Raises whatever the worker raised — notably
        :class:`StaleWorkerCacheError`, which the fleet scheduler turns
        into a state re-ship rather than a failure.
        """
        while task_id not in self._completed:
            self._collect_any()
        out, exc = self._completed.pop(task_id)
        if exc is not None:
            raise exc
        stages, state_after = out
        return stages, state_after

    def run_chunks(
        self,
        config: CADConfig,
        n_sensors: int,
        chunks: list[tuple[dict[str, Any] | None, int, list[np.ndarray], bool]],
    ) -> Iterator[tuple[list[RoundCommunity], dict[str, Any] | None]]:
        """Run ``chunks`` on the pool; yield results in submission order.

        Chunk ``i`` maps to worker ``i % jobs``, ring slot
        ``(i // jobs) % 2`` — deterministic, so a chunk's slot is only
        ever contended by the chunk ``2 * jobs`` positions earlier, whose
        result has long been collected by the time it matters.
        """
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        total = len(chunks)
        ids: list[int | None] = [None] * total
        submitted = 0

        def submit_ready() -> None:
            nonlocal submitted
            while submitted < total:
                worker_index = submitted % self.jobs
                ring = (submitted // self.jobs) % _SLOTS_PER_WORKER
                slot = self._workers[worker_index].slots[ring]
                if slot is not None and slot.busy is not None:
                    return  # slot still feeding an earlier task
                ids[submitted] = self._submit(
                    worker_index, ring, config, n_sensors, chunks[submitted]
                )
                submitted += 1

        for position in range(total):
            while True:
                submit_ready()
                task_id = ids[position]
                if task_id is not None and task_id in self._completed:
                    break
                self._collect_any()
            out, exc = self._completed.pop(task_id)
            if exc is not None:
                raise exc
            yield out


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
    is replaced.  Results are bit-identical either way — worker count only
    affects scheduling, never chunking.
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
    windows: Iterable[np.ndarray],
    n_jobs: int | None = 1,
) -> Iterator[RoundCommunity]:
    """Yield stage-A results for ``windows`` in round order.

    With ``n_jobs == 1`` — or when the segment is too short to split at an
    anchor — this streams through the caller's pipeline in-process (a pool
    round-trip for a single chunk is pure overhead, which is what made the
    old per-call pool *slower* than sequential at small ``n``).  Otherwise
    it fans refresh-aligned chunks over the persistent worker pool, yields
    the (identical) results in order, and leaves the pipeline in the same
    state a sequential run would have.
    """
    jobs = resolve_jobs(n_jobs)
    if jobs == 1:
        for window in windows:
            yield pipeline.process(window)
        return

    window_list = [np.ascontiguousarray(w, dtype=np.float64) for w in windows]
    n_rounds = len(window_list)
    if n_rounds == 0:
        return

    kernel = pipeline.kernel
    start_round = 0 if kernel is None else kernel.rounds_seen
    refresh = None if kernel is None else kernel.refresh_every
    bounds = _chunk_bounds(start_round, n_rounds, refresh, jobs)
    if len(bounds) == 1:
        for window in window_list:
            yield pipeline.process(window)
        return

    first_state = None if kernel is None else pipeline.to_state()
    chunks = [
        (
            first_state if index == 0 else None,
            start_round + lo,
            window_list[lo:hi],
            index == len(bounds) - 1,
        )
        for index, (lo, hi) in enumerate(bounds)
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
