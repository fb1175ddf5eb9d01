"""In-memory span tracer that instruments the CAD layers from outside.

Spans are recorded by swapping wrappers in at the attribute each caller
looks up (a class method, or a module-level name such as
``repro.core.pipeline.louvain_labels_csr``) and swapping the originals back
when the traced pass ends, so untraced passes run the unmodified code.

Every span records its name, start, end, parent span and the round id the
benchmark loop was on when it opened.  Spans live in flat integer arrays and
are reduced (or written out) once at the end.  A span's self time is its
duration minus the durations of its direct children; the layers run on one
thread, so children never overlap and that difference is exactly the
uncovered part of the interval.
"""

from __future__ import annotations

import contextlib
import functools
import json
import pickle
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

import numpy as np


class Tracer:
    """Flat span store plus named counters for one benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._round = array("q")
        self._stack: list[int] = []
        #: Round id stamped on spans opened from now on (set by the loop).
        self.round = 0
        self.counters: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._round.append(self.round)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self._end[index] = perf_counter_ns()
        self._stack.pop()

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def __len__(self) -> int:
        return len(self._start)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: count, total and self time (ns), min self time."""
        if not self._start:
            return {}
        names = np.frombuffer(self._name, dtype=np.int64)
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        out: dict[str, dict[str, int]] = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = {
                "count": int(mask.sum()),
                "total_ns": int(duration[mask].sum()),
                "self_ns": int(self_time[mask].sum()),
                "min_self_ns": int(self_time[mask].min()),
            }
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, round."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self._start)):
                span = {
                    "id": i,
                    "name": self.names[self._name[i]],
                    "start_ns": self._start[i],
                    "end_ns": self._end[i],
                    "parent": self._parent[i],
                    "round": self._round[i],
                }
                handle.write(json.dumps(span) + "\n")


After = Callable[[tuple, dict, Any], None]


def _span(
    tracer: Tracer, name: str, fn: Callable[..., Any], after: After | None = None
) -> Callable[..., Any]:
    """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` runs outside it."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _chunk_spans(tracer: Tracer, fn: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
    """Wrap ``WorkerPool.run_chunks``: one span per chunk the parent waits on."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        inner = fn(*args, **kwargs)
        while True:
            index = tracer.open("parallel.chunk_wait")
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            tracer.counters["parallel.chunks"] += 1
            tracer.counters["parallel.chunk_rounds"] += len(item[0])
            yield item

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install span wrappers on every traced layer for the ``with`` body."""
    from repro.core import detector, pipeline, streaming
    from repro.core.parallel import WorkerPool
    from repro.fleet import manager
    from repro.ingest import frontier
    from repro.runtime import rotation, supervisor
    from repro.timeseries.rolling import RollingCorrelation

    counters = tracer.counters

    def span(name: str, after: After | None = None) -> Callable[..., Any]:
        return lambda fn: _span(tracer, name, fn, after)

    def count_sample(args: tuple, kwargs: dict, result: Any) -> None:
        counters["stream.samples"] += 1

    def count_block(args: tuple, kwargs: dict, result: Any) -> None:
        counters["stream.samples"] += np.shape(args[1])[1]

    def count_communities(args: tuple, kwargs: dict, result: Any) -> None:
        counters["graph.communities"] += result.n_communities

    def checkpoint_size(args: tuple, kwargs: dict, result: Any) -> None:
        counters["checkpoint.bytes"] += result.path.stat().st_size
        counters["checkpoint.bytes"] += result.sidecar.stat().st_size

    def shipped_bytes(args: tuple, kwargs: dict, result: Any) -> None:
        counters["parallel.bytes"] += sum(w.nbytes for w in kwargs["windows"])
        state = kwargs.get("pipeline_state")
        if state is not None:
            counters["parallel.bytes"] += len(pickle.dumps(state))

    def corr_update(fn: Callable[..., Any]) -> Callable[..., Any]:
        traced = _span(tracer, "timeseries.corr", fn)

        @functools.wraps(fn)
        def wrapper(kernel: Any, *args: Any, **kwargs: Any) -> Any:
            if kernel.next_update_is_anchor:
                counters["timeseries.anchors"] += 1
            return traced(kernel, *args, **kwargs)

        return wrapper

    sup = supervisor.StreamSupervisor
    stream = streaming.StreamingCAD
    patches: list[tuple[Any, str, Callable[[Callable[..., Any]], Callable[..., Any]]]] = [
        (RollingCorrelation, "update", corr_update),
        (pipeline, "tsg_csr", span("graph.tsg")),
        (pipeline, "louvain_labels_csr", span("graph.louvain")),
        (pipeline.CommunityPipeline, "process", span("core.stage_a", count_communities)),
        (detector.CAD, "process_window", span("core.stage_b")),
        (detector.CAD, "process_staged", span("core.stage_b")),
        (detector.CAD, "warm_up", span("core.warm_up")),
        (detector.CAD, "detect", span("core.detect")),
        (stream, "push", span("core.stream", count_sample)),
        (stream, "push_staged", span("core.stream", count_sample)),
        (stream, "push_many", span("core.stream", count_block)),
        (rotation.CheckpointRotation, "write", span("core.checkpoint_write", checkpoint_size)),
        (rotation.CheckpointRotation, "recover", span("core.checkpoint_load")),
        (frontier.IngestFrontier, "push", span("ingest.frontier")),
        (frontier.IngestFrontier, "pop_ready", span("ingest.frontier")),
        (sup, "ingest", span("runtime.supervisor")),
        (sup, "finish", span("runtime.supervisor")),
        (sup, "submit", span("runtime.supervisor")),
        (sup, "process", span("runtime.supervisor")),
        (sup, "process_staged", span("runtime.supervisor")),
        (WorkerPool, "submit_tenant_round", span("parallel.submit", shipped_bytes)),
        (WorkerPool, "collect", span("parallel.collect")),
        (WorkerPool, "run_chunks", lambda fn: _chunk_spans(tracer, fn)),
        (manager.FleetManager, "pump", span("fleet.pump")),
    ]
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, make in patches:
            setattr(owner, attr, make(vars(owner)[attr]))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
