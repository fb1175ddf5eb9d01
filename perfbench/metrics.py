"""The benchmark's metric tables and the reduction of traced spans.

``END_TO_END`` and ``LAYERS`` are the ``end_to_end`` and ``per_layer`` lists
of ``BENCHMARK.json`` (names and units).  For each layer metric, ``moves``
records which end-to-end metrics on which workloads a change to that layer
should move.  A layer that does not run in a workload reports 0 there.
"""

from __future__ import annotations

from typing import Any

from tracing import Tracer

WIDE, DELIVERY, FLEET, BATCH = "wide-stream", "delivery-supervised", "fleet-8", "batch-detect"
STREAMING = (WIDE, DELIVERY, FLEET)


def _moves(metrics: tuple[str, ...], workloads: tuple[str, ...]) -> dict[str, list[str]]:
    return {"metrics": list(metrics), "workloads": list(workloads)}


RPS, P50, P99, SETUP = "rounds_per_s", "round_latency_p50_ms", "round_latency_p99_ms", "setup_s"

#: name -> unit, measured with tracing off.
END_TO_END = {
    RPS: "1/s",
    P50: "ms",
    P99: "ms",
    SETUP: "s",
    "peak_rss_mb": "MB",
}

#: name -> (unit, better, what it should move)
LAYERS: dict[str, tuple[str, str, dict[str, list[str]]]] = {
    "timeseries.corr_ms_per_round": ("ms", "lower", _moves((RPS, P50, SETUP), (WIDE,))),
    "timeseries.anchor_frac": ("ratio", "lower", _moves((RPS, P50, SETUP), (WIDE,))),
    "graph.tsg_ms_per_round": ("ms", "lower", _moves((RPS, P50), (WIDE,))),
    "graph.louvain_ms_per_round": ("ms", "lower", _moves((RPS, P50), (WIDE,))),
    "graph.louvain_share": ("ratio", "lower", _moves((RPS, P50), (WIDE,))),
    "graph.communities_per_round": ("count", "lower", _moves((RPS, P50), (WIDE,))),
    "core.stage_a_ms_per_round": ("ms", "lower", _moves((RPS,), STREAMING)),
    "core.stage_b_ms_per_round": ("ms", "lower", _moves((RPS,), STREAMING)),
    "core.stream_us_per_sample": ("us", "lower", _moves((RPS,), STREAMING)),
    "core.checkpoint_ms_per_write": ("ms", "lower", _moves((P99,), (DELIVERY,))),
    "core.checkpoint_kb": ("KiB", "lower", _moves((P99,), (DELIVERY,))),
    "core.checkpoint_load_ms": ("ms", "lower", _moves((P99,), (DELIVERY,))),
    "ingest.us_per_envelope": ("us", "lower", _moves((RPS, P50), (DELIVERY,))),
    "ingest.envelopes_per_row": ("count", "lower", _moves((RPS, P50), (DELIVERY,))),
    "ingest.reordered_frac": ("ratio", "lower", _moves((RPS, P50), (DELIVERY,))),
    "ingest.deduped_frac": ("ratio", "lower", _moves((RPS, P50), (DELIVERY,))),
    "ingest.late_dropped_frac": ("ratio", "lower", _moves((RPS, P50), (DELIVERY,))),
    "ingest.pending_rows_max": ("count", "lower", _moves((RPS, P50), (DELIVERY,))),
    "runtime.supervisor_us_per_sample": ("us", "lower", _moves((RPS, P99), (DELIVERY, FLEET))),
    "runtime.replay_frac": ("ratio", "lower", _moves((RPS, P99), (DELIVERY, FLEET))),
    "runtime.crashes_recovered": ("count", "lower", _moves((RPS, P99), (DELIVERY, FLEET))),
    "runtime.checkpoints": ("count", "lower", _moves((RPS, P99), (DELIVERY, FLEET))),
    "runtime.queue_high_watermark": ("count", "lower", _moves((RPS, P99), (DELIVERY, FLEET))),
    "parallel.submit_us_per_round": ("us", "lower", _moves((RPS,), (FLEET,))),
    "parallel.collect_wait_ms_per_round": ("ms", "lower", _moves((RPS,), (FLEET,))),
    "parallel.bytes_per_round": ("B", "lower", _moves((RPS,), (FLEET,))),
    "parallel.offload_frac": ("ratio", "higher", _moves((RPS,), (FLEET,))),
    "parallel.fallbacks": ("count", "lower", _moves((RPS,), (FLEET,))),
    "parallel.chunks": ("count", "lower", _moves((RPS,), (BATCH,))),
    "parallel.chunk_wait_ms": ("ms", "lower", _moves((RPS,), (BATCH,))),
    "fleet.scheduler_us_per_cycle": ("us", "lower", _moves((RPS,), (FLEET,))),
    "fleet.cycles": ("count", "lower", _moves((RPS,), (FLEET,))),
    "fleet.speedup_vs_solo": ("x", "higher", _moves((RPS,), (FLEET,))),
    "trace.overhead_frac": ("ratio", "lower", _moves((RPS,), (WIDE, DELIVERY, FLEET, BATCH))),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    counts: dict[str, float],
    n_passes: int,
    rounds: int,
    overhead: float,
    speedup: float,
) -> dict[str, float]:
    """Reduce the traced passes' spans and counters to the ``LAYERS`` metrics.

    ``counts`` sums the per-pass counters of the traced passes and ``rounds``
    the rounds they processed; counts reported per pass are averages.
    """
    spans = tracer.summary()
    c = tracer.counters
    empty = {"count": 0, "total_ns": 0, "self_ns": 0}

    def span(name: str) -> dict[str, Any]:
        return spans.get(name, empty)

    def per_call(name: str, scale: float, field: str = "total_ns") -> float:
        entry = span(name)
        return _ratio(entry[field] * scale, entry["count"])

    ms, us = 1e-6, 1e-3
    stage_a, collect, chunk = (
        span("core.stage_a"),
        span("parallel.collect"),
        span("parallel.chunk_wait"),
    )
    stage_b_ns, stage_b_rounds = span("core.stage_b")["self_ns"], span("core.stage_b")["count"]
    if not stage_b_rounds:
        # Offline jobs apply stage B inside warm_up/detect themselves.
        stage_b_ns = span("core.warm_up")["self_ns"] + span("core.detect")["self_ns"]
        stage_b_rounds = rounds
    inputs = counts.get("inputs", 0)
    envelopes = counts.get("envelopes", 0)
    supervisor = span("runtime.supervisor")
    checkpoint_writes = span("core.checkpoint_write")["count"]
    samples = c["stream.samples"]
    return {
        "timeseries.corr_ms_per_round": per_call("timeseries.corr", ms),
        "timeseries.anchor_frac": _ratio(
            c["timeseries.anchors"], span("timeseries.corr")["count"]
        ),
        "graph.tsg_ms_per_round": per_call("graph.tsg", ms),
        "graph.louvain_ms_per_round": per_call("graph.louvain", ms),
        "graph.louvain_share": _ratio(span("graph.louvain")["total_ns"], stage_a["total_ns"]),
        "graph.communities_per_round": _ratio(c["graph.communities"], stage_a["count"]),
        # Stage A in pool workers is invisible here: the parent's wait on
        # collect (fleet) or on each chunk (offline) stands in for it.
        "core.stage_a_ms_per_round": _ratio(
            (stage_a["total_ns"] + collect["total_ns"] + chunk["total_ns"]) * ms,
            stage_a["count"] + collect["count"] + c["parallel.chunk_rounds"],
        ),
        "core.stage_b_ms_per_round": _ratio(stage_b_ns * ms, stage_b_rounds),
        "core.stream_us_per_sample": _ratio(span("core.stream")["self_ns"] * us, samples),
        "core.checkpoint_ms_per_write": per_call("core.checkpoint_write", ms),
        "core.checkpoint_kb": _ratio(c["checkpoint.bytes"] / 1024, checkpoint_writes),
        "core.checkpoint_load_ms": per_call("core.checkpoint_load", ms),
        "ingest.us_per_envelope": _ratio(span("ingest.frontier")["self_ns"] * us, envelopes),
        "ingest.envelopes_per_row": _ratio(envelopes, counts.get("rows", 0)),
        "ingest.reordered_frac": _ratio(counts.get("reordered", 0), envelopes),
        "ingest.deduped_frac": _ratio(counts.get("deduped", 0), envelopes),
        "ingest.late_dropped_frac": _ratio(counts.get("late_dropped", 0), envelopes),
        "ingest.pending_rows_max": tracer.maxima.get("ingest.pending_rows", 0),
        "runtime.supervisor_us_per_sample": _ratio(
            supervisor["self_ns"] * us, inputs if supervisor["count"] else 0
        ),
        # Stream pushes beyond the inputs are replays after a crash.
        "runtime.replay_frac": _ratio(samples - inputs, inputs) if samples else 0.0,
        "runtime.crashes_recovered": _ratio(counts.get("crashes", 0), n_passes),
        "runtime.checkpoints": _ratio(counts.get("checkpoints", 0), n_passes),
        "runtime.queue_high_watermark": _ratio(counts.get("queue_hwm", 0), n_passes),
        "parallel.submit_us_per_round": per_call("parallel.submit", us),
        "parallel.collect_wait_ms_per_round": per_call("parallel.collect", ms),
        "parallel.bytes_per_round": _ratio(c["parallel.bytes"], span("parallel.submit")["count"]),
        "parallel.offload_frac": _ratio(counts.get("offloaded", 0), rounds),
        "parallel.fallbacks": _ratio(counts.get("fallbacks", 0), n_passes),
        "parallel.chunks": _ratio(c["parallel.chunks"], n_passes),
        "parallel.chunk_wait_ms": per_call("parallel.chunk_wait", ms),
        "fleet.scheduler_us_per_cycle": per_call("fleet.pump", us, "self_ns"),
        "fleet.cycles": _ratio(span("fleet.pump")["count"], n_passes),
        "fleet.speedup_vs_solo": speedup,
        "trace.overhead_frac": overhead,
    }
