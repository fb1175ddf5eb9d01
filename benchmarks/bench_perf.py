"""Round-pipeline throughput: seed vs fast vs parallel.

Unlike the paper benchmarks (pytest modules under this directory), this is
a standalone script — run it directly:

    PYTHONPATH=src python benchmarks/bench_perf.py            # full grid
    PYTHONPATH=src python benchmarks/bench_perf.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_perf.py --quick --profile

It measures stage A of a CAD round (window -> correlation -> TSG ->
communities) across three modes over a grid of sensor counts:

``seed``
    ``engine="reference"`` — the original pipeline: full Pearson matrix
    every round, dict graph, dict Louvain.
``fast``
    ``engine="fast"``, one process — rolling-correlation kernel,
    round-over-round TSG maintenance (cached top-k candidate sets with a
    separation certificate, patched CSR assembly, anchored full re-ranks;
    DESIGN.md §10), array-backed Louvain.
``parallel``
    ``engine="fast"`` fanned over the persistent 2-worker pool
    (:func:`repro.core.parallel.iter_round_communities`): refresh-aligned
    chunks, each shipped as one sample span.  Segments too short to cut at
    an anchor run in-process, so every row records how many chunks the
    pool actually ran (``parallel_chunks``); ``--quick`` uses a refresh of
    8 so its 24 rounds cut into 3 chunks and the row checks pool output.

Timing is min-of-repeats (the box this grew up on jitters +/-10%), and
every mode's community labels are cross-checked for equality — the fast
paths must not buy speed with different answers.  Results go to
``BENCH_perf.json``; ``--profile`` adds a per-stage breakdown (correlation
update / TSG build / Louvain / co-appearance) per engine to the payload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.config import CADConfig
from repro.core.coappearance import CoAppearanceTracker
from repro.core.parallel import get_worker_pool, iter_round_communities
from repro.core.pipeline import CommunityPipeline
from repro.graph import (
    DeltaTSGBuilder,
    absolute_weight_graph,
    knn_graph,
    louvain,
    prune_weak_edges,
)
from repro.graph.csr import louvain_labels_csr
from repro.timeseries.correlation import pearson_matrix
from repro.timeseries.rolling import RollingCorrelation

MODES = ("seed", "fast", "parallel")

#: Engines whose stages --profile breaks down (parallel shares the fast
#: engine's stages, so profiling it separately would double-count).
PROFILE_MODES = ("seed", "fast")

STAGES = ("corr_update", "tsg_build", "louvain", "coappearance")


def synthetic_values(n_sensors: int, t_total: int, seed: int = 7) -> np.ndarray:
    """Correlated multi-sensor series: 8 shared drivers plus sensor noise.

    Shared drivers give the TSG real community structure, so Louvain does
    representative work instead of collapsing to singletons.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(t_total)
    periods = rng.uniform(120.0, 400.0, 8)
    phases = rng.uniform(0.0, 6.0, 8)
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


def run_mode(
    mode: str, values: np.ndarray, config: CADConfig, rounds: int, repeats: int
) -> tuple[float, list[tuple[int, ...]], int]:
    """Best per-round wall time (ms) over ``repeats`` runs, the labels, and
    the chunks one run dispatched to the pool (0 for in-process modes)."""
    n_sensors = values.shape[0]
    step, window = config.step, config.window
    segment = values[:, : (rounds - 1) * step + window]
    # Pool spin-up is a one-off process cost, not a per-round cost; warm it
    # outside the timed region like any persistent service.
    pool = get_worker_pool(2) if mode == "parallel" else None
    best_ms = float("inf")
    labels: list[tuple[int, ...]] = []
    chunks = 0
    for _ in range(repeats):
        pipeline = CommunityPipeline(config, n_sensors)
        submitted = 0 if pool is None else pool.tasks_submitted
        start = time.perf_counter()
        if pool is not None:
            stages = list(iter_round_communities(pipeline, segment, n_jobs=2))
        else:
            stages = [
                pipeline.process(segment[:, r * step : r * step + window])
                for r in range(rounds)
            ]
        elapsed_ms = (time.perf_counter() - start) * 1000.0 / rounds
        best_ms = min(best_ms, elapsed_ms)
        labels = [stage.labels for stage in stages]
        chunks = 0 if pool is None else pool.tasks_submitted - submitted
    return best_ms, labels, chunks


def profile_mode(
    mode: str, values: np.ndarray, config: CADConfig, rounds: int
) -> dict[str, float]:
    """Cumulative per-stage wall time (ms/round) for one engine.

    Runs the engine's own building blocks directly — the same calls the
    pipeline makes — with a timer between stages.  Per-stage numbers carry
    the timer-call overhead the un-instrumented pipeline does not pay, so
    they explain *where* a round's time goes rather than re-measuring the
    totals above.
    """
    n_sensors = values.shape[0]
    step, window = config.step, config.window
    k = config.effective_k(n_sensors)
    windows = [values[:, r * step : r * step + window] for r in range(rounds)]
    totals = dict.fromkeys(STAGES, 0.0)
    tracker = CoAppearanceTracker(n_sensors)
    kernel = RollingCorrelation(
        n_sensors,
        window,
        step,
        refresh_every=config.corr_refresh,
        min_overlap=config.min_overlap(),
    )
    builder = DeltaTSGBuilder(n_sensors, k, config.tau)
    for round_windows in windows:
        t0 = time.perf_counter()
        if mode == "seed":
            corr = pearson_matrix(round_windows)
        else:
            anchor = kernel.next_update_is_anchor
            corr = kernel.update(round_windows, assume_finite=True)
        t1 = time.perf_counter()
        if mode == "seed":
            tsg_dict = prune_weak_edges(knn_graph(corr, k), config.tau)
        else:
            tsg = builder.build(corr, full=anchor)
        t2 = time.perf_counter()
        if mode == "seed":
            labels_arr = np.array(louvain(absolute_weight_graph(tsg_dict)).labels)
        else:
            labels_arr = louvain_labels_csr(tsg)
        t3 = time.perf_counter()
        tracker.update(labels_arr)
        t4 = time.perf_counter()
        totals["corr_update"] += t1 - t0
        totals["tsg_build"] += t2 - t1
        totals["louvain"] += t3 - t2
        totals["coappearance"] += t4 - t3
    return {stage: round(totals[stage] * 1000.0 / rounds, 4) for stage in STAGES}


def mode_config(mode: str, args: argparse.Namespace) -> CADConfig:
    return CADConfig(
        window=args.window,
        step=args.step,
        k=args.k,
        tau=args.tau,
        engine="reference" if mode == "seed" else "fast",
        corr_refresh=args.refresh,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small grid for CI smoke (seconds instead of minutes)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="add a per-stage timing breakdown (corr/TSG/Louvain/"
        "co-appearance) per engine to the JSON payload",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_perf.json"), help="output JSON path"
    )
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--step", type=int, default=8)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument(
        "--refresh", type=int, default=None, help="corr_refresh (quick 8, full 64)"
    )
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args()

    if args.quick:
        grid = [48, 96, 256]
        args.window = args.window or 600
        args.rounds = args.rounds or 24
        args.repeats = args.repeats or 3
        args.refresh = args.refresh or 8
    else:
        grid = [48, 96, 256, 512]
        args.window = args.window or 3000
        args.rounds = args.rounds or 120
        args.repeats = args.repeats or 2
        args.refresh = args.refresh or 64

    results: list[dict] = []
    identical = True
    for n_sensors in grid:
        t_total = args.window + args.step * args.rounds
        values = synthetic_values(n_sensors, t_total)
        per_mode_ms: dict[str, float] = {}
        per_mode_labels: dict[str, list[tuple[int, ...]]] = {}
        parallel_chunks = 0
        for mode in MODES:
            config = mode_config(mode, args)
            ms, labels, chunks = run_mode(
                mode, values, config, args.rounds, args.repeats
            )
            per_mode_ms[mode] = ms
            per_mode_labels[mode] = labels
            if mode == "parallel":
                parallel_chunks = chunks
            print(
                f"n={n_sensors:4d}  {mode:<11s}  {ms:8.2f} ms/round  "
                f"{1000.0 / ms:8.1f} rounds/s"
            )
        match = all(
            per_mode_labels[mode] == per_mode_labels["seed"] for mode in MODES
        )
        identical = identical and match
        speedup = per_mode_ms["seed"] / per_mode_ms["fast"]
        print(
            f"n={n_sensors:4d}  fast {speedup:.2f}x  identical={match}  "
            f"parallel chunks={parallel_chunks}"
        )
        row = {
            "n_sensors": n_sensors,
            "ms_per_round": {m: round(per_mode_ms[m], 3) for m in MODES},
            "rounds_per_sec": {
                m: round(1000.0 / per_mode_ms[m], 2) for m in MODES
            },
            "fast_speedup": round(speedup, 2),
            "parallel_chunks": parallel_chunks,
            "outputs_identical": match,
        }
        if args.profile:
            row["profile_ms_per_round"] = {
                mode: profile_mode(mode, values, mode_config(mode, args), args.rounds)
                for mode in PROFILE_MODES
            }
            for mode in PROFILE_MODES:
                stages = row["profile_ms_per_round"][mode]
                breakdown = "  ".join(f"{s}={stages[s]:.3f}" for s in STAGES)
                print(f"n={n_sensors:4d}  profile {mode:<11s}  {breakdown}")
        results.append(row)

    payload = {
        "benchmark": "round_pipeline_throughput",
        "quick": args.quick,
        "config": {
            "window": args.window,
            "step": args.step,
            "k": args.k,
            "tau": args.tau,
            "corr_refresh": args.refresh,
            "rounds": args.rounds,
            "repeats": args.repeats,
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "results": results,
        "all_outputs_identical": identical,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not identical:
        print("FAIL: engine outputs diverged")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
