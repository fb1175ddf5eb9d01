"""End-to-end benchmark of the CAD detector, one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload wide-stream --seed 1 --seconds 14 --trace 0

The workload's inputs are generated from ``--seed``.  One closed-loop
generator (this process) drives the system through its public API at full
speed, in passes that each rebuild the system and feed the whole job, until
``--seconds`` have passed.  Every pass's records are checked bitwise against
the reference engine on the same inputs.

``--trace 0`` prints the end-to-end metrics (``END_TO_END`` in
``metrics.py``); ``--trace 1`` alternates untraced and traced passes and
prints the per-layer split (``LAYERS``).  The last line of standard output
is one JSON object; the exit code is non-zero when any record differs from
the oracle or a pool leaves shared memory behind.

Times are corrected for host speed.  On shared virtual machines a core runs
up to 1.5x slower for seconds at a time while a neighbour is busy, which
moves every wall-clock figure together.  Each pass is bracketed by a fixed
CPU kernel; the pass's times are scaled by ``REFERENCE_KERNEL_S`` over the
kernel's measured time, i.e. reported as they would read on an uncontended
core.  The uncorrected throughput is printed alongside.
"""

import os

# Pinned before numpy is first imported: multi-threaded BLAS makes the
# correlation kernels' timings swing by 2x from run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Callable, TypeVar  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from metrics import END_TO_END, LAYERS, layer_metrics  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, Pass, RoundMark, Workload, mismatches  # noqa: E402

#: Untraced passes every run measures at least (set-up is their median).
MIN_PASSES = 3

#: ``host_kernel_seconds`` on an uncontended core of the host the bounds
#: were tuned on (2-vCPU KVM guest, Xeon at 2.1 GHz).
REFERENCE_KERNEL_S = 0.0115

_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((64, 256))

T = TypeVar("T")


def _kernel_seconds() -> float:
    start = perf_counter()
    for _ in range(10):
        _KERNEL_MATRIX @ _KERNEL_MATRIX.T
        total = 0
        for i in range(20_000):
            total += i * i
    return perf_counter() - start


def host_kernel_seconds(all_cpus: bool) -> float:
    """Time a fixed mix of BLAS and interpreter work, as the layers do.

    With ``all_cpus`` the kernel runs once pinned to each CPU and the mean is
    returned: pool workloads keep every core busy, so contention on any of
    them slows the pass.
    """
    if not all_cpus:
        return _kernel_seconds()
    mask = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(mask):
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel_seconds())
    finally:
        os.sched_setaffinity(0, mask)
    return statistics.fmean(times)


def timed(workload: Workload, work: Callable[[], T]) -> tuple[T, float]:
    """Run ``work`` bracketed by the host kernel; return it with its speed factor."""
    before = host_kernel_seconds(workload.pool)
    result = work()
    after = host_kernel_seconds(workload.pool)
    return result, 2 * REFERENCE_KERNEL_S / (before + after)


def checked(result: Pass, oracle: dict[str, list[tuple]]) -> Pass:
    """Count the pass's records that differ from the oracle, then drop them."""
    result.failed = sum(
        mismatches(result.keys.get(stream, []), expected)
        for stream, expected in oracle.items()
    )
    result.keys = {}
    return result


def timed_pass(
    workload: Workload, oracle: dict[str, list[tuple]], mark: object, traced: bool
) -> Pass:
    # The harness's own objects (inputs, oracle, earlier passes) are moved
    # out of the collector's reach, so garbage-collection pauses inside a
    # pass come from the system's own allocations.
    gc.collect()
    gc.freeze()
    result, factor = timed(workload, lambda: workload.run_pass(mark, traced))
    result.factor = factor
    return checked(result, oracle)


def percentile(passes: list[Pass], q: float) -> tuple[float, float]:
    """Median over passes of each pass's nearest-rank ``q`` latency percentile.

    ``q`` is first lowered until ten calls of the run lie beyond it: a call
    returning several records repeats its duration once per record, but is
    one sample.  Taking the median over passes keeps a burst of host
    contention inside one pass from moving the tail.  Returns
    ``(value, percentile used)``.
    """
    calls = sum(p.calls for p in passes)
    q = max(0.5, min(q, 1.0 - 10.0 / calls)) if calls > 20 else 0.5
    per_pass = []
    for p in passes:
        ordered = sorted(p.latencies_ms)
        rank = max(1, int(np.ceil(q * len(ordered))))
        per_pass.append(ordered[rank - 1] * p.factor)
    return statistics.median(per_pass), q


def rounds_per_s(passes: list[Pass]) -> float:
    return statistics.median(p.rounds / (p.feed_s * p.factor) for p in passes)


def end_to_end(passes: list[Pass], peak_mb: float) -> tuple[dict[str, float], list[str]]:
    p50, _ = percentile(passes, 0.5)
    tail, q = percentile(passes, 0.99)
    metrics = {
        "rounds_per_s": rounds_per_s(passes),
        "round_latency_p50_ms": p50,
        "round_latency_p99_ms": tail,
        "setup_s": statistics.median(p.setup_s * p.factor for p in passes),
        "peak_rss_mb": peak_mb,
    }
    raw = statistics.median(p.rounds / p.feed_s for p in passes)
    factor = statistics.median(p.factor for p in passes)
    notes = [
        f"{len(passes)} passes of {passes[0].rounds} rounds; throughput and "
        f"set-up are medians over passes",
        f"uncorrected throughput {raw:.6g} 1/s, median host speed factor {factor:.3f}",
        f"latency p50 and p{100 * q:g} of {sum(len(p.latencies_ms) for p in passes)} "
        f"records from {sum(p.calls for p in passes)} calls, medians over passes",
        "peak RSS: parent plus the largest pool worker",
    ]
    return metrics, notes


def traced_metrics(
    workload: Workload, tracer: Tracer, traced: list[Pass], untraced_rps: float
) -> dict[str, float]:
    counts: dict[str, float] = {}
    for p in traced:
        for key, value in p.counts.items():
            counts[key] = counts.get(key, 0) + value
    speedup = 0.0
    solo, factor = timed(workload, workload.solo)
    if solo is not None:
        rounds, seconds = solo
        speedup = untraced_rps / (rounds / (seconds * factor))
    return layer_metrics(
        tracer,
        counts,
        len(traced),
        sum(p.rounds for p in traced),
        overhead=untraced_rps / rounds_per_s(traced) - 1.0,
        speedup=speedup,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace-out", type=Path, help="write the traced spans as JSONL")
    args = parser.parse_args()

    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        # Shared-memory segments start the stdlib's resource-tracker
        # process; stop and reap it so nothing outlives the run.
        resource_tracker._resource_tracker._stop()


def run(args: argparse.Namespace, work_dir: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.size, work_dir)
    oracle = workload.oracle()
    expected = sum(len(keys) for keys in oracle.values())

    # One unmeasured pass first: imports, caches and allocator warm up.
    warm = checked(workload.run_pass(RoundMark(), traced=False), oracle)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracer = Tracer()
    deadline = perf_counter() + args.seconds
    while (
        perf_counter() < deadline
        or len(untraced) < MIN_PASSES
        or (args.trace and not traced)
    ):
        if args.trace and len(untraced) > len(traced):
            with instrument(tracer):
                traced.append(timed_pass(workload, oracle, tracer, traced=True))
        else:
            untraced.append(timed_pass(workload, oracle, RoundMark(), traced=False))

    passes = [warm, *untraced, *traced]
    failed = sum(p.failed for p in passes)
    leaks = sum(p.shm_leaks for p in passes)
    attempted = expected * len(passes)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peak_mb += workload.children_peak_mb()
    metrics, notes = end_to_end(untraced, peak_mb)
    units = dict(END_TO_END)
    if args.trace:
        metrics = traced_metrics(workload, tracer, traced, metrics["rounds_per_s"])
        units = {name: unit for name, (unit, _, _) in LAYERS.items()}
        notes = [f"{len(traced)} traced passes, {len(tracer)} spans"]
        if args.trace_out is not None:
            tracer.write(args.trace_out)

    host = {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **workload.host(),
    }
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}")
    print("host " + json.dumps(host, sort_keys=True))
    for note in notes:
        print("  " + note)
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(
        f"  oracle: {attempted - failed}/{attempted} rounds bitwise equal "
        f"(failed_frac {failed / attempted:g}), shm leaks {leaks}"
    )
    correct = failed == 0 and leaks == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
