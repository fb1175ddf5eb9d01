"""Parallel offline detection must be bit-identical to sequential runs.

The chunk scheduler cuts a detection segment only at the rolling kernel's
exact-refresh anchors, so a worker's fresh kernel reproduces the sequential
kernel's float state — making ``n_jobs`` purely a throughput knob.  These
tests compare full :class:`RoundRecord` sequences (dataclass equality
covers every field, floats included), the assembled anomalies, and the
post-run detector state across job counts.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CAD, CADConfig, StreamingCAD
from repro.core.parallel import (
    StaleWorkerCacheError,
    _chunk_bounds,
    _chunk_spans,
    _chunk_windows,
    get_worker_pool,
    pool_generation,
    resolve_jobs,
    restore_pool_generation,
    shutdown_worker_pool,
)
from repro.core.pipeline import CommunityPipeline
from repro.timeseries import MultivariateTimeSeries, WindowSpec, iter_windows

SRC = Path(__file__).resolve().parents[1] / "src"


def make_series(seed=0, n_sensors=9, length=1400, missing_rate=0.0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    drivers = np.vstack(
        [
            np.sin(2 * np.pi * t / rng.uniform(18, 40) + rng.uniform(0, 6))
            for _ in range(3)
        ]
    )
    values = np.empty((n_sensors, length))
    for i in range(n_sensors):
        values[i] = (
            rng.uniform(0.8, 1.2) * drivers[i % 3]
            + 0.05 * rng.standard_normal(length)
        )
    # Correlation break on two sensors in the second half.
    lo, hi = int(0.64 * length), int(0.75 * length)
    values[0, lo:hi] = np.cos(np.linspace(0, 47, hi - lo))
    values[3, lo:hi] = np.cos(np.linspace(0, 31, hi - lo))
    allow_missing = missing_rate > 0.0
    if allow_missing:
        mask = rng.random(values.shape) < missing_rate
        values = values.copy()
        values[mask] = np.nan
        values[5, 200:600] = np.nan  # one sensor goes fully dark for a while
    return MultivariateTimeSeries(values, allow_missing=allow_missing)


def assert_state_equal(a, b):
    """Deep equality over detector state dicts (numpy arrays, NaN included)."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys()
        for key in a:
            assert_state_equal(a[key], b[key])
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_state_equal(x, y)
    elif isinstance(a, float) and isinstance(b, float) and np.isnan(a):
        assert np.isnan(b)  # NaN markers in degraded windows compare equal
    else:
        assert a == b


def make_config(**overrides):
    params = dict(
        window=70,
        step=7,
        k=4,
        tau=0.5,
        theta=0.2,
        rc_mode="window",
        rc_window=6,
        corr_refresh=8,
    )
    params.update(overrides)
    return CADConfig(**params)


class TestResolveJobs:
    def test_defaults_and_all_cpus(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-1) >= 1

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestChunkBounds:
    def test_cuts_only_on_anchors(self):
        refresh = 8
        for start in (0, 3, 8, 13):
            bounds = _chunk_bounds(start, 50, refresh, jobs=4)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == 50
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo
                assert (start + lo) % refresh == 0  # anchor-aligned cut
            total = sum(hi - lo for lo, hi in bounds)
            assert total == 50

    def test_reference_engine_splits_evenly(self):
        bounds = _chunk_bounds(0, 100, None, jobs=4)
        assert bounds[0] == (0, 7)
        assert bounds[-1][1] == 100

    def test_segment_shorter_than_refresh(self):
        assert _chunk_bounds(3, 4, 64, jobs=4) == [(0, 4)]


@given(
    n=st.integers(2, 6),
    window=st.integers(2, 30),
    step_frac=st.floats(0.0, 1.0),
    rounds=st.integers(1, 60),
    tail=st.integers(0, 29),
    start_round=st.integers(0, 200),
    refresh=st.one_of(st.none(), st.integers(1, 40)),
    jobs=st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_chunk_spans_hold_exactly_their_windows(
    n, window, step_frac, rounds, tail, start_round, refresh, jobs
):
    """Each chunk ships one sample span: its windows, bitwise, and no more."""
    step = 1 + int(step_frac * (window - 2))  # 1 <= step < window
    length = window + step * (rounds - 1) + tail % step
    values = np.random.default_rng(rounds).standard_normal((n, length))
    series = MultivariateTimeSeries(values)
    expected = list(iter_windows(series, WindowSpec(window, step)))
    assert len(expected) == rounds
    bounds = _chunk_bounds(start_round, rounds, refresh, jobs)
    spans = _chunk_spans(series.values, window, step, bounds)
    assert len(spans) == len(bounds)
    for (lo, hi), span in zip(bounds, spans):
        m = hi - lo
        assert span.size == n * (window + step * (m - 1))
        windows = _chunk_windows(span, window, step)
        assert len(windows) == m
        for offset, got in enumerate(windows):
            assert got.tobytes() == expected[lo + offset].tobytes()


class TestParallelDetect:
    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_identical_to_sequential(self, n_jobs):
        series = make_series()
        sequential = CAD(make_config(), series.n_sensors)
        parallel = CAD(make_config(), series.n_sensors)
        result_seq = sequential.detect(series)
        result_par = parallel.detect(series, n_jobs=n_jobs)
        assert result_par.rounds == result_seq.rounds
        assert result_par.anomalies == result_seq.anomalies
        assert parallel.moments == sequential.moments
        # Full post-run state (kernel sums included) must match, so any
        # later streaming continues identically.
        assert_state_equal(parallel.to_state(), sequential.to_state())

    def test_identical_after_warm_up_unaligned_chunks(self):
        # Warm-up leaves the kernel mid-interval (25 rounds, refresh 8), so
        # the parallel detect's first chunk must ship live kernel state.
        series = make_series(seed=5)
        history = MultivariateTimeSeries(make_series(seed=6).values[:, :250])
        sequential = CAD(make_config(), series.n_sensors)
        parallel = CAD(make_config(), series.n_sensors)
        assert sequential.warm_up(history) == parallel.warm_up(history)
        result_seq = sequential.detect(series)
        result_par = parallel.detect(series, n_jobs=3)
        assert result_par.rounds == result_seq.rounds
        assert_state_equal(parallel.to_state(), sequential.to_state())

    def test_parallel_warm_up_identical(self):
        history = make_series(seed=7)
        sequential = CAD(make_config(), history.n_sensors)
        parallel = CAD(make_config(), history.n_sensors)
        assert sequential.warm_up(history) == parallel.warm_up(history, n_jobs=4)
        assert_state_equal(parallel.to_state(), sequential.to_state())

    def test_degraded_data_identical(self):
        series = make_series(seed=9, missing_rate=0.02)
        config = make_config(allow_missing=True)
        sequential = CAD(config, series.n_sensors)
        parallel = CAD(config, series.n_sensors)
        result_seq = sequential.detect(series)
        result_par = parallel.detect(series, n_jobs=4)
        assert result_par.rounds == result_seq.rounds
        assert any(r.quality is not None and r.quality.degraded for r in result_seq.rounds)
        assert_state_equal(parallel.to_state(), sequential.to_state())

    def test_config_n_jobs_is_used_by_default(self):
        series = make_series(seed=10, length=900)
        via_config = CAD(make_config(n_jobs=2), series.n_sensors)
        sequential = CAD(make_config(), series.n_sensors)
        assert via_config.detect(series).rounds == sequential.detect(series).rounds

    def test_reference_engine_parallel_identical(self):
        series = make_series(seed=11, length=900)
        config = make_config(engine="reference")
        sequential = CAD(config, series.n_sensors)
        parallel = CAD(config, series.n_sensors)
        assert (
            parallel.detect(series, n_jobs=3).rounds
            == sequential.detect(series).rounds
        )


class TestWorkerPool:
    """The persistent worker pool: reuse, respawn, error paths."""

    def test_pool_persists_across_calls(self):
        shutdown_worker_pool()
        pool = get_worker_pool(2)
        assert get_worker_pool(2) is pool
        series = make_series(seed=22, length=900)
        CAD(make_config(), series.n_sensors).detect(series, n_jobs=2)
        assert get_worker_pool(2) is pool, "detect must reuse the pool"
        grown = get_worker_pool(3)
        assert grown is not pool and pool.closed

    def test_delta_engine_parallel_identical(self):
        series = make_series(seed=21)
        config = make_config(engine="fast")
        reference = CAD(make_config(engine="reference"), series.n_sensors)
        sequential = CAD(config, series.n_sensors)
        parallel = CAD(config, series.n_sensors)
        result_seq = sequential.detect(series)
        result_par = parallel.detect(series, n_jobs=3)
        assert result_par.rounds == result_seq.rounds
        assert result_par.rounds == reference.detect(series).rounds
        assert result_par.anomalies == result_seq.anomalies
        # The TSG candidate cache must land where a sequential run would
        # leave it.
        assert_state_equal(parallel.to_state(), sequential.to_state())

    def test_worker_death_respawns_and_stays_identical(self):
        series = make_series(seed=20)
        sequential = CAD(make_config(), series.n_sensors)
        result_seq = sequential.detect(series)
        pool = get_worker_pool(2)
        generation_before = pool.generation
        victim = pool._workers[0].process
        victim.terminate()
        victim.join()
        parallel = CAD(make_config(), series.n_sensors)
        result_par = parallel.detect(series, n_jobs=2)
        assert result_par.rounds == result_seq.rounds
        assert pool_generation() > generation_before
        assert all(w.process.is_alive() for w in pool._workers)

    def test_worker_errors_propagate_and_pool_survives(self):
        config = make_config()
        pipeline = CommunityPipeline(config, 9)
        # One column past a window: not a whole number of steps.
        bad_span = np.zeros((9, config.window + 1))
        good_span = np.zeros((9, config.window))
        pool = get_worker_pool(2)
        with pytest.raises(ValueError, match="whole windows"):
            list(
                pool.run_chunks(
                    config,
                    9,
                    [
                        (pipeline.to_state(), 0, bad_span, False),
                        (None, 8, good_span, True),
                    ],
                )
            )
        assert not pool._pending and not pool._completed
        # The pool must stay usable after a failed chunk.
        series = make_series(seed=23, length=900)
        sequential = CAD(make_config(), series.n_sensors)
        parallel = CAD(make_config(), series.n_sensors)
        assert (
            parallel.detect(series, n_jobs=2).rounds
            == sequential.detect(series).rounds
        )

    def test_pool_lifetimes_keep_resource_tracker_consistent(self):
        # A fresh interpreter running two pool lifetimes back to back: the
        # pool must leave nothing in /dev/shm and never trip the resource
        # tracker (which prints KeyError tracebacks on a bad unregister).
        script = textwrap.dedent(
            """
            import os
            import numpy as np
            from repro.core import CAD, CADConfig
            from repro.core.parallel import shutdown_worker_pool
            from repro.timeseries import MultivariateTimeSeries

            values = np.random.default_rng(0).standard_normal((8, 1200)).cumsum(axis=1)
            config = CADConfig(window=48, step=8, k=3, corr_refresh=8, n_jobs=2)
            for _ in range(2):
                cad = CAD(config, 8)
                cad.warm_up(MultivariateTimeSeries(values[:, :400]))
                cad.detect(MultivariateTimeSeries(values[:, 400:]))
                shutdown_worker_pool()
            print(os.getpid())
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "KeyError" not in result.stderr
        pid = result.stdout.split()[-1]
        shm = Path("/dev/shm")
        if shm.is_dir():
            assert not list(shm.glob(f"repro-{pid}-*"))

    def test_generation_floor_is_monotonic(self):
        base = pool_generation()
        restore_pool_generation(base + 5)
        assert pool_generation() == base + 5
        restore_pool_generation(base)  # rewind attempts are ignored
        assert pool_generation() == base + 5


class TestParallelAfterRestore:
    def test_detect_after_state_round_trip(self):
        history = MultivariateTimeSeries(make_series(seed=12).values[:, :300])
        series = make_series(seed=13)
        original = CAD(make_config(), series.n_sensors)
        original.warm_up(history)
        restored = CAD.from_state(original.to_state())
        result_seq = original.detect(series)
        result_par = restored.detect(series, n_jobs=4)
        assert result_par.rounds == result_seq.rounds
        assert result_par.anomalies == result_seq.anomalies

    def test_streaming_checkpoint_then_parallel_batch(self, tmp_path):
        # A stream checkpointed mid-run, restored, and continued in batch
        # parallel mode must match the uninterrupted sequential stream.
        series = make_series(seed=14)
        split = 700
        uninterrupted = StreamingCAD(make_config(), series.n_sensors)
        records_a = uninterrupted.push_many(series.values)

        stream = StreamingCAD(make_config(), series.n_sensors)
        stream.push_many(series.values[:, :split])
        path = tmp_path / "stream.npz"
        stream.save(path)
        resumed = StreamingCAD.load(path)
        records_b = stream.push_many(series.values[:, split:])
        records_c = resumed.push_many(series.values[:, split:])
        assert records_c == records_b  # resume is bit-identical
        assert records_c == records_a[-len(records_c) :]


class TestTenantRounds:
    """Fleet-facing pool API: shard-affine tenant rounds over cached
    worker pipelines."""

    def test_cache_miss_raises_then_state_ship_heals(self):
        shutdown_worker_pool()
        config = make_config(window=40, step=8)
        n = 6
        values = make_series(seed=35, n_sensors=n, length=120).values
        windows = [np.array(values[:, i * 8 : i * 8 + 40]) for i in range(8)]
        local = CommunityPipeline(config, n)
        seed_state = local.to_state()
        pool = get_worker_pool(2)
        try:
            # A worker that has never seen this tenant refuses to guess.
            task = pool.submit_tenant_round(
                1, config, n, tenant="tr-a", windows=[windows[0]]
            )
            with pytest.raises(StaleWorkerCacheError):
                pool.collect(task)
            # Ship state once; every later round rides the worker cache.
            task = pool.submit_tenant_round(
                1, config, n,
                tenant="tr-a", windows=[windows[0]], pipeline_state=seed_state,
            )
            pool.collect(task)
            for window in windows[1:-1]:
                pool.collect(
                    pool.submit_tenant_round(
                        1, config, n, tenant="tr-a", windows=[window]
                    )
                )
            task = pool.submit_tenant_round(
                1, config, n,
                tenant="tr-a", windows=[windows[-1]], return_state=True,
            )
            _, state_after = pool.collect(task)
            for window in windows:
                local.process(np.array(window))
            assert_state_equal(state_after, local.to_state())
            # Empty-window probe: ships state back without advancing.
            task = pool.submit_tenant_round(
                1, config, n, tenant="tr-a", windows=[], return_state=True
            )
            stages, probed = pool.collect(task)
            assert stages == []
            assert_state_equal(probed, state_after)
        finally:
            shutdown_worker_pool()

    def test_reference_engine_needs_no_cache(self):
        shutdown_worker_pool()
        config = make_config(window=40, step=8, engine="reference")
        n = 6
        window = np.array(make_series(seed=36, n_sensors=n, length=40).values)
        pool = get_worker_pool(2)
        try:
            task = pool.submit_tenant_round(
                0, config, n, tenant="tr-ref", windows=[window]
            )
            stages, state = pool.collect(task)  # no StaleWorkerCacheError
            assert len(stages) == 1 and state is None
        finally:
            shutdown_worker_pool()
