"""Fault injection: corrupted feeds must never crash the degraded-mode
pipeline, and a zero-fault model must leave detection untouched."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import CAD, StreamingCAD
from repro.datasets import (
    FaultModel,
    inject_duplicates,
    inject_missing_at_random,
    inject_sensor_dropout,
    inject_stuck_at,
)
from repro.timeseries import MultivariateTimeSeries


class TestInjectors:
    def test_missing_at_random_rate(self):
        rng = np.random.default_rng(0)
        clean = np.zeros((10, 2000))
        corrupted = inject_missing_at_random(clean, 0.1, rng)
        fraction = np.isnan(corrupted).mean()
        assert 0.07 < fraction < 0.13
        assert not np.isnan(clean).any(), "input must not be modified"

    def test_dropout_span(self):
        corrupted = inject_sensor_dropout(np.ones((4, 100)), 2, 10, 60)
        assert np.isnan(corrupted[2, 10:60]).all()
        assert np.isfinite(corrupted[2, :10]).all()
        assert np.isfinite(corrupted[[0, 1, 3], :]).all()

    def test_stuck_at_flatline(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((3, 100))
        corrupted = inject_stuck_at(values, 1, 20, 80)
        assert (corrupted[1, 20:80] == values[1, 20]).all()
        assert np.array_equal(corrupted[1, 80:], values[1, 80:])

    def test_duplicates_repeat_previous_column(self):
        rng = np.random.default_rng(2)
        values = np.arange(2 * 500, dtype=float).reshape(2, 500)
        corrupted = inject_duplicates(values, 0.2, rng)
        duplicated = np.flatnonzero(
            (corrupted[:, 1:] == corrupted[:, :-1]).all(axis=0)
        )
        assert duplicated.size > 0
        assert corrupted.shape == values.shape

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_bad_rates_rejected(self, rate):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            inject_missing_at_random(np.zeros((2, 10)), rate, rng)
        with pytest.raises(ValueError):
            inject_duplicates(np.zeros((2, 10)), rate, rng)

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            inject_sensor_dropout(np.zeros((2, 10)), 5, 0, 5)
        with pytest.raises(ValueError):
            inject_stuck_at(np.zeros((2, 10)), 0, 8, 20)


class TestFaultModel:
    def test_deterministic(self):
        values = np.random.default_rng(4).standard_normal((6, 400))
        model = FaultModel(missing_rate=0.05, duplicate_rate=0.02, seed=11)
        assert np.array_equal(
            model.apply(values), model.apply(values), equal_nan=True
        )

    def test_clean_model_is_identity(self):
        values = np.random.default_rng(5).standard_normal((4, 200))
        model = FaultModel()
        assert model.is_clean
        assert np.array_equal(model.apply(values), values)

    def test_compound_faults(self):
        values = np.random.default_rng(6).standard_normal((5, 300))
        model = FaultModel(
            missing_rate=0.02,
            duplicate_rate=0.01,
            dropout=((1, 50, 150),),
            stuck=((3, 100, 200),),
            seed=0,
        )
        corrupted = model.apply(values)
        assert np.isnan(corrupted[1, 50:150]).all()
        stuck_span = corrupted[3, 100:200]
        observed = stuck_span[np.isfinite(stuck_span)]
        assert (observed == observed[0]).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(missing_rate=1.0)
        with pytest.raises(ValueError):
            FaultModel(dropout=((1, 2),))


class TestDegradedPipeline:
    """NaN gaps, dropout and stuck-at faults must never raise."""

    @pytest.fixture
    def degraded_config(self, toy_config):
        return replace(toy_config, allow_missing=True)

    @pytest.mark.parametrize(
        "model",
        [
            FaultModel(missing_rate=0.02, seed=1),
            FaultModel(missing_rate=0.10, seed=2),
            FaultModel(dropout=((3, 200, 900),), seed=3),
            FaultModel(stuck=((5, 100, 700),), seed=4),
            FaultModel(
                missing_rate=0.05,
                duplicate_rate=0.02,
                dropout=((0, 0, 1200),),
                stuck=((7, 300, 600),),
                seed=5,
            ),
        ],
    )
    def test_faulted_stream_never_raises(self, degraded_config, toy_values, model):
        values = model.apply(toy_values[:, :1200])
        stream = StreamingCAD(degraded_config, 12)
        records = stream.push_many(values)
        assert records
        assert all(record.quality is not None for record in records)

    def test_zero_fault_rate_detection_unchanged(self, degraded_config, toy_config, broken_series):
        """At fault rate 0 the degraded pipeline equals the clean one exactly."""
        history, test, _, _ = broken_series
        values = FaultModel(seed=9).apply(test.values)

        clean = CAD(toy_config, 12)
        clean.warm_up(history)
        clean_result = clean.detect(test)

        degraded = CAD(degraded_config, 12)
        degraded.warm_up(history)
        degraded_result = degraded.detect(
            MultivariateTimeSeries(values, allow_missing=True)
        )

        assert len(clean_result.rounds) == len(degraded_result.rounds)
        for a, b in zip(clean_result.rounds, degraded_result.rounds):
            assert a.n_variations == b.n_variations
            assert a.outliers == b.outliers
            assert a.abnormal == b.abnormal
            assert a.deviation == b.deviation
            assert b.quality is not None and not b.quality.degraded

    def test_five_percent_missing_plus_dropout_still_detects(
        self, degraded_config, broken_series
    ):
        """Acceptance scenario: 5% MAR + one dead sensor, end to end."""
        history, test, (start, stop), _ = broken_series
        model = FaultModel(
            missing_rate=0.05,
            dropout=((11, 0, test.length),),  # sensor 11 is not in the break
            seed=21,
        )
        faulted = MultivariateTimeSeries(model.apply(test.values), allow_missing=True)

        stream = StreamingCAD(degraded_config, 12)
        stream.warm_up(history)
        records = stream.push_many(faulted.values)

        assert all(record.quality is not None for record in records)
        assert any(record.quality.degraded for record in records)
        assert any(11 in record.quality.masked_sensors for record in records)

        # The injected correlation break must still raise alarms within its
        # span (records are indexed globally, i.e. including the warm-up).
        lo, hi = start + history.length, stop + history.length
        alarms = [
            record
            for record in records
            if record.abnormal and lo <= record.stop and record.start <= hi
        ]
        assert alarms, "the anomaly must survive 5% missing data and a dead sensor"

    def test_degraded_stream_matches_degraded_batch(self, degraded_config, toy_values):
        """Streaming and batch agree in degraded mode too."""
        model = FaultModel(missing_rate=0.04, seed=13)
        values = model.apply(toy_values[:, :1200])
        series = MultivariateTimeSeries(values, allow_missing=True)

        batch = CAD(degraded_config, 12)
        batch_result = batch.detect(series)
        stream = StreamingCAD(degraded_config, 12)
        records = stream.push_many(values)

        assert len(records) == len(batch_result.rounds)
        for streamed, batched in zip(records, batch_result.rounds):
            assert streamed.n_variations == batched.n_variations
            assert streamed.outliers == batched.outliers
            assert streamed.quality == batched.quality


class TestFlapping:
    def test_periodic_nan_pattern(self):
        from repro.datasets import inject_sensor_flapping

        clean = np.ones((4, 100))
        corrupted = inject_sensor_flapping(clean, 1, 20, 60, period=10, duty=0.3)
        assert not np.isnan(clean).any(), "input must not be modified"
        span = corrupted[1, 20:60]
        # duty=0.3 over period 10 -> first 3 samples of each period are dead
        assert np.isnan(span.reshape(4, 10)[:, :3]).all()
        assert not np.isnan(span.reshape(4, 10)[:, 3:]).any()
        assert not np.isnan(corrupted[1, :20]).any()
        assert not np.isnan(corrupted[1, 60:]).any()
        assert not np.isnan(corrupted[[0, 2, 3], :]).any()

    def test_full_duty_is_a_dropout(self):
        from repro.datasets import inject_sensor_flapping

        corrupted = inject_sensor_flapping(np.ones((3, 50)), 0, 10, 30, period=5, duty=1.0)
        assert np.isnan(corrupted[0, 10:30]).all()

    def test_small_duty_kills_at_least_one_sample(self):
        from repro.datasets import inject_sensor_flapping

        corrupted = inject_sensor_flapping(
            np.ones((3, 50)), 0, 0, 50, period=10, duty=0.01
        )
        assert np.isnan(corrupted[0]).sum() == 5  # one per period

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sensor": 9, "start": 0, "stop": 10, "period": 2},
            {"sensor": 0, "start": 30, "stop": 10, "period": 2},
            {"sensor": 0, "start": 0, "stop": 10, "period": 0},
            {"sensor": 0, "start": 0, "stop": 10, "period": 2, "duty": 0.0},
            {"sensor": 0, "start": 0, "stop": 10, "period": 2, "duty": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        from repro.datasets import inject_sensor_flapping

        with pytest.raises(ValueError):
            inject_sensor_flapping(np.ones((4, 100)), **kwargs)

    def test_fault_model_wiring(self):
        from repro.datasets import inject_sensor_flapping

        model = FaultModel(flapping=((2, 10, 50, 8, 0.5),), seed=0)
        assert not model.is_clean
        direct = inject_sensor_flapping(np.ones((4, 100)), 2, 10, 50, 8, 0.5)
        assert np.array_equal(
            np.isnan(model.apply(np.ones((4, 100)))), np.isnan(direct)
        )

    def test_fault_model_flapping_validation(self):
        with pytest.raises(ValueError):
            FaultModel(flapping=((2, 10, 50, 8),))  # not a 5-tuple
