"""The ingest frontier: envelopes, reorder/dedup/late/skew, chaos, resume.

The load-bearing claim throughout (mirroring the supervisor suite): messy
*delivery* must never change the answer.  Any arrival order within the
disorder horizon, any amount of redelivery, and any correctable clock skew
must yield ``RoundRecord`` sequences bit-identical to clean in-order
delivery.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import correlated_values
from repro.core import CADConfig, InvalidSampleError, StreamingCAD
from repro.ingest import (
    DeliveryChaosModel,
    FrontierConfig,
    IngestFrontier,
    SampleEnvelope,
    envelopes_from_matrix,
)
from repro.runtime import (
    EnvelopeValidationError,
    FrontierStateError,
    SequenceConflictError,
    StreamSupervisor,
    SupervisorConfig,
    VirtualClock,
)
from repro.timeseries import MultivariateTimeSeries

N_SENSORS = 8
CONFIG = CADConfig(window=48, step=8, allow_missing=True)


@pytest.fixture(scope="module")
def feed():
    values = correlated_values(n_sensors=N_SENSORS, length=1000, seed=21)
    history = MultivariateTimeSeries(values[:, :200])
    return history, values[:, 200:]


@pytest.fixture(scope="module")
def baseline(feed):
    history, live = feed
    stream = StreamingCAD(CONFIG, N_SENSORS)
    stream.warm_up(history)
    return stream.push_many(live)


def pop_all_ready(frontier):
    """Pop rows off the frontier until none is past the watermark."""
    rows = []
    while (row := frontier.pop_ready()) is not None:
        rows.append(row)
    return rows


def push_all(frontier, envelopes):
    """Push envelopes one at a time; return every row that became flushable."""
    rows = []
    for envelope in envelopes:
        frontier.push(envelope)
        rows.extend(pop_all_ready(frontier))
    return rows


def frontier_records(history, envelopes, frontier):
    """Feed envelopes through a frontier into a fresh StreamingCAD."""
    stream = StreamingCAD(CONFIG, frontier.config.n_sensors)
    stream.warm_up(history)
    records = []
    for row in push_all(frontier, envelopes) + list(frontier.drain()):
        record = stream.push(row)
        if record is not None:
            records.append(record)
    return records


class TestEnvelopeValidation:
    def test_well_formed_envelope_coerces_numpy_scalars(self):
        envelope = SampleEnvelope(
            sensor=np.int64(3), seq=np.int64(7), timestamp=np.float64(7.0), value=1.5
        )
        assert envelope.sensor == 3 and isinstance(envelope.sensor, int)
        assert envelope.seq == 7 and isinstance(envelope.seq, int)
        assert envelope.timestamp == 7.0 and isinstance(envelope.timestamp, float)

    @pytest.mark.parametrize("field", ["sensor", "seq"])
    @pytest.mark.parametrize("bad", [-1, 1.5, True, "0", None])
    def test_bad_identity_fields_raise(self, field, bad):
        kwargs = dict(sensor=0, seq=0, timestamp=0.0, value=1.0)
        kwargs[field] = bad
        with pytest.raises(EnvelopeValidationError) as excinfo:
            SampleEnvelope(**kwargs)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, "now", None])
    def test_bad_timestamp_raises(self, bad):
        with pytest.raises(EnvelopeValidationError) as excinfo:
            SampleEnvelope(sensor=0, seq=0, timestamp=bad, value=1.0)
        assert excinfo.value.field == "timestamp"

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, "1.0", None, True])
    def test_bad_value_raises(self, bad):
        with pytest.raises(EnvelopeValidationError):
            SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=bad)

    def test_nan_value_is_the_sanctioned_missing_marker(self):
        envelope = SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=np.nan)
        assert np.isnan(envelope.value)


class TestDetectorDoorValidation:
    """Satellite: StreamingCAD.push rejects inf with a typed error."""

    @pytest.mark.parametrize("allow_missing", [False, True])
    def test_inf_raises_typed_error_in_every_mode(self, allow_missing):
        config = CADConfig(window=48, step=8, allow_missing=allow_missing)
        stream = StreamingCAD(config, 4)
        sample = np.array([0.0, 1.0, np.inf, 2.0])
        with pytest.raises(InvalidSampleError) as excinfo:
            stream.push(sample)
        assert excinfo.value.index == 2
        assert "inf" in str(excinfo.value)

    def test_nan_raises_only_outside_degraded_mode(self):
        strict = StreamingCAD(CADConfig(window=48, step=8), 4)
        sample = np.array([0.0, np.nan, 1.0, 2.0])
        with pytest.raises(InvalidSampleError) as excinfo:
            strict.push(sample)
        assert excinfo.value.index == 1
        degraded = StreamingCAD(CADConfig(window=48, step=8, allow_missing=True), 4)
        degraded.push(sample)  # NaN is data in degraded mode

    @pytest.mark.parametrize("allow_missing", [False, True])
    def test_inf_is_reported_before_an_earlier_nan(self, allow_missing):
        config = CADConfig(window=48, step=8, allow_missing=allow_missing)
        stream = StreamingCAD(config, 5)
        sample = np.array([0.0, np.nan, 1.0, -np.inf, np.nan])
        with pytest.raises(InvalidSampleError) as excinfo:
            stream.push(sample)
        assert excinfo.value.index == 3
        assert "inf" in str(excinfo.value)
        assert stream.samples_seen == 0

    def test_invalid_sample_error_is_a_value_error(self):
        assert issubclass(InvalidSampleError, ValueError)


class TestFrontierBasics:
    def test_clean_in_order_passthrough(self):
        values = np.arange(12.0).reshape(3, 4)
        frontier = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=2))
        rows = push_all(frontier, envelopes_from_matrix(values))
        rows.extend(frontier.drain())
        assert np.array_equal(np.column_stack(rows), values)
        stats = frontier.stats()
        assert stats.accepted == 12
        assert stats.rows_emitted == 4
        assert (
            stats.reordered,
            stats.deduped,
            stats.late_dropped,
            stats.nan_patched,
            stats.rows_dropped,
        ) == (0, 0, 0, 0, 0)

    def test_horizon_zero_never_flushes_a_mid_assembly_row(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=0))
        frontier.push(SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0))
        assert frontier.pop_ready() is None, "row 0 is still assembling"
        frontier.push(SampleEnvelope(sensor=1, seq=0, timestamp=0.0, value=2.0))
        assert frontier.pop_ready() is None
        frontier.push(SampleEnvelope(sensor=0, seq=1, timestamp=1.0, value=3.0))
        row = frontier.pop_ready()
        assert np.array_equal(row, [1.0, 2.0])
        assert frontier.stats().nan_patched == 0

    def test_reorder_within_horizon_is_lossless(self, feed, baseline):
        history, live = feed
        envelopes = list(envelopes_from_matrix(live))
        rng = np.random.default_rng(5)
        keys = np.array([e.seq for e in envelopes]) + rng.integers(
            0, 7, size=len(envelopes)
        )
        shuffled = [envelopes[i] for i in np.argsort(keys, kind="stable")]
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=8)
        )
        records = frontier_records(history, shuffled, frontier)
        assert records == baseline
        assert frontier.stats().reordered > 0

    def test_redelivery_dedups_idempotently(self):
        values = np.arange(8.0).reshape(2, 4)
        envelopes = list(envelopes_from_matrix(values))
        # Horizon wider than the stream: every redelivery hits a still-
        # pending row and must dedup (flushed rows would count late instead).
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=8))
        rows = push_all(frontier, envelopes + envelopes[2:5])
        rows.extend(frontier.drain())
        assert np.array_equal(np.column_stack(rows), values)
        assert frontier.stats().deduped == 3
        assert frontier.stats().late_dropped == 0

    def test_conflicting_sequence_numbers_raise(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=4))
        frontier.push(SampleEnvelope(sensor=0, seq=5, timestamp=5.0, value=1.0))
        with pytest.raises(SequenceConflictError) as excinfo:
            # Same cell (sensor 0, grid row 5), different producer seq.
            frontier.push(SampleEnvelope(sensor=0, seq=6, timestamp=5.4, value=2.0))
        assert excinfo.value.sensor == 0
        assert (excinfo.value.held_seq, excinfo.value.new_seq) == (5, 6)

    def test_seq_past_int64_is_staged_deduped_and_checkpointed(self):
        # Envelope seqs are unbounded ints; a fixed-width seq store
        # overflowed past 2**63 with an untyped error.
        frontier = IngestFrontier(FrontierConfig(n_sensors=1, disorder_horizon=1))
        envelope = SampleEnvelope(sensor=0, seq=2**63, timestamp=0.0, value=1.0)
        frontier.push(envelope)
        frontier.push(envelope)
        assert (frontier.stats().accepted, frontier.stats().deduped) == (1, 1)
        resumed = IngestFrontier(frontier.config)
        resumed.restore_state(json.loads(json.dumps(frontier.to_state())))
        assert resumed.to_state() == frontier.to_state()

    def test_late_envelope_is_counted_not_raised(self):
        values = np.arange(10.0).reshape(1, 10)
        frontier = IngestFrontier(FrontierConfig(n_sensors=1, disorder_horizon=2))
        push_all(frontier, envelopes_from_matrix(values))
        flushed = frontier.next_emit
        assert flushed > 0
        frontier.push(
            SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=123.0)
        )
        assert frontier.stats().late_dropped == 1

    def test_out_of_range_sensor_and_pre_epoch_timestamp_raise(self):
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=2, disorder_horizon=2, epoch=100.0)
        )
        with pytest.raises(EnvelopeValidationError, match="sensor"):
            frontier.push(SampleEnvelope(sensor=2, seq=0, timestamp=100.0, value=0.0))
        with pytest.raises(EnvelopeValidationError, match="epoch"):
            frontier.push(SampleEnvelope(sensor=0, seq=0, timestamp=50.0, value=0.0))

    @pytest.mark.parametrize(
        "config, timestamp",
        [
            (FrontierConfig(n_sensors=2, period=1e-308), 10.0),
            (FrontierConfig(n_sensors=2, skew=(1e308, 0.0)), -1.7e308),
        ],
        ids=["tiny-period", "skew-past-float-range"],
    )
    def test_grid_position_overflow_raises_typed_and_leaves_state(
        self, config, timestamp
    ):
        frontier = IngestFrontier(config)
        frontier.push(SampleEnvelope(sensor=1, seq=0, timestamp=0.0, value=1.0))
        before = frontier.to_state()
        with pytest.raises(EnvelopeValidationError, match="timestamp") as info:
            frontier.push(
                SampleEnvelope(sensor=0, seq=1, timestamp=timestamp, value=0.0)
            )
        assert info.value.field == "timestamp"
        assert frontier.to_state() == before

    def test_non_envelope_push_raises(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=1))
        with pytest.raises(EnvelopeValidationError):
            frontier.push((0, 0, 0.0, 1.0))

    def test_watermark_lag_and_pending_rows(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=1, disorder_horizon=4))
        for t in range(6):
            frontier.push(
                SampleEnvelope(sensor=0, seq=t, timestamp=float(t), value=float(t))
            )
        stats = frontier.stats()
        assert stats.pending_rows == 6
        assert stats.watermark_lag == 6
        assert frontier.pop_ready() is not None  # rows 0..1 are past watermark
        assert frontier.stats().watermark_lag == 5


class TestLatePolicies:
    def _delayed_beyond_horizon(self, values):
        """Deliver sensor 1's reading of row 2 after its row has flushed."""
        held = []
        envelopes = []
        for envelope in envelopes_from_matrix(values):
            if envelope.sensor == 1 and envelope.seq == 2:
                held.append(envelope)
            else:
                envelopes.append(envelope)
        return envelopes + held

    def test_nan_patch_preserves_the_grid(self):
        values = np.arange(20.0).reshape(2, 10)
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=2))
        rows = push_all(frontier, self._delayed_beyond_horizon(values))
        rows.extend(frontier.drain())
        out = np.column_stack(rows)
        assert out.shape == values.shape
        assert np.isnan(out[1, 2])
        mask = ~np.isnan(out)
        assert np.array_equal(out[mask], values[mask])
        stats = frontier.stats()
        assert stats.nan_patched == 1
        assert stats.late_dropped == 1
        assert stats.rows_dropped == 0

    def test_drop_skips_incomplete_rows(self):
        values = np.arange(20.0).reshape(2, 10)
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=2, disorder_horizon=2, late_policy="drop")
        )
        rows = push_all(frontier, self._delayed_beyond_horizon(values))
        rows.extend(frontier.drain())
        out = np.column_stack(rows)
        assert out.shape == (2, 9)
        assert np.array_equal(out, np.delete(values, 2, axis=1))
        stats = frontier.stats()
        assert stats.rows_dropped == 1
        assert stats.nan_patched == 0

    @pytest.mark.parametrize("jump", [10**6, 10**12])
    def test_drop_skips_a_timestamp_jump_in_one_step(self, jump):
        # Rows between the last clean tick and the jump are wholly missing;
        # dropping them must not cost one step per row.
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=2, disorder_horizon=4, late_policy="drop")
        )
        values = np.arange(20.0).reshape(2, 10)
        rows = push_all(frontier, list(envelopes_from_matrix(values)))
        frontier.push(
            SampleEnvelope(sensor=0, seq=10, timestamp=float(jump), value=1.0)
        )
        rows.extend(pop_all_ready(frontier))
        assert np.array_equal(np.column_stack(rows), values)
        stats = frontier.stats()
        # The counters a row-by-row drop would reach (999,987 rows dropped
        # and next_emit 999,997 for a jump of 10**6).
        assert stats.rows_dropped == jump - 13
        assert frontier.next_emit == jump - 3
        assert stats.rows_emitted == 10
        # The jump row itself is incomplete, so draining drops it too.
        assert list(frontier.drain()) == []
        assert frontier.stats().rows_dropped == jump - 9
        assert frontier.next_emit == jump + 1

    def test_drop_jump_stops_at_the_next_pending_row(self):
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=2, disorder_horizon=4, late_policy="drop")
        )
        for t in (0.0, 50.0, 100.0):
            for sensor in (0, 1):
                frontier.push(
                    SampleEnvelope(sensor=sensor, seq=int(t), timestamp=t, value=t)
                )
        rows = pop_all_ready(frontier)
        assert [row[0] for row in rows] == [0.0, 50.0]
        assert frontier.stats().rows_dropped == 49 + 46
        assert frontier.next_emit == 97
        assert [row[0] for row in frontier.drain()] == [100.0]
        assert frontier.stats().rows_dropped == 98

    def test_wholly_missing_row_becomes_all_nan_gap(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=0))
        frontier.push(SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0))
        frontier.push(SampleEnvelope(sensor=1, seq=0, timestamp=0.0, value=2.0))
        # Tick 1 never happens; tick 2 arrives (a real transmission gap).
        frontier.push(SampleEnvelope(sensor=0, seq=2, timestamp=2.0, value=3.0))
        frontier.push(SampleEnvelope(sensor=1, seq=2, timestamp=2.0, value=4.0))
        rows = list(frontier.drain())
        assert len(rows) == 3, "the gap row must keep its grid slot"
        assert np.all(np.isnan(rows[1]))
        assert frontier.stats().nan_patched == 2


class TestSkewAlignment:
    def test_sub_half_period_skew_is_absorbed_by_snapping(self, feed, baseline):
        history, live = feed
        skews = np.linspace(-0.4, 0.4, N_SENSORS)
        envelopes = envelopes_from_matrix(live, skew=skews)
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=4)
        )
        assert frontier_records(history, envelopes, frontier) == baseline

    def test_large_skew_needs_correction_and_gets_it(self, feed, baseline):
        history, live = feed
        # Positive offsets only: uncorrected they shift rows late (visible
        # corruption); negative ones would map early ticks before the epoch.
        skews = tuple(float(3 * s) for s in range(N_SENSORS))
        envelopes = list(envelopes_from_matrix(live, skew=skews))
        corrected = IngestFrontier(
            FrontierConfig(
                n_sensors=N_SENSORS, disorder_horizon=8, skew=skews
            )
        )
        assert frontier_records(history, envelopes, corrected) == baseline
        uncorrected = IngestFrontier(
            FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=8)
        )
        assert (
            frontier_records(history, envelopes, uncorrected) != baseline
        ), "multi-period skew must visibly corrupt the grid when uncorrected"


class TestFrontierConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sensors=0),
            dict(n_sensors=2, disorder_horizon=-1),
            dict(n_sensors=2, late_policy="defer"),
            dict(n_sensors=2, period=0.0),
            dict(n_sensors=2, period=np.inf),
            dict(n_sensors=2, epoch=np.nan),
            dict(n_sensors=2, skew=(0.0,)),
            dict(n_sensors=2, skew=(0.0, np.inf)),
        ],
    )
    def test_bad_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            FrontierConfig(**kwargs)


class TestStateRoundtrip:
    def _partial_frontier(self):
        values = np.arange(30.0).reshape(3, 10)
        frontier = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=4))
        envelopes = list(envelopes_from_matrix(values))
        for envelope in envelopes[:17]:  # mid-row cut: row 5 half-assembled
            frontier.push(envelope)
        pop_all_ready(frontier)
        return frontier, envelopes, values

    def test_state_survives_json_and_resumes_identically(self):
        frontier, envelopes, values = self._partial_frontier()
        state = json.loads(json.dumps(frontier.to_state()))
        resumed = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=4))
        resumed.restore_state(state)
        assert resumed.next_emit == frontier.next_emit
        assert resumed.stats() == frontier.stats()
        # Re-send the whole stream: flushed rows late-drop, pending dedup.
        rows = push_all(resumed, envelopes)
        rows.extend(resumed.drain())
        emitted = np.column_stack(rows)
        assert np.array_equal(emitted, values[:, frontier.next_emit :])

    def test_resumed_watermark_flushes_without_new_envelopes(self):
        values = np.arange(30.0).reshape(3, 10)
        frontier = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=4))
        for envelope in list(envelopes_from_matrix(values))[:17]:
            frontier.push(envelope)
        resumed = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=4))
        resumed.restore_state(json.loads(json.dumps(frontier.to_state())))
        assert resumed.watermark == frontier.watermark
        expected = pop_all_ready(frontier)
        assert len(expected) == 2, "rows 0 and 1 are past the watermark"
        flushed = pop_all_ready(resumed)
        assert len(flushed) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(flushed, expected))

    def test_nan_cells_roundtrip_as_null(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=4))
        frontier.push(SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=np.nan))
        payload = json.dumps(frontier.to_state())
        assert "NaN" not in payload, "state must be strict-JSON safe"
        resumed = IngestFrontier(FrontierConfig(n_sensors=2, disorder_horizon=4))
        resumed.restore_state(json.loads(payload))
        restored_row = list(resumed.drain())[0]
        assert np.isnan(restored_row[0]), "explicit NaN reading must survive"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s: {**s, "format": "something-else"},
            lambda s: {**s, "version": 99},
            lambda s: {**s, "next_emit": "soon"},
            lambda s: {**s, "pending": {"0": [1.0]}},  # wrong width
            lambda s: {**s, "pending_seq": {}},  # disagrees with pending
            lambda s: {**s, "next_emit": 10_000},  # frontier past the newest row
            lambda s: {**s, "next_emit": 3},  # one pending row behind frontier
            lambda s: {**s, "next_emit": -3},  # before the grid origin
            lambda s: {**s, "max_row": 0},  # newest row behind the frontier
            lambda s: {**s, "max_row": 4},  # pending row past the newest row
            lambda s: {  # a seq below the empty-cell marker
                **s,
                "pending_seq": {**s["pending_seq"], "5": [5, -2, -1]},
            },
        ],
    )
    def test_malformed_state_raises_typed_error(self, corrupt):
        frontier, _, _ = self._partial_frontier()
        state = json.loads(json.dumps(frontier.to_state()))
        fresh = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=4))
        with pytest.raises(FrontierStateError):
            fresh.restore_state(corrupt(state))


    #: A version-1 snapshot written by hand: row 5 holds an explicit NaN
    #: reading (seq 5), row 6 was never seen, row 7 misses two cells.
    GOLDEN = {
        "format": "repro-ingest-frontier",
        "version": 1,
        "next_emit": 5,
        "max_row": 7,
        "counters": {
            "accepted": 19,
            "reordered": 3,
            "deduped": 2,
            "late_dropped": 1,
            "nan_patched": 0,
            "rows_emitted": 5,
            "rows_dropped": 0,
        },
        "pending": {"5": [1.5, None, -2.25], "7": [None, 0.0, None]},
        "pending_seq": {"5": [5, 5, 5], "7": [-1, 7, -1]},
    }

    def test_golden_snapshot_restores_and_reserialises_equal(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=3, disorder_horizon=4))
        frontier.restore_state(json.loads(json.dumps(self.GOLDEN)))
        assert frontier.to_state() == self.GOLDEN
        assert (frontier.next_emit, frontier.watermark) == (5, 3)
        # The filled cell dedups; an empty one still takes its envelope.
        frontier.push(SampleEnvelope(sensor=1, seq=5, timestamp=5.0, value=9.0))
        frontier.push(SampleEnvelope(sensor=0, seq=7, timestamp=7.0, value=4.0))
        rows = list(frontier.drain())
        expected = [[1.5, np.nan, -2.25], [np.nan] * 3, [4.0, 0.0, np.nan]]
        assert len(rows) == 3
        for row, want in zip(rows, expected):
            np.testing.assert_array_equal(row, want)
        stats = frontier.stats()
        assert (stats.deduped, stats.accepted, stats.nan_patched) == (3, 20, 4)


@st.composite
def schedules(draw):
    """A frontier config and a delivery schedule: in-horizon shuffles and
    late originals, redelivery, clock skew, seq conflicts and forward
    timestamp jumps, pushed under one ``max_release``."""
    n = draw(st.integers(1, 4))
    horizon = draw(st.integers(0, 5))
    length = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, length))
    values[rng.random((n, length)) < 0.1] = np.nan
    delivery = DeliveryChaosModel(
        seed=seed,
        out_of_order_rate=draw(st.sampled_from([0.0, 0.3, 0.6])),
        max_disorder=draw(st.integers(0, 2 * horizon + 2)),
        redelivery_rate=draw(st.sampled_from([0.0, 0.2])),
        redelivery_max_delay=draw(st.integers(0, 3 * horizon + 3)),
        skew_magnitude=draw(st.sampled_from([0.0, 0.4, 3.0])),
    )
    envelopes = delivery.deliver(envelopes_from_matrix(values))
    for _ in range(draw(st.integers(0, 3))):
        # Another seq claiming an existing envelope's cell.
        source = envelopes[draw(st.integers(0, len(envelopes) - 1))]
        conflict = replace(source, seq=source.seq + 1000)
        envelopes.insert(draw(st.integers(0, len(envelopes))), conflict)
    for _ in range(draw(st.integers(0, 2))):
        jump = draw(st.integers(2, 40))
        source = envelopes[draw(st.integers(0, len(envelopes) - 1))]
        ahead = replace(
            source, seq=source.seq + jump, timestamp=source.timestamp + jump
        )
        envelopes.insert(draw(st.integers(0, len(envelopes))), ahead)
    config = FrontierConfig(
        n_sensors=n,
        disorder_horizon=horizon,
        late_policy=draw(st.sampled_from(["nan_patch", "drop"])),
        skew=delivery.skews(n) if delivery.skew_magnitude else None,
    )
    max_release = draw(st.sampled_from([None, 1, 3, 1000]))
    return config, envelopes, max_release


def feed_schedule(frontier, envelopes, max_release):
    """Push every envelope, popping rows as they become due; return the
    rows and how many pushes were refused.  A refusal must leave the
    frontier's state as it was."""
    rows, refused = [], 0
    for envelope in envelopes:
        before = frontier.to_state()
        try:
            frontier.push(envelope, max_release=max_release)
        except EnvelopeValidationError:
            assert frontier.to_state() == before
            refused += 1
        except SequenceConflictError:
            refused += 1
        rows.extend(pop_all_ready(frontier))
    return rows, refused


def finish(frontier, envelopes, max_release):
    """Feed the rest of a schedule and drain: rows, refusals, counters
    and the final state."""
    rows, refused = feed_schedule(frontier, envelopes, max_release)
    rows.extend(frontier.drain())
    return rows, refused, frontier.stats(), frontier.to_state()


SCHEDULES = settings(max_examples=80, deadline=None, derandomize=True)


class TestFrontierProperties:
    @SCHEDULES
    @given(case=schedules())
    def test_every_push_is_accepted_deduped_late_or_refused(self, case):
        config, envelopes, max_release = case
        frontier = IngestFrontier(config)
        rows, refused = feed_schedule(frontier, envelopes, max_release)
        rows.extend(frontier.drain())
        stats = frontier.stats()
        assert stats.accepted + stats.deduped + stats.late_dropped == (
            len(envelopes) - refused
        )
        # Every grid row up to the newest was emitted or dropped, once.
        assert stats.rows_emitted == len(rows)
        assert stats.rows_emitted + stats.rows_dropped == frontier.next_emit
        assert stats.pending_rows == stats.watermark_lag == 0

    @SCHEDULES
    @given(case=schedules())
    def test_emitted_rows_are_fresh_arrays(self, case):
        """Scribbling on every row one frontier hands out changes neither
        its state nor its later rows; rows a twin frontier handed out keep
        their values to the end (the supervisor's replay log holds them)."""
        config, envelopes, max_release = case
        mutated, untouched = IngestFrontier(config), IngestFrontier(config)
        held = []
        for envelope in [*envelopes, None]:
            if envelope is None:  # end of stream
                got, want = list(mutated.drain()), list(untouched.drain())
            else:
                got = feed_schedule(mutated, [envelope], max_release)[0]
                want = feed_schedule(untouched, [envelope], max_release)[0]
            assert len(got) == len(want)
            for row, expected in zip(got, want):
                np.testing.assert_array_equal(row, expected)
                row[:] = 12345.0
                held.append((expected, expected.copy()))
            assert mutated.to_state() == untouched.to_state()
        for row, value in held:
            np.testing.assert_array_equal(row, value)

    @SCHEDULES
    @given(case=schedules(), cut=st.floats(0, 1))
    def test_state_roundtrip_at_any_point_resumes_identically(self, case, cut):
        config, envelopes, max_release = case
        at = int(cut * len(envelopes))
        live = IngestFrontier(config)
        feed_schedule(live, envelopes[:at], max_release)
        resumed = IngestFrontier(config)
        resumed.restore_state(json.loads(json.dumps(live.to_state())))
        assert resumed.stats() == live.stats()
        assert resumed.watermark == live.watermark
        (rows, *tail), (resumed_rows, *resumed_tail) = [
            finish(frontier, envelopes[at:], max_release) for frontier in (live, resumed)
        ]
        assert resumed_tail == tail
        assert len(resumed_rows) == len(rows)
        for got, want in zip(resumed_rows, rows):
            np.testing.assert_array_equal(got, want)


class TestDeliveryChaosModel:
    def test_schedule_is_deterministic(self):
        values = np.arange(40.0).reshape(4, 10)
        envelopes = list(envelopes_from_matrix(values))
        chaos = DeliveryChaosModel(
            seed=3,
            out_of_order_rate=0.5,
            max_disorder=4,
            redelivery_rate=0.3,
            redelivery_max_delay=8,
            skew_magnitude=0.3,
        )
        first = chaos.deliver(envelopes)
        second = chaos.deliver(envelopes)
        assert first == second
        assert len(first) > len(envelopes), "redelivery must duplicate"

    def test_clean_model_is_identity(self):
        values = np.arange(20.0).reshape(2, 10)
        envelopes = list(envelopes_from_matrix(values))
        chaos = DeliveryChaosModel(seed=0)
        assert chaos.is_clean
        assert chaos.deliver(envelopes) == envelopes

    def test_skews_are_bounded_and_per_sensor_stable(self):
        chaos = DeliveryChaosModel(seed=9, skew_magnitude=0.4)
        skews = chaos.skews(16)
        assert all(abs(s) <= 0.4 for s in skews)
        assert skews == chaos.skews(16)
        assert len(set(skews)) > 1

    def test_delivery_preserves_payload_multiset(self):
        values = np.arange(40.0).reshape(4, 10)
        envelopes = list(envelopes_from_matrix(values))
        chaos = DeliveryChaosModel(seed=3, out_of_order_rate=0.5, max_disorder=4)
        delivered = chaos.deliver(envelopes)
        key = lambda e: (e.sensor, e.seq, e.value)  # noqa: E731
        assert sorted(map(key, delivered)) == sorted(map(key, envelopes))


class TestSupervisedIngest:
    def make(self, frontier, **kwargs):
        kwargs.setdefault("clock", VirtualClock())
        return StreamSupervisor(CONFIG, N_SENSORS, frontier=frontier, **kwargs)

    def test_chaotic_delivery_is_bit_identical_and_counted(self, feed, baseline):
        history, live = feed
        chaos = DeliveryChaosModel(
            seed=13,
            out_of_order_rate=0.3,
            max_disorder=8,
            redelivery_rate=0.1,
            redelivery_max_delay=40,
            skew_magnitude=0.4,
        )
        frontier = IngestFrontier(
            FrontierConfig(
                n_sensors=N_SENSORS,
                disorder_horizon=8,
                skew=chaos.skews(N_SENSORS),
            )
        )
        supervisor = self.make(frontier)
        supervisor.warm_up(history)
        records = supervisor.ingest_many(
            chaos.deliver(envelopes_from_matrix(live))
        )
        records.extend(supervisor.finish())
        assert records == baseline
        health = supervisor.health()
        assert health.samples_reordered > 0
        assert health.samples_deduped > 0
        assert health.samples_late_dropped > 0
        assert health.cells_nan_patched == 0, "no original may be lost"

    def test_health_surfaces_queue_policy_and_frontier_counters(self, feed):
        history, live = feed
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=4)
        )
        supervisor = self.make(
            frontier,
            supervisor=SupervisorConfig(queue_capacity=512, shed_policy="drop_newest"),
        )
        supervisor.warm_up(history)
        supervisor.ingest_many(envelopes_from_matrix(live[:, :100]))
        payload = supervisor.health().to_dict()
        assert payload["queue_policy"] == "drop_newest"
        assert payload["queue_capacity"] == 512
        assert payload["watermark_lag"] > 0, "tail rows still inside the horizon"
        for counter in (
            "samples_reordered",
            "samples_deduped",
            "samples_late_dropped",
            "cells_nan_patched",
            "rows_dropped",
        ):
            assert payload[counter] == 0

    @pytest.mark.parametrize("jump", [10**6, 10**12])
    def test_nan_patch_refuses_a_timestamp_jump_past_the_queue(self, feed, jump):
        # Under nan_patch every row of the gap would be emitted (all NaN)
        # and run a CAD round; the supervisor refuses the envelope instead.
        history, live = feed
        frontier = IngestFrontier(
            FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=4)
        )
        supervisor = self.make(frontier)
        supervisor.warm_up(history)
        records = supervisor.ingest_many(envelopes_from_matrix(live[:, :60]))
        state = json.dumps(frontier.to_state())
        health = supervisor.health()
        samples = supervisor.stream.samples_seen
        start = time.perf_counter()
        with pytest.raises(EnvelopeValidationError) as raised:
            supervisor.ingest(
                SampleEnvelope(sensor=0, seq=10**13, timestamp=float(jump), value=1.0)
            )
        assert time.perf_counter() - start < 0.5
        assert raised.value.field == "timestamp"
        assert json.dumps(frontier.to_state()) == state
        assert supervisor.health() == health
        assert supervisor.stream.samples_seen == samples
        # The stream goes on as if the envelope had never arrived.
        records += supervisor.ingest_many(
            envelopes_from_matrix(live[:, 60:], start_seq=60)
        )
        records += supervisor.finish()
        stream = StreamingCAD(CONFIG, N_SENSORS)
        stream.warm_up(history)
        assert records == stream.push_many(live)

    def test_nan_patch_bound_is_the_queue_capacity(self):
        # Horizon 2, rows 0-2 seen: row 0 has flushed.  An envelope for
        # row 5 moves the watermark to row 3, releasing rows 1-3 (3 rows);
        # one for row 6 would release 4.
        def fed():
            frontier = IngestFrontier(
                FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=2)
            )
            supervisor = self.make(
                frontier, supervisor=SupervisorConfig(queue_capacity=3)
            )
            supervisor.ingest_many(envelopes_from_matrix(np.ones((N_SENSORS, 3))))
            return frontier, supervisor

        frontier, supervisor = fed()
        assert frontier.next_emit == 1
        supervisor.ingest(SampleEnvelope(sensor=0, seq=5, timestamp=5.0, value=1.0))
        assert frontier.next_emit == 4
        frontier, supervisor = fed()
        with pytest.raises(EnvelopeValidationError, match="4 rows"):
            supervisor.ingest(
                SampleEnvelope(sensor=0, seq=6, timestamp=6.0, value=1.0)
            )

    def test_fleet_ingest_applies_the_same_bound(self):
        from repro.fleet import FleetManager, TenantSpec

        frontier_config = FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=4)
        manager = FleetManager(
            [TenantSpec("a", CONFIG, N_SENSORS, frontier=frontier_config)],
            clock=VirtualClock(),
        )
        with pytest.raises(EnvelopeValidationError, match="rows at once"):
            manager.ingest(
                SampleEnvelope(sensor=0, seq=0, timestamp=1e12, value=1.0)
            )

    def test_strict_supervisor_refuses_nan_envelopes(self, feed):
        """Without allow_missing a NaN envelope is refused at the door,
        before the frontier stages it, and the stream goes on as if it had
        never arrived."""
        from repro.fleet import FleetManager, TenantSpec
        from repro.runtime import BreakerPolicy

        history, live = feed
        strict = replace(CONFIG, allow_missing=False)
        frontier_config = FrontierConfig(
            n_sensors=N_SENSORS, disorder_horizon=4, late_policy="drop"
        )
        sup_config = SupervisorConfig(breaker=BreakerPolicy(failure_threshold=0))
        supervisor = StreamSupervisor(
            strict,
            N_SENSORS,
            supervisor=sup_config,
            clock=VirtualClock(),
            frontier=IngestFrontier(frontier_config),
        )
        supervisor.warm_up(history)
        records = supervisor.ingest_many(envelopes_from_matrix(live[:, :60]))
        state = json.dumps(supervisor.frontier.to_state())
        missing = SampleEnvelope(sensor=2, seq=60, timestamp=60.0, value=np.nan)
        for push in (supervisor.ingest, supervisor.push_envelope):
            with pytest.raises(EnvelopeValidationError) as raised:
                push(missing)
            assert raised.value.field == "value"
            assert json.dumps(supervisor.frontier.to_state()) == state
        records += supervisor.ingest_many(
            envelopes_from_matrix(live[:, 60:], start_seq=60)
        )
        records += supervisor.finish()
        stream = StreamingCAD(strict, N_SENSORS)
        stream.warm_up(history)
        assert records == stream.push_many(live)
        assert supervisor.health().samples_ingested == supervisor.stream.samples_seen

        manager = FleetManager(
            [
                TenantSpec(
                    "a",
                    strict,
                    N_SENSORS,
                    supervisor=sup_config,
                    frontier=frontier_config,
                )
            ],
            clock=VirtualClock(),
        )
        with pytest.raises(EnvelopeValidationError, match="NaN"):
            manager.ingest(missing)

    def test_frontier_width_must_match(self):
        frontier = IngestFrontier(FrontierConfig(n_sensors=N_SENSORS + 1))
        with pytest.raises(ValueError, match="sensor"):
            self.make(frontier)

    def test_nan_patch_requires_allow_missing(self):
        strict = CADConfig(window=48, step=8, allow_missing=False)
        frontier = IngestFrontier(FrontierConfig(n_sensors=N_SENSORS))
        from repro.runtime import BreakerPolicy

        with pytest.raises(ValueError, match="allow_missing"):
            StreamSupervisor(
                strict,
                N_SENSORS,
                supervisor=SupervisorConfig(
                    breaker=BreakerPolicy(failure_threshold=0)
                ),
                frontier=frontier,
            )

    def test_envelope_api_needs_a_frontier(self):
        supervisor = StreamSupervisor(CONFIG, N_SENSORS, clock=VirtualClock())
        with pytest.raises(ValueError, match="frontier"):
            supervisor.ingest(
                SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0)
            )
        assert supervisor.finish() == []

    def test_kill_mid_reorder_resume_is_bit_identical(
        self, feed, baseline, tmp_path
    ):
        """Satellite: process death while the reorder buffer is non-empty.

        The checkpoint sidecar carries the frontier state; on resume the
        source re-sends the *entire* delivery schedule and the frontier's
        dedup/late accounting absorbs everything already processed.
        """
        history, live = feed
        chaos = DeliveryChaosModel(seed=4, out_of_order_rate=0.4, max_disorder=8)
        delivered = chaos.deliver(envelopes_from_matrix(live))
        sup_config = SupervisorConfig(checkpoint_every=5, keep_checkpoints=3)

        def make(resume):
            return StreamSupervisor(
                CONFIG,
                N_SENSORS,
                supervisor=sup_config,
                checkpoint_dir=tmp_path,
                clock=VirtualClock(),
                frontier=IngestFrontier(
                    FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=8)
                ),
                resume=resume,
            )

        first = make(resume=False)
        first.warm_up(history)
        kill_at = (len(delivered) * 2) // 3
        before = first.ingest_many(delivered[:kill_at])
        assert first.frontier.stats().pending_rows > 0, "must die mid-reorder"
        del first  # process death

        resumed = make(resume=True)
        assert resumed.frontier.next_emit > 0, "frontier state must be adopted"
        after = resumed.ingest_many(delivered)  # full redelivery
        after.extend(resumed.finish())

        merged = {}
        for record in [*before, *after]:
            if record.index in merged:
                assert merged[record.index] == record, "re-emitted round differs"
            merged[record.index] = record
        assert [merged[r.index] for r in baseline] == baseline
        assert resumed.health().samples_late_dropped > 0


class TestEnvelopeTenancy:
    """The fleet's ``tenant`` field: implicit default, validation, stamping."""

    def test_default_is_the_implicit_single_tenant(self):
        envelope = SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0)
        assert envelope.tenant == ""

    def test_explicit_tenant_is_preserved(self):
        envelope = SampleEnvelope(
            sensor=0, seq=0, timestamp=0.0, value=1.0, tenant="acme-07"
        )
        assert envelope.tenant == "acme-07"

    @pytest.mark.parametrize("bad", [0, None, b"t", 1.5])
    def test_non_string_tenant_raises(self, bad):
        with pytest.raises(EnvelopeValidationError) as excinfo:
            SampleEnvelope(sensor=0, seq=0, timestamp=0.0, value=1.0, tenant=bad)
        assert excinfo.value.field == "tenant"

    def test_envelopes_from_matrix_stamps_every_envelope(self):
        values = correlated_values(n_sensors=3, length=4, seed=9)
        stamped = list(envelopes_from_matrix(values, tenant="t-1"))
        assert stamped and all(e.tenant == "t-1" for e in stamped)
        implicit = list(envelopes_from_matrix(values))
        assert all(e.tenant == "" for e in implicit)
        # tenancy is metadata: the payload stream is otherwise unchanged
        assert [(e.sensor, e.seq, e.value) for e in stamped] == [
            (e.sensor, e.seq, e.value) for e in implicit
        ]
