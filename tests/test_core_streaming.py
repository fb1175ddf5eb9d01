"""Tests for the streaming front-end (paper Section IV-F)."""

import numpy as np
import pytest

from repro.core import CAD, StreamingCAD
from repro.timeseries import MultivariateTimeSeries, WindowSpec


class TestPushMechanics:
    def test_no_record_before_first_window(self, toy_config):
        stream = StreamingCAD(toy_config, 12)
        for _ in range(toy_config.window - 1):
            assert stream.push(np.zeros(12)) is None

    def test_record_cadence(self, toy_config, toy_values):
        stream = StreamingCAD(toy_config, 12)
        records = stream.push_many(toy_values[:, :400])
        expected = WindowSpec(toy_config.window, toy_config.step).n_rounds(400)
        assert len(records) == expected

    def test_wrong_sample_width(self, toy_config):
        stream = StreamingCAD(toy_config, 12)
        with pytest.raises(ValueError):
            stream.push(np.zeros(5))

    def test_push_many_shape_check(self, toy_config):
        stream = StreamingCAD(toy_config, 12)
        with pytest.raises(ValueError):
            stream.push_many(np.zeros((5, 100)))

    def test_samples_seen(self, toy_config, toy_values):
        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :250])
        assert stream.samples_seen == 250

    def test_push_many_matches_push_loop(self, toy_config, toy_values):
        # push_many takes the vectorized block path (preallocated round
        # buffers, batched finiteness scan); results must stay bitwise the
        # one-sample push loop.
        block = StreamingCAD(toy_config, 12)
        looped = StreamingCAD(toy_config, 12)
        batch = toy_values[:, :500]
        block_records = block.push_many(batch)
        loop_records = [
            r for r in (looped.push(batch[:, i]) for i in range(500)) if r is not None
        ]
        assert block_records == loop_records
        assert len(block_records) > 10

    def test_ring_reuse_does_not_corrupt_prior_round(self):
        # Each round scores a view of the sample ring, and the fast kernel
        # keeps the previous round's view *by reference* for its rank-2
        # update, so the samples written for round r+1 must never land on
        # the columns round r handed to the kernel.  Aliasing would silently
        # corrupt the incremental correlation — the reference engine, which
        # carries nothing between rounds, is the oracle.  step = window-1
        # maximises ring turnover between consecutive rounds.
        from repro.core import CADConfig

        rng = np.random.default_rng(0)
        values = np.cumsum(rng.normal(size=(10, 800)), axis=1)
        records = {}
        for engine in ("fast", "reference"):
            config = CADConfig(window=60, step=59, engine=engine, corr_refresh=64)
            records[engine] = StreamingCAD(config, 10).push_many(values)
        assert len(records["fast"]) > 5
        assert records["fast"] == records["reference"]


class TestRingContract:
    """The ring holds ``window + step`` samples; cuts and peeks anywhere in
    its cycle see exactly the samples an uninterrupted stream scores."""

    @pytest.mark.parametrize("restart", ["state", "file"])
    @pytest.mark.parametrize("offset", [0, 40], ids=["after-wrap", "mid-wrap"])
    def test_cut_around_a_wrap_resumes_bitwise(
        self, toy_config, toy_values, tmp_path, restart, offset
    ):
        capacity = toy_config.window + toy_config.step
        cut = 3 * capacity + offset  # offset 40: the last window spans the wrap
        expected = StreamingCAD(toy_config, 12).push_many(toy_values[:, :900])
        stream = StreamingCAD(toy_config, 12)
        records = stream.push_many(toy_values[:, :cut])
        if restart == "state":
            resumed = StreamingCAD.from_state(stream.to_state())
        else:
            stream.save(tmp_path / "ring.npz")
            resumed = StreamingCAD.load(tmp_path / "ring.npz")
        assert resumed.to_state()["buffer"].shape == (12, capacity)
        records += resumed.push_many(toy_values[:, cut:900])
        assert records == expected

    @pytest.mark.parametrize("spare", [0, 1])
    def test_longest_sliding_buffer_layout_resumes_bitwise(
        self, toy_config, toy_values, spare
    ):
        # Streams that compacted a 2 * window buffer in place checkpointed
        # up to 2 * window columns before a slide; they must load too.
        cut = 500
        expected = StreamingCAD(toy_config, 12).push_many(toy_values[:, :900])
        stream = StreamingCAD(toy_config, 12)
        records = stream.push_many(toy_values[:, :cut])
        state = stream.to_state()
        width = 2 * toy_config.window - spare
        state["buffer"] = toy_values[:, cut - width : cut].copy()
        resumed = StreamingCAD.from_state(state)
        records += resumed.push_many(toy_values[:, cut:900])
        assert records == expected

    def test_too_short_buffer_is_refused(self, toy_config, toy_values):
        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :500])
        state = stream.to_state()
        state["buffer"] = state["buffer"][:, -(toy_config.window - 2) :]
        with pytest.raises(ValueError, match="buffer"):
            StreamingCAD.from_state(state)

    def test_peek_window_is_the_window_push_scores(self, toy_config, toy_values):
        stream = StreamingCAD(toy_config, 12)
        score = stream.detector.process_window
        scored, peeked = [], []

        def record_and_score(window):
            scored.append(window.copy())
            return score(window)

        stream.detector.process_window = record_and_score
        for column in toy_values[:, :600].T:  # several laps of the ring
            if stream.samples_seen + 1 == stream.next_round_end:
                peeked.append(stream.peek_window(column))
            stream.push(column)
        assert len(scored) == len(peeked) > 20
        for got, want in zip(peeked, scored):
            assert np.array_equal(got, want)


class TestEquivalenceWithBatch:
    def test_same_variations_as_batch_detect(self, toy_config, toy_values):
        """Streaming must reproduce the batch detector's rounds exactly."""
        series = MultivariateTimeSeries(toy_values[:, :1200])

        batch = CAD(toy_config, 12)
        batch_result = batch.detect(series)

        stream = StreamingCAD(toy_config, 12)
        records = stream.push_many(series.values)

        assert len(records) == len(batch_result.rounds)
        for streamed, batched in zip(records, batch_result.rounds):
            assert streamed.n_variations == batched.n_variations
            assert streamed.outliers == batched.outliers
            assert streamed.abnormal == batched.abnormal

    def test_warm_up_carries_state(self, toy_config, broken_series):
        history, test, _, _ = broken_series
        stream = StreamingCAD(toy_config, 12)
        stream.warm_up(history)

        batch = CAD(toy_config, 12)
        batch.warm_up(history)
        batch_result = batch.detect(test)

        records = stream.push_many(test.values)
        assert [r.abnormal for r in records] == [
            r.abnormal for r in batch_result.rounds
        ]


class TestAlarms:
    def test_alarm_generator_yields_abnormal_only(self, toy_config, broken_series):
        history, test, _, _ = broken_series
        stream = StreamingCAD(toy_config, 12)
        stream.warm_up(history)
        alarms = list(stream.alarms(iter(test.values.T)))
        assert all(record.abnormal for record in alarms)
        assert alarms, "the injected break should raise at least one alarm"


class TestNextRoundEnd:
    def test_first_round_ends_at_window(self, toy_config):
        stream = StreamingCAD(toy_config, 12)
        assert stream.next_round_end == toy_config.window

    def test_advances_by_step(self, toy_config, toy_values):
        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, : toy_config.window])
        assert stream.next_round_end == toy_config.window + toy_config.step

    def test_push_at_boundary_returns_record(self, toy_config, toy_values):
        stream = StreamingCAD(toy_config, 12)
        for column in toy_values[:, :400].T:
            closes_round = stream.samples_seen + 1 == stream.next_round_end
            record = stream.push(column)
            assert (record is not None) == closes_round


class TestPushError:
    def test_reports_failing_index_and_partial_records(self, toy_config, toy_values):
        from repro.core import PushError

        batch = toy_values[:, :400].copy()
        batch[3, 250] = np.nan  # strict mode rejects NaN
        stream = StreamingCAD(toy_config, 12)
        with pytest.raises(PushError) as excinfo:
            stream.push_many(batch)
        error = excinfo.value
        assert error.index == 250
        assert isinstance(error.__cause__, ValueError)
        clean_rounds = [
            r for r in StreamingCAD(toy_config, 12).push_many(batch[:, :250])
        ]
        assert error.records == clean_rounds

    def test_stream_positioned_at_failing_column(self, toy_config, toy_values):
        """Validation precedes mutation: resume = re-push the fixed column."""
        from repro.core import PushError

        batch = toy_values[:, :400].copy()
        original = batch[3, 250]
        batch[3, 250] = np.nan
        stream = StreamingCAD(toy_config, 12)
        with pytest.raises(PushError) as excinfo:
            stream.push_many(batch)
        assert stream.samples_seen == 250  # the bad column was never absorbed

        batch[3, 250] = original
        resumed = excinfo.value.records + stream.push_many(batch[:, 250:])
        baseline = StreamingCAD(toy_config, 12).push_many(batch)
        assert resumed == baseline

    def test_is_a_value_error(self):
        from repro.core import PushError

        assert issubclass(PushError, ValueError)
