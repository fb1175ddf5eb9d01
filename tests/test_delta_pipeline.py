"""Tests for the fast engine's incremental TSG maintenance.

Three contracts, in increasing order of integration:

1. :class:`DeltaTSGBuilder` must emit CSR arrays bit-identical to the
   from-scratch ``tsg_csr`` build every round — patched or full, clean or
   NaN-masked corr.
2. ``engine="fast"`` (which maintains the TSG through the builder) must
   emit ``RoundRecord`` sequences bit-identical to ``engine="reference"``,
   including across faulted streams with NaN masking.
3. Delta state (candidate lists, pool generation) must round-trip through
   checkpoints so a kill/resume never diverges from the uninterrupted run.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import correlated_values
from repro.core import CADConfig, StreamingCAD, load_checkpoint, save_checkpoint
from repro.datasets import FaultModel
from repro.graph import DeltaTSGBuilder
from repro.graph.csr import tsg_csr
from repro.runtime import StreamSupervisor, SupervisorConfig, VirtualClock
from repro.timeseries import (
    MultivariateTimeSeries,
    RollingCorrelation,
    pearson_matrix_masked,
)

N_SENSORS = 8


def delta_config(**overrides) -> CADConfig:
    defaults = dict(
        window=48, step=8, k=4, tau=0.4, engine="fast",
        corr_refresh=16, allow_missing=True,
    )
    defaults.update(overrides)
    return CADConfig(**defaults)


def run_stream(config: CADConfig, history, live):
    stream = StreamingCAD(config, live.shape[0])
    stream.warm_up(history)
    return stream.push_many(live)


@pytest.fixture(scope="module")
def feed():
    values = correlated_values(n_sensors=N_SENSORS, length=900, seed=17)
    history = MultivariateTimeSeries(values[:, :200])
    return history, values[:, 200:]


def assert_csr_equal(got, expected):
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.weights, expected.weights)


class TestDeltaBuilder:
    """Builder-level bit-identity against the from-scratch CSR build."""

    def stream_corrs(self, seed, n=10, window=50, step=5, rounds=40):
        values = correlated_values(n_sensors=n, length=window + step * rounds,
                                   seed=seed)
        kernel = RollingCorrelation(n, window, step, refresh_every=8)
        for r in range(rounds):
            win = values[:, r * step : r * step + window]
            anchor = kernel.next_update_is_anchor
            yield anchor, kernel.update(win)

    @pytest.mark.parametrize("seed", range(3))
    def test_patched_build_matches_scratch(self, seed):
        builder = DeltaTSGBuilder(10, 3, 0.3)
        anchors = 0
        for anchor, corr in self.stream_corrs(seed):
            anchors += anchor
            assert_csr_equal(
                builder.build(corr, full=anchor), tsg_csr(corr, 3, 0.3).absolute()
            )
        assert anchors >= 4, "stream must exercise anchored full rebuilds"

    def test_nan_masked_round_then_patched(self):
        # The pipeline forces full=True on non-finite windows; the rounds
        # *after* the masked one patch from that rebuilt candidate cache.
        values = correlated_values(n_sensors=8, length=300, seed=5)
        poisoned = values[:, 100:150].copy()
        poisoned[2, 7] = np.nan
        corr_masked = pearson_matrix_masked(poisoned, 2)
        builder = DeltaTSGBuilder(8, 3, 0.3)
        kernel = RollingCorrelation(8, 50, 5, refresh_every=64)
        for r in range(8):
            corr = kernel.update(values[:, r * 5 : r * 5 + 50])
            builder.build(corr, full=(r == 0))
        assert_csr_equal(
            builder.build(corr_masked, full=True),
            tsg_csr(corr_masked, 3, 0.3).absolute(),
        )
        for r in range(8, 16):
            corr = kernel.update(values[:, r * 5 : r * 5 + 50])
            assert_csr_equal(
                builder.build(corr), tsg_csr(corr, 3, 0.3).absolute()
            )

    def test_state_round_trip_mid_stream(self):
        original = DeltaTSGBuilder(10, 3, 0.3)
        corrs = list(self.stream_corrs(9))
        for anchor, corr in corrs[:20]:
            original.build(corr, full=anchor)
        resumed = DeltaTSGBuilder.from_state(original.to_state())
        for anchor, corr in corrs[20:]:
            assert_csr_equal(
                original.build(corr, full=anchor),
                resumed.build(corr, full=anchor),
            )

    def test_from_state_validates_members(self):
        state = DeltaTSGBuilder(6, 2, 0.3).to_state()
        state["members"] = np.zeros((5, 6), dtype=bool)
        with pytest.raises(ValueError, match="shape"):
            DeltaTSGBuilder.from_state(state)
        state["members"] = np.zeros((6, 6), dtype=bool)  # 0 per row, not k
        with pytest.raises(ValueError, match="exactly k"):
            DeltaTSGBuilder.from_state(state)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="sensors"):
            DeltaTSGBuilder(1, 1, 0.3)
        with pytest.raises(ValueError, match="k must"):
            DeltaTSGBuilder(5, 5, 0.3)
        with pytest.raises(ValueError, match="tau"):
            DeltaTSGBuilder(5, 2, 1.5)


class TestDeltaEngineBitIdentity:
    """The fast engine's TSG maintenance must never change the answer."""

    def test_clean_stream_matches_reference_and_fast(self, feed):
        history, live = feed
        records = {
            engine: run_stream(delta_config(engine=engine), history, live)
            for engine in ("reference", "fast")
        }
        assert len(records["fast"]) > 20
        assert records["fast"] == records["reference"]

    def test_faulted_stream_matches_reference(self, feed):
        history, live = feed
        faults = FaultModel(
            missing_rate=0.01,
            dropout=((3, 120, 200),),
            stuck=((1, 300, 360),),
            seed=11,
        )
        corrupted = faults.apply(live)
        assert np.isnan(corrupted).any(), "scenario must exercise NaN masking"
        assert run_stream(delta_config(), history, corrupted) == run_stream(
            delta_config(engine="reference"), history, corrupted
        )

    @settings(max_examples=8, deadline=None)
    @given(
        data_seed=st.integers(0, 1000),
        fault_seed=st.integers(0, 1000),
        missing_rate=st.floats(0.0, 0.04),
        dropout_sensor=st.integers(0, N_SENSORS - 1),
    )
    def test_property_random_faulted_streams(
        self, data_seed, fault_seed, missing_rate, dropout_sensor
    ):
        values = correlated_values(n_sensors=N_SENSORS, length=500, seed=data_seed)
        history = MultivariateTimeSeries(values[:, :100])
        faults = FaultModel(
            missing_rate=missing_rate,
            dropout=((dropout_sensor, 50, 130),),
            seed=fault_seed,
        )
        live = faults.apply(values[:, 100:])
        assert run_stream(delta_config(), history, live) == run_stream(
            delta_config(engine="reference"), history, live
        )


class TestDeltaCheckpointResume:
    """Delta state must survive kill/resume through supervisor checkpoints."""

    def test_checkpoint_round_trips_delta_and_warm_state(self, feed, tmp_path):
        history, live = feed
        config = delta_config()
        stream = StreamingCAD(config, N_SENSORS)
        stream.warm_up(history)
        stream.push_many(live[:, :300])
        path = tmp_path / "delta.npz"
        save_checkpoint(stream, path)
        resumed = load_checkpoint(path)
        # Both copies see identical remaining samples and must agree with
        # the reference engine; the resumed copy must also carry the
        # candidate cache itself, not re-rank from scratch.
        assert resumed.detector.pipeline.to_state()["delta"]["builder"][
            "members"
        ] is not None
        expected = StreamingCAD(delta_config(engine="reference"), N_SENSORS)
        expected.warm_up(history)
        expected.push_many(live[:, :300])
        records = stream.push_many(live[:, 300:])
        assert resumed.push_many(live[:, 300:]) == records
        assert records == expected.push_many(live[:, 300:])

    def test_kill_resume_is_bit_identical(self, feed, tmp_path):
        history, live = feed
        config = delta_config()
        baseline = run_stream(config, history, live)

        sup_config = SupervisorConfig(checkpoint_every=5, keep_checkpoints=3)
        first = StreamSupervisor(
            config, N_SENSORS, supervisor=sup_config,
            checkpoint_dir=tmp_path, clock=VirtualClock(),
        )
        first.warm_up(history)
        before = first.process_many(live[:, :350])
        del first  # process death

        resumed = StreamSupervisor(
            config, N_SENSORS, supervisor=sup_config,
            checkpoint_dir=tmp_path, clock=VirtualClock(),
        )
        restart = resumed.stream.samples_seen
        assert 0 < restart <= 350
        after = resumed.process_many(live[:, restart:])

        merged = {}
        for record in [*before, *after]:
            if record.index in merged:
                assert merged[record.index] == record, "re-emitted round differs"
            merged[record.index] = record
        assert [merged[r.index] for r in baseline] == baseline

    def test_pool_generation_persisted_in_sidecar(self, feed, tmp_path):
        from repro.core.parallel import pool_generation, restore_pool_generation

        restore_pool_generation(pool_generation() + 3)
        expected = pool_generation()
        history, live = feed
        supervisor = StreamSupervisor(
            delta_config(), N_SENSORS,
            supervisor=SupervisorConfig(checkpoint_every=5, keep_checkpoints=2),
            checkpoint_dir=tmp_path, clock=VirtualClock(),
        )
        supervisor.warm_up(history)
        supervisor.process_many(live[:, :200])
        assert supervisor.health().pool_generation == expected
        sidecars = sorted(tmp_path.glob("ckpt-*.json"))
        assert sidecars, "supervisor must have rotated checkpoints"
        payload = json.loads(sidecars[-1].read_text())
        assert payload["runtime"]["pool_generation"] == expected

        resumed = StreamSupervisor(
            delta_config(), N_SENSORS,
            supervisor=SupervisorConfig(checkpoint_every=5, keep_checkpoints=2),
            checkpoint_dir=tmp_path, clock=VirtualClock(),
        )
        assert resumed.health().pool_generation >= expected
