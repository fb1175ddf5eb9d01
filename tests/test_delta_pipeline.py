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
import subprocess

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import correlated_values
from repro import _native
from repro.core import (
    CADConfig,
    CommunityPipeline,
    StreamingCAD,
    load_checkpoint,
    save_checkpoint,
)
from repro.datasets import FaultModel
from repro.graph import DeltaTSGBuilder
from repro.graph import knn_graph, prune_weak_edges
from repro.graph.csr import CSRGraph, tsg_csr
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
    # Same values, dtype and C-contiguous layout: Louvain then reads
    # byte-identical arrays whichever way the TSG was built.
    for name in ("indptr", "indices", "weights"):
        got_array, expected_array = getattr(got, name), getattr(expected, name)
        assert np.array_equal(got_array, expected_array), name
        assert got_array.dtype == expected_array.dtype, name
        assert got_array.flags.c_contiguous, name
        assert expected_array.flags.c_contiguous, name


def drifting_corrs(seed, n, rounds, decimals, n_constant, nan_rate, tie_k=None):
    """Correlation-like matrices that drift a little every round.

    Slow drift lets cached top-k sets survive (certified rounds) while
    rounding to ``decimals`` makes exact ties between candidates common.
    With ``tie_k``, about half the rows (the same ones every round) also
    get a tie exactly on their top-``tie_k`` boundary: the
    (tie_k + 1)-th strongest off-diagonal entry takes the tie_k-th's
    strength.  The first ``n_constant`` sensors are zero-variance
    (all-zero rows and columns, as the kernels emit them); each round,
    each sensor's row and column are NaN with probability ``nan_rate``.
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (n, n))
    tie_rows = [] if tie_k is None else np.flatnonzero(rng.random(n) < 0.5)
    for _ in range(rounds):
        base += rng.normal(0.0, 0.05, (n, n)) * (rng.random((n, n)) < 0.2)
        corr = np.clip(np.round((base + base.T) / 2.0, decimals), -1.0, 1.0)
        for i in tie_rows:
            if tie_k + 1 < n:
                order = np.argsort(-np.abs(corr[i]) + 3.0 * (np.arange(n) == i))
                j, strength = order[tie_k], abs(corr[i, order[tie_k - 1]])
                corr[i, j] = corr[j, i] = np.copysign(strength, corr[i, j])
        np.fill_diagonal(corr, 1.0)
        corr[:n_constant, :] = 0.0
        corr[:, :n_constant] = 0.0
        for row in np.flatnonzero(rng.random(n) < nan_rate):
            corr[row, :] = np.nan
            corr[:, row] = np.nan
        yield corr


def certificate_spec(corr, picks):
    """Stale rows of a pick table, straight from the definition.

    A row is certified when its picks are k distinct off-diagonal columns,
    no off-diagonal strength is NaN, and its weakest pick is strictly
    stronger than its strongest non-pick.
    """
    n, k = picks.shape
    stale = []
    for i in range(n):
        off = np.arange(n) != i
        strength = np.abs(corr[i])
        chosen = np.zeros(n, dtype=bool)
        chosen[picks[i]] = True
        others = strength[off & ~chosen]
        if (
            np.unique(picks[i]).size != k
            or chosen[i]
            or np.isnan(strength[off]).any()
            or (others.size and strength[picks[i]].min() <= others.max())
        ):
            stale.append(i)
    return stale


class TestDeltaBuilder:
    """Builder-level bit-identity against the from-scratch CSR build."""

    @settings(max_examples=60, deadline=None)
    @example(seed=0, n=2, k_draw=0, decimals=1, n_constant=0, nan_rate=0.0,
             corrupt=False)
    @example(seed=1, n=5, k_draw=3, decimals=1, n_constant=2, nan_rate=0.05,
             corrupt=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        k_draw=st.integers(0, 38),
        decimals=st.sampled_from([1, 2, 6]),
        n_constant=st.integers(0, 2),
        nan_rate=st.sampled_from([0.0, 0.02, 0.3]),
        corrupt=st.booleans(),
    )
    def test_property_certificate_is_the_spec(
        self, seed, n, k_draw, decimals, n_constant, nan_rate, corrupt
    ):
        kernels = _native.load_kernels()
        if kernels is None:
            pytest.skip("the kernels could not be compiled here")
        rng = np.random.default_rng(seed)
        k = 1 + k_draw % (n - 1)
        builder = DeltaTSGBuilder(n, k, 0.0)
        corrs = drifting_corrs(
            seed, n, 6, decimals, min(n_constant, n), nan_rate, tie_k=k
        )
        for r, corr in enumerate(corrs):
            if r:
                # Last round's picks against this round's matrix, with
                # some rows re-drawn at random.
                picks = builder._picks.copy()
                for i in np.flatnonzero(rng.random(n) < 0.2):
                    if corrupt:  # repeats and diagonal picks allowed
                        picks[i] = rng.integers(0, n, k)
                    else:
                        others = np.delete(np.arange(n), i)
                        picks[i] = rng.choice(others, k, replace=False)
                got = kernels.tsg_certify(corr, picks)
                assert got.dtype == np.int64
                assert got.tolist() == certificate_spec(corr, picks)
            builder.build(corr)

    @settings(max_examples=60, deadline=None)
    @example(seed=0, n=2, k_draw=0, tau=0.0, decimals=1, n_constant=0,
             nan_rate=0.0, full_every=0, ties=False)
    @example(seed=1, n=2, k_draw=0, tau=1.0, decimals=1, n_constant=1,
             nan_rate=0.0, full_every=0, ties=True)
    @example(seed=2, n=9, k_draw=7, tau=0.0, decimals=2, n_constant=0,
             nan_rate=0.1, full_every=3, ties=False)
    @example(seed=3, n=9, k_draw=7, tau=1.0, decimals=6, n_constant=2,
             nan_rate=0.0, full_every=0, ties=False)
    @example(seed=4, n=12, k_draw=3, tau=0.0, decimals=2, n_constant=1,
             nan_rate=0.05, full_every=0, ties=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 16),
        k_draw=st.integers(0, 14),
        tau=st.sampled_from([0.0, 0.3, 1.0]),
        decimals=st.sampled_from([1, 2, 6]),
        n_constant=st.integers(0, 2),
        nan_rate=st.sampled_from([0.0, 0.05, 0.3]),
        full_every=st.sampled_from([0, 1, 4]),
        ties=st.booleans(),
    )
    def test_property_build_is_bitwise_the_full_path(
        self, seed, n, k_draw, tau, decimals, n_constant, nan_rate, full_every,
        ties,
    ):
        k = 1 + k_draw % (n - 1)  # k = n - 1 included
        builder = DeltaTSGBuilder(n, k, tau)
        corrs = drifting_corrs(
            seed, n, 12, decimals, min(n_constant, n), nan_rate,
            tie_k=k if ties else None,
        )
        for r, corr in enumerate(corrs):
            full = bool(full_every) and r % full_every == 0
            built = builder.build(corr, full=full)
            assert_csr_equal(built, tsg_csr(corr, k, tau).absolute())
            if nan_rate:
                # A row with fewer than k non-NaN correlations must not
                # pick its own diagonal, and the dict path must agree.
                rows = np.repeat(np.arange(n), np.diff(built.indptr))
                assert not (rows == built.indices).any()
                reference = prune_weak_edges(knn_graph(corr, k), tau)
                assert_csr_equal(built, CSRGraph.from_graph(reference).absolute())

    def test_nan_rows_never_pick_their_diagonal(self):
        # One usable correlation among four sensors, k = 2: every row has
        # fewer than k non-NaN strengths to choose from.
        corr = np.full((4, 4), np.nan)
        np.fill_diagonal(corr, 1.0)
        corr[0, 1] = corr[1, 0] = 0.8
        reference = prune_weak_edges(knn_graph(corr, 2), 0.0)
        assert reference.edge_set() == {(0, 1)}
        expected = CSRGraph.from_graph(reference).absolute()
        assert_csr_equal(tsg_csr(corr, 2, 0.0).absolute(), expected)
        assert_csr_equal(DeltaTSGBuilder(4, 2, 0.0).build(corr), expected)

    def test_generated_streams_certify_and_re_rank(self):
        # The property above runs both kinds of round, not only full ones.
        if _native.load_kernels() is None:
            pytest.skip("the kernels could not be compiled here")
        builder = DeltaTSGBuilder(12, 3, 0.3)
        for corr in drifting_corrs(5, 12, 40, 2, 0, 0.02):
            assert_csr_equal(builder.build(corr), tsg_csr(corr, 3, 0.3).absolute())
        assert builder.certified_rounds > 0
        assert builder.rows_recomputed > 0
        assert builder.full_rebuilds == 1

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

    def test_anchor_rounds_certify_and_match_a_builder_started_there(self):
        # Anchors take the certificate: a stream crossing one and a fresh
        # builder started at it (a parallel chunk's worker) hold the same
        # candidate sets and build the same CSR from that round on.
        if _native.load_kernels() is None:
            pytest.skip("the kernels could not be compiled here")
        corrs = list(self.stream_corrs(1, n=12, rounds=40))
        streamed = DeltaTSGBuilder(12, 3, 0.3)
        for start in (8, 16, 24):
            assert corrs[start][0], "the chunk must start at an anchor"
            streamed.reset()
            fresh = DeltaTSGBuilder(12, 3, 0.3)
            certified_anchors = 0
            for r, (anchor, corr) in enumerate(corrs):
                before = streamed.certified_rounds
                got = streamed.build(corr)
                certified_anchors += anchor and streamed.certified_rounds > before
                if r >= start:
                    assert_csr_equal(got, fresh.build(corr))
                    assert np.array_equal(
                        streamed.to_state()["members"], fresh.to_state()["members"]
                    )
            assert certified_anchors >= 3
        assert streamed.full_rebuilds == 3  # one per reset, none per anchor

    def test_pipeline_anchors_take_the_certificate(self):
        if _native.load_kernels() is None:
            pytest.skip("the kernels could not be compiled here")
        config = delta_config(k=3, allow_missing=False, corr_refresh=4)
        values = correlated_values(n_sensors=12, length=400, seed=1)
        pipeline = CommunityPipeline(config, 12)
        certified_anchors = 0
        step, window = config.step, config.window
        for start in range(0, 400 - window + 1, step):
            anchor = pipeline.kernel.next_update_is_anchor
            before = pipeline._builder.certified_rounds
            pipeline.process(values[:, start : start + window])
            certified_anchors += anchor and pipeline._builder.certified_rounds > before
        assert certified_anchors > 0
        assert pipeline._builder.full_rebuilds == 1

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
        uneven = np.zeros((6, 6), dtype=bool)  # n * k entries, not k per row
        uneven[0, 1:4] = uneven[1, 0] = True
        uneven[2:, :2] = True
        state["members"] = uneven
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

    def test_failed_compiler_keeps_records_and_warns_once(
        self, feed, monkeypatch, tmp_path
    ):
        history, live = feed
        faulted = FaultModel(missing_rate=0.01, seed=3).apply(live)
        expected = run_stream(delta_config(), history, faulted)

        def failing_compiler(command, **kwargs):
            raise subprocess.CalledProcessError(1, command, stderr=b"cc: error")

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(subprocess, "run", failing_compiler)
        _native.load_kernels.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="compiled kernels") as warned:
                got = run_stream(delta_config(), history, faulted)
        finally:
            _native.load_kernels.cache_clear()
        assert len(warned) == 1
        assert got == expected
        assert got == run_stream(delta_config(engine="reference"), history, faulted)

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

    def test_archive_keeps_the_members_mask_layout(self, feed, tmp_path):
        # The builder holds an (n, k) pick table; the archive keeps the
        # (n, n) bool mask it has always stored, so archives written
        # before the table existed resume exactly like new ones.
        history, live = feed
        config = delta_config()
        stream = StreamingCAD(config, N_SENSORS)
        stream.warm_up(history)
        stream.push_many(live[:, :260])
        path = tmp_path / "layout.npz"
        save_checkpoint(stream, path)
        with np.load(path) as archive:
            mask = archive["delta_members"]
        assert mask.dtype == bool and mask.shape == (N_SENSORS, N_SENSORS)
        assert (mask.sum(axis=1) == config.k).all()
        picks = stream.detector.pipeline._builder._picks
        assert [set(row) for row in picks] == [set(np.flatnonzero(r)) for r in mask]
        resumed = load_checkpoint(path)
        assert resumed.push_many(live[:, 260:]) == stream.push_many(live[:, 260:])

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
