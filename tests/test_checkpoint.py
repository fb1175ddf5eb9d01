"""Checkpoint/restore: a resumed stream must be bit-identical to an
uninterrupted one (the determinism the paper's Table VIII rests on)."""

import numpy as np
import pytest

from repro.core import (
    CAD,
    CADConfig,
    CoAppearanceTracker,
    RunningMoments,
    StreamingCAD,
    load_checkpoint,
    save_checkpoint,
)
from repro.timeseries import MultivariateTimeSeries


def run_interrupted(config, values, cut, tmp_path, warm_up=None):
    """Stream ``values`` with a save/load restart after ``cut`` samples."""
    stream = StreamingCAD(config, values.shape[0])
    if warm_up is not None:
        stream.warm_up(warm_up)
    records = stream.push_many(values[:, :cut])
    path = tmp_path / "stream.npz"
    stream.save(path)
    resumed = StreamingCAD.load(path)
    return records + resumed.push_many(values[:, cut:]), resumed


class TestRoundTrip:
    @pytest.mark.parametrize("cut", [37, 250, 743])
    def test_resumed_records_bit_identical(self, toy_config, toy_values, cut, tmp_path):
        uninterrupted = StreamingCAD(toy_config, 12)
        expected = uninterrupted.push_many(toy_values[:, :1200])

        got, resumed = run_interrupted(toy_config, toy_values[:, :1200], cut, tmp_path)

        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a == b  # frozen dataclass: every field, bit for bit
        assert resumed.samples_seen == uninterrupted.samples_seen
        assert resumed.detector.moments == uninterrupted.detector.moments

    def test_round_trip_with_warm_up(self, toy_config, broken_series, tmp_path):
        history, test, _, _ = broken_series
        uninterrupted = StreamingCAD(toy_config, 12)
        uninterrupted.warm_up(history)
        expected = uninterrupted.push_many(test.values)

        got, _ = run_interrupted(
            toy_config, test.values, 333, tmp_path, warm_up=history
        )
        assert got == expected
        assert any(record.abnormal for record in got)

    def test_resume_before_first_window(self, toy_config, toy_values, tmp_path):
        """A checkpoint taken before any round exists restores cleanly."""
        got, _ = run_interrupted(
            toy_config, toy_values[:, :300], toy_config.window // 2, tmp_path
        )
        uninterrupted = StreamingCAD(toy_config, 12)
        assert got == uninterrupted.push_many(toy_values[:, :300])

    def test_degraded_stream_round_trip(self, toy_config, toy_values, tmp_path):
        """NaN readings in the buffer survive the checkpoint round-trip."""
        from dataclasses import replace

        config = replace(toy_config, allow_missing=True)
        rng = np.random.default_rng(7)
        values = toy_values[:, :600].copy()
        values[rng.random(values.shape) < 0.05] = np.nan

        uninterrupted = StreamingCAD(config, 12)
        expected = uninterrupted.push_many(values)
        got, _ = run_interrupted(config, values, 311, tmp_path)
        assert got == expected

    @pytest.mark.parametrize("rc_mode", ["running", "decay", "window"])
    def test_all_rc_modes(self, toy_values, rc_mode, tmp_path):
        from dataclasses import replace

        config = CADConfig(
            window=80, step=8, k=4, tau=0.5, theta=0.2, rc_mode=rc_mode, rc_window=6
        )
        uninterrupted = StreamingCAD(config, 12)
        expected = uninterrupted.push_many(toy_values[:, :600])
        got, _ = run_interrupted(config, toy_values[:, :600], 401, tmp_path)
        assert got == expected


class TestCheckpointFile:
    def test_module_level_functions(self, toy_config, toy_values, tmp_path):
        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :200])
        path = tmp_path / "ck.npz"
        save_checkpoint(stream, path)
        restored = load_checkpoint(path)
        assert restored.samples_seen == 200
        assert restored.detector.rounds_processed == stream.detector.rounds_processed

    def test_config_survives(self, toy_config, toy_values, tmp_path):
        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :200])
        path = tmp_path / "ck.npz"
        stream.save(path)
        assert StreamingCAD.load(path).detector.config == toy_config

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, scores=np.zeros(4))
        with pytest.raises(ValueError, match="not a StreamingCAD checkpoint"):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, toy_config, toy_values, tmp_path):
        import json

        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :150])
        path = tmp_path / "ck.npz"
        stream.save(path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays["meta"]))
        meta["version"] = 999
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)


def downgrade_to_v1(path):
    """Rewrite a v2 checkpoint file into the v1 on-disk layout.

    Version 1 predates the fast engine: no kernel arrays, no ``has_kernel``
    flag, and a config without the ``engine``/``corr_refresh``/``n_jobs``
    keys.  This reproduces exactly what a PR-1-era process wrote.
    """
    import json

    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(str(arrays["meta"]))
    meta["version"] = 1
    meta.pop("has_kernel", None)
    meta.pop("kernel", None)
    for key in ("engine", "corr_refresh", "n_jobs"):
        meta["config"].pop(key, None)
    arrays = {
        name: value
        for name, value in arrays.items()
        if not name.startswith("kernel_")
    }
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


class TestV1Migration:
    """v1 -> v2 loading: old checkpoints keep resuming bit-identically."""

    def _reference_config(self, toy_config):
        from dataclasses import replace

        return replace(toy_config, engine="reference", corr_refresh=1, n_jobs=1)

    def test_v1_checkpoint_loads_and_resumes_bit_identically(
        self, toy_config, toy_values, tmp_path
    ):
        config = self._reference_config(toy_config)
        cut = 400
        uninterrupted = StreamingCAD(config, 12)
        expected = uninterrupted.push_many(toy_values[:, :900])

        stream = StreamingCAD(config, 12)
        records = stream.push_many(toy_values[:, :cut])
        path = tmp_path / "v1.npz"
        stream.save(path)
        downgrade_to_v1(path)

        resumed = StreamingCAD.load(path)
        got = records + resumed.push_many(toy_values[:, cut:900])
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a == b  # bit-identical resume across the format migration

    def test_v1_config_pins_reference_engine(
        self, toy_config, toy_values, tmp_path
    ):
        """A v1 file must restore the engine that wrote it, not today's
        default — the reference path was the only engine back then."""
        config = self._reference_config(toy_config)
        stream = StreamingCAD(config, 12)
        stream.push_many(toy_values[:, :200])
        path = tmp_path / "v1.npz"
        stream.save(path)
        downgrade_to_v1(path)

        restored = StreamingCAD.load(path)
        assert restored.detector.config.engine == "reference"
        assert restored.detector.config.corr_refresh == 1
        assert restored.detector.config.n_jobs == 1
        assert restored.detector.config == config

    def test_v1_has_no_kernel_state(self, toy_config, toy_values, tmp_path):
        config = self._reference_config(toy_config)
        stream = StreamingCAD(config, 12)
        stream.push_many(toy_values[:, :200])
        path = tmp_path / "v1.npz"
        stream.save(path)
        downgrade_to_v1(path)
        restored = StreamingCAD.load(path)
        assert restored.detector._pipeline.kernel is None

    def test_v2_files_still_load_after_migration_support(
        self, toy_config, toy_values, tmp_path
    ):
        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :200])
        path = tmp_path / "v2.npz"
        stream.save(path)
        restored = StreamingCAD.load(path)
        assert restored.detector.config == toy_config


def add_warm_start_keys(path):
    """Rewrite a v3 checkpoint the way warm-start-era builds wrote it.

    Those builds named the engine ``"delta"``, carried a ``louvain_verify``
    config key, three warm-start meta keys next to the TSG candidate cache
    and a ``delta_warm_labels`` array.
    """
    import json

    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(str(arrays["meta"]))
    assert meta["version"] == 3 and meta["has_delta"]
    meta["config"]["engine"] = "delta"
    meta["config"]["louvain_verify"] = 3
    meta["delta"].update(has_warm_labels=True, warm_trusted=True, verify_counter=2)
    arrays["delta_warm_labels"] = np.arange(meta["n_sensors"], dtype=np.int64) % 3
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


class TestV3WarmStartKeys:
    """v3 files from builds with warm-start Louvain still load and resume."""

    def test_loads_as_fast_and_matches_reference(
        self, toy_config, toy_values, tmp_path
    ):
        from dataclasses import replace

        cut = 400
        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :cut])
        path = tmp_path / "v3-warm.npz"
        stream.save(path)
        add_warm_start_keys(path)

        resumed = StreamingCAD.load(path)
        assert resumed.detector.config == toy_config
        assert resumed.detector.config.engine == "fast"
        reference = StreamingCAD(replace(toy_config, engine="reference"), 12)
        reference.push_many(toy_values[:, :cut])
        expected = reference.push_many(toy_values[:, cut:900])
        assert len(expected) > 10
        assert resumed.push_many(toy_values[:, cut:900]) == expected


class TestComponentState:
    def test_running_moments_state(self):
        moments = RunningMoments()
        for value in (3.0, 7.5, 1.25, 4.0):
            moments.push(value)
        restored = RunningMoments.from_state(moments.to_state())
        assert restored.snapshot() == moments.snapshot()
        assert restored.count == moments.count
        moments.push(2.0)
        restored.push(2.0)
        assert restored.snapshot() == moments.snapshot()

    def test_tracker_state_round_trip(self):
        rng = np.random.default_rng(3)
        tracker = CoAppearanceTracker(8, mode="window", window=4)
        for _ in range(6):
            tracker.update(rng.integers(0, 3, size=8))
        restored = CoAppearanceTracker.from_state(tracker.to_state())
        labels = rng.integers(0, 3, size=8)
        a = tracker.update(labels)
        b = restored.update(labels)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_cad_state_round_trip_mid_detect(self, toy_config):
        from tests.conftest import correlated_values

        values = correlated_values(seed=5)
        series = MultivariateTimeSeries(values[:, :1600])
        reference = CAD(toy_config, 12)
        reference.warm_up(MultivariateTimeSeries(values[:, 1600:]))

        restored = CAD.from_state(reference.to_state())
        result_a = reference.detect(series)
        result_b = restored.detect(series)
        assert result_a.rounds == result_b.rounds

    def test_tracker_width_mismatch_rejected(self, toy_config):
        detector = CAD(toy_config, 12)
        state = detector.to_state()
        state["n_sensors"] = 13
        with pytest.raises(ValueError):
            CAD.from_state(state)


class TestCheckpointError:
    """Every load failure surfaces as a typed error naming the file."""

    def test_missing_file(self, tmp_path):
        from repro.core import CheckpointError

        missing = tmp_path / "nope.npz"
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(missing)
        assert excinfo.value.path == missing

    def test_truncated_archive(self, toy_config, toy_values, tmp_path):
        from repro.core import CheckpointError

        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :200])
        path = tmp_path / "torn.npz"
        stream.save(path)
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 3)
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.path == path
        assert excinfo.value.reason

    def test_is_a_value_error(self):
        from repro.core import CheckpointError

        assert issubclass(CheckpointError, ValueError)

    def test_failed_save_leaves_no_tmp(self, toy_config, toy_values, tmp_path):
        """An exploding write must not litter ``.tmp`` staging files."""
        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :200])
        target = tmp_path / "sub" / "ck.npz"  # parent missing -> open fails
        with pytest.raises(OSError):
            save_checkpoint(stream, target)
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_save_is_atomic_over_existing(self, toy_config, toy_values, tmp_path):
        """Re-saving over a checkpoint never exposes a partial file."""
        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :200])
        path = tmp_path / "ck.npz"
        stream.save(path)
        first = path.read_bytes()
        stream.push_many(toy_values[:, 200:400])
        stream.save(path)
        assert path.read_bytes() != first
        assert load_checkpoint(path).samples_seen == 400
        assert not list(tmp_path.glob("*.tmp"))


def rewrite_meta(path, edit):
    """Replace a checkpoint's JSON metadata with ``edit(meta)``."""
    import json

    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(str(arrays["meta"]))
    arrays["meta"] = np.array(json.dumps(edit(meta)))
    np.savez(path, **arrays)


def mutated_copies(data, seed, count):
    """``count`` seeded corruptions of ``data``: half torn at a random
    length, half with one random bit flipped."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        copy = bytearray(data)
        if rng.random() < 0.5:
            del copy[int(rng.integers(0, len(copy))):]
        else:
            copy[int(rng.integers(0, len(copy)))] ^= 1 << int(rng.integers(0, 8))
        yield bytes(copy)


def load_each(path, copies, load):
    """Write each copy to ``path`` and load it: it must load or raise
    CheckpointError; any other exception fails the calling test."""
    from repro.core import CheckpointError

    for copy in copies:
        # A fresh file per case: truncating one in place makes some
        # filesystems flush it to disk, which slows the sweep ~1000x.
        path.unlink(missing_ok=True)
        path.write_bytes(copy)
        try:
            load(path)
        except CheckpointError:
            pass


class TestMalformedCheckpoint:
    """Well-formed archives with mistyped metadata, and seeded torn or
    bit-flipped archives, surface only as CheckpointError."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: list(meta),
            lambda meta: {**meta, "previous_outliers": None},
            lambda meta: {**meta, "config": None},
            lambda meta: {**meta, "n_sensors": None},
            lambda meta: {**meta, "config": {**meta["config"], "no_such_knob": 1}},
            lambda meta: {**meta, "tracker_window": 10**30},
        ],
        ids=[
            "meta-is-a-list",
            "null-previous-outliers",
            "null-config",
            "null-n-sensors",
            "unknown-config-key",
            "overflowing-tracker-window",
        ],
    )
    def test_mistyped_meta_is_a_checkpoint_error(
        self, toy_config, toy_values, tmp_path, edit
    ):
        from repro.core import CheckpointError

        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :200])
        path = tmp_path / "ck.npz"
        stream.save(path)
        rewrite_meta(path, edit)
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.path == path

    def test_torn_and_bit_flipped_archives(self, toy_config, toy_values, tmp_path):
        stream = StreamingCAD(toy_config, 12)
        stream.push_many(toy_values[:, :200])
        path = tmp_path / "ck.npz"
        stream.save(path)
        copies = mutated_copies(path.read_bytes(), seed=0, count=3000)
        load_each(tmp_path / "case.npz", copies, load_checkpoint)

    def test_torn_and_bit_flipped_fleet_manifests(self, tmp_path):
        from repro.core.checkpoint import load_fleet_manifest, save_fleet_manifest

        path = tmp_path / "manifest.json"
        save_fleet_manifest(
            path,
            shards=2,
            seed=7,
            cycle=11,
            tenants={
                "alpha": {"shard": 0, "directory": "tenants/alpha"},
                "beta": {"shard": 1, "directory": "tenants/beta"},
            },
        )
        copies = mutated_copies(path.read_bytes(), seed=1, count=3000)
        load_each(tmp_path / "case.json", copies, load_fleet_manifest)
