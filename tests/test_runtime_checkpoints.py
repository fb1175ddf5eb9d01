"""Rotated checkpoint generations: atomic writes, pruning, fall-back recovery."""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from tests.conftest import correlated_values, live_and_stray
from repro.core import CADConfig, CheckpointError, StreamingCAD
from repro.core import checkpoint
from repro.runtime import ChaosModel, CheckpointRotation


@pytest.fixture
def stream():
    config = CADConfig(window=40, step=10, allow_missing=True)
    stream = StreamingCAD(config, 6)
    stream.push_many(correlated_values(n_sensors=6, length=160, seed=3))
    return stream


def advance(stream: StreamingCAD, t: int, seed: int) -> None:
    stream.push_many(correlated_values(n_sensors=6, length=t, seed=seed))


class TestWrite:
    def test_write_creates_archive_and_sidecar(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        generation = rotation.write(stream, 12, {"marker": 1})
        assert generation.path.exists() and generation.sidecar.exists()
        payload = json.loads(generation.sidecar.read_text())
        assert payload["samples_seen"] == stream.samples_seen
        assert payload["runtime"] == {"marker": 1}

    def test_no_tmp_droppings(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        rotation.write(stream, 12, {})
        assert not list(tmp_path.glob("*.tmp"))

    def test_every_rename_reaches_the_directory(self, stream, tmp_path, monkeypatch):
        sidecar = tmp_path / "ckpt-0000000012.json"
        flushes = []
        fsync_directory = checkpoint._fsync_directory

        def recording(directory):
            flushes.append(sidecar.exists())
            fsync_directory(directory)

        monkeypatch.setattr(checkpoint, "_fsync_directory", recording)
        CheckpointRotation(tmp_path, keep=2).write(stream, 12, {})
        assert flushes and flushes[-1], "the sidecar rename must be flushed"

    def test_prune_keeps_newest(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        for round_index in (10, 20, 30, 40):
            rotation.write(stream, round_index, {})
        generations = rotation.generations()
        assert [g.round_index for g in generations] == [40, 30]
        assert len(list(tmp_path.glob("ckpt-*.npz"))) == 2

    def test_negative_round_rejected(self, stream, tmp_path):
        with pytest.raises(ValueError):
            CheckpointRotation(tmp_path).write(stream, -1, {})

    def test_keep_validated(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointRotation(tmp_path, keep=0)


class TestReclaim:
    """Pruning renames surplus files out of sight and frees them off-thread."""

    def test_write_never_unlinks_on_the_caller_thread(
        self, stream, tmp_path, monkeypatch
    ):
        callers = []
        real_os_unlink, real_path_unlink = os.unlink, Path.unlink

        def os_unlink(path, *args, **kwargs):
            callers.append(threading.current_thread())
            return real_os_unlink(path, *args, **kwargs)

        def path_unlink(self, *args, **kwargs):
            callers.append(threading.current_thread())
            return real_path_unlink(self, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", os_unlink)
        monkeypatch.setattr(Path, "unlink", path_unlink)
        keep = 2
        rotation = CheckpointRotation(tmp_path, keep=keep)
        for round_index in range(keep + 2):
            rotation.write(stream, round_index, {})
            assert threading.current_thread() not in callers
        rotation.join_reclaim()
        assert callers, "the surplus generations must have been unlinked"
        assert threading.current_thread() not in callers

    def test_exactly_keep_pairs_visible_and_none_left_after_join(
        self, stream, tmp_path
    ):
        keep = 2
        rotation = CheckpointRotation(tmp_path, keep=keep)
        for round_index in range(keep + 2):
            rotation.write(stream, round_index, {})
            visible = min(round_index + 1, keep)
            assert len(list(tmp_path.glob("ckpt-*.npz"))) == visible
            assert len(list(tmp_path.glob("ckpt-*.json"))) == visible
            assert len(rotation.generations()) == visible
        rotation.join_reclaim()
        live, stray = live_and_stray(tmp_path)
        assert stray == []
        assert live == [
            "ckpt-0000000002.json",
            "ckpt-0000000002.npz",
            "ckpt-0000000003.json",
            "ckpt-0000000003.npz",
        ]

    def test_reclaim_named_generation_is_invisible(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        rotation.write(stream, 12, {"gen": "old"})
        old_samples = stream.samples_seen
        advance(stream, 50, seed=4)
        newest = rotation.write(stream, 17, {"gen": "new"})
        for path in (newest.path, newest.sidecar):
            path.rename(path.with_name(path.name + ".reclaim"))
        assert [g.round_index for g in rotation.generations()] == [12]
        assert rotation.min_covered_samples() == old_samples
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation.round_index == 12
        assert recovered.runtime_state == {"gen": "old"}
        assert recovered.skipped == ()

    def test_leftover_staging_and_reclaim_files_are_swept(self, stream, tmp_path):
        CheckpointRotation(tmp_path, keep=2).write(stream, 12, {})
        leftovers = [
            "ckpt-0000000020.npz.tmp",
            "ckpt-0000000020.json.tmp",
            "ckpt-0000000004.npz.reclaim",
            "ckpt-0000000004.json.reclaim",
        ]
        for name in leftovers:
            (tmp_path / name).write_bytes(b"left by a killed process")
        (tmp_path / "notes.txt").write_text("not ours to delete")
        rotation = CheckpointRotation(tmp_path, keep=2)
        rotation.join_reclaim()
        live, stray = live_and_stray(tmp_path)
        assert live == ["ckpt-0000000012.json", "ckpt-0000000012.npz"]
        assert stray == ["notes.txt"]

    def test_failed_reclaim_never_reaches_write_and_is_swept_later(
        self, stream, tmp_path, monkeypatch
    ):
        real_unlink = os.unlink

        def refusing(path, *args, **kwargs):
            if str(path).endswith(".reclaim"):
                raise PermissionError(13, "Permission denied", str(path))
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", refusing)
        rotation = CheckpointRotation(tmp_path, keep=1)
        rotation.write(stream, 10, {})
        rotation.write(stream, 20, {})  # must not raise
        rotation.join_reclaim()
        assert sorted(p.name for p in tmp_path.glob("*.reclaim")) == [
            "ckpt-0000000010.json.reclaim",
            "ckpt-0000000010.npz.reclaim",
        ]
        monkeypatch.setattr(os, "unlink", real_unlink)
        CheckpointRotation(tmp_path, keep=1).join_reclaim()
        live, stray = live_and_stray(tmp_path)
        assert live == ["ckpt-0000000020.json", "ckpt-0000000020.npz"]
        assert stray == []

    def test_prune_killed_between_renames_strands_no_sidecar(
        self, stream, tmp_path, monkeypatch
    ):
        class Killed(Exception):
            pass

        real_rename = Path.rename

        def killed_on_archive(path, target):
            if path.suffix == ".npz":
                raise Killed
            return real_rename(path, target)

        rotation = CheckpointRotation(tmp_path, keep=1)
        rotation.write(stream, 10, {})
        monkeypatch.setattr(Path, "rename", killed_on_archive)
        with pytest.raises(Killed):
            rotation.write(stream, 20, {})
        monkeypatch.setattr(Path, "rename", real_rename)
        rotation.join_reclaim()
        # The sidecar went first: the surplus archive is still visible but
        # unreadable, so recovery passes over it, and the next prune retires it.
        assert not (tmp_path / "ckpt-0000000010.json").exists()
        restarted = CheckpointRotation(tmp_path, keep=1)
        recovered = restarted.recover()
        assert recovered is not None
        assert recovered.generation.round_index == 20
        restarted.write(stream, 30, {})
        restarted.join_reclaim()
        live, stray = live_and_stray(tmp_path)
        assert live == ["ckpt-0000000030.json", "ckpt-0000000030.npz"]
        assert stray == []

    def test_second_prune_waits_for_the_batch_in_flight(
        self, stream, tmp_path, monkeypatch
    ):
        release = threading.Event()
        real_unlink = os.unlink

        def blocked(path, *args, **kwargs):
            if str(path).endswith(".reclaim"):
                release.wait(timeout=30)
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", blocked)
        rotation = CheckpointRotation(tmp_path, keep=1)
        rotation.write(stream, 10, {})
        rotation.write(stream, 20, {})  # first batch: blocked on the event
        writer = threading.Thread(target=rotation.write, args=(stream, 30, {}))
        try:
            writer.start()
            # The surplus generation goes out of sight before the hand-off,
            # then the writer must stay parked until the first batch ends.
            deadline = time.monotonic() + 30
            while [g.round_index for g in rotation.generations()] != [30]:
                assert time.monotonic() < deadline, "prune never renamed gen 20"
                time.sleep(0.01)
            writer.join(timeout=0.2)
            assert writer.is_alive(), "the second prune must wait for the first"
        finally:
            release.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        rotation.join_reclaim()
        live, stray = live_and_stray(tmp_path)
        assert live == ["ckpt-0000000030.json", "ckpt-0000000030.npz"]
        assert stray == []


class TestRecover:
    def test_empty_directory_recovers_nothing(self, tmp_path):
        assert CheckpointRotation(tmp_path).recover() is None

    def test_recovers_newest(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        rotation.write(stream, 12, {"gen": "old"})
        advance(stream, 50, seed=4)
        rotation.write(stream, 17, {"gen": "new"})
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation.round_index == 17
        assert recovered.runtime_state == {"gen": "new"}
        assert recovered.stream.samples_seen == stream.samples_seen
        assert recovered.skipped == ()

    def test_falls_back_past_corrupt_archive(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        rotation.write(stream, 12, {"gen": "old"})
        old_samples = stream.samples_seen
        advance(stream, 50, seed=4)
        newest = rotation.write(stream, 17, {"gen": "new"})
        with open(newest.path, "r+b") as handle:  # tear the newest archive
            handle.truncate(newest.path.stat().st_size // 2)
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation.round_index == 12
        assert recovered.stream.samples_seen == old_samples
        assert newest.path in recovered.skipped

    def test_falls_back_past_corrupt_sidecar(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        rotation.write(stream, 12, {})
        advance(stream, 50, seed=4)
        newest = rotation.write(stream, 17, {})
        newest.sidecar.write_text("{ not json")
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation.round_index == 12
        assert newest.sidecar in recovered.skipped

    @pytest.mark.parametrize(
        "field, value",
        [
            ("samples_seen", "abc"),
            ("samples_seen", None),
            ("samples_seen", -1),
            ("runtime", [1, 2]),
            ("runtime", None),
        ],
    )
    def test_falls_back_past_mistyped_sidecar(self, stream, tmp_path, field, value):
        rotation = CheckpointRotation(tmp_path, keep=3)
        rotation.write(stream, 12, {"gen": "old"})
        old_samples = stream.samples_seen
        advance(stream, 50, seed=4)
        newest = rotation.write(stream, 17, {"gen": "new"})
        payload = json.loads(newest.sidecar.read_text())
        payload[field] = value
        newest.sidecar.write_text(json.dumps(payload))
        assert rotation.min_covered_samples() == old_samples
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation.round_index == 12
        assert recovered.runtime_state == {"gen": "old"}
        assert recovered.skipped == (newest.sidecar,)

    def test_falls_back_past_non_utf8_sidecar(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        rotation.write(stream, 12, {})
        advance(stream, 50, seed=4)
        newest = rotation.write(stream, 17, {})
        newest.sidecar.write_bytes(b'{"format": "\xff"}')
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation.round_index == 12

    def test_all_generations_corrupt_recovers_nothing(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        for round_index in (10, 20):
            generation = rotation.write(stream, round_index, {})
            generation.path.write_bytes(b"junk")
        assert rotation.recover() is None

    def test_samples_seen_mismatch_is_rejected(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        generation = rotation.write(stream, 12, {})
        payload = json.loads(generation.sidecar.read_text())
        payload["samples_seen"] += 1  # sidecar and archive disagree
        generation.sidecar.write_text(json.dumps(payload))
        assert rotation.recover() is None

    def test_foreign_files_ignored(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=3)
        (tmp_path / "notes.txt").write_text("not a checkpoint")
        (tmp_path / "ckpt-12.npz").write_bytes(b"bad name, not 10 digits")
        rotation.write(stream, 12, {})
        assert len(rotation.generations()) == 1

    def test_recovered_stream_is_bit_identical(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=1)
        rotation.write(stream, 12, {})
        recovered = rotation.recover()
        fresh = correlated_values(n_sensors=6, length=120, seed=9)
        original_records = stream.push_many(fresh)
        recovered_records = recovered.stream.push_many(fresh)
        assert original_records == recovered_records


class TestMinCoveredSamples:
    def test_tracks_oldest_readable_generation(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        first = stream.samples_seen
        rotation.write(stream, 12, {})
        advance(stream, 50, seed=4)
        rotation.write(stream, 17, {})
        assert rotation.min_covered_samples() == first

    def test_empty_is_zero(self, tmp_path):
        assert CheckpointRotation(tmp_path).min_covered_samples() == 0

    def test_parses_a_sidecar_again_only_when_it_changed(
        self, stream, tmp_path, monkeypatch
    ):
        parsed = []
        read = CheckpointRotation._read_sidecar

        def counting(sidecar):
            parsed.append(sidecar.name)
            return read(sidecar)

        monkeypatch.setattr(CheckpointRotation, "_read_sidecar", staticmethod(counting))
        rotation = CheckpointRotation(tmp_path, keep=3)
        first = stream.samples_seen
        oldest = rotation.write(stream, 12, {})
        advance(stream, 50, seed=4)
        middle = rotation.write(stream, 17, {})
        assert rotation.min_covered_samples() == first
        assert sorted(parsed) == [oldest.sidecar.name, middle.sidecar.name]
        parsed.clear()
        assert rotation.min_covered_samples() == first
        advance(stream, 50, seed=5)
        newest = rotation.write(stream, 22, {})
        assert rotation.min_covered_samples() == first
        assert parsed == [newest.sidecar.name]
        parsed.clear()
        # A rewritten sidecar (new inode, size and mtime) is parsed again.
        payload = json.loads(oldest.sidecar.read_text())
        payload["samples_seen"] = first - 1
        staged = tmp_path / "staged"
        staged.write_text(json.dumps(payload, indent=2))
        os.replace(staged, oldest.sidecar)
        assert rotation.min_covered_samples() == first - 1
        oldest.sidecar.write_text("{ not json")
        assert rotation.min_covered_samples() == first + 50
        oldest.sidecar.unlink()
        assert rotation.min_covered_samples() == first + 50
        assert parsed == [oldest.sidecar.name] * 2


class TestChaosCorruption:
    def test_corrupt_file_defeats_load(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=1)
        generation = rotation.write(stream, 12, {})
        chaos = ChaosModel(seed=1, corrupt_rate=0.5)
        chaos.corrupt_file(generation.path, 12)
        from repro.core import load_checkpoint

        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(generation.path)
        assert excinfo.value.path == generation.path

    def test_corruption_is_deterministic(self, stream, tmp_path):
        rotation = CheckpointRotation(tmp_path, keep=2)
        generation = rotation.write(stream, 10, {})
        twin = tmp_path / "twin.npz"
        twin.write_bytes(generation.path.read_bytes())
        chaos = ChaosModel(seed=7, corrupt_rate=0.5)
        chaos.corrupt_file(generation.path, 10)
        chaos.corrupt_file(twin, 10)  # same round key + same size -> same tear
        assert generation.path.read_bytes() == twin.read_bytes()

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosModel(crash_rate=1.0)
        with pytest.raises(ValueError):
            ChaosModel(crash_rate=0.6, slow_rate=0.5)
        with pytest.raises(ValueError):
            ChaosModel(seed=-1)

    def test_round_fate_deterministic_and_rerolled_per_attempt(self):
        chaos = ChaosModel(seed=3, crash_rate=0.3, slow_rate=0.3)
        fates = [chaos.round_fate(r, 0) for r in range(200)]
        assert fates == [chaos.round_fate(r, 0) for r in range(200)]
        assert any(f == "crash" for f in fates)
        assert any(f == "slow" for f in fates)
        assert any(f is None for f in fates)
        rerolled = [chaos.round_fate(r, 1) for r in range(200)]
        assert rerolled != fates, "a retry must re-roll the fate"


class TestScanOrderIndependence:
    """``iterdir`` order is a filesystem artifact (hash order on some
    filesystems, insertion order on others); recovery decisions must not
    depend on it."""

    def test_generations_ignore_directory_listing_order(
        self, stream, tmp_path, monkeypatch
    ):
        from pathlib import Path

        rotation = CheckpointRotation(tmp_path, keep=8)
        for round_index, seed in ((3, 11), (12, 12), (7, 13), (25, 14)):
            advance(stream, 30, seed)
            rotation.write(stream, round_index, {"samples_seen": stream.samples_seen})
        baseline = rotation.generations()
        baseline_recover = rotation.recover()
        assert baseline_recover is not None

        real_iterdir = Path.iterdir

        def adversarial(self):
            entries = list(real_iterdir(self))
            # worst case: newest generation listed first, then a rotation
            entries.reverse()
            return iter(entries[2:] + entries[:2])

        monkeypatch.setattr(Path, "iterdir", adversarial)
        shuffled = rotation.generations()
        assert shuffled == baseline
        recovered = rotation.recover()
        assert recovered is not None
        assert recovered.generation == baseline_recover.generation
        assert recovered.stream.samples_seen == baseline_recover.stream.samples_seen
