"""Tests for co-appearance mining (paper Definitions 4-6)."""

import numpy as np
import pytest

from repro.core import CoAppearanceTracker, coappearance_counts


def brute_force_counts(previous, labels):
    """Direct O(n^2) evaluation of Definition 5."""
    n = len(labels)
    counts = np.zeros(n, dtype=int)
    for v in range(n):
        for u in range(n):
            if u == v:
                continue
            if previous[u] == previous[v] and labels[u] == labels[v]:
                counts[v] += 1
    return counts


class TestCoappearanceCounts:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 1])
        counts = coappearance_counts(labels, labels)
        np.testing.assert_array_equal(counts, [1, 1, 2, 2, 2])

    def test_one_vertex_moves(self):
        previous = np.array([0, 0, 0, 1, 1])
        current = np.array([0, 0, 1, 1, 1])
        counts = coappearance_counts(previous, current)
        # Vertex 2 left community 0: co-appears with nobody.
        assert counts[2] == 0
        # Vertices 0, 1 still share both rounds.
        assert counts[0] == 1 and counts[1] == 1
        # Vertices 3, 4 unaffected.
        assert counts[3] == 1 and counts[4] == 1

    def test_label_renaming_invariant(self):
        previous = np.array([0, 0, 1, 1])
        current_a = np.array([0, 0, 1, 1])
        current_b = np.array([5, 5, 2, 2])  # same partition, new names
        np.testing.assert_array_equal(
            coappearance_counts(previous, current_a),
            coappearance_counts(previous, current_b),
        )

    @pytest.mark.parametrize(
        "previous, current",
        [
            ([0, 1, 1, 2], [0, 10**12, 10**12, 5]),  # a pair-key span of ~10**12
            ([-1, -1, 3, 3], [0, 0, 0, 1]),  # negative ids
            (list(range(64)), list(range(64))),  # all singletons: a span of n**2
        ],
    )
    def test_sparse_or_negative_ids_stay_exact_without_a_dense_table(
        self, previous, current, monkeypatch
    ):
        bincount = np.bincount

        def bounded_bincount(keys, *args, **kwargs):
            assert keys.max() < 16 * keys.size, "dense table over 16n"
            return bincount(keys, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", bounded_bincount)
        counts = coappearance_counts(np.array(previous), np.array(current))
        np.testing.assert_array_equal(counts, brute_force_counts(previous, current))

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            previous = rng.integers(0, 4, n)
            current = rng.integers(0, 4, n)
            np.testing.assert_array_equal(
                coappearance_counts(previous, current),
                brute_force_counts(previous, current),
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            coappearance_counts(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


class TestTracker:
    def test_first_round_returns_none(self):
        tracker = CoAppearanceTracker(4)
        assert tracker.update(np.array([0, 0, 1, 1])) is None
        assert tracker.rounds_seen == 0

    def test_running_rc_definition(self):
        """RC must equal (1 / (r (n-1))) * sum of S_i (Definition 6)."""
        tracker = CoAppearanceTracker(4, mode="running")
        partitions = [
            np.array([0, 0, 1, 1]),
            np.array([0, 0, 1, 1]),
            np.array([0, 1, 1, 0]),
            np.array([0, 0, 0, 1]),
        ]
        tracker.update(partitions[0])
        sums = np.zeros(4)
        for r, labels in enumerate(partitions[1:], start=1):
            s_r, rc = tracker.update(labels)
            sums += s_r
            np.testing.assert_allclose(rc, sums / (r * 3))

    def test_stable_partition_rc_level(self):
        tracker = CoAppearanceTracker(6, mode="running")
        labels = np.array([0, 0, 0, 1, 1, 1])
        tracker.update(labels)
        for _ in range(5):
            _, rc = tracker.update(labels)
        np.testing.assert_allclose(rc, 2 / 5)

    def test_window_mode_forgets(self):
        tracker = CoAppearanceTracker(4, mode="window", window=2)
        stable = np.array([0, 0, 1, 1])
        tracker.update(stable)
        tracker.update(stable)
        # Break vertex 0 away for two rounds: windowed RC drops to 0 for it.
        broken = np.array([2, 0, 1, 1])
        tracker.update(broken)
        _, rc = tracker.update(broken)
        assert rc[0] == 0.0
        # Vertex 1 lost its partner 0 but keeps itself: S = 0 too.
        assert rc[2] > 0

    def test_decay_mode_between_running_and_window(self):
        stable = np.array([0, 0, 1, 1])
        broken = np.array([2, 0, 1, 1])
        rcs = {}
        for mode, kwargs in [
            ("running", {}),
            ("decay", {"decay": 0.5}),
            ("window", {"window": 1}),
        ]:
            tracker = CoAppearanceTracker(4, mode=mode, **kwargs)
            tracker.update(stable)
            for _ in range(5):
                tracker.update(stable)
            _, rc = tracker.update(broken)
            rcs[mode] = rc[0]
        assert rcs["window"] <= rcs["decay"] <= rcs["running"]

    def test_reset(self):
        tracker = CoAppearanceTracker(4)
        tracker.update(np.array([0, 0, 1, 1]))
        tracker.update(np.array([0, 0, 1, 1]))
        tracker.reset()
        assert tracker.rounds_seen == 0
        assert tracker.last_rc is None
        assert tracker.update(np.array([0, 0, 1, 1])) is None

    def test_last_rc_exposed(self):
        tracker = CoAppearanceTracker(4)
        labels = np.array([0, 0, 1, 1])
        tracker.update(labels)
        _, rc = tracker.update(labels)
        np.testing.assert_array_equal(tracker.last_rc, rc)

    def test_wrong_label_shape(self):
        tracker = CoAppearanceTracker(4)
        with pytest.raises(ValueError):
            tracker.update(np.array([0, 1]))

    def test_needs_two_sensors(self):
        with pytest.raises(ValueError):
            CoAppearanceTracker(1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            CoAppearanceTracker(4, mode="bogus")
