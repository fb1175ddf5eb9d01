"""The supervised runtime: watchdog, retries, quarantine, crash recovery.

The load-bearing claim throughout: supervision must never change the
answer.  Every scenario that only injects *process* faults (crashes,
stalls, torn checkpoints, process death + resume) asserts the emitted
``RoundRecord`` sequence is bit-identical to the plain unsupervised run.
"""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from tests.conftest import correlated_values
from repro.core import CADConfig, StreamingCAD
from repro.datasets import FaultModel
from repro.ingest import FrontierConfig, IngestFrontier
from repro.runtime import (
    BreakerPolicy,
    BreakerState,
    ChaosModel,
    InvalidSampleError,
    QueueOverflowError,
    RetryBudgetExceededError,
    RetryPolicy,
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


def make_supervisor(sup_config=None, **kwargs) -> StreamSupervisor:
    kwargs.setdefault("clock", VirtualClock())
    return StreamSupervisor(CONFIG, N_SENSORS, supervisor=sup_config, **kwargs)


class TestQuietEquivalence:
    def test_no_fault_run_is_bit_identical(self, feed, baseline):
        history, live = feed
        supervisor = make_supervisor()
        supervisor.warm_up(history)
        records = supervisor.process_many(live)
        assert records == baseline

    def test_health_of_quiet_run(self, feed):
        history, live = feed
        supervisor = make_supervisor()
        supervisor.warm_up(history)
        records = supervisor.process_many(live)
        health = supervisor.health()
        assert health.healthy
        assert health.rounds_completed == len(records)
        assert health.samples_ingested == live.shape[1]
        assert health.retries == 0
        assert health.open_breakers == ()

    def test_quarantine_needs_allow_missing(self):
        strict = CADConfig(window=48, step=8, allow_missing=False)
        with pytest.raises(ValueError, match="allow_missing"):
            StreamSupervisor(strict, N_SENSORS)
        # Disabling breakers lifts the requirement.
        StreamSupervisor(
            strict,
            N_SENSORS,
            supervisor=SupervisorConfig(breaker=BreakerPolicy(failure_threshold=0)),
        )

    def test_sample_shape_validated(self):
        supervisor = make_supervisor()
        with pytest.raises(ValueError):
            supervisor.process(np.zeros(N_SENSORS + 1))


class TestChaosRecovery:
    def test_crashes_and_stalls_recover_bit_identically(
        self, feed, baseline, tmp_path
    ):
        history, live = feed
        supervisor = make_supervisor(
            SupervisorConfig(
                retry=RetryPolicy(max_retries=5, base_delay=0.01, seed=1),
                round_deadline=1.0,
                checkpoint_every=10,
                keep_checkpoints=5,
            ),
            checkpoint_dir=tmp_path,
            chaos=ChaosModel(
                seed=5,
                crash_rate=0.1,
                slow_rate=0.1,
                slow_seconds=2.0,
                corrupt_rate=0.2,
            ),
        )
        supervisor.warm_up(history)
        records = supervisor.process_many(live)
        assert records == baseline
        health = supervisor.health()
        assert health.crashes_recovered > 0
        assert health.slow_rounds > 0
        assert health.retries > 0
        assert health.checkpoints_written > 0

    def test_backoff_sleeps_through_injected_clock(self, feed, tmp_path):
        history, live = feed
        clock = VirtualClock()
        supervisor = make_supervisor(
            SupervisorConfig(retry=RetryPolicy(max_retries=5, base_delay=0.5, seed=2)),
            checkpoint_dir=tmp_path,
            clock=clock,
            chaos=ChaosModel(seed=5, crash_rate=0.1),
        )
        supervisor.warm_up(history)
        supervisor.process_many(live)
        retries = supervisor.health().retries
        assert retries > 0
        assert clock.slept >= retries * 0.5, "every retry must back off first"

    def test_crash_without_checkpoint_dir_replays_from_scratch(self, feed, baseline):
        history, live = feed
        supervisor = make_supervisor(
            SupervisorConfig(retry=RetryPolicy(max_retries=5, base_delay=0.01)),
            chaos=ChaosModel(seed=5, crash_rate=0.05),
        )
        supervisor.warm_up(history)
        records = supervisor.process_many(live)
        assert records == baseline
        assert supervisor.health().crashes_recovered > 0

    def test_retry_budget_exhaustion_raises(self, feed, tmp_path):
        history, live = feed
        # crash_rate ~ 1 makes every attempt of every round crash.
        supervisor = make_supervisor(
            SupervisorConfig(retry=RetryPolicy(max_retries=2, base_delay=0.0)),
            checkpoint_dir=tmp_path,
            chaos=ChaosModel(seed=0, crash_rate=0.99),
        )
        supervisor.warm_up(history)
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            supervisor.process_many(live)
        assert excinfo.value.attempts == 3

    def test_late_round_accepted_when_budget_exhausted(self, feed, baseline):
        """Persistent slowness must degrade latency, not liveness."""
        history, live = feed
        supervisor = make_supervisor(
            SupervisorConfig(
                retry=RetryPolicy(max_retries=0),
                round_deadline=0.5,
            ),
            chaos=ChaosModel(seed=3, slow_rate=0.98, slow_seconds=1.0),
        )
        supervisor.warm_up(history)
        records = supervisor.process_many(live)
        assert records == baseline
        health = supervisor.health()
        assert health.slow_rounds > 0
        assert health.retries == 0


class TestRefusedSample:
    @pytest.mark.parametrize("cut", [100, 103], ids=["mid-window", "closes-round"])
    def test_refused_sample_is_not_replayed(self, feed, baseline, tmp_path, cut):
        """A sample the stream refuses is neither counted nor kept for
        replay: a later crash recovery replays only accepted samples."""
        history, live = feed
        supervisor = make_supervisor(
            SupervisorConfig(checkpoint_every=5, keep_checkpoints=2),
            checkpoint_dir=tmp_path,
            chaos=_CrashOnceAt(crash_round=baseline[len(baseline) // 2].index),
        )
        supervisor.warm_up(history)
        records = supervisor.process_many(live[:, :cut])
        poisoned = live[:, cut].copy()
        poisoned[3] = np.inf
        with pytest.raises(InvalidSampleError):
            supervisor.process(poisoned)
        assert supervisor.health().samples_ingested == cut
        records += supervisor.process_many(live[:, cut:])

        assert supervisor.health().crashes_recovered == 1
        assert supervisor.health().samples_ingested == live.shape[1]
        assert records == baseline

    def test_refused_staged_sample_is_not_replayed(self, feed, baseline):
        """The offload path (``process_staged``) refuses the same way."""
        from repro.core.pipeline import CommunityPipeline

        history, live = feed
        cut = CONFIG.window - 1
        supervisor = make_supervisor()
        supervisor.warm_up(history)
        records = supervisor.process_many(live[:, :cut])
        stage = CommunityPipeline(CONFIG, N_SENSORS).process(
            supervisor.stage_window(live[:, cut])
        )
        poisoned = live[:, cut].copy()
        poisoned[3] = np.inf
        with pytest.raises(InvalidSampleError):
            supervisor.process_staged(poisoned, stage)
        assert supervisor.health().samples_ingested == cut
        records += supervisor.process_many(live[:, cut:])
        assert records == baseline


class TestWatchdog:
    def test_stall_past_deadline_triggers_retry(self, feed, baseline, tmp_path):
        history, live = feed
        supervisor = make_supervisor(
            SupervisorConfig(
                retry=RetryPolicy(max_retries=3, base_delay=0.01, seed=4),
                round_deadline=1.0,
                checkpoint_every=5,
            ),
            checkpoint_dir=tmp_path,
            chaos=ChaosModel(seed=8, slow_rate=0.1, slow_seconds=5.0),
        )
        supervisor.warm_up(history)
        records = supervisor.process_many(live)
        assert records == baseline
        health = supervisor.health()
        assert health.slow_rounds > 0
        assert health.retries > 0
        assert health.crashes_recovered == 0

    def test_stall_under_deadline_is_not_retried(self, feed, baseline):
        history, live = feed
        supervisor = make_supervisor(
            SupervisorConfig(round_deadline=10.0),
            chaos=ChaosModel(seed=8, slow_rate=0.2, slow_seconds=0.5),
        )
        supervisor.warm_up(history)
        records = supervisor.process_many(live)
        assert records == baseline
        assert supervisor.health().retries == 0


class TestIngestQueue:
    def test_drop_oldest_sheds_but_accepts(self):
        supervisor = make_supervisor(
            SupervisorConfig(queue_capacity=4, shed_policy="drop_oldest")
        )
        for value in range(8):
            assert supervisor.submit(np.full(N_SENSORS, float(value)))
        health = supervisor.health()
        assert health.queue_depth == 4
        assert health.samples_shed == 4
        assert not health.healthy

    def test_drop_newest_rejects_offer(self):
        supervisor = make_supervisor(
            SupervisorConfig(queue_capacity=2, shed_policy="drop_newest")
        )
        assert supervisor.submit(np.zeros(N_SENSORS))
        assert supervisor.submit(np.zeros(N_SENSORS))
        assert not supervisor.submit(np.zeros(N_SENSORS))

    def test_error_policy_raises(self):
        supervisor = make_supervisor(
            SupervisorConfig(queue_capacity=1, shed_policy="error")
        )
        supervisor.submit(np.zeros(N_SENSORS))
        with pytest.raises(QueueOverflowError):
            supervisor.submit(np.zeros(N_SENSORS))

    def test_submit_pump_equals_process(self, feed, baseline):
        history, live = feed
        supervisor = make_supervisor(SupervisorConfig(queue_capacity=4096))
        supervisor.warm_up(history)
        records = []
        for column in live.T:
            supervisor.submit(column)
        records = supervisor.pump()
        assert records == baseline


class TestQuarantine:
    def test_flapping_sensor_walks_the_breaker_lifecycle(self, feed, baseline):
        history, live = feed
        flap_sensor, step = 2, CONFIG.step
        flap_start = 30 * step + CONFIG.window  # aligned after warm rounds
        flap_stop = flap_start + 20 * step
        faults = FaultModel(
            flapping=((flap_sensor, flap_start, flap_stop, step, 0.75),), seed=1
        )
        flapped = faults.apply(live)
        supervisor = make_supervisor(
            SupervisorConfig(
                breaker=BreakerPolicy(
                    failure_threshold=3, open_rounds=6, probation_rounds=3
                )
            )
        )
        supervisor.warm_up(history)
        records = supervisor.process_many(flapped)
        health = supervisor.health()
        breaker = supervisor.breakers[flap_sensor]

        assert health.breaker_trips > 0, "flapping must trip the breaker"
        assert breaker.state is BreakerState.CLOSED, "healed sensor must re-close"
        assert len(records) == len(baseline), "stream must complete"
        clean_prefix = sum(1 for r in baseline if r.stop <= flap_start)
        assert records[:clean_prefix] == baseline[:clean_prefix]
        assert health.degraded_rounds > 0

    def test_crash_recovery_replays_with_an_open_breaker(self, feed, tmp_path):
        """Replay must re-apply the quarantine mask it re-derives."""
        history, live = feed
        step = CONFIG.step
        flap_start = 30 * step + CONFIG.window
        faults = FaultModel(
            flapping=((2, flap_start, flap_start + 20 * step, step, 0.75),), seed=1
        )
        flapped = faults.apply(live)
        sup_config = SupervisorConfig(
            breaker=BreakerPolicy(
                failure_threshold=3, open_rounds=6, probation_rounds=3
            ),
            checkpoint_every=4,
        )
        plain = make_supervisor(sup_config)
        plain.warm_up(history)
        expected = plain.process_many(flapped)

        supervisor = make_supervisor(
            sup_config,
            checkpoint_dir=tmp_path,
            clock=VirtualClock(),
            chaos=ChaosModel(seed=5, crash_rate=0.15),
        )
        supervisor.warm_up(history)
        records = supervisor.process_many(flapped)
        health = supervisor.health()
        assert health.crashes_recovered > 0
        assert health.breaker_trips > 0
        assert records == expected

    def test_quarantined_rounds_report_degraded_quality(self, feed):
        history, live = feed
        live = live.copy()
        live[5, 100:400] = np.nan  # hard dropout -> breaker must open
        supervisor = make_supervisor(
            SupervisorConfig(
                breaker=BreakerPolicy(
                    failure_threshold=2, open_rounds=10, probation_rounds=2
                )
            )
        )
        supervisor.warm_up(history)
        supervisor.process_many(live)
        assert supervisor.breakers[5].times_opened > 0


class TestProcessDeathResume:
    def run_split(self, feed, tmp_path, kill_at: int):
        """Run to ``kill_at`` samples, drop the supervisor, resume, finish."""
        history, live = feed
        sup_config = SupervisorConfig(checkpoint_every=5, keep_checkpoints=3)
        first = make_supervisor(sup_config, checkpoint_dir=tmp_path)
        first.warm_up(history)
        records_before = first.process_many(live[:, :kill_at])
        del first  # process death: in-memory state and replay buffer gone

        resumed = make_supervisor(sup_config, checkpoint_dir=tmp_path)
        # The checkpoint is at or before the kill point; the source must
        # re-send everything after it (exactly what a durable feed does).
        restart = resumed.stream.samples_seen
        assert restart <= kill_at
        records_after = resumed.process_many(live[:, restart:])
        return records_before, records_after

    def test_resume_covers_the_stream_without_divergence(
        self, feed, baseline, tmp_path
    ):
        before, after = self.run_split(feed, tmp_path, kill_at=500)
        merged: dict[int, object] = {}
        for record in [*before, *after]:
            if record.index in merged:
                assert merged[record.index] == record, "re-emitted round differs"
            merged[record.index] = record
        assert sorted(merged) == [r.index for r in baseline]
        assert [merged[r.index] for r in baseline] == baseline

    def test_rounds_before_last_checkpoint_not_reemitted(self, feed, tmp_path):
        before, after = self.run_split(feed, tmp_path, kill_at=500)
        emitted_before = {record.index for record in before}
        re_emitted = [r.index for r in after if r.index in emitted_before]
        # Only rounds after the adopted checkpoint's high-water mark may
        # repeat; everything older must be suppressed.
        if re_emitted:
            assert min(re_emitted) > max(
                set(range(before[0].index, before[-1].index + 1)) - emitted_before,
                default=-1,
            )
        assert [r.index for r in after] == sorted({r.index for r in after})


def _set_runtime(key, value):
    def mutate(runtime):
        runtime[key] = value

    return mutate


def _set_breaker(key, value):
    def mutate(runtime):
        runtime["breakers"][0][key] = value

    return mutate


def _drop_breaker_key(key):
    def mutate(runtime):
        del runtime["breakers"][0][key]

    return mutate


def _set_health(key, value):
    def mutate(runtime):
        runtime["health"][key] = value

    return mutate


def _shorten(key):
    def mutate(runtime):
        runtime[key] = runtime[key][:-1]

    return mutate


SIDECAR_MUTATIONS = {
    "segment_len-str": _set_runtime("segment_len", "x"),
    "max_emitted_index-list": _set_runtime("max_emitted_index", [1]),
    "pool_generation-null": _set_runtime("pool_generation", None),
    "breaker-bogus-state": _set_breaker("state", "bogus"),
    "breaker-missing-rounds_open": _drop_breaker_key("rounds_open"),
    "health-retries-str": _set_health("retries", "many"),
    "nan_counts-str": _set_runtime("nan_counts", "0,0,0,0,0,0,0,0"),
    "frontier-garbage": _set_runtime("frontier", {"format": "garbage"}),
    "breakers-one-short": _shorten("breakers"),
    "nan_counts-one-short": _shorten("nan_counts"),
}


@pytest.mark.parametrize("mutation", sorted(SIDECAR_MUTATIONS))
def test_malformed_runtime_sidecar_falls_back_a_generation(feed, tmp_path, mutation):
    """A well-formed JSON sidecar whose runtime payload is malformed marks
    its generation corrupt: resume lands on the previous generation, with
    that generation's breaker states (an open breaker included)."""
    history, live = feed
    live = live.copy()
    live[5, 100:400] = np.nan  # hard dropout -> sensor 5's breaker opens
    sup_config = SupervisorConfig(
        breaker=BreakerPolicy(failure_threshold=2, open_rounds=50, probation_rounds=2),
        checkpoint_every=4,
        keep_checkpoints=3,
    )

    def build():
        return make_supervisor(
            sup_config,
            checkpoint_dir=tmp_path,
            frontier=IngestFrontier(FrontierConfig(n_sensors=N_SENSORS)),
        )

    first = build()
    first.warm_up(history)
    first.process_many(live[:, :300])
    first.rotation.join_reclaim()
    newest, previous = first.rotation.generations()[:2]
    del first

    kept = json.loads(previous.sidecar.read_text())
    assert BreakerState.OPEN.value in {b["state"] for b in kept["runtime"]["breakers"]}
    payload = json.loads(newest.sidecar.read_text())
    SIDECAR_MUTATIONS[mutation](payload["runtime"])
    newest.sidecar.write_text(json.dumps(payload))

    resumed = build()
    assert resumed.stream.samples_seen == kept["samples_seen"]
    assert resumed.breakers.to_state() == kept["runtime"]["breakers"]


@dataclass(frozen=True)
class _CrashOnceAt(ChaosModel):
    """Crash the first attempt of one round, nothing else."""

    crash_round: int = -1

    def round_fate(self, round_index, attempt):
        return "crash" if (round_index, attempt) == (self.crash_round, 0) else None


@pytest.mark.parametrize("mutation", sorted(SIDECAR_MUTATIONS))
def test_malformed_runtime_sidecar_is_skipped_by_in_process_recovery(
    feed, tmp_path, mutation
):
    """A crash right after the newest sidecar went bad recovers from the
    previous generation and replays to the same records and breakers."""
    history, live = feed
    live = live.copy()
    live[5, 100:400] = np.nan
    sup_config = SupervisorConfig(
        breaker=BreakerPolicy(failure_threshold=2, open_rounds=50, probation_rounds=2),
        checkpoint_every=4,
        keep_checkpoints=3,
    )
    plain = make_supervisor(sup_config)
    plain.warm_up(history)
    expected = plain.process_many(live[:, :300])
    crash_round = plain.stream.detector.rounds_processed
    expected += plain.process_many(live[:, 300:400])

    supervisor = make_supervisor(
        sup_config,
        checkpoint_dir=tmp_path,
        chaos=_CrashOnceAt(crash_round=crash_round),
        frontier=IngestFrontier(FrontierConfig(n_sensors=N_SENSORS)),
    )
    supervisor.warm_up(history)
    records = supervisor.process_many(live[:, :300])
    supervisor.rotation.join_reclaim()
    newest = supervisor.rotation.generations()[0]
    payload = json.loads(newest.sidecar.read_text())
    SIDECAR_MUTATIONS[mutation](payload["runtime"])
    newest.sidecar.write_text(json.dumps(payload))
    records += supervisor.process_many(live[:, 300:400])

    assert supervisor.health().crashes_recovered == 1
    assert records == expected
    assert supervisor.breakers.to_state() == plain.breakers.to_state()
