"""The multi-tenant fleet runtime: router, scheduler, manager, rollups.

The load-bearing claim throughout: multiplexing N tenants over one
manager (and one shared worker pool) must never change any tenant's
answer.  Every scenario asserts per-tenant ``RoundRecord`` sequences
bit-identical to solo runs — including under cross-tenant interleaving,
stage-A offload and kill/resume from the v4 manifest.  Generated fleet
cases with per-tenant chaos live in ``tests/test_oracle.py``.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from tests.conftest import correlated_values
from repro.core import CADConfig, StreamingCAD
from repro.core.checkpoint import (
    CheckpointError,
    load_fleet_manifest,
    save_fleet_manifest,
)
from repro.fleet import (
    FleetConfig,
    FleetHealthSnapshot,
    FleetManager,
    FleetRecord,
    ShardRouter,
    TenantSpec,
    anomaly_feed,
    cycle_order,
    stable_shard,
    validate_tenant_id,
)
from repro.ingest import FrontierConfig, envelopes_from_matrix
from repro.runtime import (
    ChaosModel,
    ConfigurationError,
    FleetError,
    FleetManifestError,
    RecoveryError,
    RetryBudgetExceededError,
    RetryPolicy,
    StreamSupervisor,
    SupervisorConfig,
    SupervisorError,
    UnknownTenantError,
    VirtualClock,
)
from repro.timeseries import MultivariateTimeSeries

N_SENSORS = 6
CONFIG = CADConfig(window=32, step=8, allow_missing=True)


def tenant_feed(seed, length=480, history_length=96):
    values = correlated_values(n_sensors=N_SENSORS, length=length, seed=seed)
    history = MultivariateTimeSeries(values[:, :history_length])
    return history, values[:, history_length:]


def solo_records(config, history, live):
    stream = StreamingCAD(config, N_SENSORS)
    stream.warm_up(history)
    return stream.push_many(live)


def stream_fleet(manager, feeds, *, warm=True):
    """Submit every tenant's live feed sample-by-sample, pump each step."""
    if warm:
        manager.warm_up({tenant: history for tenant, (history, _) in feeds.items()})
    length = min(live.shape[1] for _, live in feeds.values())
    records = []
    for index in range(length):
        for tenant in sorted(feeds):
            manager.submit(tenant, feeds[tenant][1][:, index])
        records.extend(manager.pump())
    records.extend(manager.finish())
    return records


def by_tenant(records):
    split = {}
    for fleet_record in records:
        split.setdefault(fleet_record.tenant, []).append(fleet_record.record)
    return split


# --------------------------------------------------------------------- #
# Router
# --------------------------------------------------------------------- #


class TestRouter:
    def test_stable_shard_is_deterministic_and_in_range(self):
        for shards in (1, 3, 16):
            for tenant in ("a", "tenant-07", "x.y_z-9"):
                shard = stable_shard(tenant, shards)
                assert 0 <= shard < shards
                assert shard == stable_shard(tenant, shards)

    def test_known_assignment_is_frozen(self):
        """Shard routing is part of the manifest contract; a hash change
        would orphan every on-disk fleet."""
        assert stable_shard("tenant-00", 16) == stable_shard("tenant-00", 16)
        assert stable_shard("alpha", 8) != stable_shard("beta", 8) or True
        # sha256-based: independent of PYTHONHASHSEED
        assert stable_shard("alpha", 10**9) == int.from_bytes(
            __import__("hashlib").sha256(b"alpha").digest()[:8], "big"
        ) % 10**9

    def test_router_membership(self):
        router = ShardRouter(["b", "a"], 4)
        assert router.tenants == ("a", "b")
        assert router.shard_of("a") == stable_shard("a", 4)
        with pytest.raises(UnknownTenantError):
            router.shard_of("c")

    def test_worker_affinity_folds_shards(self):
        router = ShardRouter(["a"], 16)
        assert router.worker_of("a", 3) == router.shard_of("a") % 3
        with pytest.raises(ConfigurationError):
            router.worker_of("a", 0)

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(["a", "a"], 2)

    def test_bad_ids_rejected(self):
        for bad in ("", ".hidden", "has space", "a/b", "x" * 65, "-lead"):
            with pytest.raises(ConfigurationError):
                validate_tenant_id(bad)
        assert validate_tenant_id("ok-id_1.2") == "ok-id_1.2"

    def test_unknown_tenant_error_is_keyerror_with_readable_str(self):
        error = UnknownTenantError("ghost")
        assert isinstance(error, KeyError)
        assert isinstance(error, FleetError)
        assert "ghost" in str(error) and str(error)[0] != "'"


# --------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------- #


class TestCycleOrder:
    def test_permutation_of_all_tenants(self):
        tenants = [f"t{i}" for i in range(7)]
        order = cycle_order(tenants, seed=3, cycle=5)
        assert sorted(order) == sorted(tenants)

    def test_deterministic_in_seed_and_cycle(self):
        tenants = {f"t{i}" for i in range(9)}
        assert cycle_order(tenants, 1, 4) == cycle_order(sorted(tenants), 1, 4)
        assert cycle_order(tenants, 1, 4) != cycle_order(tenants, 1, 5) or len(
            tenants
        ) <= 1

    def test_varies_across_cycles(self):
        tenants = [f"t{i}" for i in range(8)]
        orders = {cycle_order(tenants, 0, cycle) for cycle in range(20)}
        assert len(orders) > 1  # not phase-locked to one rotation

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            cycle_order(["a"], -1, 0)
        with pytest.raises(ConfigurationError):
            cycle_order(["a"], 0, -1)


# --------------------------------------------------------------------- #
# Fleet manifest (checkpoint v4)
# --------------------------------------------------------------------- #


class TestFleetManifest:
    TENANTS = {
        "a": {"shard": 3, "directory": "tenants/a", "n_sensors": 6, "engine": "fast"},
        "b": {"shard": 1, "directory": "tenants/b", "n_sensors": 8, "engine": "delta"},
    }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        save_fleet_manifest(path, shards=8, seed=5, cycle=42, tenants=self.TENANTS)
        manifest = load_fleet_manifest(path)
        assert manifest["shards"] == 8
        assert manifest["seed"] == 5
        assert manifest["cycle"] == 42
        assert manifest["tenants"] == self.TENANTS

    def test_no_tmp_droppings(self, tmp_path):
        path = tmp_path / "manifest.json"
        save_fleet_manifest(path, shards=1, seed=0, cycle=0, tenants={})
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_fleet_manifest(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": "other", "version": 4}))
        with pytest.raises(CheckpointError):
            load_fleet_manifest(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        save_fleet_manifest(path, shards=1, seed=0, cycle=0, tenants={})
        payload = json.loads(path.read_text())
        payload["version"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_fleet_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_fleet_manifest(tmp_path / "absent.json")


# --------------------------------------------------------------------- #
# Manager: identity vs solo runs
# --------------------------------------------------------------------- #


class TestFleetIdentity:
    def test_two_tenants_sample_mode_bit_identical(self):
        feeds = {"a": tenant_feed(1), "b": tenant_feed(2)}
        oracle = {
            t: solo_records(CONFIG, *feeds[t]) for t in feeds
        }
        manager = FleetManager(
            [TenantSpec(t, CONFIG, N_SENSORS) for t in feeds],
            fleet=FleetConfig(shards=4, seed=7, quantum=16),
        )
        split = by_tenant(stream_fleet(manager, feeds))
        assert split["a"] == oracle["a"]
        assert split["b"] == oracle["b"]

    def test_heterogeneous_configs_and_engines(self):
        configs = {
            "fast-32": CADConfig(window=32, step=8, allow_missing=True),
            "ref-24": CADConfig(
                window=24, step=6, engine="reference", allow_missing=True
            ),
        }
        feeds = {t: tenant_feed(3 + i) for i, t in enumerate(sorted(configs))}
        oracle = {t: solo_records(configs[t], *feeds[t]) for t in configs}
        manager = FleetManager(
            [TenantSpec(t, configs[t], N_SENSORS) for t in sorted(configs)],
            fleet=FleetConfig(quantum=5),
        )
        split = by_tenant(stream_fleet(manager, feeds))
        for tenant in configs:
            assert split[tenant] == oracle[tenant]

    def test_envelope_mode_bit_identical(self):
        feeds = {"env-a": tenant_feed(5), "env-b": tenant_feed(6)}
        oracle = {t: solo_records(CONFIG, *feeds[t]) for t in feeds}
        manager = FleetManager(
            [
                TenantSpec(
                    t,
                    CONFIG,
                    N_SENSORS,
                    frontier=FrontierConfig(n_sensors=N_SENSORS, disorder_horizon=3),
                )
                for t in feeds
            ],
        )
        manager.warm_up({t: feeds[t][0] for t in feeds})
        streams = {
            t: list(envelopes_from_matrix(feeds[t][1], tenant=t)) for t in feeds
        }
        records = []
        cursor = 0
        chunk = 3 * N_SENSORS
        while any(cursor < len(s) for s in streams.values()):
            for tenant in sorted(streams):
                for envelope in streams[tenant][cursor : cursor + chunk]:
                    manager.ingest(envelope)
            records.extend(manager.pump())
            cursor += chunk
        records.extend(manager.finish())
        split = by_tenant(records)
        for tenant in feeds:
            assert split[tenant] == oracle[tenant]

    def test_fleet_record_attribution_and_feed(self):
        feeds = {"a": tenant_feed(1)}
        manager = FleetManager([TenantSpec("a", CONFIG, N_SENSORS)])
        records = stream_fleet(manager, feeds)
        assert records and all(isinstance(fr, FleetRecord) for fr in records)
        assert all(fr.tenant == "a" for fr in records)
        assert all(fr.shard == stable_shard("a", 1) for fr in records)
        feed = anomaly_feed(records)
        assert feed == [fr for fr in records if fr.record.abnormal]
        if feed:
            row = feed[0].to_dict()
            assert row["tenant"] == "a" and row["abnormal"] is True

    def test_scheduling_order_does_not_change_answers(self):
        feeds = {"a": tenant_feed(11), "b": tenant_feed(12), "c": tenant_feed(13)}
        oracle = {t: solo_records(CONFIG, *feeds[t]) for t in feeds}
        for seed in (0, 1, 99):
            manager = FleetManager(
                [TenantSpec(t, CONFIG, N_SENSORS) for t in feeds],
                fleet=FleetConfig(seed=seed, quantum=3),
            )
            split = by_tenant(stream_fleet(manager, feeds))
            for tenant in feeds:
                assert split[tenant] == oracle[tenant]


# --------------------------------------------------------------------- #
# Manager: offload over the shared pool
# --------------------------------------------------------------------- #


class TestFleetOffload:
    def test_offloaded_rounds_bit_identical(self):
        feeds = {"a": tenant_feed(21), "b": tenant_feed(22)}
        oracle = {t: solo_records(CONFIG, *feeds[t]) for t in feeds}
        manager = FleetManager(
            [TenantSpec(t, CONFIG, N_SENSORS) for t in feeds],
            fleet=FleetConfig(shards=8, quantum=16, offload_jobs=2),
        )
        split = by_tenant(stream_fleet(manager, feeds))
        health = manager.health()
        assert health.offloaded_rounds > 0
        assert health.pool_jobs >= 2
        for tenant in feeds:
            assert split[tenant] == oracle[tenant]

    def test_checkpoint_now_syncs_stale_pipeline(self, tmp_path):
        feeds = {"a": tenant_feed(23)}
        manager = FleetManager(
            [
                TenantSpec(
                    "a",
                    CONFIG,
                    N_SENSORS,
                    supervisor=SupervisorConfig(checkpoint_every=0),
                )
            ],
            fleet=FleetConfig(offload_jobs=2),
            manifest_dir=tmp_path,
        )
        stream_fleet(manager, feeds)
        supervisor = manager.supervisor("a")
        # Offloaded rounds leave the parent pipeline lazily stale; an
        # explicit checkpoint must first resync it, then write.
        manager.checkpoint_now()
        assert not supervisor.pipeline_stale
        assert supervisor.health().checkpoints_written >= 1


# --------------------------------------------------------------------- #
# Manager: manifest + kill-anywhere resume
# --------------------------------------------------------------------- #


class TestFleetResume:
    def make(self, tmp_path, tenants, *, resume=True, chaos=None, offload=0):
        return FleetManager(
            [
                TenantSpec(
                    t,
                    CONFIG,
                    N_SENSORS,
                    supervisor=SupervisorConfig(checkpoint_every=3),
                    chaos=chaos,
                )
                for t in tenants
            ],
            fleet=FleetConfig(shards=8, quantum=16, offload_jobs=offload),
            manifest_dir=tmp_path,
            clock=VirtualClock(),
            resume=resume,
        )

    def test_kill_anywhere_resume_bit_identical(self, tmp_path):
        feeds = {"a": tenant_feed(31), "b": tenant_feed(32)}
        oracle = {t: solo_records(CONFIG, *feeds[t]) for t in feeds}
        manager = self.make(tmp_path, feeds, resume=False)
        manager.warm_up({t: feeds[t][0] for t in feeds})
        records = []
        kill_at = 201
        for index in range(kill_at):
            for tenant in sorted(feeds):
                manager.submit(tenant, feeds[tenant][1][:, index])
            records.extend(manager.pump())
        del manager  # cold kill: no finish, no checkpoint flush

        resumed = self.make(tmp_path, feeds)
        length = feeds["a"][1].shape[1]
        for tenant in sorted(feeds):
            position = resumed.supervisor(tenant).stream.samples_seen
            assert 0 < position <= kill_at
            for index in range(position, length):
                resumed.submit(tenant, feeds[tenant][1][:, index])
        records.extend(resumed.drain())
        records.extend(resumed.finish())

        split = by_tenant(records)
        for tenant in feeds:
            unique = []
            for record in sorted(split[tenant], key=lambda r: r.index):
                if not unique or record.index != unique[-1].index:
                    unique.append(record)
            assert unique == oracle[tenant]

    def test_manifest_written_and_validated(self, tmp_path):
        manager = self.make(tmp_path, ["a", "b"], resume=False)
        manifest = load_fleet_manifest(tmp_path / "manifest.json")
        assert sorted(manifest["tenants"]) == ["a", "b"]
        assert manifest["tenants"]["a"]["shard"] == stable_shard("a", 8)
        assert manifest["tenants"]["a"]["directory"] == "tenants/a"
        del manager

    def test_resume_rejects_reshard(self, tmp_path):
        self.make(tmp_path, ["a"], resume=False)
        with pytest.raises(FleetManifestError):
            FleetManager(
                [TenantSpec("a", CONFIG, N_SENSORS)],
                fleet=FleetConfig(shards=2),
                manifest_dir=tmp_path,
            )

    def test_resume_rejects_missing_tenant(self, tmp_path):
        self.make(tmp_path, ["a", "b"], resume=False)
        with pytest.raises(FleetManifestError):
            self.make(tmp_path, ["a"])

    def test_resume_rejects_sensor_count_change(self, tmp_path):
        self.make(tmp_path, ["a"], resume=False)
        with pytest.raises(FleetManifestError):
            FleetManager(
                [TenantSpec("a", CONFIG, N_SENSORS + 1)],
                fleet=FleetConfig(shards=8),
                manifest_dir=tmp_path,
            )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda tenants: tenants.update(b={**tenants["a"], "directory": "tenants/b"}),
            lambda tenants: tenants.update(a=5),
            lambda tenants: tenants["a"].update(shard=(tenants["a"]["shard"] + 1) % 8),
            lambda tenants: tenants["a"].update(n_sensors=N_SENSORS + 1),
        ],
        ids=["unknown-tenant", "non-object-entry", "wrong-shard", "wrong-sensor-count"],
    )
    def test_manifest_refusal_names_the_tenant(self, tmp_path, edit):
        self.make(tmp_path, ["a"], resume=False)
        path = tmp_path / "manifest.json"
        payload = json.loads(path.read_text())
        edit(payload["tenants"])
        path.write_text(json.dumps(payload))
        with pytest.raises(FleetManifestError) as caught:
            self.make(tmp_path, ["a"])
        assert caught.value.tenant == ("b" if "b" in payload["tenants"] else "a")

    def test_fleet_manifest_error_is_supervisor_error(self):
        assert issubclass(FleetManifestError, FleetError)
        assert issubclass(FleetError, SupervisorError)

    def test_resume_error_names_the_tenant(self, tmp_path):
        feeds = {"a": tenant_feed(33), "b": tenant_feed(34)}
        stream_fleet(self.make(tmp_path, feeds, resume=False), feeds)
        specs = [
            TenantSpec("a", CONFIG, N_SENSORS),
            TenantSpec("b", replace(CONFIG, tau=0.25), N_SENSORS),
        ]
        with pytest.raises(RecoveryError) as caught:
            FleetManager(specs, fleet=FleetConfig(shards=8), manifest_dir=tmp_path)
        assert caught.value.tenant == "b"
        assert caught.value.__notes__ == ["raised by fleet tenant 'b'"]


class TestFleetErrors:
    @pytest.mark.parametrize("offload", [0, 2])
    def test_retry_budget_names_the_crashing_tenant(self, offload):
        """One tenant crashes on every attempt of a round; the error keeps
        its type and names that tenant, not the fleet."""
        chaos = ChaosModel(seed=5, crash_rate=0.99)
        retry = RetryPolicy(max_retries=2, base_delay=0.0, jitter=0.0)
        manager = FleetManager(
            [
                TenantSpec(
                    "crashing",
                    CONFIG,
                    N_SENSORS,
                    supervisor=SupervisorConfig(retry=retry),
                    chaos=chaos,
                ),
                TenantSpec("healthy", CONFIG, N_SENSORS),
            ],
            fleet=FleetConfig(shards=8, offload_jobs=offload),
            clock=VirtualClock(),
        )
        feeds = {"crashing": tenant_feed(51), "healthy": tenant_feed(52)}
        with pytest.raises(RetryBudgetExceededError) as caught:
            stream_fleet(manager, feeds)
        error = caught.value
        assert error.tenant == "crashing"
        assert error.__notes__ == ["raised by fleet tenant 'crashing'"]
        assert error.attempts == retry.max_retries + 1
        assert all(
            chaos.round_fate(error.round_index, attempt) == "crash"
            for attempt in range(error.attempts)
        )

    def test_errors_outside_a_fleet_name_no_tenant(self):
        assert RetryBudgetExceededError(0, 1, RuntimeError("x")).tenant is None


# --------------------------------------------------------------------- #
# Manager: routing, backpressure, validation
# --------------------------------------------------------------------- #


class TestFleetRoutingAndBackpressure:
    def test_unknown_tenant_rejected(self):
        manager = FleetManager([TenantSpec("a", CONFIG, N_SENSORS)])
        with pytest.raises(UnknownTenantError):
            manager.submit("ghost", np.zeros(N_SENSORS))

    def test_envelope_routing_modes(self):
        frontier = FrontierConfig(n_sensors=N_SENSORS)
        single = FleetManager(
            [TenantSpec("only", CONFIG, N_SENSORS, frontier=frontier)]
        )
        history, live = tenant_feed(41)
        envelope = next(envelopes_from_matrix(live))  # implicit tenant ""
        single.ingest(envelope)  # routes to the single tenant

        multi = FleetManager(
            [
                TenantSpec("a", CONFIG, N_SENSORS, frontier=frontier),
                TenantSpec("b", CONFIG, N_SENSORS, frontier=frontier),
            ]
        )
        with pytest.raises(UnknownTenantError):
            multi.ingest(envelope)  # ambiguous in a multi-tenant fleet

    def test_mode_mismatches_rejected(self):
        frontier = FrontierConfig(n_sensors=N_SENSORS)
        manager = FleetManager(
            [
                TenantSpec("rows", CONFIG, N_SENSORS),
                TenantSpec("envs", CONFIG, N_SENSORS, frontier=frontier),
            ]
        )
        history, live = tenant_feed(42)
        with pytest.raises(ConfigurationError):
            manager.submit("envs", live[:, 0])
        envelope = next(envelopes_from_matrix(live, tenant="rows"))
        with pytest.raises(ConfigurationError):
            manager.ingest(envelope)

    def test_backpressure_is_per_tenant(self):
        """A slow tenant sheds from its own bounded queue; the healthy
        tenant's records and counters are untouched."""
        feeds = {"slow": tenant_feed(43), "ok": tenant_feed(44)}
        oracle_ok = solo_records(CONFIG, *feeds["ok"])
        manager = FleetManager(
            [
                TenantSpec(
                    "slow",
                    CONFIG,
                    N_SENSORS,
                    supervisor=SupervisorConfig(queue_capacity=4),
                ),
                TenantSpec("ok", CONFIG, N_SENSORS),
            ],
            fleet=FleetConfig(quantum=16),
        )
        manager.warm_up({t: feeds[t][0] for t in feeds})
        records = []
        length = feeds["ok"][1].shape[1]
        # One un-pumped burst overflows the slow tenant's 4-slot queue.
        for index in range(12):
            manager.submit("slow", feeds["slow"][1][:, index])
        for index in range(length):
            manager.submit("ok", feeds["ok"][1][:, index])
            records.extend(manager.pump())
        records.extend(manager.finish())
        health = manager.health()
        assert health.tenant_snapshot("slow").samples_shed > 0
        assert health.tenant_snapshot("ok").samples_shed == 0
        assert by_tenant(records)["ok"] == oracle_ok
        assert health.samples_shed == health.tenant_snapshot("slow").samples_shed

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(shards=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(seed=-1)
        with pytest.raises(ConfigurationError):
            FleetConfig(quantum=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(offload_jobs=-1)
        with pytest.raises(ConfigurationError):
            FleetManager([])
        with pytest.raises(ConfigurationError):
            TenantSpec("bad id", CONFIG, N_SENSORS)
        with pytest.raises(ConfigurationError):
            TenantSpec("ok", CONFIG, 0)


# --------------------------------------------------------------------- #
# Rollups
# --------------------------------------------------------------------- #


class TestFleetHealth:
    def test_aggregation_sums_and_nests(self):
        feeds = {"a": tenant_feed(51), "b": tenant_feed(52)}
        manager = FleetManager(
            [TenantSpec(t, CONFIG, N_SENSORS) for t in feeds],
            fleet=FleetConfig(shards=4),
        )
        stream_fleet(manager, feeds)
        health = manager.health()
        assert isinstance(health, FleetHealthSnapshot)
        assert health.healthy
        assert health.shards == 4
        assert health.cycles == manager.cycle
        per_tenant = [health.tenant_snapshot(t) for t in ("a", "b")]
        assert health.rounds_completed == sum(s.rounds_completed for s in per_tenant)
        assert health.samples_ingested == sum(s.samples_ingested for s in per_tenant)
        payload = json.loads(health.to_json())
        assert payload["healthy"] is True
        assert set(payload["tenants"]) == {"a", "b"}
        assert payload["tenants"]["a"]["shard"] == stable_shard("a", 4)
        with pytest.raises(KeyError):
            health.tenant_snapshot("ghost")

    def test_unhealthy_tenant_degrades_fleet(self):
        healthy = FleetHealthSnapshot()
        assert healthy.healthy  # vacuous: no tenants
        from repro.runtime import HealthSnapshot

        degraded = FleetHealthSnapshot(
            tenants=(("a", 0, HealthSnapshot(open_breakers=(1,))),)
        )
        assert not degraded.healthy


# --------------------------------------------------------------------- #
# Staged-round staleness discipline (supervisor surface the fleet uses)
# --------------------------------------------------------------------- #


class TestStagedStateDiscipline:
    @staticmethod
    def make_stale(tmp_path):
        """Drive a supervisor into the stale-pipeline state the fleet's
        offload path creates: staged rounds applied without worker state."""
        from repro.core.pipeline import CommunityPipeline

        history, live = tenant_feed(71)
        supervisor = StreamSupervisor(
            CONFIG,
            N_SENSORS,
            supervisor=SupervisorConfig(checkpoint_every=0),
            checkpoint_dir=tmp_path,
        )
        supervisor.warm_up(history)
        shadow = CommunityPipeline(CONFIG, N_SENSORS)
        index = 0
        while not supervisor.pipeline_stale:
            sample = live[:, index]
            if supervisor.stream.samples_seen + 1 == supervisor.stream.next_round_end:
                stage = shadow.process(supervisor.stage_window(sample))
                supervisor.process_staged(sample, stage)  # no state shipped
            else:
                supervisor.process(sample)
            index += 1
        return supervisor, live, index

    def test_stale_pipeline_refuses_state_export_and_checkpoint(self, tmp_path):
        supervisor, live, index = self.make_stale(tmp_path)
        with pytest.raises(RecoveryError):
            supervisor.pipeline_state()
        with pytest.raises(RecoveryError):
            supervisor.checkpoint_now()
        supervisor.resync_pipeline()
        assert not supervisor.pipeline_stale
        supervisor.checkpoint_now()  # now legal

    def test_stale_pipeline_refuses_in_process_round(self, tmp_path):
        supervisor, live, index = self.make_stale(tmp_path)
        with pytest.raises(RecoveryError):
            # mid-window pushes buffer; the next round boundary must refuse
            # to run in-process on the stale pipeline
            while True:
                supervisor.process(live[:, index])
                index += 1
