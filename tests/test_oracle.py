"""Generated differential oracle: every runtime layer against the reference engine.

CAD's early detection rests on its round records: each round's RC values
and its n_r test against mu +- eta*sigma.  However a layer computes them,
they must not change.  Each test draws cases (a stream shape, data with
flat sensors and NaN gaps, the refresh and checkpoint cadence, one layer's
faults) and runs them through one layer, from a bare fast-engine stream to
fleet tenants killed cold and resumed from their manifest.  The layer's
records must ``==`` those of a reference-engine :class:`StreamingCAD` fed
the input the layer effectively fed its detector.  That is the raw feed,
except that breakers quarantine sensors (each sample is taken under the
quarantine mask read just before it was fed) and a frontier re-assembles
rows from envelopes (the grid with NaN in every cell that arrived after its
row flushed under ``nan_patch``, or without those rows under ``drop``).

The only other outcome is a typed refusal, asserted where it is due:
``ConfigurationError`` for breakers or ``nan_patch`` without
``allow_missing``, ``RetryBudgetExceededError`` for a round that crashed on
every attempt, ``EnvelopeValidationError`` (state untouched) for a
timestamp jump past the queue, and ``RecoveryError`` when every retained
checkpoint generation was torn.  The ``@example`` cases are hand-picked
soak and fleet configurations; each asserts that the faults it injects
fired (the clean in-order delivery that none did), and that some of its
rounds reach CAD's decision: n_r > 0, and, where the feed allows it, an
abnormal round.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tests.conftest import correlated_values, live_and_stray
from repro.core import CADConfig, StreamingCAD
from repro.core.parallel import shutdown_worker_pool
from repro.datasets import FaultModel
from repro.fleet import FleetConfig, FleetManager, TenantSpec
from repro.ingest import (
    DeliveryChaosModel,
    FrontierConfig,
    IngestFrontier,
    envelopes_from_matrix,
)
from repro.runtime import (
    BreakerPolicy,
    BreakerState,
    ChaosModel,
    ConfigurationError,
    EnvelopeValidationError,
    RecoveryError,
    RetryBudgetExceededError,
    RetryPolicy,
    StreamSupervisor,
    SupervisorConfig,
    VirtualClock,
)
from repro.timeseries import MultivariateTimeSeries

#: Retries per round; a crash on every one of them is a typed refusal.
MAX_RETRIES = 6
#: Watchdog deadline (virtual seconds); chaos stalls run past it.
ROUND_DEADLINE = 1.0
#: Queue capacity, which also bounds the rows one envelope may release.
QUEUE_CAPACITY = 4096

# Derandomized: every run draws the same cases, so a failure reproduces.
ORACLE = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@dataclass(frozen=True)
class Case:
    """One generated scenario: shape, data and the faults of one layer."""

    n: int
    window: int
    step: int
    rounds: int
    seed: int
    k: int = 10
    tau: float = 0.5
    theta: float = 0.3
    #: Engine of the layer under test; the expected records always come
    #: from a reference-engine stream.
    engine: str = "fast"
    corr_refresh: int = 64
    allow_missing: bool = True
    checkpoint_every: int = 5
    n_constant: int = 0
    missing_rate: float = 0.0
    #: Flapping sensor: (sensor, start, stop, period, duty) over the live feed.
    flap: tuple[int, int, int, int, float] | None = None
    chaos: ChaosModel | None = None
    #: Breaker policy; None runs with breakers off.
    breaker: BreakerPolicy | None = None
    #: Share of the feed after which the process dies cold, once.
    kill_at: float | None = None
    #: Envelope ingest through a frontier; None feeds aligned rows.
    delivery: DeliveryChaosModel | None = None
    horizon: int = 4
    late_policy: str = "nan_patch"
    #: Forward timestamp jump, in rows, halfway through the envelope feed.
    jump: int = 0
    tenants: int = 1
    quantum: int = 64
    offload_jobs: int = 0
    #: Counters that must end above zero (the hand-picked examples).
    fired: tuple[str, ...] = ()
    #: Counters that must end at zero (the hand-picked examples).
    quiet: tuple[str, ...] = ()

    @property
    def config(self) -> CADConfig:
        return CADConfig(
            window=self.window,
            step=self.step,
            k=self.k,
            tau=self.tau,
            theta=self.theta,
            engine=self.engine,
            corr_refresh=self.corr_refresh,
            allow_missing=self.allow_missing,
        )

    @property
    def live_length(self) -> int:
        return self.window + (self.rounds - 1) * self.step

    def kill_point(self, steps: int) -> int | None:
        """The step of a ``steps``-long feed loop at which to kill."""
        return None if self.kill_at is None else int(self.kill_at * steps)

    def faults_for(self, tenant: int):
        """(chaos, delivery) of one tenant: seeds shift per tenant, and the
        last of several tenants runs clean."""
        if self.tenants > 1 and tenant == self.tenants - 1:
            return None, None
        return tuple(
            replace(model, seed=model.seed + tenant) if model else None
            for model in (self.chaos, self.delivery)
        )

    def refusal(self) -> bool:
        """True when building the layer must raise ``ConfigurationError``."""
        return not self.allow_missing and (
            self.breaker is not None
            or (self.delivery is not None and self.late_policy == "nan_patch")
        )


@dataclass
class Run:
    """What one layer emitted, and the input its detector effectively saw."""

    records: list
    effective: np.ndarray
    counters: dict
    #: True when the layer stopped on a typed refusal: only a prefix counts.
    refused: bool = False


# --------------------------------------------------------------------- #
# Feeds, delivery and the reference
# --------------------------------------------------------------------- #


def feed(case: Case, tenant: int = 0) -> tuple[MultivariateTimeSeries, np.ndarray]:
    """Warm-up history and live samples of one case (one per tenant); NaN
    gaps and the flapping sensor only when the case allows missing data."""
    history_length = 2 * case.window
    values = correlated_values(
        n_sensors=case.n,
        length=history_length + case.live_length,
        seed=case.seed + 7919 * tenant,
    )
    values[: case.n_constant] = 1.0
    live = values[:, history_length:]
    if case.allow_missing and (case.missing_rate or case.flap):
        faults = FaultModel(
            missing_rate=case.missing_rate,
            flapping=(case.flap,) if case.flap else (),
            seed=case.seed,
        )
        live = faults.apply(live)
    return MultivariateTimeSeries(values[:, :history_length]), live


def reference_records(case: Case, history, rows: np.ndarray) -> list:
    stream = StreamingCAD(replace(case.config, engine="reference"), case.n)
    stream.warm_up(history)
    return stream.push_many(rows) if rows.shape[1] else []


def decisions(records) -> dict:
    """Rounds that reach CAD's decision: some sensor changed community
    (n_r > 0), and n_r fell outside mu +- eta*sigma."""
    return {
        "rounds_with_variations": sum(r.n_variations > 0 for r in records),
        "abnormal_rounds": sum(r.abnormal for r in records),
    }


def merged(records) -> list:
    """One record per round; a round re-emitted after a resume must equal
    its first emission."""
    by_index: dict[int, object] = {}
    for record in records:
        assert by_index.setdefault(record.index, record) == record
    return [by_index[index] for index in sorted(by_index)]


def schedule(case: Case, live: np.ndarray, tenant: int = 0, name: str = "") -> list:
    """The delivered envelope schedule: the clean feed, with the case's
    timestamp jump halfway through, through the tenant's chaos model."""
    cut = live.shape[1] // 2
    clean = [
        *envelopes_from_matrix(live[:, :cut], tenant=name),
        *envelopes_from_matrix(live[:, cut:], start_seq=cut + case.jump, tenant=name),
    ]
    model = case.faults_for(tenant)[1]
    return model.deliver(clean) if model is not None else clean


def frontier_config(case: Case, tenant: int = 0) -> FrontierConfig:
    model = case.faults_for(tenant)[1]
    return FrontierConfig(
        n_sensors=case.n,
        disorder_horizon=case.horizon,
        late_policy=case.late_policy,
        skew=model.skews(case.n) if model is not None else None,
    )


def frontier_rows(case: Case, envelopes: list) -> tuple[np.ndarray, set[int]]:
    """The rows a frontier flushed after every push emits, and the
    envelopes it refuses.

    A row flushes once the newest accepted row is ``max(1, horizon)``
    ahead of it; an envelope for a flushed row is late.  Under
    ``nan_patch`` an envelope that would flush more than the queue
    capacity of rows at once is refused.  Grid rows are sequence numbers:
    the frontier corrects the schedule's clock skew.
    """
    lag = max(1, case.horizon)
    cells: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    refused: set[int] = set()
    newest = -1
    for i, envelope in enumerate(envelopes):
        row = envelope.seq
        if row <= newest - lag:
            continue
        released = row - max(newest, lag - 1)
        if case.late_policy == "nan_patch" and released > QUEUE_CAPACITY:
            refused.add(i)
            continue
        values, seen = cells.setdefault(
            row, (np.full(case.n, np.nan), np.zeros(case.n, dtype=bool))
        )
        if not seen[envelope.sensor]:
            values[envelope.sensor] = envelope.value
            seen[envelope.sensor] = True
        newest = max(newest, row)
    if case.late_policy == "nan_patch":
        empty = (np.full(case.n, np.nan), None)
        rows = [cells.get(row, empty)[0] for row in range(newest + 1)]
    else:
        rows = [values for _, (values, seen) in sorted(cells.items()) if seen.all()]
    return (np.column_stack(rows) if rows else np.empty((case.n, 0))), refused


# --------------------------------------------------------------------- #
# Layers
# --------------------------------------------------------------------- #


def supervisor_config(case: Case) -> SupervisorConfig:
    return SupervisorConfig(
        retry=RetryPolicy(max_retries=MAX_RETRIES, base_delay=0.05, seed=case.seed),
        breaker=case.breaker or BreakerPolicy(failure_threshold=0),
        round_deadline=ROUND_DEADLINE,
        checkpoint_every=case.checkpoint_every,
        keep_checkpoints=3,
        queue_capacity=QUEUE_CAPACITY,
    )


def assert_no_stray_files(supervisors, directories) -> None:
    for supervisor in supervisors:
        supervisor.rotation.join_reclaim()
    for directory in directories:
        assert live_and_stray(directory)[1] == []


def assert_refusal_is_due(case: Case, supervisor, error: Exception) -> None:
    """A crash on every attempt, or every retained generation torn."""
    assert case.chaos is not None
    if isinstance(error, RetryBudgetExceededError):
        assert error.attempts == MAX_RETRIES + 1
        assert case.chaos.round_fate(error.round_index, MAX_RETRIES) == "crash"
    else:
        generations = supervisor.rotation.generations()
        assert generations
        assert all(case.chaos.corrupts_checkpoint(g.round_index) for g in generations)


def run_stream(case: Case) -> Run:
    history, live = feed(case)
    stream = StreamingCAD(case.config, case.n)
    stream.warm_up(history)
    records = [r for r in map(stream.push, live.T) if r is not None]
    return Run(records, live, decisions(records))


class Session:
    """One supervised stream that may be killed cold and resumed."""

    def __init__(self, case: Case, history, directory: str) -> None:
        self.case = case
        self.history = history
        self.directory = directory
        self.records: list = []
        #: Effective input by live sample index (rows feed).
        self.effective: dict[int, np.ndarray] = {}
        self.supervisor = self.start(resume=False)

    def start(self, resume: bool) -> StreamSupervisor:
        case = self.case
        supervisor = StreamSupervisor(
            case.config,
            case.n,
            supervisor=supervisor_config(case),
            checkpoint_dir=self.directory,
            clock=VirtualClock(),
            chaos=case.chaos,
            frontier=IngestFrontier(frontier_config(case)) if case.delivery else None,
            resume=resume,
        )
        if supervisor.stream.samples_seen == 0:
            supervisor.warm_up(self.history)
        return supervisor

    def feed(self, steps: int, step, restart) -> None:
        """Run ``step(i)`` for i in ``[0, steps)``.  At the kill point the
        supervisor is dropped without a final checkpoint, a new one
        resumes from the directory, and the loop goes on from
        ``restart()``.  The pending reclaim is joined first, so the new
        rotation's sweep does not race the old thread."""
        kill_at = self.case.kill_point(steps)
        i = 0
        while i < steps:
            if i == kill_at:
                self.supervisor.rotation.join_reclaim()
                self.supervisor = self.start(resume=True)
                i, kill_at = restart(), None
                continue
            step(i)
            i += 1

    def feed_rows(self, live: np.ndarray) -> None:
        """Samples one at a time, each taken under the quarantine mask read
        just before it; after the kill, from the resumed position."""

        def step(t: int) -> None:
            masked = live[:, t].copy()
            masked[self.supervisor.breakers.quarantine_mask()] = np.nan
            if t in self.effective:  # re-fed after the kill: the same input
                np.testing.assert_array_equal(self.effective[t], masked)
            self.effective[t] = masked
            self.records.extend(self.supervisor.process(live[:, t]))

        self.feed(live.shape[1], step, lambda: self.supervisor.stream.samples_seen)

    def feed_envelopes(self, envelopes: list, refused: set[int]) -> None:
        """A delivery schedule; after the kill, all of it again.  A
        predicted refusal must leave the frontier untouched."""

        def step(i: int) -> None:
            if i not in refused:
                self.records.extend(self.supervisor.ingest(envelopes[i]))
                return
            before = self.supervisor.frontier.to_state()
            with pytest.raises(EnvelopeValidationError):
                self.supervisor.ingest(envelopes[i])
            assert self.supervisor.frontier.to_state() == before

        self.feed(len(envelopes), step, lambda: 0)
        self.records.extend(self.supervisor.finish())

    def effective_rows(self) -> np.ndarray:
        rows = [self.effective[t] for t in sorted(self.effective)]
        return np.column_stack(rows) if rows else np.empty((self.case.n, 0))


def run_supervisor(case: Case) -> Run | None:
    """One supervised stream, fed rows or envelopes, killed cold at most
    once and resumed from its checkpoint directory."""
    history, live = feed(case)
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        if case.refusal():
            with pytest.raises(ConfigurationError):
                Session(case, history, tmp)
            return None
        session = Session(case, history, tmp)
        refused = False
        try:
            if case.delivery is None:
                session.feed_rows(live)
            else:
                envelopes = schedule(case, live)
                grid, rejected = frontier_rows(case, envelopes)
                session.feed_envelopes(envelopes, rejected)
        except (RetryBudgetExceededError, RecoveryError) as error:
            assert_refusal_is_due(case, session.supervisor, error)
            refused = True
        supervisor = session.supervisor
        assert_no_stray_files([supervisor], [Path(tmp)])
        counters = supervisor.health().to_dict()
        counters["breakers_reclosed"] = sum(
            supervisor.breakers[i].times_opened > 0
            and supervisor.breakers[i].state is BreakerState.CLOSED
            for i in range(case.n)
        )
    effective = session.effective_rows() if case.delivery is None else grid
    records = merged(session.records)
    counters.update(decisions(records))
    return Run(records, effective, counters, refused)


def run_fleet(case: Case) -> dict[str, Run] | None:
    """``case.tenants`` tenants over one manager, killed cold at most once
    and resumed from the fleet manifest; every tenant is checked alone."""
    names = [f"tenant-{i}" for i in range(case.tenants)]
    feeds = {name: feed(case, i) for i, name in enumerate(names)}
    with tempfile.TemporaryDirectory(prefix="repro-oracle-fleet-") as tmp:

        def start(resume: bool) -> FleetManager:
            specs = [
                TenantSpec(
                    name,
                    case.config,
                    case.n,
                    supervisor=supervisor_config(case),
                    frontier=frontier_config(case, i) if case.delivery else None,
                    chaos=case.faults_for(i)[0],
                )
                for i, name in enumerate(names)
            ]
            fleet = FleetConfig(
                shards=4,
                seed=case.seed % 1000,
                quantum=case.quantum,
                offload_jobs=case.offload_jobs,
            )
            manager = FleetManager(
                specs, fleet=fleet, manifest_dir=tmp, clock=VirtualClock(), resume=resume
            )
            fresh = [n for n in names if manager.supervisor(n).stream.samples_seen == 0]
            manager.warm_up({name: feeds[name][0] for name in fresh})
            return manager

        if case.refusal():
            with pytest.raises(ConfigurationError):
                start(resume=False)
            return None
        if case.delivery is None:
            items = {name: list(feeds[name][1].T) for name in names}
        else:
            items = {
                name: schedule(case, feeds[name][1], i, name)
                for i, name in enumerate(names)
            }
        manager, records, resumed = drive_fleet(case, items, start)
        assert_no_stray_files(
            [manager.supervisor(name) for name in names],
            [Path(tmp) / "tenants" / name for name in names],
        )
        counters = manager.health().to_dict()
    counters["resumed_samples"] = min(resumed.values(), default=0)
    owns = {
        name: merged(r.record for r in records if r.tenant == name) for name in names
    }
    # Fleet-wide: one tenant reaching the decision is enough.
    counters.update(decisions([record for own in owns.values() for record in own]))
    runs = {}
    for name in names:
        live = feeds[name][1]
        if case.delivery is not None:
            live = frontier_rows(case, items[name])[0]
        runs[name] = Run(owns[name], live, counters)
    return runs


def drive_fleet(case: Case, items: dict, start):
    """Feed every tenant's rows (one per turn) or envelopes (bursts of
    ``4 n``), one pump per turn.  After the kill, rows resume from each
    tenant's recovered position and envelopes are all re-sent."""
    manager = start(resume=False)
    burst = 1 if case.delivery is None else 4 * case.n
    turns = -(-max(len(queue) for queue in items.values()) // burst)
    kill_at = case.kill_point(turns)
    records, resumed = [], {}

    def put(name: str, chunk) -> None:
        for item in chunk:
            if case.delivery is None:
                manager.submit(name, item)
            else:
                manager.ingest(item)

    for turn in range(turns):
        for name, queue in items.items():
            put(name, queue[turn * burst : (turn + 1) * burst])
        records.extend(manager.pump())
        if turn == kill_at:
            for name in items:
                manager.supervisor(name).rotation.join_reclaim()
            manager = start(resume=True)
            for name, queue in items.items():
                resumed[name] = manager.supervisor(name).stream.samples_seen
                restart = resumed[name] if case.delivery is None else 0
                put(name, queue[restart : (turn + 1) * burst])
            records.extend(manager.drain())
    records.extend(manager.drain())
    records.extend(manager.finish())
    return manager, records, resumed


def assert_matches_reference(case: Case, run: Run | None, history=None) -> None:
    if run is None:  # a predicted ConfigurationError, already asserted
        return
    if history is None:
        history = feed(case)[0]
    expected = reference_records(case, history, run.effective)
    if run.refused:
        assert run.records == expected[: len(run.records)]
        return
    assert run.records == expected
    for name in case.fired:
        assert run.counters[name] > 0, f"{name} never fired"
    for name in case.quiet:
        assert run.counters[name] == 0, f"{name} fired on a clean feed"


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #


@st.composite
def cases(draw, kill: bool = False, **layer) -> Case:
    """A stream shape and its data, with one cold kill somewhere when
    ``kill``; ``layer`` sets the layer's knobs (strategies are drawn)."""
    layer = {
        name: draw(value) if isinstance(value, st.SearchStrategy) else value
        for name, value in layer.items()
    }
    if kill:
        layer["kill_at"] = draw(st.none() | st.floats(0, 1, exclude_max=True))
    n = draw(st.integers(2, 14))
    window = draw(st.integers(4, 32))
    allow_missing = draw(st.sampled_from([True, True, True, False]))
    return Case(
        n=n,
        window=window,
        step=draw(st.sampled_from(sorted({1, window // 3, window - 1}))),
        rounds=draw(st.integers(1, 10)),
        seed=draw(st.integers(0, 2**32 - 1)),
        k=draw(st.integers(1, n + 3)),
        tau=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        corr_refresh=draw(st.sampled_from([1, 3, 64])),
        allow_missing=allow_missing,
        checkpoint_every=draw(st.sampled_from([1, 2, 5])),
        n_constant=draw(st.integers(0, min(2, n))),
        missing_rate=draw(st.sampled_from([0.0, 0.05, 0.3])) if allow_missing else 0.0,
        theta=draw(st.sampled_from([0.3, 0.5, 0.7])),
        **layer,
    )


@st.composite
def chaos_models(draw, torn: bool = True) -> ChaosModel:
    return ChaosModel(
        seed=draw(st.integers(0, 2**31)),
        crash_rate=draw(st.sampled_from([0.0, 0.15, 0.3])),
        slow_rate=draw(st.sampled_from([0.0, 0.15])),
        slow_seconds=2 * ROUND_DEADLINE,
        corrupt_rate=draw(st.sampled_from([0.0, 0.2])) if torn else 0.0,
    )


@st.composite
def breaker_cases(draw) -> Case:
    """A sensor flapping over at least half the feed (so breakers trip
    and quarantine it), under crashes that replay quarantined samples."""
    case = draw(cases(kill=True, chaos=chaos_models()))
    length = case.live_length
    start = draw(st.integers(0, length // 2))
    flap = (
        draw(st.integers(0, case.n - 1)),
        start,
        draw(st.integers(start + (length + 1) // 2, length)),
        draw(st.integers(1, case.window)),
        draw(st.sampled_from([0.5, 0.75, 1.0])),
    )
    breaker = BreakerPolicy(
        failure_threshold=draw(st.integers(1, 3)),
        open_rounds=draw(st.integers(1, 8)),
        probation_rounds=draw(st.integers(1, 4)),
    )
    return replace(case, flap=flap, breaker=breaker)


@st.composite
def delivery_models(draw, horizon: int, late: bool) -> DeliveryChaosModel:
    """Originals delayed within the horizon, or up to 3x past it (late)."""
    return DeliveryChaosModel(
        seed=draw(st.integers(0, 2**31)),
        out_of_order_rate=draw(st.sampled_from([0.0, 0.25, 0.5])),
        max_disorder=draw(st.integers(0, 3 * horizon + 2 if late else horizon)),
        redelivery_rate=draw(st.sampled_from([0.0, 0.1])),
        redelivery_max_delay=draw(st.integers(0, 4 * horizon + 4)),
        skew_magnitude=draw(st.sampled_from([0.0, 0.4])),
    )


@st.composite
def frontier_cases(draw) -> Case:
    horizon = draw(st.integers(0, 8))
    return draw(
        cases(
            kill=True,
            horizon=horizon,
            late_policy=st.sampled_from(["nan_patch", "drop"]),
            delivery=delivery_models(horizon, late=True),
            jump=st.sampled_from([0, 0, 1, 7, 40, 10**6]),
            chaos=st.none() | chaos_models(),
        )
    )


@st.composite
def fleet_cases(draw) -> Case:
    """Tenants fed rows or in-horizon envelopes: a tenant's late cells
    would depend on when the scheduler pumps it."""
    horizon = draw(st.integers(0, 6))
    return draw(
        cases(
            kill=True,
            horizon=horizon,
            late_policy=st.sampled_from(["nan_patch", "drop"]),
            delivery=st.none() | delivery_models(horizon, late=False),
            chaos=st.none() | chaos_models(torn=False),
            tenants=st.integers(1, 3),
            quantum=st.sampled_from([1, 8, 64]),
            offload_jobs=st.sampled_from([0, 0, 2]),
            engine=st.sampled_from(["fast", "reference"]),
        )
    )


# --------------------------------------------------------------------- #
# Hand-picked soak and fleet configurations, as examples
# --------------------------------------------------------------------- #

# At the default theta 0.3 every sensor is an outlier and no round of these
# feeds has n_r > 0; at 0.5 (soak) and 0.55 (fleet) some rounds do, so a
# stage-B divergence cannot hide behind all-outlier records.
_SOAK = dict(
    n=16, window=64, step=4, rounds=300, seed=2023, checkpoint_every=25, theta=0.5
)
_FLAP_START = (64 + 299 * 4) // 3
_FLEET = dict(
    n=16, window=64, step=8, rounds=60, seed=2023, tenants=3, offload_jobs=2, theta=0.55
)
#: Counters of rounds that reach CAD's decision (see ``decisions``).
_DECIDES = ("rounds_with_variations", "abnormal_rounds")

PROCESS_CHAOS = Case(
    **_SOAK,
    chaos=ChaosModel(
        seed=2023, crash_rate=0.02, slow_rate=0.02, slow_seconds=2.0, corrupt_rate=0.2
    ),
    fired=("crashes_recovered", "slow_rounds", "checkpoints_written", *_DECIDES),
)
SENSOR_FLAPPING = Case(
    **_SOAK,
    flap=(3, _FLAP_START, _FLAP_START + 30 * 4, 4, 0.75),
    breaker=BreakerPolicy(failure_threshold=3, open_rounds=8, probation_rounds=4),
    fired=("breaker_trips", "breakers_reclosed", *_DECIDES),
)
#: The flapping soak again under crashes: each recovery must replay the
#: quarantined sensor's samples masked, as they were first fed.
FLAPPING_UNDER_CRASHES = replace(
    SENSOR_FLAPPING,
    chaos=ChaosModel(seed=2023, crash_rate=0.05),
    fired=("breaker_trips", "breakers_reclosed", "crashes_recovered", *_DECIDES),
)
#: Clean in-order delivery: the frontier must pass the grid through
#: without re-sequencing, absorbing or dropping anything.
CLEAN_DELIVERY = Case(
    **_SOAK,
    horizon=16,
    delivery=DeliveryChaosModel(seed=2023),
    fired=_DECIDES,
    quiet=(
        "samples_reordered",
        "samples_deduped",
        "samples_late_dropped",
        "rows_dropped",
    ),
)
DELIVERY_CHAOS = Case(
    **_SOAK,
    horizon=16,
    delivery=DeliveryChaosModel(
        seed=2023,
        out_of_order_rate=0.25,
        max_disorder=16,
        redelivery_rate=0.05,
        redelivery_max_delay=64,
        skew_magnitude=0.4,
    ),
    fired=("samples_reordered", "samples_deduped", "samples_late_dropped", *_DECIDES),
)
LATE_DATA_NAN_PATCH = Case(
    **_SOAK,
    horizon=16,
    delivery=DeliveryChaosModel(seed=2024, out_of_order_rate=0.10, max_disorder=48),
    fired=("cells_nan_patched", *_DECIDES),
)
#: Dropping rows keeps 94 of the 300 rounds; those with n_r > 0 all stay
#: inside mu +- eta*sigma.
LATE_DATA_DROP = replace(
    LATE_DATA_NAN_PATCH,
    late_policy="drop",
    fired=("rows_dropped", "rounds_with_variations"),
)
FLEET_CHAOS_KILL = Case(
    **_FLEET,
    checkpoint_every=7,
    chaos=ChaosModel(seed=2023, crash_rate=0.04),
    kill_at=0.5,
    fired=(
        "crashes_recovered",
        "checkpoints_written",
        "offloaded_rounds",
        "resumed_samples",  # no tenant resumed from scratch
        "rounds_with_variations",
    ),
)
FLEET_DELIVERY = Case(
    **_FLEET,
    horizon=6,
    delivery=DeliveryChaosModel(
        seed=2023, out_of_order_rate=0.25, max_disorder=6, redelivery_rate=0.05
    ),
    fired=(
        "samples_reordered",
        "samples_deduped",
        "offloaded_rounds",
        "rounds_with_variations",
    ),
)
#: Reference-engine tenants under stage-A offload: the pool runs their
#: stateless pipelines, rebuilt for every round.
FLEET_REFERENCE_OFFLOAD = Case(
    **_FLEET,
    engine="reference",
    fired=("offloaded_rounds", "rounds_with_variations"),
)


# --------------------------------------------------------------------- #
# Fixtures, one per layer, and the tests
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def bare_stream():
    """A fast-engine ``StreamingCAD`` fed sample by sample."""
    return run_stream


@pytest.fixture(scope="module")
def supervisor():
    """A ``StreamSupervisor`` on a virtual clock with rotated checkpoints;
    the case decides its chaos, breakers, frontier and cold kill."""
    return run_supervisor


@pytest.fixture(scope="module")
def fleet():
    """``FleetManager`` tenants under a manifest directory; the shared
    worker pool is torn down after the module."""
    yield run_fleet
    shutdown_worker_pool()


@ORACLE
@given(case=cases())
def test_fast_stream_is_the_reference(bare_stream, case):
    assert_matches_reference(case, bare_stream(case))


@ORACLE
@given(case=cases())
def test_supervisor_is_the_reference(supervisor, case):
    assert_matches_reference(case, supervisor(case))


@ORACLE
@given(case=cases(kill=True, chaos=chaos_models()))
@example(case=PROCESS_CHAOS)
def test_supervisor_under_process_chaos_is_the_reference(supervisor, case):
    assert_matches_reference(case, supervisor(case))


@ORACLE
@given(case=breaker_cases())
@example(case=SENSOR_FLAPPING)
@example(case=FLAPPING_UNDER_CRASHES)
def test_quarantined_input_is_the_reference_input(supervisor, case):
    assert_matches_reference(case, supervisor(case))


@ORACLE
@given(case=frontier_cases())
@example(case=CLEAN_DELIVERY)
@example(case=DELIVERY_CHAOS)
@example(case=LATE_DATA_NAN_PATCH)
@example(case=LATE_DATA_DROP)
def test_delivered_grid_is_the_reference_input(supervisor, case):
    assert_matches_reference(case, supervisor(case))


@ORACLE
@given(case=fleet_cases())
@example(case=FLEET_CHAOS_KILL)
@example(case=FLEET_DELIVERY)
@example(case=FLEET_REFERENCE_OFFLOAD)
def test_every_fleet_tenant_is_its_own_reference(fleet, case):
    for i, run in enumerate((fleet(case) or {}).values()):
        assert_matches_reference(case, run, feed(case, i)[0])
