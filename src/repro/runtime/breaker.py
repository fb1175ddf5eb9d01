"""Per-sensor circuit breakers: quarantine flaky sensors deterministically.

A flapping sensor (intermittent NaN bursts, crashed collector, loose wire)
would otherwise drip partial data into every round it touches.  The
degraded-data machinery (PR 1) already handles *sustained* gaps — a sensor
whose window is mostly missing gets masked — but a sensor that flaps on
exactly the masking boundary makes round output flicker with the fault
phase.  The breaker adds hysteresis on top:

* ``CLOSED`` — healthy.  ``failure_threshold`` *consecutive* faulty rounds
  trip it to ``OPEN`` (a single clean round resets the count).
* ``OPEN`` — quarantined.  The supervisor overwrites the sensor's readings
  with NaN before they reach the detector, handing it to the degraded-data
  masking path (its RC freezes, it gains no TSG edges).  After
  ``open_rounds`` rounds the breaker moves to ``HALF_OPEN`` probation.
* ``HALF_OPEN`` — probation.  Raw readings pass through again.
  ``probation_rounds`` consecutive clean rounds re-close the breaker; any
  faulty round trips it straight back to ``OPEN``.

All transitions are driven by per-round fault verdicts computed from the
*raw* feed, so the breaker bank's evolution is a pure function of the input
stream — replaying the same samples after a crash reproduces the same
quarantine decisions, which is what keeps supervised recovery bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .errors import ConfigurationError

__all__ = ["BreakerState", "BreakerPolicy", "SensorBreaker", "BreakerBank"]


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """When to trip, how long to quarantine, how long to probe.

    ``failure_threshold = 0`` disables the breakers entirely (every sensor
    stays ``CLOSED`` forever) — the supervisor then never masks anything.
    """

    failure_threshold: int = 3
    open_rounds: int = 10
    probation_rounds: int = 5

    def __post_init__(self) -> None:
        if self.failure_threshold < 0:
            raise ConfigurationError(
                f"failure_threshold must be >= 0, got {self.failure_threshold}"
            )
        if self.open_rounds < 1:
            raise ConfigurationError(f"open_rounds must be >= 1, got {self.open_rounds}")
        if self.probation_rounds < 1:
            raise ConfigurationError(
                f"probation_rounds must be >= 1, got {self.probation_rounds}"
            )

    @property
    def enabled(self) -> bool:
        return self.failure_threshold > 0


class SensorBreaker:
    """State machine for one sensor (see module docstring for semantics)."""

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.rounds_open = 0
        self.clean_probation_rounds = 0
        self.times_opened = 0

    @property
    def quarantined(self) -> bool:
        """True while the sensor's readings must be masked out."""
        return self.state is BreakerState.OPEN

    def record(self, faulty: bool) -> BreakerState:
        """Advance one round with this round's fault verdict; return state."""
        if not self.policy.enabled:
            return self.state
        if self.state is BreakerState.CLOSED:
            if faulty:
                self.consecutive_failures += 1
                if self.consecutive_failures >= self.policy.failure_threshold:
                    self._open()
            else:
                self.consecutive_failures = 0
        elif self.state is BreakerState.OPEN:
            # Time-based cooldown; the sensor is masked, so the fault verdict
            # (computed from raw readings) is observed but does not extend
            # the quarantine — probation is what re-tests the sensor.
            self.rounds_open += 1
            if self.rounds_open >= self.policy.open_rounds:
                self.state = BreakerState.HALF_OPEN
                self.clean_probation_rounds = 0
        else:  # HALF_OPEN
            if faulty:
                self._open()
            else:
                self.clean_probation_rounds += 1
                if self.clean_probation_rounds >= self.policy.probation_rounds:
                    self.state = BreakerState.CLOSED
                    self.consecutive_failures = 0
        return self.state

    def _open(self) -> None:
        self.state = BreakerState.OPEN
        self.rounds_open = 0
        self.clean_probation_rounds = 0
        self.consecutive_failures = 0
        self.times_opened += 1

    def to_state(self) -> dict[str, Any]:
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "rounds_open": self.rounds_open,
            "clean_probation_rounds": self.clean_probation_rounds,
            "times_opened": self.times_opened,
        }

    @classmethod
    def from_state(cls, policy: BreakerPolicy, state: dict[str, Any]) -> "SensorBreaker":
        """Rebuild a breaker from :meth:`to_state`.

        Raises :class:`ConfigurationError` when ``state`` is not such a
        payload: an unknown state, or a counter that is missing or not a
        non-negative integer.
        """
        try:
            breaker_state = BreakerState(state["state"])
            counters = (
                state["consecutive_failures"],
                state["rounds_open"],
                state["clean_probation_rounds"],
                state["times_opened"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed breaker state {state!r:.80}") from exc
        if not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0
            for v in counters
        ):
            raise ConfigurationError(f"malformed breaker counters {state!r:.80}")
        breaker = cls(policy)
        breaker.state = breaker_state
        (
            breaker.consecutive_failures,
            breaker.rounds_open,
            breaker.clean_probation_rounds,
            breaker.times_opened,
        ) = counters
        return breaker


class BreakerBank:
    """The per-sensor breakers of one stream, with vectorised queries."""

    def __init__(self, n_sensors: int, policy: BreakerPolicy) -> None:
        if n_sensors < 1:
            raise ConfigurationError(f"n_sensors must be >= 1, got {n_sensors}")
        self.policy = policy
        self._breakers = [SensorBreaker(policy) for _ in range(n_sensors)]
        # True while every breaker is CLOSED with a zero failure streak —
        # the common case, where a clean round cannot change any state.
        self._idle = True

    def __len__(self) -> int:
        return len(self._breakers)

    def __getitem__(self, sensor: int) -> SensorBreaker:
        return self._breakers[sensor]

    def quarantine_mask(self) -> np.ndarray:
        """Boolean ``(n_sensors,)`` mask of currently quarantined sensors."""
        return np.array([b.quarantined for b in self._breakers], dtype=bool)

    def record_round(self, faulty: np.ndarray) -> bool:
        """Advance every breaker one round with per-sensor fault verdicts.

        Returns False when the round provably changed nothing (every
        breaker idle and no verdict faulty), so callers can skip
        recomputing derived state like the quarantine mask.
        """
        faulty = np.asarray(faulty, dtype=bool)
        if faulty.shape != (len(self._breakers),):
            raise ConfigurationError(
                f"expected {len(self._breakers)} fault verdicts, got {faulty.shape}"
            )
        if self._idle and not bool(faulty.any()):
            return False
        for breaker, verdict in zip(self._breakers, faulty):
            breaker.record(bool(verdict))
        self._idle = all(
            b.state is BreakerState.CLOSED and b.consecutive_failures == 0
            for b in self._breakers
        )
        return True

    def states(self) -> list[BreakerState]:
        return [b.state for b in self._breakers]

    def open_sensors(self) -> tuple[int, ...]:
        return tuple(
            i for i, b in enumerate(self._breakers) if b.state is BreakerState.OPEN
        )

    def half_open_sensors(self) -> tuple[int, ...]:
        return tuple(
            i for i, b in enumerate(self._breakers) if b.state is BreakerState.HALF_OPEN
        )

    def total_times_opened(self) -> int:
        return sum(b.times_opened for b in self._breakers)

    def to_state(self) -> list[dict[str, Any]]:
        return [b.to_state() for b in self._breakers]

    @classmethod
    def from_state(
        cls, policy: BreakerPolicy, state: list[dict[str, Any]]
    ) -> "BreakerBank":
        bank = cls(len(state), policy)
        bank._breakers = [SensorBreaker.from_state(policy, s) for s in state]
        bank._idle = all(
            b.state is BreakerState.CLOSED and b.consecutive_failures == 0
            for b in bank._breakers
        )
        return bank
