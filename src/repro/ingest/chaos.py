"""Delivery-fault chaos injection for the ingest frontier.

:class:`~repro.runtime.chaos.ChaosModel` corrupts the *process* (crashes,
stalls, torn checkpoints); :class:`~repro.datasets.faults.FaultModel`
corrupts the *data*.  This module corrupts the *transport*: the same
envelopes, delivered wrong — shuffled within a bounded disorder window,
redelivered (possibly much later), and stamped by skewed producer clocks.

Same discipline as ``repro.runtime.chaos``: every decision is a pure
function of ``(seed, channel, sensor, seq)`` — no ambient RNG, no
call-history dependence — so a delivery schedule is exactly reproducible
and shares one fault vocabulary with the dataset-level knobs
(``out_of_order`` / ``redelivery`` / ``skew`` on ``FaultModel``).

The headline property the oracle (``tests/test_oracle.py``) leans
on: with original deliveries delayed at most ``max_disorder`` ticks and a
frontier horizon of at least ``max_disorder``, *every* original arrives
before its row flushes — so the frontier's output is bit-identical to
clean delivery, while redeliveries delayed past the horizon exercise the
late-drop path without losing data (their original already landed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from ..runtime.errors import ConfigurationError
from .envelope import SampleEnvelope

__all__ = ["DeliveryChaosModel"]

# Channel tags decorrelate the draws under one seed.
_CHANNEL_DELAY = 1
_CHANNEL_REDELIVERY = 2
_CHANNEL_SKEW = 3


@dataclass(frozen=True)
class DeliveryChaosModel:
    """A reproducible delivery-fault scenario for one envelope stream.

    Attributes
    ----------
    seed:
        Root seed; all decisions derive from it deterministically.
    out_of_order_rate:
        Probability an envelope's delivery is delayed by 1..``max_disorder``
        ticks (which is what shuffles arrival order).
    max_disorder:
        Upper bound on original-delivery delay in ticks.  Keep it at or
        below the frontier's ``disorder_horizon`` for lossless recovery.
    redelivery_rate:
        Probability an envelope is delivered *twice*.  The copy carries an
        independent delay of 0..``redelivery_max_delay`` ticks on top of
        the original's arrival, and may legitimately exceed the horizon —
        it then arrives late and is dropped, double-delivery never
        double-counts.
    redelivery_max_delay:
        Upper bound on the extra delay of redelivered copies.
    skew_magnitude:
        Per-sensor constant clock offset drawn once per sensor from
        ``[-skew_magnitude, +skew_magnitude]`` and *added* to every
        timestamp of that sensor (the producer's clock runs fast/slow).
        Recover it on the frontier side via ``FrontierConfig(skew=
        model.skews(n_sensors))``; offsets under half a grid period are
        absorbed by snapping even uncorrected.
    """

    seed: int = 0
    out_of_order_rate: float = 0.0
    max_disorder: int = 0
    redelivery_rate: float = 0.0
    redelivery_max_delay: int = 0
    skew_magnitude: float = 0.0

    def __post_init__(self) -> None:
        for rate, label in (
            (self.out_of_order_rate, "out_of_order_rate"),
            (self.redelivery_rate, "redelivery_rate"),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{label} must be in [0, 1], got {rate}")
        for bound, label in (
            (self.max_disorder, "max_disorder"),
            (self.redelivery_max_delay, "redelivery_max_delay"),
        ):
            if bound < 0:
                raise ConfigurationError(f"{label} must be >= 0, got {bound}")
        if self.skew_magnitude < 0.0:
            raise ConfigurationError(
                f"skew_magnitude must be >= 0, got {self.skew_magnitude}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def is_clean(self) -> bool:
        """True when delivery is untouched (in order, once, unskewed)."""
        return (
            (self.out_of_order_rate <= 0.0 or self.max_disorder == 0)
            and self.redelivery_rate <= 0.0
            and self.skew_magnitude <= 0.0
        )

    def skew(self, sensor: int) -> float:
        """The constant clock offset of one sensor."""
        if self.skew_magnitude <= 0.0:
            return 0.0
        rng = np.random.default_rng([self.seed, _CHANNEL_SKEW, sensor])
        return float(rng.uniform(-self.skew_magnitude, self.skew_magnitude))

    def skews(self, n_sensors: int) -> tuple[float, ...]:
        """All per-sensor offsets, for ``FrontierConfig(skew=...)``."""
        return tuple(self.skew(sensor) for sensor in range(n_sensors))

    def delay(self, sensor: int, seq: int) -> int:
        """Delivery delay (ticks) of one original envelope."""
        if self.out_of_order_rate <= 0.0 or self.max_disorder == 0:
            return 0
        rng = np.random.default_rng([self.seed, _CHANNEL_DELAY, sensor, seq])
        if float(rng.random()) >= self.out_of_order_rate:
            return 0
        return int(rng.integers(1, self.max_disorder + 1))

    def redelivery_delay(self, sensor: int, seq: int) -> int | None:
        """Extra delay of the redelivered copy, or None when not redelivered."""
        if self.redelivery_rate <= 0.0:
            return None
        rng = np.random.default_rng([self.seed, _CHANNEL_REDELIVERY, sensor, seq])
        if float(rng.random()) >= self.redelivery_rate:
            return None
        return int(rng.integers(0, self.redelivery_max_delay + 1))

    def deliver(
        self, envelopes: Iterable[SampleEnvelope]
    ) -> list[SampleEnvelope]:
        """Return the faulted delivery schedule of a clean envelope stream.

        Arrival time of an envelope is its sequence number plus its seeded
        delay (redelivered copies add their own); the returned list is
        sorted by ``(arrival, seq, sensor, copy)`` — a deterministic total
        order, so the same model over the same stream always delivers the
        same way.  Timestamps are re-stamped with the sensor's clock skew.
        """
        schedule: list[tuple[int, int, int, int, SampleEnvelope]] = []
        skews: dict[int, float] = {}  # skew(sensor) is constant: draw once
        for envelope in envelopes:
            if self.skew_magnitude > 0.0:
                offset = skews.get(envelope.sensor)
                if offset is None:
                    offset = skews[envelope.sensor] = self.skew(envelope.sensor)
                envelope = replace(
                    envelope, timestamp=envelope.timestamp + offset
                )
            arrival = envelope.seq + self.delay(envelope.sensor, envelope.seq)
            schedule.append(
                (arrival, envelope.seq, envelope.sensor, 0, envelope)
            )
            extra = self.redelivery_delay(envelope.sensor, envelope.seq)
            if extra is not None:
                schedule.append(
                    (arrival + extra, envelope.seq, envelope.sensor, 1, envelope)
                )
        schedule.sort(key=lambda item: item[:4])
        return [item[4] for item in schedule]
