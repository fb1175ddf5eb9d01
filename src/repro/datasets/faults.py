"""Data-feed fault injection for robustness testing.

The simulator in :mod:`repro.datasets.generator` produces *process*
anomalies — the physical failures CAD is supposed to detect.  This module
corrupts the *feed* itself, modelling the transport- and sensor-level faults
a long-running deployment sees (CSCAD, arXiv:2105.14476, motivates exactly
this setting):

* **missing-at-random gaps** — individual readings dropped (NaN), e.g. lost
  packets;
* **sensor dropout** — one sensor silent over a whole span (NaN), e.g. a
  crashed collector;
* **stuck-at flatlines** — a sensor repeats its last real reading over a
  span (values look valid but carry no information);
* **duplicated / late samples** — a timestamp redelivers the previous
  sample for every sensor (stale data on time-axis hiccups);
* **sensor flapping** — a NaN square wave over a span (a loose connector
  that repeatedly trips and clears).

Transport faults — out-of-order delivery, redelivery and producer clock
skew — live in one place, :class:`~repro.ingest.DeliveryChaosModel`, which
schedules them over an envelope stream for the ingest frontier to repair.

All injectors copy their input; the clean array is never modified.  A
:class:`FaultModel` bundles a full corruption scenario behind one seeded,
deterministic ``apply`` call, so tests and benchmarks can sweep fault rates
reproducibly.  Faults mark *data* defects, not label changes: ground-truth
anomaly labels of the underlying series stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FaultModel",
    "inject_missing_at_random",
    "inject_sensor_dropout",
    "inject_stuck_at",
    "inject_duplicates",
    "inject_sensor_flapping",
]


def _as_matrix(values: np.ndarray) -> np.ndarray:
    values = np.array(values, dtype=np.float64)  # always a fresh copy
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D (n_sensors, length), got {values.shape}")
    return values


def _check_span(values: np.ndarray, sensor: int, start: int, stop: int) -> None:
    n, length = values.shape
    if not 0 <= sensor < n:
        raise ValueError(f"sensor {sensor} outside [0, {n})")
    if not 0 <= start < stop <= length:
        raise ValueError(f"invalid span [{start}, {stop}) for length {length}")


def inject_missing_at_random(
    values: np.ndarray, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Drop each reading independently with probability ``rate`` (NaN)."""
    values = _as_matrix(values)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if rate > 0.0:
        values[rng.random(values.shape) < rate] = np.nan
    return values


def inject_sensor_dropout(
    values: np.ndarray, sensor: int, start: int, stop: int
) -> np.ndarray:
    """Silence one sensor over ``[start, stop)`` (all NaN)."""
    values = _as_matrix(values)
    _check_span(values, sensor, start, stop)
    values[sensor, start:stop] = np.nan
    return values


def inject_stuck_at(
    values: np.ndarray, sensor: int, start: int, stop: int
) -> np.ndarray:
    """Freeze one sensor at its last pre-fault reading over ``[start, stop)``.

    Unlike :func:`inject_sensor_dropout` the readings stay *valid* numbers —
    the classic silent failure a NaN check cannot catch.  (The detector sees
    it as a zero-variance row: the flatlined sensor loses all TSG edges.)
    """
    values = _as_matrix(values)
    _check_span(values, sensor, start, stop)
    values[sensor, start:stop] = values[sensor, start]
    return values


def inject_duplicates(
    values: np.ndarray, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Redeliver the previous sample at random timestamps.

    Each time point ``t >= 1`` is independently replaced, with probability
    ``rate``, by the (already possibly duplicated) column ``t - 1`` across
    all sensors — modelling a late batch flushing stale data.  The series
    length is unchanged.
    """
    values = _as_matrix(values)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if rate > 0.0 and values.shape[1] > 1:
        hits = np.flatnonzero(rng.random(values.shape[1] - 1) < rate) + 1
        for t in hits:  # sequential: runs of duplicates repeat one sample
            values[:, t] = values[:, t - 1]
    return values


def inject_sensor_flapping(
    values: np.ndarray,
    sensor: int,
    start: int,
    stop: int,
    period: int,
    duty: float = 0.5,
) -> np.ndarray:
    """Flap one sensor over ``[start, stop)``: a NaN square wave.

    Within the span, each cycle of ``period`` samples begins with
    ``round(duty * period)`` dead (NaN) readings followed by live ones —
    the loose-connector failure mode that repeatedly trips and clears.
    Unlike :func:`inject_sensor_dropout` the sensor keeps *partially*
    reporting, which is exactly what exercises circuit-breaker hysteresis:
    a breaker without probation would flap along with the sensor.
    """
    values = _as_matrix(values)
    _check_span(values, sensor, start, stop)
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if not 0.0 < duty <= 1.0:
        raise ValueError(f"duty must be in (0, 1], got {duty}")
    dead = max(1, round(duty * period))
    phase = (np.arange(stop - start)) % period
    values[sensor, start:stop][phase < dead] = np.nan
    return values


@dataclass(frozen=True)
class FaultModel:
    """A reproducible corruption scenario for one ``(n, T)`` stream.

    Attributes
    ----------
    missing_rate:
        Probability each reading is dropped (missing-at-random).
    duplicate_rate:
        Probability each timestamp redelivers the previous sample.
    dropout:
        ``(sensor, start, stop)`` spans silenced entirely (NaN).
    stuck:
        ``(sensor, start, stop)`` spans flatlined at the span's first value.
    flapping:
        ``(sensor, start, stop, period, duty)`` spans turned into a NaN
        square wave (see :func:`inject_sensor_flapping`).
    seed:
        Seed of the private RNG; the same model applied to the same values
        always yields the same corruption.

    Faults compound in a fixed order — duplicates, stuck-at, flapping,
    dropout, then missing-at-random — so value-level faults act on real
    readings before gaps erase them.
    """

    missing_rate: float = 0.0
    duplicate_rate: float = 0.0
    dropout: tuple[tuple[int, int, int], ...] = field(default=())
    stuck: tuple[tuple[int, int, int], ...] = field(default=())
    flapping: tuple[tuple[int, int, int, int, float], ...] = field(default=())
    seed: int = 0

    def __post_init__(self) -> None:
        for rate, label in (
            (self.missing_rate, "missing_rate"),
            (self.duplicate_rate, "duplicate_rate"),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{label} must be in [0, 1), got {rate}")
        for spans, label in ((self.dropout, "dropout"), (self.stuck, "stuck")):
            for span in spans:
                if len(span) != 3:
                    raise ValueError(f"{label} spans must be (sensor, start, stop) triples")
        for flap in self.flapping:
            if len(flap) != 5:
                raise ValueError(
                    "flapping spans must be (sensor, start, stop, period, duty) tuples"
                )

    @property
    def is_clean(self) -> bool:
        """True when the model injects nothing at all."""
        return (
            # Rates are validated into [0, 1), so <= 0.0 is exact here and
            # avoids float ==/!= (lint rule R2).
            self.missing_rate <= 0.0
            and self.duplicate_rate <= 0.0
            and not self.dropout
            and not self.stuck
            and not self.flapping
        )

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Return a corrupted copy of ``values`` (the input is untouched).

        A clean model returns a plain copy, so a fault-rate sweep's zero
        point exercises the exact same pipeline as the faulted points.
        """
        values = _as_matrix(values)
        rng = np.random.default_rng(self.seed)
        values = inject_duplicates(values, self.duplicate_rate, rng)
        for sensor, start, stop in self.stuck:
            values = inject_stuck_at(values, sensor, start, stop)
        for sensor, start, stop, period, duty in self.flapping:
            values = inject_sensor_flapping(values, sensor, start, stop, period, duty)
        for sensor, start, stop in self.dropout:
            values = inject_sensor_dropout(values, sensor, start, stop)
        return inject_missing_at_random(values, self.missing_rate, rng)
