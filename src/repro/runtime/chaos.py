"""Process-level chaos injection for the supervised runtime.

:mod:`repro.datasets.faults` corrupts the *data feed* (missing readings,
dropouts, stuck-at, duplicates, flapping).  This module corrupts the
*process*: rounds that crash mid-flight, rounds that stall past the
watchdog deadline, and checkpoints that land torn on disk.  Together they
are the failure model the generated oracle (``tests/test_oracle.py``)
drives the supervisor through.

Every decision is a pure function of ``(seed, channel, round_index,
attempt)`` — no ambient RNG, no call-history dependence — so a soak run is
exactly reproducible, and a *retry* of a crashed round re-rolls its fate
(that is what makes the injected failures transient).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

__all__ = ["ChaosModel"]

# Channel tags decorrelate the fate/corruption draws under one seed.
_CHANNEL_FATE = 1
_CHANNEL_CORRUPT = 2


@dataclass(frozen=True)
class ChaosModel:
    """A reproducible process-fault scenario for one supervised stream.

    Attributes
    ----------
    seed:
        Root seed; all decisions derive from it deterministically.
    crash_rate:
        Probability a round attempt crashes mid-flight (the supervisor
        must restore the last valid checkpoint and replay).
    slow_rate:
        Probability a round attempt stalls for ``slow_seconds`` before
        completing (trips the watchdog when past the deadline).
    slow_seconds:
        Stall duration in (virtual) seconds.
    corrupt_rate:
        Probability a freshly written checkpoint generation is torn on
        disk (recovery must fall back past it).
    """

    seed: int = 0
    crash_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.5
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for rate, label in (
            (self.crash_rate, "crash_rate"),
            (self.slow_rate, "slow_rate"),
            (self.corrupt_rate, "corrupt_rate"),
        ):
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"{label} must be in [0, 1), got {rate}")
        if self.crash_rate + self.slow_rate >= 1.0:
            raise ConfigurationError(
                "crash_rate + slow_rate must be < 1, got "
                f"{self.crash_rate} + {self.slow_rate}"
            )
        if self.slow_seconds < 0.0:
            raise ConfigurationError(f"slow_seconds must be >= 0, got {self.slow_seconds}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def is_clean(self) -> bool:
        """True when no process fault can ever fire."""
        return (
            self.crash_rate <= 0.0
            and self.slow_rate <= 0.0
            and self.corrupt_rate <= 0.0
        )

    def round_fate(self, round_index: int, attempt: int) -> str | None:
        """``"crash"``, ``"slow"`` or None for one round attempt."""
        if self.crash_rate <= 0.0 and self.slow_rate <= 0.0:
            return None
        rng = np.random.default_rng(
            [self.seed, _CHANNEL_FATE, round_index, attempt]
        )
        draw = float(rng.random())
        if draw < self.crash_rate:
            return "crash"
        if draw < self.crash_rate + self.slow_rate:
            return "slow"
        return None

    def corrupts_checkpoint(self, round_index: int) -> bool:
        """Whether the generation written at ``round_index`` lands torn."""
        if self.corrupt_rate <= 0.0:
            return False
        rng = np.random.default_rng(
            [self.seed, _CHANNEL_CORRUPT, round_index]
        )
        return float(rng.random()) < self.corrupt_rate

    def corrupt_file(self, path: str | Path, round_index: int) -> None:
        """Deterministically tear the file at ``path``.

        Emulates a crash between the data write and its fsync reaching
        every block: the file is truncated to a seeded fraction of its
        length and a short run of bytes near the new end is scribbled.
        """
        path = Path(path)
        size = path.stat().st_size
        rng = np.random.default_rng(
            [self.seed, _CHANNEL_CORRUPT, round_index, size]
        )
        keep = int(size * (0.3 + 0.5 * float(rng.random())))
        with open(path, "r+b") as handle:
            handle.truncate(keep)
            if keep > 16:
                handle.seek(keep - 16)
                handle.write(rng.integers(0, 256, size=8, dtype=np.uint8).tobytes())
            handle.flush()
            os.fsync(handle.fileno())
