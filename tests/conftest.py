"""Shared fixtures: small correlated MTS with an injected correlation break."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import CADConfig
from repro.timeseries import MultivariateTimeSeries

#: The analyzer's rule ids; R10, R12 and R13 are retired and never reused.
REGISTERED_RULE_IDS = frozenset(
    {*(f"R{i}" for i in range(1, 10)), "R11", "R14"}
)


def correlated_values(
    n_sensors=12,
    length=2400,
    n_communities=3,
    seed=0,
    noise=0.05,
):
    """Community-structured sensor matrix without anomalies."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    drivers = np.vstack(
        [
            np.sin(2 * np.pi * t / rng.uniform(18, 40) + rng.uniform(0, 6))
            for _ in range(n_communities)
        ]
    )
    values = np.empty((n_sensors, length))
    for i in range(n_sensors):
        c = i % n_communities
        values[i] = (
            rng.uniform(0.8, 1.2) * drivers[c] + noise * rng.standard_normal(length)
        )
    return values


def live_and_stray(directory: Path) -> tuple[list[str], list[str]]:
    """Split a directory listing into live ``ckpt-*`` names and the rest."""
    names = sorted(entry.name for entry in directory.iterdir())
    live = [
        name
        for name in names
        if name.startswith("ckpt-") and name.endswith((".npz", ".json"))
    ]
    return live, [name for name in names if name not in live]


@pytest.fixture
def toy_values():
    return correlated_values()


@pytest.fixture
def broken_series():
    """(history, test, anomaly_span, affected) with a correlation break."""
    values = correlated_values(seed=1)
    rng = np.random.default_rng(99)
    start, stop = 1700, 1950
    affected = (0, 3)
    for sensor in affected:
        span = stop - start
        values[sensor, start:stop] = (
            np.cos(np.linspace(0, 53, span)) + 0.05 * rng.standard_normal(span)
        )
    history = MultivariateTimeSeries(values[:, :1000])
    test = MultivariateTimeSeries(values[:, 1000:])
    return history, test, (start - 1000, stop - 1000), frozenset(affected)


@pytest.fixture
def toy_config():
    return CADConfig(
        window=80,
        step=8,
        k=4,
        tau=0.5,
        theta=0.2,
        rc_mode="window",
        rc_window=6,
    )
