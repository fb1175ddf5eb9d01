"""Smoke test of the benchmark: every workload at tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric ``BENCHMARK.json`` names is printed with its unit,
that the oracle check passes, that traced passes return records bitwise
equal to untraced ones, and that no span has a negative self time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYERS  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, RoundMark  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[int, dict]:
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.2",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code() -> None:
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in LAYERS.items()
    }
    for _, _, moves in LAYERS.values():
        assert set(moves["metrics"]) <= set(END_TO_END)
        assert set(moves["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_and_passes_the_oracle(workload: str, trace: int) -> None:
    code, result = _run(workload, trace)
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_is_bitwise_neutral_and_self_times_are_non_negative(
    workload: str, tmp_path: Path
) -> None:
    bench = WORKLOADS[workload](5, "tiny", tmp_path)
    untraced = bench.run_pass(RoundMark(), traced=False)
    tracer = Tracer()
    with instrument(tracer):
        traced = bench.run_pass(tracer, traced=True)
    assert traced.keys == untraced.keys
    assert traced.keys == bench.oracle()
    spans = tracer.summary()
    assert spans
    for name, entry in spans.items():
        assert entry["min_self_ns"] >= 0, name


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
