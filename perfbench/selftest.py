"""Self-tests of the benchmark at a tiny size.

Run from the checkout root::

    python3 -m pytest -q perfbench/selftest.py

Each test runs ``perfbench/run.py`` as the benchmark contract does, with
``--tiny`` so a workload takes seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, LAYER_UNITS, WORKLOADS  # noqa: E402


def bench(workload: str, *extra: str, trace: int = 0):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None, out.stderr


def assert_metrics(result, expected: dict) -> None:
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit, name
        assert isinstance(entry["value"], float), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    code, result, err = bench(workload)
    assert code == 0, err
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert_metrics(result, END_TO_END)
    assert result["metrics"]["setup_s"]["value"] > 0
    assert result["metrics"]["info_mbps"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_response_bit_fails_the_run(workload):
    code, result, err = bench(workload, "--inject-flip")
    assert code == 1
    assert result["correct"] is False
    assert "CHECK FAILED" in err


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    code, result, err = bench(workload, trace=1)
    assert code == 0, err
    assert_metrics(result, LAYER_UNITS)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["decoder.ns_per_edge"] > 0
    assert metrics["decoder.copy_floor_ns_per_edge"] > 0
    if workload != "sweep":
        assert metrics["server.parse_us_p50"] > 0
        assert metrics["service.submit_us_p50"] > 0
    if workload == "harq":
        assert metrics["nr.combine_us_p50"] > 0
        assert metrics["nr.soft_buffers_live"] >= 1


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


def test_without_library_sources_it_fails_before_printing(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
