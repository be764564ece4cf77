"""Each BENCH_<n>.json at the repository root records one whole benchmark
run: every end-to-end metric of every workload that BENCHMARK.json
declares, with its unit, from a run whose outputs were correct."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_holds_every_end_to_end_metric_of_a_correct_run(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{bench['pr']}.json"
    assert bench["parent"] and bench["command"] and bench["host"]
    result = json.loads(bench["result"])
    assert result["correct"] is True
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            entry = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
