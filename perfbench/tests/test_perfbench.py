"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import manifest  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY_LADDER = (gen.WORKLOADS["unit-solve"]["ladder"][0],)  # n=3: solves of a few ms
TINY_SEED = 7


def tiny_run(trace: bool, expected=None) -> dict:
    return run.run_benchmark(ROOT, "unit-solve", TINY_SEED, 1, trace,
                             expected=expected, ladder=TINY_LADDER)


def assert_schema(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_smoke_run_reports_every_end_to_end_metric():
    report = tiny_run(trace=False)
    result = report["result"]
    assert_schema(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["error_rate"] == {"failed": 0, "attempted": 4, "value": 0.0}
    assert report["cmd_s_tail"] == {"percentile": 100, "samples_beyond": 0, "samples": 4}


def test_traced_smoke_run_reports_every_layer_metric():
    report = tiny_run(trace=True)
    result = report["result"]
    assert_schema(result, SPEC["per_layer"])
    assert result["correct"] and result["attempted"] == 8  # untraced and traced pass
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["lnat.iterations"] == values["lnat.select_calls"] > 0
    assert values["lnat.queries"] == values["lyapunov.value_calls"] > 0
    assert values["auction.extract_calls"] == 4
    assert values["lnat.select_s.steepest"] > 0
    assert values["lnat.lnat_check_calls"] == 0 and values["lnat.lnat_check_s"] == 0
    out_dir = os.path.join(ROOT, ".perfbench-out", f"unit-solve-seed{TINY_SEED}-trace1")
    saved = spans.read_spans(os.path.join(out_dir, "spans.bin.gz"))
    assert len(saved["start"]) == len(saved["parent"]) == values["trace.spans"]
    assert len(saved["commands"]) == 2 * 4  # (command id, first span) per command


def test_corrupted_manifest_entry_counts_toward_error_rate():
    market = gen.plan("unit-solve", TINY_SEED, 1, TINY_LADDER)[0]["id"]
    expected = copy.deepcopy(manifest.load())
    entry = expected["entries"][f"{market} solve --strategy steepest"]
    entry["p_final"][0] += 1
    report = tiny_run(trace=False, expected=expected)
    assert report["result"]["failed"] == 1 and not report["result"]["correct"]
    assert report["error_rate"] == {"failed": 1, "attempted": 4, "value": 0.25}
    assert "expected" in report["failures"][0]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(100)]) == (90, 89.0, 10)
    assert run.tail([float(x) for x in range(11)]) == (9, 0.0, 10)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
