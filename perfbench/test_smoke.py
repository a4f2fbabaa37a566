"""Smoke tests of the benchmark: every workload at a tiny size.

They check the result schema against BENCHMARK.json, that the count-valued
fields repeat exactly under one seed, and that the benchmark refuses to run
without a source tree.  They set no timing bounds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from perfbench.inputs import WORKLOADS
from perfbench.measure import run_workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 64
#: metrics that are exact counts and so repeat bit for bit under one seed
DETERMINISTIC = {
    0: ("overhead_pct",),
    1: ("termination.share_ratio", "termination.extra_bits_mean",
        "termination.renorm_ratio", "sizeindex.bits_per_entry",
        "container.header_bytes", "rangecoder.stream_bytes",
        "bench.replay_steps"),
}


def _run(name: str, trace: int, out_dir: Path) -> dict:
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    return run_workload(WORKLOADS[name].scaled(SCALE), seed=5, seconds=0.0,
                        trace=bool(trace), units=units, root=ROOT,
                        out_dir=out_dir, t_start=perf_counter())


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_schema_and_determinism(name, trace, tmp_path):
    first = _run(name, trace, tmp_path)
    second = _run(name, trace, tmp_path)
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in metrics}
    for key in DETERMINISTIC[trace]:
        assert first["metrics"][key] == second["metrics"][key], key
    record = json.loads(
        (tmp_path / f"{name}_seed5_trace{trace}.json").read_text())
    assert record["machine"]["nproc"] >= 1
    if trace:
        assert record["spans"] and record["layer_table"]


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bits-8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
