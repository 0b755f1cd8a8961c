"""Smoke tests of the benchmark harness at tiny input sizes."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import worker
import workloads
from qdmfluor import parse_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _result(*argv: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_default_config_copy_matches_repository_config():
    shipped = (ROOT / "configs" / "default.cfg").read_text()
    assert parse_config(workloads.DEFAULT_CFG) == parse_config(shipped)


def test_inputs_depend_only_on_seed():
    size = workloads.SIZES["full"]
    assert workloads.cli_configs(5, size) == workloads.cli_configs(5, size)
    assert workloads.cli_configs(5, size) != workloads.cli_configs(6, size)
    assert workloads.sweep_points(5, 4) == workloads.sweep_points(5, 4)
    field_tuned = [c for c in workloads.cli_configs(5, size) if "field_kv_per_cm" in c]
    assert len(field_tuned) == size["configs"] // 4
    for cfg in workloads.cli_configs(5, size):
        parse_config(workloads.config_text(cfg))


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_small_run_reports_every_metric(trace, names):
    result = _result("--workload", "sweep-study", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "small")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def _corrupt_after(op: workloads.Op, path: Path, old: bytes, new: bytes) -> workloads.Op:
    def run_then_corrupt():
        code = op.run()
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        return code

    return dataclasses.replace(op, run=run_then_corrupt)


def test_corrupted_output_counts_as_failed(tmp_path):
    ops = workloads.build("cli-batch", 1, "small", tmp_path)
    tally = worker.Tally()
    worker.run_iteration(ops, {}, tally)
    assert (tally.failed, tally.attempted) == (0, len(ops))

    # Second iteration: a changed luminosity in one transitions table, and a
    # spectrum whose header ran into its first row.  Outputs that passed
    # before must not hide a corrupted one.
    bad = list(ops)
    t = next(k for k, op in enumerate(ops) if op.name == "cli.transitions")
    s = next(k for k, op in enumerate(ops) if op.name == "cli.spectrum")
    trans_csv = ops[t].files_out[0]
    lum = trans_csv.read_text().splitlines()[1].split(",")[4]
    bad[t] = _corrupt_after(ops[t], trans_csv, f",{lum},".encode(), f",{float(lum) * 2!r},".encode())
    bad[s] = _corrupt_after(ops[s], ops[s].files_out[0], b"\n", b"")
    worker.run_iteration(bad, {}, tally)
    assert (tally.failed, tally.attempted) == (2, 2 * len(ops))
    assert run.failed_ratio(tally.failed, tally.attempted) == 2 / (2 * len(ops))


def test_digest_mismatch_counts_as_failed(tmp_path):
    ops = workloads.build("map-render", 1, "small", tmp_path)
    tally = worker.Tally()
    worker.run_iteration(ops, {"map.csv": "0" * 64}, tally)
    assert (tally.failed, tally.attempted) == (1, 3)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        (1, "sweep.intensity_map", 0.0, 10.0, 0, 1),
        (2, "core.diagonalize", 1.0, 4.0, 1, 1),  # two pool threads overlap
        (3, "core.diagonalize", 2.0, 5.0, 1, 1),
        (4, "spectrum.synthesize", 7.0, 8.0, 1, 1),
    ]
    selfs = layers.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == 3.0


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-batch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
