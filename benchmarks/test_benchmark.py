"""Tests of the benchmark itself, at smoke size (seconds, not minutes).

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_path, *args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", "--smoke",
         "--out", str(tmp_path / "out"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
        env=dict(os.environ, PYTHONPATH=""),
    )


def _traced_spans(tmp_path, cfg: dict, command: str) -> list[tuple]:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--src", str(ROOT / "src"),
         "--t0", repr(time.monotonic()), "--probe", str(tmp_path / "probe.json"),
         "--spans", str(tmp_path / "spans.json"), "--",
         command, "--config", str(cfg_path), "--output-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", SKYRME_THREADS="1"))
    probe = json.loads((tmp_path / "probe.json").read_text())
    assert probe["error"] is None, probe["error"]
    assert out.returncode in (0, 1), out.stdout
    return [tuple(s) for s in json.loads((tmp_path / "spans.json").read_text())["spans"]]


def test_tracer_counts_calls_through_every_binding(tmp_path):
    # exact counts per 3-margin spherical verify; a missed `from .x import y`
    # rebinding shows as a smaller count
    cfg = bench.make_config("verify-spherical-n48", 1, smoke=True)
    spans = _traced_spans(tmp_path, cfg, "verify")
    names = tracer.summarize(spans)["names"]
    assert names["exterior.mat_inv"]["calls"] == 37
    assert names["exterior.mat_inv"]["distinct"] == 9
    assert names["exterior.mat_det"]["calls"] == 19
    assert names["lie_target.TargetGeometry.volume"]["calls"] == 1
    assert names["solutions.build"]["calls"] == 3
    assert names["cli.run_verify"]["calls"] == 1
    by_id = {s[0]: s for s in spans}
    parents = {by_id[s[4]][1] for s in spans if s[1] == "exterior.mat_inv" and s[4] is not None}
    # mat_inv is reached through the rebinding in lie_target as well as in exterior
    assert "lie_target.TargetGeometry.sigma_dual" in parents
    assert "exterior.Metric3.inv" in parents
    pd_parents = {by_id[s[4]][1].split(".")[0] for s in spans
                  if s[1] == "grid.partial_derivative"}
    assert "gaugefield" in pd_parents


def test_sweep_spans_nest_under_run_sweep(tmp_path):
    cfg = bench.make_config("sweep-u1-n24-t1", 1, smoke=True)
    spans = _traced_spans(tmp_path, cfg, "sweep")
    summary = tracer.summarize(spans)
    names = summary["names"]
    assert names["cli.run_verify"]["calls"] == 2
    assert names["lie_target.TargetGeometry.volume"]["calls"] == 2
    assert names["lie_target.TargetGeometry.volume"]["distinct"] == 1
    top = [s[1] for s in spans if s[4] is None]
    assert sorted(top) == ["cli.run_sweep", "cli.write_outputs"]
    assert summary["sweep"]["concurrency"] == pytest.approx(1.0, abs=0.05)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "a", 0.0, 10.0, None, 1, None, None, 10.0),
        (1, "b", 1.0, 4.0, 0, 1, None, None, 4.5),  # tracer work until 4.5
        (2, "b", 3.0, 6.0, 0, 2, None, None, 6.0),  # overlaps the first child
    ]
    names = tracer.summarize(spans)["names"]
    assert names["a"]["self_s"] == pytest.approx(5.0)
    assert names["b"]["self_s"] == pytest.approx(6.0)
    assert tracer.summarize(spans)["top_level_s"] == pytest.approx(10.0)


def test_same_seed_same_config_and_ranges():
    assert bench.make_config("sweep-u1-n24-t1", 5, False) == \
        bench.make_config("sweep-u1-n24-t2", 5, False)
    for seed in range(50):
        c1 = bench.make_config("verify-spherical-n48", seed, False)["family_params"]["c1"]
        assert 0.5 <= c1 <= 2.0
        for v in bench.make_config("sweep-u1-n24-t1", seed, False)["sweep"]["values"]:
            assert 0.0 < float(v.split("*")[0]) <= 0.09


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run_prints_every_metric(tmp_path, workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = _bench(tmp_path, "--workload", workload, "--trace", str(trace))
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
        units = {m["name"]: m["unit"] for m in SPEC[group]}
        for name, m in result["metrics"].items():
            assert m["unit"] == units[name]


def test_thread_counts_give_the_same_digest(tmp_path):
    for workload in ("sweep-u1-n24-t1", "sweep-u1-n24-t2"):
        out = _bench(tmp_path, "--workload", workload)
        assert out.returncode == 0, out.stderr
    assert "threads: match with sweep-u1-n24-t1" in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench(tmp_path, "--workload", "verify-spherical-n48", cwd=tmp_path,
                 script=tmp_path / "benchmarks" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
