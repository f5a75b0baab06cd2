"""Tiny-scale smoke of the benchmark harness and its three workloads.

Runs every workload at a few percent of its benchmark size, in-process,
through the same pass measurement and metric assembly the benchmark
uses, traced and untraced::

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import shutil
import subprocess
import sys

import pytest

from perfbench import measure, run, tracing, workloads
from repro.cloud.orchestrator import Orchestrator
from repro.simtime.scheduler import EventScheduler

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]


class TinyBenchmark(run.Benchmark):
    """The harness with passes run in-process at tiny scale."""

    traced_record: dict | None = None

    def spawn(self, mode: str, traced: bool = False) -> dict:
        if mode == "setup":
            return {"setup_s": 0.5}
        workload, _ = workloads.WORKLOADS[self.args.workload]
        inputs = workload.prepare(
            self.args.seed, workloads.TINY_SCALES[self.args.workload]
        )
        record = measure.measure_pass(workload, inputs, traced, PER_LAYER)
        record.update(setup_s=0.5, peak_rss_mb=100.0)
        if traced:
            self.traced_record = record
        return record

    def expected_ops(self):
        return None  # recorded digests are for the benchmark-size inputs


def _run_tiny(workload: str, trace: int, tmp_path) -> tuple[dict, TinyBenchmark]:
    args = argparse.Namespace(
        workload=workload, seed=3, seconds=0.0, trace=trace, record=False
    )
    bench = TinyBenchmark(args, str(tmp_path))
    return bench.run(), bench


def test_layer_map_covers_every_per_layer_metric_once():
    mapped = [name for layer in LAYERS for name in layer["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER)
    workload_names = {w["name"] for w in SPEC["workloads"]}
    assert workload_names == set(run.WORKLOAD_NAMES)
    e2e = {m["name"] for m in SPEC["end_to_end"]} | set(run.UNGATED)
    for layer in LAYERS:
        assert set(layer["most"]) | set(layer["least"]) <= workload_names
        assert set(layer["should_move"]) <= e2e


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_end_to_end_and_traced(workload, tmp_path):
    result, _ = _run_tiny(workload, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name

    originals = (Orchestrator.connect, EventScheduler.call_at)
    result, bench = _run_tiny(workload, 1, tmp_path)
    # Traced and untraced passes agree on every digest (else "failed").
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    # The wrappers are gone once the traced pass is over.
    assert (Orchestrator.connect, EventScheduler.call_at) == originals

    traced = bench.traced_record
    own = [span[4] for span in traced["spans"]]
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(traced["wall_s"], rel=1e-9)
    unattributed = result["metrics"]["unattributed_s"]["value"]
    named = sum(s[4] for s in traced["spans"] if s[0] != "pass")
    assert named + unattributed == pytest.approx(traced["wall_s"], rel=1e-9)
    for name in PER_LAYER:
        if name.endswith("self_s"):
            assert result["metrics"][name]["value"] >= -1e-9, name


def test_check_flags_digest_changes(tmp_path):
    args = argparse.Namespace(workload="verify", seed=3, trace=0, record=False)
    bench = run.Benchmark(args, str(tmp_path))
    first = {"traced": False, "ops": {"rng": ["a", None], "bus": ["b", None]}}
    second = {"traced": False, "ops": {"rng": ["a", None], "bus": ["c", None]}}
    traced = {"traced": True, "ops": {"rng": ["a", "FMI 0.5 below 0.99"], "bus": ["b", None]}}
    attempted, problems = bench.check([first, second, traced])
    assert attempted == 6
    assert problems == [
        "pass 2 bus: digest differs from pass 1",
        "traced pass rng: FMI 0.5 below 0.99",
    ]


def test_traced_callback_survives_pickling():
    callback = tracing.TracedCallback(print, "simtime.callback.builtins")
    clone = pickle.loads(pickle.dumps(callback))
    assert (clone.action, clone.name) == (print, callback.name)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
