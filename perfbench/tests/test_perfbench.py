"""The benchmark's own tests: run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.child import run_one
from perfbench.tracer import TARGETS, Tracer

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json(declared):
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_spec(name):
    from repro.experiments.spec import ExperimentSpec

    workload = workloads.WORKLOADS[name]
    assert workload.spec(5) == workload.spec(5) != workload.spec(6)
    assert ExperimentSpec.from_dict(workload.spec(5)).seed == 5
    seeds = workloads.subseeds(workload, 5)
    assert seeds[0] == 5 and len(set(seeds)) == workload.subseeds


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_digest_untraced_and_traced(name):
    committed = workloads.committed_digests(workloads.WORKLOADS[name])[workloads.DEFAULT_SEED]
    untraced = run_one(name, workloads.DEFAULT_SEED, trace=False)
    traced = run_one(name, workloads.DEFAULT_SEED, trace=True)
    assert untraced["digest"] == committed
    assert traced["digest"] == committed
    assert traced["leftovers"] == []


def _class_attrs():
    import importlib

    from repro.sim.kernel import Simulator

    attrs = {
        (module, cls, attr): getattr(importlib.import_module(module), cls).__dict__.get(attr)
        for module, cls, attr, _ in TARGETS
    }
    for attr in ("add_trace_hook", "remove_trace_hook"):
        attrs[("repro.sim.kernel", "Simulator", attr)] = Simulator.__dict__[attr]
    return attrs


def test_tracer_restores_every_wrapped_function():
    before = _class_attrs()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="inside the traced block"):
        with tracer:
            assert len(tracer.leftovers()) == len(TARGETS) + 2
            raise RuntimeError("inside the traced block")
    assert tracer.leftovers() == []
    after = _class_attrs()
    assert all(after[key] is value for key, value in before.items())


def _run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(declared, trace, section):
    proc = _run_benchmark(
        "--workload", "service-1m", "--seed", "2", "--seconds", "1", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [metric["name"] for metric in declared[section]]
    assert list(result["metrics"]) == names
    for metric in declared[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run_benchmark(
        "--workload", "benign-20", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
