"""Tests for RunTask serialization, hashing, and the runner registry."""

import pytest

import repro
from repro.errors import FleetError
from repro.fleet.tasks import (
    RunTask,
    execute_task,
    register_runner,
    result_sim_ns,
    runner_for,
    spec_task,
)


@register_runner("tasks-test-echo")
def _echo(task):
    return {"echo": task.payload.get("value"), "sim_ns": task.payload.get("sim_ns", 0)}


class TestRunTask:
    def test_roundtrip_through_dict(self):
        task = RunTask(
            kind="spec",
            name="attack-delay/F_MINUS/10ms",
            seed=400,
            duration_ns=90_000_000_000,
            payload={
                "spec": {"name": "attack-delay/F_MINUS/10ms", "seed": 400, "duration_s": 90.0},
                "metric": {"sweep": "attack-delay", "settle_ns": 30_000_000_000},
            },
        )
        assert RunTask.from_dict(task.to_dict()) == task

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FleetError, match="unknown RunTask keys"):
            RunTask.from_dict({"kind": "spec", "name": "x", "bogus": 1})

    def test_hash_is_stable_and_content_addressed(self):
        a = RunTask(kind="spec", name="x", seed=1, payload={"p": [1, 2]})
        b = RunTask(kind="spec", name="x", seed=1, payload={"p": [1, 2]})
        assert a.content_hash() == b.content_hash()
        assert len(a.content_hash()) == 64

    def test_hash_changes_with_seed_and_payload(self):
        base = RunTask(kind="spec", name="x", seed=1, payload={"p": 1})
        assert base.content_hash() != RunTask(kind="spec", name="x", seed=2, payload={"p": 1}).content_hash()
        assert base.content_hash() != RunTask(kind="spec", name="x", seed=1, payload={"p": 2}).content_hash()

    def test_hash_salted_with_code_version(self, monkeypatch):
        task = RunTask(kind="spec", name="x")
        before = task.content_hash()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert task.content_hash() != before


class TestRegistry:
    def test_execute_dispatches_by_kind(self):
        task = RunTask(kind="tasks-test-echo", name="e", payload={"value": 7, "sim_ns": 5})
        value = execute_task(task)
        assert value == {"echo": 7, "sim_ns": 5}
        assert result_sim_ns(value) == 5

    def test_unknown_kind_raises(self):
        with pytest.raises(FleetError, match="no runner registered"):
            runner_for("not-a-kind")

    def test_builtin_kinds_registered(self):
        for kind in ("spec", "hunt-genome", "experiment"):
            assert callable(runner_for(kind))

    def test_spec_is_the_only_kind_that_runs_specs(self):
        # Every plane and every sweep point runs through the one "spec"
        # kind, not a kind of its own.
        for kind in ("service", "membership", "faults", "sweep-point"):
            with pytest.raises(FleetError, match="no runner registered"):
                runner_for(kind)

    def test_result_sim_ns_tolerates_non_dicts(self):
        assert result_sim_ns("text") == 0
        assert result_sim_ns({"sim_ns": "nope"}) == 0


class TestBuiltinRunners:
    def test_spec_runner_rejects_unknown_sweep_metric(self):
        spec = {"name": "x", "duration_s": 10, "nodes": 1}
        task = RunTask(kind="spec", name="x", payload={"spec": spec, "metric": {"sweep": "bogus"}})
        with pytest.raises(FleetError, match="unknown sweep metric"):
            execute_task(task)

    def test_spec_runner_applies_the_named_sweep_metric(self):
        spec = {
            "name": "jitter-point",
            "seed": 420,
            "duration_s": 30,
            "nodes": 1,
            "machine_wide_mean_s": None,
            "node_config": {"monitor_enabled": False},
        }
        task = spec_task(spec, metric={"sweep": "jitter"})
        assert (task.kind, task.name, task.seed) == ("spec", "jitter-point", 420)
        value = execute_task(task)
        assert set(value) == {"spec", "metrics", "sim_ns"}
        assert list(value["metrics"]) == ["error_ppm"]
        assert abs(value["metrics"]["error_ppm"]) < 1000
        assert value["sim_ns"] == 30_000_000_000

    def test_experiment_runner_rejects_unknown_experiment(self):
        task = RunTask(kind="experiment", name="x", payload={"experiment": "fig99"})
        with pytest.raises(FleetError, match="unknown experiment"):
            execute_task(task)

    def test_spec_runner_produces_rendered_table(self):
        task = RunTask(
            kind="spec",
            name="s",
            payload={
                "spec": {
                    "name": "fleet-spec-test",
                    "seed": 7,
                    "duration_s": 10,
                    "nodes": 1,
                    "machine_wide_mean_s": None,
                }
            },
        )
        value = execute_task(task)
        assert value["spec"] == "fleet-spec-test"
        assert "node-1" in value["rendered"]
        assert value["reports"] == {}  # no plane blocks, no plane reports
        assert value["sim_ns"] == 10_000_000_000

    def test_spec_runner_reports_every_attached_plane(self):
        spec = {
            "name": "fleet-planes-test",
            "seed": 13,
            "duration_s": 14,
            "nodes": 3,
            "environments": {str(i): "triad-like" for i in range(1, 4)},
            "service": {"sessions": 2000, "quorum": 3},
            "membership": {"mode": "observe"},
            "faults": {"schedule": [{"t_s": 9.0, "kind": "ta-outage", "duration_ms": 500}]},
        }
        value = execute_task(RunTask(kind="spec", name="p", payload={"spec": spec}))
        assert list(value["reports"]) == ["service", "membership", "faults"]
        assert value["reports"]["service"]["sessions"] == 2000
        assert "verdicts" in value["reports"]["membership"]
        assert value["reports"]["faults"]["faults"]
        for heading in ("service: fleet-planes-test", "membership", "verdict:"):
            assert heading in value["rendered"]
