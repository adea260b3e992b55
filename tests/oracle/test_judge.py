"""One verdict per run: :func:`repro.oracle.judge` and its three callers.

``Experiment.run``, fleet tasks (:func:`repro.fleet.tasks.execute_task`)
and the serial CLI path all judge through the same function, and a
membership quarantine excuses a node only on the oracle watching the
quarantining engine's own cluster.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.cluster import ClusterConfig, TriadCluster
from repro.errors import OracleViolationError
from repro.experiments import scenarios
from repro.fleet import RunTask, tasks
from repro.membership import MembershipVerdict, membership_policy
from repro.oracle import InvariantOracle, judge
from repro.sim import Simulator, units

from tests.oracle.test_oracle import FakeNode

DIRTY = 40_000_000  # > the membership suspect threshold (25 ms)

EXAMPLE_SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


def drifting_oracle(sim, node_name="node-1", name=""):
    """An oracle watching one node whose clock is a second ahead."""
    node = FakeNode(sim, name=node_name)
    oracle = InvariantOracle(sim, name=name)
    oracle.watch(node)
    node.clock.reading_ns = units.SECOND
    return oracle


class TestJudge:
    def test_returns_unexpected_and_names_unnamed_oracles(self):
        oracle = drifting_oracle(Simulator(seed=0))
        unexpected = judge([oracle], name="some-run", strict=False)
        assert oracle.name == "some-run"
        assert {v.key for v in unexpected} == {
            ("node-1", "drift-bound"),
            ("node-1", "state-soundness"),
        }

    def test_strict_raises_one_message_with_sorted_pairs(self):
        sim = Simulator(seed=0)
        oracles = [drifting_oracle(sim, "node-2"), drifting_oracle(sim, "node-1")]
        with pytest.raises(OracleViolationError) as excinfo:
            judge(oracles, name="some-run", strict=True)
        assert str(excinfo.value) == (
            "run 'some-run': 4 unexpected invariant violation(s): "
            "node-1/drift-bound, node-1/state-soundness, "
            "node-2/drift-bound, node-2/state-soundness"
        )
        assert len(excinfo.value.violations) == 4
        assert all(isinstance(v, dict) for v in excinfo.value.violations)

    def test_a_named_oracle_keeps_its_name(self):
        oracle = drifting_oracle(Simulator(seed=0), "node-3", name="fig4-fplus-low-aex")
        assert judge([oracle], name="other", strict=True) == []
        assert oracle.name == "fig4-fplus-low-aex"

    def test_the_first_finalize_expected_set_wins(self):
        oracle = drifting_oracle(Simulator(seed=0))
        oracle.finalize(expected={("node-1", "drift-bound"), ("node-1", "state-soundness")})
        assert judge([oracle], name="unregistered", strict=True) == []


class TestEachOracleItsOwnExcuses:
    """Cluster A's quarantine must not excuse cluster B's violations."""

    @staticmethod
    def two_clusters(task):
        cluster_a = TriadCluster(Simulator(seed=1), ClusterConfig(node_count=3))
        controller = cluster_a.membership
        for _ in range(2):
            controller.epoch += 1
            controller._transition("node-3", DIRTY)
        assert controller.verdict("node-3") is MembershipVerdict.QUARANTINED
        # Cluster B: an F+ run on node-3 with no membership engine, run
        # past Experiment.run so the task's verdict names its oracle.
        with membership_policy("off"):
            experiment = scenarios.fplus_low_aex()
        assert experiment.membership is None
        experiment.sim.run(until=30 * units.SECOND)
        return {"sim_ns": 30 * units.SECOND}

    def test_a_quarantine_excuses_only_its_own_cluster(self, monkeypatch):
        monkeypatch.setitem(tasks._RUNNERS, "two-clusters", self.two_clusters)
        task = RunTask(
            kind="two-clusters",
            name="two-clusters",
            overrides={"oracle": "strict", "membership": "enforce"},
        )
        with pytest.raises(OracleViolationError) as excinfo:
            tasks.execute_task(task)
        assert "node-3/drift-bound" in str(excinfo.value)


class TestSerialFleetParity:
    """A strict failure reads the same through run-spec and batch."""

    @pytest.fixture
    def spec_dir(self, tmp_path):
        raw = json.loads((EXAMPLE_SPECS / "faults_crash_partition.json").read_text())
        raw["faults"]["retry"] = {"attempt_budget": 2}
        directory = tmp_path / "specs"
        directory.mkdir()
        (directory / "no-retry.json").write_text(json.dumps(raw))
        return directory

    def test_run_spec_strict_fails_on_recovery(self, spec_dir, capsys):
        assert main(["run-spec", str(spec_dir / "no-retry.json"), "--oracle", "strict"]) == 1
        assert "node-3/recovery" in capsys.readouterr().err

    def test_batch_strict_fails_on_recovery(self, spec_dir, capsys):
        assert main(["batch", str(spec_dir), "--oracle", "strict", "--no-cache"]) == 1
        assert "node-3/recovery" in capsys.readouterr().out
