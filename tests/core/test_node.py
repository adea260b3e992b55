"""Tests for the Triad node protocol: calibration, taint, untaint, serving."""

import pytest

from repro.core.node import NodeUnavailable
from repro.core.states import NodeState
from repro.sim import units

from tests.core.conftest import build_cluster


class TestInitialCalibration:
    def test_nodes_reach_ok_after_full_calibration(self, quiet_cluster):
        sim, cluster = quiet_cluster
        for node in cluster.nodes:
            assert node.state is NodeState.OK
            assert node.clock.calibrated

    def test_exactly_one_full_calibration_without_faults(self, quiet_cluster):
        sim, cluster = quiet_cluster
        for node in cluster.nodes:
            assert node.timeline.count_stays(NodeState.FULL_CALIB) == 1
            assert len(node.stats.full_calibrations) == 1

    def test_constant_delay_calibration_is_exact(self, quiet_cluster):
        """With zero jitter the regression recovers F_tsc exactly."""
        sim, cluster = quiet_cluster
        true_frequency = cluster.machine.tsc.frequency_hz
        for node in cluster.nodes:
            # Sub-ppm accuracy (integer TSC reads leave ~ns quantization).
            assert node.stats.latest_frequency_hz == pytest.approx(true_frequency, rel=1e-7)

    def test_initial_ta_reference_adopted(self, quiet_cluster):
        sim, cluster = quiet_cluster
        for node in cluster.nodes:
            assert node.stats.ta_references == 1
            assert abs(node.drift_ns()) < units.MILLISECOND


class TestServing:
    def test_get_timestamp_when_ok(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        timestamp = node.get_timestamp()
        assert abs(timestamp - sim.now) < units.MILLISECOND
        assert node.stats.timestamps_served == 1

    def test_timestamps_strictly_monotonic(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        first = node.get_timestamp()
        second = node.get_timestamp()
        assert second > first

    def test_unavailable_while_tainted(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        cluster.monitoring_port(1).fire("test-aex")
        assert node.state is NodeState.TAINTED
        with pytest.raises(NodeUnavailable):
            node.get_timestamp()
        assert node.try_get_timestamp() is None


class TestAexHandling:
    def test_aex_taints_node(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        cluster.monitoring_port(1).fire("test-aex")
        assert node.clock.tainted
        assert node.stats.aex_count == 1

    def test_aex_on_other_core_does_not_taint(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        cluster.machine.port(10).fire("elsewhere")
        assert not node.clock.tainted

    def test_peer_untaint_after_aex(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        cluster.monitoring_port(1).fire("test-aex")
        sim.run(until=sim.now + units.SECOND)
        assert node.state is NodeState.OK
        assert node.stats.peer_untaints == 1
        assert node.stats.ta_references == 1  # no extra TA contact

    def test_simultaneous_aex_forces_ta_refcalib(self, quiet_cluster):
        """All peers tainted at once: nobody answers, the TA must."""
        sim, cluster = quiet_cluster
        for index in (1, 2, 3):
            cluster.monitoring_port(index).fire("correlated")
        sim.run(until=sim.now + units.SECOND)
        for node in cluster.nodes:
            assert node.state is NodeState.OK
            assert node.stats.ta_references == 2  # initial + this refcalib
            assert node.stats.peer_untaints == 0

    def test_tainted_node_does_not_answer_peers(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node2 = cluster.node(2)
        # Taint node 2, then node 1: node 1 should only hear from node 3.
        cluster.monitoring_port(2).fire("first")
        cluster.monitoring_port(1).fire("second")
        sim.run(until=sim.now + units.SECOND)
        assert node2.stats.peer_requests_ignored_tainted >= 1

    def test_repeated_aexs_handled(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        for _ in range(5):
            cluster.monitoring_port(1).fire("again")
            sim.run(until=sim.now + units.SECOND)
        assert node.state is NodeState.OK
        assert node.stats.peer_untaints == 5


class TestMonitorIntegration:
    def test_tsc_scale_attack_triggers_full_recalibration(self):
        sim, cluster = build_cluster(seed=21)
        sim.run(until=5 * units.SECOND)
        node = cluster.node(1)
        assert len(node.stats.full_calibrations) == 1
        cluster.machine.tsc.set_scale(1.05)
        sim.run(until=sim.now + 20 * units.SECOND)
        assert node.stats.monitor_alerts >= 1
        assert len(node.stats.full_calibrations) >= 2

    def test_monitor_silent_without_manipulation(self, quiet_cluster):
        sim, cluster = quiet_cluster
        sim.run(until=sim.now + 30 * units.SECOND)
        for node in cluster.nodes:
            assert node.stats.monitor_alerts == 0


class TestCalibrationRobustness:
    def test_aex_during_calibration_discards_sample(self):
        sim, cluster = build_cluster(seed=22)
        node = cluster.node(1)

        def disturber():
            # Fire AEXs early enough to land inside calibration exchanges
            # (monitor calibration takes ~20 ms, each exchange ~100 ms).
            for _ in range(3):
                yield sim.timeout(40 * units.MILLISECOND)
                cluster.monitoring_port(1).fire("calib-disturb")

        sim.process(disturber())
        sim.run(until=10 * units.SECOND)
        assert node.stats.calibration_samples_discarded >= 1
        assert node.clock.calibrated  # calibration still completed

    def test_node_identity_helpers(self, quiet_cluster):
        sim, cluster = quiet_cluster
        node = cluster.node(1)
        assert node.name == "node-1"
        assert sorted(node.peer_names) == ["node-2", "node-3"]


@pytest.mark.xfail(
    strict=True,
    reason="a restarted node drops the first authenticated envelope after its "
    "crash, kept for byte-identical outputs (ROADMAP: quarantined repairers)",
)
def test_restarted_node_handles_its_first_reply():
    """After a crash-restart, the first TA reply of the cold FullCalib is
    lost, so one calibration sample times out with nothing disturbing it."""
    sim, cluster = build_cluster(seed=20)
    sim.run(until=5 * units.SECOND)
    node = cluster.node(1)
    assert node.stats.calibration_samples_discarded == 0
    cluster.crash_node(1)
    sim.run(until=6 * units.SECOND)
    cluster.restart_node(1)
    sim.run(until=10 * units.SECOND)
    assert node.state is NodeState.OK
    assert node.stats.calibration_samples_discarded == 0
