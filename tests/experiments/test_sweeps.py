"""Tests for parameter-sweep utilities (small, fast configurations)."""

import pytest

from repro.attacks.delay import AttackMode
from repro.experiments.sweeps import (
    SweepPoint,
    aex_rate_sweep,
    attack_delay_sweep,
    cluster_size_sweep,
    jitter_sweep,
)
from repro.sim.units import MILLISECOND, MINUTE, SECOND


class TestSweepPoint:
    def test_row_extraction(self):
        point = SweepPoint(parameter="x", value=2.0, metrics={"a": 1.0, "b": 2.0})
        assert point.row(["b", "a"]) == [2.0, 2.0, 1.0]

    def test_missing_metric_is_nan(self):
        import math

        point = SweepPoint(parameter="x", value=1.0)
        assert math.isnan(point.row(["missing"])[1])


class TestAttackDelaySweep:
    def test_fplus_skews_match_prediction(self):
        points = attack_delay_sweep(
            AttackMode.F_PLUS,
            delays_ns=(50 * MILLISECOND,),
            settle_ns=20 * SECOND,
            measure_ns=20 * SECOND,
        )
        assert len(points) == 1
        point = points[0]
        assert point.metrics["skew_measured"] == pytest.approx(
            point.metrics["skew_predicted"], rel=5e-3
        )
        assert point.metrics["drift_ms_per_s"] < 0


class TestJitterSweep:
    def test_error_grows_with_jitter(self):
        points = jitter_sweep(sigmas=(0.05, 0.7), seeds=(500, 501, 502))
        assert points[0].metrics["mean_abs_error_ppm"] < points[1].metrics[
            "mean_abs_error_ppm"
        ]


class TestClusterSizeSweep:
    def test_three_node_point_fully_infected(self):
        points = cluster_size_sweep(sizes=(3,), duration_ns=2 * MINUTE)
        assert points[0].metrics["infected_fraction"] == 1.0


class TestAexRateSweep:
    def test_availability_ordering(self):
        points = aex_rate_sweep(
            mean_delays_ns=(SECOND, 30 * SECOND), duration_ns=MINUTE
        )
        assert points[0].metrics["availability"] <= points[1].metrics["availability"]
        assert points[0].metrics["aex_count"] > points[1].metrics["aex_count"]


def _default_grid_specs():
    from repro.experiments import sweeps

    grids = [
        sweeps.attack_delay_grid(mode) for mode in (AttackMode.F_PLUS, AttackMode.F_MINUS)
    ] + [sweeps.jitter_grid(), sweeps.cluster_size_grid(), sweeps.aex_rate_grid()]
    return [task.payload["spec"] for grid in grids for point in grid for task in point.tasks]


class TestGridSpecs:
    def test_default_grids_are_spec_tasks_naming_their_metric(self):
        from repro.experiments.sweeps import METRICS, jitter_grid

        points = jitter_grid()
        assert [len(point.tasks) for point in points] == [8] * 4
        for task in points[0].tasks:
            assert task.kind == "spec"
            assert task.payload["metric"] == {"sweep": "jitter"}
            assert task.payload["metric"]["sweep"] in METRICS

    @pytest.mark.parametrize("raw", _default_grid_specs(), ids=lambda raw: raw["name"])
    def test_every_default_point_round_trips_and_builds(self, raw):
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec.from_dict(raw)
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        restored.build()
