"""FaultPlan validation: strict, entry-naming, cluster-shape-aware."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.sim.units import MILLISECOND, SECOND


def _plan(raw, *, nodes=3, ta_count=1, duration_s=30.0):
    return FaultPlan.from_spec(raw, nodes=nodes, ta_count=ta_count, duration_s=duration_s)


class TestPlanShape:
    def test_empty_block_is_a_valid_empty_plan(self):
        plan = _plan({})
        assert plan.events == ()
        assert plan.last_heal_ns == 0
        assert plan.recovery_deadline_ns == 15 * SECOND

    def test_unknown_plan_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="faults: unknown keys"):
            _plan({"scedule": []})

    def test_non_dict_block_rejected(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            _plan([1, 2])

    def test_bad_deadline_rejected(self):
        with pytest.raises(ConfigurationError, match="recovery_deadline_s"):
            _plan({"recovery_deadline_s": 0})

    def test_events_sorted_by_time(self):
        plan = _plan(
            {
                "schedule": [
                    {"t_s": 9.0, "kind": "ta-outage", "duration_ms": 1000},
                    {"t_s": 2.0, "kind": "node-crash", "node": 1},
                ]
            }
        )
        assert [event.kind for event in plan.events] == ["node-crash", "ta-outage"]
        assert plan.last_heal_ns == 10 * SECOND


class TestEntryValidation:
    def test_unknown_kind_names_the_entry(self):
        with pytest.raises(ConfigurationError, match=r"faults\.schedule\[0\]: unknown kind"):
            _plan({"schedule": [{"t_s": 1.0, "kind": "meteor"}]})

    def test_missing_required_keys(self):
        with pytest.raises(ConfigurationError, match="missing keys"):
            _plan({"schedule": [{"t_s": 1.0, "kind": "node-crash"}]})

    def test_unknown_param_keys(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            _plan(
                {"schedule": [{"t_s": 1.0, "kind": "node-crash", "node": 1, "x": 2}]}
            )

    def test_crash_node_outside_cluster(self):
        with pytest.raises(ConfigurationError, match="outside cluster"):
            _plan({"schedule": [{"t_s": 1.0, "kind": "node-crash", "node": 4}]})

    def test_crash_default_down_window(self):
        plan = _plan({"schedule": [{"t_s": 1.0, "kind": "node-crash", "node": 2}]})
        assert plan.events[0].stop_ns == SECOND + int(500 * MILLISECOND)

    def test_ta_index_out_of_range(self):
        with pytest.raises(ConfigurationError, match="ta must be an index"):
            _plan(
                {"schedule": [{"t_s": 1.0, "kind": "ta-outage", "duration_ms": 10, "ta": 2}]}
            )

    def test_partition_island_must_leave_someone_outside(self):
        with pytest.raises(ConfigurationError, match="leaves nobody outside"):
            _plan(
                {
                    "schedule": [
                        {
                            "t_s": 1.0,
                            "kind": "partition",
                            "island": [1, 2, 3],
                            "duration_ms": 100,
                        }
                    ]
                }
            )

    def test_partition_island_rejects_duplicates(self):
        with pytest.raises(ConfigurationError, match="duplicate island node"):
            _plan(
                {
                    "schedule": [
                        {
                            "t_s": 1.0,
                            "kind": "partition",
                            "island": [1, 1],
                            "duration_ms": 100,
                        }
                    ]
                }
            )

    def test_loss_burst_probability_must_be_under_one(self):
        with pytest.raises(ConfigurationError, match="drop_probability"):
            _plan(
                {
                    "schedule": [
                        {
                            "t_s": 1.0,
                            "kind": "loss-burst",
                            "drop_probability": 1.0,
                            "duration_ms": 100,
                        }
                    ]
                }
            )


class TestCrossEntryChecks:
    def test_every_fault_must_heal_in_run(self):
        with pytest.raises(ConfigurationError, match="heal in-run"):
            _plan(
                {"schedule": [{"t_s": 29.5, "kind": "ta-outage", "duration_ms": 2000}]}
            )

    def test_crash_windows_on_one_node_must_not_overlap(self):
        with pytest.raises(ConfigurationError, match="while still down"):
            _plan(
                {
                    "schedule": [
                        {"t_s": 1.0, "kind": "node-crash", "node": 1, "down_ms": 2000},
                        {"t_s": 2.0, "kind": "node-crash", "node": 1},
                    ]
                }
            )

    def test_crash_windows_on_distinct_nodes_may_overlap(self):
        plan = _plan(
            {
                "schedule": [
                    {"t_s": 1.0, "kind": "node-crash", "node": 1, "down_ms": 2000},
                    {"t_s": 2.0, "kind": "node-crash", "node": 2},
                ]
            }
        )
        assert len(plan.events) == 2

    def test_duplicate_partition_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate partition name"):
            _plan(
                {
                    "schedule": [
                        {
                            "t_s": 1.0,
                            "kind": "partition",
                            "island": [1],
                            "duration_ms": 100,
                            "name": "cut",
                        },
                        {
                            "t_s": 5.0,
                            "kind": "partition",
                            "island": [2],
                            "duration_ms": 100,
                            "name": "cut",
                        },
                    ]
                }
            )

    def test_loss_bursts_must_not_overlap(self):
        with pytest.raises(ConfigurationError, match="must not overlap"):
            _plan(
                {
                    "schedule": [
                        {
                            "t_s": 1.0,
                            "kind": "loss-burst",
                            "drop_probability": 0.2,
                            "duration_ms": 3000,
                        },
                        {
                            "t_s": 2.0,
                            "kind": "loss-burst",
                            "drop_probability": 0.3,
                            "duration_ms": 100,
                        },
                    ]
                }
            )


class TestRetryOverrides:
    def test_keys_convert_to_config_units(self):
        plan = _plan(
            {
                "retry": {
                    "backoff_factor": 2.0,
                    "jitter": 0.1,
                    "backoff_s": 0.5,
                    "max_backoff_s": 4.0,
                    "calibration_backoff_ms": 200,
                    "attempt_budget": 5,
                }
            }
        )
        assert plan.retry_overrides == {
            "retry_backoff_factor": 2.0,
            "retry_jitter": 0.1,
            "ta_retry_backoff_ns": int(0.5 * SECOND),
            "retry_backoff_max_ns": 4 * SECOND,
            "calibration_retry_backoff_ns": 200 * MILLISECOND,
            "ta_fetch_attempt_budget": 5,
        }

    def test_null_attempt_budget_means_unbounded(self):
        plan = _plan({"retry": {"attempt_budget": None}})
        assert plan.retry_overrides == {"ta_fetch_attempt_budget": None}

    def test_unknown_retry_keys_rejected(self):
        with pytest.raises(ConfigurationError, match=r"faults\.retry: unknown keys"):
            _plan({"retry": {"backof_factor": 2.0}})

    def test_factor_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="backoff_factor"):
            _plan({"retry": {"backoff_factor": 0.5}})

    def test_jitter_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="jitter"):
            _plan({"retry": {"jitter": 1.5}})

    def test_cap_below_base_rejected(self):
        with pytest.raises(ConfigurationError, match="cap below the base"):
            _plan({"retry": {"backoff_s": 2.0, "max_backoff_s": 1.0}})

    def test_zero_attempt_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="attempt_budget"):
            _plan({"retry": {"attempt_budget": 0}})
