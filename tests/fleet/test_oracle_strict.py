"""Oracle integration with the fleet: violations cross worker boundaries.

The oracle mode rides in ``task.overrides["oracle"]`` (part of the task
content, so it pickles into workers and keys the result cache). These
tests pin the contract end to end:

* warn mode attaches violation records to the task's result value and
  :class:`TaskResult`;
* strict mode fails the task — and therefore the batch — when a
  violation falls outside the expected set, without burning retries
  (oracle violations are deterministic re-runs);
* the behaviour is identical in-process (``jobs=1``) and across worker
  processes (``jobs=2``), which exercises
  :class:`~repro.errors.OracleViolationError` pickling.
"""

import pytest

from repro.errors import OracleViolationError
from repro.experiments.sweeps import attack_delay_grid
from repro.fleet import FleetPool, FleetTelemetry
from repro.fleet.tasks import execute_task, spec_task
from repro.sim.units import MILLISECOND


def attack_point_task(oracle_mode):
    """The F- 50 ms attack-delay sweep point — guaranteed violations, all
    allowed by its attack timeline (strict passes)."""
    [point] = attack_delay_grid("F_MINUS", delays_ns=(50 * MILLISECOND,))
    [task] = point.tasks
    task.overrides["oracle"] = oracle_mode
    return task


def rogue_task(oracle_mode):
    """A spec with no attack whose violations no timeline allows: the
    mean-only estimator books a 40 ms roundtrip as sleep time, so every
    node calibrates a slow clock and breaks its drift bound."""
    task = spec_task(
        {
            "name": "rogue-point",
            "seed": 400,
            "duration_s": 30,
            "machine_wide_mean_s": None,
            "link_delay": {"model": "constant", "delay_us": 20_000},
            "node_config": {"calibrator": "mean-only"},
        }
    )
    task.overrides["oracle"] = oracle_mode
    return task


class TestExecuteTask:
    def test_warn_mode_attaches_violations_to_value(self):
        value = execute_task(rogue_task("warn"))
        assert value["violations"], "the slow clocks must violate invariants"
        invariants = {v["invariant"] for v in value["violations"]}
        assert "drift-bound" in invariants

    def test_fminus_attack_delay_point_violates_only_on_its_victim(self):
        # The timeline's F- allowance includes the cascade wildcard, but
        # this point's honest nodes see no AEXs and so never adopt the
        # victim's clock: every violation it produces is node-3's.
        value = execute_task(attack_point_task("warn"))
        assert value["violations"]
        assert {v["node"] for v in value["violations"]} == {"node-3"}

    def test_strict_mode_raises_on_unexpected(self):
        with pytest.raises(OracleViolationError) as excinfo:
            execute_task(rogue_task("strict"))
        assert "unexpected" in str(excinfo.value)
        assert excinfo.value.violations  # records travel with the error

    def test_strict_mode_passes_when_expected(self):
        value = execute_task(attack_point_task("strict"))
        assert value["violations"]  # observed, but allowed

    def test_off_mode_adds_nothing(self):
        assert "violations" not in execute_task(rogue_task("off"))

    def test_error_pickles_with_violations(self):
        import pickle

        error = OracleViolationError("boom", violations=[{"invariant": "drift-bound"}])
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == "boom"
        assert clone.violations == [{"invariant": "drift-bound"}]


class TestPoolStrict:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_violation_fails_the_batch_without_retry(self, jobs):
        tasks = [
            attack_point_task("strict"),  # expected: ok
            rogue_task("strict"),  # unexpected: fails
        ]
        telemetry = FleetTelemetry()
        results = FleetPool(jobs=jobs, retries=2).run(tasks, telemetry=telemetry)

        assert results[0].ok
        assert results[0].violations  # surfaced on the TaskResult
        assert not results[1].ok
        assert "OracleViolationError" in results[1].error
        assert results[1].attempts == 1, "deterministic failures must not retry"
        assert results[1].violations
        assert telemetry.retries == 0
        assert not all(result.ok for result in results)  # batch-level failure

    def test_warn_mode_keeps_batch_green_but_counts(self):
        tasks = [rogue_task("warn")]
        telemetry = FleetTelemetry()
        results = FleetPool(jobs=1).run(tasks, telemetry=telemetry)
        assert results[0].ok
        assert results[0].violations
        assert telemetry.violations == len(results[0].violations)
        assert "oracle violation" in telemetry.render_summary()

    def test_violations_survive_the_result_cache(self, tmp_path):
        from repro.fleet import ResultCache

        cache = ResultCache(tmp_path)
        task = attack_point_task("warn")
        pool = FleetPool(jobs=1)
        first = pool.run([task], cache=cache)[0]
        second = pool.run([task], cache=cache)[0]
        assert second.from_cache
        assert second.violations == first.violations
