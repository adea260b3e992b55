"""Tests for :func:`repro.attacks.scheduler.at`, the timeline's scheduled process."""

import pytest

from repro.attacks.scheduler import at
from repro.errors import ConfigurationError
from repro.sim import Simulator, units


@pytest.fixture
def sim():
    return Simulator(seed=60)


class TestAt:
    def test_runs_action_at_absolute_time(self, sim):
        log = []
        at(sim, 5 * units.SECOND, lambda: log.append(sim.now))
        sim.run()
        assert log == [5 * units.SECOND]

    def test_past_time_rejected(self, sim):
        sim.timeout(units.SECOND)
        sim.run()
        with pytest.raises(ConfigurationError):
            at(sim, 0, lambda: None)

