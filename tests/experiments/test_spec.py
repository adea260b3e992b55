"""Tests for declarative experiment specifications."""

from pathlib import Path

import pytest

from repro.attacks.delay import CalibrationDelayAttacker
from repro.attacks.timeline import TimedEvent, expected_violations
from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentSpec
from repro.hardened.node import HardenedTriadNode
from repro.sim import units

EXAMPLE_SPECS = sorted((Path(__file__).resolve().parents[2] / "examples" / "specs").glob("*.json"))


def minimal_spec(**overrides):
    raw = {
        "name": "test-spec",
        "seed": 900,
        "duration_s": 30,
        "nodes": 3,
        "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
        "machine_wide_mean_s": None,
    }
    raw.update(overrides)
    return ExperimentSpec.from_dict(raw)


class TestValidation:
    def test_minimal_spec_valid(self):
        spec = minimal_spec()
        assert spec.protocol == "original"
        assert spec.duration_ns == 30 * units.SECOND

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown spec keys"):
            ExperimentSpec.from_dict({"name": "x", "sneed": 1})

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_spec(protocol="quantum")

    def test_unknown_environment_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_spec(environments={"1": "zero-gravity"})

    def test_environment_for_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_spec(environments={"7": "triad-like"})

    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown attack type"):
            minimal_spec(attacks=[{"type": "teleport"}])

    def test_attack_missing_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="missing keys"):
            minimal_spec(attacks=[{"type": "fminus"}])

    def test_attack_victim_outside_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match=r"attacks\[0\]: victim=9 outside cluster"):
            minimal_spec(attacks=[{"type": "fminus", "victim": 9}])

    def test_attack_victim_must_be_an_integer(self):
        with pytest.raises(ConfigurationError, match=r"attacks\[0\]: victim must be an integer"):
            minimal_spec(attacks=[{"type": "fplus", "victim": "x"}])

    def test_attack_nodes_outside_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match=r"attacks\[1\]: nodes=7 outside cluster"):
            minimal_spec(
                attacks=[
                    {"type": "fminus", "victim": 3},
                    {"type": "aex-onset", "nodes": [1, 7], "at_s": 3},
                ]
            )

    def test_non_numeric_attack_param_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"attacks\[0\]: offset_ticks must be a number"
        ):
            minimal_spec(attacks=[{"type": "tsc-offset", "offset_ticks": "x", "at_s": 1}])

    def test_unknown_attack_keys_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"attacks\[0\]: fminus has unknown keys \['delay'\]"
        ):
            minimal_spec(attacks=[{"type": "fminus", "victim": 3, "delay": 50}])

    def test_attack_values_checked_at_construction(self):
        with pytest.raises(ConfigurationError, match=r"attacks\[0\]: delay_ms must be positive"):
            minimal_spec(attacks=[{"type": "fplus", "victim": 3, "delay_ms": 0}])
        with pytest.raises(ConfigurationError, match=r"attacks\[1\]: stop_s must be after"):
            minimal_spec(
                attacks=[
                    {"type": "fplus", "victim": 3},
                    {"type": "ta-blackhole", "start_s": 10, "stop_s": 5},
                ]
            )
        with pytest.raises(
            ConfigurationError, match=r"attacks\[0\]: at_s must be a non-negative number"
        ):
            minimal_spec(attacks=[{"type": "aex-onset", "nodes": [1], "at_s": -3}])
        with pytest.raises(ConfigurationError, match=r"attacks\[0\]: offset_ticks must be non-zero"):
            minimal_spec(attacks=[{"type": "tsc-offset", "offset_ticks": 0, "at_s": 1}])
        with pytest.raises(ConfigurationError, match=r"attacks\[0\]: victims must be a non-empty"):
            minimal_spec(attacks=[{"type": "ta-blackhole", "victims": []}])

    def test_fractional_attack_delay_is_kept(self):
        spec = minimal_spec(attacks=[{"type": "fminus", "victim": 3, "delay_ms": 1.5}])
        (event,) = spec.timeline()
        assert event.params["delay_ns"] == 1_500_000
        assert spec.build().attackers[0].added_delay_ns == 1_500_000

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            ExperimentSpec.from_json("{nope")
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_json("[1, 2]")


class TestAttackTimeline:
    """Each ``attacks`` type pins the timeline events it compiles to.

    ``t_ns=None`` acts at build time; pairs are the expected violations.
    """

    VICTIM3 = {("node-3", "drift-bound"), ("node-3", "state-soundness")}
    CASCADE = {("*", "drift-bound"), ("*", "state-soundness"), ("*", "untaint-safety")}

    CASES = {
        "fplus": (
            {"type": "fplus", "victim": 3},
            [TimedEvent(None, "net-delay", {"victim": 3, "mode": "fplus", "delay_ns": 100_000_000})],
            VICTIM3,
        ),
        "fminus": (
            {"type": "fminus", "victim": 3, "delay_ms": 50},
            [TimedEvent(None, "net-delay", {"victim": 3, "mode": "fminus", "delay_ns": 50_000_000})],
            VICTIM3 | CASCADE,
        ),
        "ta-blackhole": (
            {"type": "ta-blackhole", "start_s": 5, "stop_s": 10, "victims": [2]},
            [TimedEvent(5 * units.SECOND, "ta-blackhole", {"victims": [2]}, 10 * units.SECOND)],
            {("*", "freshness")},
        ),
        "tsc-scale": (
            {"type": "tsc-scale", "scale": 1.05, "at_s": 6},
            [TimedEvent(6 * units.SECOND, "tsc-scale", {"victim": 1, "scale": 1.05})],
            CASCADE,
        ),
        "tsc-offset": (
            {"type": "tsc-offset", "offset_ticks": -500, "at_s": 2.5, "victim": 2},
            [TimedEvent(2_500_000_000, "tsc-offset", {"victim": 2, "offset_ticks": -500})],
            CASCADE,
        ),
        "aex-onset": (
            {"type": "aex-onset", "nodes": [1, 2], "at_s": 20},
            [
                TimedEvent(None, "aex-suppress", {"node": 1}, 20 * units.SECOND),
                TimedEvent(None, "aex-suppress", {"node": 2}, 20 * units.SECOND),
            ],
            set(),
        ),
        "aex-suppress": (
            {"type": "aex-suppress", "nodes": [2]},
            [TimedEvent(None, "aex-suppress", {"node": 2})],
            set(),
        ),
    }

    def test_every_attack_type_is_pinned(self):
        from repro.experiments.spec import ATTACK_TYPES

        assert set(self.CASES) == set(ATTACK_TYPES)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_attack_compiles_to_its_events(self, kind):
        attack, events, pairs = self.CASES[kind]
        spec = minimal_spec(attacks=[attack])
        assert list(spec.timeline()) == events
        assert expected_violations(events) == pairs
        assert spec.build().expected_violations == pairs

    def test_timeline_order_is_attacks_schedule_churn(self):
        spec = minimal_spec(
            attacks=[{"type": "fplus", "victim": 3}],
            schedule=[_entry(t_ns=0)],
            churn={"schedule": [{"t_s": 2.0, "node": 2, "action": "leave"}]},
        )
        assert [event.kind for event in spec.timeline()] == ["net-delay", "tsc-offset", "leave"]
        assert [event.t_ns for event in spec.timeline()] == [None, 0, 2 * units.SECOND]


@pytest.mark.parametrize("path", EXAMPLE_SPECS, ids=lambda path: path.stem)
def test_example_spec_loads_and_builds(path):
    spec = ExperimentSpec.load(path)
    experiment = spec.build()
    assert experiment.name == spec.name
    assert ExperimentSpec.from_json(spec.to_json()) == spec


class TestSerialization:
    def test_json_round_trip(self):
        spec = minimal_spec(
            protocol="hardened",
            attacks=[{"type": "fminus", "victim": 3, "delay_ms": 50}],
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec

    def test_json_round_trip_with_every_block(self):
        spec = minimal_spec(
            nodes=4,
            environments={str(i): "triad-like" for i in range(1, 5)},
            service={"sessions": 1000, "quorum": 3},
            membership={"mode": "enforce", "epoch_s": 1.0},
            churn={"absent": [4], "schedule": [{"t_s": 2.0, "node": 4, "action": "join"}]},
            faults={
                "schedule": [{"t_s": 12.0, "kind": "node-crash", "node": 2}],
                "recovery_deadline_s": 10.0,
            },
        )
        text = spec.to_json()
        restored = ExperimentSpec.from_json(text)
        assert restored == spec
        assert restored.to_json() == text

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(minimal_spec().to_json())
        assert ExperimentSpec.load(path).name == "test-spec"


class TestExecution:
    def test_fault_free_spec_runs(self):
        experiment = minimal_spec().run()
        assert experiment.duration_ns == 30 * units.SECOND
        for index in (1, 2, 3):
            assert experiment.node(index).clock.calibrated

    def test_hardened_protocol_selected(self):
        spec = minimal_spec(protocol="hardened", duration_s=10)
        experiment = spec.run()
        assert all(isinstance(node, HardenedTriadNode) for node in experiment.cluster.nodes)

    def test_fminus_attack_applied(self):
        spec = minimal_spec(
            duration_s=60,
            attacks=[{"type": "fminus", "victim": 3, "delay_ms": 100}],
        )
        experiment = spec.run()
        assert len(experiment.attackers) == 1
        assert isinstance(experiment.attackers[0], CalibrationDelayAttacker)
        skew = (
            experiment.node(3).stats.latest_frequency_hz
            / experiment.cluster.machine.tsc.frequency_hz
        )
        assert skew == pytest.approx(0.9, rel=1e-2)

    def test_aex_onset_attack_applied(self):
        spec = minimal_spec(
            duration_s=40,
            attacks=[{"type": "aex-onset", "nodes": [1, 2], "at_s": 20}],
        )
        experiment = spec.run()
        # Nodes 1, 2 had no AEXs before t=20s; node 3 throughout.
        for index in (1, 2):
            times = experiment.node(index).stats.aex_times_ns
            assert all(t >= 20 * units.SECOND for t in times)
        assert any(
            t < 20 * units.SECOND for t in experiment.node(3).stats.aex_times_ns
        )

    def test_aex_onset_requires_triad_like_environment(self):
        spec = minimal_spec(
            environments={"1": "low-aex", "2": "triad-like", "3": "triad-like"},
            attacks=[{"type": "aex-onset", "nodes": [1], "at_s": 5}],
        )
        with pytest.raises(ConfigurationError, match="no AEX source"):
            spec.build()

    def test_ta_blackhole_spec(self):
        spec = minimal_spec(
            duration_s=30,
            attacks=[{"type": "ta-blackhole", "start_s": 5, "stop_s": 10}],
        )
        experiment = spec.run()
        assert experiment.attackers

    def test_multi_ta_spec(self):
        spec = minimal_spec(ta_count=3, duration_s=10)
        experiment = spec.build()
        assert len(experiment.cluster.tas) == 3


def _entry(**overrides):
    entry = {
        "t_ns": 500_000_000,
        "primitive": "tsc-offset",
        "params": {"offset_ticks": -150_000_000, "victim": 1},
    }
    entry.update(overrides)
    return entry


class TestScheduleValidation:
    def test_valid_schedule_accepted(self):
        spec = minimal_spec(schedule=[_entry()])
        assert spec.schedule[0]["primitive"] == "tsc-offset"

    def test_errors_name_the_offending_entry_index(self):
        with pytest.raises(ConfigurationError, match=r"schedule\[1\]"):
            minimal_spec(schedule=[_entry(), {"t_ns": 1, "primitive": "warp"}])

    def test_non_dict_entry_rejected(self):
        with pytest.raises(ConfigurationError, match=r"schedule\[0\].*object"):
            minimal_spec(schedule=["tsc-offset"])

    def test_unknown_entry_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys.*when"):
            minimal_spec(schedule=[_entry(when=3)])

    def test_missing_t_ns_rejected(self):
        with pytest.raises(ConfigurationError, match="missing keys.*t_ns"):
            minimal_spec(schedule=[{"primitive": "ta-blackhole"}])

    def test_negative_or_bool_t_ns_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            minimal_spec(schedule=[_entry(t_ns=-1)])
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            minimal_spec(schedule=[_entry(t_ns=True)])

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown primitive 'warp'"):
            minimal_spec(schedule=[_entry(primitive="warp")])

    def test_missing_required_params_rejected(self):
        with pytest.raises(ConfigurationError, match=r"aex-flood params missing.*mean_us"):
            minimal_spec(
                schedule=[{"t_ns": 1, "primitive": "aex-flood", "params": {"node": 1}}]
            )

    def test_unknown_params_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"tsc-offset params has unknown keys \[.sneaky.\]"
        ):
            minimal_spec(
                schedule=[_entry(params={"offset_ticks": 1, "sneaky": True})]
            )

    def test_zero_offset_rejected(self):
        with pytest.raises(ConfigurationError, match="offset_ticks must be non-zero"):
            minimal_spec(schedule=[_entry(params={"offset_ticks": 0})])

    def test_bad_net_delay_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode must be"):
            minimal_spec(
                schedule=[
                    {
                        "t_ns": 1,
                        "primitive": "net-delay",
                        "params": {"victim": 1, "mode": "sideways"},
                    }
                ]
            )

    def test_non_numeric_param_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"schedule\[0\]: offset_ticks must be a number"
        ):
            minimal_spec(schedule=[_entry(params={"offset_ticks": "x"})])

    def test_victim_outside_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match="victim=9 outside cluster"):
            minimal_spec(schedule=[_entry(params={"offset_ticks": 1, "victim": 9})])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="duration_ms must be positive"):
            minimal_spec(
                schedule=[
                    {
                        "t_ns": 1,
                        "primitive": "ta-blackhole",
                        "params": {"duration_ms": 0},
                    }
                ]
            )

    def test_blackhole_victims_must_be_nonempty_list(self):
        with pytest.raises(ConfigurationError, match="victims must be a non-empty list"):
            minimal_spec(
                schedule=[
                    {"t_ns": 1, "primitive": "ta-blackhole", "params": {"victims": []}}
                ]
            )


class TestScheduleBuild:
    def test_schedule_survives_json_round_trip(self):
        schedule = [
            _entry(),
            {
                "t_ns": 2_000_000_000,
                "primitive": "net-delay",
                "params": {"victim": 2, "mode": "fminus", "delay_ms": 80, "duration_ms": 9_000},
            },
        ]
        spec = minimal_spec(schedule=schedule)
        again = ExperimentSpec.from_json(spec.to_json())
        assert again.schedule == spec.schedule == schedule

    def test_all_primitives_compile(self):
        spec = minimal_spec(
            environments={"1": "triad-like", "2": "low-aex", "3": "low-aex"},
            schedule=[
                _entry(),
                {"t_ns": 2, "primitive": "tsc-scale", "params": {"scale": 1.01, "victim": 2}},
                {"t_ns": 3, "primitive": "aex-suppress", "params": {"node": 1, "duration_ms": 50}},
                {"t_ns": 4, "primitive": "aex-flood",
                 "params": {"node": 2, "mean_us": 1_000, "duration_ms": 50}},
                {"t_ns": 5, "primitive": "ta-blackhole", "params": {"duration_ms": 50}},
                {"t_ns": 6, "primitive": "net-delay",
                 "params": {"victim": 3, "mode": "fplus", "delay_ms": 10, "duration_ms": 50}},
            ],
        )
        experiment = spec.build()
        # blackhole + net-delay register as network adversaries:
        assert len(experiment.attackers) == 2
        assert experiment.expected_violations

    def test_schedule_creates_paused_source_on_low_aex_node(self):
        spec = minimal_spec(
            environments={"1": "triad-like", "2": "low-aex", "3": "low-aex"},
            schedule=[
                {
                    "t_ns": 3_000_000_000,
                    "primitive": "aex-flood",
                    "params": {"node": 2, "mean_us": 1_000, "duration_ms": 100},
                }
            ],
        )
        experiment = spec.build()
        machine = experiment.cluster.node_machines[1]
        core = experiment.cluster.monitoring_cores[1]
        assert machine.aex_sources[core].enabled is False

    def test_aex_suppress_window_adds_no_aexs_to_a_silent_node(self):
        # A low-aex node without residual interrupts has no AEX source; the
        # window's close must leave the silent source it attached paused.
        spec = minimal_spec(
            seed=1,
            duration_s=20,
            environments={"1": "triad-like", "2": "low-aex", "3": "low-aex"},
            schedule=[
                {
                    "t_ns": 1_000_000_000,
                    "primitive": "aex-suppress",
                    "params": {"node": 2, "duration_ms": 100},
                }
            ],
        )
        experiment = spec.run()
        assert experiment.node(2).stats.aex_count == 0
        assert experiment.node(1).stats.aex_count > 0

    def test_scheduled_aex_suppress_window_silences_the_node(self):
        spec = minimal_spec(
            duration_s=20,
            schedule=[
                {
                    "t_ns": 1_000_000,
                    "primitive": "aex-suppress",
                    "params": {"node": 1, "duration_ms": 10_000},
                }
            ],
        )
        experiment = spec.run()
        assert all(
            t >= 10 * units.SECOND for t in experiment.node(1).stats.aex_times_ns
        )
        assert any(
            t < 10 * units.SECOND for t in experiment.node(3).stats.aex_times_ns
        )


class TestBuildKeys:
    """``link_delay``, ``node_config`` and the exponential environment."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("link_delay", {"model": "pareto"}, "link_delay: unknown delay model"),
            ("link_delay", {"model": ["constant"]}, "link_delay: unknown delay model"),
            (
                "link_delay",
                {"model": "constant", "delay_us": 1, "sigma": 1},
                "link_delay: constant has unknown keys",
            ),
            (
                "link_delay",
                {"model": "lognormal", "median_us": 150},
                "link_delay: lognormal missing keys",
            ),
            (
                "link_delay",
                {"model": "constant", "delay_us": 0},
                "link_delay.delay_us: must be a positive",
            ),
            (
                "link_delay",
                {"model": "lognormal", "median_us": 150, "sigma": -1},
                "link_delay.sigma: must be a positive",
            ),
            (
                "link_delay",
                {"model": "lognormal", "median_us": "150", "sigma": 1},
                "link_delay.median_us: must be a positive",
            ),
            (
                "node_config",
                {"ta_retry_limit": 3},
                r"node_config: block has unknown keys \['ta_retry_limit'\]",
            ),
            (
                "node_config",
                {"calibration_rounds": 0},
                "node_config.calibration_rounds: must be a positive integer",
            ),
            (
                "node_config",
                {"calibration_max_attempts": 2.5},
                "node_config.calibration_max_attempts: must be a positive integer",
            ),
            (
                "node_config",
                {"monitor_calibration_samples": True},
                "node_config.monitor_calibration_samples: must be a positive integer",
            ),
            (
                "node_config",
                {"monitor_enabled": 0},
                "node_config.monitor_enabled: must be true or false",
            ),
            (
                "node_config",
                {"calibration_sleeps_ms": [50, 50]},
                "node_config.calibration_sleeps_ms: must be a list of at least two distinct",
            ),
            (
                "node_config",
                {"calibration_sleeps_ms": [0, "5"]},
                "node_config.calibration_sleeps_ms: must be a list",
            ),
            (
                "node_config",
                {"calibration_sleeps_ms": [0, -5]},
                "node_config.calibration_sleeps_ms: must be a list",
            ),
            ("node_config", {"calibrator": ["mean-only"]}, "node_config.calibrator: must be"),
            (
                "node_config",
                {"calibrator": "median"},
                r"node_config.calibrator: must be one of \['mean-only', 'regression'\]",
            ),
            (
                "environments",
                {"1": {"type": "poisson", "mean_s": 1}},
                "environments.1: unknown environment",
            ),
            (
                "environments",
                {"1": {"type": "exponential"}},
                "environments.1: exponential missing keys",
            ),
            (
                "environments",
                {"1": {"type": "exponential", "mean_s": 1, "x": 1}},
                "environments.1: exponential has unknown keys",
            ),
            (
                "environments",
                {"2": {"type": "exponential", "mean_s": 0}},
                "environments.2.mean_s: must be a positive",
            ),
            ("environments", {"1": ["triad-like"]}, "unknown environment"),
        ],
    )
    def test_bad_values_rejected_naming_the_key(self, key, value, message):
        with pytest.raises(ConfigurationError, match=message):
            minimal_spec(**{key: value})

    def test_defaults_keep_the_cluster_defaults(self):
        from repro.core.calibration import RegressionCalibrator
        from repro.core.node import TriadNodeConfig

        cluster = minimal_spec(duration_s=1).build().cluster
        assert cluster.config.delay_model is None  # the paper LAN profile
        for node in cluster.nodes:
            assert node.config == TriadNodeConfig()
            assert isinstance(node.calibrator, RegressionCalibrator)

    def test_keys_reach_the_built_cluster(self):
        from repro.core.calibration import MeanOnlyCalibrator
        from repro.hardened.node import HardenedNodeConfig
        from repro.hardware.aex import ExponentialAexDelays
        from repro.net.delays import ConstantDelay

        experiment = minimal_spec(
            protocol="hardened",
            environments={"2": {"type": "exponential", "mean_s": 0.25}},
            link_delay={"model": "constant", "delay_us": 250},
            node_config={
                "calibration_rounds": 3,
                "calibration_max_attempts": 7,
                "calibration_sleeps_ms": [0, 50],
                "monitor_enabled": False,
                "monitor_calibration_samples": 5,
                "calibrator": "mean-only",
            },
        ).build()
        cluster = experiment.cluster
        assert isinstance(cluster.config.delay_model, ConstantDelay)
        assert cluster.config.delay_model.delay_ns == 250 * units.MICROSECOND
        for node in cluster.nodes:
            assert isinstance(node.config, HardenedNodeConfig)
            assert node.config.calibration_rounds == 3
            assert node.config.calibration_max_attempts == 7
            assert node.config.calibration_sleeps_ns == (0, 50 * units.MILLISECOND)
            assert node.config.monitor_enabled is False
            assert node.config.monitor_calibration_samples == 5
            assert isinstance(node.calibrator, MeanOnlyCalibrator)
        assert len({id(node.calibrator) for node in cluster.nodes}) == 3
        sources = cluster.machine.aex_sources
        assert list(sources) == [cluster.monitoring_cores[1]]
        distribution = sources[cluster.monitoring_cores[1]].distribution
        assert isinstance(distribution, ExponentialAexDelays)
        assert distribution.mean_ns == 250 * units.MILLISECOND

    def test_lognormal_link_delay(self):
        from repro.net.delays import LogNormalDelay

        model = minimal_spec(
            link_delay={"model": "lognormal", "median_us": 150, "sigma": 0.35}
        ).build().cluster.config.delay_model
        assert isinstance(model, LogNormalDelay)
        assert (model.median_ns, model.sigma) == (150 * units.MICROSECOND, 0.35)

    def test_unset_keys_are_not_written(self):
        text = minimal_spec().to_json()
        assert "link_delay" not in text and "node_config" not in text
        spec = minimal_spec(
            environments={"1": {"type": "exponential", "mean_s": 1}},
            link_delay={"model": "constant", "delay_us": 100},
            node_config={"calibrator": "mean-only"},
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_json() == spec.to_json()
