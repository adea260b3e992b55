"""Tests for the command-line interface."""

import shutil
from pathlib import Path

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "inc", "ablation"):
            assert name in out


class TestRun:
    def test_run_inc(self, capsys):
        assert main(["run", "inc"]) == 0
        out = capsys.readouterr().out
        assert "632182" in out.replace(" ", "")

    def test_run_ablation(self, capsys):
        assert main(["run", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "mean-only" in out

    def test_run_fig2_short_with_export(self, capsys, tmp_path):
        target = tmp_path / "csv"
        assert main(["run", "fig2", "--duration-s", "120", "--export", str(target)]) == 0
        out = capsys.readouterr().out
        assert "node-1" in out
        assert (target / "drift.csv").exists()

    def test_run_fig6_custom_seed(self, capsys):
        assert main(["run", "fig6", "--duration-s", "150", "--seed", "99"]) == 0
        out = capsys.readouterr().out
        assert "node-3" in out

    def test_duration_ignored_for_fixed_experiments(self, capsys):
        assert main(["run", "inc", "--duration-s", "5"]) == 0
        out = capsys.readouterr().out
        assert "ignored" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not-an-experiment"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweep:
    def test_sweep_jitter(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["sweep", "jitter"]) == 0
        out = capsys.readouterr().out
        assert "jitter_sigma" in out
        assert "mean_abs_error_ppm" in out

    def test_unknown_sweep_rejected(self):
        import pytest as _pytest

        from repro.cli import main as cli_main

        with _pytest.raises(SystemExit):
            cli_main(["sweep", "bogus"])


class TestSweepFleetFlags:
    def test_sweep_seed_and_export_write_csv(self, capsys, tmp_path):
        target = tmp_path / "csv"
        assert main([
            "sweep", "jitter", "--limit", "1", "--seed", "900",
            "--export", str(target), "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "jitter_sigma" in out
        csv_path = target / "sweep_jitter.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "jitter_sigma,mean_abs_error_ppm,error_spread_ppm"

    def test_sweep_second_run_served_from_cache(self, capsys, tmp_path):
        argv = [
            "sweep", "jitter", "--limit", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # byte-identical table
        assert "8 cache hits" in second.err  # one per seed of the point

    def test_sweep_no_cache_recomputes(self, capsys, tmp_path):
        argv = [
            "sweep", "jitter", "--limit", "1", "--no-cache",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "0 cache hits" in capsys.readouterr().err

    def test_sweep_telemetry_jsonl(self, capsys, tmp_path):
        import json

        jsonl = tmp_path / "telemetry.jsonl"
        assert main([
            "sweep", "jitter", "--limit", "1", "--no-cache",
            "--telemetry", str(jsonl),
        ]) == 0
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert records[0]["event"] == "task"
        assert records[-1]["event"] == "summary"
        assert records[-1]["completed"] == 8  # one task per seed of the point

    def test_sweep_rejects_jobs_below_one(self, capsys):
        assert main(["sweep", "jitter", "--limit", "1", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_sweep_rejects_limit_below_one(self, capsys):
        assert main(["sweep", "jitter", "--limit", "0"]) == 2
        assert "--limit must be >= 1" in capsys.readouterr().err

    def test_reproduce_rejects_jobs_below_one(self, capsys):
        assert main(["reproduce", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_reproduce_stdout_is_identical_across_jobs(self, capsys, monkeypatch):
        from repro.experiments import figures

        cheap = {name: figures.EXPERIMENTS[name] for name in ("fig1", "ablation")}
        monkeypatch.setattr(figures, "EXPERIMENTS", cheap)
        outputs = []
        for jobs in ("1", "2"):
            assert main(["reproduce", "--no-cache", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "=== fig1 ===" in outputs[0] and "=== ablation ===" in outputs[0]


class TestBatch:
    @staticmethod
    def _write_spec(directory, name, seed):
        import json

        (directory / f"{name}.json").write_text(json.dumps({
            "name": name,
            "seed": seed,
            "duration_s": 8,
            "nodes": 1,
            "machine_wide_mean_s": None,
        }))

    def test_batch_runs_every_spec(self, capsys, tmp_path):
        specs = tmp_path / "specs"
        specs.mkdir()
        self._write_spec(specs, "batch-a", 1)
        self._write_spec(specs, "batch-b", 2)
        assert main(["batch", str(specs), "--cache-dir", str(tmp_path / "cache")]) == 0
        captured = capsys.readouterr()
        assert "batch-a" in captured.out
        assert "batch-b" in captured.out
        assert "batch summary" in captured.out
        assert "fleet: 2/2 tasks ok" in captured.err

    def test_batch_empty_directory_fails(self, capsys, tmp_path):
        assert main(["batch", str(tmp_path)]) == 1
        assert "no spec JSONs" in capsys.readouterr().err

    def test_batch_invalid_spec_fails_before_running(self, capsys, tmp_path):
        (tmp_path / "bad.json").write_text('{"name": "x", "bogus_key": 1}')
        assert main(["batch", str(tmp_path)]) == 1
        assert "invalid spec" in capsys.readouterr().err


class TestRunSpec:
    def test_run_spec_from_file(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-spec-test",
            "seed": 1,
            "duration_s": 15,
            "nodes": 3,
            "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
            "machine_wide_mean_s": None,
        }))
        assert main(["run-spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-spec-test" in out
        assert "node-3" in out

    def test_run_spec_with_export(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-export-test",
            "duration_s": 10,
            "environments": {"1": "low-aex", "2": "low-aex", "3": "low-aex"},
        }))
        target = tmp_path / "csv"
        assert main(["run-spec", str(spec_path), "--export", str(target)]) == 0
        assert (target / "drift.csv").exists()

    def test_shipped_sample_specs_are_valid(self):
        from pathlib import Path

        from repro.experiments.spec import ExperimentSpec

        specs_dir = Path(__file__).resolve().parents[1] / "examples" / "specs"
        samples = sorted(specs_dir.glob("*.json"))
        assert len(samples) >= 3
        for path in samples:
            spec = ExperimentSpec.load(path)
            spec.build()  # wiring must succeed without running


class TestPlaneReports:
    """Every path that runs a spec prints the report of every plane it attaches."""

    SPECS = Path(__file__).resolve().parents[1] / "examples" / "specs"

    def test_run_spec_prints_the_recovery_report(self, capsys):
        assert main(["run-spec", str(self.SPECS / "faults_crash_partition.json")]) == 0
        out = capsys.readouterr().out
        assert "fault events:" in out
        assert "verdict: RECOVERED" in out

    def test_batch_prints_recovery_and_slo_reports(self, capsys, tmp_path):
        specs = tmp_path / "specs"
        specs.mkdir()
        for name in ("faults_crash_partition.json", "service_quorum.json"):
            shutil.copy(self.SPECS / name, specs / name)
        assert main(["batch", str(specs), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "verdict: RECOVERED" in out
        assert "service: " in out
        assert "per-front-end" in out


class TestOracleFlag:
    def test_run_benign_warn_is_clean(self, capsys):
        assert main(["run", "fig2", "--duration-s", "20", "--oracle", "warn"]) == 0
        captured = capsys.readouterr()
        assert "node-1" in captured.out
        assert "violation" not in captured.err

    def test_run_attack_strict_passes_when_expected(self, capsys):
        # fig4's violations are registered as expected: strict stays green
        # but the report still lands on stderr.
        assert main(["run", "fig4", "--duration-s", "30", "--oracle", "strict"]) == 0
        captured = capsys.readouterr()
        assert "node-3" in captured.out
        assert "drift-bound" in captured.err
        assert "state-soundness" in captured.err

    def test_run_strict_fails_on_unexpected(self, capsys, monkeypatch):
        from repro.oracle import expectations

        # Strip fig4's allowance: its violations become unexpected.
        monkeypatch.setitem(
            expectations.EXPECTED_VIOLATIONS, "fig4-fplus-low-aex", frozenset()
        )
        assert main(["run", "fig4", "--duration-s", "30", "--oracle", "strict"]) == 1
        assert "unexpected" in capsys.readouterr().err

    def test_run_warn_reports_but_passes_on_unexpected(self, capsys, monkeypatch):
        from repro.oracle import expectations

        monkeypatch.setitem(
            expectations.EXPECTED_VIOLATIONS, "fig4-fplus-low-aex", frozenset()
        )
        assert main(["run", "fig4", "--duration-s", "30", "--oracle", "warn"]) == 0
        assert "UNEXPECTED" in capsys.readouterr().err

    def test_oracle_off_leaves_stderr_silent(self, capsys):
        assert main(["run", "fig4", "--duration-s", "30"]) == 0
        assert "violation" not in capsys.readouterr().err

    def test_sweep_strict_with_expected_violations(self, capsys, tmp_path):
        assert main([
            "sweep", "attack-delay", "--limit", "1", "--oracle", "strict",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        captured = capsys.readouterr()
        assert "skew_measured" in captured.out
        assert "oracle violation" in captured.err

    def test_sweep_oracle_mode_keys_the_cache(self, capsys, tmp_path):
        # warn-mode results must not be served from an off-mode cache entry
        # (the mode is part of the task content hash via overrides).
        argv = ["sweep", "jitter", "--limit", "1", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--oracle", "warn"]) == 0
        assert "0 cache hits" in capsys.readouterr().err  # recomputed, not served
        assert main(argv + ["--oracle", "warn"]) == 0
        assert "8 cache hits" in capsys.readouterr().err

    def test_policy_restored_after_run(self):
        from repro.oracle import current_policy

        assert main(["run", "fig2", "--duration-s", "10", "--oracle", "warn"]) == 0
        assert current_policy().mode == "off"


class TestHunt:
    def test_tiny_hunt_writes_corpus_and_reports(self, capsys, tmp_path):
        corpus_dir = tmp_path / "corpus"
        assert main([
            "hunt", "--seed", "7", "--budget", "4", "--population", "4",
            "--corpus-dir", str(corpus_dir), "--no-shrink",
        ]) == 0
        out = capsys.readouterr().out
        assert "hunt: seed 7" in out
        assert "corpus:" in out
        assert (corpus_dir / "MANIFEST.json").exists()

    def test_hunt_telemetry_export(self, capsys, tmp_path):
        import json

        target = tmp_path / "telemetry.jsonl"
        assert main([
            "hunt", "--budget", "2", "--population", "2", "--no-shrink",
            "--corpus-dir", str(tmp_path / "corpus"), "--telemetry", str(target),
        ]) == 0
        records = [json.loads(line) for line in target.read_text().splitlines()]
        assert records[-1]["event"] == "summary"
        assert records[-1]["total"] == 2
        assert "peak_rss_kb" in records[-1]

    def test_hunt_rejects_bad_jobs_and_budget(self, capsys, tmp_path):
        assert main(["hunt", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["hunt", "--budget", "0",
                     "--corpus-dir", str(tmp_path)]) == 2
        assert "budget" in capsys.readouterr().err
