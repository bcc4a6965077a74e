"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.simulation import ENGINE_IMPLEMENTATIONS, MEMORY_MODES, scheduler_names


def choices_of(command, option):
    """The declared ``choices`` of ``option`` on subcommand ``command``."""
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return next(
        action.choices
        for action in subparsers.choices[command]._actions
        if option in action.option_strings
    )


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    @pytest.mark.parametrize("command", ["compare", "analyze", "tradeoff", "ablation"])
    def test_commands_accept_common_arguments(self, command):
        parser = build_parser()
        args = parser.parse_args([command, "--functions", "50", "--seed", "9"])
        assert args.functions == 50
        assert args.seed == 9
        assert callable(args.handler)

    @pytest.mark.parametrize("command", ["latency-rq", "slowdown-rq"])
    def test_rq5_rq6_are_results_sections_not_commands(self, command, capsys):
        # `results` renders both reports; `sweep --engine event` runs a cell.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


class TestSweepParser:
    def test_sweep_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["sweep"])
        assert args.seeds == [2024]
        assert args.workers == 0
        assert args.cache_dir is None
        assert "spes" in args.policies

    def test_sweep_accepts_all_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "sweep",
                "--functions", "40",
                "--seeds", "1", "2",
                "--workers", "4",
                "--policies", "spes", "defuse",
                "--cache-dir", "/tmp/cache",
            ]
        )
        assert args.seeds == [1, 2]
        assert args.workers == 4
        assert args.policies == ["spes", "defuse"]
        assert args.cache_dir == "/tmp/cache"

    def test_sweep_accepts_placement(self):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--scenario", "hot-shard", "--placement", "least-loaded"]
        )
        assert args.scenario == "hot-shard"
        assert args.placement == "least-loaded"

    def test_placement_without_cluster_scenario_exits_with_error(self, capsys):
        exit_code = main(["sweep", "--placement", "least-loaded"])
        assert exit_code == 2
        assert "requires a scenario" in capsys.readouterr().err


class TestExecution:
    TINY = ["--functions", "30", "--seed", "5", "--days", "3", "--training-days", "2"]

    def test_analyze_runs_on_tiny_workload(self, capsys):
        exit_code = main(["analyze"] + self.TINY)
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Trigger proportions" in captured.out

    def test_compare_runs_on_tiny_workload(self, capsys):
        exit_code = main(["compare"] + self.TINY)
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "spes" in captured.out
        assert "fixed-10min" in captured.out

    def test_tradeoff_runs_on_tiny_workload(self, capsys):
        exit_code = main(["tradeoff"] + self.TINY)
        out = capsys.readouterr().out
        assert exit_code == 0
        prewarm, givenup = out.split("Fig. 13b - theta_givenup sweep")
        assert "Fig. 13a - theta_prewarm sweep" in prewarm
        # One row per sweep value; the default configuration (prewarm 2,
        # givenup x1) is the memory reference, so it normalizes to 1.
        for part, parameter, reference in (
            (prewarm, "theta_prewarm", "2.0000"),
            (givenup, "givenup_scale", "1.0000"),
        ):
            assert f"{parameter}  normalized_memory  q3_csr  wasted_memory_time" in part
            rows = [line.split() for line in part.splitlines() if line[:1].isdigit()]
            assert len(rows) == 5, parameter
            assert next(row for row in rows if row[0] == reference)[1] == "1.0000"
            assert part.count("linear fit: q3_csr = ") == 1

    def test_ablation_runs_on_tiny_workload(self, capsys):
        exit_code = main(["ablation"] + self.TINY)
        out = capsys.readouterr().out
        assert exit_code == 0
        correlation, adaptivity = out.split("Fig. 15 - adaptivity ablation")
        assert "Fig. 14 - correlation ablation" in correlation
        for part, variants in (
            (correlation, ("w/o-corr", "w/o-online-corr")),
            (adaptivity, ("w/o-forgetting", "w/o-adjusting")),
        ):
            rows = {line.split()[0]: line.split() for line in part.splitlines() if line.strip()}
            assert rows["spes"][2:] == ["1.0000", "1.0000"]
            assert all(variant in rows for variant in variants)

    @pytest.mark.parametrize("command", ["compare", "tradeoff", "ablation"])
    def test_training_window_filling_trace_exits_with_error(self, command, capsys):
        exit_code = main(
            [command, "--functions", "20", "--days", "2", "--training-days", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error: training_days=2.0 does not fit a trace of 2.00 days" in captured.err
        assert "Traceback" not in captured.err

    def test_sweep_runs_on_tiny_workload(self, capsys, tmp_path):
        arguments = [
            "sweep",
            "--functions", "25",
            "--days", "2",
            "--training-days", "1.5",
            "--seeds", "5",
            "--workers", "2",
            "--policies", "spes", "fixed-10min",
            "--cache-dir", str(tmp_path),
        ]
        exit_code = main(arguments)
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Policy suite (seed 5)" in captured.out
        assert "2 workers" in captured.out
        assert "0 hit(s)" in captured.out

        # A second identical sweep is served from the on-disk cache.
        exit_code = main(arguments)
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "2 hit(s), 0 miss(es)" in captured.out

    def test_sweep_rejects_unknown_policy(self, capsys):
        exit_code = main(
            ["sweep", "--functions", "25", "--days", "2", "--training-days", "1.5",
             "--policies", "spes", "warp-drive"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown suite policy 'warp-drive'" in captured.err

    def test_sweep_rejects_negative_workers(self, capsys):
        exit_code = main(
            ["sweep", "--functions", "25", "--days", "2", "--training-days", "1.5",
             "--policies", "spes", "--workers", "-3"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "workers must be non-negative" in captured.err


class TestScenarioCommands:
    TINY_SWEEP = [
        "sweep", "--functions", "25", "--days", "2", "--training-days", "1.5",
        "--seeds", "5",
    ]

    def test_scenarios_lists_the_catalog(self, capsys):
        exit_code = main(["scenarios"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("azure", "diurnal", "bursty", "drift", "flash-crowd",
                     "capacity-squeeze"):
            assert name in captured.out
        assert "squeeze=2.5" in captured.out  # parameters are enumerated

    def test_capacity_squeeze_sweep_reports_capacity_effects(self, capsys):
        exit_code = main(
            self.TINY_SWEEP
            + ["--policies", "spes", "fixed-10min", "--scenario", "capacity-squeeze",
               "--rq-tables"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "evictions" in captured.out
        assert "cap_cold_starts" in captured.out
        assert "Capacity effects" in captured.out
        assert "scenario capacity-squeeze" in captured.out

    def test_scenario_param_overrides_are_parsed(self, capsys):
        exit_code = main(
            self.TINY_SWEEP
            + ["--policies", "fixed-10min", "--scenario", "capacity-squeeze",
               "--scenario-param", "n_nodes=2", "--scenario-param", "squeeze=3.5"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "over 2 node(s)" in captured.out

    def test_unknown_scenario_fails_with_exit_code_2(self, capsys):
        exit_code = main(
            self.TINY_SWEEP + ["--policies", "fixed-10min", "--scenario", "warp"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown scenario" in captured.err

    def test_no_cache_bypasses_the_cache_dir(self, capsys, tmp_path):
        arguments = self.TINY_SWEEP + [
            "--policies", "fixed-10min",
            "--cache-dir", str(tmp_path),
            "--no-cache",
        ]
        exit_code = main(arguments)
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cache:" not in captured.out
        assert not list(tmp_path.glob("*.pkl"))


class TestStreamingAndFeedbackCommands:
    TINY_SWEEP = [
        "sweep", "--functions", "25", "--days", "2", "--training-days", "1.5",
        "--seeds", "5",
    ]

    def test_sweep_parses_event_engine_and_streaming(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--engine", "event", "--streaming"])
        assert args.engine == "event"
        assert args.streaming is True
        assert build_parser().parse_args(["sweep"]).streaming is False

    @pytest.mark.parametrize("command", ["sweep", "config"])
    def test_feedback_engine_name_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--engine", "event-feedback"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'event-feedback'" in capsys.readouterr().err

    def test_streaming_feedback_sweep_runs_end_to_end(self, capsys):
        arguments = self.TINY_SWEEP + [
            "--policies", "fixed-10min", "latency-keepalive",
            "--scenario", "load-ramp",
            "--engine", "event", "--streaming",
        ]
        exit_code = main(arguments)
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "lat_p99_ms" in captured.out
        assert "latency-keepalive" in captured.out
        assert "engine event, streaming" in captured.out

    def test_sweep_with_cores_reports_slowdown_columns(self, capsys):
        arguments = self.TINY_SWEEP + [
            "--policies", "fixed-10min",
            "--scenario", "cpu-starved",
            "--engine", "event",
            "--cores", "2", "--scheduler", "srtf", "--slo-ms", "500",
        ]
        exit_code = main(arguments)
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "slowdown_p50" in captured.out
        assert "slo_viol_pct" in captured.out
        assert "cores 2 (srtf)" in captured.out

    def test_sweep_rejects_cores_off_the_event_engines(self, capsys):
        exit_code = main(self.TINY_SWEEP + ["--cores", "2"])
        assert exit_code == 2
        assert "event" in capsys.readouterr().err



class TestCacheCommand:
    def _populate(self, directory):
        from repro.experiments import ResultCache
        from repro.simulation import SimulationResult

        cache = ResultCache(directory)
        cache.put("entry", SimulationResult(policy_name="p", duration_minutes=1))
        return cache

    def test_prune_days_removes_old_entries(self, capsys, tmp_path):
        import os
        import time

        self._populate(tmp_path)
        stale = tmp_path / "entry.pkl"
        two_days_ago = time.time() - 2 * 86400
        os.utime(stale, (two_days_ago, two_days_ago))
        exit_code = main(
            ["cache", "--cache-dir", str(tmp_path), "--prune-days", "1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "pruned 1 entry" in captured.out
        assert not stale.exists()

    def test_prune_keeps_fresh_entries(self, capsys, tmp_path):
        self._populate(tmp_path)
        exit_code = main(
            ["cache", "--cache-dir", str(tmp_path), "--prune-days", "7"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "pruned 0 entries" in captured.out
        assert (tmp_path / "entry.pkl").exists()

    def test_missing_cache_dir_is_an_error(self, capsys, tmp_path):
        exit_code = main(
            ["cache", "--cache-dir", str(tmp_path / "nope"), "--prune-days", "1"]
        )
        assert exit_code == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_prune_days_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "--cache-dir", "/tmp/x"])


class TestConfigCommand:
    def test_config_prints_canonical_spec_and_digest(self, capsys):
        import json

        exit_code = main(["config", "--engine", "event", "--shards", "4"])
        assert exit_code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spec"]["engine"] == "event"
        assert document["spec"]["shards"] == 4
        assert len(document["spec_digest"]) == 64
        assert isinstance(document["engine_version"], int)

    def test_config_shares_sweep_flag_semantics(self, capsys):
        import json

        exit_code = main(
            [
                "config", "--streaming", "--memory-mode", "mb",
                "--shard-placement", "least-loaded", "--seeds", "1", "2",
            ]
        )
        assert exit_code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spec"]["streaming"] is True
        assert document["spec"]["memory_mode"] == "mb"
        assert document["spec"]["shard_placement"] == "least-loaded"
        assert document["seeds"] == [1, 2]

    def test_config_rejects_invalid_combination_like_sweep(self, capsys):
        exit_code = main(["config", "--cores", "2"])
        assert exit_code == 2
        config_error = capsys.readouterr().err
        assert "require the event engine" in config_error
        assert main(["sweep", "--cores", "2"]) == 2
        assert capsys.readouterr().err == config_error

    def test_config_cache_keys_lists_static_cells(self, capsys):
        import json

        exit_code = main(
            [
                "config",
                "--functions", "6",
                "--days", "2",
                "--training-days", "1",
                "--seeds", "11",
                "--policies", "spes", "fixed-10min",
                "--cache-keys",
            ]
        )
        assert exit_code == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document["cache_keys"]) == {"seed11/spes", "seed11/fixed-10min"}
        assert all(len(key) == 64 for key in document["cache_keys"].values())

    def test_config_cache_keys_notes_faascache_omission(self, capsys):
        import json

        exit_code = main(
            [
                "config",
                "--functions", "6",
                "--days", "2",
                "--training-days", "1",
                "--policies", "spes", "faascache",
                "--cache-keys",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "faascache omitted" in captured.err
        assert "faascache" not in json.loads(captured.out)["cache_keys"]


class TestManifestFlags:
    SWEEP_ARGS = [
        "sweep",
        "--scenario", "azure2019-fixture",
        "--scenario-param", "population=16",
        "--functions", "8",
        "--days", "2",
        "--training-days", "1",
        "--seeds", "2024",
        "--policies", "spes", "fixed-10min",
    ]

    def test_sweep_records_then_replays_a_manifest(self, capsys, tmp_path):
        manifest_path = tmp_path / "run.json"
        exit_code = main(self.SWEEP_ARGS + ["--manifest", str(manifest_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "manifest: wrote" in captured.out
        assert manifest_path.exists()

        exit_code = main(["sweep", "--from-manifest", str(manifest_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "result fingerprint(s) identical" in captured.out

    def test_from_manifest_rejects_engine_version_mismatch(self, capsys, tmp_path):
        import json

        manifest_path = tmp_path / "run.json"
        assert main(self.SWEEP_ARGS + ["--manifest", str(manifest_path)]) == 0
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        manifest["engine_version"] -= 1
        manifest_path.write_text(json.dumps(manifest))
        exit_code = main(["sweep", "--from-manifest", str(manifest_path)])
        assert exit_code == 2
        assert "engine version" in capsys.readouterr().err

    def test_from_manifest_rejects_trace_divergence(self, capsys, tmp_path):
        import json

        manifest_path = tmp_path / "run.json"
        assert main(self.SWEEP_ARGS + ["--manifest", str(manifest_path)]) == 0
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        manifest["trace_fingerprints"]["seed2024"][0] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        exit_code = main(["sweep", "--from-manifest", str(manifest_path)])
        assert exit_code == 2
        assert "trace fingerprints diverge" in capsys.readouterr().err


class TestChoicesFollowTheRegistries:
    """Parser choices are the library's constants, so the two cannot drift."""

    @pytest.mark.parametrize("command", ["sweep", "config"])
    def test_sweep_style_choices(self, command):
        assert choices_of(command, "--engine") == ENGINE_IMPLEMENTATIONS
        assert choices_of(command, "--memory-mode") == MEMORY_MODES
        assert choices_of(command, "--scheduler") == scheduler_names()

    def test_results_memory_modes(self):
        assert choices_of("results", "--memory-mode") == MEMORY_MODES
