"""The run-all CLI (the ``newton-repro`` console script)."""

import pytest

from repro.experiments.runner import COMMANDS, EXPERIMENTS, main


class TestRunner:
    def test_all_figures_registered(self):
        """Every evaluation figure and extension study is runnable."""
        expected = {
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "model-validation",
            "latch-variant",
            "area-budget",
            "organization",
            "scrub-overhead",
            "mixed-traffic",
            "sensitivity",
            "families",
            "energy",
            "serving",
            "serving-gateway",
            "chunk-width",
            "fused-layers",
            "hetero-placement",
            "design-space",
        }
        assert set(EXPERIMENTS) == expected

    def test_runs_selected_experiment(self, capsys):
        assert main(["area-budget"]) == 0
        out = capsys.readouterr().out
        assert "=== area-budget" in out
        assert "Area feasibility" in out

    def test_deduplicates_selection(self, capsys):
        assert main(["area-budget", "area-budget"]) == 0
        out = capsys.readouterr().out
        assert out.count("=== area-budget") == 1

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "results.txt"
        assert main(["organization", "--out", str(target)]) == 0
        capsys.readouterr()
        text = target.read_text()
        assert "multiplier utilization" in text

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])
        capsys.readouterr()

    def test_metrics_export(self, tmp_path, capsys):
        """--metrics writes a registry export whose probe validates."""
        import json

        from repro.telemetry import SCHEMA, validate_metrics

        target = tmp_path / "metrics.json"
        assert main(["area-budget", "--metrics", str(target)]) == 0
        capsys.readouterr()
        record = json.loads(target.read_text(encoding="utf-8"))
        assert record["schema"] == SCHEMA
        assert record["counters"]["runner.experiments"] == 1
        assert "runner.failed" not in record["counters"]
        assert record["gauges"]["runner.elapsed_s.area-budget"] >= 0.0
        probe = record["sections"]["probe"]
        validate_metrics(probe)
        assert probe["probe_shape"] == {"m": 256, "n": 2048}
        assert (
            sum(probe["cycle_attribution"].values()) == probe["end_cycle"]
        )

    def test_bare_invocation_selects_everything(self, capsys, monkeypatch):
        """Regression: argparse's nargs='*' + choices rejects a list
        default, so the bare `newton-repro` must default in code."""

        class _Stub:
            def render(self) -> str:
                return "stub"

        ran = []

        def make(name):
            def _run():
                ran.append(name)
                return _Stub()

            return _run

        monkeypatch.setattr(
            "repro.experiments.runner.EXPERIMENTS",
            {name: make(name) for name in EXPERIMENTS},
        )
        assert main([]) == 0
        capsys.readouterr()
        assert set(ran) == set(EXPERIMENTS)


def _boom():
    raise RuntimeError("synthetic experiment failure")


class _Stub:
    def __init__(self, text):
        self.text = text

    def render(self):
        return self.text


class TestFailureRobustness:
    def test_one_failure_does_not_abort_the_run(self, capsys, monkeypatch):
        ran = []

        def ok(name):
            def _run():
                ran.append(name)
                return _Stub(f"{name} body")

            return _run

        monkeypatch.setattr(
            "repro.experiments.runner.EXPERIMENTS",
            {"first": ok("first"), "broken": _boom, "last": ok("last")},
        )
        assert main(["first", "broken", "last"]) == 1
        captured = capsys.readouterr()
        # everything after the failure still ran, in order
        assert ran == ["first", "last"]
        assert captured.out.index("=== first") < captured.out.index(
            "=== broken"
        ) < captured.out.index("=== last")
        # the failed slot carries the traceback and is flagged
        assert ", FAILED" in captured.out
        assert "synthetic experiment failure" in captured.out
        assert "RuntimeError" in captured.out
        assert "1 experiment(s) failed: broken" in captured.err

    def test_all_green_keeps_exit_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.runner.EXPERIMENTS",
            {"only": lambda: _Stub("fine")},
        )
        assert main(["only"]) == 0
        assert "FAILED" not in capsys.readouterr().out


class TestParallelJobs:
    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["area-budget", "--jobs", "0"])
        capsys.readouterr()

    def test_jobs_output_matches_serial(self, capsys):
        """-j2 must print the same sections in the same (selection) order."""
        selection = ["organization", "area-budget"]
        assert main(selection) == 0
        serial = capsys.readouterr().out
        assert main([*selection, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def strip_timings(text):
            import re

            return re.sub(r"\(\d+\.\d+s", "(", text)

        assert strip_timings(parallel) == strip_timings(serial)
        assert parallel.index("=== organization") < parallel.index(
            "=== area-budget"
        )

    def test_jobs_propagates_failures(self, capsys, monkeypatch):
        # fork start method inherits the monkeypatched registry
        monkeypatch.setattr(
            "repro.experiments.runner.EXPERIMENTS",
            {"good": lambda: _Stub("ok"), "bad": _boom},
        )
        assert main(["good", "bad", "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        assert "=== good" in captured.out
        assert ", FAILED" in captured.out
        assert "bad" in captured.err


class TestExecutionContextFlags:
    """--backend / --devices / --replicas reach the experiments."""

    def test_flags_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["area-budget", "--devices", "0"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["area-budget", "--replicas", "0"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["area-budget", "--backend", "tpu"])
        capsys.readouterr()

    def test_context_installed_for_experiments(self, capsys, monkeypatch):
        from repro.experiments import common

        seen = {}

        class _Stub:
            def render(self):
                return "stub"

        def probe():
            seen["context"] = common.get_context()
            return _Stub()

        monkeypatch.setattr(
            "repro.experiments.runner.EXPERIMENTS", {"probe": probe}
        )
        assert (
            main(
                [
                    "probe",
                    "--backend",
                    "analytical",
                    "--devices",
                    "2",
                    "--replicas",
                    "3",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert seen["context"] == common.ExperimentContext(
            backend="analytical", devices=2, replicas=3
        )
        # main() restores the default before returning (no process leak)
        assert common.get_context() == common.ExperimentContext()

    def test_metrics_export_records_context(self, tmp_path, capsys):
        import json

        target = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "area-budget",
                    "--metrics",
                    str(target),
                    "--backend",
                    "ideal",
                    "--devices",
                    "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        record = json.loads(target.read_text(encoding="utf-8"))
        assert record["sections"]["context"] == {
            "backend": "ideal",
            "devices": 2,
            "replicas": 1,
            "workers": "inline",
        }

    def test_serving_runs_on_every_backend(self, capsys):
        """The acceptance sweep: each backend drives the serving study."""
        from repro.backends import available_backends

        for backend in available_backends():
            assert main(["serving", "--backend", backend]) == 0
            out = capsys.readouterr().out
            assert "Edge serving" in out


class TestScenarioDispatch:
    """`newton-repro scenario` (the session/graph standalone mode)."""

    def test_decode_runs_with_differential_twin(self, capsys):
        assert main(["scenario", "decode", "--seq-len", "3"]) == 0
        out = capsys.readouterr().out
        assert "Scenario 'decode'" in out
        assert "fused==unfused outputs bit-identical" in out
        assert "KV-cache" in out
        assert "decode" in out  # the gateway per-step class table

    @pytest.mark.parametrize("scenario", ["moe", "lora"])
    def test_other_scenarios_run(self, scenario, capsys):
        assert main(["scenario", scenario, "--seq-len", "2"]) == 0
        out = capsys.readouterr().out
        assert f"Scenario {scenario!r}" in out

    def test_no_fused_pins_roundtrip(self, capsys):
        assert main(["scenario", "lora", "--seq-len", "2", "--no-fused"]) == 0
        out = capsys.readouterr().out
        assert "(unfused)" in out
        assert "0/" in out  # no GEMV fuses on the pinned round-trip path

    def test_scenario_rejects_experiment_mix(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig8", "--scenario", "decode"])

    def test_seq_len_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "decode", "--seq-len", "0"])

    def test_metrics_export(self, tmp_path, capsys):
        import json

        target = tmp_path / "scenario.json"
        assert main(
            ["scenario", "lora", "--seq-len", "2", "--metrics", str(target)]
        ) == 0
        record = json.loads(target.read_text())
        assert record["schema"] == "newton-telemetry/v1"
        assert "scenario" in record["sections"]


class TestCommandTable:
    """`COMMANDS`: each command parses only the flags its handler reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--fuzz", "1", "--backend", "gpu"],
            ["verify", "--fuzz", "1", "--metrics", "f"],
            ["explore", "--space", "smoke", "--devices", "4"],
            ["serve", "--jobs", "2"],
            ["scenario", "decode", "--out", "f"],
            ["area-budget", "--trace", "x"],
        ],
        ids=" ".join,
    )
    def test_a_flag_the_command_does_not_read_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["area-budget", "--jobs", "0"],
            ["verify", "--fuzz", "0"],
            ["serve", "--slo", "nan"],
            ["serve", "--window", "-1"],
            ["serve", "--max-batch", "0"],
            ["serve", "--queue-depth", "0"],
            ["scenario", "decode", "--slo", "0"],
            ["scenario", "decode", "--replicas", "0"],
        ],
        ids=" ".join,
    )
    def test_a_value_out_of_range_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert "error: argument --" in capsys.readouterr().err

    CONTEXT = {
        "--backend", "--placement", "--gpu-gemv-efficiency", "--gpu-batch-decay",
        "--gpu-peak-flops", "--gpu-compute-efficiency", "--gpu-kernel-overhead",
        "--gpu-saturation-bytes", "--devices", "--replicas", "--workers",
        "--metrics",
    }
    FLAGS = {
        None: {"--out", "--jobs", *CONTEXT},
        "verify": {"--fuzz", "--seed", "--report"},
        "explore": {"--space", "--jobs", "--seed", "--report"},
        "serve": {
            "--trace", "--slo", "--window", "--max-batch", "--queue-depth",
            "--max-replicas", "--layer", *CONTEXT,
        },
        "scenario": {"--seq-len", "--fused", "--no-fused", "--slo", "--seed", *CONTEXT},
    }

    def test_every_command_is_in_the_table(self):
        assert set(COMMANDS) == set(self.FLAGS)

    @pytest.mark.parametrize("word", list(FLAGS), ids=str)
    def test_help_lists_the_commands_own_flags_only(self, word, capsys):
        """`scenario --help` shows --seed and --slo; `verify --help`
        shows no --backend."""
        import re

        with pytest.raises(SystemExit) as stop:
            main([word, "--help"] if word else ["--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        shown = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out))
        assert shown == self.FLAGS[word] | {"--help"}
