"""Tests for the cimflow command-line interface."""

import pytest

from repro.cli import SWEEP_COMMANDS, _COMMANDS, build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            "table1",
            "fig5",
            "yield",
            "fig7",
            "eda",
            "chip",
            "report",
            "pipeline",
            "ecc-advisor",
            "attention",
            "train",
            "serve",
        ):
            args = parser.parse_args([command])
            assert args.command == command
        args = parser.parse_args(["submit", "stats"])
        assert args.command == "submit"

    def test_every_command_has_a_handler(self):
        parser = build_parser()
        sub = next(
            a
            for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        assert set(sub.choices) == set(_COMMANDS)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "table1"])
        assert args.seed == 7

    def test_fig7_options(self):
        args = build_parser().parse_args(
            ["fig7", "--fault-rate", "0.2", "--inject-at", "200"]
        )
        assert args.fault_rate == 0.2
        assert args.inject_at == 200

    @pytest.mark.parametrize("command", SWEEP_COMMANDS)
    def test_sweep_commands_accept_seed_and_workers(self, command):
        """Every sweep-backed subcommand must plumb --seed and --workers
        into the deterministic sweep engine."""
        args = build_parser().parse_args(
            ["--seed", "9", command, "--workers", "2"]
        )
        assert args.seed == 9
        assert args.workers == 2

    def test_pipeline_options(self):
        args = build_parser().parse_args(
            [
                "pipeline",
                "--tiles",
                "8,16",
                "--batch",
                "32",
                "--micro-batch",
                "4",
                "--workload",
                "mlp",
            ]
        )
        assert args.tiles == "8,16"
        assert args.batch == 32
        assert args.micro_batch == 4
        assert args.workload == "mlp"

    def test_serve_options(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--window",
                "0.01",
                "--max-batch",
                "8",
                "--max-inflight",
                "4",
            ]
        )
        assert args.port == 0
        assert args.window == 0.01
        assert args.max_batch == 8
        assert args.max_inflight == 4

    def test_submit_options(self):
        args = build_parser().parse_args(
            ["submit", "sweep", "--params", "{}", "--json", "--port", "9999"]
        )
        assert args.kind == "sweep"
        assert args.params == "{}"
        assert args.json is True
        assert args.port == 9999
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "bogus"])

    def test_statistical_energy_model_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--energy-model", "value_aware_statistical"])
        assert exc.value.code == 2

    def test_yield_model_choice(self):
        args = build_parser().parse_args(["yield", "--model", "cnn"])
        assert args.model == "cnn"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["yield", "--model", "rnn"])

    def test_ecc_advisor_options(self):
        args = build_parser().parse_args(
            [
                "ecc-advisor",
                "--codes",
                "secded,bch",
                "--yields",
                "0.999,0.99",
                "--data-bits",
                "16",
                "--mc-words",
                "256",
                "--trials",
                "1",
            ]
        )
        assert args.codes == "secded,bch"
        assert args.yields == "0.999,0.99"
        assert args.data_bits == 16
        assert args.mc_words == 256
        assert args.trials == 1

    def test_submit_accepts_ecc_kind(self):
        args = build_parser().parse_args(["submit", "ecc"])
        assert args.kind == "ecc"

    def test_submit_accepts_workload_kinds(self):
        for kind in ("attention", "train"):
            args = build_parser().parse_args(["submit", kind])
            assert args.kind == kind

    def test_attention_options(self):
        args = build_parser().parse_args(
            [
                "attention",
                "--seqs",
                "4,8",
                "--d-heads",
                "4",
                "--micro-batches",
                "2,4",
                "--d-model",
                "8",
                "--tiles",
                "12",
            ]
        )
        assert args.seqs == "4,8"
        assert args.d_heads == "4"
        assert args.micro_batches == "2,4"
        assert args.d_model == 8
        assert args.tiles == 12

    def test_train_options(self):
        args = build_parser().parse_args(
            [
                "train",
                "--lives",
                "8,1e6",
                "--drift-nus",
                "0.0",
                "--epochs",
                "3",
            ]
        )
        assert args.lives == "8,1e6"
        assert args.drift_nus == "0.0"
        assert args.epochs == 3
        # The update backend is a library test oracle, not a CLI flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--backend", "scalar"])


class TestExecution:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "CIM-A" in out and "COM-F" in out

    def test_fig5_runs(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "ADC share" in out

    def test_eda_runs(self, capsys):
        assert main(["eda", "parity8"]) == 0
        out = capsys.readouterr().out
        assert "majority" in out

    def test_eda_unknown_circuit(self, capsys):
        assert main(["eda", "nonexistent"]) == 2
        assert "unknown circuit" in capsys.readouterr().err

    def test_fig7_runs(self, capsys):
        assert main(["fig7", "--inject-at", "150"]) == 0
        out = capsys.readouterr().out
        assert "CUSUM detection cycle" in out

    def test_chip_runs(self, capsys):
        assert main(["chip"]) == 0
        out = capsys.readouterr().out
        assert "TOPS_per_W" in out

    def test_report_runs(self, capsys):
        assert main(["report", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "ADC share" in out
        assert "adc.conversions" in out
        assert "solver LU cache" in out

    def test_report_writes_json(self, tmp_path, capsys):
        from repro.utils.telemetry import RunReport

        path = tmp_path / "report.json"
        assert main(["report", "--batch", "4", "--json", str(path)]) == 0
        report = RunReport.from_json(path.read_text())
        assert report.energy_fractions()["adc"] > 0.65
        assert report.area_fractions()["adc"] > 0.90

    def test_pipeline_runs(self, capsys):
        assert (
            main(
                [
                    "pipeline",
                    "--tiles",
                    "4,8",
                    "--batch",
                    "8",
                    "--micro-batch",
                    "4",
                    "--workload",
                    "mlp",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Pipelined multi-tile DSE" in out
        assert "speedup" in out
        assert "best:" in out

    def test_pipeline_writes_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "dse.json"
        assert (
            main(
                [
                    "pipeline",
                    "--tiles",
                    "4",
                    "--batch",
                    "8",
                    "--micro-batch",
                    "4",
                    "--workload",
                    "mlp",
                    "--json",
                    str(path),
                ]
            )
            == 0
        )
        rows = json.loads(path.read_text())
        assert rows and rows[0]["tiles"] == 4
        assert rows[0]["feasible"] is True

    def test_ecc_advisor_runs(self, capsys):
        assert (
            main(
                [
                    "ecc-advisor",
                    "--codes",
                    "secded,secdaec",
                    "--yields",
                    "0.999,0.99",
                    "--mc-words",
                    "256",
                    "--trials",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ECC co-design sweep" in out
        assert "Pareto front" in out
        assert "knee point:" in out
        assert "Recommended code per (scenario, yield)" in out
        assert "Parameter sensitivity" in out

    def test_ecc_advisor_writes_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "ecc.json"
        assert (
            main(
                [
                    "ecc-advisor",
                    "--codes",
                    "secded",
                    "--yields",
                    "0.999",
                    "--mc-words",
                    "128",
                    "--trials",
                    "1",
                    "--json",
                    str(path),
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())
        assert payload["rows"] and payload["rows"][0]["code"] == "secded"
        assert payload["advice"]["knee"]["code"] == "secded"
        assert payload["advice"]["front"]

    def test_ecc_advisor_bad_code(self, capsys):
        assert main(["ecc-advisor", "--codes", "rs255"]) == 2
        assert "unknown ECC code" in capsys.readouterr().err

    def test_attention_runs(self, capsys):
        assert (
            main(
                [
                    "attention",
                    "--seqs",
                    "4",
                    "--d-heads",
                    "4",
                    "--micro-batches",
                    "2",
                    "--d-model",
                    "8",
                    "--batch",
                    "8",
                    "--workers",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Attention fork-join DSE" in out
        assert "speedup" in out
        assert "best:" in out

    def test_attention_writes_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "attention.json"
        assert (
            main(
                [
                    "attention",
                    "--seqs",
                    "4",
                    "--d-heads",
                    "4",
                    "--micro-batches",
                    "2",
                    "--d-model",
                    "8",
                    "--batch",
                    "8",
                    "--workers",
                    "0",
                    "--json",
                    str(path),
                ]
            )
            == 0
        )
        rows = json.loads(path.read_text())
        assert rows and rows[0]["feasible"] is True
        assert rows[0]["bit_identical"] is True
        assert rows[0]["speedup"] > 1.0

    def test_train_runs(self, capsys):
        assert (
            main(
                [
                    "train",
                    "--lives",
                    "8",
                    "--drift-nus",
                    "0.01",
                    "--epochs",
                    "2",
                    "--workers",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "In-situ training" in out
        assert "dead_cells" in out
        assert "Accuracy / dead cells vs epoch" in out

    def test_train_writes_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "train.json"
        assert (
            main(
                [
                    "train",
                    "--lives",
                    "8",
                    "--drift-nus",
                    "0.0",
                    "--epochs",
                    "2",
                    "--workers",
                    "0",
                    "--json",
                    str(path),
                ]
            )
            == 0
        )
        rows = json.loads(path.read_text())
        assert rows and rows[0]["feasible"] is True
        assert rows[0]["total_pulses"] > 0

    def test_submit_bad_params_json(self, capsys):
        assert main(["submit", "stats", "--params", "{bad", "--port", "1"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_submit_without_server(self, capsys):
        assert main(["submit", "stats", "--port", "1", "--timeout", "2"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_report_pipeline_source(self, capsys):
        assert main(["report", "--source", "pipeline", "--batch", "8"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline stage utilization" in out
        assert "pipeline.transfer.bytes" in out
        assert "tile utilization" in out


class TestSharedJobPath:
    """A CLI job command and the ``cimflow serve`` kind it mirrors make
    one library call: the ``--json`` file equals the served result."""

    @pytest.mark.parametrize(
        "argv, kind, params, key",
        [
            (
                ["ecc-advisor", "--codes", "secded,bch", "--yields", "0.999",
                 "--mc-words", "128", "--trials", "1"],
                "ecc",
                {"codes": ["secded", "bch"], "yields": [0.999],
                 "mc_words": 128, "trials": 1},
                None,
            ),
            (
                ["attention", "--seqs", "4", "--d-heads", "4",
                 "--micro-batches", "2", "--d-model", "8", "--batch", "8"],
                "attention",
                {"seqs": [4], "d_heads": [4], "micro_batches": [2],
                 "d_model": 8, "batch": 8},
                "rows",
            ),
            (
                ["train", "--lives", "8", "--drift-nus", "0.01",
                 "--epochs", "2"],
                "train",
                {"lives": [8.0], "drift_nus": [0.01], "epochs": 2},
                "rows",
            ),
            (
                ["pipeline", "--tiles", "4,8", "--batch", "8",
                 "--micro-batch", "4", "--workload", "mlp",
                 "--objectives", "accuracy,energy",
                 "--energy-model", "value_aware"],
                "dse",
                {"tile_counts": [4, 8], "batch_sizes": [8], "micro_batch": 4,
                 "workload": "mlp", "objectives": ["accuracy", "energy"],
                 "energy_model": "value_aware"},
                None,
            ),
        ],
    )
    def test_cli_json_equals_serve_result(
        self, tmp_path, capsys, argv, kind, params, key
    ):
        import asyncio
        import json

        from repro.serve import SimulationService

        path = tmp_path / "out.json"
        argv = ["--seed", "3", *argv, "--workers", "0", "--json", str(path)]
        assert main(argv) == 0
        response = asyncio.run(
            SimulationService().submit(
                {"kind": kind, "params": {**params, "seed": 3}}
            )
        )
        served = response["result"] if key is None else response["result"][key]
        assert json.loads(path.read_text()) == served
