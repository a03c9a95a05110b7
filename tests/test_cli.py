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
        assert args.tile_counts == [8, 16]
        assert args.batch_sizes == [32]
        assert args.micro_batch == 4
        assert args.workload == "mlp"

    def test_serve_options(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--max-batch",
                "8",
                "--max-inflight",
                "4",
            ]
        )
        assert args.port == 0
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
        assert args.codes == ["secded", "bch"]
        assert args.yields == [0.999, 0.99]
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
        assert args.seqs == [4, 8]
        assert args.d_heads == [4]
        assert args.micro_batches == [2, 4]
        assert args.d_model == 8
        assert args.n_tiles == 12

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
        assert args.lives == [8.0, 1e6]
        assert args.drift_nus == [0.0]
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
        rows = json.loads(path.read_text())["rows"]
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


    @pytest.mark.parametrize("source", ["fig5", "pipeline"])
    def test_report_diff_prices_each_run(self, capsys, source):
        """``--diff`` re-runs the workload under the other energy model,
        so some category's value-aware energy differs from its static
        energy."""
        argv = ["report", "--source", source, "--batch", "4", "--diff"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        table = out.split("== Energy diff")[1].split("\n\n")[0]
        rows = [line.split() for line in table.splitlines()[2:]]
        assert rows and any(static != aware for _, static, aware, _ in rows)


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
            (
                ["pipeline", "--tiles", "4", "--batch", "8",
                 "--micro-batch", "4", "--workload", "mlp"],
                "dse",
                {"tile_counts": [4], "batch_sizes": [8], "micro_batch": 4,
                 "workload": "mlp"},
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

    @pytest.mark.parametrize(
        "argv, kind, params",
        [
            (["pipeline", "--workload", "rnn"], "dse", {"workload": "rnn"}),
            (["ecc-advisor", "--codes", "rs255"], "ecc", {"codes": ["rs255"]}),
            (["attention", "--d-model", "0"], "attention", {"d_model": 0}),
            (["train", "--drift-nus", "nan"], "train",
             {"drift_nus": [float("nan")]}),
        ],
    )
    def test_bad_parameter_is_the_served_bad_request(
        self, capsys, argv, kind, params
    ):
        """A rejected parameter exits 2 with the message the server
        answers the same request with."""
        import asyncio

        from repro.serve import BadRequestError, SimulationService

        assert main([*argv, "--workers", "0"]) == 2
        with pytest.raises(BadRequestError) as info:
            asyncio.run(
                SimulationService().submit({"kind": kind, "params": params})
            )
        assert capsys.readouterr().err == f"{info.value}\n"

    def test_report_pipeline_json_equals_serve_report(self, tmp_path, capsys):
        """``report --source pipeline`` runs the served ``pipeline`` kind on
        the reference MLP: its ``--json`` report is the served report."""
        import asyncio
        import json

        from repro.serve import SimulationService

        path = tmp_path / "report.json"
        argv = ["--seed", "3", "report", "--source", "pipeline",
                "--batch", "8", "--json", str(path)]
        assert main(argv) == 0
        response = asyncio.run(
            SimulationService().submit(
                {"kind": "pipeline",
                 "params": {"workload": "mlp", "batch": 8, "seed": 3}}
            )
        )
        assert json.loads(path.read_text()) == response["report"]


#: The job commands and the ``cimflow serve`` kinds they are clients of.
JOB_COMMANDS = {
    "pipeline": "dse", "ecc-advisor": "ecc", "attention": "attention",
    "train": "train",
}


def _malformed(default):
    """Values that never have the type of ``default`` (see
    ``repro.serve.service._type_matches``): ``null``, other scalars,
    nested lists, and non-finite numbers where a float is due."""
    from hypothesis import strategies as st

    null, flag = st.none(), st.booleans()
    count, text = st.integers(-3, 3), st.text(max_size=3)
    real = st.floats(allow_nan=True, allow_infinity=True)
    nested = st.lists(st.lists(count, max_size=2), min_size=1, max_size=2)
    table = st.dictionaries(text, count, max_size=2)
    wrong = {
        int: [null, flag, real, text, nested, table],
        float: [null, flag, text, nested, table,
                st.sampled_from([float("nan"), float("inf"), -float("inf")])],
        str: [null, flag, count, real, nested, table],
    }
    if not isinstance(default, list):
        return st.one_of(*wrong[type(default)])
    scalars = st.one_of(null, flag, count, real, text, table)
    if not default:
        return scalars
    items = st.lists(st.one_of(*wrong[type(default[0])]), min_size=1, max_size=3)
    return st.one_of(scalars, items)


class TestMalformedParams:
    """Type-malformed parameters (unknown keys, wrong types, ``null``,
    nested lists, non-finite floats) are a ``bad_request`` through both
    entry points, never another exception; none reaches compute."""

    @staticmethod
    def _malformed_request(data, command):
        from hypothesis import strategies as st

        from repro.serve.service import JOB_KINDS

        defaults = JOB_KINDS[JOB_COMMANDS[command]].defaults
        key = data.draw(
            st.sampled_from(
                [k for k in defaults if k != "energy_model"] + ["workers", None]
            )
        )
        if key is None:  # an unknown key
            key = data.draw(
                st.text(min_size=1, max_size=6).filter(
                    lambda k: k not in defaults and k != "workers"
                )
            )
            return {key: data.draw(st.integers())}
        if key == "workers":
            return {key: data.draw(_malformed(1).filter(lambda v: v is not None))}
        return {key: data.draw(_malformed(defaults[key]))}

    @pytest.mark.parametrize("command", sorted(JOB_COMMANDS))
    def test_malformed_params_are_bad_requests(self, command):
        import asyncio

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.cli import _run_job
        from repro.serve import BadRequestError, SimulationService

        args = build_parser().parse_args([command])
        kind = JOB_COMMANDS[command]

        @settings(max_examples=40, deadline=None)
        @given(data=st.data())
        def check(data):
            params = self._malformed_request(data, command)
            with pytest.raises(BadRequestError):
                asyncio.run(
                    SimulationService().submit({"kind": kind, "params": params})
                )
            assert _run_job(kind, args, **params) == (None, None)

        check()


def test_readme_cli_lines_parse():
    """Every ``cimflow ...`` command in README's shell blocks parses."""
    import pathlib
    import re
    import shlex

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```bash\n(.*?)```", readme.read_text(), re.S)
    commands = []
    for block in blocks:
        pending = ""
        for line in block.splitlines():
            if not pending and not line.startswith("cimflow "):
                continue
            pending += line + "\n"
            try:  # a quoted argument may continue on the next line
                argv = shlex.split(pending, comments=True)
            except ValueError:
                continue
            pending = ""
            commands.append([a for a in argv[1:] if a != "&"])
    assert len(commands) >= 20
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_importing_the_cli_does_not_import_scipy():
    """SciPy is imported only where a sparse nodal system is assembled or
    solved, so the CLI and a server that deploys no IR-drop model start
    without its import time and memory."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, repro.cli, repro.serve; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
