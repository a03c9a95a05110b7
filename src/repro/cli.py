"""Command-line interface: run the paper reproductions from a shell.

Usage::

    python -m repro.cli table1          # Table I with measured columns
    python -m repro.cli fig5            # CIM tile area/power breakdown
    python -m repro.cli yield           # accuracy-vs-yield sweep ([38])
    python -m repro.cli fig7            # power-changepoint scenario ([52])
    python -m repro.cli eda adder4      # EDA flow comparison on a circuit
    python -m repro.cli chip            # accelerator dimensioning sweeps
    python -m repro.cli report          # instrumented telemetry run report
    python -m repro.cli pipeline        # pipelined multi-tile DSE curve
    python -m repro.cli serve           # simulation job server (batching+cache)
    python -m repro.cli submit stats    # query a running server

(or ``cimflow <command>`` once the package is installed).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence


def _print_table(title: str, rows: List[Dict], columns=None) -> None:
    if not rows:
        print(f"\n== {title} == (empty)")
        return
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value):
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.001:
                return f"{value:.3e}"
            return f"{value:.4g}"
        return str(value)

    widths = {
        c: max(len(str(c)), max(len(fmt(r.get(c))) for r in rows))
        for c in columns
    }
    print(f"\n== {title} ==")
    print("  ".join(str(c).ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(fmt(row.get(c)).ljust(widths[c]) for c in columns))


def cmd_table1(args) -> int:
    from repro.core.comparison import quantitative_table_i

    _print_table(
        "Table I: architecture comparison (ratings + measurements)",
        quantitative_table_i(rng=args.seed),
    )
    return 0


def cmd_fig5(args) -> int:
    from repro.periphery.area_power import (
        adc_resolution_sweep,
        isaac_tile_budget,
    )

    budget = isaac_tile_budget(adc_bits=args.adc_bits)
    _print_table("Fig 5: CIM tile breakdown", budget.table())
    share = budget.share("adc")
    print(
        f"\nADC share: {share['area']:.1%} of area, "
        f"{share['power']:.1%} of power "
        "(paper: >90% / >65%)"
    )
    _print_table("ADC resolution sweep", adc_resolution_sweep())
    return 0


def cmd_yield(args) -> int:
    if args.model == "cnn":
        from repro.apps.cnn import cnn_accuracy_vs_yield

        rows = cnn_accuracy_vs_yield(rng=args.seed, workers=args.workers)
        _print_table("CNN accuracy vs yield under SA0 faults ([38])", rows)
        return 0
    from repro.apps.nn import accuracy_vs_yield

    rows = accuracy_vs_yield(rng=args.seed, workers=args.workers)
    _print_table("Accuracy vs yield under SA0 faults ([38])", rows)
    at80 = next(r for r in rows if r["yield"] == 0.8)
    print(
        f"\ndrop at 80% yield: {at80['drop']:.0%} "
        "(paper quotes ~35% on ImageNet)"
    )
    return 0


def cmd_fig7(args) -> int:
    from repro.testing.changepoint import (
        CusumDetector,
        OnlinePowerTestbench,
        PageHinkleyDetector,
    )

    bench = OnlinePowerTestbench(
        rows=64,
        cols=64,
        fault_rate=args.fault_rate,
        inject_at=args.inject_at,
        activity=0.8,
        rng=args.seed,
    )
    trace = bench.run(2 * args.inject_at)
    cusum = CusumDetector().run(trace)
    ph = PageHinkleyDetector().run(trace)
    _print_table(
        "Fig 7: online changepoint detection ([52])",
        [
            {"metric": "fault injection cycle", "value": args.inject_at},
            {"metric": "injected fault rate", "value": args.fault_rate},
            {"metric": "CUSUM detection cycle", "value": cusum},
            {"metric": "Page-Hinkley detection cycle", "value": ph},
        ],
        columns=["metric", "value"],
    )
    return 0


def cmd_eda(args) -> int:
    from repro.eda.benchmarks import standard_suite
    from repro.eda.flow import EdaFlow

    suite = standard_suite()
    if args.circuit not in suite:
        print(
            f"unknown circuit {args.circuit!r}; available: "
            f"{', '.join(sorted(suite))}",
            file=sys.stderr,
        )
        return 2
    results = EdaFlow().run(suite[args.circuit])
    rows = [
        {
            "family": family,
            "delay": r.delay,
            "devices": r.area,
            "adp": r.area_delay_product,
            "verified": r.verified,
        }
        for family, r in results.items()
    ]
    _print_table(f"EDA flow comparison on {args.circuit}", rows)
    return 0


def _pipeline_run_report(args, verbose: bool = True):
    from repro.pipeline import (
        PipelineScheduler,
        ScheduleParams,
        TileInventory,
        allocate,
        reference_graph,
    )

    import numpy as np

    graph = reference_graph()
    alloc = allocate(
        graph,
        TileInventory(n_tiles=16),
        duplication="auto",
        rng=args.seed,
    )
    x = np.random.default_rng(args.seed + 1).uniform(
        0.0, 1.0, size=(args.batch, graph.in_features)
    )
    sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=8))
    result = sched.run(x, mode="pipelined")
    if verbose:
        _print_table(
            "Pipeline stage utilization (pipelined run)", result.stage_table()
        )
    return result.report("pipeline_report")


def _instrumented_report(args, energy_model: str, verbose: bool = True):
    """One instrumented run, charges priced under ``energy_model``."""
    from repro.costs import use_model

    with use_model(energy_model):
        if args.source == "pipeline":
            return _pipeline_run_report(args, verbose=verbose)
        from repro.periphery.area_power import fig5_instrumented_report

        return fig5_instrumented_report(
            batch=args.batch, adc_bits=args.adc_bits, rng=args.seed
        )


def cmd_report(args) -> int:
    report = _instrumented_report(args, args.energy_model)
    report.validate()
    _print_table(
        f"Instrumented run report: per-category costs "
        f"({args.energy_model} energy model)",
        report.category_table(),
    )
    if args.diff:
        # Re-run the identical workload under the static model and show
        # where value-aware pricing moves the energy.
        baseline_model = (
            "static" if args.energy_model != "static" else "value_aware"
        )
        baseline = _instrumented_report(args, baseline_model, verbose=False)
        baseline.validate()
        static, other = (
            (baseline, report)
            if baseline_model == "static"
            else (report, baseline)
        )
        diff_rows = []
        for category in sorted(
            set(static.categories) | set(other.categories)
        ):
            s = static.categories.get(category, {}).get("energy", 0.0)
            v = other.categories.get(category, {}).get("energy", 0.0)
            diff_rows.append(
                {
                    "category": category,
                    "static_J": s,
                    "value_aware_J": v,
                    "ratio": v / s if s > 0 else float("nan"),
                }
            )
        _print_table(
            "Energy diff: static vs value-aware pricing", diff_rows,
            columns=["category", "static_J", "value_aware_J", "ratio"],
        )
    _print_table(
        "Side counters",
        [{"counter": k, "value": v} for k, v in sorted(report.counters.items())],
        columns=["counter", "value"],
    )
    histogram = {
        k: v
        for k, v in report.counters.items()
        if k.startswith("adc.codes.histogram.")
    }
    if histogram:
        total = sum(histogram.values())
        print("\nADC output-code histogram (full scale in 8 buckets):")
        for key in sorted(histogram):
            frac = histogram[key] / total if total else 0.0
            bar = "#" * int(round(frac * 40))
            print(f"  {key.rsplit('.', 1)[-1]}: {histogram[key]:>12.0f}  {bar}")
    _print_table(
        "Area breakdown (mm^2)",
        [
            {"component": k, "area_mm2": report.area[k], "share": f}
            for (k, f) in report.area_fractions().items()
        ],
        columns=["component", "area_mm2", "share"],
    )
    print(
        "solver LU cache: "
        f"{report.counters.get('solver.cache_hits', 0.0):.0f} hits, "
        f"{report.counters.get('solver.cache_misses', 0.0):.0f} misses, "
        f"{report.counters.get('solver.cache_evictions', 0.0):.0f} evictions"
    )
    ef, af = report.energy_fractions(), report.area_fractions()
    if args.source == "pipeline":
        busy = report.counters.get("pipeline.tile_busy_s", 0.0)
        avail = report.counters.get("pipeline.tile_seconds", 0.0)
        util = busy / avail if avail > 0 else 0.0
        print(
            f"\ntile utilization: {util:.1%} "
            f"({report.counters.get('pipeline.transfer.bytes', 0.0):.0f} B "
            "moved between stages)"
        )
    else:
        print(
            f"\nADC share of the instrumented compute phase: "
            f"{af['adc']:.1%} of area, {ef['adc']:.1%} of energy/power "
            "(Fig 5 claim: >90% / >65%)"
        )
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.json}")
    return 0


def _run_job(name: str, args, **params):
    """Run the ``cimflow serve`` job kind ``name`` in-process on its
    defaults overridden by ``params`` and ``--seed``, priced under
    ``--energy-model``: the CLI and the server share one library call.
    Returns the job's result, or ``None`` after printing why the
    parameters were rejected."""
    from repro.costs import use_model
    from repro.serve.service import JOB_KINDS, BadRequestError

    kind = JOB_KINDS[name]
    cfg = {**kind.defaults, **params, "seed": args.seed}
    try:
        with use_model(args.energy_model):
            return kind.run(cfg, args.workers, None)[0]
    except (ValueError, BadRequestError) as exc:
        print(str(exc), file=sys.stderr)
        return None


def _csv(text: str, kind=str) -> list:
    """A comma-separated flag value as a list of ``kind``."""
    return [kind(v.strip()) for v in text.split(",") if v.strip()]


def _write_json(path: Optional[str], payload, what: str) -> None:
    """The ``--json`` flag: write ``payload`` to ``path``, if given."""
    import json

    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"{what} written to {path}")


def cmd_pipeline(args) -> int:
    names = _csv(args.objectives) if args.objectives else None
    result = _run_job(
        "dse",
        args,
        tile_counts=_csv(args.tiles, int),
        batch_sizes=[args.batch],
        adc_bits=_csv(args.adc_bits, int),
        workload=args.workload,
        micro_batch=args.micro_batch,
        **({"objectives": names} if names else {}),
    )
    if result is None:
        return 2
    rows = result["rows"]

    def _display(row_set):
        return [
            {
                "tiles": r["tiles"],
                "duplication": r["duplication"],
                "adc_bits": r["adc_bits"],
                "feasible": r["feasible"],
                "tiles_used": r.get("tiles_used", "-"),
                "replicas": (
                    "x".join(str(c) for c in r.get("replicas", [])) or "-"
                ),
                "samples_per_s": r.get("throughput", 0.0),
                "speedup": r.get("speedup", 0.0),
                "util": r.get("utilization", 0.0),
                "J_per_sample": r.get("energy_per_sample", 0.0),
                "accuracy": r.get("accuracy", 0.0),
                "area_mm2": r.get("area_mm2", 0.0),
            }
            for r in row_set
        ]

    _print_table(
        f"Pipelined multi-tile DSE ({args.workload}): throughput/efficiency "
        f"vs tiles (batch {args.batch}, micro-batch {args.micro_batch}, "
        f"{args.energy_model} energy model)",
        _display(rows),
    )
    best = max(
        (r for r in rows if r["feasible"]),
        key=lambda r: r["throughput"],
        default=None,
    )
    if best is not None:
        print(
            f"\nbest: {best['tiles']} tiles ({best['duplication']} "
            f"duplication) -> {best['throughput']:.3e} samples/s, "
            f"{best['speedup']:.2f}x over layer-sequential"
        )
    if names:
        analysis = result["pareto"]
        front_display = _display(analysis["front"])
        for shown, row in zip(front_display, analysis["front"]):
            shown["knee"] = row["knee"]
        _print_table(
            f"Pareto front over {', '.join(names)} "
            f"({len(analysis['front'])} of "
            f"{analysis['feasible_points']} feasible points)",
            front_display,
        )
        knee = analysis["knee"]
        if knee is not None:
            print(
                f"\nknee point: {knee['tiles']} tiles, "
                f"{knee['duplication']} duplication, "
                f"{knee['adc_bits']}-bit ADC -> "
                f"accuracy {knee['accuracy']:.3f}, "
                f"{knee['energy_per_sample']:.3e} J/sample, "
                f"{knee['area_mm2']:.4f} mm^2, "
                f"{knee['throughput']:.3e} samples/s"
            )
        _print_table(
            "Parameter sensitivity (main effect / objective span)",
            [
                {"parameter": param, **per_objective}
                for param, per_objective in analysis["sensitivity"].items()
            ],
        )
    _write_json(args.json, result if names else rows, "exploration rows")
    return 0


def cmd_ecc_advisor(args) -> int:
    codes = _csv(args.codes)
    yields = _csv(args.yields, float)
    result = _run_job(
        "ecc",
        args,
        codes=codes,
        yields=yields,
        data_bits=args.data_bits,
        mc_words=args.mc_words,
        trials=args.trials,
    )
    if result is None:
        return 2
    rows, analysis = result["rows"], result["advice"]

    def _display(row_set):
        return [
            {
                "code": r["code"],
                "yield": r["cell_yield"],
                "scenario": r["scenario"],
                "n/k": f"{r['codeword_bits']}/{r['data_bits']}",
                "coverage": r["coverage"],
                "J_per_word": r["energy_per_word_J"],
                "s_per_word": r["latency_per_word_s"],
                "area_mm2": r["area_mm2"],
                **({"knee": r["knee"]} if "knee" in r else {}),
            }
            for r in row_set
        ]

    _print_table(
        f"ECC co-design sweep: {len(codes)} codes x {len(yields)} yields x "
        f"workload scenarios ({args.energy_model} energy model, "
        f"{args.mc_words} MC words/trial)",
        _display(rows),
    )
    _print_table(
        f"Pareto front over {', '.join(analysis['objectives'])} "
        f"({len(analysis['front'])} of {analysis['points']} points)",
        _display(analysis["front"]),
    )
    knee = analysis["knee"]
    if knee is not None:
        print(
            f"\nknee point: {knee['code']} at yield {knee['cell_yield']} "
            f"({knee['scenario']}) -> coverage {knee['coverage']:.4f}, "
            f"{knee['energy_per_word_J']:.3e} J/word, "
            f"{knee['latency_per_word_s']:.3e} s/word, "
            f"{knee['area_mm2']:.3e} mm^2"
        )
    _print_table(
        "Recommended code per (scenario, yield) — knee of each cell",
        [
            {
                "scenario": r["scenario"],
                "yield": r["cell_yield"],
                "code": r["code"],
                "coverage": r["coverage"],
                "J_per_word": r["energy_per_word_J"],
            }
            for r in analysis["recommendations"]
        ],
    )
    _print_table(
        "Parameter sensitivity (main effect / objective span)",
        [
            {"parameter": param, **per_objective}
            for param, per_objective in analysis["sensitivity"].items()
        ],
    )
    _write_json(args.json, result, "advisor rows")
    return 0


def cmd_attention(args) -> int:
    result = _run_job(
        "attention",
        args,
        seqs=_csv(args.seqs, int),
        d_heads=_csv(args.d_heads, int),
        micro_batches=_csv(args.micro_batches, int),
        d_model=args.d_model,
        batch=args.batch,
        n_tiles=args.tiles,
    )
    if result is None:
        return 2
    rows = result["rows"]
    _print_table(
        f"Attention fork-join DSE (d_model {args.d_model}, batch "
        f"{args.batch}, {args.tiles} tiles, {args.energy_model} energy "
        "model)",
        [
            {
                "seq": r["seq"],
                "d_head": r["d_head"],
                "micro_batch": r["micro_batch"],
                "feasible": r["feasible"],
                "tiles_used": r.get("tiles_used", "-"),
                "speedup": r.get("speedup", 0.0),
                "samples_per_s": r.get("throughput", 0.0),
                "J_per_sample": r.get("energy_per_sample", 0.0),
                "transfers": r.get("transfers", 0.0),
                "bit_identical": r.get("bit_identical", "-"),
            }
            for r in rows
        ],
    )
    best = max(
        (r for r in rows if r["feasible"]),
        key=lambda r: r["speedup"],
        default=None,
    )
    if best is not None:
        print(
            f"\nbest: seq {best['seq']}, d_head {best['d_head']}, "
            f"micro-batch {best['micro_batch']} -> "
            f"{best['speedup']:.2f}x pipelined over layer-sequential"
        )
    _write_json(args.json, rows, "exploration rows")
    return 0


def cmd_train(args) -> int:
    result = _run_job(
        "train",
        args,
        lives=_csv(args.lives, float),
        drift_nus=_csv(args.drift_nus, float),
        epochs=args.epochs,
        write_sigma=args.write_sigma,
    )
    if result is None:
        return 2
    rows = result["rows"]
    _print_table(
        f"In-situ training: endurance life x drift over {args.epochs} "
        f"epochs ({args.energy_model} energy model)",
        [
            {
                "char_life": r["characteristic_life"],
                "drift_nu": r["drift_nu"],
                "final_acc": r["final_accuracy"],
                "dead_cells": r["dead_cells"],
                "pulses": r["total_pulses"],
                "J_writes": r["write_energy_j"],
            }
            for r in rows
        ],
    )
    _print_table(
        "Accuracy / dead cells vs epoch (device aging in situ)",
        [
            {
                "char_life": r["characteristic_life"],
                "drift_nu": r["drift_nu"],
                **{
                    f"e{e}": (
                        f"{r[f'accuracy_epoch{e}']:.3f}"
                        f"/{r[f'dead_cells_epoch{e}']}"
                    )
                    for e in range(args.epochs)
                },
            }
            for r in rows
        ],
    )
    _write_json(args.json, rows, "training rows")
    return 0


def cmd_serve(args) -> int:
    from repro.serve import ServiceConfig, serve_forever

    serve_forever(
        host=args.host,
        port=args.port,
        config=ServiceConfig(
            max_inflight=args.max_inflight,
            batch_window_s=args.window,
            max_batch=args.max_batch,
        ),
        ready_callback=lambda host, port: print(
            f"cimflow serve: listening on {host}:{port}", flush=True
        ),
    )
    return 0


def cmd_submit(args) -> int:
    import json as _json

    from repro.serve import ServeClient

    try:
        params = _json.loads(args.params) if args.params else {}
    except _json.JSONDecodeError as exc:
        print(f"--params is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        with ServeClient(
            host=args.host, port=args.port, timeout=args.timeout
        ) as client:
            response = client.request(args.kind, params)
    except (ConnectionError, OSError) as exc:
        print(
            f"cannot reach cimflow serve at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(_json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("ok") else 1
    if not response.get("ok"):
        err = response.get("error", {})
        print(
            f"error [{err.get('code', '?')}]: {err.get('message', '')}",
            file=sys.stderr,
        )
        return 1
    print(f"kind: {response['kind']}  cache: {response.get('cache', 'none')}")
    result = response.get("result", {})
    if isinstance(result, dict) and isinstance(result.get("rows"), list):
        _print_table("result rows", result["rows"])
    elif isinstance(result, dict) and "prediction" in result:
        print(f"prediction: {result['prediction']}")
    else:
        print(_json.dumps(result, sort_keys=True))
    report = response.get("report", {})
    totals = report.get("totals", {})
    if totals:
        print(
            f"request cost: {totals.get('energy', 0.0):.3e} J, "
            f"{totals.get('latency', 0.0):.3e} s, "
            f"{totals.get('data_moved', 0.0):.3e} B"
        )
    return 0


def cmd_chip(args) -> int:
    from repro.core.dimensioning import adc_bits_sweep, technology_sweep

    _print_table(
        "Chip dimensioning: ADC resolution",
        [r.row() for r in adc_bits_sweep()],
    )
    _print_table(
        "Chip dimensioning: memory technology",
        [r.row() for r in technology_sweep()],
    )
    return 0


def _add_energy_model_arg(sub_parser) -> None:
    sub_parser.add_argument(
        "--energy-model",
        choices=("static", "value_aware"),
        default="static",
        help=(
            "how charges are priced: static constants (default) or "
            "value-aware per-element pricing"
        ),
    )


def _add_workers_arg(sub_parser) -> None:
    sub_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "sweep-engine workers (0 = serial, -1 = all cores, "
            "default: $REPRO_WORKERS)"
        ),
    )


def _request_kind(value: str) -> str:
    """``submit``'s kind, checked against the server's kinds on use (so
    other commands never import the serving layer)."""
    from repro.serve.service import REQUEST_KINDS

    if value not in REQUEST_KINDS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} "
            f"(choose from {', '.join(REQUEST_KINDS)})"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cimflow",
        description=(
            "Reproductions of 'Perspectives on Emerging Computation-in-"
            "Memory Paradigms' (DATE 2021)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="experiment RNG seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I with measured columns")

    fig5 = sub.add_parser("fig5", help="CIM tile area/power breakdown")
    fig5.add_argument("--adc-bits", type=int, default=8)

    yld = sub.add_parser("yield", help="accuracy-vs-yield sweep ([38])")
    yld.add_argument(
        "--model",
        choices=("mlp", "cnn"),
        default="mlp",
        help="deployed network to sweep (default mlp)",
    )
    _add_workers_arg(yld)

    fig7 = sub.add_parser("fig7", help="power changepoint scenario ([52])")
    fig7.add_argument("--fault-rate", type=float, default=0.1)
    fig7.add_argument("--inject-at", type=int, default=600)

    eda = sub.add_parser("eda", help="EDA flow comparison")
    eda.add_argument(
        "circuit",
        nargs="?",
        default="adder4",
        help="circuit from the standard suite (default adder4)",
    )

    sub.add_parser("chip", help="accelerator dimensioning sweeps")

    report = sub.add_parser(
        "report", help="telemetry run report from an instrumented Fig-5 run"
    )
    report.add_argument("--adc-bits", type=int, default=8)
    report.add_argument("--batch", type=int, default=32)
    report.add_argument(
        "--json", default=None, help="also write the report JSON to this path"
    )
    report.add_argument(
        "--source",
        choices=("fig5", "pipeline"),
        default="fig5",
        help="instrumented run to report on (default fig5)",
    )
    _add_energy_model_arg(report)
    report.add_argument(
        "--diff",
        action="store_true",
        help=(
            "re-run the same workload under the other pricing model and "
            "show the per-category static vs value-aware energy diff"
        ),
    )

    pipe = sub.add_parser(
        "pipeline", help="pipelined multi-tile DSE: throughput vs tiles"
    )
    pipe.add_argument(
        "--tiles",
        default="4,8,16,32",
        help="comma-separated tile inventories to sweep",
    )
    pipe.add_argument("--batch", type=int, default=64)
    pipe.add_argument("--micro-batch", type=int, default=8)
    pipe.add_argument(
        "--adc-bits",
        default="8",
        help="comma-separated ADC resolutions to sweep (default 8)",
    )
    pipe.add_argument(
        "--workload",
        choices=("cnn", "mlp"),
        default="cnn",
        help="reference model (cnn = conv-bottlenecked, default)",
    )
    pipe.add_argument(
        "--objectives",
        default=None,
        help=(
            "comma-separated objectives (accuracy, energy, area, "
            "throughput); when given, the grid is reduced to a Pareto "
            "front with a knee point and parameter sensitivities"
        ),
    )
    pipe.add_argument(
        "--json", default=None, help="also write the rows as JSON to this path"
    )
    _add_energy_model_arg(pipe)
    _add_workers_arg(pipe)

    ecc = sub.add_parser(
        "ecc-advisor",
        help="ECC co-design: Pareto-select a code per yield/workload",
    )
    ecc.add_argument(
        "--codes",
        default="secded,bch,secdaec",
        help="comma-separated ECC codes to sweep (default all registered)",
    )
    ecc.add_argument(
        "--yields",
        default="0.9999,0.999,0.99,0.97",
        help="comma-separated crossbar cell yields to sweep",
    )
    ecc.add_argument(
        "--data-bits",
        type=int,
        default=32,
        help="protected word width (default 32)",
    )
    ecc.add_argument(
        "--mc-words",
        type=int,
        default=4096,
        help="Monte Carlo words per trial (default 4096)",
    )
    ecc.add_argument(
        "--trials",
        type=int,
        default=2,
        help="independent trials per grid point (default 2)",
    )
    ecc.add_argument(
        "--json",
        default=None,
        help="also write rows + advice as JSON to this path",
    )
    _add_energy_model_arg(ecc)
    _add_workers_arg(ecc)

    att = sub.add_parser(
        "attention",
        help="fork-join attention block DSE through the pipeline IR",
    )
    att.add_argument(
        "--seqs",
        default="4,8",
        help="comma-separated sequence lengths to sweep (default 4,8)",
    )
    att.add_argument(
        "--d-heads",
        default="4,8",
        help="comma-separated head widths to sweep (default 4,8)",
    )
    att.add_argument(
        "--micro-batches",
        default="4",
        help="comma-separated micro-batch sizes to sweep (default 4)",
    )
    att.add_argument("--d-model", type=int, default=16)
    att.add_argument("--batch", type=int, default=16)
    att.add_argument(
        "--tiles", type=int, default=16, help="tile inventory (default 16)"
    )
    att.add_argument(
        "--json", default=None, help="also write the rows as JSON to this path"
    )
    _add_energy_model_arg(att)
    _add_workers_arg(att)

    train = sub.add_parser(
        "train",
        help="in-situ training: accuracy vs epochs under endurance/drift",
    )
    train.add_argument(
        "--lives",
        default="8,12,1e6",
        help=(
            "comma-separated Weibull characteristic lives in writes "
            "(default 8,12,1e6)"
        ),
    )
    train.add_argument(
        "--drift-nus",
        default="0.0,0.01",
        help="comma-separated drift exponents to sweep (default 0.0,0.01)",
    )
    train.add_argument("--epochs", type=int, default=5)
    train.add_argument(
        "--write-sigma",
        type=float,
        default=0.05,
        help="lognormal programming-noise sigma (default 0.05)",
    )
    train.add_argument(
        "--json", default=None, help="also write the rows as JSON to this path"
    )
    _add_energy_model_arg(train)
    _add_workers_arg(train)

    serve = sub.add_parser(
        "serve", help="run the simulation job server (JSON-lines over TCP)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8473)
    serve.add_argument(
        "--window",
        type=float,
        default=0.005,
        help="inference coalescing window in seconds (default 0.005)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="flush a coalesced batch at this many requests (default 16)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission-control bound on in-flight jobs (default 64)",
    )

    submit = sub.add_parser(
        "submit", help="submit one request to a running cimflow serve"
    )
    submit.add_argument(
        "kind", type=_request_kind, help="request kind, as the server names it"
    )
    submit.add_argument(
        "--params",
        default=None,
        help='request parameters as JSON, e.g. \'{"x": [[0.1, ...]]}\'',
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8473)
    submit.add_argument("--timeout", type=float, default=300.0)
    submit.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON response instead of a summary",
    )
    return parser


_COMMANDS = {
    "table1": cmd_table1,
    "fig5": cmd_fig5,
    "yield": cmd_yield,
    "fig7": cmd_fig7,
    "eda": cmd_eda,
    "chip": cmd_chip,
    "report": cmd_report,
    "pipeline": cmd_pipeline,
    "ecc-advisor": cmd_ecc_advisor,
    "attention": cmd_attention,
    "train": cmd_train,
    "serve": cmd_serve,
    "submit": cmd_submit,
}

#: Subcommands backed by the deterministic sweep engine; each accepts the
#: global ``--seed`` and its own ``--workers`` (tests assert this).
SWEEP_COMMANDS = ("yield", "pipeline", "ecc-advisor", "attention", "train")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.cli`` / the ``cimflow`` script."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
