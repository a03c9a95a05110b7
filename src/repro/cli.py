"""Command-line interface: run the paper reproductions from a shell.

Usage::

    python -m repro.cli table1          # Table I with measured columns
    python -m repro.cli fig5            # CIM tile area/power breakdown
    python -m repro.cli yield           # accuracy-vs-yield sweep ([38])
    python -m repro.cli fig7            # power-changepoint scenario ([52])
    python -m repro.cli eda adder4      # EDA flow comparison on a circuit
    python -m repro.cli chip            # accelerator dimensioning sweeps
    python -m repro.cli report          # instrumented telemetry run report
    python -m repro.cli pipeline        # pipelined multi-tile DSE + Pareto front
    python -m repro.cli ecc-advisor     # ECC code per yield/workload
    python -m repro.cli attention       # fork-join attention DSE
    python -m repro.cli train           # in-situ training under wear/drift
    python -m repro.cli serve           # simulation job server (batching+cache)
    python -m repro.cli submit stats    # query a running server

(or ``cimflow <command>`` once the package is installed).

``pipeline``, ``ecc-advisor``, ``attention`` and ``train`` are clients of
the served job kinds ``dse``, ``ecc``, ``attention`` and ``train``
(:data:`repro.serve.service.JOB_KINDS`): their flags are generated from
the kind's defaults, and the request is checked and run in-process by
the kind's own ``prepare`` and ``execute``, the code that serves it.
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


def _instrumented_report(args, energy_model: str, verbose: bool = True):
    """One instrumented run, charges priced under ``energy_model``: the
    served ``pipeline`` job on the reference MLP, or the Fig-5 run.
    Returns ``None`` after printing why the run was rejected."""
    if args.source == "pipeline":
        result, report = _run_job(
            "pipeline", args, workload="mlp", energy_model=energy_model
        )
        if result is not None and verbose:
            _print_table(
                "Pipeline stage utilization (pipelined run)",
                result["stage_table"],
            )
        return report
    from repro.costs import use_model
    from repro.periphery.area_power import fig5_instrumented_report

    with use_model(energy_model):
        return fig5_instrumented_report(
            batch=args.batch, adc_bits=args.adc_bits, rng=args.seed
        )


def cmd_report(args) -> int:
    report = _instrumented_report(args, args.energy_model)
    if report is None:
        return 2
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
        if baseline is None:
            return 2
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


def _run_job(name: str, args, /, **params):
    """Run the ``cimflow serve`` job kind ``name`` in-process through the
    server's own :meth:`~repro.serve.service.JobKind.prepare` and
    :meth:`~repro.serve.service.JobKind.execute`.  The request is every
    ``args`` attribute named like one of the kind's parameters (a job
    command's generated flags, ``--seed`` and ``--energy-model``) plus
    ``--workers``, overridden by ``params``.  Returns the job's
    ``(result, report)``, or ``(None, None)`` after printing why the
    request was rejected."""
    from repro.serve.cache import ArtifactCache
    from repro.serve.service import JOB_KINDS, BadRequestError

    kind = JOB_KINDS[name]
    request = {
        **{k: v for k, v in vars(args).items() if k in kind.defaults},
        # ``report`` has no ``--workers``; its pipeline job is serial.
        "workers": getattr(args, "workers", 0),
        **params,
    }
    try:
        cfg, workers, spec = kind.prepare(name, request)
        return kind.execute(name, cfg, workers, spec, ArtifactCache())
    except BadRequestError as exc:
        print(str(exc), file=sys.stderr)
        return None, None


def _write_json(path: Optional[str], payload, what: str) -> None:
    """The ``--json`` flag: write ``payload`` to ``path``, if given."""
    import json

    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"{what} written to {path}")


def _csv(item: type):
    """Flag type: a comma-separated value as a list of ``item``."""

    def parse(text: str) -> list:
        return [item(v.strip()) for v in text.split(",") if v.strip()]

    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


def cmd_pipeline(args) -> int:
    result, _ = _run_job("dse", args)
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
        f"vs tiles (batch {','.join(map(str, args.batch_sizes))}, "
        f"micro-batch {args.micro_batch}, {args.energy_model} energy model)",
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
    analysis = result["pareto"]
    front_display = _display(analysis["front"])
    for shown, row in zip(front_display, analysis["front"]):
        shown["knee"] = row["knee"]
    _print_table(
        f"Pareto front over {', '.join(args.objectives)} "
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
    _write_json(args.json, result, "exploration result")
    return 0


def cmd_ecc_advisor(args) -> int:
    result, _ = _run_job("ecc", args)
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
        f"ECC co-design sweep: {len(args.codes)} codes x "
        f"{len(args.yields)} yields x workload scenarios "
        f"({args.energy_model} energy model, {args.mc_words} MC words/trial)",
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
    result, _ = _run_job("attention", args)
    if result is None:
        return 2
    rows = result["rows"]
    _print_table(
        f"Attention fork-join DSE (d_model {args.d_model}, batch "
        f"{args.batch}, {args.n_tiles} tiles, {args.energy_model} energy "
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
    result, _ = _run_job("train", args)
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


def _add_job_command(sub, command: str, name: str, help: str, **aliases):
    """The subcommand ``command``: a client of the ``cimflow serve`` job
    kind ``name`` with one ``--<key>`` flag per parameter, typed and
    defaulted from ``JOB_KINDS[name].defaults`` (a list flag takes
    comma-separated values of its first element's type, ``str`` when the
    default is empty).  ``aliases`` maps a key to an extra spelling.
    ``seed`` is the global ``--seed``; ``energy_model`` is
    ``--energy-model``."""
    from repro.serve.service import JOB_KINDS

    parser = sub.add_parser(command, help=help)
    for key, default in JOB_KINDS[name].defaults.items():
        if key in ("seed", "energy_model"):
            continue
        flags = [f"--{key.replace('_', '-')}"]
        if key in aliases:
            flags.append(aliases[key])
        if isinstance(default, list):
            parse = _csv(type(default[0]) if default else str)
            shown = ",".join(map(str, default)) or "none"
        else:
            parse, shown = type(default), default
        parser.add_argument(
            *flags, dest=key, type=parse, default=default,
            help=f"{name} parameter {key} (default {shown})",
        )
    parser.add_argument(
        "--json", default=None, help="also write the output JSON to this path"
    )
    _add_energy_model_arg(parser)
    _add_workers_arg(parser)


def build_parser() -> argparse.ArgumentParser:
    from repro.serve.service import REQUEST_KINDS

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

    _add_job_command(
        sub, "pipeline", "dse",
        "pipelined multi-tile DSE: throughput vs tiles, Pareto front",
        tile_counts="--tiles", batch_sizes="--batch",
    )
    _add_job_command(
        sub, "ecc-advisor", "ecc",
        "ECC co-design: Pareto-select a code per yield/workload",
    )
    _add_job_command(
        sub, "attention", "attention",
        "fork-join attention block DSE through the pipeline IR",
        n_tiles="--tiles",
    )
    _add_job_command(
        sub, "train", "train",
        "in-situ training: accuracy vs epochs under endurance/drift",
    )

    serve = sub.add_parser(
        "serve",
        help="run the simulation job server (JSON-lines over TCP)",
        description="Run the simulation job server (JSON-lines over TCP). "
        "Infer requests on the same model that reach the server in one "
        "event-loop turn coalesce into one batched crossbar call, flushed "
        "at the next turn; no request waits on a timer.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8473)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="flush a coalesced batch inline at this many requests; "
        "1 serves infers one at a time (default 16)",
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
        "kind", choices=REQUEST_KINDS, help="request kind, as the server names it"
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
