"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Runs every reproduction experiment at a modest scale and writes the
record.  Usage:  python scripts/generate_experiments_md.py
"""

import io
import sys

import numpy as np


def main():
    out = io.StringIO()
    w = out.write
    w("# EXPERIMENTS — paper vs. measured\n\n")
    w("Generated by `scripts/generate_experiments_md.py`; every row is\n")
    w("re-derived by the corresponding benchmark in `benchmarks/`.\n")
    w("Absolute numbers come from the simulator substitutes documented in\n")
    w("DESIGN.md; the reproduction target is the *shape* of each claim.\n\n")

    # ---------------------------------------------------------------- Table I
    from repro.core.comparison import ArchitectureComparator

    m = ArchitectureComparator(rng=0).measure_all()
    checks = ArchitectureComparator(rng=0).ordering_consistent_with_table_i(m)
    w("## Table I — architecture comparison\n\n")
    w("| paper claim | measured | holds |\n|---|---|---|\n")
    from repro.core.classification import ArchitectureClass as AC

    w(
        "| CIM does not move computation data outside the core | "
        f"CIM-A/CIM-P move {m[AC.CIM_A].data_moved_bytes:.0f} B (I/O vectors) vs "
        f"COM-F {m[AC.COM_F].data_moved_bytes:.0f} B | "
        f"{checks['cim_moves_less_data']} |\n"
    )
    bw = {a: v.effective_bandwidth / 1e9 for a, v in m.items()}
    w(
        "| bandwidth: CIM-A Max >= CIM-P High-Max > COM-N High > COM-F Low | "
        f"{bw[AC.CIM_A]:.0f} / {bw[AC.CIM_P]:.0f} / {bw[AC.COM_N]:.0f} / "
        f"{bw[AC.COM_F]:.0f} GB/s | {checks['bandwidth_order']} |\n\n"
    )

    # ------------------------------------------------------------------ Fig 1
    from repro.core.vonneumann import VonNeumannMachine

    gen = np.random.default_rng(0)
    vn = VonNeumannMachine()
    vn.run_workload(gen.uniform(0, 1, (16, 128)), gen.uniform(-1, 1, (128, 64)))
    movement = vn.costs.energy_fraction("data_movement")
    w("## Fig 1 — the von-Neumann bottleneck\n\n")
    w("| paper claim | measured |\n|---|---|\n")
    w(
        "| CPUs/GPUs 'spend excessive time and energy moving data' | "
        f"data movement takes {movement:.0%} of workload energy on the "
        "COM-F model |\n\n"
    )

    # ------------------------------------------------------------------ Fig 3
    from repro.devices.memristor import LinearIonDriftMemristor

    slow = LinearIonDriftMemristor(x0=0.1).sweep(1.0, 10, points_per_cycle=1000)
    fast = LinearIonDriftMemristor(x0=0.1).sweep(1.0, 1e4, points_per_cycle=1000)
    w("## Fig 3 — ReRAM device model\n\n")
    w("| property | measured |\n|---|---|\n")
    w(f"| pinched hysteresis loop | {slow.hysteresis_is_pinched()} |\n")
    w(
        "| loop collapses at high frequency | area ratio "
        f"{slow.loop_area() / max(fast.loop_area(), 1e-30):.0f}x "
        "(10 Hz vs 10 kHz) |\n\n"
    )

    # ------------------------------------------------------------------ Fig 4
    from repro.crossbar.array import CrossbarArray, CrossbarConfig

    xbar = CrossbarArray(CrossbarConfig(rows=128, cols=128), rng=1)
    levels = xbar.config.levels
    g = gen.uniform(levels.g_min, levels.g_max, (128, 128))
    xbar.program(g)
    v = gen.uniform(0, 0.2, 128)
    err = float(np.max(np.abs(xbar.vmm(v) - v @ g)))
    w("## Fig 4 — crossbar VMM, O(1) MACs\n\n")
    w("| paper claim | measured |\n|---|---|\n")
    w(
        "| `I_j = sum_i V_i G_ij`, all n MACs in O(1) | 128x128 VMM in 1 "
        f"analog step, max abs deviation {err:.2e} A (exact KCL) |\n\n"
    )

    # ------------------------------------------------------------------ Fig 5
    from repro.periphery.area_power import isaac_tile_budget

    share = isaac_tile_budget().share("adc")
    w("## Fig 5 — ADC dominance\n\n")
    w("| paper claim | measured | holds |\n|---|---|---|\n")
    w(f"| ADC > 90% of CIM die area | {share['area']:.1%} | {share['area'] > 0.9} |\n")
    w(f"| ADC > 65% of power | {share['power']:.1%} | {share['power'] > 0.65} |\n\n")

    # -------------------------------------------------- Accuracy vs yield
    from repro.apps.nn import accuracy_vs_yield

    rows = accuracy_vs_yield(yields=(1.0, 0.9, 0.8, 0.7), rng=0)
    by_yield = {r["yield"]: r for r in rows}
    w("## Section III claim — accuracy vs yield ([38])\n\n")
    w("| paper claim | measured | holds |\n|---|---|---|\n")
    drop = by_yield[0.8]["drop"]
    w(
        "| ~35% accuracy drop at 80% yield (SA0) | "
        f"{drop:.0%} drop at 80% yield (synthetic stand-in) | "
        f"{0.2 <= drop <= 0.6} |\n"
    )
    w(
        "| 'even lower' below 80% yield | "
        f"acc(0.7) = {by_yield[0.7]['accuracy']:.2f} <= "
        f"acc(0.8) = {by_yield[0.8]['accuracy']:.2f} + eps | "
        f"{by_yield[0.7]['accuracy'] <= by_yield[0.8]['accuracy'] + 0.05} |\n\n"
    )

    # ----------------------------------------------------------- March / [46]
    from repro.testing.march import (
        MarchTestRunner,
        march_c_star,
        random_fault_population,
    )

    coverage = MarchTestRunner(march_c_star()).coverage(
        64, random_fault_population(64, 60, rng=0)
    )
    w("## Section III-B — March C* and sneak-path testing\n\n")
    w("| paper claim | measured |\n|---|---|\n")
    w(
        "| March C* detects SAF/TF/CF/ADF/read-1-disturb via 6-bit "
        f"signatures | single-fault coverage {coverage:.0%}, "
        f"{march_c_star().reads_per_cell} reads/cell |\n"
    )
    from repro.faults.injection import FaultInjector
    from repro.testing.sneak_path_test import SneakPathTester

    array = CrossbarArray(CrossbarConfig(rows=64, cols=64), rng=2)
    reference = np.full((64, 64), 5e-5)
    array.program(reference)
    FaultInjector(array, rng=3).inject_exact_count(8)
    tester = SneakPathTester(array)
    report = tester.run(reference)
    speedup = march_c_star().operations_per_cell * 64 * 64 / len(report.probes)
    true_cells = {
        (int(r), int(c)) for r, c in zip(*np.nonzero(array.stuck_mask))
    }
    detection = report.detection_rate(true_cells)
    w(
        "| sneak-path testing raises parallelism but stays linear in size | "
        f"{len(report.probes)} measurements vs "
        f"{march_c_star().operations_per_cell * 64 * 64} march ops "
        f"({speedup:.0f}x fewer), detection rate {detection:.0%} |\n\n"
    )

    # ------------------------------------------------------------------ Fig 7
    from repro.testing.changepoint import CusumDetector, OnlinePowerTestbench

    bench = OnlinePowerTestbench(
        rows=64, cols=64, fault_rate=0.1, inject_at=600, activity=0.8, rng=9
    )
    trace = bench.run(1200)
    detected = bench.detect(trace, CusumDetector())
    w("## Fig 7 — online changepoint detection ([52])\n\n")
    w("| paper claim | measured | holds |\n|---|---|---|\n")
    w(
        "| changepoint detected when faults inserted after cycle 600 | "
        f"detected at cycle {detected} | {600 <= detected <= 650} |\n\n"
    )

    # ----------------------------------------------------------------- ECC
    from repro.testing.ecc import EccAnalysis, HammingSecDed

    analysis = EccAnalysis(HammingSecDed(64))
    w("## Section III-C — ECC BER limit ([51])\n\n")
    w("| paper claim | measured |\n|---|---|\n")
    w(
        "| ECC practical when BER < 1e-5 | word-failure probability "
        f"{analysis.word_failure_probability(1e-5):.1e} at BER 1e-5, "
        f"{analysis.word_failure_probability(1e-2):.1e} at BER 1e-2 |\n\n"
    )

    # ----------------------------------------------------------- Section IV
    from repro.eda.benchmarks import standard_suite
    from repro.eda.flow import EdaFlow

    flow = EdaFlow()
    w("## Fig 8 / Section IV — EDA flow and technology mapping\n\n")
    w("| circuit | family | delay | devices | ADP | verified |\n")
    w("|---|---|---|---|---|---|\n")
    all_verified = True
    majority_optimal = True
    for name, aig in standard_suite().items():
        results = flow.run(aig)
        for family, r in results.items():
            w(
                f"| {name} | {family} | {r.delay} | {r.area} | "
                f"{r.area_delay_product} | {r.verified} |\n"
            )
            all_verified &= r.verified
        majority_optimal &= results["majority"].detail["delay_optimal"] == 1.0
    w("\n| paper claim | holds |\n|---|---|\n")
    w(f"| every mapping functionally verified | {all_verified} |\n")
    w(
        "| [67] delay-optimal majority mapping = MIG levels + 1 | "
        f"{majority_optimal} |\n\n"
    )

    # ------------------------------------------------------------- Fig 10-12
    from repro.devices.ferfet import FeRFET, FeRFETParams

    params = FeRFETParams()
    grid = np.linspace(-1.2, 1.2, 121)
    curves = FeRFET.four_state_curves(params)
    distinguishable = FeRFET.states_distinguishable(
        curves, grid, params.operating_voltage
    )
    w("## Figs 10-12 — FeRFET circuits (Section V)\n\n")
    w("| paper claim | measured | holds |\n|---|---|---|\n")
    w(
        "| four individual operation states (Fig 10b) | states separable at "
        f"read voltage | {distinguishable} |\n"
    )
    w(
        "| programming needs 2-3x operating voltage | ratio "
        f"{params.program_voltage_ratio:.1f}x | "
        f"{2 <= params.program_voltage_ratio <= 3} |\n"
    )
    from repro.ferfet.cells import CellFunction, ProgrammableXorCell

    cell = ProgrammableXorCell()
    cell.program(CellFunction.XOR)
    xor_ok = cell.verify()
    cell.program(CellFunction.XNOR)
    xnor_ok = cell.verify()
    w(
        "| Fig 11 cell programmable between XOR and XNOR | both verified | "
        f"{xor_ok and xnor_ok} |\n"
    )
    from repro.ferfet.arrays import LogicInMemoryAdder

    adder = LogicInMemoryAdder()
    adder_ok = all(
        adder.full_add(a, b, c) == ((a + b + c) % 2, (a + b + c) // 2)
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    )
    w(f"| [103] in-array full adder | exhaustive truth table | {adder_ok} |\n")

    from repro.apps.bnn import BinaryMLP, deploy_first_layer
    from repro.apps.datasets import binary_patterns

    x, y = binary_patterns(n_samples=240, n_features=24, rng=0)
    model = BinaryMLP([24, 12, 2], rng=1)
    model.train(x[:160], y[:160], epochs=25, rng=2)
    layer = deploy_first_layer(model)
    exact = all(layer.matches_reference(row) for row in x[:20])
    w(
        "| BNN XNOR-popcount on FeRFETs, digital domain | deployed layer "
        f"bit-exact, accuracy {model.accuracy(x[160:], y[160:]):.2f} | "
        f"{exact} |\n\n"
    )

    # --------------------------------------------------------------- apps
    from repro.apps.datasets import sparse_signals
    from repro.apps.sparse_coding import CrossbarSparseCoder
    from repro.apps.threshold_logic import CrossbarThresholdGate, ThresholdGate

    d, codes, signals = sparse_signals(n_samples=1, rng=0)
    coder = CrossbarSparseCoder(d, rng=1)
    code = coder.encode(signals[0], iterations=120)
    recall, _ = CrossbarSparseCoder.support_recovery(code, codes[0])
    gate_ok = CrossbarThresholdGate(
        ThresholdGate.majority_gate(5), rng=2
    ).agrees_with_reference()
    w("## Section II-D — application kernels\n\n")
    w("| paper claim | measured | holds |\n|---|---|---|\n")
    w(
        "| sparse coding benefits from CIM MVM | crossbar ISTA support "
        f"recall {recall:.0%}, reconstruction error "
        f"{coder.reconstruction_error(signals[0], code):.3f} | {recall == 1.0} |\n"
    )
    w(
        "| threshold logic = weighted sum on CIM | MAJ-5 gate exhaustively "
        f"matches reference | {gate_ok} |\n"
    )

    # ------------------------------------------------------------ extensions
    w("\n## Extensions (survey threads built out; see DESIGN.md)\n\n")
    w("| thread | measured outcome | holds |\n|---|---|---|\n")

    # Fault-aware retraining.
    from repro.apps.nn import MLP, CrossbarMLP
    from repro.faults.tolerance import fault_aware_retrain

    from repro.apps.datasets import gaussian_blobs

    x, y = gaussian_blobs(
        n_samples=400, n_features=16, n_classes=6, separation=1.5, rng=0
    )
    mlp = MLP([16, 12, 6], rng=1)
    mlp.train(x[:280], y[:280], epochs=60, rng=2)
    deployed = CrossbarMLP(mlp, calibration=x[:280], rng=3)
    clean = deployed.accuracy(x[280:], y[280:], noisy=False)
    deployed.inject_yield_faults(0.8, rng=4)
    retrain = fault_aware_retrain(
        deployed, x[:280], y[:280], x[280:], y[280:], epochs=40, rng=5
    )
    w(
        "| fault-aware retraining ([38]) | accuracy "
        f"{retrain.accuracy_before:.2f} -> {retrain.accuracy_after:.2f} "
        f"(clean {clean:.2f}) | "
        f"{retrain.recovered > 0.5 * (clean - retrain.accuracy_before)} |\n"
    )

    # ReVAMP.
    from repro.core.revamp import ReVAMPMachine, compile_mig_to_revamp
    from repro.eda.mig import mig_from_aig
    from repro.eda.benchmarks import ripple_carry_adder

    mig = mig_from_aig(ripple_carry_adder(3).cleanup())
    program = compile_mig_to_revamp(mig)
    machine = ReVAMPMachine(cols=program.columns_used)
    ok = all(
        sum(
            bit << i
            for i, bit in enumerate(
                machine.execute(
                    program,
                    [(a >> i) & 1 for i in range(3)]
                    + [(b >> i) & 1 for i in range(3)],
                )
            )
        )
        == a + b
        for a in range(8)
        for b in range(8)
    )
    w(
        "| ReVAMP VLIW machine ([35]) | 3-bit adder: "
        f"{program.instruction_count} instructions, all 64 sums correct | "
        f"{ok} |\n"
    )

    # CIM-P complex-function cost.
    from repro.core.bitserial import cim_p_vs_cim_a_cost

    cost = cim_p_vs_cim_a_cost(word_bits=8)
    w(
        "| Table I 'High cost' on CIM-P | 8-bit add = "
        f"{cost['cim_p_array_ops']} array ops vs 1 on CIM-A | "
        f"{cost['cim_p_array_ops'] > 30} |\n"
    )

    # DIVA.
    from repro.core.diva import DIVASystem

    report_rows = DIVASystem().workload_report([1 << 20])
    offloads = {r["kernel"]: r["offload"] for r in report_rows}
    w(
        "| DIVA offload ([33, 34]) | data-parallel kernels offload, "
        "pointer chase stays on host | "
        f"{offloads['reduction'] and not offloads['pointer_chase']} |\n"
    )

    # Voltage domains.
    from repro.periphery.voltage_regulation import (
        reram_voltage_domains,
        voltage_domain_overhead,
    )

    tax = voltage_domain_overhead(reram_voltage_domains())
    w(
        "| Conclusions pt.4: read/write voltage burden | "
        f"{tax['loss_fraction']:.0%} of supply power lost, "
        f"{tax['boosted_domains']} boosted domains | "
        f"{tax['loss_fraction'] > 0.05} |\n"
    )

    # Write schemes.
    from repro.crossbar.write_schemes import max_disturb_free_voltage

    v2 = max_disturb_free_voltage(scheme="v/2")
    v3 = max_disturb_free_voltage(scheme="v/3")
    w(
        "| V/2 vs V/3 write biasing | disturb-free windows "
        f"{v2:.2f} V vs {v3:.2f} V (ratio 1.5) | "
        f"{abs(v3 / v2 - 1.5) < 1e-9} |\n"
    )

    # Fig 9 hysteresis.
    from repro.devices.fefet import FeFET

    loop = FeFET(polarization=-1.0).polarization_hysteresis()
    w(
        "| Fig 9 ferroelectric gate stack | P-V loop hysteretic, "
        f"|P_r| = {loop.remanent_polarization():.2f} | "
        f"{loop.is_hysteretic() and loop.remanent_polarization() > 0.7} |\n"
    )

    # CNN on crossbars.
    from repro.apps.cnn import CrossbarCNN, SimpleCNN, synthetic_images

    xi, yi = synthetic_images(n_samples=300, noise=0.3, rng=0)
    cnn = SimpleCNN(rng=1)
    cnn.train(xi[:200], yi[:200], epochs=25, rng=2)
    cb = CrossbarCNN(cnn, calibration=xi[:200], rng=3)
    cnn_acc = cb.accuracy(xi[200:260], yi[200:260])
    w(
        "| CNN on crossbars (im2col) | deployed accuracy "
        f"{cnn_acc:.2f} (software {cnn.accuracy(xi[200:], yi[200:]):.2f}) | "
        f"{cnn_acc > 0.9} |\n"
    )

    # ----------------------------------------------------------- pipeline
    from repro.pipeline import (
        PipelineScheduler,
        ScheduleParams,
        TileInventory,
        allocate,
        explore_pipeline,
        reference_graph,
    )

    graph = reference_graph()
    alloc = allocate(graph, TileInventory(n_tiles=4), duplication="none", rng=0)
    x = np.random.default_rng(1).uniform(0, 1, (64, graph.in_features))
    sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=8))
    trace = sched.execute(x)
    seq = trace.schedule("sequential")
    pipe = trace.schedule("pipelined")
    speedup = pipe.throughput / seq.throughput
    dse = explore_pipeline(
        tile_counts=(8, 32),
        duplication_modes=("auto",),
        batch_sizes=(16,),
        micro_batch=1,
        seed=0,
        workers=0,
    )
    gain = dse[-1]["throughput"] / dse[0]["throughput"]
    pipe_report = pipe.report()
    w("\n## Pipelined multi-tile scheduler (ISAAC-style; repro.pipeline)\n\n")
    w("| claim | measured | holds |\n|---|---|---|\n")
    w(
        "| pipelining changes time, never answers | pipelined vs sequential "
        f"outputs bit-identical: {np.array_equal(seq.outputs, pipe.outputs)} | "
        f"{np.array_equal(seq.outputs, pipe.outputs)} |\n"
    )
    w(
        "| layer pipeline multiplies steady-state throughput | "
        f"{speedup:.2f}x on the 4-layer MLP, batch 64, micro-batch 8 "
        "(ideal MS/(M+S-1) = 2.91x) | "
        f"{speedup >= 2.0} |\n"
    )
    w(
        "| weight duplication lifts bottlenecked workloads with tile budget | "
        f"conv workload throughput x{gain:.2f} from 8 -> 32 tiles "
        "(auto duplication) | "
        f"{gain > 1.5} |\n"
    )
    w(
        "| transfer costs conserve in the run report | "
        f"energy fractions sum to "
        f"{sum(pipe_report.energy_fractions().values()):.3f}, "
        f"{pipe.transfer_bytes} B moved | "
        f"{abs(sum(pipe_report.energy_fractions().values()) - 1.0) < 1e-9} |\n"
    )

    # ---------------------------------------------------- serving throughput
    import asyncio
    import time

    from repro.serve import ServiceConfig, SimulationService

    serve_model = {
        "n_samples": 120,
        "n_features": 32,
        "n_classes": 4,
        "hidden": [24, 24],
        "epochs": 4,
        "tile_rows": 16,
        "tile_cols": 16,
        "wire_resistance": 1.0,
    }
    serve_sweep = {
        "yields": [1.0, 0.8],
        "trials": 1,
        "epochs": 4,
        "n_samples": 120,
    }
    n_concurrent = 16

    async def _serve_measurements():
        rng = np.random.default_rng(7)
        batched_svc = SimulationService(
            ServiceConfig(batch_window_s=1.0, max_batch=n_concurrent)
        )
        serial_svc = SimulationService(
            ServiceConfig(batch_window_s=0.0, max_batch=1)
        )

        def infer(x_row):
            return {
                "kind": "infer",
                "params": {"model": serve_model, "x": [list(x_row)]},
            }

        warmup = rng.uniform(0, 1, size=serve_model["n_features"])
        await batched_svc.submit(infer(warmup))
        await serial_svc.submit(infer(warmup))
        xs = rng.uniform(0, 1, size=(n_concurrent, serve_model["n_features"]))
        start = time.perf_counter()
        batched = await asyncio.gather(
            *[batched_svc.submit(infer(x)) for x in xs]
        )
        t_batched = time.perf_counter() - start
        start = time.perf_counter()
        serial = [await serial_svc.submit(infer(x)) for x in xs]
        t_serial = time.perf_counter() - start
        identical = all(
            b["result"]["logits"] == s["result"]["logits"]
            for b, s in zip(batched, serial)
        )

        svc = SimulationService(ServiceConfig())
        start = time.perf_counter()
        cold = await svc.submit({"kind": "sweep", "params": serve_sweep})
        t_cold = time.perf_counter() - start
        start = time.perf_counter()
        warm = await svc.submit({"kind": "sweep", "params": serve_sweep})
        t_warm = time.perf_counter() - start
        warm_identical = (
            warm["cache"] == "hit"
            and warm["result"] == cold["result"]
            and warm["report"] == cold["report"]
        )
        return t_serial / t_batched, identical, t_cold / t_warm, warm_identical

    coalesce_x, coalesce_same, warm_x, warm_same = asyncio.run(
        _serve_measurements()
    )
    w("\n## Serving throughput (repro.serve; `cimflow serve`)\n\n")
    w("| claim | measured | holds |\n|---|---|---|\n")
    w(
        "| request coalescing amortizes per-call tile overhead | "
        f"{n_concurrent} concurrent single-sample inferences "
        f"{coalesce_x:.2f}x faster batched than one-at-a-time | "
        f"{coalesce_x >= 2.0} |\n"
    )
    w(
        "| coalescing never changes answers | batched vs serial logits "
        f"bit-identical: {coalesce_same} | {coalesce_same} |\n"
    )
    w(
        "| results cache returns identical requests instantly | warm "
        f"sweep {warm_x:.0f}x faster than cold | {warm_x >= 20.0} |\n"
    )
    w(
        "| warm responses are bit-identical (result + report) | "
        f"{warm_same} | {warm_same} |\n"
    )

    # ------------------------------------------------- value-aware pricing
    from repro.core import CIMCore, CIMCoreParams
    from repro.costs import use_model
    from repro.pipeline import explore_pipeline as explore_dse, pareto_analysis

    def _adc_share(model_name, adc_bits):
        """ADC share of the VMM datapath energy alone (programming is a
        one-time cost and would swamp the inference breakdown)."""
        core = CIMCore(
            CIMCoreParams(rows=64, logical_cols=32, adc_bits=adc_bits), rng=0
        )
        wts = np.random.default_rng(0).uniform(-1, 1, (64, 32))
        xin = np.random.default_rng(1).uniform(0, 0.5, (128, 64))
        core.program_weights(wts)
        before = {k: v["energy"] for k, v in core.costs.as_dict().items()}
        with use_model(model_name):
            core.vmm_batch(xin)
        delta = {
            k: v["energy"] - before.get(k, 0.0)
            for k, v in core.costs.as_dict().items()
            if v["energy"] - before.get(k, 0.0) > 0
        }
        return delta["adc"] / sum(delta.values()), sum(delta.values())

    adc4_static, e4_static = _adc_share("static", 4)
    adc4_aware, e4_aware = _adc_share("value_aware", 4)
    adc8_static, e8_static = _adc_share("static", 8)
    adc8_aware, e8_aware = _adc_share("value_aware", 8)
    energy_ratio = e8_aware / e8_static
    with use_model("value_aware"):
        dse_rows = explore_dse(
            tile_counts=(4, 8),
            duplication_modes=("none",),
            batch_sizes=(16,),
            adc_bits=(4, 8),
            workload="mlp",
            micro_batch=4,
            seed=0,
            workers=0,
        )
    analysis = pareto_analysis(dse_rows)
    knee = analysis["knee"]
    w("\n## Value-aware energy pricing (repro.costs)\n\n")
    w(
        "Static pricing charges the historical worst-case constant per "
        "operation;\nvalue-aware pricing charges for the values actually "
        "driven, resolved and\nwritten. It stress-tests the paper's "
        "ADC-dominance claim (Fig 5): on\nhalf-scale inputs every "
        "drive-side charge collapses toward its\nvalue-independent "
        "floor, and ADC codes cluster in the low buckets —\nyet the ADC "
        "stays dominant at every resolution, so the claim is not "
        "an\nartifact of worst-case constants:\n\n"
    )
    w("| claim | measured | holds |\n|---|---|---|\n")
    w(
        "| value-aware totals bounded by the static constants | "
        f"total energy ratio {energy_ratio:.2f}x static on half-scale "
        f"inputs (8-bit ADC) | {energy_ratio < 1.0} |\n"
    )
    w(
        "| ADC dominance survives data-dependent pricing | "
        f"ADC share 4-bit: {adc4_static:.1%} -> {adc4_aware:.1%}, "
        f"8-bit: {adc8_static:.1%} -> {adc8_aware:.1%} "
        f"(static -> value-aware) | {adc4_aware > 0.65 and adc8_aware > 0.9} |\n"
    )
    w(
        "| multi-objective DSE exposes the accuracy/energy knee | "
        f"Pareto front keeps {len(analysis['front'])} of "
        f"{analysis['feasible_points']} feasible points, knee at "
        f"adc_bits={knee['adc_bits'] if knee else '-'} | "
        f"{knee is not None} |\n"
    )

    # -------------------------------------------------- ECC co-design advisor
    from repro.testing.ecc_advisor import advise_ecc, ecc_advisor_analysis

    ecc_rows = advise_ecc(
        yields=(0.9999, 0.999, 0.99), mc_words=2048, trials=2, seed=0,
        workers=0,
    )
    ecc_advice = ecc_advisor_analysis(ecc_rows)
    ecc_knee = ecc_advice["knee"]
    w("\n## ECC co-design advisor (repro.testing.ecc_advisor)\n\n")
    w(
        "Three memory codes (SEC-DED, BCH t=2, SEC-DAEC) swept over "
        "crossbar cell\nyield and workload scenario, check-bit costs "
        "charged through the active\nenergy model, selected on the "
        "area x energy x latency x coverage Pareto\nfront. Recommended "
        "code per operating point (the knee of each cell):\n\n"
    )
    w("| scenario | cell yield | code | coverage | J/word |\n")
    w("|---|---|---|---|---|\n")
    for rec in ecc_advice["recommendations"]:
        w(
            f"| {rec['scenario']} | {rec['cell_yield']} | "
            f"**{rec['code']}** | {rec['coverage']:.4f} | "
            f"{rec['energy_per_word_J']:.2e} |\n"
        )
    w(
        f"\nGlobal front keeps {len(ecc_advice['front'])} of "
        f"{ecc_advice['points']} sweep points; overall knee: "
        f"**{ecc_knee['code']}** at yield {ecc_knee['cell_yield']} "
        f"({ecc_knee['scenario']}), coverage {ecc_knee['coverage']:.4f}. "
        "Reproduce with `cimflow ecc-advisor` (serial/parallel "
        "bit-identity gated in `benchmarks/test_bench_ecc.py`).\n"
    )

    # ------------------------------------------------------------ workloads
    from repro.workloads.attention import explore_attention
    from repro.workloads.training import explore_training

    att_rows = [
        r
        for r in explore_attention(
            seqs=(4, 8), d_heads=(4, 8), micro_batches=(4,), workers=0
        )
        if r["feasible"]
    ]
    w("\n## Workload diversity (repro.workloads)\n\n")
    w(
        "Beyond feed-forward inference: a single-head attention block "
        "traced as a\nfork-join DAG through the pipeline IR (QK^T and "
        "AV as crossbar matmuls,\nsoftmax in the digital periphery) and "
        "scheduled pipelined vs sequential.\nThe pipelined outputs are "
        "bit-identical to the sequential schedule at\nevery grid "
        "point:\n\n"
    )
    w("| seq | d_head | micro-batch | speedup | bit-identical |\n")
    w("|---|---|---|---|---|\n")
    for r in att_rows:
        w(
            f"| {r['seq']} | {r['d_head']} | {r['micro_batch']} | "
            f"{r['speedup']:.2f}x | {r['bit_identical']} |\n"
        )

    train_rows = explore_training(
        lives=(8.0, 12.0, 1e6), drift_nus=(0.01,), workers=0
    )
    epochs = train_rows[0]["epochs"]
    w(
        "\nIn-situ training on differential crossbar pairs: "
        "outer-product updates,\nwrite-verify programming "
        "(line-for-line the `ReRAMCell` pulse math),\nper-pulse "
        "endurance wearout through `EnduranceSimulator.wear` and "
        "drift\nbetween epochs. Short-lived devices die under the "
        "training write\ntraffic and accuracy degrades with them:\n\n"
    )
    header = " | ".join(f"epoch {e + 1} acc/dead" for e in range(epochs))
    w(f"| characteristic life (writes) | {header} |\n")
    w("|---" * (epochs + 1) + "|\n")
    for r in train_rows:
        cells = " | ".join(
            f"{r[f'accuracy_epoch{e}']:.3f}/{r[f'dead_cells_epoch{e}']}"
            for e in range(epochs)
        )
        life = r["characteristic_life"]
        life_label = f"{life:.0f}" if life < 1e5 else f"{life:.0e}"
        w(f"| {life_label} | {cells} |\n")
    w(
        "\nReproduce with `cimflow attention` / `cimflow train` "
        "(pipeline speedup and\nfast-path/reference bit-identity gated "
        "in `benchmarks/test_bench_workloads.py`).\n"
    )

    # -------------------------------------------------------- reproduction
    w("\n## How to reproduce\n\n")
    w("```bash\n")
    w("pip install -e .                       # or: python setup.py develop\n")
    w("pytest tests/                          # ~1430 unit/property/integration tests\n")
    w("pytest benchmarks/ --benchmark-only    # every table/figure, asserted\n")
    w("python scripts/generate_experiments_md.py   # regenerate this file\n")
    w("cimflow table1|fig5|yield|fig7|eda|chip|pipeline  # individual reproductions\n")
    w("cimflow serve &            # job server; then: cimflow submit sweep\n")
    w("cimflow ecc-advisor        # ECC code selection per yield x workload\n")
    w("cimflow attention          # fork-join attention through the DAG scheduler\n")
    w("cimflow train              # in-situ training with endurance wearout\n")
    w("```\n\n")
    w("Per-experiment bench targets are indexed in DESIGN.md.  Absolute\n")
    w("numbers vary with seeds and library versions; every 'holds' column\n")
    w("is re-asserted by the corresponding benchmark on each run.\n")

    with open("EXPERIMENTS.md", "w") as f:
        f.write(out.getvalue())
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    sys.exit(main())
