//! Per-benchmark effective clock frequency under conventional clocking and
//! under instruction-based dynamic clock adjustment — the experiment behind
//! Fig. 8 of the paper, on the CoreMark-like and BEEBS-like suites.
//!
//! Run with: `cargo run --release --example benchmark_speedup`

use idca::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);

    // Build the delay LUT the way the paper does: characterize the core with
    // the directed + semi-random workload, run dynamic timing analysis and
    // extract the per-instruction worst-case delays.
    let characterization = characterization_workload(0xC0DE);
    let char_trace = Simulator::new(SimConfig::default())
        .run(&characterization.program)?
        .trace;
    let dta = DynamicTimingAnalysis::run(&model, &char_trace);
    // Raw observed worst-cases plus a 1.5 % guardband for data conditions
    // the characterization stimuli did not produce (see
    // `DelayLut::with_guardband`).
    let lut = DelayLut::from_dta(&dta, 8).with_guardband(0.015);
    let policy = InstructionBased::new(lut);

    println!(
        "{:<22} {:>12} {:>12} {:>9} {:>11}",
        "benchmark", "static MHz", "dynamic MHz", "speedup", "violations"
    );
    let mut summary = eval::SuiteSummary::new();
    let simulator = Simulator::new(SimConfig::default());
    for workload in benchmark_suite() {
        let trace = simulator.run(&workload.program)?.trace;
        let comparison = eval::compare(
            &model,
            workload.name.clone(),
            &trace,
            &policy,
            &ClockGenerator::Ideal,
        );
        println!(
            "{:<22} {:>12.1} {:>12.1} {:>8.1}% {:>11}",
            comparison.benchmark,
            comparison.baseline.effective_frequency_mhz,
            comparison.dynamic.effective_frequency_mhz,
            (comparison.speedup() - 1.0) * 100.0,
            comparison.dynamic.violations
        );
        summary.push(comparison);
    }

    println!(
        "\naverage: {:.1} MHz -> {:.1} MHz  (+{:.1} %, paper: 494 -> 680 MHz, +38 %)",
        summary.mean_baseline_frequency_mhz(),
        summary.mean_dynamic_frequency_mhz(),
        (summary.mean_speedup() - 1.0) * 100.0
    );
    Ok(())
}
