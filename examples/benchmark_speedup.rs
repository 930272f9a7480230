//! Per-benchmark effective clock frequency under conventional clocking and
//! under instruction-based dynamic clock adjustment — the experiment behind
//! Fig. 8 of the paper, on the CoreMark-like and BEEBS-like suites. Every
//! workload is simulated once into its timing digest, and every evaluation
//! replays a digest; `repro --fig8` prints the same rows.
//!
//! Run with: `cargo run --release --example benchmark_speedup`

use idca::pipeline::PipelineError;
use idca::prelude::*;

/// Simulates `program` once, capturing its timing digest.
fn capture(simulator: &Simulator, program: &Program) -> Result<TimingDigest, PipelineError> {
    let mut digest = DigestObserver::new();
    simulator.run_observed(program, &mut [&mut digest])?;
    Ok(digest.into_digest())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let simulator = Simulator::new(SimConfig::default());

    // Build the delay LUT the way the paper does: characterize the core with
    // the directed + semi-random workload, run dynamic timing analysis and
    // extract the per-instruction worst-case delays.
    let characterization = characterization_workload(0xC0DE);
    let char_digest = capture(&simulator, &characterization.program)?;
    let dta = DynamicTimingAnalysis::replay_digest(&model, &char_digest);
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
    for workload in benchmark_suite() {
        let digest = capture(&simulator, &workload.program)?;
        let comparison = eval::compare_digest(
            &model,
            workload.name.clone(),
            &digest,
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
