//! Trading the frequency gain for power: find the lowest supply voltage at
//! which the dynamically-clocked core still matches the conventional core's
//! throughput, and report the energy-efficiency improvement (§IV-B of the
//! paper: ~70 mV lower supply, 13.7 → 11.0 µW/MHz, 24 %).
//!
//! Run with: `cargo run --release --example voltage_scaling`

use idca::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Use a benchmark whose speedup sits near the middle of the Fig. 8 suite.
    let workload = benchmark_suite()
        .into_iter()
        .find(|w| w.name == "beebs_dijkstra")
        .expect("the Dijkstra kernel is part of the suite");
    // Simulate once into a timing digest: every candidate operating point
    // of the scan replays it.
    let mut capture = DigestObserver::new();
    Simulator::new(SimConfig::default()).run_observed(&workload.program, &mut [&mut capture])?;
    let digest = capture.into_digest();

    let library = CellLibrary::fdsoi28();
    let power = PowerModel::new(library.clone());

    let result = vfs::scale_for_iso_throughput_digest(
        ProfileKind::CriticalRangeOptimized,
        &library,
        &power,
        &digest,
        &|model| Box::new(InstructionBased::from_model(model)),
        &ClockGenerator::Ideal,
    )?;

    println!("workload: {}", workload.name);
    println!(
        "baseline  : {:>4} mV  {:>7.1} MHz  {:>6.2} µW/MHz",
        result.baseline.voltage_mv, result.baseline.frequency_mhz, result.baseline.uw_per_mhz
    );
    println!(
        "scaled    : {:>4} mV  {:>7.1} MHz  {:>6.2} µW/MHz",
        result.scaled.voltage_mv, result.scaled.frequency_mhz, result.scaled.uw_per_mhz
    );
    println!(
        "\nsupply reduction      : {} mV   (paper: ~70 mV)",
        result.voltage_reduction_mv
    );
    println!(
        "energy-efficiency gain: {:.1} %  (paper: 24 %, 13.7 -> 11.0 µW/MHz)",
        result.efficiency_gain_percent()
    );
    Ok(())
}
