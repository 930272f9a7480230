//! Reproduces the paper's characterization flow end to end: stream the
//! directed plus semi-random characterization workload through dynamic
//! timing analysis as it simulates, extract the delay LUT (Table II) and
//! export it as JSON. `repro --table2` runs the same analysis.
//!
//! Run with: `cargo run --release --example characterize_lut`

use idca::prelude::*;
use idca::timing::Histogram;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let characterization = characterization_workload(0xC0DE);
    // Gate-level-simulation substitute and DTA in one pass.
    let mut observer = DynamicTimingAnalysis::streaming(&model);
    let summary = Simulator::new(SimConfig::default())
        .run_observed(&characterization.program, &mut [&mut observer])?
        .summary;
    println!(
        "characterization: {} cycles, {} retired instructions",
        summary.cycles, summary.retired
    );
    let dta = observer.into_analysis();

    println!(
        "\nper-cycle dynamic delay: mean {:.0} ps vs static {:.0} ps  (genie speedup {:.0} %)",
        dta.mean_cycle_delay_ps(),
        dta.static_period_ps(),
        (dta.genie_speedup() - 1.0) * 100.0
    );
    println!("\nhistogram of per-cycle maximum delays (Fig. 5):");
    print!("{}", downsample(dta.cycle_histogram()));

    // The delay LUT / Table II.
    let lut = DelayLut::from_dta(&dta, 8);
    println!("\nTable II — dynamic instruction delay worst-cases:");
    println!(
        "{:<16} {:>12} {:>8} {:>14}",
        "instruction", "max delay", "stage", "observations"
    );
    for row in lut.table2_rows() {
        println!(
            "{:<16} {:>9.0} ps {:>8} {:>14}",
            row.class.label(),
            row.max_delay_ps,
            row.stage.label(),
            row.observations
        );
    }

    let json = lut.to_json()?;
    let path = std::env::temp_dir().join("idca_delay_lut.json");
    std::fs::write(&path, &json)?;
    println!("\ndelay LUT exported to {}", path.display());
    Ok(())
}

/// Renders a histogram with a coarser bar so the example output stays short.
fn downsample(histogram: &Histogram) -> String {
    histogram.to_ascii(40)
}
