//! Integration tests that check the headline quantitative claims of the
//! paper against the reproduction, with tolerance bands. The exact measured
//! values are recorded in `EXPERIMENTS.md`; these tests guard the *shape* of
//! the results (who wins, by roughly what factor).

use idca::prelude::*;

fn nominal_model() -> TimingModel {
    TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized)
}

/// Simulates `program` once, capturing its timing digest.
fn capture(program: &Program) -> TimingDigest {
    let mut digest = DigestObserver::new();
    Simulator::new(SimConfig::default())
        .run_observed(program, &mut [&mut digest])
        .expect("program runs");
    digest.into_digest()
}

fn characterization_dta(model: &TimingModel) -> DynamicTimingAnalysis {
    let workload = characterization_workload(0xC0DE);
    DynamicTimingAnalysis::replay_digest(model, &capture(&workload.program))
}

/// The static timing limit of the optimized core is 2026 ps / 494 MHz at
/// 0.70 V (paper §IV).
#[test]
fn static_timing_limit_matches_paper() {
    let model = nominal_model();
    assert_eq!(model.static_period_ps().round(), 2026.0);
    let mhz = 1.0e6 / model.static_period_ps();
    assert!((mhz - 493.6).abs() < 1.0);
}

/// Fig. 5: the mean per-cycle dynamic delay is far below the static limit
/// (paper: 1334 ps vs 2026 ps, a ~50 % genie speedup).
#[test]
fn fig5_mean_dynamic_delay_and_genie_speedup() {
    let model = nominal_model();
    let dta = characterization_dta(&model);
    let mean = dta.mean_cycle_delay_ps();
    assert!(
        (1200.0..1500.0).contains(&mean),
        "mean per-cycle delay {mean} ps is far from the paper's 1334 ps"
    );
    let genie = (dta.genie_speedup() - 1.0) * 100.0;
    assert!(
        (30.0..70.0).contains(&genie),
        "genie speedup {genie} % is far from the paper's ~50 %"
    );
}

/// Fig. 6: the execute stage owns the limiting path in the vast majority of
/// cycles (93 % in the paper), the address stage in most of the remainder.
#[test]
fn fig6_execute_stage_dominates() {
    let model = nominal_model();
    let dta = characterization_dta(&model);
    let ex = dta.limiting_fraction(Stage::Execute);
    let adr = dta.limiting_fraction(Stage::Address);
    let others: f64 = [
        Stage::Fetch,
        Stage::Decode,
        Stage::Control,
        Stage::Writeback,
    ]
    .iter()
    .map(|s| dta.limiting_fraction(*s))
    .sum();
    assert!(ex > 0.75, "execute-stage dominance {ex}");
    assert!(adr < 0.25, "address-stage share {adr}");
    assert!(others < 0.10, "remaining stages share {others}");
}

/// Table I: the critical-range optimization shortens the worst-case delay of
/// most instruction classes (factors < 1) while the multiplier gets slightly
/// slower (factor > 1), and costs ~9 % of static frequency.
#[test]
fn table1_critical_range_factors() {
    let paper = [
        (TimingClass::Add, 0.92),
        (TimingClass::BranchCond, 0.78),
        (TimingClass::Jump, 0.74),
        (TimingClass::Load, 0.85),
        (TimingClass::Mul, 1.10),
        (TimingClass::Nop, 0.78),
        (TimingClass::Store, 0.85),
    ];
    for (class, expected) in paper {
        let measured = TimingProfile::max_delay_factor(class);
        assert!(
            (measured - expected).abs() < 0.05,
            "{class}: measured factor {measured:.3}, paper {expected}"
        );
    }
    let optimized = TimingProfile::new(ProfileKind::CriticalRangeOptimized);
    let conventional = TimingProfile::new(ProfileKind::Conventional);
    let sta_penalty = optimized.static_period_ps() / conventional.static_period_ps();
    assert!(
        (sta_penalty - 1.09).abs() < 0.02,
        "STA penalty {sta_penalty}"
    );
}

/// Table II: characterized per-instruction worst-case delays land close to
/// the paper's numbers and identify the same limiting stages.
#[test]
fn table2_characterized_delays_and_limiting_stages() {
    let model = nominal_model();
    let dta = characterization_dta(&model);
    let lut = DelayLut::from_dta(&dta, 8);
    let paper = [
        (TimingClass::Add, 1467.0, Stage::Execute),
        (TimingClass::And, 1482.0, Stage::Execute),
        (TimingClass::BranchCond, 1470.0, Stage::Execute),
        (TimingClass::Jump, 1172.0, Stage::Address),
        (TimingClass::Load, 1391.0, Stage::Execute),
        (TimingClass::Mul, 1899.0, Stage::Execute),
        (TimingClass::Shift, 1270.0, Stage::Execute),
        (TimingClass::Xor, 1514.0, Stage::Execute),
    ];
    for (class, expected_ps, expected_stage) in paper {
        let (stage, measured) = lut.class_worst_case(class);
        assert_eq!(stage, expected_stage, "limiting stage of {class}");
        let deviation = (measured - expected_ps).abs() / expected_ps;
        assert!(
            deviation < 0.06,
            "{class}: measured {measured:.0} ps, paper {expected_ps} ps"
        );
    }
}

/// Fig. 8 + headline claim: the instruction-based adjustment gains a large
/// fraction of the genie bound on the benchmark suites (paper: +38 % vs the
/// +50 % bound) with zero timing violations.
#[test]
fn fig8_suite_speedup_within_band() {
    let model = nominal_model();
    let dta = characterization_dta(&model);
    // A 1.5 % guardband covers data conditions the finite characterization
    // run did not excite (see `DelayLut::with_guardband`), preserving the
    // zero-violation property on workloads the LUT has never seen.
    let lut = DelayLut::from_dta(&dta, 8).with_guardband(0.015);
    let policy = InstructionBased::new(lut);

    let mut summary = eval::SuiteSummary::new();
    for workload in benchmark_suite() {
        let digest = capture(&workload.program);
        summary.push(eval::compare_digest(
            &model,
            workload.name,
            &digest,
            &policy,
            &ClockGenerator::Ideal,
        ));
    }
    let gain_percent = (summary.mean_speedup() - 1.0) * 100.0;
    assert!(
        (25.0..55.0).contains(&gain_percent),
        "suite speedup {gain_percent:.1} % is far from the paper's 38 %"
    );
    assert!(
        summary.mean_baseline_frequency_mhz() > 480.0
            && summary.mean_baseline_frequency_mhz() < 500.0
    );
    assert!(summary.mean_dynamic_frequency_mhz() > 600.0);
    assert_eq!(summary.total_violations(), 0);
}

/// §IV-B: the frequency gain converts into a supply-voltage reduction of
/// roughly 70 mV and an energy-efficiency improvement of roughly 24 %.
#[test]
fn power_voltage_scaling_band() {
    let model = nominal_model();
    let dta = characterization_dta(&model);
    let lut = DelayLut::from_dta(&dta, 8).with_guardband(0.015);
    let library = CellLibrary::fdsoi28();
    let power = PowerModel::new(library.clone());
    let workload = benchmark_suite()
        .into_iter()
        .find(|w| w.name == "beebs_dijkstra")
        .unwrap();
    let digest = capture(&workload.program);

    let result = vfs::scale_for_iso_throughput_digest(
        ProfileKind::CriticalRangeOptimized,
        &library,
        &power,
        &digest,
        &|m| {
            Box::new(InstructionBased::new(
                lut.scaled(m.operating_point().delay_scale),
            ))
        },
        &ClockGenerator::Ideal,
    )
    .expect("a feasible operating point exists");

    assert!(
        (40..=110).contains(&result.voltage_reduction_mv),
        "voltage reduction {} mV vs the paper's ~70 mV",
        result.voltage_reduction_mv
    );
    let gain = result.efficiency_gain_percent();
    assert!(
        (12.0..35.0).contains(&gain),
        "efficiency gain {gain:.1} % vs the paper's 24 %"
    );
    // Baseline efficiency should be in the neighbourhood of 13.7 µW/MHz.
    assert!(
        (11.5..16.0).contains(&result.baseline.uw_per_mhz),
        "baseline {:.2} µW/MHz",
        result.baseline.uw_per_mhz
    );
}
