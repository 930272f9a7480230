//! End-to-end integration test: the full paper flow from characterization to
//! benchmark evaluation, spanning every workspace crate.

use idca::prelude::*;

/// Simulates `program` once, capturing its timing digest.
fn capture(simulator: &Simulator, program: &Program) -> TimingDigest {
    let mut digest = DigestObserver::new();
    simulator
        .run_observed(program, &mut [&mut digest])
        .expect("program runs");
    digest.into_digest()
}

/// Runs the complete flow once and checks the structural relationships the
/// paper's evaluation relies on.
#[test]
fn full_flow_characterize_then_evaluate() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let simulator = Simulator::new(SimConfig::default());

    // 1. Characterization: directed + semi-random workload, DTA, delay LUT.
    let characterization = characterization_workload(2025);
    let char_digest = capture(&simulator, &characterization.program);
    let dta = DynamicTimingAnalysis::replay_digest(&model, &char_digest);
    assert!(dta.cycles() > 5_000);
    assert!(dta.mean_cycle_delay_ps() < dta.static_period_ps());

    let lut = DelayLut::from_dta(&dta, 8);
    // Frequently-characterized classes must have real (sub-static) entries.
    assert!(
        lut.delay_ps(Stage::Execute, TimingClass::Add) < lut.static_period_ps(),
        "characterization must tighten the Add entry"
    );

    // 2. Evaluation on a few benchmarks with three policies.
    let policy = InstructionBased::new(lut);
    let genie = GenieOracle::new(model.clone());
    let baseline_policy = StaticClock::of_model(&model);

    let mut summary = eval::SuiteSummary::new();
    for workload in benchmark_suite().into_iter().take(6) {
        let digest = capture(&simulator, &workload.program);
        let baseline = replay_digest(&model, &digest, &baseline_policy, &ClockGenerator::Ideal);
        let dynamic = replay_digest(&model, &digest, &policy, &ClockGenerator::Ideal);
        let oracle = replay_digest(&model, &digest, &genie, &ClockGenerator::Ideal);

        // Ordering: static <= instruction-based <= genie (in frequency).
        assert!(
            dynamic.effective_frequency_mhz >= baseline.effective_frequency_mhz,
            "{}: dynamic slower than static",
            workload.name
        );
        assert!(
            oracle.effective_frequency_mhz + 1e-6 >= dynamic.effective_frequency_mhz,
            "{}: LUT policy beats the oracle",
            workload.name
        );
        summary.push(eval::PolicyComparison {
            benchmark: workload.name,
            baseline,
            dynamic,
        });
    }
    // The benchmark mix must gain a substantial fraction of the static period.
    let mean = summary.mean_speedup();
    assert!(mean > 1.15, "mean speedup {mean}");
}

#[test]
fn profile_lut_guarantees_zero_violations_on_every_benchmark() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let policy = InstructionBased::from_model(&model);
    let simulator = Simulator::new(SimConfig::default());
    for workload in benchmark_suite() {
        let digest = capture(&simulator, &workload.program);
        let outcome = replay_digest(&model, &digest, &policy, &ClockGenerator::Ideal);
        assert_eq!(
            outcome.violations, 0,
            "{} suffered timing violations under the worst-case LUT",
            workload.name
        );
    }
}

#[test]
fn quantized_clock_generator_preserves_correctness_and_most_of_the_gain() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let policy = InstructionBased::from_model(&model);
    let simulator = Simulator::new(SimConfig::default());
    let workload = benchmark_suite()
        .into_iter()
        .find(|w| w.name == "core_crc16")
        .expect("crc16 exists");
    let digest = capture(&simulator, &workload.program);

    let baseline = replay_digest(
        &model,
        &digest,
        &StaticClock::of_model(&model),
        &ClockGenerator::Ideal,
    );
    let ideal = replay_digest(&model, &digest, &policy, &ClockGenerator::Ideal);
    let quantized = replay_digest(&model, &digest, &policy, &ClockGenerator::quantized_50ps());
    let discrete = replay_digest(
        &model,
        &digest,
        &policy,
        &ClockGenerator::discrete(8, 900.0, 2100.0),
    );

    for outcome in [&ideal, &quantized, &discrete] {
        assert_eq!(outcome.violations, 0);
    }
    assert!(quantized.effective_frequency_mhz <= ideal.effective_frequency_mhz + 1e-9);
    assert!(quantized.speedup_over(&baseline) > 1.1);
    assert!(discrete.speedup_over(&baseline) > 1.05);
}

#[test]
fn execute_only_controller_loses_little_versus_full_monitoring() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let lut = DelayLut::from_model(&model);
    let full = InstructionBased::new(lut.clone());
    let simplified = ExecuteOnly::new(lut);
    let simulator = Simulator::new(SimConfig::default());

    let mut full_total = 0.0;
    let mut simplified_total = 0.0;
    for workload in benchmark_suite().into_iter().take(5) {
        let digest = capture(&simulator, &workload.program);
        let a = replay_digest(&model, &digest, &full, &ClockGenerator::Ideal);
        let b = replay_digest(&model, &digest, &simplified, &ClockGenerator::Ideal);
        assert_eq!(b.violations, 0, "{}", workload.name);
        full_total += a.total_time_ps;
        simplified_total += b.total_time_ps;
    }
    // §IV-A: monitoring only the execute stage (with the address-stage guard)
    // sacrifices only a small part of the gain.
    let penalty = simplified_total / full_total;
    assert!(
        (1.0..1.15).contains(&penalty),
        "execute-only penalty {penalty}"
    );
}

#[test]
fn lut_json_roundtrip_through_filesystem_artifacts() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let lut = DelayLut::from_model(&model);
    let json = lut.to_json().expect("serializes");
    let path = std::env::temp_dir().join("idca_integration_lut.json");
    std::fs::write(&path, &json).expect("writes");
    let loaded =
        DelayLut::from_json(&std::fs::read_to_string(&path).expect("reads")).expect("parses");
    assert_eq!(loaded, lut);
    std::fs::remove_file(&path).ok();
}
