//! Voltage-frequency scaling: trading the frequency gain for power.
//!
//! §IV-B of the paper converts the 38 % effective-frequency gain into a
//! supply-voltage reduction at constant throughput: the core with dynamic
//! clock adjustment runs ~70 mV lower while still matching the conventional
//! core's 494 MHz, which improves energy efficiency from 13.7 µW/MHz to
//! 11.0 µW/MHz (24 %). This module reproduces that conversion: it scans the
//! characterized operating points of the cell library for the lowest supply
//! voltage at which the dynamically-clocked core still meets the baseline
//! throughput, then compares energy efficiency at the two points.

use crate::{
    replay_digest, ClockGenerator, ClockPolicy, CoreError, PolicyObserver, RunOutcome, StaticClock,
};
use idca_pipeline::{CycleObserver, PipelineTrace, RunSummary, TimingDigest, TraceStats};
use idca_timing::{
    ActivitySummary, CellLibrary, PowerModel, PowerReport, ProfileKind, TimingModel,
    NOMINAL_VOLTAGE_MV,
};
use serde::{Deserialize, Serialize};

/// Summary of one operating point in a voltage-scaling comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingSummary {
    /// Supply voltage in millivolts.
    pub voltage_mv: u32,
    /// Effective clock frequency in MHz.
    pub frequency_mhz: f64,
    /// Average clock period in picoseconds.
    pub avg_period_ps: f64,
    /// Energy efficiency in µW/MHz.
    pub uw_per_mhz: f64,
    /// Total power in microwatts.
    pub power_uw: f64,
}

impl OperatingSummary {
    fn from_report(report: &PowerReport) -> Self {
        OperatingSummary {
            voltage_mv: report.voltage_mv,
            frequency_mhz: report.frequency_mhz,
            avg_period_ps: report.period_ps,
            uw_per_mhz: report.uw_per_mhz,
            power_uw: report.total_power_uw,
        }
    }
}

/// Result of the iso-throughput voltage-scaling analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoltageScalingResult {
    /// Conventional clocking at the nominal voltage (the reference).
    pub baseline: OperatingSummary,
    /// Dynamic clock adjustment at the reduced supply voltage.
    pub scaled: OperatingSummary,
    /// How much the supply voltage could be reduced, in millivolts.
    pub voltage_reduction_mv: u32,
    /// Energy-efficiency improvement: `baseline µW/MHz ÷ scaled µW/MHz`.
    pub efficiency_gain: f64,
}

impl VoltageScalingResult {
    /// Energy-efficiency improvement expressed as a percentage
    /// (the paper reports 24 %).
    #[must_use]
    pub fn efficiency_gain_percent(&self) -> f64 {
        (1.0 - self.scaled.uw_per_mhz / self.baseline.uw_per_mhz) * 100.0
    }
}

/// Finds the lowest characterized supply voltage at which the
/// dynamically-clocked core still delivers at least the conventional core's
/// nominal-voltage throughput on `trace`, and reports the resulting
/// energy-efficiency gain.
///
/// Every candidate operating point feeds the materialized trace's records
/// to a live [`PolicyObserver`], walking downward from nominal and stopping
/// at the first infeasible point. The power model reads the switching
/// activity of [`PipelineTrace::stats`], counted once. This is the
/// live-record reference oracle of [`scale_for_iso_throughput_digest`],
/// which scans a captured digest instead and returns the identical result.
///
/// * `policy_factory` builds the dynamic-clock policy for a given timing
///   model (the model changes with voltage because every path stretches).
/// * `generator` is the clock-generator model used for the dynamic runs.
///
/// # Errors
///
/// Returns [`CoreError::NoFeasibleOperatingPoint`] if even the nominal
/// voltage cannot sustain the baseline throughput (which would indicate an
/// inconsistent policy), or [`CoreError::Library`] if an operating point is
/// missing from the library.
pub fn scale_for_iso_throughput(
    profile: ProfileKind,
    library: &CellLibrary,
    power: &PowerModel,
    trace: &PipelineTrace,
    policy_factory: &dyn Fn(&TimingModel) -> Box<dyn ClockPolicy>,
    generator: &ClockGenerator,
) -> Result<VoltageScalingResult, CoreError> {
    scan_for_iso_throughput(
        profile,
        library,
        power,
        &ActivitySummary::from_stats(&trace.stats()),
        policy_factory,
        generator,
        &|model, policy, generator| {
            let mut observer = PolicyObserver::new(model, policy, generator);
            for record in trace.cycles() {
                observer.observe_cycle(record);
            }
            observer.finish(&RunSummary {
                cycles: trace.cycle_count(),
                retired: trace.retired(),
            });
            observer.into_outcome()
        },
    )
}

/// [`scale_for_iso_throughput`] over a captured [`TimingDigest`]: each
/// candidate operating point is one [`replay_digest`], bit-identical to
/// observing the records of the originating execution, so both return the
/// same result without a simulator in the loop. The scan stops at the first
/// infeasible voltage, so it replays only the candidates down to there. The
/// switching activity is one [`TraceStats::observe_digest`] fold of the
/// digest.
///
/// # Errors
///
/// As [`scale_for_iso_throughput`].
pub fn scale_for_iso_throughput_digest(
    profile: ProfileKind,
    library: &CellLibrary,
    power: &PowerModel,
    digest: &TimingDigest,
    policy_factory: &dyn Fn(&TimingModel) -> Box<dyn ClockPolicy>,
    generator: &ClockGenerator,
) -> Result<VoltageScalingResult, CoreError> {
    let mut activity = TraceStats::default();
    digest.for_each_cycle(|_, dc| activity.observe_digest(dc));
    scan_for_iso_throughput(
        profile,
        library,
        power,
        &ActivitySummary::from_stats(&activity),
        policy_factory,
        generator,
        &|model, policy, generator| replay_digest(model, digest, policy, generator),
    )
}

/// The downward voltage scan behind both entry points: `activity` is the
/// workload's switching activity, and `run` evaluates one policy on the
/// workload under one timing model.
fn scan_for_iso_throughput(
    profile: ProfileKind,
    library: &CellLibrary,
    power: &PowerModel,
    activity: &ActivitySummary,
    policy_factory: &dyn Fn(&TimingModel) -> Box<dyn ClockPolicy>,
    generator: &ClockGenerator,
    run: &dyn Fn(&TimingModel, &dyn ClockPolicy, &ClockGenerator) -> RunOutcome,
) -> Result<VoltageScalingResult, CoreError> {
    let model_at = |voltage_mv| {
        TimingModel::new(
            idca_timing::TimingProfile::new(profile),
            library.clone(),
            voltage_mv,
        )
    };

    // Baseline: conventional synchronous clocking at the nominal voltage.
    let nominal_model = model_at(NOMINAL_VOLTAGE_MV)?;
    let baseline_outcome = run(
        &nominal_model,
        &StaticClock::of_model(&nominal_model),
        &ClockGenerator::Ideal,
    );
    let nominal_point = library.operating_point(NOMINAL_VOLTAGE_MV)?;
    let baseline_report = power.report(activity, &nominal_point, baseline_outcome.avg_period_ps);
    let required_mhz = baseline_outcome.effective_frequency_mhz;

    // Scan downwards from the nominal voltage for the lowest feasible point.
    let mut best: Option<(u32, f64)> = None; // (voltage_mv, avg_period_ps)
    let mut voltage_mv = NOMINAL_VOLTAGE_MV;
    while voltage_mv >= CellLibrary::MIN_MV {
        let model = model_at(voltage_mv)?;
        let policy = policy_factory(&model);
        let outcome = run(&model, policy.as_ref(), generator);
        if outcome.effective_frequency_mhz + 1e-9 >= required_mhz {
            best = Some((voltage_mv, outcome.avg_period_ps));
        } else {
            // Delays grow monotonically as the supply drops; once the
            // throughput constraint fails it will keep failing.
            break;
        }
        voltage_mv -= CellLibrary::STEP_MV;
    }

    let (scaled_mv, scaled_period) =
        best.ok_or(CoreError::NoFeasibleOperatingPoint { required_mhz })?;
    let scaled_point = library.operating_point(scaled_mv)?;
    let scaled_report = power.report(activity, &scaled_point, scaled_period);

    let baseline = OperatingSummary::from_report(&baseline_report);
    let scaled = OperatingSummary::from_report(&scaled_report);
    Ok(VoltageScalingResult {
        baseline,
        scaled,
        voltage_reduction_mv: NOMINAL_VOLTAGE_MV - scaled_mv,
        efficiency_gain: baseline.uw_per_mhz / scaled.uw_per_mhz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::InstructionBased;
    use idca_isa::asm::Assembler;

    fn mixed_trace() -> PipelineTrace {
        let program = Assembler::new()
            .assemble(
                "        l.addi r1, r0, 0x100
                         l.addi r3, r0, 60
                 loop:   l.add  r4, r4, r3
                         l.sw   0(r1), r4
                         l.lwz  r5, 0(r1)
                         l.xor  r6, r5, r3
                         l.slli r7, r6, 2
                         l.addi r3, r3, -1
                         l.sfne r3, r0
                         l.bf   loop
                         l.nop  0
                         l.nop  1",
            )
            .unwrap();
        idca_pipeline::Simulator::new(idca_pipeline::SimConfig::default())
            .run(&program)
            .unwrap()
            .trace
    }

    #[test]
    fn voltage_scaling_lowers_supply_and_improves_efficiency() {
        let library = CellLibrary::fdsoi28();
        let power = PowerModel::new(library.clone());
        let result = scale_for_iso_throughput(
            ProfileKind::CriticalRangeOptimized,
            &library,
            &power,
            &mixed_trace(),
            &|model| Box::new(InstructionBased::from_model(model)),
            &ClockGenerator::Ideal,
        )
        .expect("a feasible operating point exists");

        assert!(
            result.voltage_reduction_mv >= 40,
            "reduction {} mV",
            result.voltage_reduction_mv
        );
        assert!(result.voltage_reduction_mv <= 120);
        assert!(result.scaled.frequency_mhz + 1e-6 >= result.baseline.frequency_mhz);
        assert!(result.efficiency_gain > 1.1);
        assert!(result.efficiency_gain_percent() > 10.0);
        assert!(result.scaled.uw_per_mhz < result.baseline.uw_per_mhz);
    }

    #[test]
    fn static_policy_cannot_scale_below_nominal() {
        // With the *static* policy as the "dynamic" candidate there is no
        // frequency headroom, so the best feasible point is the nominal one.
        let library = CellLibrary::fdsoi28();
        let power = PowerModel::new(library.clone());
        let result = scale_for_iso_throughput(
            ProfileKind::CriticalRangeOptimized,
            &library,
            &power,
            &mixed_trace(),
            &|model| Box::new(StaticClock::of_model(model)),
            &ClockGenerator::Ideal,
        )
        .unwrap();
        assert_eq!(result.voltage_reduction_mv, 0);
        assert!((result.efficiency_gain - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conventional_profile_yields_smaller_voltage_reduction() {
        let library = CellLibrary::fdsoi28();
        let power = PowerModel::new(library.clone());
        let trace = mixed_trace();
        let optimized = scale_for_iso_throughput(
            ProfileKind::CriticalRangeOptimized,
            &library,
            &power,
            &trace,
            &|model| Box::new(InstructionBased::from_model(model)),
            &ClockGenerator::Ideal,
        )
        .unwrap();
        let conventional = scale_for_iso_throughput(
            ProfileKind::Conventional,
            &library,
            &power,
            &trace,
            &|model| Box::new(InstructionBased::from_model(model)),
            &ClockGenerator::Ideal,
        )
        .unwrap();
        assert!(
            optimized.voltage_reduction_mv >= conventional.voltage_reduction_mv,
            "critical-range optimization should enable at least as much voltage scaling \
             ({} mV vs {} mV)",
            optimized.voltage_reduction_mv,
            conventional.voltage_reduction_mv
        );
    }
}
