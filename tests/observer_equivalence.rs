//! Differential tests for the streaming observer architecture: every
//! analysis that rides on `Simulator::run_observed` (dynamic timing
//! analysis, clock-policy evaluation, switching-activity accumulation, the
//! adaptive controller) is the live oracle of a digest replay, and must be
//! **bit-identical** to replaying the `TimingDigest` captured on the same
//! pass through the corresponding replay entry point. Checked on several
//! workloads spanning all three suite categories.

use idca::core::{replay_adaptive_digest, AdaptiveConfig, AdaptiveObserver, Drift};
use idca::pipeline::TraceStats;
use idca::prelude::*;

/// The workloads the equivalence is checked on: two CoreMark-like kernels,
/// one BEEBS-like kernel and the characterization program (directed plus
/// semi-random code) — at least three distinct workloads as required, with
/// very different instruction mixes.
fn workloads() -> Vec<Workload> {
    let mut picks: Vec<Workload> = benchmark_suite()
        .into_iter()
        .filter(|w| ["core_list_search", "core_crc16", "beebs_crc32"].contains(&w.name.as_str()))
        .collect();
    assert_eq!(picks.len(), 3, "expected the three named suite kernels");
    picks.push(characterization_workload(0xD1FF));
    picks
}

/// Runs one workload once with every streaming observer attached and
/// returns the materialized trace and the captured digest alongside the
/// streamed results.
struct Streamed {
    trace: PipelineTrace,
    digest: TimingDigest,
    dta: DynamicTimingAnalysis,
    baseline: RunOutcome,
    dynamic: RunOutcome,
    activity: ActivitySummary,
    summary: RunSummary,
}

fn stream(model: &TimingModel, workload: &Workload) -> Streamed {
    let static_policy = StaticClock::of_model(model);
    let dynamic_policy = InstructionBased::from_model(model);
    let mut trace = PipelineTrace::default();
    let mut digest = DigestObserver::new();
    let mut dta = DynamicTimingAnalysis::streaming(model);
    let mut baseline = PolicyObserver::new(model, &static_policy, &ClockGenerator::Ideal);
    let mut dynamic = PolicyObserver::new(model, &dynamic_policy, &ClockGenerator::Ideal);
    let mut activity = TraceStats::default();
    let run = Simulator::new(SimConfig::default())
        .run_observed(
            &workload.program,
            &mut [
                &mut trace,
                &mut digest,
                &mut dta,
                &mut baseline,
                &mut dynamic,
                &mut activity,
            ],
        )
        .unwrap_or_else(|e| panic!("{} failed to simulate: {e}", workload.name));
    Streamed {
        trace,
        digest: digest.into_digest(),
        dta: dta.into_analysis(),
        baseline: baseline.into_outcome(),
        dynamic: dynamic.into_outcome(),
        activity: ActivitySummary::from_stats(&activity),
        summary: run.summary,
    }
}

#[test]
fn streaming_trace_observer_matches_materializing_run() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    for workload in workloads() {
        let streamed = stream(&model, &workload);
        let replayed = Simulator::new(SimConfig::default())
            .run(&workload.program)
            .unwrap_or_else(|e| panic!("{} failed to simulate: {e}", workload.name));
        assert_eq!(
            streamed.trace, replayed.trace,
            "{}: observer-built trace diverges from Simulator::run",
            workload.name
        );
        assert_eq!(streamed.summary.cycles, replayed.trace.cycle_count());
        assert_eq!(streamed.summary.retired, replayed.trace.retired());
    }
}

#[test]
fn streaming_dta_is_bit_identical_to_trace_replay() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    for workload in workloads() {
        let streamed = stream(&model, &workload);
        let replayed = DynamicTimingAnalysis::replay_digest(&model, &streamed.digest);
        let name = &workload.name;
        assert_eq!(streamed.dta.cycles(), replayed.cycles(), "{name}");
        assert_eq!(
            streamed.dta.mean_cycle_delay_ps(),
            replayed.mean_cycle_delay_ps(),
            "{name}: mean per-cycle delay must match bit for bit"
        );
        assert_eq!(
            streamed.dta.max_cycle_delay_ps(),
            replayed.max_cycle_delay_ps(),
            "{name}"
        );
        assert_eq!(
            streamed.dta.limiting_counts(),
            replayed.limiting_counts(),
            "{name}"
        );
        assert_eq!(
            streamed.dta.cycle_histogram(),
            replayed.cycle_histogram(),
            "{name}"
        );
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                assert_eq!(
                    streamed.dta.observed_worst_ps(stage, class),
                    replayed.observed_worst_ps(stage, class),
                    "{name}: {stage}/{class} worst-case"
                );
                assert_eq!(
                    streamed.dta.observations(stage, class),
                    replayed.observations(stage, class),
                    "{name}: {stage}/{class} observations"
                );
                assert_eq!(
                    streamed.dta.stage_histogram(stage, class),
                    replayed.stage_histogram(stage, class),
                    "{name}: {stage}/{class} histogram"
                );
            }
        }
    }
}

#[test]
fn streaming_policy_outcomes_are_bit_identical_to_trace_replay() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    for workload in workloads() {
        let streamed = stream(&model, &workload);
        let static_policy = StaticClock::of_model(&model);
        let dynamic_policy = InstructionBased::from_model(&model);
        let baseline_replay = replay_digest(
            &model,
            &streamed.digest,
            &static_policy,
            &ClockGenerator::Ideal,
        );
        let dynamic_replay = replay_digest(
            &model,
            &streamed.digest,
            &dynamic_policy,
            &ClockGenerator::Ideal,
        );
        // `RunOutcome` derives `PartialEq`, so this compares every field —
        // accumulated times, periods and violation counts — with exact
        // (bit-level) float equality.
        assert_eq!(streamed.baseline, baseline_replay, "{}", workload.name);
        assert_eq!(streamed.dynamic, dynamic_replay, "{}", workload.name);
    }
}

#[test]
fn streaming_activity_matches_trace_stats() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    for workload in workloads() {
        let streamed = stream(&model, &workload);
        let mut stats = TraceStats::default();
        streamed
            .digest
            .for_each_cycle(|_, dc| stats.observe_digest(dc));
        let replayed = ActivitySummary::from_stats(&stats);
        assert_eq!(streamed.activity, replayed, "{}", workload.name);
        // And the power model consequently reports identical numbers.
        let power = PowerModel::new(CellLibrary::fdsoi28());
        let point = power.library().operating_point(700).unwrap();
        let streamed_report = power.report(&streamed.activity, &point, 2026.0);
        let replayed_report = power.report(&replayed, &point, 2026.0);
        assert_eq!(streamed_report, replayed_report, "{}", workload.name);
    }
}

#[test]
fn streaming_adaptive_controller_matches_trace_replay() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let config = AdaptiveConfig::default();
    let drift = Drift::LinearSlowdown {
        fraction_per_kilocycle: 0.004,
    };
    for workload in workloads() {
        let mut observer =
            AdaptiveObserver::new(&model, &config, &ClockGenerator::Ideal, None, drift);
        let mut digest = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .run_observed(&workload.program, &mut [&mut observer, &mut digest])
            .unwrap_or_else(|e| panic!("{} failed to simulate: {e}", workload.name));
        let streamed = observer.into_outcome();
        let digest = digest.into_digest();
        let replayed = replay_adaptive_digest(
            &model,
            &digest,
            &config,
            &ClockGenerator::Ideal,
            None,
            drift,
        );
        assert_eq!(streamed, replayed, "{}", workload.name);
    }
}
