//! Digest-equivalence tests: replaying a [`TimingDigest`] against a timing
//! model must be **bit-identical** to running the corresponding streaming
//! observers on the live simulation pass — for the DTA, all clock policies,
//! the adaptive controller and the activity statistics, at the nominal
//! corner and across sampled PVT corners. This is the correctness contract
//! of the simulate-once / evaluate-many sweep architecture.
//!
//! Live observers digest each record with [`DigestCycle::of_record`] and
//! run the per-cycle body replay runs, so what these tests pin is what
//! still has two implementations: the observer's pooled, run-length-encoded
//! capture against per-record digests, and the cycle index replay
//! reconstructs from stream position.

use idca::core::{replay_adaptive_digest, AdaptiveConfig, AdaptiveObserver, Drift};
use idca::pipeline::DigestCycle;
use idca::prelude::*;
use idca_cases::property;

fn model() -> TimingModel {
    TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized)
}

/// Simulates `program` once with the `live` observers riding the pass
/// beside a digest capture, and returns the captured digest.
fn digest_beside(program: &Program, live: &mut [&mut dyn CycleObserver]) -> TimingDigest {
    let mut digest = DigestObserver::new();
    let mut observers: Vec<&mut dyn CycleObserver> = vec![&mut digest];
    observers.extend(live.iter_mut().map(|o| o as &mut dyn CycleObserver));
    Simulator::new(SimConfig::default())
        .run_observed(program, &mut observers)
        .expect("generated programs terminate");
    digest.into_digest()
}

/// Simulates one generated program, capturing the digest and the
/// materialized trace from the same pass.
fn digest_and_trace(program: &Program) -> (TimingDigest, PipelineTrace) {
    let mut trace = PipelineTrace::default();
    let digest = digest_beside(program, &mut [&mut trace]);
    (digest, trace)
}

#[test]
fn rle_round_trip_reproduces_every_cycle() {
    let program = generate_program(nth_seed(0xD16E57, 3), &GenConfig::default());
    let (digest, trace) = digest_and_trace(&program);
    assert_eq!(digest.cycles(), trace.cycle_count());
    assert_eq!(digest.retired(), trace.retired());
    let mut i = 0usize;
    digest.for_each_cycle(|cycle, dc| {
        let record = &trace.cycles()[i];
        assert_eq!(record.cycle, cycle);
        assert_eq!(&DigestCycle::of_record(record), dc, "cycle {cycle}");
        i += 1;
    });
    assert_eq!(i as u64, trace.cycle_count());
    // The encoding must actually deduplicate something on a loopy program.
    assert!(digest.unique_cycles() as u64 <= digest.cycles());
}

#[test]
fn dta_replay_is_bit_identical_to_streaming() {
    let m = model();
    let program = generate_program(nth_seed(0xD16E57, 5), &GenConfig::default());
    let mut live = DynamicTimingAnalysis::streaming(&m);
    let digest = digest_beside(&program, &mut [&mut live]);
    let direct = live.into_analysis();
    let replayed = DynamicTimingAnalysis::replay_digest(&m, &digest);
    assert_eq!(direct.cycles(), replayed.cycles());
    assert_eq!(direct.mean_cycle_delay_ps(), replayed.mean_cycle_delay_ps());
    assert_eq!(direct.max_cycle_delay_ps(), replayed.max_cycle_delay_ps());
    assert_eq!(direct.limiting_counts(), replayed.limiting_counts());
    assert_eq!(direct.cycle_histogram(), replayed.cycle_histogram());
    for stage in Stage::ALL {
        for class in TimingClass::ALL {
            assert_eq!(
                direct.observed_worst_ps(stage, class),
                replayed.observed_worst_ps(stage, class),
                "{stage}/{class}"
            );
            assert_eq!(
                direct.observations(stage, class),
                replayed.observations(stage, class)
            );
        }
    }
}

/// Every policy's replayed outcome (including the embedded activity
/// summary) must equal the live outcome field for field — replayed alone,
/// and side by side with every other pair in one multi-policy walk, whose
/// comparisons all carry the live static baseline.
fn assert_policies_replay_identically(m: &TimingModel, program: &Program) {
    let static_policy = StaticClock::of_model(m);
    let lut_policy = InstructionBased::from_model(m);
    let exec_policy = ExecuteOnly::new(DelayLut::from_model(m));
    let genie = GenieOracle::new(m.clone());
    let policies: [&dyn ClockPolicy; 4] = [&static_policy, &lut_policy, &exec_policy, &genie];
    let generators = [
        ClockGenerator::Ideal,
        ClockGenerator::quantized_50ps(),
        ClockGenerator::discrete(8, 900.0, 2100.0),
    ];
    let pairs: Vec<(&dyn ClockPolicy, &ClockGenerator)> = generators
        .iter()
        .flat_map(|g| policies.iter().map(move |p| (*p, g)))
        .collect();
    // Every pair observes one live pass; the first pair is the static
    // baseline itself.
    let mut live: Vec<PolicyObserver> = pairs
        .iter()
        .map(|&(policy, generator)| PolicyObserver::new(m, policy, generator))
        .collect();
    let mut observers: Vec<&mut dyn CycleObserver> = live
        .iter_mut()
        .map(|o| o as &mut dyn CycleObserver)
        .collect();
    let digest = digest_beside(program, &mut observers);
    let live: Vec<RunOutcome> = live.into_iter().map(PolicyObserver::into_outcome).collect();
    let baseline = &live[0];
    let fused = eval::compare_digest_policies(m, "fused", &digest, &pairs);
    assert_eq!(fused.len(), pairs.len());
    for ((&(policy, generator), comparison), direct) in pairs.iter().zip(&fused).zip(&live) {
        let label = format!("policy {} via {generator:?}", policy.name());
        let replayed = replay_digest(m, &digest, policy, generator);
        assert_eq!(*direct, replayed, "{label}");
        assert_eq!(comparison.dynamic, *direct, "fused {label}");
        assert_eq!(comparison.baseline, *baseline, "fused baseline, {label}");
    }
}

#[test]
fn policy_replay_is_bit_identical_at_nominal() {
    let m = model();
    let program = generate_program(nth_seed(0xD16E57, 7), &GenConfig::default());
    assert_policies_replay_identically(&m, &program);
}

#[test]
fn adaptive_replay_is_bit_identical_including_learned_table() {
    let m = model();
    let program = generate_program(nth_seed(0xD16E57, 11), &GenConfig::default());
    let config = AdaptiveConfig::default();
    for drift in [
        Drift::None,
        Drift::LinearSlowdown {
            fraction_per_kilocycle: 0.01,
        },
    ] {
        let mut live = AdaptiveObserver::new(&m, &config, &ClockGenerator::Ideal, None, drift);
        let digest = digest_beside(&program, &mut [&mut live]);
        let replayed =
            replay_adaptive_digest(&m, &digest, &config, &ClockGenerator::Ideal, None, drift);
        // The learned tables themselves must agree entry for entry.
        let mut replay = AdaptiveObserver::new(&m, &config, &ClockGenerator::Ideal, None, drift);
        digest.for_each_cycle(|cycle, dc| replay.observe_digest(cycle, dc));
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                assert_eq!(
                    live.learned_ps(stage, class),
                    replay.learned_ps(stage, class)
                );
                assert_eq!(
                    live.observation_count(stage, class),
                    replay.observation_count(stage, class)
                );
            }
        }
        assert_eq!(live.into_outcome(), replayed, "drift {drift:?}");
    }
}

/// For random generated programs and random PVT corners, replaying the
/// digest against the corner-varied model is bit-identical to live
/// observation of a fresh simulation — policies and adaptive alike.
#[test]
fn digest_replay_matches_direct_across_corners() {
    property!(
        digest_replay_matches_direct_across_corners,
        master = 0xCA5E_0014,
        cases = 24
    )
    .run(|case| {
        let seed = case.u64();
        let corner_index = case.int(0u32..32);
        let corner_seed = case.u64();
        let nominal = model();
        let variation = VariationModel::default();
        let corner = variation.sample_corner(corner_seed, corner_index);
        let varied = variation.apply(&nominal, &corner);

        let program = generate_program(seed, &GenConfig::default());
        let lut_policy = InstructionBased::from_model(&varied);
        let config = AdaptiveConfig::default();
        let mut live = PolicyObserver::new(&varied, &lut_policy, &ClockGenerator::Ideal);
        let mut live_adaptive =
            AdaptiveObserver::new(&varied, &config, &ClockGenerator::Ideal, None, Drift::None);
        let digest = digest_beside(&program, &mut [&mut live, &mut live_adaptive]);

        let direct = live.into_outcome();
        let replayed = replay_digest(&varied, &digest, &lut_policy, &ClockGenerator::Ideal);
        assert_eq!(&direct, &replayed);

        let direct_adaptive = live_adaptive.into_outcome();
        let replayed_adaptive = replay_adaptive_digest(
            &varied,
            &digest,
            &config,
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        assert_eq!(&direct_adaptive, &replayed_adaptive);
    });
}
