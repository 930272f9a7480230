//! Equivalence contract of the corner-batched replay kernel and the digest
//! binary codec, over *random* inputs:
//!
//! * replaying a digest against `M` corner-varied models through the SIMD
//!   [`CornerBank`] lanes must be **bit-identical** to the scalar replay of
//!   each corner on its own, for every policy, for corner counts on both
//!   sides of (and straddling) the lane width — padding lanes must be
//!   inert;
//! * serializing a digest and loading it back must reproduce the identical
//!   digest, the identical bytes, and the identical replay outcomes;
//! * no corruption of serialized bytes may panic the loader.

use idca::core::{
    replay_adaptive_digest, replay_adaptive_digest_banked, replay_digest, replay_digest_banked,
    AdaptiveBank, AdaptiveConfig, AdaptiveObserver, Drift, PolicyBank, PolicyObserver,
};
use idca::pipeline::{DigestObserver, TimingDigest};
use idca::prelude::*;
use idca_cases::property;

fn nominal() -> TimingModel {
    TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized)
}

/// Generates and simulates the `master_seed`-derived program, capturing its
/// timing digest.
fn digest_of(master_seed: u64) -> TimingDigest {
    let program = generate_program(nth_seed(master_seed, 0), &GenConfig::default());
    let mut observer = DigestObserver::new();
    Simulator::new(SimConfig::default())
        .run_observed(&program, &mut [&mut observer])
        .expect("generated programs terminate");
    observer.into_digest()
}

/// Samples `corners` PVT-varied models from the default variation model.
fn varied_models(corners: u32, master_seed: u64) -> Vec<TimingModel> {
    let base = nominal();
    let vm = VariationModel::default();
    (0..corners)
        .map(|i| vm.apply(&base, &vm.sample_corner(master_seed, i)))
        .collect()
}

#[test]
fn banked_replay_is_bit_identical_to_lane_by_lane() {
    property!(
        banked_replay_is_bit_identical_to_lane_by_lane,
        master = 0xCA5E_0009,
        cases = 8
    )
    .run(|case| {
        let corners = case.int(1u32..=9);
        let master_seed = case.u64();
        let digest = digest_of(master_seed);
        let models = varied_models(corners, master_seed);
        let base = nominal();
        let policies: [&dyn ClockPolicy; 3] = [
            &StaticClock::of_model(&base),
            &InstructionBased::from_model(&base),
            &ExecuteOnly::new(DelayLut::from_model(&base)),
        ];
        for policy in policies {
            let banked = replay_digest_banked(&models, &digest, policy, &ClockGenerator::Ideal);
            assert_eq!(banked.len(), models.len());
            for (model, outcome) in models.iter().zip(&banked) {
                let scalar = replay_digest(model, &digest, policy, &ClockGenerator::Ideal);
                // Field-for-field f64 equality, not tolerance: the banked
                // lanes perform the identical arithmetic, so violations and
                // realized periods must match to the last bit.
                assert_eq!(outcome, &scalar, "policy {}", policy.name());
            }
        }
    });
}

#[test]
fn banked_adaptive_replay_is_bit_identical_to_scalar_observers() {
    property!(
        banked_adaptive_replay_is_bit_identical_to_scalar_observers,
        master = 0xCA5E_000A,
        cases = 8
    )
    .run(|case| {
        let corners = case.int(1u32..=9);
        let master_seed = case.u64();
        let seeded = case.bool();
        let drift_centikilo = case.int(0u32..=3);
        let digest = digest_of(master_seed);
        let models = varied_models(corners, master_seed);
        let config = AdaptiveConfig::default();
        let seed_lut = DelayLut::from_model(&nominal());
        let seed_lut = seeded.then_some(&seed_lut);
        // Include drifting runs: drift exercises the violation-backoff
        // branch of the learned-table update, which a drift-free replay of
        // a margin-guarded table never takes.
        let drift = if drift_centikilo == 0 {
            Drift::None
        } else {
            Drift::LinearSlowdown {
                fraction_per_kilocycle: f64::from(drift_centikilo) * 0.01,
            }
        };
        let banked = replay_adaptive_digest_banked(
            &models,
            &digest,
            &config,
            &ClockGenerator::Ideal,
            seed_lut,
            drift,
        );
        assert_eq!(banked.len(), models.len());
        for (model, outcome) in models.iter().zip(&banked) {
            let scalar = replay_adaptive_digest(
                model,
                &digest,
                &config,
                &ClockGenerator::Ideal,
                seed_lut,
                drift,
            );
            // Field-for-field f64 equality: the SoA adaptive bank performs
            // the identical predict/realize/observe/adapt arithmetic per
            // lane, so learned periods, violations and warmup counts must
            // match to the last bit.
            assert_eq!(outcome, &scalar, "corners {}", corners);
        }
    });
}

#[test]
fn soa_lanes_kernel_is_bit_identical_to_scalar_observers() {
    property!(
        soa_lanes_kernel_is_bit_identical_to_scalar_observers,
        master = 0xCA5E_000B,
        cases = 8
    )
    .run(|case| {
        let corners = case.int(1u32..=9);
        let master_seed = case.u64();
        let seeded = case.bool();
        let drifting = case.bool();
        // Pins the sweep's actual phase-2 loop: the [`CycleLanes`]
        // structure-of-arrays evaluation feeding the three [`PolicyBank`]s
        // (one block decision, one contiguous compare per cycle) and the
        // [`AdaptiveBank`]'s lanes kernel, wired exactly as the sweep
        // wires them.
        let digest = digest_of(master_seed);
        let models = varied_models(corners, master_seed);
        let base = nominal();
        let config = AdaptiveConfig::default();
        let seed_lut = DelayLut::from_model(&base);
        let seed_lut = seeded.then_some(&seed_lut);
        let drift = if drifting {
            Drift::LinearSlowdown {
                fraction_per_kilocycle: 0.02,
            }
        } else {
            Drift::None
        };
        // The sweep deploys one margin-guarded LUT across every corner, so
        // the table-driven decisions are corner-invariant: shared policies.
        let lut_policy = InstructionBased::from_model(&base);
        let exec_policy = ExecuteOnly::new(DelayLut::from_model(&base));
        let static_requests: Vec<idca::timing::Ps> = models
            .iter()
            .map(|m| StaticClock::of_model(m).period())
            .collect();
        let bank = CornerBank::from_models(&models);

        // Every generator in every case, so each `realize` arm (and the
        // banks' once-per-cycle realize) is reached whatever the sample.
        for generator in [
            ClockGenerator::Ideal,
            ClockGenerator::quantized_50ps(),
            ClockGenerator::discrete(8, 900.0, 2100.0),
        ] {
            // Banked: one digest walk, all corners in SoA lanes.
            let mut bank_static = PolicyBank::new("static", models.len(), &generator);
            let mut bank_lut = PolicyBank::new("instruction-based", models.len(), &generator);
            let mut bank_exec = PolicyBank::new("execute-only", models.len(), &generator);
            let mut adaptive = AdaptiveBank::new(&models, &config, &generator, seed_lut, drift);
            // The static requests are fixed for the job, so the bank is
            // primed once before the walk, as the sweep primes it (the
            // fault and interrupt lanes tests keep priming it per block).
            if digest.cycles() > 0 {
                bank_static.begin_block_per_corner(&static_requests);
            }
            let mut evaluator = bank.evaluator();
            digest.for_each_run(|start, len, dc| {
                bank_lut.begin_block(lut_policy.digest_period_ps(start, dc));
                bank_exec.begin_block(exec_policy.digest_period_ps(start, dc));
                for cycle in start..start + u64::from(len) {
                    let lanes = &*evaluator.cycle_lanes(cycle, dc);
                    bank_static.observe_actuals(lanes.max_lanes());
                    bank_lut.observe_actuals(lanes.max_lanes());
                    bank_exec.observe_actuals(lanes.max_lanes());
                    adaptive.observe_cycle_lanes_phased(cycle, dc, lanes, false);
                }
            });
            let summary = digest.summary();
            bank_static.finish(&summary);
            bank_lut.finish(&summary);
            bank_exec.finish(&summary);
            adaptive.finish(&summary);
            let out_static = bank_static.into_outcomes();
            let out_lut = bank_lut.into_outcomes();
            let out_exec = bank_exec.into_outcomes();
            let out_adaptive = adaptive.into_outcomes();

            // Scalar reference: per corner, the scalar observers fed one
            // shared timing evaluation per cycle.
            for (corner, model) in models.iter().enumerate() {
                let static_policy = StaticClock::new(static_requests[corner]);
                let mut ob_static = PolicyObserver::new(model, &static_policy, &generator);
                let mut ob_lut = PolicyObserver::new(model, &lut_policy, &generator);
                let mut ob_exec = PolicyObserver::new(model, &exec_policy, &generator);
                let mut ob_adaptive =
                    AdaptiveObserver::new(model, &config, &generator, seed_lut, drift);
                digest.for_each_cycle(|cycle, dc| {
                    let timing = model.digest_cycle_timing(cycle, dc);
                    ob_static.observe_digest_timed(cycle, dc, &timing);
                    ob_lut.observe_digest_timed(cycle, dc, &timing);
                    ob_exec.observe_digest_timed(cycle, dc, &timing);
                    ob_adaptive.observe_digest_timed(cycle, dc, &timing);
                });
                ob_static.finish(&summary);
                ob_lut.finish(&summary);
                ob_exec.finish(&summary);
                ob_adaptive.finish(&summary);
                // Field-for-field f64 equality, not tolerance — including
                // the learned tables and warmup counts of the adaptive
                // outcome.
                let scalar_static = ob_static.into_outcome();
                let scalar_lut = ob_lut.into_outcome();
                let scalar_exec = ob_exec.into_outcome();
                assert_eq!(&out_static[corner], &scalar_static, "corner {}", corner);
                assert_eq!(&out_lut[corner], &scalar_lut, "corner {}", corner);
                assert_eq!(&out_exec[corner], &scalar_exec, "corner {}", corner);
                let scalar_adaptive = ob_adaptive.into_outcome();
                assert_eq!(&out_adaptive[corner], &scalar_adaptive, "corner {}", corner);
            }
        }
    });
}

#[test]
fn banked_cycle_timings_match_the_scalar_model() {
    property!(
        banked_cycle_timings_match_the_scalar_model,
        master = 0xCA5E_000C,
        cases = 8
    )
    .run(|case| {
        let corners = case.int(1u32..=9);
        let master_seed = case.u64();
        let digest = digest_of(master_seed);
        let models = varied_models(corners, master_seed);
        let bank = CornerBank::from_models(&models);
        let mut evaluator = bank.evaluator();
        let mut mismatches = 0u64;
        digest.for_each_cycle(|cycle, dc| {
            let lanes = evaluator.cycle_lanes(cycle, dc);
            for (corner, model) in models.iter().enumerate() {
                // Bit-for-bit: every stage lane and the folded maximum.
                let scalar = model.digest_cycle_timing(cycle, dc);
                let stages_match = Stage::ALL.iter().all(|&stage| {
                    lanes.stage_lanes(stage)[corner].to_bits()
                        == scalar.stage_delay_ps[stage.index()].to_bits()
                });
                let max_matches =
                    lanes.max_lanes()[corner].to_bits() == scalar.max_delay_ps.to_bits();
                mismatches += u64::from(!(stages_match && max_matches));
            }
        });
        assert_eq!(mismatches, 0);
    });
}

#[test]
fn digest_binary_round_trip_is_byte_exact_and_replay_identical() {
    property!(
        digest_binary_round_trip_is_byte_exact_and_replay_identical,
        master = 0xCA5E_000D,
        cases = 8
    )
    .run(|case| {
        let master_seed = case.u64();
        let digest = digest_of(master_seed);
        let bytes = digest.to_bytes();
        let back = TimingDigest::from_bytes(&bytes).expect("round-trips");
        assert_eq!(&back, &digest);
        assert_eq!(back.to_bytes(), bytes);
        // A reloaded digest replays to the identical outcome.
        let model = nominal();
        let policy = InstructionBased::from_model(&model);
        assert_eq!(
            replay_digest(&model, &back, &policy, &ClockGenerator::Ideal),
            replay_digest(&model, &digest, &policy, &ClockGenerator::Ideal)
        );
    });
}

#[test]
fn corrupted_digest_bytes_error_without_panicking() {
    property!(
        corrupted_digest_bytes_error_without_panicking,
        master = 0xCA5E_000E,
        cases = 8
    )
    .run(|case| {
        let master_seed = case.u64();
        let position = case.u64();
        let mask = case.int(1u8..=255u8);
        let bytes = digest_of(master_seed).to_bytes();
        // Single-byte corruption anywhere is rejected (checksummed), and
        // truncation to any length errors instead of panicking.
        let at = (position % bytes.len() as u64) as usize;
        let mut bad = bytes.clone();
        bad[at] ^= mask;
        assert!(TimingDigest::from_bytes(&bad).is_err(), "flip at {}", at);
        let cut = at; // reuse the position as an arbitrary truncation point
        assert!(TimingDigest::from_bytes(&bytes[..cut]).is_err());
    });
}
