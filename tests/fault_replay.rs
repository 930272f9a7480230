//! Fault-injection equivalence contract at the observer level: a seeded
//! [`FaultPlan`] perturbs each cycle's timing through a pure function of
//! `(fault seed, cycle)`, so the **live** simulation pass, the **digest
//! replay** that recomputes timing per cycle, and the **prepared-timing**
//! replay path (where the caller applies [`FaultPlan::faulted`] once and
//! shares the perturbed timing across observers) must all produce
//! bit-identical outcomes — violations, recovery accounting, frequencies —
//! for every clock policy and the adaptive controller.

use idca::core::{
    AdaptiveBank, AdaptiveConfig, AdaptiveObserver, Drift, PolicyBank, PolicyObserver,
};
use idca::pipeline::{DigestObserver, TimingDigest};
use idca::prelude::*;
use idca::timing::{FaultPlan, FaultSpec};
use idca_cases::property;

fn model() -> TimingModel {
    TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized)
}

/// Simulates one generated program with faulted live observers riding the
/// pass, capturing the digest from the same run.
fn live_outcomes(
    m: &TimingModel,
    program: &Program,
    plan: &FaultPlan,
) -> (TimingDigest, [RunOutcome; 3], idca::core::AdaptiveOutcome) {
    let static_policy = StaticClock::of_model(m);
    let lut_policy = InstructionBased::from_model(m);
    let exec_policy = ExecuteOnly::new(DelayLut::from_model(m));
    let mut digest = DigestObserver::new();
    let mut ob_static =
        PolicyObserver::new(m, &static_policy, &ClockGenerator::Ideal).with_faults(plan);
    let mut ob_lut = PolicyObserver::new(m, &lut_policy, &ClockGenerator::Ideal).with_faults(plan);
    let mut ob_exec =
        PolicyObserver::new(m, &exec_policy, &ClockGenerator::Ideal).with_faults(plan);
    let mut ob_adaptive = AdaptiveObserver::new(
        m,
        &AdaptiveConfig::default(),
        &ClockGenerator::Ideal,
        None,
        Drift::None,
    )
    .with_faults(plan);
    Simulator::new(SimConfig::default())
        .run_observed(
            program,
            &mut [
                &mut digest,
                &mut ob_static,
                &mut ob_lut,
                &mut ob_exec,
                &mut ob_adaptive,
            ],
        )
        .expect("generated programs terminate");
    (
        digest.into_digest(),
        [
            ob_static.into_outcome(),
            ob_lut.into_outcome(),
            ob_exec.into_outcome(),
        ],
        ob_adaptive.into_outcome(),
    )
}

#[test]
fn faulted_outcomes_are_bit_identical_live_vs_digest_vs_prepared() {
    property!(
        faulted_outcomes_are_bit_identical_live_vs_digest_vs_prepared,
        master = 0xCA5E_000F,
        cases = 8
    )
    .run(|case| {
        let master_seed = case.u64();
        let fault_seed = case.u64();
        let droop_rate_pct = case.int(0u32..=100);
        let spike_rate_pm = case.int(0u32..=50);
        let replay_penalty = case.int(0u32..=16);
        let m = model();
        let spec = FaultSpec {
            seed: fault_seed,
            droop_rate: f64::from(droop_rate_pct) / 100.0,
            spike_rate: f64::from(spike_rate_pm) / 1000.0,
            shift_mag: 0.05,
            replay_penalty,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::new(&spec);
        let program = generate_program(nth_seed(master_seed, 0), &GenConfig::default());
        let (digest, live, live_adaptive) = live_outcomes(&m, &program, &plan);

        let static_policy = StaticClock::of_model(&m);
        let lut_policy = InstructionBased::from_model(&m);
        let exec_policy = ExecuteOnly::new(DelayLut::from_model(&m));
        let policies: [&dyn ClockPolicy; 3] = [&static_policy, &lut_policy, &exec_policy];

        // Digest replay, letting each observer recompute-and-perturb.
        let mut replay: Vec<RunOutcome> = Vec::new();
        for policy in policies {
            let mut ob = PolicyObserver::new(&m, policy, &ClockGenerator::Ideal).with_faults(&plan);
            digest.for_each_cycle(|cycle, dc| ob.observe_digest(cycle, dc));
            ob.finish(&digest.summary());
            replay.push(ob.into_outcome());
        }
        let mut ob_adaptive = AdaptiveObserver::new(
            &m,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        )
        .with_faults(&plan);
        digest.for_each_cycle(|cycle, dc| ob_adaptive.observe_digest(cycle, dc));
        ob_adaptive.finish(&digest.summary());
        let replay_adaptive = ob_adaptive.into_outcome();

        // Prepared-timing replay: the caller perturbs once per cycle and
        // shares the faulted timing across all observers (the sweep's
        // fan-out shape).
        let mut prepared: Vec<PolicyObserver> = policies
            .iter()
            .map(|p| PolicyObserver::new(&m, *p, &ClockGenerator::Ideal).with_faults(&plan))
            .collect();
        let mut prepared_adaptive = AdaptiveObserver::new(
            &m,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        )
        .with_faults(&plan);
        digest.for_each_cycle(|cycle, dc| {
            let timing = m.digest_cycle_timing(cycle, dc);
            let timing = plan.faulted(cycle, &timing);
            for ob in &mut prepared {
                ob.observe_digest_timed(cycle, dc, &timing);
            }
            prepared_adaptive.observe_digest_timed(cycle, dc, &timing);
        });
        let summary = digest.summary();
        let prepared: Vec<RunOutcome> = prepared
            .into_iter()
            .map(|mut ob| {
                ob.finish(&summary);
                ob.into_outcome()
            })
            .collect();
        prepared_adaptive.finish(&summary);
        let prepared_adaptive = prepared_adaptive.into_outcome();

        for ((live, replayed), shared) in live.iter().zip(&replay).zip(&prepared) {
            // Field-for-field f64 equality, not tolerance: every path runs
            // the identical perturbed arithmetic.
            assert_eq!(live, replayed);
            assert_eq!(live, shared);
        }
        assert_eq!(&live_adaptive, &replay_adaptive);
        assert_eq!(&live_adaptive, &prepared_adaptive);

        // Recovery bookkeeping is conserved on every outcome.
        for outcome in &live {
            assert_eq!(
                outcome.recovered_cycles + outcome.silent_risk_cycles,
                outcome.violations
            );
            assert_eq!(
                outcome.replay_penalty_cycles,
                outcome.recovered_cycles * u64::from(replay_penalty)
            );
            assert!(outcome.recovery_frequency_mhz <= outcome.effective_frequency_mhz);
        }
    });
}

#[test]
fn faulted_soa_lanes_kernel_is_bit_identical_to_prepared_observers() {
    property!(
        faulted_soa_lanes_kernel_is_bit_identical_to_prepared_observers,
        master = 0xCA5E_0010,
        cases = 8
    )
    .run(|case| {
        let corners = case.int(1u32..=9);
        let master_seed = case.u64();
        let fault_seed = case.u64();
        let droop_rate_pct = case.int(0u32..=100);
        let replay_penalty = case.int(0u32..=16);
        let drifting = case.bool();
        // The faulted counterpart of the lanes-kernel pin in
        // `banked_replay.rs`: the in-lane [`CycleLanes::apply_fault`]
        // perturbation plus the banks' recovery classification must match
        // the scalar observers fed caller-perturbed timing, bit for bit.
        let spec = FaultSpec {
            seed: fault_seed,
            droop_rate: f64::from(droop_rate_pct) / 100.0,
            spike_rate: 0.02,
            shift_mag: 0.05,
            replay_penalty,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::new(&spec);
        let base = model();
        let vm = VariationModel::default();
        let models: Vec<TimingModel> = (0..corners)
            .map(|i| vm.apply(&base, &vm.sample_corner(master_seed, i)))
            .collect();
        let program = generate_program(nth_seed(master_seed, 0), &GenConfig::default());
        let mut digest_ob = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .run_observed(&program, &mut [&mut digest_ob])
            .expect("generated programs terminate");
        let digest = digest_ob.into_digest();
        let config = AdaptiveConfig::default();
        let drift = if drifting {
            Drift::LinearSlowdown {
                fraction_per_kilocycle: 0.02,
            }
        } else {
            Drift::None
        };
        let lut_policy = InstructionBased::from_model(&base);
        let exec_policy = ExecuteOnly::new(DelayLut::from_model(&base));
        let static_requests: Vec<idca::timing::Ps> = models
            .iter()
            .map(|m| StaticClock::of_model(m).period())
            .collect();

        // Every generator in every case: a quantizing or discrete
        // generator realizes a period other than the request, so the
        // detection limit and penalty step must derive from the realized
        // period, not from the request.
        for generator in [
            ClockGenerator::Ideal,
            ClockGenerator::quantized_50ps(),
            ClockGenerator::discrete(8, 900.0, 2100.0),
        ] {
            // Banked walk: lanes perturbed in place, banks classify recovery.
            let bank = CornerBank::from_models(&models);
            let mut bank_static =
                PolicyBank::new("static", models.len(), &generator).with_faults(plan);
            let mut bank_lut =
                PolicyBank::new("instruction-based", models.len(), &generator).with_faults(plan);
            let mut bank_exec =
                PolicyBank::new("execute-only", models.len(), &generator).with_faults(plan);
            let mut adaptive =
                AdaptiveBank::new(&models, &config, &generator, None, drift).with_faults(plan);
            let mut evaluator = bank.evaluator();
            digest.for_each_run(|start, len, dc| {
                bank_lut.begin_block(lut_policy.digest_period_ps(start, dc));
                bank_exec.begin_block(exec_policy.digest_period_ps(start, dc));
                bank_static.begin_block_per_corner(&static_requests);
                for cycle in start..start + u64::from(len) {
                    let lanes = evaluator.cycle_lanes(cycle, dc);
                    lanes.apply_fault(&plan, cycle);
                    let lanes = &*lanes;
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

            for (corner, varied) in models.iter().enumerate() {
                let static_policy = StaticClock::new(static_requests[corner]);
                let mut ob_static =
                    PolicyObserver::new(varied, &static_policy, &generator).with_faults(&plan);
                let mut ob_lut =
                    PolicyObserver::new(varied, &lut_policy, &generator).with_faults(&plan);
                let mut ob_exec =
                    PolicyObserver::new(varied, &exec_policy, &generator).with_faults(&plan);
                let mut ob_adaptive =
                    AdaptiveObserver::new(varied, &config, &generator, None, drift)
                        .with_faults(&plan);
                digest.for_each_cycle(|cycle, dc| {
                    let timing = varied.digest_cycle_timing(cycle, dc);
                    let timing = plan.faulted(cycle, &timing);
                    ob_static.observe_digest_timed(cycle, dc, &timing);
                    ob_lut.observe_digest_timed(cycle, dc, &timing);
                    ob_exec.observe_digest_timed(cycle, dc, &timing);
                    ob_adaptive.observe_digest_timed(cycle, dc, &timing);
                });
                ob_static.finish(&summary);
                ob_lut.finish(&summary);
                ob_exec.finish(&summary);
                ob_adaptive.finish(&summary);
                // Whole-struct bit equality.
                let scalar_static = ob_static.into_outcome();
                let scalar_lut = ob_lut.into_outcome();
                let scalar_exec = ob_exec.into_outcome();
                assert_eq!(&out_static[corner], &scalar_static, "corner {}", corner);
                assert_eq!(&out_lut[corner], &scalar_lut, "corner {}", corner);
                assert_eq!(&out_exec[corner], &scalar_exec, "corner {}", corner);
                assert_eq!(
                    &out_adaptive[corner],
                    &ob_adaptive.into_outcome(),
                    "corner {}",
                    corner
                );
            }
        }
    });
}

#[test]
fn a_quiet_fault_plan_is_bit_identical_to_no_plan() {
    property!(
        a_quiet_fault_plan_is_bit_identical_to_no_plan,
        master = 0xCA5E_0011,
        cases = 8
    )
    .run(|case| {
        let master_seed = case.u64();
        let fault_seed = case.u64();
        // All event rates zero: the plan must not change a single bit of
        // the outcome relative to running without one.
        let m = model();
        let spec = FaultSpec {
            seed: fault_seed,
            droop_rate: 0.0,
            spike_rate: 0.0,
            shift_mag: 0.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::new(&spec);
        let program = generate_program(nth_seed(master_seed, 0), &GenConfig::default());
        let lut_policy = InstructionBased::from_model(&m);

        let mut quiet =
            PolicyObserver::new(&m, &lut_policy, &ClockGenerator::Ideal).with_faults(&plan);
        let mut bare = PolicyObserver::new(&m, &lut_policy, &ClockGenerator::Ideal);
        let mut digest = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .run_observed(&program, &mut [&mut digest, &mut quiet, &mut bare])
            .expect("generated programs terminate");
        let quiet = quiet.into_outcome();
        let bare = bare.into_outcome();
        assert_eq!(quiet.violations, bare.violations);
        assert_eq!(
            quiet.effective_frequency_mhz.to_bits(),
            bare.effective_frequency_mhz.to_bits()
        );
        // With zero penalties charged, the recovery-adjusted clock equals
        // the effective clock bit-exactly.
        assert_eq!(
            quiet.recovery_frequency_mhz.to_bits(),
            quiet.effective_frequency_mhz.to_bits()
        );
    });
}
