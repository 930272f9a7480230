//! Asynchronous-scenario equivalence contract: a seeded interrupt storm
//! (plus an optional timer and fault plan) drives exception entries,
//! handler execution and MMIO traffic through the live pipeline; the
//! captured [`TimingDigest`] carries the scenario as a codec-v3 event
//! stream. The **live** pass (phases read off each `CycleRecord`), the
//! **digest replay** (phases recomputed from the event stream through an
//! [`IrqTimeline`]) and the **banked SoA replay** (per-call entry flags,
//! in-lane surge) must all produce bit-identical outcomes — violations,
//! entry violations, recovery accounting, frequencies — for every clock
//! policy and the adaptive controller. Composition order is part of the
//! contract: fault factors first, then the entry surge.

use idca::core::{
    AdaptiveBank, AdaptiveConfig, AdaptiveObserver, AdaptiveOutcome, Drift, PolicyBank,
    PolicyObserver,
};
use idca::pipeline::{DigestObserver, InterruptPlan, InterruptSpec, IrqPhase, TimingDigest};
use idca::prelude::*;
use idca::timing::{surged, FaultPlan, FaultSpec, IrqTimeline};
use idca_cases::property;

fn model() -> TimingModel {
    TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized)
}

/// Draws an interrupt spec whose storm rate, timer period and entry
/// penalty vary; `rate_pm == 0 && timer == 0` yields an *inactive* spec,
/// exercising the no-interrupt degenerate case through the same paths.
fn spec_of(irq_seed: u64, rate_pm: u32, timer: u32, penalty: u32) -> InterruptSpec {
    InterruptSpec {
        seed: irq_seed,
        rate: f64::from(rate_pm) / 1000.0,
        timer,
        penalty,
        ..InterruptSpec::default()
    }
}

/// Arms a scalar observer with the replay-side interrupt timeline (or the
/// live-side `None`) and an optional fault plan, in one place so every
/// path in this file composes the two identically.
fn with_scenario<'a>(
    ob: PolicyObserver<'a>,
    timeline: Option<&'a IrqTimeline>,
    surge_factor: f64,
    plan: Option<&'a FaultPlan>,
) -> PolicyObserver<'a> {
    let ob = ob.with_interrupts(timeline, surge_factor);
    match plan {
        Some(plan) => ob.with_faults(plan),
        None => ob,
    }
}

fn bank_with_faults<'a>(bank: PolicyBank<'a>, plan: Option<&FaultPlan>) -> PolicyBank<'a> {
    match plan {
        Some(plan) => bank.with_faults(*plan),
        None => bank,
    }
}

/// Simulates one generated program under the interrupt scenario with the
/// full live observer stack riding the pass, capturing the digest (and its
/// event stream) from the same run.
#[allow(clippy::type_complexity)]
fn live_outcomes(
    m: &TimingModel,
    program: &Program,
    spec: &InterruptSpec,
    faults: Option<&FaultPlan>,
) -> (TimingDigest, [RunOutcome; 3], AdaptiveOutcome) {
    let surge_factor = 1.0 + spec.surge;
    let static_policy = StaticClock::of_model(m);
    let lut_policy = InstructionBased::from_model(m);
    let exec_policy = ExecuteOnly::new(DelayLut::from_model(m));
    let mut digest = DigestObserver::new();
    let mut ob_static = with_scenario(
        PolicyObserver::new(m, &static_policy, &ClockGenerator::Ideal),
        None,
        surge_factor,
        faults,
    );
    let mut ob_lut = with_scenario(
        PolicyObserver::new(m, &lut_policy, &ClockGenerator::Ideal),
        None,
        surge_factor,
        faults,
    );
    let mut ob_exec = with_scenario(
        PolicyObserver::new(m, &exec_policy, &ClockGenerator::Ideal),
        None,
        surge_factor,
        faults,
    );
    let mut ob_adaptive = AdaptiveObserver::new(
        m,
        &AdaptiveConfig::default(),
        &ClockGenerator::Ideal,
        None,
        Drift::None,
    )
    .with_interrupts(None, surge_factor);
    if let Some(plan) = faults {
        ob_adaptive = ob_adaptive.with_faults(plan);
    }

    // Inactive specs never attach the handler: appending unreachable code
    // would still shift the memory image and change the digest.
    if spec.active() {
        let (program, plan) = InterruptPlan::attach(program, spec);
        Simulator::new(SimConfig::default())
            .with_interrupts(plan)
            .run_observed(
                &program,
                &mut [
                    &mut digest,
                    &mut ob_static,
                    &mut ob_lut,
                    &mut ob_exec,
                    &mut ob_adaptive,
                ],
            )
            .expect("interrupt scenarios terminate");
    } else {
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
    }
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
fn interrupt_outcomes_are_bit_identical_live_vs_digest_vs_prepared() {
    property!(
        interrupt_outcomes_are_bit_identical_live_vs_digest_vs_prepared,
        master = 0xCA5E_0012,
        cases = 8
    )
    .run(|case| {
        let master_seed = case.u64();
        let irq_seed = case.u64();
        let rate_pm = case.int(0u32..=8);
        let timer = if case.bool() { 0 } else { case.int(97..=301) };
        let penalty = case.int(1u32..=8);
        let with_faults = case.bool();
        let fault_seed = case.u64();
        let m = model();
        let spec = spec_of(irq_seed, rate_pm, timer, penalty);
        let surge_factor = 1.0 + spec.surge;
        let plan = with_faults.then(|| {
            FaultPlan::new(&FaultSpec {
                seed: fault_seed,
                droop_rate: 0.3,
                spike_rate: 0.01,
                shift_mag: 0.05,
                replay_penalty: 4,
                ..FaultSpec::default()
            })
        });
        let program = generate_program(nth_seed(master_seed, 0), &GenConfig::default());
        let (digest, live, live_adaptive) = live_outcomes(&m, &program, &spec, plan.as_ref());

        // The replay-side phase source: the timeline rebuilt from the
        // digest's event stream. An inactive spec has no events — the
        // timeline is empty and every cycle replays as steady state.
        let timeline = IrqTimeline::from_events(digest.events(), spec.penalty);
        if spec.active() && timeline.entries() > 0 {
            assert!(timeline.handler_cycles(digest.summary().cycles) > 0);
        }

        let static_policy = StaticClock::of_model(&m);
        let lut_policy = InstructionBased::from_model(&m);
        let exec_policy = ExecuteOnly::new(DelayLut::from_model(&m));
        let policies: [&dyn ClockPolicy; 3] = [&static_policy, &lut_policy, &exec_policy];

        // Digest replay: each observer recomputes timing, fault and surge
        // itself, deriving phases from its own timeline cursor.
        let mut replay: Vec<RunOutcome> = Vec::new();
        for policy in policies {
            let mut ob = with_scenario(
                PolicyObserver::new(&m, policy, &ClockGenerator::Ideal),
                Some(&timeline),
                surge_factor,
                plan.as_ref(),
            );
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
        .with_interrupts(Some(&timeline), surge_factor);
        if let Some(plan) = plan.as_ref() {
            ob_adaptive = ob_adaptive.with_faults(plan);
        }
        digest.for_each_cycle(|cycle, dc| ob_adaptive.observe_digest(cycle, dc));
        ob_adaptive.finish(&digest.summary());
        let replay_adaptive = ob_adaptive.into_outcome();

        // Prepared-timing replay (the sweep's fan-out shape): the caller
        // perturbs once per cycle — faults first, then the entry surge —
        // and shares the timing across all observers.
        let mut prepared: Vec<PolicyObserver> = policies
            .iter()
            .map(|p| {
                with_scenario(
                    PolicyObserver::new(&m, *p, &ClockGenerator::Ideal),
                    Some(&timeline),
                    surge_factor,
                    plan.as_ref(),
                )
            })
            .collect();
        let mut prepared_adaptive = AdaptiveObserver::new(
            &m,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        )
        .with_interrupts(Some(&timeline), surge_factor);
        if let Some(plan) = plan.as_ref() {
            prepared_adaptive = prepared_adaptive.with_faults(plan);
        }
        let mut cursor = timeline.cursor();
        digest.for_each_cycle(|cycle, dc| {
            let timing = m.digest_cycle_timing(cycle, dc);
            let timing = match plan.as_ref() {
                Some(plan) => plan.faulted(cycle, &timing),
                None => timing,
            };
            let timing = if cursor.phase(cycle) == IrqPhase::Entry {
                surged(&timing, surge_factor)
            } else {
                timing
            };
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
            // Field-for-field f64 equality, not tolerance — and the
            // entry-violation column rides inside the outcome, so the
            // live-vs-timeline phase agreement is pinned bit-exactly too.
            assert_eq!(live, replayed);
            assert_eq!(live, shared);
            assert!(live.entry_violations <= live.violations);
        }
        assert_eq!(&live_adaptive, &replay_adaptive);
        assert_eq!(&live_adaptive, &prepared_adaptive);

        // An inactive scenario must stay bit-identical to never having
        // heard of interrupts at all.
        if !spec.active() {
            let mut bare = PolicyObserver::new(&m, &lut_policy, &ClockGenerator::Ideal);
            if let Some(plan) = plan.as_ref() {
                bare = bare.with_faults(plan);
            }
            digest.for_each_cycle(|cycle, dc| bare.observe_digest(cycle, dc));
            bare.finish(&summary);
            assert_eq!(&live[1], &bare.into_outcome());
        }
    });
}

#[test]
fn interrupt_soa_lanes_kernel_is_bit_identical_to_prepared_observers() {
    property!(
        interrupt_soa_lanes_kernel_is_bit_identical_to_prepared_observers,
        master = 0xCA5E_0013,
        cases = 8
    )
    .run(|case| {
        let corners = case.int(1u32..=9);
        let master_seed = case.u64();
        let irq_seed = case.u64();
        let rate_pm = case.int(1u32..=8);
        let penalty = case.int(1u32..=8);
        let with_faults = case.bool();
        // The interrupt counterpart of the faulted lanes-kernel pin: the
        // in-lane fault-then-surge perturbation plus the banks' per-call
        // entry flags must match scalar observers fed caller-perturbed
        // timing, bit for bit, at every corner.
        let spec = spec_of(irq_seed, rate_pm, 151, penalty);
        let surge_factor = 1.0 + spec.surge;
        let plan = with_faults.then(|| {
            FaultPlan::new(&FaultSpec {
                seed: irq_seed ^ 0xF00D,
                droop_rate: 0.25,
                spike_rate: 0.01,
                shift_mag: 0.05,
                replay_penalty: 4,
                ..FaultSpec::default()
            })
        });
        let base = model();
        let vm = VariationModel::default();
        let models: Vec<TimingModel> = (0..corners)
            .map(|i| vm.apply(&base, &vm.sample_corner(master_seed, i)))
            .collect();
        let program = generate_program(nth_seed(master_seed, 0), &GenConfig::default());
        let (attached, irq_plan) = InterruptPlan::attach(&program, &spec);
        let mut digest_ob = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .with_interrupts(irq_plan)
            .run_observed(&attached, &mut [&mut digest_ob])
            .expect("interrupt scenarios terminate");
        let digest = digest_ob.into_digest();
        let timeline = IrqTimeline::from_events(digest.events(), spec.penalty);
        let config = AdaptiveConfig::default();
        let lut_policy = InstructionBased::from_model(&base);
        let exec_policy = ExecuteOnly::new(DelayLut::from_model(&base));
        let static_requests: Vec<idca::timing::Ps> = models
            .iter()
            .map(|m| StaticClock::of_model(m).period())
            .collect();

        // Every generator in every case, so the banks' limits are pinned
        // where the realized period differs from the request.
        for generator in [
            ClockGenerator::Ideal,
            ClockGenerator::quantized_50ps(),
            ClockGenerator::discrete(8, 900.0, 2100.0),
        ] {
            // Banked walk: lanes perturbed in place (faults first, then the
            // entry surge), banks fed the per-cycle entry flag.
            let bank = CornerBank::from_models(&models);
            let mut bank_static = bank_with_faults(
                PolicyBank::new("static", models.len(), &generator),
                plan.as_ref(),
            );
            let mut bank_lut = bank_with_faults(
                PolicyBank::new("instruction-based", models.len(), &generator),
                plan.as_ref(),
            );
            let mut bank_exec = bank_with_faults(
                PolicyBank::new("execute-only", models.len(), &generator),
                plan.as_ref(),
            );
            let mut adaptive = AdaptiveBank::new(&models, &config, &generator, None, Drift::None);
            if let Some(plan) = plan.as_ref() {
                adaptive = adaptive.with_faults(*plan);
            }
            let mut evaluator = bank.evaluator();
            let mut cursor = timeline.cursor();
            digest.for_each_run(|start, len, dc| {
                bank_lut.begin_block(lut_policy.digest_period_ps(start, dc));
                bank_exec.begin_block(exec_policy.digest_period_ps(start, dc));
                bank_static.begin_block_per_corner(&static_requests);
                for cycle in start..start + u64::from(len) {
                    let entry = cursor.phase(cycle) == IrqPhase::Entry;
                    let lanes = evaluator.cycle_lanes(cycle, dc);
                    if let Some(plan) = plan.as_ref() {
                        lanes.apply_fault(plan, cycle);
                    }
                    if entry {
                        lanes.apply_surge(surge_factor);
                    }
                    let lanes = &*lanes;
                    if entry {
                        bank_static.observe_actuals_entry(lanes.max_lanes());
                        bank_lut.observe_actuals_entry(lanes.max_lanes());
                        bank_exec.observe_actuals_entry(lanes.max_lanes());
                    } else {
                        bank_static.observe_actuals(lanes.max_lanes());
                        bank_lut.observe_actuals(lanes.max_lanes());
                        bank_exec.observe_actuals(lanes.max_lanes());
                    }
                    adaptive.observe_cycle_lanes_phased(cycle, dc, lanes, entry);
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
                let mut ob_static = with_scenario(
                    PolicyObserver::new(varied, &static_policy, &generator),
                    Some(&timeline),
                    surge_factor,
                    plan.as_ref(),
                );
                let mut ob_lut = with_scenario(
                    PolicyObserver::new(varied, &lut_policy, &generator),
                    Some(&timeline),
                    surge_factor,
                    plan.as_ref(),
                );
                let mut ob_exec = with_scenario(
                    PolicyObserver::new(varied, &exec_policy, &generator),
                    Some(&timeline),
                    surge_factor,
                    plan.as_ref(),
                );
                let mut ob_adaptive =
                    AdaptiveObserver::new(varied, &config, &generator, None, Drift::None)
                        .with_interrupts(Some(&timeline), surge_factor);
                if let Some(plan) = plan.as_ref() {
                    ob_adaptive = ob_adaptive.with_faults(plan);
                }
                let mut cursor = timeline.cursor();
                digest.for_each_cycle(|cycle, dc| {
                    let timing = varied.digest_cycle_timing(cycle, dc);
                    let timing = match plan.as_ref() {
                        Some(plan) => plan.faulted(cycle, &timing),
                        None => timing,
                    };
                    let timing = if cursor.phase(cycle) == IrqPhase::Entry {
                        surged(&timing, surge_factor)
                    } else {
                        timing
                    };
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
