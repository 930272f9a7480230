//! Regression tests for edge cases audited while building the sweep/fuzz
//! layer: empty-trace handling in the histogram percentiles and speedup
//! evaluation on zero-cycle programs must return *defined* results (NaN or
//! neutral values) instead of panicking. The behaviours below were verified
//! correct at audit time; these tests pin them down.

use idca::prelude::*;
use idca::timing::Histogram;

#[test]
fn empty_histogram_percentiles_are_defined_not_panicking() {
    let h = Histogram::new(0.0, 2000.0, 25.0);
    assert_eq!(h.count(), 0);
    // Every statistic of an empty histogram is a defined value.
    for q in [0.0, 0.05, 0.5, 0.95, 1.0] {
        assert!(
            h.percentile(q).is_nan(),
            "percentile({q}) must be NaN when empty"
        );
    }
    assert!(h.observed_min().is_nan());
    assert!(h.observed_max().is_nan());
    assert_eq!(h.mean(), 0.0);
    assert_eq!(h.to_ascii(40), "");
}

#[test]
fn histogram_percentile_tolerates_degenerate_quantiles() {
    let mut h = Histogram::new(0.0, 100.0, 10.0);
    h.add(42.0);
    // Out-of-range and NaN quantile requests clamp instead of panicking.
    let lo = h.percentile(-3.0);
    let hi = h.percentile(7.0);
    let nan_q = h.percentile(f64::NAN);
    assert!(lo.is_finite());
    assert!(hi.is_finite());
    assert!(nan_q.is_finite());
}

#[test]
fn speedup_on_zero_cycle_trace_is_neutral() {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let empty = TimingDigest::default();
    let policy = InstructionBased::from_model(&model);
    let comparison = eval::compare_digest(&model, "empty", &empty, &policy, &ClockGenerator::Ideal);
    // Both outcomes have zero cycles and zero frequency; the speedup must be
    // the neutral 1.0, not a 0/0 panic or NaN.
    assert_eq!(comparison.baseline.cycles, 0);
    assert_eq!(comparison.speedup(), 1.0);
    assert_eq!(comparison.frequency_gain_mhz(), 0.0);
    assert_eq!(comparison.dynamic.violations, 0);
}

#[test]
fn empty_program_evaluates_to_a_defined_comparison() {
    // A program with no instructions drains immediately; the evaluation
    // pipeline must stay defined end to end.
    let program = ProgramBuilder::named("empty").build();
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let policy = InstructionBased::from_model(&model);
    let mut capture = DigestObserver::new();
    Simulator::new(SimConfig::default())
        .run_observed(&program, &mut [&mut capture])
        .expect("empty program simulates");
    let digest = capture.into_digest();
    let comparison =
        eval::compare_digest(&model, "empty", &digest, &policy, &ClockGenerator::Ideal);
    assert!(comparison.speedup().is_finite());
    assert_eq!(comparison.dynamic.violations, 0);

    let mut suite = eval::SuiteSummary::new();
    suite.push(comparison);
    assert!(suite.mean_speedup().is_finite());
    assert!(suite.geometric_mean_speedup().is_finite());
}

#[test]
fn adaptive_run_on_zero_cycle_trace_is_neutral() {
    use idca::core::{replay_adaptive_digest, AdaptiveConfig, Drift};
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let outcome = replay_adaptive_digest(
        &model,
        &TimingDigest::default(),
        &AdaptiveConfig::default(),
        &ClockGenerator::Ideal,
        None,
        Drift::None,
    );
    assert_eq!(outcome.cycles, 0);
    assert_eq!(outcome.speedup_over_static, 1.0);
    assert_eq!(outcome.violations, 0);
}

/// A register jump that leaves the program image entirely must *drain* the
/// pipeline (mirroring what real fetch hardware sees: no more instructions),
/// not panic or error — and the predecoded view, the per-opcode reference
/// view, and the sequential interpreter must all agree on the resulting
/// architectural state.
#[test]
fn register_jump_outside_the_image_drains_cleanly_on_every_engine() {
    use idca::pipeline::Interpreter;
    let program = Assembler::new()
        .assemble(
            "l.movhi r5, 0x4000\n\
             l.addi  r3, r0, 7\n\
             l.jr    r5\n\
             l.addi  r3, r3, 1\n\
             l.addi  r3, r3, 100\n\
             l.nop   1\n",
        )
        .expect("assembles");

    let simulator = Simulator::new(SimConfig::default());
    let fast = simulator
        .run_observed(&program, &mut [])
        .expect("predecoded engine drains cleanly");
    let reference = simulator
        .run_observed_reference(&program, &mut [])
        .expect("reference engine drains cleanly");
    let golden = Interpreter::new()
        .run(&program)
        .expect("interpreter drains cleanly");

    // The delay slot executes before the jump leaves the image; the
    // instructions after it never do.
    assert_eq!(fast.state.regs.read(Reg::r(3)), 8);
    assert_eq!(fast.state.regs.as_array(), reference.state.regs.as_array());
    assert_eq!(fast.state.regs.as_array(), golden.regs.as_array());
    assert_eq!(fast.state.flag, golden.flag);
    assert_eq!(fast.summary, reference.summary);
    // movhi, addi, jr, delay-slot addi.
    assert_eq!(fast.summary.retired, 4);
    assert_eq!(golden.retired, 4);
}

/// An interrupt raised *during* an exception-entry flush must stay pending
/// — the controller never nests entries — and the full-system event stream
/// must show strictly alternating entry/return pairs with the late raise
/// serviced as its own entry after the first handler returns.
#[test]
fn interrupt_raised_during_exception_entry_stays_pending_and_never_nests() {
    use idca::pipeline::{
        DigestEventKind, DigestObserver, InterruptController, InterruptPlan, InterruptSpec,
        LINE_TIMER, MMIO_IRQ_ACK, MMIO_IRQ_PENDING,
    };

    // Controller level, fully deterministic: with `timer: 1` the timer line
    // fires on every cycle, so fires land inside the 3-cycle entry flush of
    // the first acceptance. They must set pending without re-entering or
    // disturbing the flush countdown. `InterruptSpec::validate` rejects such
    // a timer for whole runs (it livelocks them), so the spec is built
    // directly.
    let spec = InterruptSpec {
        timer: 1,
        penalty: 3,
        ..InterruptSpec::default()
    };
    let (_, plan) = InterruptPlan::attach(&ProgramBuilder::named("t").build(), &spec);
    let mut ctl = InterruptController::new(&plan);
    ctl.begin_cycle(0);
    assert!(ctl.takeable());
    ctl.accept(0x100, 0).unwrap();
    assert!(ctl.in_handler() && ctl.entry_pending());
    ctl.begin_cycle(1); // fires mid-entry
    assert!(!ctl.takeable(), "nested entry during entry flush");
    assert!(ctl.entry_pending());
    ctl.entry_tick();
    ctl.begin_cycle(2); // fires mid-entry again
    assert!(!ctl.takeable());
    ctl.entry_tick();
    assert!(!ctl.entry_pending());
    let pending = ctl.mmio_load(MMIO_IRQ_PENDING).unwrap();
    assert_ne!(
        pending & (1 << LINE_TIMER),
        0,
        "mid-entry raise went pending"
    );
    ctl.mmio_store(MMIO_IRQ_ACK, pending).unwrap();
    assert_eq!(ctl.rfe_retire(0), Some(0x100));
    // After the return the next raise is a *fresh* entry, not a nested one.
    ctl.begin_cycle(3);
    assert!(ctl.takeable());

    // Full system: find a storm seed whose schedule drops a timer fire
    // inside an active entry/handler span (the schedule is a pure function
    // of the seed, so the scan is deterministic), then check the recorded
    // event stream never nests and both pipeline engines agree bit-exactly.
    let program = generate_program(nth_seed(3, 0), &GenConfig::default());
    let mut witnessed = false;
    for storm_seed in 1..64u64 {
        let spec =
            InterruptSpec::parse(&format!("seed={storm_seed},rate=0.005,timer=29,penalty=12"))
                .unwrap();
        let (attached, plan) = InterruptPlan::attach(&program, &spec);
        let simulator = Simulator::new(SimConfig::default()).with_interrupts(plan);
        let mut fast_digest = DigestObserver::new();
        let fast = simulator
            .run_observed(&attached, &mut [&mut fast_digest])
            .expect("storm scenario drains");
        let mut reference_digest = DigestObserver::new();
        let reference = simulator
            .run_observed_reference(&attached, &mut [&mut reference_digest])
            .expect("storm scenario drains");
        assert_eq!(fast.summary, reference.summary, "seed {storm_seed}");
        let fast_digest = fast_digest.into_digest();
        assert_eq!(
            fast_digest.events(),
            reference_digest.into_digest().events(),
            "seed {storm_seed}"
        );

        let mut open_entry: Option<u64> = None;
        for event in fast_digest.events() {
            match event.kind {
                DigestEventKind::IrqEntry { .. } => {
                    assert!(
                        open_entry.is_none(),
                        "nested IrqEntry at cycle {} (seed {storm_seed})",
                        event.cycle
                    );
                    open_entry = Some(event.cycle);
                }
                DigestEventKind::IrqReturn => {
                    assert!(open_entry.is_some(), "IrqReturn without entry");
                    open_entry = None;
                }
                DigestEventKind::TimerFire if open_entry.is_some() => witnessed = true,
                _ => {}
            }
        }
        if witnessed {
            break;
        }
    }
    assert!(
        witnessed,
        "no seed in the scan produced a timer fire during an entry/handler span"
    );
}

/// A timer fire landing on the very last cycle before [`SimConfig::max_cycles`]
/// must end in the ordinary structured [`PipelineError::CycleLimitExceeded`]
/// — not a panic, not an accepted-but-truncated entry — identically on both
/// pipeline engines.
#[test]
fn timer_fire_on_the_final_cycle_before_the_limit_stops_with_a_structured_error() {
    use idca::pipeline::{InterruptPlan, InterruptSpec, PipelineError};

    let program = generate_program(nth_seed(11, 0), &GenConfig::default());
    // `timer=50` fires for the first time on cycle 49 — exactly the final
    // cycle the 50-cycle budget admits, so acceptance has no room to run.
    let spec = InterruptSpec::parse("timer=50,penalty=4").unwrap();
    let (attached, plan) = InterruptPlan::attach(&program, &spec);
    let config = SimConfig {
        max_cycles: 50,
        ..SimConfig::default()
    };
    let simulator = Simulator::new(config).with_interrupts(plan);
    let expected = PipelineError::CycleLimitExceeded { limit: 50 };
    assert_eq!(
        simulator.run_observed(&attached, &mut []).unwrap_err(),
        expected
    );
    assert_eq!(
        simulator
            .run_observed_reference(&attached, &mut [])
            .unwrap_err(),
        expected
    );
}

/// A run that ends on its last allowed cycle is within the limit: a program
/// that completes in exactly `N` cycles returns `Ok(N)` at `max_cycles = N`
/// and the structured [`PipelineError::CycleLimitExceeded`] at `N - 1`, on
/// every engine (the reference view, the predecoded per-cycle path and the
/// fused burst capture), whether the exit marker or the drain ends it. The
/// interpreter's instruction budget has the same boundary at
/// `max_instructions = retired`.
#[test]
fn a_run_that_ends_on_its_last_allowed_cycle_is_within_the_limit_on_every_engine() {
    use idca::pipeline::{DigestObserver, Interpreter, PipelineError, PredecodedProgram};

    let assemble = |src: &str| Assembler::new().assemble(src).expect("assembles");
    let programs = [
        assemble("l.addi r3, r0, 1\n l.nop 1\n"),
        assemble("l.addi r3, r0, 4\n l.add r4, r3, r3\n"),
        generate_program(nth_seed(11, 0), &GenConfig::default()),
    ];
    for (i, program) in programs.iter().enumerate() {
        let pre = PredecodedProgram::lower(program);
        let full = Simulator::new(SimConfig::default())
            .run_observed(program, &mut [])
            .expect("runs")
            .summary;
        let over = PipelineError::CycleLimitExceeded {
            limit: full.cycles - 1,
        };
        for (max_cycles, expected) in [(full.cycles - 1, Err(over)), (full.cycles, Ok(full))] {
            let simulator = Simulator::new(SimConfig {
                max_cycles,
                ..SimConfig::default()
            });
            let reference = simulator
                .run_observed_reference(program, &mut [])
                .map(|run| run.summary);
            let per_cycle = simulator
                .run_observed_predecoded(&pre, &mut [])
                .map(|run| run.summary);
            let mut digest = DigestObserver::with_hints(pre.digest_hints());
            let fused = simulator
                .run_observed_predecoded(&pre, &mut [&mut digest])
                .map(|run| run.summary);
            let context = format!("program {i}, max_cycles {max_cycles}");
            assert_eq!(reference, expected, "{context}: reference view");
            assert_eq!(per_cycle, expected, "{context}: predecoded per-cycle path");
            assert_eq!(fused, expected, "{context}: fused capture");
        }

        let interpret = |limit| {
            Interpreter::new()
                .with_max_instructions(limit)
                .run(program)
                .map(|result| result.retired)
        };
        let retired = full.retired;
        assert_eq!(
            interpret(retired - 1),
            Err(PipelineError::CycleLimitExceeded { limit: retired - 1 }),
            "program {i}: interpreter"
        );
        assert_eq!(interpret(retired), Ok(retired), "program {i}: interpreter");
    }
}

/// A timer whose period divides the canonical handler's round trip
/// (`penalty + 7` cycles) re-enters in lockstep with `l.rfe`, so the
/// program never retires another user instruction. Every engine (the
/// reference view, the predecoded view and its fused burst capture) stops
/// with the same structured livelock error within a few entries instead of
/// burning the cycle budget, and periods that do not divide the round trip
/// run to completion.
#[test]
fn timer_in_lockstep_with_the_handler_is_a_livelock_error_on_every_engine() {
    use idca::pipeline::{
        DigestObserver, InterruptPlan, InterruptSpec, PipelineError, PredecodedProgram,
    };

    let program = generate_program(nth_seed(7, 0), &GenConfig::default());
    let livelocks = [
        "timer=11",
        "timer=64,penalty=57",
        "timer=3,penalty=2",
        "timer=2,penalty=3",
        "timer=2,penalty=5",
        "timer=5,penalty=3",
        "timer=4,penalty=5",
        "timer=10,penalty=3",
    ];
    let completes = [
        "timer=64,penalty=56",
        "timer=4,penalty=4",
        "timer=2,penalty=4",
        "timer=150,penalty=4",
    ];
    for spec in livelocks.into_iter().chain(completes) {
        let (attached, plan) =
            InterruptPlan::attach(&program, &InterruptSpec::parse(spec).unwrap());
        let simulator = Simulator::new(SimConfig::default()).with_interrupts(plan);
        let reference = simulator
            .run_observed_reference(&attached, &mut [])
            .map(|run| run.summary);
        let live = simulator
            .run_observed(&attached, &mut [])
            .map(|run| run.summary);
        let pre = PredecodedProgram::lower(&attached);
        let mut digest = DigestObserver::with_hints(pre.digest_hints());
        let fused = simulator
            .run_observed_predecoded(&pre, &mut [&mut digest])
            .map(|run| run.summary);
        assert_eq!(live, reference, "{spec}");
        assert_eq!(fused, reference, "{spec}");
        if livelocks.contains(&spec) {
            assert!(
                matches!(reference, Err(PipelineError::InterruptLivelock { cycle, .. })
                    if cycle < 1_000),
                "{spec}: {reference:?}"
            );
        } else {
            assert!(reference.is_ok(), "{spec}: {reference:?}");
        }
    }
}

/// An interrupt vector outside the program image is the structured
/// [`PipelineError::PcOutOfRange`] naming the vector, before the first
/// cycle, identically on every engine (the reference view, the predecoded
/// view and its fused burst capture), so no run drains at its first
/// interrupt and is scored as complete. A vector inside the image keeps
/// running.
#[test]
fn interrupt_vector_outside_the_image_is_a_structured_error_on_every_engine() {
    use idca::pipeline::{
        DigestObserver, InterruptPlan, InterruptSpec, PipelineError, PredecodedProgram,
    };

    let program = generate_program(nth_seed(7, 0), &GenConfig::default());
    let storm = InterruptSpec::parse("seed=1,rate=0.01").unwrap();
    let end = InterruptPlan::attach(&program, &storm).0.end_address();
    for vector in [8, end, 0xFFFF_FFFC] {
        let spec = InterruptSpec { vector, ..storm };
        let (attached, plan) = InterruptPlan::attach(&program, &spec);
        let simulator = Simulator::new(SimConfig::default()).with_interrupts(plan);
        let reference = simulator
            .run_observed_reference(&attached, &mut [])
            .map(|run| run.summary);
        let live = simulator
            .run_observed(&attached, &mut [])
            .map(|run| run.summary);
        let pre = PredecodedProgram::lower(&attached);
        let mut digest = DigestObserver::with_hints(pre.digest_hints());
        let fused = simulator
            .run_observed_predecoded(&pre, &mut [&mut digest])
            .map(|run| run.summary);
        assert_eq!(live, reference, "vector {vector:#x}");
        assert_eq!(fused, reference, "vector {vector:#x}");
        if vector < end {
            assert!(reference.is_ok(), "vector {vector:#x}: {reference:?}");
        } else {
            assert_eq!(reference, Err(PipelineError::PcOutOfRange { pc: vector }));
        }
    }
}

/// A store to a read-only MMIO register is the structured
/// [`PipelineError::MmioReadOnly`] on both pipeline engines — never a
/// panic — and without an interrupt controller attached the same word
/// address falls through to plain SRAM bounds checking, which rejects it
/// with its own structured error.
#[test]
fn mmio_store_to_a_read_only_register_is_a_structured_error_on_every_engine() {
    use idca::pipeline::{InterruptPlan, InterruptSpec, PipelineError, MMIO_TIMER_COUNT};

    let program = Assembler::new()
        .assemble(
            "l.movhi r31, 0xffff\n\
             l.sw    0(r31), r0\n\
             l.nop   1\n",
        )
        .expect("assembles");
    let (attached, plan) = InterruptPlan::attach(&program, &InterruptSpec::default());
    let simulator = Simulator::new(SimConfig::default()).with_interrupts(plan);
    let expected = PipelineError::MmioReadOnly {
        address: MMIO_TIMER_COUNT,
    };
    assert_eq!(
        simulator.run_observed(&attached, &mut []).unwrap_err(),
        expected
    );
    assert_eq!(
        simulator
            .run_observed_reference(&attached, &mut [])
            .unwrap_err(),
        expected
    );

    // No controller attached: the address is ordinary (out-of-range) data
    // memory, and both engines report the same bounds error.
    let bare = Simulator::new(SimConfig::default());
    let fast = bare.run_observed(&program, &mut []).unwrap_err();
    assert!(
        matches!(fast, PipelineError::DataAccessOutOfRange { address, .. }
            if address == MMIO_TIMER_COUNT),
        "unexpected error without controller: {fast:?}"
    );
    assert_eq!(
        fast,
        bare.run_observed_reference(&program, &mut []).unwrap_err()
    );
}

/// A register jump to a *misaligned* address inside the image is a
/// structured [`PipelineError::PcOutOfRange`] — never a panic — and all
/// three engines report the same offending pc.
#[test]
fn register_jump_to_misaligned_pc_is_a_structured_error_on_every_engine() {
    use idca::pipeline::{Interpreter, PipelineError};
    let program = Assembler::new()
        .assemble(
            "l.addi r5, r0, 6\n\
             l.jr   r5\n\
             l.nop  0\n\
             l.nop  1\n",
        )
        .expect("assembles");

    let simulator = Simulator::new(SimConfig::default());
    let expected = PipelineError::PcOutOfRange { pc: 6 };
    assert_eq!(
        simulator.run_observed(&program, &mut []).unwrap_err(),
        expected
    );
    assert_eq!(
        simulator
            .run_observed_reference(&program, &mut [])
            .unwrap_err(),
        expected
    );
    assert_eq!(Interpreter::new().run(&program).unwrap_err(), expected);
}
