//! Property-based tests on the core invariants of the reproduction:
//! instruction encoding round-trips, pipeline-vs-interpreter equivalence on
//! random programs, the no-timing-violation guarantee of the worst-case LUT
//! (at the nominal corner and across sampled PVT corners within the LUT
//! margin), the clock-generator safety property, and the convergence
//! invariants of the online-adaptive delay table.

use idca::core::{AdaptiveConfig, AdaptiveObserver, Drift};
use idca::isa::disasm;
use idca::pipeline::{DigestCycle, Interpreter};
use idca::prelude::*;
use idca_cases::{property, Case};

fn reg(case: &mut Case) -> Reg {
    Reg::r(case.int(0..32))
}

/// An arbitrary (valid) instruction of the modelled subset, built through
/// the typed constructors so operand ranges are respected.
fn insn(case: &mut Case) -> Insn {
    let (d, a, b) = (reg(case), reg(case), reg(case));
    match case.int(0..23) {
        0 => Insn::add(d, a, b),
        1 => Insn::sub(d, a, b),
        2 => Insn::and(d, a, b),
        3 => Insn::or(d, a, b),
        4 => Insn::xor(d, a, b),
        5 => Insn::mul(d, a, b),
        6 => Insn::cmov(d, a, b),
        7 => Insn::addi(d, a, case.int(-32768..=32767)).unwrap(),
        8 => Insn::andi(d, a, case.int(0..=65535)).unwrap(),
        9 => Insn::ori(d, a, case.int(0..=65535)).unwrap(),
        10 => Insn::xori(d, a, case.int(-32768..=32767)).unwrap(),
        11 => Insn::slli(d, a, case.int(0..32)).unwrap(),
        12 => Insn::srli(d, a, case.int(0..32)).unwrap(),
        13 => Insn::srai(d, a, case.int(0..32)).unwrap(),
        14 => Insn::movhi(d, case.int(0..=65535)).unwrap(),
        15 => Insn::sf(idca::isa::SetFlagCond::Gtu, a, b),
        16 => Insn::sfi(idca::isa::SetFlagCond::Lts, a, case.int(-32768..=32767)).unwrap(),
        17 => Insn::lwz(d, case.int(-8192..=8191) & !3, a).unwrap(),
        18 => Insn::sw(case.int(-8192..=8191) & !3, a, b).unwrap(),
        19 => Insn::j(case.int(-33_000_000 / 4..=33_000_000 / 4)).unwrap(),
        20 => Insn::bf(case.int(-100..=100)).unwrap(),
        21 => Insn::jr(a),
        _ => Insn::nop(case.int(0..100)),
    }
}

/// Every instruction encodes to a 32-bit word that decodes back to the
/// identical instruction.
#[test]
fn encode_decode_roundtrip() {
    property!(encode_decode_roundtrip, master = 0xCA5E_0001, cases = 256).run(|case| {
        let insn = insn(case);
        let word = insn.encode();
        let decoded = Insn::decode(word).expect("decodes");
        assert_eq!(decoded, insn);
    });
}

/// Disassembled text of a non-control-flow instruction re-assembles to
/// the identical instruction (the assembler and disassembler agree).
#[test]
fn disassemble_reassemble_roundtrip() {
    property!(
        disassemble_reassemble_roundtrip,
        master = 0xCA5E_0002,
        cases = 256
    )
    .run(|case| {
        let insn = insn(case);
        // PC-relative instructions print raw word offsets which the
        // assembler interprets relative to the instruction address, so they
        // round-trip only at address 0 — which is where we place them.
        let text = disasm::format_insn(&insn);
        let program = Assembler::new().assemble(&text).expect("re-assembles");
        assert_eq!(program.insns()[0], insn);
    });
}

/// A safe straight-line ALU/memory program: registers are preloaded with
/// random values, memory accesses stay inside a scratch window, and the
/// program ends with the exit marker.
fn straight_line_program(case: &mut Case) -> Program {
    let mut builder = ProgramBuilder::named("random-program");
    // Scratch memory base in r1, random initial register values.
    builder.push(Insn::addi(Reg::r(1), Reg::R0, 0x400).unwrap());
    for r in 2..16 {
        builder.push(Insn::ori(Reg::r(r), Reg::R0, case.int(0..=0xFFFF)).unwrap());
    }
    let r = |case: &mut Case| Reg::r(case.int(2..16));
    for _ in 0..case.int(1..40) {
        let step = match case.int(0..8) {
            0 => Insn::add(r(case), r(case), r(case)),
            1 => Insn::sub(r(case), r(case), r(case)),
            2 => Insn::xor(r(case), r(case), r(case)),
            3 => Insn::mul(r(case), r(case), r(case)),
            4 => Insn::addi(r(case), r(case), case.int(-2048..2048)).unwrap(),
            5 => Insn::slli(r(case), r(case), case.int(0..32)).unwrap(),
            6 => Insn::sf(idca::isa::SetFlagCond::Ltu, r(case), r(case)),
            _ => {
                let (d, off, b) = (r(case), case.int(0..64) * 4, r(case));
                builder.push(Insn::sw(off, Reg::r(1), b).unwrap());
                Insn::lwz(d, off, Reg::r(1)).unwrap()
            }
        };
        builder.push(step);
    }
    builder.push(Insn::nop(1));
    builder.build()
}

/// The pipelined core and the sequential interpreter agree on the final
/// architectural state of arbitrary straight-line programs (forwarding,
/// hazards and memory ordering introduce no divergence).
#[test]
fn pipeline_equals_interpreter() {
    property!(
        pipeline_equals_interpreter,
        master = 0xCA5E_0003,
        cases = 48
    )
    .run(|case| {
        let program = straight_line_program(case);
        let pipelined = Simulator::new(SimConfig::default())
            .run(&program)
            .expect("pipeline runs");
        let golden = Interpreter::new().run(&program).expect("interpreter runs");
        assert_eq!(pipelined.state.regs.as_array(), golden.regs.as_array());
        assert_eq!(pipelined.state.flag, golden.flag);
        assert_eq!(pipelined.trace.retired(), golden.retired);
    });
}

/// With the analytic worst-case LUT, the instruction-based policy never
/// requests a period shorter than the actual dynamic delay of any cycle.
#[test]
fn worst_case_lut_never_violates_timing() {
    property!(
        worst_case_lut_never_violates_timing,
        master = 0xCA5E_0004,
        cases = 48
    )
    .run(|case| {
        let program = straight_line_program(case);
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let mut capture = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .run_observed(&program, &mut [&mut capture])
            .expect("runs");
        let digest = capture.into_digest();
        let outcome = replay_digest(
            &model,
            &digest,
            &InstructionBased::from_model(&model),
            &ClockGenerator::Ideal,
        );
        assert_eq!(outcome.violations, 0);
        // And the genie oracle can never be slower than the LUT policy.
        let genie = replay_digest(
            &model,
            &digest,
            &GenieOracle::new(model.clone()),
            &ClockGenerator::Ideal,
        );
        assert!(genie.total_time_ps <= outcome.total_time_ps + 1e-6);
    });
}

/// PVT safety: every non-genie policy whose LUT carries the variation
/// margin stays violation-free at any corner the [`VariationModel`] can
/// sample — the static baseline because the varied model re-derives its
/// (derated) static period, the LUT policies because their entries are
/// inflated by exactly the worst samplable slowdown.
#[test]
fn margin_guarded_policies_survive_sampled_pvt_corners() {
    property!(
        margin_guarded_policies_survive_sampled_pvt_corners,
        master = 0xCA5E_0005,
        cases = 12
    )
    .run(|case| {
        let (master_seed, corner_index, program_seed) = (case.u64(), case.int(0..256), case.u64());
        let variation = VariationModel::default();
        let corner = variation.sample_corner(master_seed, corner_index);
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let varied = variation.apply(&nominal, &corner);
        let guarded = DelayLut::from_model(&nominal).scaled(1.0 + variation.margin());

        let config = GenConfig {
            blocks: 2,
            block_len: 8,
            ..GenConfig::default()
        };
        let program = generate_program(program_seed, &config);

        let static_policy = StaticClock::of_model(&varied);
        let lut_policy = InstructionBased::new(guarded.clone());
        let exec_only = ExecuteOnly::new(guarded);
        let mut observers = [
            PolicyObserver::new(&varied, &static_policy, &ClockGenerator::Ideal),
            PolicyObserver::new(&varied, &lut_policy, &ClockGenerator::Ideal),
            PolicyObserver::new(&varied, &exec_only, &ClockGenerator::Ideal),
        ];
        {
            let mut refs: Vec<&mut dyn CycleObserver> = observers
                .iter_mut()
                .map(|o| o as &mut dyn CycleObserver)
                .collect();
            Simulator::new(SimConfig::default())
                .run_observed(&program, &mut refs)
                .expect("generated program runs");
        }
        for observer in observers {
            let outcome = observer.into_outcome();
            assert_eq!(
                outcome.violations,
                0,
                "policy {} violated at corner {} ({})",
                outcome.policy,
                corner.index,
                corner.describe()
            );
        }
    });
}

/// Adaptive-LUT convergence invariants: after every observed cycle, each
/// in-flight entry covers that cycle's observed delay plus the safety
/// margin, and entries tighten monotonically (they never decrease) all
/// the way through warmup and steady state.
#[test]
fn adaptive_entries_cover_observations_and_tighten_monotonically() {
    property!(
        adaptive_entries_cover_observations_and_tighten_monotonically,
        master = 0xCA5E_0006,
        cases = 12
    )
    .run(|case| {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let config = GenConfig {
            blocks: 2,
            block_len: 8,
            ..GenConfig::default()
        };
        let program = generate_program(case.u64(), &config);
        let trace = Simulator::new(SimConfig::default())
            .run(&program)
            .expect("generated program runs")
            .trace;

        let mut controller = AdaptiveObserver::new(
            &model,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        let margin = controller.config().margin;
        let mut previous = vec![0.0f64; Stage::COUNT * TimingClass::COUNT];
        for record in trace.cycles() {
            controller.observe_cycle(record);
            let timing = model.digest_cycle_timing(record.cycle, &DigestCycle::of_record(record));
            for stage in Stage::ALL {
                let class = record.timing_class(stage);
                let learned = controller.learned_ps(stage, class);
                let required = timing.stage(stage) * (1.0 + margin);
                assert!(
                    learned + 1e-9 >= required,
                    "cycle {}: entry {stage}/{class} = {learned} ps dropped below \
                     observed delay + margin = {required} ps",
                    record.cycle
                );
            }
            for stage in Stage::ALL {
                for class in TimingClass::ALL {
                    let idx = stage.index() * TimingClass::COUNT + class.index();
                    let learned = controller.learned_ps(stage, class);
                    assert!(
                        learned + 1e-12 >= previous[idx],
                        "cycle {}: entry {stage}/{class} loosened from {} to {learned}",
                        record.cycle,
                        previous[idx]
                    );
                    previous[idx] = learned;
                }
            }
        }
        // Bookkeeping sanity: each cycle observes exactly one (stage, class)
        // pair per stage, so the observation counts sum to cycles × stages.
        let mut total_observations = 0u64;
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                total_observations += controller.observation_count(stage, class);
            }
        }
        assert_eq!(
            total_observations,
            trace.cycle_count() * Stage::COUNT as u64
        );
    });
}

/// Clock generators never realize a period shorter than requested, as
/// long as the request is within their range.
#[test]
fn clock_generators_never_undercut() {
    property!(
        clock_generators_never_undercut,
        master = 0xCA5E_0007,
        cases = 512
    )
    .run(|case| {
        let request = case.f64(600.0..2400.0);
        for generator in [
            ClockGenerator::Ideal,
            ClockGenerator::quantized_50ps(),
            ClockGenerator::discrete(16, 600.0, 2400.0),
        ] {
            assert!(generator.realize(request) + 1e-9 >= request);
        }
    });
}

/// The per-cycle LUT period is monotone: it always covers the LUT entry
/// of every stage's class.
#[test]
fn lut_period_covers_each_stage() {
    property!(
        lut_period_covers_each_stage,
        master = 0xCA5E_0008,
        cases = 512
    )
    .run(|case| {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let lut = DelayLut::from_model(&model);
        let classes: [TimingClass; 6] = std::array::from_fn(|_| *case.pick(&TimingClass::ALL));
        let period = lut.period_for(&classes);
        for stage in Stage::ALL {
            assert!(period >= lut.delay_ps(stage, classes[stage.index()]));
        }
    });
}
