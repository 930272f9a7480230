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
use proptest::prelude::*;

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u32..32).prop_map(Reg::r)
}

/// A strategy over arbitrary (valid) instructions of the modelled subset,
/// built through the typed constructors so operand ranges are respected.
fn insn_strategy() -> impl Strategy<Value = Insn> {
    let r = reg_strategy;
    prop_oneof![
        (r(), r(), r()).prop_map(|(d, a, b)| Insn::add(d, a, b)),
        (r(), r(), r()).prop_map(|(d, a, b)| Insn::sub(d, a, b)),
        (r(), r(), r()).prop_map(|(d, a, b)| Insn::and(d, a, b)),
        (r(), r(), r()).prop_map(|(d, a, b)| Insn::or(d, a, b)),
        (r(), r(), r()).prop_map(|(d, a, b)| Insn::xor(d, a, b)),
        (r(), r(), r()).prop_map(|(d, a, b)| Insn::mul(d, a, b)),
        (r(), r(), r()).prop_map(|(d, a, b)| Insn::cmov(d, a, b)),
        (r(), r(), -32768i32..=32767).prop_map(|(d, a, i)| Insn::addi(d, a, i).unwrap()),
        (r(), r(), 0u32..=65535).prop_map(|(d, a, i)| Insn::andi(d, a, i).unwrap()),
        (r(), r(), 0u32..=65535).prop_map(|(d, a, i)| Insn::ori(d, a, i).unwrap()),
        (r(), r(), -32768i32..=32767).prop_map(|(d, a, i)| Insn::xori(d, a, i).unwrap()),
        (r(), r(), 0u32..32).prop_map(|(d, a, s)| Insn::slli(d, a, s).unwrap()),
        (r(), r(), 0u32..32).prop_map(|(d, a, s)| Insn::srli(d, a, s).unwrap()),
        (r(), r(), 0u32..32).prop_map(|(d, a, s)| Insn::srai(d, a, s).unwrap()),
        (r(), 0u32..=65535).prop_map(|(d, k)| Insn::movhi(d, k).unwrap()),
        (r(), r()).prop_map(|(a, b)| Insn::sf(idca::isa::SetFlagCond::Gtu, a, b)),
        (r(), -32768i32..=32767)
            .prop_map(|(a, i)| Insn::sfi(idca::isa::SetFlagCond::Lts, a, i).unwrap()),
        (r(), -8192i32..=8191, r()).prop_map(|(d, off, a)| Insn::lwz(d, off & !3, a).unwrap()),
        (-8192i32..=8191, r(), r()).prop_map(|(off, a, b)| Insn::sw(off & !3, a, b).unwrap()),
        (-33_000_000i32 / 4..=33_000_000 / 4).prop_map(|off| Insn::j(off).unwrap()),
        (-100i32..=100).prop_map(|off| Insn::bf(off).unwrap()),
        r().prop_map(Insn::jr),
        (0u16..100).prop_map(Insn::nop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every instruction encodes to a 32-bit word that decodes back to the
    /// identical instruction.
    #[test]
    fn encode_decode_roundtrip(insn in insn_strategy()) {
        let word = insn.encode();
        let decoded = Insn::decode(word).expect("decodes");
        prop_assert_eq!(decoded, insn);
    }

    /// Disassembled text of a non-control-flow instruction re-assembles to
    /// the identical instruction (the assembler and disassembler agree).
    #[test]
    fn disassemble_reassemble_roundtrip(insn in insn_strategy()) {
        // PC-relative instructions print raw word offsets which the
        // assembler interprets relative to the instruction address, so they
        // round-trip only at address 0 — which is where we place them.
        let text = disasm::format_insn(&insn);
        let program = Assembler::new().assemble(&text).expect("re-assembles");
        prop_assert_eq!(program.insns()[0], insn);
    }
}

/// A strategy over safe straight-line ALU/memory programs: registers are
/// preloaded with random values, memory accesses stay inside a scratch
/// window, and the program ends with the exit marker.
fn straight_line_program() -> impl Strategy<Value = Program> {
    let step = prop_oneof![
        (2u32..16, 2u32..16, 2u32..16).prop_map(|(d, a, b)| vec![Insn::add(
            Reg::r(d),
            Reg::r(a),
            Reg::r(b)
        )]),
        (2u32..16, 2u32..16, 2u32..16).prop_map(|(d, a, b)| vec![Insn::sub(
            Reg::r(d),
            Reg::r(a),
            Reg::r(b)
        )]),
        (2u32..16, 2u32..16, 2u32..16).prop_map(|(d, a, b)| vec![Insn::xor(
            Reg::r(d),
            Reg::r(a),
            Reg::r(b)
        )]),
        (2u32..16, 2u32..16, 2u32..16).prop_map(|(d, a, b)| vec![Insn::mul(
            Reg::r(d),
            Reg::r(a),
            Reg::r(b)
        )]),
        (2u32..16, 2u32..16, -2048i32..2048).prop_map(|(d, a, i)| vec![Insn::addi(
            Reg::r(d),
            Reg::r(a),
            i
        )
        .unwrap()]),
        (2u32..16, 2u32..16, 0u32..32).prop_map(|(d, a, s)| vec![Insn::slli(
            Reg::r(d),
            Reg::r(a),
            s
        )
        .unwrap()]),
        (2u32..16, 2u32..16).prop_map(|(a, b)| vec![Insn::sf(
            idca::isa::SetFlagCond::Ltu,
            Reg::r(a),
            Reg::r(b)
        )]),
        (2u32..16, 0i32..64, 2u32..16).prop_map(|(d, off, b)| vec![
            Insn::sw(off * 4, Reg::r(1), Reg::r(b)).unwrap(),
            Insn::lwz(Reg::r(d), off * 4, Reg::r(1)).unwrap(),
        ]),
    ];
    (
        proptest::collection::vec(step, 1..40),
        proptest::collection::vec(any::<u16>(), 14),
    )
        .prop_map(|(steps, seeds)| {
            let mut builder = ProgramBuilder::named("proptest-program");
            // Scratch memory base in r1, random initial register values.
            builder.push(Insn::addi(Reg::r(1), Reg::R0, 0x400).unwrap());
            for (i, seed) in seeds.iter().enumerate() {
                builder.push(Insn::ori(Reg::r(i as u32 + 2), Reg::R0, u32::from(*seed)).unwrap());
            }
            for step in steps {
                builder.extend(step);
            }
            builder.push(Insn::nop(1));
            builder.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pipelined core and the sequential interpreter agree on the final
    /// architectural state of arbitrary straight-line programs (forwarding,
    /// hazards and memory ordering introduce no divergence).
    #[test]
    fn pipeline_equals_interpreter(program in straight_line_program()) {
        let pipelined = Simulator::new(SimConfig::default()).run(&program).expect("pipeline runs");
        let golden = Interpreter::new().run(&program).expect("interpreter runs");
        prop_assert_eq!(pipelined.state.regs.as_array(), golden.regs.as_array());
        prop_assert_eq!(pipelined.state.flag, golden.flag);
        prop_assert_eq!(pipelined.trace.retired(), golden.retired);
    }

    /// With the analytic worst-case LUT, the instruction-based policy never
    /// requests a period shorter than the actual dynamic delay of any cycle.
    #[test]
    fn worst_case_lut_never_violates_timing(program in straight_line_program()) {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let mut capture = DigestObserver::new();
        Simulator::new(SimConfig::default()).run_observed(&program, &mut [&mut capture]).expect("runs");
        let digest = capture.into_digest();
        let outcome = replay_digest(
            &model,
            &digest,
            &InstructionBased::from_model(&model),
            &ClockGenerator::Ideal,
        );
        prop_assert_eq!(outcome.violations, 0);
        // And the genie oracle can never be slower than the LUT policy.
        let genie = replay_digest(&model, &digest, &GenieOracle::new(model.clone()), &ClockGenerator::Ideal);
        prop_assert!(genie.total_time_ps <= outcome.total_time_ps + 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// PVT safety: every non-genie policy whose LUT carries the variation
    /// margin stays violation-free at any corner the [`VariationModel`] can
    /// sample — the static baseline because the varied model re-derives its
    /// (derated) static period, the LUT policies because their entries are
    /// inflated by exactly the worst samplable slowdown.
    #[test]
    fn margin_guarded_policies_survive_sampled_pvt_corners(
        master_seed in any::<u64>(),
        corner_index in 0u32..256,
        program_seed in any::<u64>(),
    ) {
        let variation = VariationModel::default();
        let corner = variation.sample_corner(master_seed, corner_index);
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let varied = variation.apply(&nominal, &corner);
        let guarded = DelayLut::from_model(&nominal).scaled(1.0 + variation.margin());

        let config = GenConfig { blocks: 2, block_len: 8, ..GenConfig::default() };
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
            let mut refs: Vec<&mut dyn CycleObserver> =
                observers.iter_mut().map(|o| o as &mut dyn CycleObserver).collect();
            Simulator::new(SimConfig::default())
                .run_observed(&program, &mut refs)
                .expect("generated program runs");
        }
        for observer in observers {
            let outcome = observer.into_outcome();
            prop_assert_eq!(
                outcome.violations, 0,
                "policy {} violated at corner {} ({})",
                outcome.policy, corner.index, corner.describe()
            );
        }
    }

    /// Adaptive-LUT convergence invariants: after every observed cycle, each
    /// in-flight entry covers that cycle's observed delay plus the safety
    /// margin, and entries tighten monotonically (they never decrease) all
    /// the way through warmup and steady state.
    #[test]
    fn adaptive_entries_cover_observations_and_tighten_monotonically(program_seed in any::<u64>()) {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let config = GenConfig { blocks: 2, block_len: 8, ..GenConfig::default() };
        let program = generate_program(program_seed, &config);
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
                prop_assert!(
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
                    prop_assert!(
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
        prop_assert_eq!(
            total_observations,
            trace.cycle_count() * Stage::COUNT as u64
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Clock generators never realize a period shorter than requested, as
    /// long as the request is within their range.
    #[test]
    fn clock_generators_never_undercut(request in 600.0f64..2400.0) {
        for generator in [
            ClockGenerator::Ideal,
            ClockGenerator::quantized_50ps(),
            ClockGenerator::discrete(16, 600.0, 2400.0),
        ] {
            prop_assert!(generator.realize(request) + 1e-9 >= request);
        }
    }

    /// The per-cycle LUT period is monotone: it always covers the LUT entry
    /// of every stage's class.
    #[test]
    fn lut_period_covers_each_stage(class_indices in proptest::collection::vec(0usize..TimingClass::COUNT, 6)) {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let lut = DelayLut::from_model(&model);
        let classes: [TimingClass; 6] = std::array::from_fn(|i| TimingClass::ALL[class_indices[i]]);
        let period = lut.period_for(&classes);
        for stage in Stage::ALL {
            prop_assert!(period >= lut.delay_ps(stage, classes[stage.index()]));
        }
    }
}
