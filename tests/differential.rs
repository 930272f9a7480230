//! Differential testing: the cycle-accurate pipeline simulator must produce
//! exactly the same architectural results as the sequential reference
//! interpreter — on every benchmark workload, and on fuzzed populations of
//! seed-generated programs (`idca_gen`). Each population is a property of
//! the shared case runner (`idca_cases`): case `i` simulates the program
//! seeded `nth_seed(master, i)`, and `IDCA_FUZZ_SEEDS` scales the program
//! count. A failing seed is shrunk to a minimal configuration before it is
//! reported.

use idca::gen::ClassMix;
use idca::pipeline::{Interpreter, SimConfig, Simulator};
use idca::prelude::*;
use idca_cases::property;

#[test]
fn pipeline_matches_interpreter_on_every_benchmark() {
    let simulator = Simulator::new(SimConfig::default());
    let interpreter = Interpreter::new();
    for workload in benchmark_suite() {
        let pipelined = simulator
            .run(&workload.program)
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", workload.name));
        let golden = interpreter
            .run(&workload.program)
            .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", workload.name));

        assert_eq!(
            pipelined.state.regs.as_array(),
            golden.regs.as_array(),
            "{}: register files diverge",
            workload.name
        );
        assert_eq!(
            pipelined.state.flag, golden.flag,
            "{}: flag diverges",
            workload.name
        );
        // Compare the data-memory regions the kernels actually use.
        for address in (0..0x8000u32).step_by(4) {
            let a = pipelined.state.memory.load_word(address).unwrap();
            let b = golden.memory.load_word(address).unwrap();
            assert_eq!(a, b, "{}: memory diverges at {address:#06x}", workload.name);
        }
    }
}

#[test]
fn pipeline_matches_interpreter_on_characterization_workloads() {
    let simulator = Simulator::new(SimConfig::default());
    let interpreter = Interpreter::new();
    for seed in [1u64, 0xC0DE, 987_654_321] {
        let workload = characterization_workload(seed);
        let pipelined = simulator.run(&workload.program).expect("pipeline runs");
        let golden = interpreter
            .run(&workload.program)
            .expect("interpreter runs");
        assert_eq!(
            pipelined.state.regs.as_array(),
            golden.regs.as_array(),
            "seed {seed}: register files diverge"
        );
    }
}

/// Compares the pipeline and the interpreter on one generated program.
/// Returns a human-readable divergence description, or `None` on agreement.
fn divergence(seed: u64, config: &GenConfig) -> Option<String> {
    let program = generate_program(seed, config);
    let pipelined = match Simulator::new(SimConfig::default()).run_observed(&program, &mut []) {
        Ok(run) => run,
        Err(e) => return Some(format!("pipeline failed: {e}")),
    };
    let golden = match Interpreter::new().run(&program) {
        Ok(result) => result,
        Err(e) => return Some(format!("interpreter failed: {e}")),
    };
    if pipelined.state.regs.as_array() != golden.regs.as_array() {
        for r in 0..32u32 {
            let (a, b) = (
                pipelined.state.regs.read(Reg::r(r)),
                golden.regs.read(Reg::r(r)),
            );
            if a != b {
                return Some(format!(
                    "r{r} diverges: pipeline {a:#010x}, interpreter {b:#010x}"
                ));
            }
        }
    }
    if pipelined.state.flag != golden.flag {
        return Some(format!(
            "flag diverges: pipeline {}, interpreter {}",
            pipelined.state.flag, golden.flag
        ));
    }
    if pipelined.summary.retired != golden.retired {
        return Some(format!(
            "retired counts diverge: pipeline {}, interpreter {}",
            pipelined.summary.retired, golden.retired
        ));
    }
    // The generator confines every access to its scratch window; compare the
    // whole window plus a guard band.
    let window_end = idca::gen::MEM_BASE + 2048 * 4 + 64;
    for address in (0..window_end).step_by(4) {
        let a = pipelined.state.memory.load_word(address).expect("in range");
        let b = golden.memory.load_word(address).expect("in range");
        if a != b {
            return Some(format!(
                "memory diverges at {address:#06x}: pipeline {a:#010x}, interpreter {b:#010x}"
            ));
        }
    }
    None
}

/// Shrinks a failing configuration: repeatedly tries structurally smaller
/// variants (fewer blocks, shorter bodies, shallower loops, fewer
/// iterations, no memory, single-class mixes) and keeps any that still
/// fails, until no reduction reproduces the divergence.
fn shrink(seed: u64, config: &GenConfig) -> (GenConfig, String) {
    let mut current = *config;
    let mut message = divergence(seed, &current).expect("shrink starts from a failing config");
    loop {
        let mut candidates = vec![
            GenConfig {
                blocks: (current.blocks / 2).max(1),
                ..current
            },
            GenConfig {
                block_len: (current.block_len / 2).max(1),
                ..current
            },
            GenConfig {
                max_loop_depth: current.max_loop_depth.saturating_sub(1),
                ..current
            },
            GenConfig {
                max_loop_iters: (current.max_loop_iters / 2).max(1),
                ..current
            },
        ];
        // Try muting whole instruction classes.
        for mute in [
            ClassMix {
                load: 0,
                store: 0,
                ..current.mix
            },
            ClassMix {
                branch: 0,
                jump: 0,
                ..current.mix
            },
            ClassMix {
                mul: 0,
                shift: 0,
                ..current.mix
            },
        ] {
            candidates.push(GenConfig {
                mix: mute,
                ..current
            });
        }
        let mut reduced = false;
        for candidate in candidates {
            if candidate == current {
                continue;
            }
            if let Some(msg) = divergence(seed, &candidate) {
                current = candidate;
                message = msg;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return (current, message);
        }
    }
}

/// Panics, with the divergence shrunk to a minimal failing configuration,
/// unless the pipeline and the reference interpreter agree on the program
/// `seed` generates under `config`.
fn assert_agrees(seed: u64, config: &GenConfig) {
    if let Some(message) = divergence(seed, config) {
        let (minimal, minimal_message) = shrink(seed, config);
        panic!(
            "differential fuzz failure at seed {seed:#018x}: {message}\n\
             shrunk to {minimal:?}\n\
             minimal divergence: {minimal_message}\n\
             reproduce with: generate_program({seed:#x}, &{config:?})"
        );
    }
}

/// The bounded differential fuzz: every generated seed must leave the
/// pipeline and the reference interpreter in identical architectural state
/// (registers, flag, retirement count and data memory).
#[test]
fn generated_programs_match_the_reference_interpreter() {
    let config = GenConfig::default();
    property!(
        generated_programs_match_the_reference_interpreter,
        master = 0xD1FF,
        cases = 200
    )
    .run(|case| assert_agrees(case.seed(), &config));
}

/// A deliberately hostile generator mix: dense control flow and memory
/// traffic, the constructs most likely to expose forwarding/flush bugs in
/// the pipeline, with nested short loops so bursts stay short.
fn hostile_mix() -> GenConfig {
    GenConfig {
        blocks: 4,
        block_len: 10,
        max_loop_depth: 3,
        max_loop_iters: 4,
        mem_window_words: 32,
        mix: ClassMix {
            alu: 8,
            logic: 4,
            shift: 2,
            mul: 2,
            set_flag: 10,
            mov: 4,
            load: 16,
            store: 16,
            branch: 14,
            jump: 6,
        },
    }
}

/// A second fuzz population on the hostile mix.
#[test]
fn control_and_memory_heavy_programs_match_the_reference_interpreter() {
    let config = hostile_mix();
    property!(
        control_and_memory_heavy_programs_match_the_reference_interpreter,
        master = 0xB00B5,
        cases = 50
    )
    .run(|case| assert_agrees(case.seed(), &config));
}

#[test]
fn retired_instruction_counts_match_between_models() {
    // The pipeline retires exactly the architecturally executed instructions
    // (bubbles and flushed wrong-path fetches never retire).
    let simulator = Simulator::new(SimConfig::default());
    let interpreter = Interpreter::new();
    for workload in benchmark_suite().into_iter().take(6) {
        let pipelined = simulator.run(&workload.program).unwrap();
        let golden = interpreter.run(&workload.program).unwrap();
        assert_eq!(
            pipelined.trace.retired(),
            golden.retired,
            "{}: retirement counts diverge",
            workload.name
        );
    }
}

/// The predecoded fast-path engine is pinned **bit-identical** to the
/// retained per-cycle reference loop: same `RunSummary`, same architectural
/// state, same `CycleRecord` stream, and same timing-digest bytes (unhinted
/// capture on the reference loop vs both hinted captures on the fast path:
/// the fused burst→digest path, which a lone hinted observer takes, and the
/// record path, which it takes beside another observer).
///
/// The population is the hostile mix, whose short bursts cross every
/// fast-path entry/exit edge (hazard bail-out, control handoff, drain) many
/// times per program.
#[test]
fn predecoded_engine_is_bit_identical_to_reference_loop_on_hostile_mix() {
    use idca::pipeline::{DigestObserver, PipelineTrace, PredecodedProgram};

    let config = hostile_mix();
    let simulator = Simulator::new(SimConfig::default());
    property!(
        predecoded_engine_is_bit_identical_to_reference_loop_on_hostile_mix,
        master = 0xB00B5,
        cases = 40
    )
    .run(|case| {
        let seed = case.seed();
        let program = generate_program(seed, &config);
        let pre = PredecodedProgram::lower(&program);

        // Reference loop: unhinted digest capture plus a full trace.
        let mut ref_digest = DigestObserver::new();
        let mut ref_trace = PipelineTrace::default();
        let reference = simulator
            .run_observed_reference(&program, &mut [&mut ref_digest, &mut ref_trace])
            .unwrap_or_else(|e| panic!("seed {seed:#x}: reference engine failed: {e}"));

        // Predecoded engine, digest-only (lone hinted observer → fused
        // burst capture).
        let mut fast_digest = DigestObserver::with_hints(pre.digest_hints());
        let fused = simulator
            .run_observed_predecoded(&pre, &mut [&mut fast_digest])
            .unwrap_or_else(|e| panic!("seed {seed:#x}: predecoded engine failed: {e}"));

        // Predecoded engine again with a trace observer beside a hinted
        // digest capture: two observers keep every cycle on the record
        // path, so this pins hinted record-path capture.
        let mut fast_trace = PipelineTrace::default();
        let mut hinted_digest = DigestObserver::with_hints(pre.digest_hints());
        let recorded = simulator
            .run_observed_predecoded(&pre, &mut [&mut fast_trace, &mut hinted_digest])
            .unwrap_or_else(|e| panic!("seed {seed:#x}: predecoded engine failed: {e}"));

        assert_eq!(
            fused.summary, reference.summary,
            "seed {seed:#x}: run summaries diverge"
        );
        assert_eq!(recorded.summary, reference.summary);
        assert_eq!(
            fused.state.regs.as_array(),
            reference.state.regs.as_array(),
            "seed {seed:#x}: register files diverge"
        );
        assert_eq!(fused.state.flag, reference.state.flag);
        assert_eq!(fused.state.carry, reference.state.carry);
        assert_eq!(
            fast_trace, ref_trace,
            "seed {seed:#x}: cycle-record streams diverge"
        );
        let ref_bytes = ref_digest.into_digest().to_bytes();
        assert_eq!(
            fast_digest.into_digest().to_bytes(),
            ref_bytes,
            "seed {seed:#x}: timing-digest bytes diverge"
        );
        assert_eq!(
            hinted_digest.into_digest().to_bytes(),
            ref_bytes,
            "seed {seed:#x}: hinted record-path digest bytes diverge"
        );
    });
}
