//! # idca — instruction-based dynamic clock adjustment (umbrella crate)
//!
//! Reproduction of *"Exploiting dynamic timing margins in microprocessors
//! for frequency-over-scaling with instruction-based clock adjustment"*
//! (Constantin, Wang, Karakonstantis, Chattopadhyay, Burg — DATE 2015).
//!
//! This crate re-exports the individual workspace crates under one roof:
//!
//! * [`isa`] — the OpenRISC ORBIS32 subset (instructions, assembler).
//! * [`gen`] — deterministic seeded program generator (fuzzing, sweeps).
//! * [`pipeline`] — the cycle-accurate 6-stage pipeline simulator.
//! * [`timing`] — the synthetic post-layout timing model, dynamic timing
//!   analysis and power model.
//! * [`core`] — the delay LUT, clock-adjustment policies, dynamic-clock
//!   simulation, evaluation and voltage-frequency scaling.
//! * [`workloads`] — CoreMark-like and BEEBS-like benchmark kernels plus
//!   the characterization workload.
//!
//! The most common entry points are also re-exported in the [`prelude`].
//!
//! # Quickstart
//!
//! The program is simulated **once**, into a
//! [`TimingDigest`](idca_pipeline::TimingDigest): a
//! [`DigestObserver`](idca_pipeline::DigestObserver) rides
//! `Simulator::run_observed` and keeps the compact per-cycle timing view,
//! with no per-cycle trace materialized. Every evaluation — here the
//! static-clocking baseline against the paper's instruction-based
//! adjustment — then replays that digest.
//!
//! ```
//! use idca::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Assemble a program for the 6-stage pipeline.
//! let program = Assembler::new().assemble(
//!     "l.addi r3, r0, 100\nloop: l.addi r3, r3, -1\n l.sfne r3, r0\n l.bf loop\n l.nop 0\n l.nop 1\n",
//! )?;
//!
//! // 2. Simulate once, capturing the run's timing digest.
//! let mut capture = DigestObserver::new();
//! Simulator::new(SimConfig::default()).run_observed(&program, &mut [&mut capture])?;
//! let digest = capture.into_digest();
//!
//! // 3. Evaluate conventional vs instruction-based dynamic clocking by
//! //    replaying the digest.
//! let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
//! let policy = InstructionBased::from_model(&model);
//! let comparison = eval::compare_digest(&model, "loop", &digest, &policy, &ClockGenerator::Ideal);
//! assert!(comparison.speedup() > 1.0);
//! assert_eq!(comparison.dynamic.violations, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use idca_core as core;
pub use idca_gen as gen;
pub use idca_isa as isa;
pub use idca_pipeline as pipeline;
pub use idca_timing as timing;
pub use idca_workloads as workloads;

/// Convenient glob-import of the most frequently used types.
pub mod prelude {
    pub use idca_core::{
        eval, policy::ExecuteOnly, policy::GenieOracle, policy::InstructionBased,
        policy::StaticClock, replay_digest, vfs, ClockGenerator, ClockPolicy, DelayLut,
        PolicyObserver, RunOutcome,
    };
    pub use idca_gen::{generate_program, nth_seed, ClassMix, GenConfig};
    pub use idca_isa::{asm::Assembler, Insn, Opcode, Program, ProgramBuilder, Reg, TimingClass};
    pub use idca_pipeline::{
        CycleObserver, DigestObserver, ObservedRun, PipelineTrace, RunSummary, SimConfig,
        SimResult, Simulator, Stage, TimingDigest,
    };
    pub use idca_timing::{
        dta::DynamicTimingAnalysis, ActivitySummary, CellLibrary, CornerBank, PowerModel,
        ProfileKind, PvtCorner, TimingModel, TimingProfile, VariationModel,
    };
    pub use idca_workloads::{
        benchmark_suite, suite::characterization_workload, synthetic_suite, synthetic_workload,
        Workload,
    };
}
