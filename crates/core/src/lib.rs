//! # idca-core — instruction-based dynamic clock adjustment
//!
//! This crate implements the contribution of the DATE 2015 paper
//! *"Exploiting dynamic timing margins in microprocessors for
//! frequency-over-scaling with instruction-based clock adjustment"*
//! (Constantin, Wang, Karakonstantis, Chattopadhyay, Burg):
//!
//! * [`DelayLut`] — the per-instruction, per-pipeline-stage delay prediction
//!   lookup table, built either from a dynamic-timing-analysis
//!   characterization run ([`DelayLut::from_dta`], the paper's flow) or from
//!   the analytic worst-case profile ([`DelayLut::from_model`]).
//! * [`ClockGenerator`] — the tunable clock-generator model (ideal,
//!   quantized-step or discrete-level), whose output period is adjusted on a
//!   cycle-by-cycle basis.
//! * Clock-adjustment [`policy`] implementations: conventional synchronous
//!   clocking ([`StaticClock`]), the paper's predictive instruction-based
//!   adjustment ([`InstructionBased`]), the simplified execute-stage-only
//!   monitor discussed in §IV-A ([`ExecuteOnly`]) and the genie-aided oracle
//!   upper bound ([`GenieOracle`]).
//! * [`replay_digest`] — the dynamic-clock simulation driver: replays a
//!   captured [`TimingDigest`](idca_pipeline::TimingDigest) under a policy,
//!   accumulates execution time, checks the *no-timing-violation* invariant
//!   against the actual dynamic delays and reports the effective clock
//!   frequency. [`replay_digest_banked`] drives the same accumulation
//!   against `M` corner-varied models in a single digest walk, and the
//!   streaming [`PolicyObserver`] riding a live simulation is the oracle
//!   both are pinned against.
//! * [`adaptive`] — the paper's online-updating outlook: a streaming
//!   [`AdaptiveObserver`] that learns the delay table in the field, and
//!   the corner-batched [`AdaptiveBank`] that trains `M` such controllers
//!   at once in structure-of-arrays folds.
//! * [`eval`] — speedup comparisons between policies by digest replay and
//!   suite-level aggregation (Fig. 8 of the paper).
//! * [`vfs`] — voltage-frequency scaling: converts the frequency gain into a
//!   supply-voltage reduction at iso-throughput and reports the energy
//!   efficiency improvement (the paper's 24 % / 13.7 → 11.0 µW/MHz result).
//!
//! # Example
//!
//! Simulate once into a digest, then evaluate each policy by replay:
//!
//! ```
//! use idca_core::{policy::{InstructionBased, StaticClock}, replay_digest, ClockGenerator, DelayLut};
//! use idca_isa::asm::Assembler;
//! use idca_pipeline::{DigestObserver, SimConfig, Simulator};
//! use idca_timing::{ProfileKind, TimingModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Assembler::new().assemble(
//!     "l.addi r3, r0, 50\nloop: l.addi r3, r3, -1\n l.sfne r3, r0\n l.bf loop\n l.nop 0\n l.nop 1\n",
//! )?;
//! let mut capture = DigestObserver::new();
//! Simulator::new(SimConfig::default()).run_observed(&program, &mut [&mut capture])?;
//! let digest = capture.into_digest();
//! let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
//! let lut = DelayLut::from_model(&model);
//!
//! let baseline = replay_digest(&model, &digest, &StaticClock::of_model(&model), &ClockGenerator::Ideal);
//! let dynamic = replay_digest(&model, &digest, &InstructionBased::new(lut), &ClockGenerator::Ideal);
//! assert!(dynamic.effective_frequency_mhz > baseline.effective_frequency_mhz);
//! assert_eq!(dynamic.violations, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
mod clockgen;
mod error;
pub mod eval;
mod lut;
pub mod policy;
pub mod policy_bank;
mod sim;
mod tally;
pub mod vfs;

pub use adaptive::{
    replay_adaptive_digest, replay_adaptive_digest_banked, AdaptiveBank, AdaptiveConfig,
    AdaptiveObserver, AdaptiveOutcome, Drift,
};
pub use clockgen::ClockGenerator;
pub use error::{CoreError, LutFormatError};
pub use lut::{DelayLut, LutSource, Table2Row};
pub use policy::{ClockPolicy, ExecuteOnly, GenieOracle, InstructionBased, StaticClock};
pub use policy_bank::PolicyBank;
pub use sim::{replay_digest, replay_digest_banked, PolicyObserver, RunOutcome};
