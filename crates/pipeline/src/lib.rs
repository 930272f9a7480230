//! # idca-pipeline — cycle-accurate 6-stage OpenRISC-like pipeline model
//!
//! This crate models the customized `mor1kx cappuccino` micro-architecture
//! used as the case study of the DATE 2015 paper: a 32-bit in-order pipeline
//! with the six stages *Address*, *Fetch*, *Decode*, *Execute*,
//! *Mem/Control* and *Writeback*, tightly-coupled single-cycle instruction
//! and data SRAMs, full forwarding, one architectural delay slot after every
//! branch/jump, and a multiplier that is shielded from the other ALU inputs
//! (operand isolation) exactly as described in §III-A of the paper.
//!
//! Besides architecturally-correct execution the simulator emits, for every
//! cycle, a [`CycleRecord`]: the instruction occupying each stage plus the
//! execute stage's [`ExecActivity`] (operand values, carry-chain length,
//! multiplier activity, the data-memory address, whether an operand was
//! forwarded and whether a resolved branch was taken), the load and
//! writeback values and the fetch address. The `idca-timing` crate turns
//! this activity into dynamic path delays — the equivalent of the paper's
//! post-layout gate-level simulation.
//!
//! Records are delivered through the streaming [`CycleObserver`] interface
//! ([`Simulator::run_observed`]): downstream analyses consume each cycle as
//! it is produced, so one simulation pass feeds them all and nothing is
//! materialized on the hot path. The production observer is the
//! [`DigestObserver`], which captures the run's [`TimingDigest`]: every
//! evaluation downstream replays the digest. Hinted with the program's
//! [`PredecodedProgram::digest_hints`] and run as the only observer, it
//! takes the simulator's basic-block burst path, which folds compact
//! per-cycle facts into the digest instead of building records. A full
//! [`PipelineTrace`] is test materialization, produced by the convenience
//! wrapper [`Simulator::run`].
//!
//! # Example
//!
//! ```
//! use idca_isa::asm::Assembler;
//! use idca_pipeline::{Simulator, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Assembler::new().assemble(
//!     "        l.addi r3, r0, 5
//!              l.addi r4, r0, 0
//!      loop:   l.add  r4, r4, r3
//!              l.addi r3, r3, -1
//!              l.sfne r3, r0
//!              l.bf   loop
//!              l.nop  0
//!              l.nop  1          # exit
//! ",
//! )?;
//! let result = Simulator::new(SimConfig::default()).run(&program)?;
//! assert_eq!(result.state.reg(idca_isa::Reg::r(4)), 5 + 4 + 3 + 2 + 1);
//! assert!(result.trace.ipc() > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
mod error;
mod event;
pub mod frame;
mod interp;
mod irq;
mod memory;
mod observer;
mod predecode;
mod regfile;
mod simulator;
mod stage;
mod trace;

pub use digest::{DigestCycle, DigestHints, DigestObserver, StageExcitation, TimingDigest};
pub use error::PipelineError;
pub use event::{
    CycleRecord, CycleRecordFlags, DigestEvent, DigestEventKind, ExecActivity, IrqPhase, Occupant,
};
pub use frame::FormatError;
pub use interp::{Interpreter, InterpreterResult};
pub use irq::{
    is_mmio, InterruptController, InterruptPlan, InterruptSpec, InterruptSpecError, LINE_STORM,
    LINE_TIMER, MMIO_BASE, MMIO_IRQ_ACK, MMIO_IRQ_MASK, MMIO_IRQ_PENDING, MMIO_LEN,
    MMIO_TIMER_COUNT, MMIO_TIMER_PERIOD,
};
pub use memory::Memory;
pub use observer::{CycleObserver, RunSummary};
pub use predecode::{AdderKind, MicroOp, PredecodedProgram};
pub use regfile::RegisterFile;
pub use simulator::{ArchState, ObservedRun, SimBuffers, SimConfig, SimResult, Simulator};
pub use stage::Stage;
pub use trace::{PipelineTrace, TraceStats};

/// The `l.nop` immediate that requests simulation exit, following the
/// convention of the OpenRISC architectural simulator (`NOP_EXIT`).
pub const NOP_EXIT: u16 = 1;

/// Version of the simulator's observable behaviour: bump whenever a change
/// can alter the [`TimingDigest`] a program produces. A change to the shape
/// of [`CycleRecord`] that leaves every digest byte alone needs no bump.
/// Persistent digest caches key on this so digests captured by an older
/// simulator are re-simulated instead of trusted. Version 2 added the
/// asynchronous-event layer (interrupts, timer, MMIO).
pub const SIMULATOR_VERSION: u32 = 2;
