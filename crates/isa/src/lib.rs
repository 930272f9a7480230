//! # idca-isa — OpenRISC ORBIS32 subset ISA
//!
//! This crate models the subset of the OpenRISC 1000 (ORBIS32) instruction
//! set that the DATE 2015 paper *"Exploiting dynamic timing margins in
//! microprocessors for frequency-over-scaling with instruction-based clock
//! adjustment"* exercises on its customized `mor1kx cappuccino` core:
//! integer arithmetic and logic, shifts, single-cycle multiplication,
//! set-flag comparisons, conditional branches, jumps, loads/stores and
//! `l.nop`/`l.movhi`.
//!
//! Every instruction is defined once, as one row of a crate-private table:
//! its mnemonic, fixed encoding bits, decode mask, operand format (which
//! of rD, rA, rB and the immediate exist, and the immediate's width and
//! signedness), timing class, and the dispatch tags the pipeline runs on
//! ([`AluKind`], [`CtlKind`], [`MemKind`]). Everything below reads that
//! row, so an instruction is added or changed in one place and round-trips
//! by construction.
//!
//! The crate provides:
//!
//! * [`Opcode`] / [`Insn`] — decoded instruction representation with
//!   faithful 32-bit ORBIS32 encodings ([`Insn::encode`] / [`Insn::decode`]);
//!   the typed constructors range-check immediates against the row.
//! * [`TimingClass`] — the instruction grouping used as the key of the
//!   per-stage delay lookup table of the paper (e.g. `l.add` and `l.addi`
//!   share the `Add` class, exactly like the paper's "l.add(i)" rows).
//! * [`asm::Assembler`] and [`disasm::format_insn`] — a two-pass textual
//!   assembler with labels, used by the workload crate to express benchmark
//!   kernels, and its inverse.
//! * [`ProgramBuilder`] / [`Program`] — a programmatic builder and the
//!   resulting program image consumed by the pipeline simulator.
//!
//! # Example
//!
//! ```
//! use idca_isa::{asm::Assembler, Opcode};
//!
//! # fn main() -> Result<(), idca_isa::IsaError> {
//! let program = Assembler::new().assemble(
//!     r#"
//!         l.addi  r3, r0, 10
//!     loop:
//!         l.addi  r3, r3, -1
//!         l.sfne  r3, r0
//!         l.bf    loop
//!         l.nop   0
//!         l.nop   0
//!     "#,
//! )?;
//! assert_eq!(program.insns()[0].opcode(), Opcode::Addi);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod disasm;
mod error;
mod insn;
mod opcode;
mod program;
mod reg;
mod table;

pub use error::IsaError;
pub use insn::{Insn, Operands};
pub use opcode::{AluKind, CtlKind, MemKind, Opcode, SetFlagCond, TimingClass};
pub use program::{Program, ProgramBuilder};
pub use reg::Reg;

/// Number of architectural general-purpose registers in ORBIS32.
pub const NUM_GPRS: usize = 32;

/// Size of one instruction word in bytes.
pub const INSN_BYTES: u32 = 4;
