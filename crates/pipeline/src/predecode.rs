//! Predecoded micro-op form of a program.
//!
//! The per-cycle engines ([`crate::Simulator`] and [`crate::Interpreter`])
//! used to re-derive the same static facts from [`Insn`] accessors on every
//! cycle an instruction spent in a stage: which operand registers it reads,
//! whether the second operand is an immediate (and which masking the opcode
//! applies to it), which ALU operation it performs, whether it is a load or
//! a store and of which width, whether it redirects control flow and where
//! its PC-relative target lies, whether it is the `l.nop 1` exit marker, and
//! which adder/multiplier/shifter activity it excites. All of that is a pure
//! function of the instruction word, so [`PredecodedProgram::lower`] computes
//! it **once per program** into a flat [`MicroOp`] table the engines index by
//! instruction word offset.
//!
//! On top of the table the lowering derives, for the simulator's fast path,
//! a per-index *runway* ([`PredecodedProgram::runway`]) — the number of
//! consecutive plain (non-control, non-exit) micro-ops starting at an index.
//! While the pipeline is executing inside a runway nothing can redirect the
//! fetch address, so the simulator dispatches those block interiors on a
//! specialized loop with the per-cycle `Slot`/`Option` unwrapping and
//! per-opcode matching hoisted out.
//!
//! Lowering is semantics-preserving by construction and pinned by tests: a
//! proptest asserts that every decodable instruction round-trips (the
//! micro-op fields agree with the `Insn`/`Opcode` accessors and
//! [`exec_alu`] agrees with the reference ALU on random operands), and the
//! differential suite pins the predecoded simulator loop bit-identical to
//! the retained per-cycle reference loop.

use crate::digest::DigestHints;
use crate::interp::alu::{self, AluOutcome};
use crate::{PipelineError, NOP_EXIT};
use idca_isa::{Insn, Opcode, Program, Reg, SetFlagCond, TimingClass, INSN_BYTES};
use std::sync::Arc;

/// The data-path operation a micro-op performs in the execute stage — a
/// dense, pre-classified mirror of the per-opcode `match` in the shared ALU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluKind {
    /// 32-bit addition with carry-out (`l.add`, `l.addi`).
    Add,
    /// Addition with carry-in and carry-out (`l.addc`, `l.addic`).
    AddCarry,
    /// Subtraction with borrow-out (`l.sub`).
    Sub,
    /// Bitwise AND (`l.and`, `l.andi`).
    And,
    /// Bitwise OR (`l.or`, `l.ori`).
    Or,
    /// Bitwise XOR (`l.xor`, `l.xori`).
    Xor,
    /// Signed 32×32→32 multiply (`l.mul`, `l.muli`).
    MulSigned,
    /// Unsigned multiply (`l.mulu`).
    MulUnsigned,
    /// Shift left logical (`l.sll`, `l.slli`).
    ShiftLeft,
    /// Shift right logical (`l.srl`, `l.srli`).
    ShiftRightLogical,
    /// Shift right arithmetic (`l.sra`, `l.srai`).
    ShiftRightArith,
    /// Rotate right (`l.ror`, `l.rori`).
    RotateRight,
    /// Conditional move on the compare flag (`l.cmov`).
    Cmov,
    /// Sign-extend byte (`l.extbs`).
    ExtendByte,
    /// Sign-extend half-word (`l.exths`).
    ExtendHalf,
    /// Load immediate into the upper half-word (`l.movhi`).
    MoveHigh,
    /// Set-flag comparison (`l.sf*`, `l.sf*i`).
    SetFlag(SetFlagCond),
    /// Effective-address computation of loads/stores.
    MemAddr,
    /// No data-path result (jumps, branches, `l.nop`).
    None,
}

/// Control-flow behaviour of a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlKind {
    /// Straight-line instruction: never redirects fetch.
    None,
    /// The `l.nop 1` exit marker: sets the halting state in execute.
    Exit,
    /// PC-relative jump resolved in decode (`l.j`, `l.jal`); `link` writes
    /// `r9 = pc + 8` in execute.
    Jump {
        /// `true` for `l.jal`.
        link: bool,
    },
    /// Conditional branch taken when the flag is set (`l.bf`).
    BranchIfFlag,
    /// Conditional branch taken when the flag is clear (`l.bnf`).
    BranchIfNotFlag,
    /// Register-indirect jump resolved in execute (`l.jr`, `l.jalr`).
    JumpReg {
        /// `true` for `l.jalr`.
        link: bool,
    },
    /// `l.rfe`: return from exception, resolved in execute like a register
    /// jump but targeting the interrupt controller's saved PC.
    Rfe,
}

/// Memory access performed by the control stage, pre-classified so the hot
/// loop dispatches on a dense enum instead of re-matching the opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Not a memory instruction.
    None,
    /// `l.lwz` / `l.lws` (identical on a 32-bit core).
    LoadWord,
    /// `l.lhz` / `l.lhs`.
    LoadHalf {
        /// `true` sign-extends the half-word (`l.lhs`).
        signed: bool,
    },
    /// `l.lbz` / `l.lbs`.
    LoadByte {
        /// `true` sign-extends the byte (`l.lbs`).
        signed: bool,
    },
    /// `l.sw`.
    StoreWord,
    /// `l.sh`.
    StoreHalf,
    /// `l.sb`.
    StoreByte,
}

impl MemKind {
    /// `true` for the load variants.
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(
            self,
            MemKind::LoadWord | MemKind::LoadHalf { .. } | MemKind::LoadByte { .. }
        )
    }

    /// `true` for the store variants.
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(
            self,
            MemKind::StoreWord | MemKind::StoreHalf | MemKind::StoreByte
        )
    }
}

/// How the main adder is excited by a micro-op (drives the carry-chain
/// proxy of the timing model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdderKind {
    /// The adder is idle for this instruction.
    None,
    /// `a + b` with no carry-in (adds, load/store address generation).
    Plain,
    /// `a + b + carry` (`l.addc`, `l.addic`).
    WithCarry,
    /// `a + !b + 1` (subtract/compare paths).
    SubBorrow,
}

/// One predecoded instruction: every static fact the per-cycle engines need,
/// extracted once by [`PredecodedProgram::lower`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// The original instruction (cycle records and traces still carry it).
    pub insn: Insn,
    /// Pre-resolved timing class ([`Insn::timing_class`]).
    pub class: TimingClass,
    /// First source-register port, as the forwarding network sees it.
    pub ra: Option<Reg>,
    /// Second source-register port, as the forwarding network sees it.
    pub rb: Option<Reg>,
    /// Effective architectural destination ([`Insn::dest_reg`]); the link
    /// register of `l.jal`/`l.jalr` is applied via [`MicroOp::ctl`] instead.
    pub rd: Option<Reg>,
    /// Pre-extracted immediate second operand (with the opcode's masking /
    /// sign-extension applied); `None` selects the `rB` register value.
    pub op_b_imm: Option<u32>,
    /// Data-path operation kind.
    pub alu: AluKind,
    /// Control-flow behaviour.
    pub ctl: CtlKind,
    /// Pre-scaled PC-relative displacement in bytes (`imm * 4`) for
    /// decode-resolved jumps and branches.
    pub branch_disp: u32,
    /// Memory access kind.
    pub mem: MemKind,
    /// Memory access width in bytes (4 for non-memory ops, matching the
    /// activity-record convention).
    pub mem_width: u32,
    /// Adder excitation kind.
    pub adder: AdderKind,
    /// `true` for the multiply instructions (operand-isolated multiplier).
    pub is_mul: bool,
    /// `true` for the shifter instructions.
    pub is_shift: bool,
}

impl MicroOp {
    /// Lowers one instruction into its micro-op form.
    #[must_use]
    pub fn lower(insn: &Insn) -> MicroOp {
        let opcode = insn.opcode();
        let (ra, rb) = insn.source_regs();
        let imm = insn.imm();
        let op_b_imm = match opcode {
            Opcode::Andi | Opcode::Ori => Some((imm.unwrap_or(0) as u32) & 0xFFFF),
            Opcode::Addi
            | Opcode::Addic
            | Opcode::Xori
            | Opcode::Muli
            | Opcode::Sfi(_)
            | Opcode::Lwz
            | Opcode::Lws
            | Opcode::Lhz
            | Opcode::Lhs
            | Opcode::Lbz
            | Opcode::Lbs
            | Opcode::Sw
            | Opcode::Sh
            | Opcode::Sb => Some(imm.unwrap_or(0) as u32),
            Opcode::Slli | Opcode::Srli | Opcode::Srai | Opcode::Rori => {
                Some((imm.unwrap_or(0) as u32) & 0x1F)
            }
            Opcode::Movhi => Some((imm.unwrap_or(0) as u32) & 0xFFFF),
            _ => None,
        };
        let alu = match opcode {
            Opcode::Add | Opcode::Addi => AluKind::Add,
            Opcode::Addc | Opcode::Addic => AluKind::AddCarry,
            Opcode::Sub => AluKind::Sub,
            Opcode::And | Opcode::Andi => AluKind::And,
            Opcode::Or | Opcode::Ori => AluKind::Or,
            Opcode::Xor | Opcode::Xori => AluKind::Xor,
            Opcode::Mul | Opcode::Muli => AluKind::MulSigned,
            Opcode::Mulu => AluKind::MulUnsigned,
            Opcode::Sll | Opcode::Slli => AluKind::ShiftLeft,
            Opcode::Srl | Opcode::Srli => AluKind::ShiftRightLogical,
            Opcode::Sra | Opcode::Srai => AluKind::ShiftRightArith,
            Opcode::Ror | Opcode::Rori => AluKind::RotateRight,
            Opcode::Cmov => AluKind::Cmov,
            Opcode::Extbs => AluKind::ExtendByte,
            Opcode::Exths => AluKind::ExtendHalf,
            Opcode::Movhi => AluKind::MoveHigh,
            Opcode::Sf(cond) | Opcode::Sfi(cond) => AluKind::SetFlag(cond),
            op if op.is_mem() => AluKind::MemAddr,
            _ => AluKind::None,
        };
        let ctl = if opcode == Opcode::Nop && imm == Some(i32::from(NOP_EXIT)) {
            CtlKind::Exit
        } else {
            match opcode {
                Opcode::J => CtlKind::Jump { link: false },
                Opcode::Jal => CtlKind::Jump { link: true },
                Opcode::Jr => CtlKind::JumpReg { link: false },
                Opcode::Jalr => CtlKind::JumpReg { link: true },
                Opcode::Bf => CtlKind::BranchIfFlag,
                Opcode::Bnf => CtlKind::BranchIfNotFlag,
                Opcode::Rfe => CtlKind::Rfe,
                _ => CtlKind::None,
            }
        };
        let mem = match opcode {
            Opcode::Lwz | Opcode::Lws => MemKind::LoadWord,
            Opcode::Lhz => MemKind::LoadHalf { signed: false },
            Opcode::Lhs => MemKind::LoadHalf { signed: true },
            Opcode::Lbz => MemKind::LoadByte { signed: false },
            Opcode::Lbs => MemKind::LoadByte { signed: true },
            Opcode::Sw => MemKind::StoreWord,
            Opcode::Sh => MemKind::StoreHalf,
            Opcode::Sb => MemKind::StoreByte,
            _ => MemKind::None,
        };
        let adder = match opcode {
            Opcode::Add | Opcode::Addi => AdderKind::Plain,
            Opcode::Addc | Opcode::Addic => AdderKind::WithCarry,
            Opcode::Sub | Opcode::Sf(_) | Opcode::Sfi(_) => AdderKind::SubBorrow,
            op if op.is_mem() => AdderKind::Plain,
            _ => AdderKind::None,
        };
        MicroOp {
            insn: *insn,
            class: opcode.timing_class(),
            ra,
            rb,
            rd: insn.dest_reg(),
            op_b_imm,
            alu,
            ctl,
            branch_disp: (imm.unwrap_or(0) as u32).wrapping_mul(4),
            mem,
            mem_width: opcode.mem_width().unwrap_or(4),
            adder,
            is_mul: matches!(opcode, Opcode::Mul | Opcode::Mulu | Opcode::Muli),
            is_shift: opcode.timing_class() == TimingClass::Shift,
        }
    }

    /// `true` when the micro-op can neither redirect fetch nor halt the
    /// pipeline — the fast-path eligibility predicate.
    #[must_use]
    pub fn is_plain(&self) -> bool {
        matches!(self.ctl, CtlKind::None)
    }
}

/// Executes the data-path portion of a predecoded micro-op: the dense
/// dispatch twin of the reference ALU (`alu::execute`), pinned equivalent by
/// the lowering round-trip proptest.
#[inline]
pub(crate) fn exec_alu(kind: AluKind, a: u32, b: u32, flag: bool, carry: bool) -> AluOutcome {
    let mut out = AluOutcome {
        result: 0,
        flag: None,
        carry: None,
        address: None,
    };
    match kind {
        AluKind::Add => {
            let (sum, c1) = a.overflowing_add(b);
            out.result = sum;
            out.carry = Some(c1);
        }
        AluKind::AddCarry => {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(u32::from(carry));
            out.result = s2;
            out.carry = Some(c1 || c2);
        }
        AluKind::Sub => {
            let (diff, borrow) = a.overflowing_sub(b);
            out.result = diff;
            out.carry = Some(borrow);
        }
        AluKind::And => out.result = a & b,
        AluKind::Or => out.result = a | b,
        AluKind::Xor => out.result = a ^ b,
        AluKind::MulSigned => out.result = (a as i32).wrapping_mul(b as i32) as u32,
        AluKind::MulUnsigned => out.result = a.wrapping_mul(b),
        AluKind::ShiftLeft => out.result = a.wrapping_shl(b & 0x1F),
        AluKind::ShiftRightLogical => out.result = a.wrapping_shr(b & 0x1F),
        AluKind::ShiftRightArith => out.result = ((a as i32).wrapping_shr(b & 0x1F)) as u32,
        AluKind::RotateRight => out.result = a.rotate_right(b & 0x1F),
        AluKind::Cmov => out.result = if flag { a } else { b },
        AluKind::ExtendByte => out.result = (a as u8 as i8) as i32 as u32,
        AluKind::ExtendHalf => out.result = (a as u16 as i16) as i32 as u32,
        AluKind::MoveHigh => out.result = b << 16,
        AluKind::SetFlag(cond) => out.flag = Some(cond.eval(a, b)),
        AluKind::MemAddr => out.address = Some(a.wrapping_add(b)),
        AluKind::None => {}
    }
    out
}

/// The carry-chain proxy for a micro-op's adder excitation — the dense twin
/// of the reference `adder_chain` (same [`alu::carry_chain`] underneath).
#[inline]
pub(crate) fn adder_chain(adder: AdderKind, a: u32, b: u32, carry: bool) -> u8 {
    match adder {
        AdderKind::Plain => alu::carry_chain(a, b, false),
        AdderKind::WithCarry => alu::carry_chain(a, b, carry),
        AdderKind::SubBorrow => alu::carry_chain(a, !b, true),
        AdderKind::None => 0,
    }
}

/// A program lowered to its flat micro-op table plus the derived block map,
/// fetch-path metadata and digest hints. Self-contained: it carries the
/// base/end addresses and the initialized-data image, so every engine entry
/// point can run from the predecoded form alone and a caller can lower once
/// and reuse the table across runs (`repro bench` repetitions, sweep
/// engines, differential tests).
#[derive(Debug, Clone)]
pub struct PredecodedProgram {
    base: u32,
    end: u32,
    ops: Vec<MicroOp>,
    runway: Vec<u32>,
    data: Vec<(u32, u32)>,
    hints: Arc<DigestHints>,
}

impl PredecodedProgram {
    /// Lowers a program into its predecoded form.
    #[must_use]
    pub fn lower(program: &Program) -> PredecodedProgram {
        let ops: Vec<MicroOp> = program.insns().iter().map(MicroOp::lower).collect();
        let mut runway = vec![0u32; ops.len()];
        for i in (0..ops.len()).rev() {
            if ops[i].is_plain() {
                runway[i] = runway.get(i + 1).copied().unwrap_or(0) + 1;
            }
        }
        let hints = Arc::new(DigestHints::for_insns(
            program.base_address(),
            program.insns(),
        ));
        PredecodedProgram {
            base: program.base_address(),
            end: program.end_address(),
            ops,
            runway,
            data: program.data().to_vec(),
            hints,
        }
    }

    /// Byte address of the first instruction.
    #[must_use]
    pub fn base_address(&self) -> u32 {
        self.base
    }

    /// Byte address one past the last instruction.
    #[must_use]
    pub fn end_address(&self) -> u32 {
        self.end
    }

    /// Number of micro-ops in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The micro-op table, indexed by instruction word offset.
    #[must_use]
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Initialized data words of the lowered program.
    #[must_use]
    pub fn data(&self) -> &[(u32, u32)] {
        &self.data
    }

    /// Precomputed per-instruction digest excitation hints; hand these to
    /// [`crate::DigestObserver::with_hints`] so digest capture skips the
    /// per-cycle re-encode of static instruction facts.
    #[must_use]
    pub fn digest_hints(&self) -> Arc<DigestHints> {
        Arc::clone(&self.hints)
    }

    /// Number of consecutive plain micro-ops starting at table index `idx`
    /// (0 when the op at `idx` itself is a control-flow or exit op).
    #[must_use]
    pub fn runway(&self, idx: u32) -> u32 {
        self.runway.get(idx as usize).copied().unwrap_or(0)
    }

    /// The table index of the instruction fetched at byte address `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::PcOutOfRange`] when `pc` is outside
    /// `[base, end)` or not word-aligned — the hardened fetch path: a
    /// register jump can put *any* value in the program counter, and the
    /// simulator must fail structurally instead of fetching a garbage word.
    pub fn fetch_index(&self, pc: u32) -> Result<u32, PipelineError> {
        let offset = pc.wrapping_sub(self.base);
        let index = offset / INSN_BYTES;
        if pc < self.base || !offset.is_multiple_of(INSN_BYTES) || index as usize >= self.ops.len()
        {
            return Err(PipelineError::PcOutOfRange { pc });
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idca_isa::asm::Assembler;

    fn assemble(src: &str) -> Program {
        Assembler::new().assemble(src).expect("assembles")
    }

    #[test]
    fn runway_counts_plain_prefixes() {
        let program =
            assemble("l.addi r3, r0, 1\n l.addi r4, r0, 2\n l.j skip\n l.nop 0\n skip: l.nop 1\n");
        let pre = PredecodedProgram::lower(&program);
        assert_eq!(pre.runway(0), 2); // addi, addi, then l.j
        assert_eq!(pre.runway(1), 1);
        assert_eq!(pre.runway(2), 0); // the jump itself
        assert_eq!(pre.runway(3), 1); // the delay-slot nop (plain)
        assert_eq!(pre.runway(4), 0); // the exit marker
    }

    #[test]
    fn fetch_index_rejects_misaligned_and_out_of_range_pcs() {
        let program = assemble("l.addi r3, r0, 1\n l.nop 1\n");
        let pre = PredecodedProgram::lower(&program);
        let base = pre.base_address();
        assert_eq!(pre.fetch_index(base), Ok(0));
        assert_eq!(pre.fetch_index(base + 4), Ok(1));
        for bad in [
            base.wrapping_sub(4),
            base + 1,
            base + 2,
            base + 3,
            pre.end_address(),
            0xFFFF_FFFC,
        ] {
            assert_eq!(
                pre.fetch_index(bad),
                Err(PipelineError::PcOutOfRange { pc: bad }),
                "pc {bad:#x} must be rejected"
            );
        }
    }

    #[test]
    fn exit_marker_is_not_plain_but_other_nops_are() {
        let program = assemble("l.nop 0\n l.nop 7\n l.nop 1\n");
        let pre = PredecodedProgram::lower(&program);
        assert_eq!(pre.ops()[0].ctl, CtlKind::None);
        assert_eq!(pre.ops()[1].ctl, CtlKind::None);
        assert_eq!(pre.ops()[2].ctl, CtlKind::Exit);
    }
}

#[cfg(test)]
mod lowering_proptests {
    use super::*;
    use proptest::prelude::*;

    /// The whole decodable instruction space: random operand bits combined
    /// with a scan over primary-opcode slots until a word decodes. Sampling
    /// encodings (rather than typed constructors) means every reachable
    /// opcode *and* operand encoding is on the table, including ones the
    /// program generator never emits.
    fn decodable_insn() -> impl Strategy<Value = Insn> {
        (any::<u32>(), 0u32..64).prop_map(|(operand_bits, start)| {
            let base = operand_bits & 0x03FF_FFFF;
            (0..64u32)
                .map(|i| (((start + i) & 63) << 26) | base)
                .find_map(|word| Insn::decode(word).ok())
                .expect("some primary opcode accepts any operand bits")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Micro-op lowering round-trips every decodable instruction: the
        /// pre-resolved fields agree with the `Insn`/`Opcode` accessors, and
        /// the dense [`exec_alu`]/[`adder_chain`] dispatch is bit-identical
        /// to the reference opcode-matched ALU on arbitrary operands.
        #[test]
        fn lowering_roundtrips_every_decodable_insn(
            insn in decodable_insn(),
            a in any::<u32>(),
            rb_value in any::<u32>(),
            flag in any::<bool>(),
            carry in any::<bool>(),
        ) {
            let op = MicroOp::lower(&insn);
            let opcode = insn.opcode();

            // Static fields mirror the `Insn` accessors.
            prop_assert_eq!(op.insn, insn);
            prop_assert_eq!(op.class, insn.timing_class());
            prop_assert_eq!((op.ra, op.rb), insn.source_regs());
            prop_assert_eq!(op.rd, insn.dest_reg());
            prop_assert_eq!(op.mem == MemKind::None, !opcode.is_mem());
            prop_assert_eq!(op.mem_width, opcode.mem_width().unwrap_or(4));
            prop_assert_eq!(
                op.is_mul,
                matches!(opcode, Opcode::Mul | Opcode::Mulu | Opcode::Muli)
            );
            prop_assert_eq!(op.is_shift, insn.timing_class() == TimingClass::Shift);

            // `is_plain` is exactly "cannot redirect fetch or halt".
            let is_control = matches!(
                opcode,
                Opcode::J
                    | Opcode::Jal
                    | Opcode::Jr
                    | Opcode::Jalr
                    | Opcode::Bf
                    | Opcode::Bnf
                    | Opcode::Rfe
            ) || (opcode == Opcode::Nop && insn.imm() == Some(i32::from(NOP_EXIT)));
            prop_assert_eq!(op.is_plain(), !is_control);

            // Operand selection: the pre-resolved immediate (when present)
            // equals the reference `operand_b`, and register forms fall
            // through to the register value.
            let b = op.op_b_imm.unwrap_or(rb_value);
            prop_assert_eq!(b, alu::operand_b(&insn, rb_value));

            // Data path: dense `AluKind` dispatch == reference ALU.
            prop_assert_eq!(
                exec_alu(op.alu, a, b, flag, carry),
                alu::execute(&insn, a, b, flag, carry)
            );

            // Adder excitation: `AdderKind` reproduces the reference
            // per-opcode carry-chain selection.
            let reference_chain = match opcode {
                Opcode::Add | Opcode::Addi => alu::carry_chain(a, b, false),
                Opcode::Addc | Opcode::Addic => alu::carry_chain(a, b, carry),
                Opcode::Sub | Opcode::Sf(_) | Opcode::Sfi(_) => alu::carry_chain(a, !b, true),
                op if op.is_mem() => alu::carry_chain(a, b, false),
                _ => 0,
            };
            prop_assert_eq!(adder_chain(op.adder, a, b, carry), reference_chain);

            // Branch displacement is the encoded word offset scaled to bytes.
            if matches!(opcode, Opcode::J | Opcode::Jal | Opcode::Bf | Opcode::Bnf) {
                prop_assert_eq!(
                    op.branch_disp,
                    (insn.imm().unwrap_or(0) as u32).wrapping_mul(4)
                );
            }
        }
    }
}
