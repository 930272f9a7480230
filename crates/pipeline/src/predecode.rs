//! Predecoded micro-op form of a program.
//!
//! The per-cycle engines ([`crate::Simulator`] and [`crate::Interpreter`])
//! used to re-derive the same static facts from [`Insn`] accessors on every
//! cycle an instruction spent in a stage: which operand registers it reads,
//! whether the second operand is an immediate, which ALU operation it
//! performs, whether it is a load or a store and of which width, whether it
//! redirects control flow and where its PC-relative target lies, whether it
//! is the `l.nop 1` exit marker, and which adder/multiplier/shifter activity
//! it excites. All of that is a pure function of the instruction word, so
//! [`PredecodedProgram::lower`] computes it **once per program** into a flat
//! [`MicroOp`] table the engines index by instruction word offset. The
//! lowering has no per-opcode match: the data-path, control-flow and memory
//! tags are columns of the instruction's table row in `idca_isa`, and the
//! rest derives from them.
//!
//! On top of the table the lowering derives, for the simulator's fast path,
//! a per-index *runway* ([`PredecodedProgram::runway`]) — the number of
//! consecutive plain (non-control, non-exit) micro-ops starting at an index.
//! While the pipeline is executing inside a runway nothing can redirect the
//! fetch address, so the simulator dispatches those block interiors on a
//! specialized loop with the per-cycle latch unwrapping and per-opcode
//! matching hoisted out.
//!
//! Lowering is semantics-preserving and pinned by tests: a property lowers
//! every table row and set-flag condition at its field extremes and checks
//! the micro-op fields against the `Insn` accessors and per-opcode
//! references, and [`exec_alu`] against the reference ALU on random
//! operands; the differential suite pins the predecoded simulator loop
//! bit-identical to the retained per-cycle reference loop.

use crate::digest::DigestHints;
use crate::interp::alu::{self, AluOutcome};
use crate::{PipelineError, NOP_EXIT};
use idca_isa::{AluKind, CtlKind, Insn, MemKind, Program, Reg, TimingClass, INSN_BYTES};
use std::sync::Arc;

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
    /// Pre-extracted immediate second operand, sign-extended where the
    /// row's immediate is signed; `None` selects the `rB` register value.
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
    /// Adder excitation kind.
    pub adder: AdderKind,
    /// `true` for the multiply instructions (operand-isolated multiplier).
    pub is_mul: bool,
    /// `true` for the shifter instructions.
    pub is_shift: bool,
}

impl MicroOp {
    /// Lowers one instruction into its micro-op form: the dispatch tags and
    /// the timing class come from the instruction's table row, `Exit` from
    /// the `l.nop` immediate, and the rest is derived from them.
    #[must_use]
    pub fn lower(insn: &Insn) -> MicroOp {
        let opcode = insn.opcode();
        let class = opcode.timing_class();
        let (ra, rb) = insn.source_regs();
        let imm = insn.imm();
        let alu = opcode.alu_kind();
        let ctl = if class == TimingClass::Nop && imm == Some(i32::from(NOP_EXIT)) {
            CtlKind::Exit
        } else {
            opcode.ctl_kind()
        };
        let mem = opcode.mem_kind();
        let adder = match alu {
            AluKind::Add | AluKind::MemAddr => AdderKind::Plain,
            AluKind::AddCarry => AdderKind::WithCarry,
            AluKind::Sub | AluKind::SetFlag(_) => AdderKind::SubBorrow,
            _ => AdderKind::None,
        };
        MicroOp {
            insn: *insn,
            class,
            ra,
            rb,
            rd: insn.dest_reg(),
            // Every `Insn` satisfies its row's range check, so the operand
            // needs no masking.
            op_b_imm: imm
                .filter(|_| opcode.imm_is_operand_b())
                .map(|imm| imm as u32),
            alu,
            ctl,
            branch_disp: (imm.unwrap_or(0) as u32).wrapping_mul(4),
            mem,
            adder,
            is_mul: class == TimingClass::Mul,
            is_shift: class == TimingClass::Shift,
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
/// the lowering round-trip property.
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
mod lowering_properties {
    use super::*;
    use idca_cases::property;
    use idca_isa::{Opcode, SetFlagCond};
    use std::collections::HashSet;

    /// Micro-op lowering round-trips every row of the instruction table,
    /// with each set-flag condition, at its field extremes
    /// ([`Insn::field_extremes`]), on random operand values: the
    /// pre-resolved fields agree with the `Insn` accessors and with the
    /// per-opcode references below, and the dense
    /// [`exec_alu`]/[`adder_chain`] dispatch is bit-identical to the
    /// reference opcode-matched ALU.
    #[test]
    fn lowering_roundtrips_every_decodable_insn() {
        property!(
            lowering_roundtrips_every_decodable_insn,
            master = 0xCA5E_0019,
            cases = 64
        )
        .run(|case| {
            let a = case.int(0..=u32::MAX);
            let rb_value = case.int(0..=u32::MAX);
            let flag = case.bool();
            let carry = case.bool();
            let mut reached = HashSet::new();
            for insn in Insn::field_extremes() {
                let op = MicroOp::lower(&insn);
                let opcode = insn.opcode();
                reached.insert(opcode);

                // Static fields mirror the `Insn` accessors.
                assert_eq!(op.insn, insn);
                assert_eq!(op.class, insn.timing_class());
                assert_eq!((op.ra, op.rb), insn.source_regs());
                assert_eq!(op.rd, insn.dest_reg());
                assert_eq!(
                    op.is_mul,
                    matches!(opcode, Opcode::Mul | Opcode::Mulu | Opcode::Muli)
                );
                assert_eq!(op.is_shift, insn.timing_class() == TimingClass::Shift);

                // Control flow: `is_plain` is exactly "cannot redirect
                // fetch or halt".
                let ctl = match opcode {
                    Opcode::J => CtlKind::Jump { link: false },
                    Opcode::Jal => CtlKind::Jump { link: true },
                    Opcode::Jr => CtlKind::JumpReg { link: false },
                    Opcode::Jalr => CtlKind::JumpReg { link: true },
                    Opcode::Bf => CtlKind::BranchIfFlag,
                    Opcode::Bnf => CtlKind::BranchIfNotFlag,
                    Opcode::Rfe => CtlKind::Rfe,
                    Opcode::Nop if insn.imm() == Some(i32::from(NOP_EXIT)) => CtlKind::Exit,
                    _ => CtlKind::None,
                };
                assert_eq!(op.ctl, ctl, "{}", insn);
                assert_eq!(op.is_plain(), ctl == CtlKind::None);

                // Memory access: kind and sign.
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
                assert_eq!(op.mem, mem, "{}", insn);

                // Operand selection: the pre-resolved immediate (when
                // present) equals the reference `operand_b`, and register
                // forms fall through to the register value.
                let b = op.op_b_imm.unwrap_or(rb_value);
                assert_eq!(b, alu::operand_b(&insn, rb_value), "{}", insn);

                // Data path: dense `AluKind` dispatch == reference ALU.
                assert_eq!(
                    exec_alu(op.alu, a, b, flag, carry),
                    alu::execute(&insn, a, b, flag, carry),
                    "{}",
                    insn
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
                assert_eq!(adder_chain(op.adder, a, b, carry), reference_chain);

                // Branch displacement is the encoded word offset scaled to
                // bytes.
                if matches!(opcode, Opcode::J | Opcode::Jal | Opcode::Bf | Opcode::Bnf) {
                    assert_eq!(
                        op.branch_disp,
                        (insn.imm().unwrap_or(0) as u32).wrapping_mul(4)
                    );
                }
            }
            // Every row was lowered: 45 rows, of which the two set-flag rows
            // stand for ten conditions each.
            assert_eq!(reached.len(), 45 - 2 + 2 * SetFlagCond::ALL.len());
        });
    }
}
