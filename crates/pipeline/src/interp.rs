//! A simple architectural interpreter used as the golden reference model.
//!
//! The interpreter executes programs sequentially (with correct OpenRISC
//! delay-slot semantics) and is used by the test-suite to cross-check the
//! architectural state produced by the cycle-accurate pipeline simulator
//! (differential testing). It runs on the lowered micro-op table, through
//! the same [`exec_alu`] dispatch as the predecoded simulator. The
//! per-opcode [`alu`] semantics are the oracle of the simulator's reference
//! loop and of the lowering tests.

use crate::predecode::{exec_alu, PredecodedProgram};
use crate::{Memory, PipelineError, RegisterFile};
use idca_isa::{CtlKind, MemKind, Program, Reg, INSN_BYTES};

pub(crate) mod alu {
    //! Per-opcode instruction semantics: the execute stage of the
    //! simulator's reference loop, and the oracle the lowered micro-op
    //! dispatch is pinned against.

    use idca_isa::{Insn, Opcode, SetFlagCond};

    /// Outcome of executing one instruction's data-path portion.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct AluOutcome {
        /// Result value headed for the destination register (if any).
        pub result: u32,
        /// New compare-flag value (if the instruction writes the flag).
        pub flag: Option<bool>,
        /// New carry value (if the instruction updates the carry bit).
        pub carry: Option<bool>,
        /// Effective address for loads/stores.
        pub address: Option<u32>,
    }

    /// Selects the second ALU operand: register `rB` or immediate.
    pub(crate) fn operand_b(insn: &Insn, rb_value: u32) -> u32 {
        match insn.opcode() {
            Opcode::Andi | Opcode::Ori => (insn.imm().unwrap_or(0) as u32) & 0xFFFF,
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
            | Opcode::Sb => insn.imm().unwrap_or(0) as u32,
            Opcode::Slli | Opcode::Srli | Opcode::Srai | Opcode::Rori => {
                (insn.imm().unwrap_or(0) as u32) & 0x1F
            }
            Opcode::Movhi => (insn.imm().unwrap_or(0) as u32) & 0xFFFF,
            _ => rb_value,
        }
    }

    /// Longest carry-propagation run when computing `a + b + cin` on the
    /// main adder; a proxy for the dynamic depth of the adder path excited
    /// by the operands.
    ///
    /// Bit-parallel form of the per-bit recurrence (retained below as the
    /// test oracle [`carry_chain_reference`]): in the 33-bit sum
    /// `x = a + b + cin`, the vector `x ^ a ^ b` holds the carry *into*
    /// every bit position, and the per-bit run condition
    /// `generate | (propagate & carry_in)` is exactly the carry *out* of
    /// that bit — the carry-in vector shifted down by one. The metric is
    /// then the longest run of set bits in that mask.
    pub(crate) fn carry_chain(a: u32, b: u32, cin: bool) -> u8 {
        let x = u64::from(a) + u64::from(b) + u64::from(cin);
        let carries = x ^ u64::from(a) ^ u64::from(b);
        let mut mask = (carries >> 1) as u32;
        let mut best: u8 = 0;
        while mask != 0 {
            mask &= mask << 1;
            best += 1;
        }
        best
    }

    /// The original per-bit recurrence, kept as the oracle the bit-parallel
    /// [`carry_chain`] is pinned against.
    #[cfg(test)]
    pub(crate) fn carry_chain_reference(a: u32, b: u32, cin: bool) -> u8 {
        let mut carry = u32::from(cin);
        let mut run: u8 = 0;
        let mut best: u8 = 0;
        for bit in 0..32 {
            let ab = (a >> bit) & 1;
            let bb = (b >> bit) & 1;
            let generate = ab & bb;
            let propagate = ab ^ bb;
            let next_carry = generate | (propagate & carry);
            if (propagate == 1 && carry == 1) || generate == 1 {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
            carry = next_carry;
        }
        best
    }

    /// Executes the data-path portion of an instruction.
    ///
    /// `a` is the resolved `rA` operand, `b` the resolved second operand
    /// (register or immediate, as selected by [`operand_b`]), `flag` and
    /// `carry` the current architectural flag/carry bits.
    pub(crate) fn execute(insn: &Insn, a: u32, b: u32, flag: bool, carry: bool) -> AluOutcome {
        let mut out = AluOutcome {
            result: 0,
            flag: None,
            carry: None,
            address: None,
        };
        match insn.opcode() {
            Opcode::Add | Opcode::Addi => {
                let (sum, c1) = a.overflowing_add(b);
                out.result = sum;
                out.carry = Some(c1);
            }
            Opcode::Addc | Opcode::Addic => {
                let (s1, c1) = a.overflowing_add(b);
                let (s2, c2) = s1.overflowing_add(u32::from(carry));
                out.result = s2;
                out.carry = Some(c1 || c2);
            }
            Opcode::Sub => {
                let (diff, borrow) = a.overflowing_sub(b);
                out.result = diff;
                out.carry = Some(borrow);
            }
            Opcode::And | Opcode::Andi => out.result = a & b,
            Opcode::Or | Opcode::Ori => out.result = a | b,
            Opcode::Xor | Opcode::Xori => out.result = a ^ b,
            Opcode::Mul | Opcode::Muli => {
                out.result = (a as i32).wrapping_mul(b as i32) as u32;
            }
            Opcode::Mulu => out.result = a.wrapping_mul(b),
            Opcode::Sll | Opcode::Slli => out.result = a.wrapping_shl(b & 0x1F),
            Opcode::Srl | Opcode::Srli => out.result = a.wrapping_shr(b & 0x1F),
            Opcode::Sra | Opcode::Srai => out.result = ((a as i32).wrapping_shr(b & 0x1F)) as u32,
            Opcode::Ror | Opcode::Rori => out.result = a.rotate_right(b & 0x1F),
            Opcode::Cmov => out.result = if flag { a } else { b },
            Opcode::Extbs => out.result = (a as u8 as i8) as i32 as u32,
            Opcode::Exths => out.result = (a as u16 as i16) as i32 as u32,
            Opcode::Movhi => out.result = b << 16,
            Opcode::Sf(cond) | Opcode::Sfi(cond) => {
                out.flag = Some(eval_cond(cond, a, b));
            }
            Opcode::Lwz
            | Opcode::Lws
            | Opcode::Lhz
            | Opcode::Lhs
            | Opcode::Lbz
            | Opcode::Lbs
            | Opcode::Sw
            | Opcode::Sh
            | Opcode::Sb => {
                out.address = Some(a.wrapping_add(b));
            }
            Opcode::Jal | Opcode::Jalr => {
                // Link value (pc + 8, past the delay slot) is provided by the
                // caller; the ALU itself produces nothing here.
            }
            // Remaining opcodes (jumps, branches, nop) produce no data-path
            // result; the wildcard also covers future additions to the
            // non-exhaustive `Opcode` enum.
            _ => {}
        }
        out
    }

    fn eval_cond(cond: SetFlagCond, a: u32, b: u32) -> bool {
        cond.eval(a, b)
    }
}

/// Result of running a program on the [`Interpreter`].
#[derive(Debug, Clone)]
pub struct InterpreterResult {
    /// Final register file contents.
    pub regs: RegisterFile,
    /// Final data memory contents.
    pub memory: Memory,
    /// Final compare-flag value.
    pub flag: bool,
    /// Number of architecturally executed instructions.
    pub retired: u64,
}

/// Sequential architectural reference model of the ISA subset.
///
/// # Example
///
/// ```
/// use idca_isa::asm::Assembler;
/// use idca_pipeline::Interpreter;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Assembler::new().assemble(
///     "l.addi r3, r0, 21\n l.add r3, r3, r3\n l.nop 1\n",
/// )?;
/// let result = Interpreter::new().run(&program)?;
/// assert_eq!(result.regs.read(idca_isa::Reg::r(3)), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter {
    data_memory_size: usize,
    max_instructions: u64,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter {
            data_memory_size: 64 * 1024,
            max_instructions: 10_000_000,
        }
    }
}

impl Interpreter {
    /// Creates an interpreter with a 64 KiB data memory and a 10 M
    /// instruction budget.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the maximum number of instructions to execute before giving up.
    #[must_use]
    pub fn with_max_instructions(mut self, limit: u64) -> Self {
        self.max_instructions = limit;
        self
    }

    /// Runs a program to completion (the `l.nop 1` exit marker) or until the
    /// program counter falls off the end of the image.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for invalid memory accesses, an
    /// out-of-range program counter or an exhausted instruction budget.
    pub fn run(&self, program: &Program) -> Result<InterpreterResult, PipelineError> {
        self.run_predecoded(&PredecodedProgram::lower(program))
    }

    /// [`Interpreter::run`] for a program already lowered to its
    /// [`PredecodedProgram`] form: dispatches straight from the micro-op
    /// table, sharing the lowering with the pipeline simulator.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] like [`Interpreter::run`].
    pub fn run_predecoded(
        &self,
        pre: &PredecodedProgram,
    ) -> Result<InterpreterResult, PipelineError> {
        let mut regs = RegisterFile::new();
        let mut memory = Memory::new(self.data_memory_size);
        memory.load_image(pre.data())?;
        let mut flag = false;
        let mut carry = false;
        let base = pre.base_address();
        let end = pre.end_address();
        let ops = pre.ops();
        let mut pc = base;
        let mut retired: u64 = 0;
        // Target that takes effect after the delay-slot instruction.
        let mut pending_target: Option<u32> = None;

        loop {
            if retired >= self.max_instructions {
                return Err(PipelineError::CycleLimitExceeded {
                    limit: self.max_instructions,
                });
            }
            if pc < base || pc >= end {
                // Falling off the end of the image terminates execution,
                // mirroring the pipeline simulator's drain behaviour.
                break;
            }
            // In range but misaligned (a register jump can produce such a
            // PC): a structured error, matching the simulator's hardened
            // fetch path.
            let op = &ops[pre.fetch_index(pc)? as usize];
            retired += 1;

            if op.ctl == CtlKind::Exit {
                break;
            }

            let a = op.ra.map_or(0, |r| regs.read(r));
            let rb_value = op.rb.map_or(0, |r| regs.read(r));
            let b = op.op_b_imm.unwrap_or(rb_value);
            let outcome = exec_alu(op.alu, a, b, flag, carry);

            if let Some(new_flag) = outcome.flag {
                flag = new_flag;
            }
            if let Some(new_carry) = outcome.carry {
                carry = new_carry;
            }

            let mut next_pc = pc.wrapping_add(INSN_BYTES);
            let mut new_pending: Option<u32> = None;
            match op.ctl {
                CtlKind::Jump { link } => {
                    new_pending = Some(pc.wrapping_add(op.branch_disp));
                    if link {
                        regs.write(Reg::LINK, pc.wrapping_add(8));
                    }
                }
                CtlKind::JumpReg { link } => {
                    new_pending = Some(rb_value);
                    if link {
                        regs.write(Reg::LINK, pc.wrapping_add(8));
                    }
                }
                CtlKind::BranchIfFlag => {
                    if flag {
                        new_pending = Some(pc.wrapping_add(op.branch_disp));
                    }
                }
                CtlKind::BranchIfNotFlag => {
                    if !flag {
                        new_pending = Some(pc.wrapping_add(op.branch_disp));
                    }
                }
                // The architectural interpreter models no interrupt state,
                // so a stray `l.rfe` falls through — matching the pipeline
                // engines, where it is a no-op outside an active handler.
                CtlKind::None | CtlKind::Exit | CtlKind::Rfe => {}
            }

            if op.mem.is_load() {
                let addr = outcome.address.unwrap_or(0);
                let value = match op.mem {
                    MemKind::LoadWord => memory.load_word(addr)?,
                    MemKind::LoadHalf { signed: false } => u32::from(memory.load_half(addr)?),
                    MemKind::LoadHalf { signed: true } => {
                        memory.load_half(addr)? as i16 as i32 as u32
                    }
                    MemKind::LoadByte { signed: false } => u32::from(memory.load_byte(addr)?),
                    MemKind::LoadByte { signed: true } => {
                        memory.load_byte(addr)? as i8 as i32 as u32
                    }
                    _ => 0,
                };
                regs.write(op.rd.expect("load has rd"), value);
            } else if op.mem.is_store() {
                let addr = outcome.address.unwrap_or(0);
                match op.mem {
                    MemKind::StoreWord => memory.store_word(addr, rb_value)?,
                    MemKind::StoreHalf => memory.store_half(addr, rb_value as u16)?,
                    MemKind::StoreByte => memory.store_byte(addr, rb_value as u8)?,
                    _ => {}
                }
            } else if op.ctl == CtlKind::None {
                if let Some(rd) = op.rd {
                    regs.write(rd, outcome.result);
                }
            }

            // Delay-slot bookkeeping: a pending target set by the *previous*
            // instruction takes effect now (after this instruction, which was
            // its delay slot).
            if let Some(target) = pending_target.take() {
                next_pc = target;
            }
            pending_target = new_pending;
            pc = next_pc;
        }

        Ok(InterpreterResult {
            regs,
            memory,
            flag,
            retired,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idca_isa::asm::Assembler;

    fn run(src: &str) -> InterpreterResult {
        let program = Assembler::new().assemble(src).expect("assembles");
        Interpreter::new().run(&program).expect("runs")
    }

    #[test]
    fn arithmetic_and_logic() {
        let r = run("l.addi r3, r0, 6\n l.addi r4, r0, 7\n l.mul r5, r3, r4\n\
                     l.xor r6, r3, r4\n l.and r7, r3, r4\n l.or r8, r3, r4\n l.nop 1\n");
        assert_eq!(r.regs.read(Reg::r(5)), 42);
        assert_eq!(r.regs.read(Reg::r(6)), 1);
        assert_eq!(r.regs.read(Reg::r(7)), 6);
        assert_eq!(r.regs.read(Reg::r(8)), 7);
    }

    #[test]
    fn loop_with_delay_slot_executes_correct_count() {
        // Sum 1..=5 using a countdown loop; the delay-slot instruction after
        // l.bf is part of the loop body (it executes even on the last,
        // not-taken iteration).
        let r = run("        l.addi r3, r0, 5
                     l.addi r4, r0, 0
             loop:   l.add  r4, r4, r3
                     l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.nop  0
                     l.nop  1");
        assert_eq!(r.regs.read(Reg::r(4)), 15);
        assert_eq!(r.regs.read(Reg::r(3)), 0);
    }

    #[test]
    fn delay_slot_instruction_executes_before_jump_target() {
        // The l.addi in the delay slot of l.j must execute.
        let r = run("        l.addi r3, r0, 1
                     l.j    done
                     l.addi r3, r3, 10   # delay slot
                     l.addi r3, r3, 100  # skipped
             done:   l.nop 1");
        assert_eq!(r.regs.read(Reg::r(3)), 11);
    }

    #[test]
    fn jal_links_past_delay_slot_and_jr_returns() {
        let r = run("        l.jal  func
                     l.addi r3, r0, 1    # delay slot
                     l.addi r4, r0, 2    # return lands here
                     l.nop  1
             func:   l.addi r5, r0, 3
                     l.jr   r9
                     l.addi r6, r0, 4    # delay slot of return");
        assert_eq!(r.regs.read(Reg::r(3)), 1);
        assert_eq!(r.regs.read(Reg::r(4)), 2);
        assert_eq!(r.regs.read(Reg::r(5)), 3);
        assert_eq!(r.regs.read(Reg::r(6)), 4);
    }

    #[test]
    fn memory_byte_half_word_accesses() {
        let r = run("        l.addi r1, r0, 0x100
                     l.addi r3, r0, -2
                     l.sw   0(r1), r3
                     l.lwz  r4, 0(r1)
                     l.lbz  r5, 3(r1)
                     l.lbs  r6, 3(r1)
                     l.lhz  r7, 2(r1)
                     l.lhs  r8, 2(r1)
                     l.sb   8(r1), r3
                     l.lbz  r9, 8(r1)
                     l.nop  1");
        assert_eq!(r.regs.read(Reg::r(4)), 0xFFFF_FFFE);
        assert_eq!(r.regs.read(Reg::r(5)), 0xFE);
        assert_eq!(r.regs.read(Reg::r(6)), 0xFFFF_FFFE);
        assert_eq!(r.regs.read(Reg::r(7)), 0xFFFE);
        assert_eq!(r.regs.read(Reg::r(8)), 0xFFFF_FFFE);
        assert_eq!(r.regs.read(Reg::r(9)), 0xFE);
    }

    #[test]
    fn carry_chain_metric_behaves() {
        assert_eq!(alu::carry_chain(0, 0, false), 0);
        // 0xFFFF_FFFF + 1 ripples through all 32 positions.
        assert_eq!(alu::carry_chain(0xFFFF_FFFF, 1, false), 32);
        // Single-bit add with no propagation.
        assert_eq!(alu::carry_chain(1, 2, false), 0);
        assert!(alu::carry_chain(0x0F0F_0F0F, 0x0101_0101, false) >= 4);
    }

    #[test]
    fn bit_parallel_carry_chain_matches_the_per_bit_reference() {
        let edges = [
            0u32,
            1,
            2,
            3,
            0x8000_0000,
            0xFFFF_FFFF,
            0xFFFF_FFFE,
            0x7FFF_FFFF,
            0x5555_5555,
            0xAAAA_AAAA,
            0x0F0F_0F0F,
            0x0101_0101,
        ];
        for &a in &edges {
            for &b in &edges {
                for cin in [false, true] {
                    assert_eq!(
                        alu::carry_chain(a, b, cin),
                        alu::carry_chain_reference(a, b, cin),
                        "a={a:#x} b={b:#x} cin={cin}"
                    );
                }
            }
        }
        // Deterministic pseudo-random sweep.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let a = (state >> 32) as u32;
            let b = state as u32;
            for cin in [false, true] {
                assert_eq!(
                    alu::carry_chain(a, b, cin),
                    alu::carry_chain_reference(a, b, cin),
                    "a={a:#x} b={b:#x} cin={cin}"
                );
            }
        }
    }

    #[test]
    fn shifts_and_rotates() {
        let r = run("l.addi r3, r0, 1\n l.slli r4, r3, 31\n l.srli r5, r4, 31\n\
             l.srai r6, r4, 31\n l.rori r7, r3, 1\n l.nop 1\n");
        assert_eq!(r.regs.read(Reg::r(4)), 0x8000_0000);
        assert_eq!(r.regs.read(Reg::r(5)), 1);
        assert_eq!(r.regs.read(Reg::r(6)), 0xFFFF_FFFF);
        assert_eq!(r.regs.read(Reg::r(7)), 0x8000_0000);
    }

    #[test]
    fn movhi_ori_builds_constants() {
        let r = run("l.movhi r3, 0xDEAD\n l.ori r3, r3, 0xBEEF\n l.nop 1\n");
        assert_eq!(r.regs.read(Reg::r(3)), 0xDEAD_BEEF);
    }

    #[test]
    fn cmov_uses_flag() {
        let r = run(
            "l.addi r3, r0, 1\n l.addi r4, r0, 2\n l.sfeq r0, r0\n l.cmov r5, r3, r4\n\
             l.sfne r0, r0\n l.cmov r6, r3, r4\n l.nop 1\n",
        );
        assert_eq!(r.regs.read(Reg::r(5)), 1);
        assert_eq!(r.regs.read(Reg::r(6)), 2);
    }

    #[test]
    fn instruction_budget_is_enforced() {
        let program = Assembler::new()
            .assemble("loop: l.j loop\n l.nop 0\n")
            .unwrap();
        let err = Interpreter::new()
            .with_max_instructions(100)
            .run(&program)
            .unwrap_err();
        assert!(matches!(err, PipelineError::CycleLimitExceeded { .. }));
    }
}
