use serde::{Deserialize, Serialize};
use std::fmt;

/// The instruction mnemonics of the modelled ORBIS32 subset.
///
/// The subset covers every instruction class that appears in the paper's
/// Tables I and II plus the instructions needed to write realistic
/// CoreMark-/BEEBS-style kernels: integer ALU (register and immediate
/// forms), shifts/rotates, single-cycle multiply, set-flag comparisons,
/// conditional branches, jumps, loads/stores of words/half-words/bytes,
/// `l.movhi` and `l.nop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Opcode {
    /// `l.add rD, rA, rB` — 32-bit addition.
    Add,
    /// `l.addc rD, rA, rB` — addition with carry-in.
    Addc,
    /// `l.sub rD, rA, rB` — 32-bit subtraction.
    Sub,
    /// `l.and rD, rA, rB` — bitwise AND.
    And,
    /// `l.or rD, rA, rB` — bitwise OR.
    Or,
    /// `l.xor rD, rA, rB` — bitwise XOR.
    Xor,
    /// `l.mul rD, rA, rB` — signed 32×32→32 multiplication (single cycle).
    Mul,
    /// `l.mulu rD, rA, rB` — unsigned 32×32→32 multiplication.
    Mulu,
    /// `l.sll rD, rA, rB` — shift left logical by register amount.
    Sll,
    /// `l.srl rD, rA, rB` — shift right logical.
    Srl,
    /// `l.sra rD, rA, rB` — shift right arithmetic.
    Sra,
    /// `l.ror rD, rA, rB` — rotate right.
    Ror,
    /// `l.cmov rD, rA, rB` — conditional move on the flag bit.
    Cmov,
    /// `l.extbs rD, rA` — sign-extend byte.
    Extbs,
    /// `l.exths rD, rA` — sign-extend half-word.
    Exths,
    /// `l.addi rD, rA, I` — addition with signed 16-bit immediate.
    Addi,
    /// `l.addic rD, rA, I` — addition with immediate and carry-in.
    Addic,
    /// `l.andi rD, rA, K` — AND with zero-extended 16-bit immediate.
    Andi,
    /// `l.ori rD, rA, K` — OR with zero-extended 16-bit immediate.
    Ori,
    /// `l.xori rD, rA, I` — XOR with sign-extended 16-bit immediate.
    Xori,
    /// `l.muli rD, rA, I` — multiply by signed 16-bit immediate.
    Muli,
    /// `l.slli rD, rA, L` — shift left logical by 5-bit immediate.
    Slli,
    /// `l.srli rD, rA, L` — shift right logical by immediate.
    Srli,
    /// `l.srai rD, rA, L` — shift right arithmetic by immediate.
    Srai,
    /// `l.rori rD, rA, L` — rotate right by immediate.
    Rori,
    /// `l.movhi rD, K` — load 16-bit immediate into the upper half-word.
    Movhi,
    /// `l.sfeq rA, rB` / `l.sf* rA, rB` — set-flag comparison, register form.
    Sf(SetFlagCond),
    /// `l.sfeqi rA, I` / `l.sf*i rA, I` — set-flag comparison, immediate form.
    Sfi(SetFlagCond),
    /// `l.lwz rD, I(rA)` — load word, zero-extended.
    Lwz,
    /// `l.lws rD, I(rA)` — load word, sign-extended (identical on 32-bit).
    Lws,
    /// `l.lhz rD, I(rA)` — load half-word, zero-extended.
    Lhz,
    /// `l.lhs rD, I(rA)` — load half-word, sign-extended.
    Lhs,
    /// `l.lbz rD, I(rA)` — load byte, zero-extended.
    Lbz,
    /// `l.lbs rD, I(rA)` — load byte, sign-extended.
    Lbs,
    /// `l.sw I(rA), rB` — store word.
    Sw,
    /// `l.sh I(rA), rB` — store half-word.
    Sh,
    /// `l.sb I(rA), rB` — store byte.
    Sb,
    /// `l.j N` — unconditional PC-relative jump.
    J,
    /// `l.jal N` — jump and link (link register `r9`).
    Jal,
    /// `l.jr rB` — jump to register.
    Jr,
    /// `l.jalr rB` — jump to register and link.
    Jalr,
    /// `l.bf N` — branch if flag set.
    Bf,
    /// `l.bnf N` — branch if flag not set.
    Bnf,
    /// `l.rfe` — return from exception (jump to the saved exception PC).
    Rfe,
    /// `l.nop K` — no operation (K is an informational immediate).
    Nop,
}

/// Comparison condition of the ORBIS32 set-flag (`l.sf*`) instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SetFlagCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Greater than, unsigned.
    Gtu,
    /// Greater or equal, unsigned.
    Geu,
    /// Less than, unsigned.
    Ltu,
    /// Less or equal, unsigned.
    Leu,
    /// Greater than, signed.
    Gts,
    /// Greater or equal, signed.
    Ges,
    /// Less than, signed.
    Lts,
    /// Less or equal, signed.
    Les,
}

impl SetFlagCond {
    /// All conditions, in the order of their ORBIS32 sub-opcode values.
    pub const ALL: [SetFlagCond; 10] = [
        SetFlagCond::Eq,
        SetFlagCond::Ne,
        SetFlagCond::Gtu,
        SetFlagCond::Geu,
        SetFlagCond::Ltu,
        SetFlagCond::Leu,
        SetFlagCond::Gts,
        SetFlagCond::Ges,
        SetFlagCond::Lts,
        SetFlagCond::Les,
    ];

    /// ORBIS32 sub-opcode (bits 25..21 of the instruction word).
    #[must_use]
    pub fn code(self) -> u32 {
        match self {
            SetFlagCond::Eq => 0x0,
            SetFlagCond::Ne => 0x1,
            SetFlagCond::Gtu => 0x2,
            SetFlagCond::Geu => 0x3,
            SetFlagCond::Ltu => 0x4,
            SetFlagCond::Leu => 0x5,
            SetFlagCond::Gts => 0xA,
            SetFlagCond::Ges => 0xB,
            SetFlagCond::Lts => 0xC,
            SetFlagCond::Les => 0xD,
        }
    }

    /// Inverse mapping of [`SetFlagCond::code`].
    #[must_use]
    pub fn from_code(code: u32) -> Option<Self> {
        SetFlagCond::ALL.into_iter().find(|c| c.code() == code)
    }

    /// Evaluates the condition on two 32-bit operands.
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> bool {
        let (sa, sb) = (a as i32, b as i32);
        match self {
            SetFlagCond::Eq => a == b,
            SetFlagCond::Ne => a != b,
            SetFlagCond::Gtu => a > b,
            SetFlagCond::Geu => a >= b,
            SetFlagCond::Ltu => a < b,
            SetFlagCond::Leu => a <= b,
            SetFlagCond::Gts => sa > sb,
            SetFlagCond::Ges => sa >= sb,
            SetFlagCond::Lts => sa < sb,
            SetFlagCond::Les => sa <= sb,
        }
    }

    /// Mnemonic suffix (`eq`, `ne`, `gtu`, ...).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            SetFlagCond::Eq => "eq",
            SetFlagCond::Ne => "ne",
            SetFlagCond::Gtu => "gtu",
            SetFlagCond::Geu => "geu",
            SetFlagCond::Ltu => "ltu",
            SetFlagCond::Leu => "leu",
            SetFlagCond::Gts => "gts",
            SetFlagCond::Ges => "ges",
            SetFlagCond::Lts => "lts",
            SetFlagCond::Les => "les",
        }
    }
}

/// Grouping of instructions used as the key of the per-stage delay lookup
/// table, mirroring the granularity of the paper's Tables I and II
/// (e.g. the row "l.add(i)" covers both `l.add` and `l.addi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TimingClass {
    /// `l.add`, `l.addi`, `l.addc`, `l.addic`, `l.sub` — adder paths.
    Add,
    /// `l.and`, `l.andi` — logic AND paths.
    And,
    /// `l.or`, `l.ori` — logic OR paths.
    Or,
    /// `l.xor`, `l.xori` — logic XOR paths.
    Xor,
    /// `l.cmov`, `l.extbs`, `l.exths`, `l.movhi` — short logic/move paths.
    Move,
    /// `l.sll(i)`, `l.srl(i)`, `l.sra(i)`, `l.ror(i)` — shifter paths.
    Shift,
    /// `l.mul`, `l.mulu`, `l.muli` — multiplier paths.
    Mul,
    /// `l.sf*`, `l.sf*i` — set-flag comparison paths.
    SetFlag,
    /// `l.lwz`, `l.lws`, `l.lhz`, `l.lhs`, `l.lbz`, `l.lbs` — load paths.
    Load,
    /// `l.sw`, `l.sh`, `l.sb` — store paths.
    Store,
    /// `l.bf`, `l.bnf` — conditional branch paths.
    BranchCond,
    /// `l.j`, `l.jal` — PC-relative jumps.
    Jump,
    /// `l.jr`, `l.jalr` — register-indirect jumps.
    JumpReg,
    /// `l.nop`.
    Nop,
    /// A pipeline bubble (no instruction in flight in the stage).
    Bubble,
}

impl TimingClass {
    /// All classes that correspond to real instructions (excludes
    /// [`TimingClass::Bubble`]).
    pub const INSTRUCTION_CLASSES: [TimingClass; 14] = [
        TimingClass::Add,
        TimingClass::And,
        TimingClass::Or,
        TimingClass::Xor,
        TimingClass::Move,
        TimingClass::Shift,
        TimingClass::Mul,
        TimingClass::SetFlag,
        TimingClass::Load,
        TimingClass::Store,
        TimingClass::BranchCond,
        TimingClass::Jump,
        TimingClass::JumpReg,
        TimingClass::Nop,
    ];

    /// All classes including the bubble pseudo-class.
    pub const ALL: [TimingClass; 15] = [
        TimingClass::Add,
        TimingClass::And,
        TimingClass::Or,
        TimingClass::Xor,
        TimingClass::Move,
        TimingClass::Shift,
        TimingClass::Mul,
        TimingClass::SetFlag,
        TimingClass::Load,
        TimingClass::Store,
        TimingClass::BranchCond,
        TimingClass::Jump,
        TimingClass::JumpReg,
        TimingClass::Nop,
        TimingClass::Bubble,
    ];

    /// A stable dense index, usable for array-backed lookup tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            TimingClass::Add => 0,
            TimingClass::And => 1,
            TimingClass::Or => 2,
            TimingClass::Xor => 3,
            TimingClass::Move => 4,
            TimingClass::Shift => 5,
            TimingClass::Mul => 6,
            TimingClass::SetFlag => 7,
            TimingClass::Load => 8,
            TimingClass::Store => 9,
            TimingClass::BranchCond => 10,
            TimingClass::Jump => 11,
            TimingClass::JumpReg => 12,
            TimingClass::Nop => 13,
            TimingClass::Bubble => 14,
        }
    }

    /// Number of distinct classes (length of [`TimingClass::ALL`]).
    pub const COUNT: usize = 15;

    /// The representative paper-style row label (e.g. `"l.add(i)"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TimingClass::Add => "l.add(i)",
            TimingClass::And => "l.and(i)",
            TimingClass::Or => "l.or(i)",
            TimingClass::Xor => "l.xor(i)",
            TimingClass::Move => "l.movhi/l.cmov",
            TimingClass::Shift => "l.sll(i)",
            TimingClass::Mul => "l.mul",
            TimingClass::SetFlag => "l.sf*",
            TimingClass::Load => "l.lwz",
            TimingClass::Store => "l.sw",
            TimingClass::BranchCond => "l.bf",
            TimingClass::Jump => "l.j",
            TimingClass::JumpReg => "l.jr",
            TimingClass::Nop => "l.nop",
            TimingClass::Bubble => "(bubble)",
        }
    }
}

impl fmt::Display for TimingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The data-path operation an instruction performs in the execute stage:
/// a dense, pre-classified mirror of the per-opcode semantics, read from
/// the instruction's table row.
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

/// Control-flow behaviour of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlKind {
    /// Straight-line instruction: never redirects fetch.
    None,
    /// The `l.nop 1` exit marker: sets the halting state in execute. No
    /// table row carries it; the pipeline derives it from the immediate.
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

/// Memory access of an instruction: load or store, width and sign.
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

impl Opcode {
    /// Returns the canonical ORBIS32 mnemonic, e.g. `"l.addi"`.
    #[must_use]
    pub fn mnemonic(self) -> String {
        let mnemonic = self.row().mnemonic;
        match self.cond() {
            Some(cond) => mnemonic.replace('*', cond.suffix()),
            None => mnemonic.to_string(),
        }
    }

    /// The delay-LUT grouping this opcode belongs to.
    #[must_use]
    pub fn timing_class(self) -> TimingClass {
        self.row().class
    }

    /// `true` for load instructions.
    #[must_use]
    pub fn is_load(self) -> bool {
        self.timing_class() == TimingClass::Load
    }

    /// `true` for store instructions.
    #[must_use]
    pub fn is_store(self) -> bool {
        self.timing_class() == TimingClass::Store
    }

    /// `true` for any memory-access instruction.
    #[must_use]
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// `true` if the instruction writes a destination register: its `rD`
    /// field, or the link register `r9` of `l.jal` / `l.jalr`.
    #[must_use]
    pub fn writes_rd(self) -> bool {
        let format = self.row().format;
        format.has_rd() || format.links()
    }

    /// `true` if the instruction reads source register `rA`.
    #[must_use]
    pub fn reads_ra(self) -> bool {
        self.row().format.has_ra()
    }

    /// `true` if the instruction reads source register `rB`.
    #[must_use]
    pub fn reads_rb(self) -> bool {
        self.row().format.has_rb()
    }

    /// `true` when the immediate, if the instruction has one, is the second
    /// data-path operand: the register-immediate, set-flag-immediate,
    /// `l.movhi` and load/store formats. The immediate of a jump, branch or
    /// `l.nop` is not an operand.
    #[must_use]
    pub fn imm_is_operand_b(self) -> bool {
        self.row().format.imm_is_operand_b()
    }

    /// The execute-stage data-path operation, with the set-flag condition
    /// filled in.
    #[must_use]
    pub fn alu_kind(self) -> AluKind {
        match (self.row().alu, self.cond()) {
            (AluKind::SetFlag(_), Some(cond)) => AluKind::SetFlag(cond),
            (alu, _) => alu,
        }
    }

    /// How the instruction steers control flow. Never [`CtlKind::Exit`]:
    /// whether an `l.nop` ends the simulation depends on its immediate.
    #[must_use]
    pub fn ctl_kind(self) -> CtlKind {
        self.row().ctl
    }

    /// The memory access the instruction performs.
    #[must_use]
    pub fn mem_kind(self) -> MemKind {
        self.row().mem
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_class_indices_are_dense_and_unique() {
        let mut seen = [false; TimingClass::COUNT];
        for class in TimingClass::ALL {
            let idx = class.index();
            assert!(idx < TimingClass::COUNT);
            assert!(!seen[idx], "duplicate index for {class:?}");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn table_rows_map_to_expected_classes() {
        // The rows of Table II in the paper.
        assert_eq!(Opcode::Add.timing_class(), TimingClass::Add);
        assert_eq!(Opcode::Addi.timing_class(), TimingClass::Add);
        assert_eq!(Opcode::And.timing_class(), TimingClass::And);
        assert_eq!(Opcode::Bf.timing_class(), TimingClass::BranchCond);
        assert_eq!(Opcode::J.timing_class(), TimingClass::Jump);
        assert_eq!(Opcode::Lwz.timing_class(), TimingClass::Load);
        assert_eq!(Opcode::Mul.timing_class(), TimingClass::Mul);
        assert_eq!(Opcode::Slli.timing_class(), TimingClass::Shift);
        assert_eq!(Opcode::Xor.timing_class(), TimingClass::Xor);
        assert_eq!(Opcode::Sw.timing_class(), TimingClass::Store);
        assert_eq!(Opcode::Nop.timing_class(), TimingClass::Nop);
    }

    #[test]
    fn set_flag_conditions_roundtrip_codes() {
        for cond in SetFlagCond::ALL {
            assert_eq!(SetFlagCond::from_code(cond.code()), Some(cond));
        }
        assert_eq!(SetFlagCond::from_code(0x7), None);
    }

    #[test]
    fn set_flag_eval_signed_vs_unsigned() {
        let a = 0xFFFF_FFFF; // -1 signed, max unsigned
        let b = 1;
        assert!(SetFlagCond::Gtu.eval(a, b));
        assert!(!SetFlagCond::Gts.eval(a, b));
        assert!(SetFlagCond::Lts.eval(a, b));
        assert!(SetFlagCond::Ne.eval(a, b));
        assert!(SetFlagCond::Eq.eval(5, 5));
        assert!(SetFlagCond::Leu.eval(5, 5));
        assert!(SetFlagCond::Ges.eval(5, 5));
    }

    #[test]
    fn register_usage_flags_are_consistent() {
        assert!(Opcode::Add.writes_rd());
        assert!(Opcode::Add.reads_ra());
        assert!(Opcode::Add.reads_rb());
        assert!(!Opcode::Addi.reads_rb());
        assert!(!Opcode::Sw.writes_rd());
        assert!(Opcode::Sw.reads_rb());
        assert!(Opcode::Jal.writes_rd());
        assert!(!Opcode::Bf.reads_ra());
        assert!(!Opcode::Nop.writes_rd());
    }

    #[test]
    fn mnemonics_follow_openrisc_convention() {
        assert_eq!(Opcode::Addi.mnemonic(), "l.addi");
        assert_eq!(Opcode::Sf(SetFlagCond::Gtu).mnemonic(), "l.sfgtu");
        assert_eq!(Opcode::Sfi(SetFlagCond::Les).mnemonic(), "l.sflesi");
        assert_eq!(Opcode::Movhi.to_string(), "l.movhi");
    }
}
