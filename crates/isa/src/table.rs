//! The instruction table: one row per [`Opcode`] variant, in declaration
//! order. Encoding, decoding, immediate range checks, the assembler, the
//! disassembler, the per-opcode predicates and the pipeline's dispatch tags
//! all read these rows, so an instruction is added or changed in exactly
//! one place.

use crate::{AluKind, CtlKind, Insn, IsaError, MemKind, Opcode, Reg, SetFlagCond, TimingClass};
use std::collections::HashMap;
use std::sync::OnceLock;
use AluKind as A;
use CtlKind as F;
use Format::{Ab, Ai, BLink, Bare, Da, Dab, Dai, Dk, Load, Pc, PcLink, Store, B, K};
use Imm::{S16Split, S16, S26, U16, U5};
use MemKind as M;
use Opcode as O;
use SetFlagCond as C;
use TimingClass as T;

/// Where an immediate sits in the instruction word and which values it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Imm {
    /// Signed 16 bits in 15..0.
    S16,
    /// Unsigned 16 bits in 15..0.
    U16,
    /// A shift amount below 32. Decoding reads bits 5..0, so a word with
    /// bit 5 set is out of range rather than unknown.
    U5,
    /// Signed 16 bits split as 25..21 : 10..0 around the rB field (stores).
    S16Split,
    /// Signed 26-bit word offset in 25..0.
    S26,
}

/// The operand format: which of rD (bits 25..21), rA (20..16), rB (15..11)
/// and the immediate exist, and how assembly text spells them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// `rD, rA, rB`
    Dab,
    /// `rD, rA`
    Da,
    /// `rD, rA, I`
    Dai(Imm),
    /// `rD, K`, with `K` printed in hex.
    Dk(Imm),
    /// `rA, rB`
    Ab,
    /// `rA, I`
    Ai(Imm),
    /// `rD, I(rA)`
    Load(Imm),
    /// `I(rA), rB`
    Store(Imm),
    /// `N`: a word offset from the instruction, or a label.
    Pc(Imm),
    /// `N`, and the jump writes the link register `r9`.
    PcLink(Imm),
    /// `rB`
    B,
    /// `rB`, and the jump writes the link register `r9`.
    BLink,
    /// `K`, which the assembler lets the source omit (it defaults to 0).
    K(Imm),
    /// No operands.
    Bare,
}

/// One instruction: its mnemonic, encoding, operand format, delay-LUT
/// class and pipeline dispatch tags. A word is this instruction when
/// `(word ^ bits) & mask == 0`; `bits` may also set bits outside `mask`
/// that encoding always emits and decoding ignores (bit 24 of `l.nop`).
#[derive(Debug)]
pub(crate) struct Row {
    pub(crate) opcode: Opcode,
    /// The mnemonic; on the set-flag rows `*` stands for the condition.
    pub(crate) mnemonic: &'static str,
    pub(crate) bits: u32,
    pub(crate) mask: u32,
    pub(crate) format: Format,
    pub(crate) class: TimingClass,
    pub(crate) alu: AluKind,
    pub(crate) ctl: CtlKind,
    pub(crate) mem: MemKind,
}

#[allow(clippy::too_many_arguments)]
const fn row(
    opcode: Opcode,
    mnemonic: &'static str,
    bits: u32,
    mask: u32,
    format: Format,
    class: TimingClass,
    alu: AluKind,
    ctl: CtlKind,
    mem: MemKind,
) -> Row {
    Row {
        opcode,
        mnemonic,
        bits,
        mask,
        format,
        class,
        alu,
        ctl,
        mem,
    }
}

/// Bits 31..26 hold the major opcode. The two set-flag rows stand for all
/// ten conditions (`Eq` is a placeholder, in the opcode and the data-path
/// column alike): the condition is an operand field in bits 25..21, and its
/// codes and suffixes live in [`SetFlagCond`].
///
/// The last three columns are the dispatch tags: the data-path operation
/// (`A`), the control-flow kind (`F`) and the memory access (`M`).
#[rustfmt::skip]
pub(crate) static TABLE: [Row; 45] = [
    //  opcode         mnemonic   bits         mask         format           class          data path             control flow                memory access
    row(O::Add,        "l.add",   0xE000_0000, 0xFC00_030F, Dab,             T::Add,        A::Add,               F::None,                    M::None),
    row(O::Addc,       "l.addc",  0xE000_0001, 0xFC00_030F, Dab,             T::Add,        A::AddCarry,          F::None,                    M::None),
    row(O::Sub,        "l.sub",   0xE000_0002, 0xFC00_030F, Dab,             T::Add,        A::Sub,               F::None,                    M::None),
    row(O::And,        "l.and",   0xE000_0003, 0xFC00_030F, Dab,             T::And,        A::And,               F::None,                    M::None),
    row(O::Or,         "l.or",    0xE000_0004, 0xFC00_030F, Dab,             T::Or,         A::Or,                F::None,                    M::None),
    row(O::Xor,        "l.xor",   0xE000_0005, 0xFC00_030F, Dab,             T::Xor,        A::Xor,               F::None,                    M::None),
    row(O::Mul,        "l.mul",   0xE000_0306, 0xFC00_030F, Dab,             T::Mul,        A::MulSigned,         F::None,                    M::None),
    row(O::Mulu,       "l.mulu",  0xE000_030B, 0xFC00_030F, Dab,             T::Mul,        A::MulUnsigned,       F::None,                    M::None),
    row(O::Sll,        "l.sll",   0xE000_0008, 0xFC00_03CF, Dab,             T::Shift,      A::ShiftLeft,         F::None,                    M::None),
    row(O::Srl,        "l.srl",   0xE000_0048, 0xFC00_03CF, Dab,             T::Shift,      A::ShiftRightLogical, F::None,                    M::None),
    row(O::Sra,        "l.sra",   0xE000_0088, 0xFC00_03CF, Dab,             T::Shift,      A::ShiftRightArith,   F::None,                    M::None),
    row(O::Ror,        "l.ror",   0xE000_00C8, 0xFC00_03CF, Dab,             T::Shift,      A::RotateRight,       F::None,                    M::None),
    row(O::Cmov,       "l.cmov",  0xE000_000E, 0xFC00_030F, Dab,             T::Move,       A::Cmov,              F::None,                    M::None),
    row(O::Extbs,      "l.extbs", 0xE000_004C, 0xFC00_03CF, Da,              T::Move,       A::ExtendByte,        F::None,                    M::None),
    row(O::Exths,      "l.exths", 0xE000_000C, 0xFC00_03CF, Da,              T::Move,       A::ExtendHalf,        F::None,                    M::None),
    row(O::Addi,       "l.addi",  0x9C00_0000, 0xFC00_0000, Dai(S16),        T::Add,        A::Add,               F::None,                    M::None),
    row(O::Addic,      "l.addic", 0xA000_0000, 0xFC00_0000, Dai(S16),        T::Add,        A::AddCarry,          F::None,                    M::None),
    row(O::Andi,       "l.andi",  0xA400_0000, 0xFC00_0000, Dai(U16),        T::And,        A::And,               F::None,                    M::None),
    row(O::Ori,        "l.ori",   0xA800_0000, 0xFC00_0000, Dai(U16),        T::Or,         A::Or,                F::None,                    M::None),
    row(O::Xori,       "l.xori",  0xAC00_0000, 0xFC00_0000, Dai(S16),        T::Xor,        A::Xor,               F::None,                    M::None),
    row(O::Muli,       "l.muli",  0xB000_0000, 0xFC00_0000, Dai(S16),        T::Mul,        A::MulSigned,         F::None,                    M::None),
    row(O::Slli,       "l.slli",  0xB800_0000, 0xFC00_00C0, Dai(U5),         T::Shift,      A::ShiftLeft,         F::None,                    M::None),
    row(O::Srli,       "l.srli",  0xB800_0040, 0xFC00_00C0, Dai(U5),         T::Shift,      A::ShiftRightLogical, F::None,                    M::None),
    row(O::Srai,       "l.srai",  0xB800_0080, 0xFC00_00C0, Dai(U5),         T::Shift,      A::ShiftRightArith,   F::None,                    M::None),
    row(O::Rori,       "l.rori",  0xB800_00C0, 0xFC00_00C0, Dai(U5),         T::Shift,      A::RotateRight,       F::None,                    M::None),
    row(O::Movhi,      "l.movhi", 0x1800_0000, 0xFC00_0000, Dk(U16),         T::Move,       A::MoveHigh,          F::None,                    M::None),
    row(O::Sf(C::Eq),  "l.sf*",   0xE400_0000, 0xFC00_0000, Ab,              T::SetFlag,    A::SetFlag(C::Eq),    F::None,                    M::None),
    row(O::Sfi(C::Eq), "l.sf*i",  0xBC00_0000, 0xFC00_0000, Ai(S16),         T::SetFlag,    A::SetFlag(C::Eq),    F::None,                    M::None),
    row(O::Lwz,        "l.lwz",   0x8400_0000, 0xFC00_0000, Load(S16),       T::Load,       A::MemAddr,           F::None,                    M::LoadWord),
    row(O::Lws,        "l.lws",   0x8800_0000, 0xFC00_0000, Load(S16),       T::Load,       A::MemAddr,           F::None,                    M::LoadWord),
    row(O::Lhz,        "l.lhz",   0x9400_0000, 0xFC00_0000, Load(S16),       T::Load,       A::MemAddr,           F::None,                    M::LoadHalf { signed: false }),
    row(O::Lhs,        "l.lhs",   0x9800_0000, 0xFC00_0000, Load(S16),       T::Load,       A::MemAddr,           F::None,                    M::LoadHalf { signed: true }),
    row(O::Lbz,        "l.lbz",   0x8C00_0000, 0xFC00_0000, Load(S16),       T::Load,       A::MemAddr,           F::None,                    M::LoadByte { signed: false }),
    row(O::Lbs,        "l.lbs",   0x9000_0000, 0xFC00_0000, Load(S16),       T::Load,       A::MemAddr,           F::None,                    M::LoadByte { signed: true }),
    row(O::Sw,         "l.sw",    0xD400_0000, 0xFC00_0000, Store(S16Split), T::Store,      A::MemAddr,           F::None,                    M::StoreWord),
    row(O::Sh,         "l.sh",    0xDC00_0000, 0xFC00_0000, Store(S16Split), T::Store,      A::MemAddr,           F::None,                    M::StoreHalf),
    row(O::Sb,         "l.sb",    0xD800_0000, 0xFC00_0000, Store(S16Split), T::Store,      A::MemAddr,           F::None,                    M::StoreByte),
    row(O::J,          "l.j",     0x0000_0000, 0xFC00_0000, Pc(S26),         T::Jump,       A::None,              F::Jump { link: false },    M::None),
    row(O::Jal,        "l.jal",   0x0400_0000, 0xFC00_0000, PcLink(S26),     T::Jump,       A::None,              F::Jump { link: true },     M::None),
    row(O::Jr,         "l.jr",    0x4400_0000, 0xFC00_0000, B,               T::JumpReg,    A::None,              F::JumpReg { link: false }, M::None),
    row(O::Jalr,       "l.jalr",  0x4800_0000, 0xFC00_0000, BLink,           T::JumpReg,    A::None,              F::JumpReg { link: true },  M::None),
    row(O::Bf,         "l.bf",    0x1000_0000, 0xFC00_0000, Pc(S26),         T::BranchCond, A::None,              F::BranchIfFlag,            M::None),
    row(O::Bnf,        "l.bnf",   0x0C00_0000, 0xFC00_0000, Pc(S26),         T::BranchCond, A::None,              F::BranchIfNotFlag,         M::None),
    row(O::Rfe,        "l.rfe",   0x2400_0000, 0xFFFF_FFFF, Bare,            T::JumpReg,    A::None,              F::Rfe,                     M::None),
    row(O::Nop,        "l.nop",   0x1500_0000, 0xFC00_0000, K(U16),          T::Nop,        A::None,              F::None,                    M::None),
];

impl Row {
    /// The opcodes this row stands for: one, or each condition of a
    /// set-flag row.
    fn opcodes(&self) -> Vec<Opcode> {
        match self.opcode.cond() {
            Some(_) => C::ALL.map(|cond| self.opcode.with_cond(cond)).to_vec(),
            None => vec![self.opcode],
        }
    }
}

impl Insn {
    /// Every instruction of the table at its field extremes: each row with
    /// each set-flag condition, r0 and r31 in every register field the row
    /// has, and the immediate at its minimum, -1, 0, 1 and maximum where
    /// these are in range. A deterministic input set that reaches every
    /// row, for checking what reads the table.
    #[must_use]
    pub fn field_extremes() -> Vec<Insn> {
        let regs = |present: bool| {
            if present {
                vec![Some(Reg::r(0)), Some(Reg::r(31))]
            } else {
                vec![None]
            }
        };
        let mut insns = Vec::new();
        for row in &TABLE {
            let format = row.format;
            let imms: Vec<Option<i64>> = match format.imm() {
                Some(kind) => {
                    let (min, max) = kind.range();
                    let mut imms = vec![min, -1, 0, 1, max];
                    imms.retain(|imm| (min..=max).contains(imm));
                    imms.dedup();
                    imms.into_iter().map(Some).collect()
                }
                None => vec![None],
            };
            for opcode in row.opcodes() {
                for rd in regs(format.has_rd()) {
                    for ra in regs(format.has_ra()) {
                        for rb in regs(format.has_rb()) {
                            for &imm in &imms {
                                let insn = Insn::from_fields(opcode, rd, ra, rb, imm);
                                insns.push(insn.expect("extremes are in range"));
                            }
                        }
                    }
                }
            }
        }
        insns
    }
}

impl Opcode {
    /// This opcode's row. Every arm is the variant's declaration position,
    /// so the match compiles to the enum tag and the lookup to one load.
    pub(crate) fn row(self) -> &'static Row {
        let index = match self {
            O::Add => 0,
            O::Addc => 1,
            O::Sub => 2,
            O::And => 3,
            O::Or => 4,
            O::Xor => 5,
            O::Mul => 6,
            O::Mulu => 7,
            O::Sll => 8,
            O::Srl => 9,
            O::Sra => 10,
            O::Ror => 11,
            O::Cmov => 12,
            O::Extbs => 13,
            O::Exths => 14,
            O::Addi => 15,
            O::Addic => 16,
            O::Andi => 17,
            O::Ori => 18,
            O::Xori => 19,
            O::Muli => 20,
            O::Slli => 21,
            O::Srli => 22,
            O::Srai => 23,
            O::Rori => 24,
            O::Movhi => 25,
            O::Sf(_) => 26,
            O::Sfi(_) => 27,
            O::Lwz => 28,
            O::Lws => 29,
            O::Lhz => 30,
            O::Lhs => 31,
            O::Lbz => 32,
            O::Lbs => 33,
            O::Sw => 34,
            O::Sh => 35,
            O::Sb => 36,
            O::J => 37,
            O::Jal => 38,
            O::Jr => 39,
            O::Jalr => 40,
            O::Bf => 41,
            O::Bnf => 42,
            O::Rfe => 43,
            O::Nop => 44,
        };
        &TABLE[index]
    }

    /// The condition of a set-flag opcode.
    pub(crate) fn cond(self) -> Option<SetFlagCond> {
        match self {
            O::Sf(cond) | O::Sfi(cond) => Some(cond),
            _ => None,
        }
    }

    /// The same set-flag row with `cond` filled in; other opcodes unchanged.
    fn with_cond(self, cond: SetFlagCond) -> Opcode {
        match self {
            O::Sf(_) => O::Sf(cond),
            O::Sfi(_) => O::Sfi(cond),
            other => other,
        }
    }

    /// The opcode a (lower-case) mnemonic names, if any: the inverse of
    /// [`Opcode::mnemonic`] over every row and set-flag condition.
    pub(crate) fn from_mnemonic(mnemonic: &str) -> Option<Opcode> {
        static BY_MNEMONIC: OnceLock<HashMap<String, Opcode>> = OnceLock::new();
        BY_MNEMONIC
            .get_or_init(|| {
                let opcodes = TABLE.iter().flat_map(Row::opcodes);
                opcodes.map(|opcode| (opcode.mnemonic(), opcode)).collect()
            })
            .get(mnemonic)
            .copied()
    }

    /// The opcode of an instruction word: the row that accepts it, with the
    /// set-flag condition read from bits 25..21.
    pub(crate) fn of_word(word: u32) -> Option<Opcode> {
        let row = TABLE.iter().find(|row| (word ^ row.bits) & row.mask == 0)?;
        if row.opcode.cond().is_none() {
            return Some(row.opcode);
        }
        SetFlagCond::from_code((word >> 21) & 0x1F).map(|cond| row.opcode.with_cond(cond))
    }
}

impl Format {
    /// Whether the immediate is the second data-path operand (see
    /// [`Opcode::imm_is_operand_b`]).
    pub(crate) fn imm_is_operand_b(self) -> bool {
        matches!(self, Dai(_) | Dk(_) | Ai(_) | Load(_) | Store(_))
    }

    pub(crate) fn has_rd(self) -> bool {
        matches!(self, Dab | Da | Dai(_) | Dk(_) | Load(_))
    }

    pub(crate) fn has_ra(self) -> bool {
        matches!(self, Dab | Da | Dai(_) | Ab | Ai(_) | Load(_) | Store(_))
    }

    pub(crate) fn has_rb(self) -> bool {
        matches!(self, Dab | Ab | Store(_) | B | BLink)
    }

    /// Whether the instruction writes the link register `r9`.
    pub(crate) fn links(self) -> bool {
        matches!(self, PcLink(_) | BLink)
    }

    pub(crate) fn imm(self) -> Option<Imm> {
        match self {
            Dai(imm) | Dk(imm) | Ai(imm) | Load(imm) | Store(imm) | Pc(imm) | PcLink(imm)
            | K(imm) => Some(imm),
            Dab | Da | Ab | B | BLink | Bare => None,
        }
    }

    /// Number of comma-separated operands in assembly text.
    pub(crate) fn arity(self) -> usize {
        match self {
            Dab | Dai(_) => 3,
            Da | Dk(_) | Ab | Ai(_) | Load(_) | Store(_) => 2,
            Pc(_) | PcLink(_) | B | BLink | K(_) => 1,
            Bare => 0,
        }
    }
}

impl Imm {
    /// Field width in bits and signedness, as range checks report them.
    pub(crate) fn width(self) -> (u32, bool) {
        match self {
            S16 | S16Split => (16, true),
            U16 => (16, false),
            U5 => (5, false),
            S26 => (26, true),
        }
    }

    /// The smallest and largest value the field takes.
    pub(crate) fn range(self) -> (i64, i64) {
        match self.width() {
            (bits, true) => (-(1 << (bits - 1)), (1 << (bits - 1)) - 1),
            (bits, false) => (0, (1 << bits) - 1),
        }
    }

    /// Accepts `value` if it fits, naming `mnemonic` otherwise.
    pub(crate) fn check(self, mnemonic: &'static str, value: i64) -> Result<i32, IsaError> {
        let (bits, signed) = self.width();
        let (min, max) = self.range();
        if (min..=max).contains(&value) {
            Ok(value as i32)
        } else {
            Err(IsaError::ImmediateOutOfRange {
                mnemonic,
                value,
                bits,
                signed,
            })
        }
    }

    /// The word bits of an in-range `value`.
    pub(crate) fn place(self, value: i32) -> u32 {
        let v = value as u32;
        match self {
            S16 | U16 => v & 0xFFFF,
            U5 => v & 0x3F,
            S16Split => (((v >> 11) & 0x1F) << 21) | (v & 0x7FF),
            S26 => v & 0x03FF_FFFF,
        }
    }

    /// The field's value in `word`, sign-extended when signed. It is not
    /// range-checked: a `U5` field can read 32..63.
    pub(crate) fn extract(self, word: u32) -> i64 {
        let sext =
            |field: u32, bits: u32| i64::from(((field << (32 - bits)) as i32) >> (32 - bits));
        match self {
            S16 => sext(word & 0xFFFF, 16),
            U16 => i64::from(word & 0xFFFF),
            U5 => i64::from(word & 0x3F),
            S16Split => sext((((word >> 21) & 0x1F) << 11) | (word & 0x7FF), 16),
            S26 => sext(word & 0x03FF_FFFF, 26),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::disasm::format_insn;

    #[test]
    fn each_row_is_its_opcodes_row_and_no_two_rows_share_a_word() {
        for (i, row) in TABLE.iter().enumerate() {
            assert!(
                std::ptr::eq(row.opcode.row(), row),
                "row {i} ({}) is not the row its opcode indexes",
                row.mnemonic
            );
            for other in &TABLE[i + 1..] {
                assert_ne!(
                    (row.bits ^ other.bits) & row.mask & other.mask,
                    0,
                    "{} and {} accept a common word",
                    row.mnemonic,
                    other.mnemonic
                );
            }
        }
    }

    /// The typed constructor of `opcode`, given every field it might take.
    fn typed(opcode: Opcode, d: Reg, a: Reg, b: Reg, imm: i64) -> Result<Insn, IsaError> {
        let (s, u) = (imm as i32, imm as u32);
        match opcode {
            O::Add => Ok(Insn::add(d, a, b)),
            O::Addc => Ok(Insn::addc(d, a, b)),
            O::Sub => Ok(Insn::sub(d, a, b)),
            O::And => Ok(Insn::and(d, a, b)),
            O::Or => Ok(Insn::or(d, a, b)),
            O::Xor => Ok(Insn::xor(d, a, b)),
            O::Mul => Ok(Insn::mul(d, a, b)),
            O::Mulu => Ok(Insn::mulu(d, a, b)),
            O::Sll => Ok(Insn::sll(d, a, b)),
            O::Srl => Ok(Insn::srl(d, a, b)),
            O::Sra => Ok(Insn::sra(d, a, b)),
            O::Ror => Ok(Insn::ror(d, a, b)),
            O::Cmov => Ok(Insn::cmov(d, a, b)),
            O::Extbs => Ok(Insn::extbs(d, a)),
            O::Exths => Ok(Insn::exths(d, a)),
            O::Addi => Insn::addi(d, a, s),
            O::Addic => Insn::addic(d, a, s),
            O::Andi => Insn::andi(d, a, u),
            O::Ori => Insn::ori(d, a, u),
            O::Xori => Insn::xori(d, a, s),
            O::Muli => Insn::muli(d, a, s),
            O::Slli => Insn::slli(d, a, u),
            O::Srli => Insn::srli(d, a, u),
            O::Srai => Insn::srai(d, a, u),
            O::Rori => Insn::rori(d, a, u),
            O::Movhi => Insn::movhi(d, u),
            O::Sf(cond) => Ok(Insn::sf(cond, a, b)),
            O::Sfi(cond) => Insn::sfi(cond, a, s),
            O::Lwz => Insn::lwz(d, s, a),
            O::Lws => Insn::lws(d, s, a),
            O::Lhz => Insn::lhz(d, s, a),
            O::Lhs => Insn::lhs(d, s, a),
            O::Lbz => Insn::lbz(d, s, a),
            O::Lbs => Insn::lbs(d, s, a),
            O::Sw => Insn::sw(s, a, b),
            O::Sh => Insn::sh(s, a, b),
            O::Sb => Insn::sb(s, a, b),
            O::J => Insn::j(s),
            O::Jal => Insn::jal(s),
            O::Jr => Ok(Insn::jr(b)),
            O::Jalr => Ok(Insn::jalr(b)),
            O::Bf => Insn::bf(s),
            O::Bnf => Insn::bnf(s),
            O::Rfe => Ok(Insn::rfe()),
            O::Nop => Ok(Insn::nop(u16::try_from(imm).expect("l.nop takes a u16"))),
        }
    }

    /// Every row, every set-flag condition, registers r0 and r31 in each
    /// field and immediates at min, -1, 0, 1 and max
    /// ([`Insn::field_extremes`]): the typed constructor, `encode`,
    /// `decode`, `format_insn` and the assembler agree, the constructor
    /// rejects one past either end of the range, and the mnemonic is the
    /// opcode's own name.
    #[test]
    fn every_row_round_trips_at_its_field_extremes() {
        let insns = Insn::field_extremes();
        for row in &TABLE {
            for opcode in row.opcodes() {
                let name = match opcode.cond() {
                    Some(cond) => {
                        let form = if matches!(opcode, O::Sfi(_)) { "i" } else { "" };
                        format!("l.sf{}{form}", cond.suffix())
                    }
                    None => format!("l.{opcode:?}").to_lowercase(),
                };
                assert_eq!(opcode.mnemonic(), name);
                assert_eq!(Opcode::from_mnemonic(&name), Some(opcode));
                assert!(insns.iter().any(|insn| insn.opcode() == opcode), "{name}");
            }
        }
        for insn in insns {
            let opcode = insn.opcode();
            let row = opcode.row();
            let field = |reg: Option<Reg>| reg.unwrap_or(Reg::r(0));
            let (d, a, b) = (field(insn.rd()), field(insn.ra()), field(insn.rb()));
            let imm = insn.imm().map_or(0, i64::from);
            assert_eq!(typed(opcode, d, a, b, imm), Ok(insn));
            let word = insn.encode();
            assert_eq!((word ^ row.bits) & row.mask, 0, "{insn} left its row");
            assert_eq!(Insn::decode(word), Ok(insn), "{insn} = {word:#010x}");
            let text = format_insn(&insn);
            let program = Assembler::new().assemble(&text).unwrap();
            assert_eq!(program.insns(), &[insn], "`{text}`");
            if let Some(kind) = row.format.imm().filter(|_| opcode != O::Nop) {
                let (min, max) = kind.range();
                for imm in [min - 1, max + 1] {
                    match typed(opcode, d, a, b, imm) {
                        Err(IsaError::ImmediateOutOfRange { mnemonic, .. }) => {
                            assert_eq!(mnemonic, row.mnemonic);
                        }
                        other => panic!("{opcode} accepted {imm}: {other:?}"),
                    }
                }
            }
        }
    }
}
