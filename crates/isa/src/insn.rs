use crate::{IsaError, Opcode, Reg, SetFlagCond, TimingClass};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Operand bundle of a decoded instruction.
///
/// Not every field is meaningful for every [`Opcode`]; the accessors on
/// [`Insn`] (such as [`Insn::rd`]) return `None` when the operand does not
/// exist for the instruction format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operands {
    /// Destination register, when present.
    pub rd: Option<Reg>,
    /// First source register, when present.
    pub ra: Option<Reg>,
    /// Second source register, when present.
    pub rb: Option<Reg>,
    /// Immediate operand. For branches/jumps this is the *word* offset
    /// relative to the instruction itself (as in the ORBIS32 encoding).
    pub imm: Option<i32>,
}

/// A single decoded ORBIS32 instruction.
///
/// An `Insn` pairs an [`Opcode`] with its operands and provides the
/// bidirectional mapping to the 32-bit machine encoding.
///
/// # Example
///
/// ```
/// use idca_isa::{Insn, Opcode, Reg};
///
/// # fn main() -> Result<(), idca_isa::IsaError> {
/// let insn = Insn::addi(Reg::r(3), Reg::r(0), 42)?;
/// let word = insn.encode();
/// assert_eq!(Insn::decode(word)?, insn);
/// assert_eq!(insn.opcode(), Opcode::Addi);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Insn {
    opcode: Opcode,
    operands: Operands,
}

impl Insn {
    /// Builds `opcode` from exactly the fields its row has, range-checking
    /// the immediate against the row. The decoder, the assembler,
    /// `ProgramBuilder::push_branch_to` and every typed constructor with an
    /// immediate come through here, so every `Insn` satisfies its row.
    pub(crate) fn from_fields(
        opcode: Opcode,
        rd: Option<Reg>,
        ra: Option<Reg>,
        rb: Option<Reg>,
        imm: Option<i64>,
    ) -> Result<Self, IsaError> {
        let row = opcode.row();
        let imm = match (row.format.imm(), imm) {
            (Some(kind), Some(value)) => Some(kind.check(row.mnemonic, value)?),
            _ => None,
        };
        Ok(Self::raw(opcode, rd, ra, rb, imm))
    }

    fn raw(
        opcode: Opcode,
        rd: Option<Reg>,
        ra: Option<Reg>,
        rb: Option<Reg>,
        imm: Option<i32>,
    ) -> Self {
        let format = opcode.row().format;
        debug_assert_eq!(
            [rd.is_some(), ra.is_some(), rb.is_some(), imm.is_some()],
            [
                format.has_rd(),
                format.has_ra(),
                format.has_rb(),
                format.imm().is_some()
            ],
            "operands do not match the {opcode} row"
        );
        Insn {
            opcode,
            operands: Operands { rd, ra, rb, imm },
        }
    }

    /// The opcode of this instruction.
    #[must_use]
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// The timing class (delay-LUT key) of this instruction.
    #[must_use]
    pub fn timing_class(&self) -> TimingClass {
        self.opcode.timing_class()
    }

    /// The raw operand bundle.
    #[must_use]
    pub fn operands(&self) -> Operands {
        self.operands
    }

    /// Destination register, if the format has one.
    #[must_use]
    pub fn rd(&self) -> Option<Reg> {
        self.operands.rd
    }

    /// First source register, if the format has one.
    #[must_use]
    pub fn ra(&self) -> Option<Reg> {
        self.operands.ra
    }

    /// Second source register, if the format has one.
    #[must_use]
    pub fn rb(&self) -> Option<Reg> {
        self.operands.rb
    }

    /// Immediate operand, if the format has one.
    #[must_use]
    pub fn imm(&self) -> Option<i32> {
        self.operands.imm
    }

    /// The two source-register ports `(rA, rB)` exactly as the forwarding
    /// network sees them: the raw operand fields, independent of whether the
    /// opcode architecturally reads them. Stable accessor for predecode
    /// lowering (one call instead of two `Option` probes per cycle).
    #[must_use]
    pub fn source_regs(&self) -> (Option<Reg>, Option<Reg>) {
        (self.operands.ra, self.operands.rb)
    }

    /// The *effective* architectural destination register: the `rD` field
    /// when [`Opcode::writes_rd`] holds, `None` otherwise. Link-register
    /// writes of `l.jal` / `l.jalr` are a property of the jump itself, not
    /// of this field.
    #[must_use]
    pub fn dest_reg(&self) -> Option<Reg> {
        if self.opcode.writes_rd() {
            self.operands.rd
        } else {
            None
        }
    }

    // ---------------------------------------------------------------------
    // Typed constructors (register-register ALU)
    // ---------------------------------------------------------------------

    fn rrr(opcode: Opcode, rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::raw(opcode, Some(rd), Some(ra), Some(rb), None)
    }

    fn rri(opcode: Opcode, rd: Reg, ra: Reg, imm: i64) -> Result<Self, IsaError> {
        Self::from_fields(opcode, Some(rd), Some(ra), None, Some(imm))
    }

    /// `l.add rD, rA, rB`
    #[must_use]
    pub fn add(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Add, rd, ra, rb)
    }

    /// `l.addc rD, rA, rB`
    #[must_use]
    pub fn addc(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Addc, rd, ra, rb)
    }

    /// `l.sub rD, rA, rB`
    #[must_use]
    pub fn sub(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Sub, rd, ra, rb)
    }

    /// `l.and rD, rA, rB`
    #[must_use]
    pub fn and(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::And, rd, ra, rb)
    }

    /// `l.or rD, rA, rB`
    #[must_use]
    pub fn or(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Or, rd, ra, rb)
    }

    /// `l.xor rD, rA, rB`
    #[must_use]
    pub fn xor(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Xor, rd, ra, rb)
    }

    /// `l.mul rD, rA, rB`
    #[must_use]
    pub fn mul(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Mul, rd, ra, rb)
    }

    /// `l.mulu rD, rA, rB`
    #[must_use]
    pub fn mulu(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Mulu, rd, ra, rb)
    }

    /// `l.sll rD, rA, rB`
    #[must_use]
    pub fn sll(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Sll, rd, ra, rb)
    }

    /// `l.srl rD, rA, rB`
    #[must_use]
    pub fn srl(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Srl, rd, ra, rb)
    }

    /// `l.sra rD, rA, rB`
    #[must_use]
    pub fn sra(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Sra, rd, ra, rb)
    }

    /// `l.ror rD, rA, rB`
    #[must_use]
    pub fn ror(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Ror, rd, ra, rb)
    }

    /// `l.cmov rD, rA, rB` — `rD = flag ? rA : rB`.
    #[must_use]
    pub fn cmov(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Cmov, rd, ra, rb)
    }

    /// `l.extbs rD, rA`
    #[must_use]
    pub fn extbs(rd: Reg, ra: Reg) -> Self {
        Self::raw(Opcode::Extbs, Some(rd), Some(ra), None, None)
    }

    /// `l.exths rD, rA`
    #[must_use]
    pub fn exths(rd: Reg, ra: Reg) -> Self {
        Self::raw(Opcode::Exths, Some(rd), Some(ra), None, None)
    }

    // ---------------------------------------------------------------------
    // Typed constructors (immediate ALU)
    // ---------------------------------------------------------------------

    /// `l.addi rD, rA, I` with a signed 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn addi(rd: Reg, ra: Reg, imm: i32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Addi, rd, ra, imm.into())
    }

    /// `l.addic rD, rA, I` (add immediate with carry-in).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn addic(rd: Reg, ra: Reg, imm: i32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Addic, rd, ra, imm.into())
    }

    /// `l.andi rD, rA, K` with an unsigned 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn andi(rd: Reg, ra: Reg, imm: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Andi, rd, ra, imm.into())
    }

    /// `l.ori rD, rA, K` with an unsigned 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn ori(rd: Reg, ra: Reg, imm: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Ori, rd, ra, imm.into())
    }

    /// `l.xori rD, rA, I` with a signed 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn xori(rd: Reg, ra: Reg, imm: i32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Xori, rd, ra, imm.into())
    }

    /// `l.muli rD, rA, I` with a signed 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn muli(rd: Reg, ra: Reg, imm: i32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Muli, rd, ra, imm.into())
    }

    /// `l.slli rD, rA, L` with a shift amount in `0..32`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `amount >= 32`.
    pub fn slli(rd: Reg, ra: Reg, amount: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Slli, rd, ra, amount.into())
    }

    /// `l.srli rD, rA, L` with a shift amount in `0..32`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `amount >= 32`.
    pub fn srli(rd: Reg, ra: Reg, amount: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Srli, rd, ra, amount.into())
    }

    /// `l.srai rD, rA, L` with a shift amount in `0..32`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `amount >= 32`.
    pub fn srai(rd: Reg, ra: Reg, amount: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Srai, rd, ra, amount.into())
    }

    /// `l.rori rD, rA, L` with a rotate amount in `0..32`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `amount >= 32`.
    pub fn rori(rd: Reg, ra: Reg, amount: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Rori, rd, ra, amount.into())
    }

    /// `l.movhi rD, K` with an unsigned 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn movhi(rd: Reg, imm: u32) -> Result<Self, IsaError> {
        Self::from_fields(Opcode::Movhi, Some(rd), None, None, Some(imm.into()))
    }

    // ---------------------------------------------------------------------
    // Set-flag comparisons
    // ---------------------------------------------------------------------

    /// `l.sf<cond> rA, rB`
    #[must_use]
    pub fn sf(cond: SetFlagCond, ra: Reg, rb: Reg) -> Self {
        Self::raw(Opcode::Sf(cond), None, Some(ra), Some(rb), None)
    }

    /// `l.sf<cond>i rA, I` with a signed 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn sfi(cond: SetFlagCond, ra: Reg, imm: i32) -> Result<Self, IsaError> {
        Self::from_fields(Opcode::Sfi(cond), None, Some(ra), None, Some(imm.into()))
    }

    // ---------------------------------------------------------------------
    // Loads / stores
    // ---------------------------------------------------------------------

    fn store(opcode: Opcode, offset: i32, ra: Reg, rb: Reg) -> Result<Self, IsaError> {
        Self::from_fields(opcode, None, Some(ra), Some(rb), Some(offset.into()))
    }

    /// `l.lwz rD, I(rA)` — load word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lwz(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::rri(Opcode::Lwz, rd, ra, offset.into())
    }

    /// `l.lws rD, I(rA)` — load word, sign-extended (identical to `l.lwz` on
    /// a 32-bit implementation but encoded distinctly).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lws(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::rri(Opcode::Lws, rd, ra, offset.into())
    }

    /// `l.lhz rD, I(rA)` — load half-word zero-extended.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lhz(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::rri(Opcode::Lhz, rd, ra, offset.into())
    }

    /// `l.lhs rD, I(rA)` — load half-word sign-extended.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lhs(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::rri(Opcode::Lhs, rd, ra, offset.into())
    }

    /// `l.lbz rD, I(rA)` — load byte zero-extended.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lbz(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::rri(Opcode::Lbz, rd, ra, offset.into())
    }

    /// `l.lbs rD, I(rA)` — load byte sign-extended.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lbs(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::rri(Opcode::Lbs, rd, ra, offset.into())
    }

    /// `l.sw I(rA), rB` — store word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn sw(offset: i32, ra: Reg, rb: Reg) -> Result<Self, IsaError> {
        Self::store(Opcode::Sw, offset, ra, rb)
    }

    /// `l.sh I(rA), rB` — store half-word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn sh(offset: i32, ra: Reg, rb: Reg) -> Result<Self, IsaError> {
        Self::store(Opcode::Sh, offset, ra, rb)
    }

    /// `l.sb I(rA), rB` — store byte.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn sb(offset: i32, ra: Reg, rb: Reg) -> Result<Self, IsaError> {
        Self::store(Opcode::Sb, offset, ra, rb)
    }

    // ---------------------------------------------------------------------
    // Control flow
    // ---------------------------------------------------------------------

    fn pc_rel(opcode: Opcode, word_offset: i32) -> Result<Self, IsaError> {
        Self::from_fields(opcode, None, None, None, Some(word_offset.into()))
    }

    /// `l.j N` — PC-relative jump by `word_offset` instruction words.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if the offset exceeds 26 bits.
    pub fn j(word_offset: i32) -> Result<Self, IsaError> {
        Self::pc_rel(Opcode::J, word_offset)
    }

    /// `l.jal N` — jump and link.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if the offset exceeds 26 bits.
    pub fn jal(word_offset: i32) -> Result<Self, IsaError> {
        Self::pc_rel(Opcode::Jal, word_offset)
    }

    /// `l.bf N` — branch (if flag) by `word_offset` instruction words.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if the offset exceeds 26 bits.
    pub fn bf(word_offset: i32) -> Result<Self, IsaError> {
        Self::pc_rel(Opcode::Bf, word_offset)
    }

    /// `l.bnf N` — branch (if flag clear) by `word_offset` instruction words.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if the offset exceeds 26 bits.
    pub fn bnf(word_offset: i32) -> Result<Self, IsaError> {
        Self::pc_rel(Opcode::Bnf, word_offset)
    }

    /// `l.jr rB` — jump to the address in `rB`.
    #[must_use]
    pub fn jr(rb: Reg) -> Self {
        Self::raw(Opcode::Jr, None, None, Some(rb), None)
    }

    /// `l.jalr rB` — jump to the address in `rB` and link.
    #[must_use]
    pub fn jalr(rb: Reg) -> Self {
        Self::raw(Opcode::Jalr, None, None, Some(rb), None)
    }

    /// `l.rfe` — return from exception to the saved exception PC.
    #[must_use]
    pub fn rfe() -> Self {
        Self::raw(Opcode::Rfe, None, None, None, None)
    }

    /// `l.nop K`.
    #[must_use]
    pub fn nop(k: u16) -> Self {
        Self::raw(Opcode::Nop, None, None, None, Some(k.into()))
    }

    // ---------------------------------------------------------------------
    // Encoding / decoding
    // ---------------------------------------------------------------------

    /// Encodes the instruction into its 32-bit ORBIS32 machine word.
    #[must_use]
    pub fn encode(&self) -> u32 {
        let row = self.opcode.row();
        let field = |reg: Option<Reg>, lsb: u32| reg.map_or(0, |r| u32::from(r.index()) << lsb);
        let Operands { rd, ra, rb, imm } = self.operands;
        row.bits
            | field(rd, 21)
            | field(ra, 16)
            | field(rb, 11)
            | self.opcode.cond().map_or(0, |cond| cond.code() << 21)
            | row
                .format
                .imm()
                .zip(imm)
                .map_or(0, |(kind, v)| kind.place(v))
    }

    /// Decodes a 32-bit machine word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnknownEncoding`] for words outside the modelled
    /// subset, and [`IsaError::ImmediateOutOfRange`] for a shift-immediate
    /// word whose 6-bit amount field reads 32 or more.
    pub fn decode(word: u32) -> Result<Self, IsaError> {
        let opcode = Opcode::of_word(word).ok_or(IsaError::UnknownEncoding { word })?;
        let format = opcode.row().format;
        let field = |present: bool, lsb: u32| present.then(|| Reg::r((word >> lsb) & 0x1F));
        Self::from_fields(
            opcode,
            field(format.has_rd(), 21),
            field(format.has_ra(), 16),
            field(format.has_rb(), 11),
            format.imm().map(|kind| kind.extract(word)),
        )
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::disasm::format_insn(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    fn sample_insns() -> Vec<Insn> {
        vec![
            Insn::add(Reg::r(3), Reg::r(4), Reg::r(5)),
            Insn::addc(Reg::r(3), Reg::r(4), Reg::r(5)),
            Insn::sub(Reg::r(6), Reg::r(7), Reg::r(8)),
            Insn::and(Reg::r(1), Reg::r(2), Reg::r(3)),
            Insn::or(Reg::r(1), Reg::r(2), Reg::r(3)),
            Insn::xor(Reg::r(1), Reg::r(2), Reg::r(3)),
            Insn::mul(Reg::r(11), Reg::r(12), Reg::r(13)),
            Insn::mulu(Reg::r(11), Reg::r(12), Reg::r(13)),
            Insn::sll(Reg::r(4), Reg::r(5), Reg::r(6)),
            Insn::srl(Reg::r(4), Reg::r(5), Reg::r(6)),
            Insn::sra(Reg::r(4), Reg::r(5), Reg::r(6)),
            Insn::ror(Reg::r(4), Reg::r(5), Reg::r(6)),
            Insn::cmov(Reg::r(4), Reg::r(5), Reg::r(6)),
            Insn::extbs(Reg::r(4), Reg::r(5)),
            Insn::exths(Reg::r(4), Reg::r(5)),
            Insn::addi(Reg::r(3), Reg::r(0), -42).unwrap(),
            Insn::addic(Reg::r(3), Reg::r(0), 17).unwrap(),
            Insn::andi(Reg::r(3), Reg::r(4), 0xFFFF).unwrap(),
            Insn::ori(Reg::r(3), Reg::r(4), 0x1234).unwrap(),
            Insn::xori(Reg::r(3), Reg::r(4), -1).unwrap(),
            Insn::muli(Reg::r(3), Reg::r(4), 100).unwrap(),
            Insn::slli(Reg::r(3), Reg::r(4), 31).unwrap(),
            Insn::srli(Reg::r(3), Reg::r(4), 1).unwrap(),
            Insn::srai(Reg::r(3), Reg::r(4), 16).unwrap(),
            Insn::rori(Reg::r(3), Reg::r(4), 7).unwrap(),
            Insn::movhi(Reg::r(5), 0xABCD).unwrap(),
            Insn::sf(SetFlagCond::Eq, Reg::r(3), Reg::r(4)),
            Insn::sf(SetFlagCond::Les, Reg::r(3), Reg::r(4)),
            Insn::sfi(SetFlagCond::Gtu, Reg::r(3), 99).unwrap(),
            Insn::sfi(SetFlagCond::Lts, Reg::r(3), -5).unwrap(),
            Insn::lwz(Reg::r(3), -8, Reg::r(1)).unwrap(),
            Insn::lhz(Reg::r(3), 2, Reg::r(1)).unwrap(),
            Insn::lhs(Reg::r(3), 6, Reg::r(1)).unwrap(),
            Insn::lbz(Reg::r(3), 1, Reg::r(1)).unwrap(),
            Insn::lbs(Reg::r(3), 3, Reg::r(1)).unwrap(),
            Insn::sw(-4, Reg::r(1), Reg::r(3)).unwrap(),
            Insn::sh(2, Reg::r(1), Reg::r(3)).unwrap(),
            Insn::sb(1025, Reg::r(1), Reg::r(3)).unwrap(),
            Insn::j(-100).unwrap(),
            Insn::jal(12345).unwrap(),
            Insn::bf(-3).unwrap(),
            Insn::bnf(7).unwrap(),
            Insn::jr(Reg::r(9)),
            Insn::jalr(Reg::r(11)),
            Insn::rfe(),
            Insn::nop(0x42),
        ]
    }

    #[test]
    fn encode_decode_roundtrip_for_all_formats() {
        for insn in sample_insns() {
            let word = insn.encode();
            let decoded = Insn::decode(word).unwrap_or_else(|e| {
                panic!("failed to decode {insn} ({word:#010x}): {e}");
            });
            assert_eq!(decoded, insn, "roundtrip mismatch for {insn}");
        }
    }

    #[test]
    fn distinct_instructions_have_distinct_encodings() {
        let insns = sample_insns();
        let words: Vec<u32> = insns.iter().map(Insn::encode).collect();
        for (i, wi) in words.iter().enumerate() {
            for (j, wj) in words.iter().enumerate() {
                if i != j {
                    assert_ne!(wi, wj, "{} and {} encode identically", insns[i], insns[j]);
                }
            }
        }
    }

    #[test]
    fn known_encodings_match_orbis32() {
        // l.nop 0 encodes as 0x15000000 in the OpenRISC manual.
        assert_eq!(Insn::nop(0).encode(), 0x1500_0000);
        // l.addi rD,rA,I has major opcode 0x27.
        assert_eq!(
            Insn::addi(Reg::r(3), Reg::r(4), 1).unwrap().encode() >> 26,
            0x27
        );
        // l.j has major opcode 0x00, l.bf 0x04.
        assert_eq!(Insn::j(4).unwrap().encode() >> 26, 0x00);
        assert_eq!(Insn::bf(4).unwrap().encode() >> 26, 0x04);
        // l.sw has major opcode 0x35.
        assert_eq!(
            Insn::sw(0, Reg::r(1), Reg::r(2)).unwrap().encode() >> 26,
            0x35
        );
    }

    #[test]
    fn immediate_range_checks() {
        assert!(Insn::addi(Reg::r(1), Reg::r(2), 32767).is_ok());
        assert!(Insn::addi(Reg::r(1), Reg::r(2), 32768).is_err());
        assert!(Insn::addi(Reg::r(1), Reg::r(2), -32768).is_ok());
        assert!(Insn::addi(Reg::r(1), Reg::r(2), -32769).is_err());
        assert!(Insn::andi(Reg::r(1), Reg::r(2), 65535).is_ok());
        assert!(Insn::andi(Reg::r(1), Reg::r(2), 65536).is_err());
        assert!(Insn::slli(Reg::r(1), Reg::r(2), 32).is_err());
        assert!(Insn::j(1 << 25).is_err());
        assert!(Insn::j((1 << 25) - 1).is_ok());
    }

    #[test]
    fn store_immediate_split_field_roundtrips() {
        // Store offsets are split across two fields in the encoding; check
        // values that exercise both halves and the sign bit.
        for offset in [-32768, -2049, -1, 0, 1, 2047, 2048, 32767] {
            let insn = Insn::sw(offset, Reg::r(1), Reg::r(2)).unwrap();
            assert_eq!(
                Insn::decode(insn.encode()).unwrap(),
                insn,
                "offset {offset}"
            );
        }
    }

    /// Pins the decode map, quirks included: an FNV-1a fold of every
    /// result over 4 194 304 words that sweep all 2048 values of bits
    /// 31..21 against all 2048 of bits 10..0 (bits 20..11 fixed). The
    /// counts and fold are those of the hand-written decoder the table
    /// replaced.
    #[test]
    fn decode_map_matches_the_pinned_sample_fold() {
        fn mix(h: u64, v: u64) -> u64 {
            v.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
        }
        let reg = |r: Option<Reg>| r.map_or(0xFF, |r| u64::from(r.index()));
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let (mut ok, mut unknown, mut out_of_range) = (0u32, 0u32, 0u32);
        for hi in 0..2048u32 {
            for lo in 0..2048u32 {
                match Insn::decode((hi << 21) | (0x2CD << 11) | lo) {
                    Ok(i) => {
                        ok += 1;
                        h = mix(
                            h,
                            (1 << 63)
                                | (u64::from(i.encode()) << 24)
                                | (reg(i.rd()) << 16)
                                | (reg(i.ra()) << 8)
                                | reg(i.rb()),
                        );
                        h = mix(h, i.imm().map_or(u64::MAX, |v| u64::from(v as u32)));
                    }
                    Err(IsaError::UnknownEncoding { .. }) => {
                        unknown += 1;
                        h = mix(h, 0);
                    }
                    Err(IsaError::ImmediateOutOfRange { .. }) => {
                        out_of_range += 1;
                        h = mix(h, 2);
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        }
        assert_eq!((ok, unknown, out_of_range), (1_591_808, 2_569_728, 32_768));
        assert_eq!(h, 0x6743_b859_2a0a_2f25);
    }

    #[test]
    fn unknown_words_are_rejected() {
        assert!(Insn::decode(0xFFFF_FFFF).is_err());
        // Major opcode 0x3F is not part of the subset.
        assert!(Insn::decode(0x3F << 26).is_err());
    }

    #[test]
    fn display_renders_assembly_like_text() {
        let insn = Insn::addi(Reg::r(3), Reg::r(0), 10).unwrap();
        assert_eq!(insn.to_string(), "l.addi r3, r0, 10");
        let insn = Insn::lwz(Reg::r(5), -8, Reg::r(1)).unwrap();
        assert_eq!(insn.to_string(), "l.lwz r5, -8(r1)");
    }
}
