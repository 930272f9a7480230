use crate::table::Format;
use crate::{Insn, IsaError, Opcode, Reg, INSN_BYTES};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An executable program image: a contiguous sequence of instructions, an
/// optional block of initialized data words and a symbol table.
///
/// Programs are produced either by the textual [`crate::asm::Assembler`] or
/// programmatically through [`ProgramBuilder`], and consumed by the pipeline
/// simulator in `idca-pipeline`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    name: String,
    base_address: u32,
    insns: Vec<Insn>,
    data: Vec<(u32, u32)>,
    symbols: BTreeMap<String, u32>,
}

impl Program {
    /// The program name (used in benchmark reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Byte address of the first instruction.
    #[must_use]
    pub fn base_address(&self) -> u32 {
        self.base_address
    }

    /// The instruction sequence.
    #[must_use]
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// Number of instructions in the image.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// `true` when the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Initialized data words as `(byte_address, value)` pairs.
    #[must_use]
    pub fn data(&self) -> &[(u32, u32)] {
        &self.data
    }

    /// Resolved label addresses.
    #[must_use]
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// Looks up the byte address of a label.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Byte address one past the last instruction.
    #[must_use]
    pub fn end_address(&self) -> u32 {
        self.base_address + (self.insns.len() as u32) * INSN_BYTES
    }

    /// The word index of the instruction at byte address `pc`, or `None`
    /// when `pc` lies outside `[base_address, end_address)` **or** is not
    /// word-aligned. This is the bounds-checked fetch accessor simulators
    /// should use instead of indexing [`Program::insns`] directly.
    #[must_use]
    pub fn insn_index(&self, pc: u32) -> Option<usize> {
        let offset = pc.wrapping_sub(self.base_address);
        if pc < self.base_address || !offset.is_multiple_of(INSN_BYTES) {
            return None;
        }
        let index = (offset / INSN_BYTES) as usize;
        (index < self.insns.len()).then_some(index)
    }

    /// Encodes the whole instruction stream into 32-bit words.
    #[must_use]
    pub fn to_words(&self) -> Vec<u32> {
        self.insns.iter().map(Insn::encode).collect()
    }

    /// Reconstructs a program from raw instruction words.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnknownEncoding`] if any word is not a valid
    /// instruction of the modelled subset.
    pub fn from_words(
        name: impl Into<String>,
        base_address: u32,
        words: &[u32],
    ) -> Result<Self, IsaError> {
        let insns = words
            .iter()
            .map(|&w| Insn::decode(w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program {
            name: name.into(),
            base_address,
            insns,
            data: Vec::new(),
            symbols: BTreeMap::new(),
        })
    }

    /// Returns a copy of the program with a different display name.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

/// Incremental builder for [`Program`] images.
///
/// The builder keeps track of the current instruction address so that labels
/// can be bound and later resolved into PC-relative branch offsets, which is
/// the main convenience the workload kernels rely on.
///
/// # Example
///
/// ```
/// use idca_isa::{Insn, ProgramBuilder, Reg, SetFlagCond};
///
/// # fn main() -> Result<(), idca_isa::IsaError> {
/// let mut b = ProgramBuilder::named("countdown");
/// b.push(Insn::addi(Reg::r(3), Reg::r(0), 5)?);
/// let top = b.bind_label("top");
/// b.push(Insn::addi(Reg::r(3), Reg::r(3), -1)?);
/// b.push(Insn::sf(SetFlagCond::Ne, Reg::r(3), Reg::r(0)));
/// b.push_branch_to(idca_isa::Opcode::Bf, top)?;
/// b.push(Insn::nop(0)); // delay slot
/// let program = b.build();
/// assert_eq!(program.len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    name: String,
    base_address: u32,
    insns: Vec<Insn>,
    data: Vec<(u32, u32)>,
    symbols: BTreeMap<String, u32>,
}

/// An opaque handle to a label bound with [`ProgramBuilder::bind_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(u32);

impl ProgramBuilder {
    /// Creates an empty builder with base address 0 and an empty name.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with the given program name.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Sets the byte address of the first instruction.
    pub fn set_base_address(&mut self, base: u32) -> &mut Self {
        self.base_address = base;
        self
    }

    /// Byte address of the *next* instruction that will be pushed.
    #[must_use]
    pub fn current_address(&self) -> u32 {
        self.base_address + (self.insns.len() as u32) * INSN_BYTES
    }

    /// Appends one instruction.
    pub fn push(&mut self, insn: Insn) -> &mut Self {
        self.insns.push(insn);
        self
    }

    /// Appends every instruction from an iterator.
    pub fn extend<I: IntoIterator<Item = Insn>>(&mut self, insns: I) -> &mut Self {
        self.insns.extend(insns);
        self
    }

    /// Binds a label to the current address and records it as a symbol.
    pub fn bind_label(&mut self, name: impl Into<String>) -> Label {
        let addr = self.current_address();
        self.symbols.insert(name.into(), addr);
        Label(addr)
    }

    /// Records a symbol at an explicit byte address (used by the assembler
    /// to publish pass-1 label addresses).
    pub fn insert_symbol(&mut self, name: impl Into<String>, address: u32) -> &mut Self {
        self.symbols.insert(name.into(), address);
        self
    }

    /// Appends a PC-relative control-flow instruction targeting `label`.
    ///
    /// `opcode` must be one of `l.j`, `l.jal`, `l.bf`, `l.bnf`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BranchOutOfRange`] if the target cannot be encoded
    /// and [`IsaError::ParseError`] if `opcode` is not PC-relative.
    pub fn push_branch_to(&mut self, opcode: Opcode, label: Label) -> Result<&mut Self, IsaError> {
        if !matches!(opcode.row().format, Format::Pc(_) | Format::PcLink(_)) {
            return Err(IsaError::ParseError {
                line: 0,
                message: format!("{opcode} is not a PC-relative control-flow instruction"),
            });
        }
        let from = self.current_address();
        let words = (i64::from(label.0) - i64::from(from)) / i64::from(INSN_BYTES);
        let insn = Insn::from_fields(opcode, None, None, None, Some(words))
            .map_err(|_| IsaError::BranchOutOfRange { from, to: label.0 })?;
        self.insns.push(insn);
        Ok(self)
    }

    /// Adds an initialized 32-bit data word at the given byte address.
    pub fn push_data_word(&mut self, address: u32, value: u32) -> &mut Self {
        self.data.push((address, value));
        self
    }

    /// Adds a contiguous block of initialized 32-bit words starting at
    /// `address`.
    pub fn push_data_block(&mut self, address: u32, values: &[u32]) -> &mut Self {
        for (i, &value) in values.iter().enumerate() {
            self.data.push((address + (i as u32) * 4, value));
        }
        self
    }

    /// Convenience: loads a full 32-bit constant into `rd` using the
    /// canonical `l.movhi` + `l.ori` sequence (two instructions, or one when
    /// the upper half-word is zero).
    pub fn load_const(&mut self, rd: Reg, value: u32) -> &mut Self {
        let hi = value >> 16;
        let lo = value & 0xFFFF;
        if hi == 0 {
            self.push(Insn::ori(rd, Reg::R0, lo).expect("16-bit immediate"));
        } else {
            self.push(Insn::movhi(rd, hi).expect("16-bit immediate"));
            if lo != 0 {
                self.push(Insn::ori(rd, rd, lo).expect("16-bit immediate"));
            }
        }
        self
    }

    /// Number of instructions pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// `true` when no instruction has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Finalizes the builder into a [`Program`].
    #[must_use]
    pub fn build(self) -> Program {
        Program {
            name: self.name,
            base_address: self.base_address,
            insns: self.insns,
            data: self.data,
            symbols: self.symbols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetFlagCond;

    #[test]
    fn builder_tracks_addresses() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.current_address(), 0);
        b.push(Insn::nop(0));
        assert_eq!(b.current_address(), 4);
        b.set_base_address(0x100);
        assert_eq!(b.current_address(), 0x104);
    }

    #[test]
    fn backward_branch_offset_is_negative() {
        let mut b = ProgramBuilder::new();
        let top = b.bind_label("top");
        b.push(Insn::sf(SetFlagCond::Ne, Reg::r(3), Reg::r(0)));
        b.push_branch_to(Opcode::Bf, top).unwrap();
        let program = b.build();
        assert_eq!(program.insns()[1].imm(), Some(-1));
        assert_eq!(program.symbol("top"), Some(0));
    }

    #[test]
    fn forward_branch_via_prebound_address() {
        let mut b = ProgramBuilder::new();
        b.push(Insn::nop(0));
        // Target four instructions ahead of the branch site.
        let target = Label(5 * INSN_BYTES);
        b.push_branch_to(Opcode::J, target).unwrap();
        let program = b.build();
        assert_eq!(program.insns()[1].imm(), Some(4));
    }

    #[test]
    fn push_branch_rejects_non_control_flow() {
        let mut b = ProgramBuilder::new();
        let l = b.bind_label("x");
        assert!(b.push_branch_to(Opcode::Add, l).is_err());
    }

    #[test]
    fn load_const_uses_minimal_sequence() {
        let mut b = ProgramBuilder::new();
        b.load_const(Reg::r(3), 0x12);
        assert_eq!(b.len(), 1);
        b.load_const(Reg::r(4), 0x10000);
        assert_eq!(b.len(), 2); // movhi only, low half zero
        b.load_const(Reg::r(5), 0xDEAD_BEEF);
        assert_eq!(b.len(), 4); // movhi + ori
    }

    #[test]
    fn words_roundtrip_through_from_words() {
        let mut b = ProgramBuilder::named("p");
        b.push(Insn::addi(Reg::r(3), Reg::r(0), 7).unwrap());
        b.push(Insn::mul(Reg::r(4), Reg::r(3), Reg::r(3)));
        b.push(Insn::nop(0));
        let p = b.build();
        let words = p.to_words();
        let q = Program::from_words("p", 0, &words).unwrap();
        assert_eq!(p.insns(), q.insns());
    }

    #[test]
    fn data_blocks_are_recorded_word_by_word() {
        let mut b = ProgramBuilder::new();
        b.push_data_block(0x1000, &[1, 2, 3]);
        let p = b.build();
        assert_eq!(p.data(), &[(0x1000, 1), (0x1004, 2), (0x1008, 3)]);
    }
}
