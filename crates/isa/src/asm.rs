//! A small two-pass assembler for the modelled ORBIS32 subset.
//!
//! The assembler understands standard OpenRISC syntax for the supported
//! instructions, labels, line comments (`#`, `;`, `//`) and a handful of
//! directives:
//!
//! * `.org <addr>` — set the address of the next instruction (pass 1 only
//!   affects label resolution; instructions are still laid out contiguously
//!   from the base address, so `.org` is mainly useful at the very top).
//! * `.data <addr>` — set the cursor for subsequent `.word` directives.
//! * `.word <v>[, <v>...]` — emit initialized 32-bit data words.
//!
//! Branch and jump operands may be numeric word offsets or label names.
//!
//! # Example
//!
//! ```
//! use idca_isa::asm::Assembler;
//!
//! # fn main() -> Result<(), idca_isa::IsaError> {
//! let program = Assembler::new().assemble(
//!     "        l.addi r3, r0, 3\n\
//!      loop:   l.addi r3, r3, -1\n\
//!              l.sfne r3, r0\n\
//!              l.bf   loop\n\
//!              l.nop  0\n",
//! )?;
//! assert_eq!(program.len(), 5);
//! assert_eq!(program.symbol("loop"), Some(4));
//! # Ok(())
//! # }
//! ```

use crate::table::{Format, Imm};
use crate::{Insn, IsaError, Opcode, Program, ProgramBuilder, Reg, INSN_BYTES};
use std::collections::BTreeMap;

/// Two-pass assembler producing [`Program`] images. The first instruction
/// sits at byte address 0.
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    name: String,
}

impl Assembler {
    /// Creates an assembler with an empty program name.
    #[must_use]
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Sets the name recorded in the resulting [`Program`].
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Assembles a full source text.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ParseError`] (unknown mnemonic or directive, wrong
    /// operand count, malformed operand, undefined label),
    /// [`IsaError::DuplicateLabel`] or [`IsaError::ImmediateOutOfRange`]
    /// describing the first problem found.
    pub fn assemble(&self, source: &str) -> Result<Program, IsaError> {
        let lines = preprocess(source);

        // Pass 1: resolve label addresses.
        let mut labels: BTreeMap<String, u32> = BTreeMap::new();
        let mut address = 0;
        for line in &lines {
            for label in &line.labels {
                if labels.insert(label.clone(), address).is_some() {
                    return Err(IsaError::DuplicateLabel {
                        label: label.clone(),
                    });
                }
            }
            if let Some(stmt) = &line.statement {
                match stmt_kind(stmt) {
                    StmtKind::Instruction => address += INSN_BYTES,
                    StmtKind::Org(value) => address = value,
                    StmtKind::Other => {}
                }
            }
        }

        // Pass 2: emit instructions and data.
        let mut builder = ProgramBuilder::named(self.name.clone());
        let mut data_cursor: u32 = 0;
        let mut address = 0;
        for line in &lines {
            let Some(stmt) = &line.statement else {
                continue;
            };
            match stmt_kind(stmt) {
                StmtKind::Org(value) => {
                    address = value;
                }
                StmtKind::Other => {
                    parse_directive(stmt, line.number, &mut builder, &mut data_cursor)?;
                }
                StmtKind::Instruction => {
                    let insn = parse_instruction(stmt, line.number, address, &labels)?;
                    builder.push(insn);
                    address += INSN_BYTES;
                }
            }
        }
        for (label, addr) in labels {
            builder.insert_symbol(label, addr);
        }
        Ok(builder.build())
    }
}

#[derive(Debug)]
struct SourceLine {
    number: usize,
    labels: Vec<String>,
    statement: Option<String>,
}

fn preprocess(source: &str) -> Vec<SourceLine> {
    let mut out = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let mut text = raw;
        for marker in ["#", ";", "//"] {
            if let Some(pos) = text.find(marker) {
                text = &text[..pos];
            }
        }
        let mut rest = text.trim();
        let mut labels = Vec::new();
        while let Some(colon) = rest.find(':') {
            let (head, tail) = rest.split_at(colon);
            let head = head.trim();
            if head.is_empty()
                || !head
                    .chars()
                    .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
            {
                break;
            }
            labels.push(head.to_string());
            rest = tail[1..].trim();
        }
        let statement = if rest.is_empty() {
            None
        } else {
            Some(rest.to_string())
        };
        if labels.is_empty() && statement.is_none() {
            continue;
        }
        out.push(SourceLine {
            number: idx + 1,
            labels,
            statement,
        });
    }
    out
}

enum StmtKind {
    Instruction,
    Org(u32),
    Other,
}

fn stmt_kind(stmt: &str) -> StmtKind {
    let lower = stmt.trim().to_ascii_lowercase();
    if let Some(rest) = lower.strip_prefix(".org") {
        if let Ok(value) = parse_u32(rest.trim()) {
            return StmtKind::Org(value);
        }
        return StmtKind::Other;
    }
    if lower.starts_with('.') {
        StmtKind::Other
    } else {
        StmtKind::Instruction
    }
}

fn parse_directive(
    stmt: &str,
    line: usize,
    builder: &mut ProgramBuilder,
    data_cursor: &mut u32,
) -> Result<(), IsaError> {
    let (dir, rest) = stmt.split_once(char::is_whitespace).unwrap_or((stmt, ""));
    match dir.to_ascii_lowercase().as_str() {
        ".data" => {
            *data_cursor =
                parse_u32(rest.trim()).map_err(|m| IsaError::ParseError { line, message: m })?;
            Ok(())
        }
        ".word" => {
            for part in rest.split(',') {
                let value = parse_u32(part.trim())
                    .map_err(|m| IsaError::ParseError { line, message: m })?;
                builder.push_data_word(*data_cursor, value);
                *data_cursor += 4;
            }
            Ok(())
        }
        other => Err(IsaError::ParseError {
            line,
            message: format!("unknown directive `{other}`"),
        }),
    }
}

fn parse_u32(text: &str) -> Result<u32, String> {
    let text = text.trim();
    let (neg, digits) = match text.strip_prefix('-') {
        Some(d) => (true, d),
        None => (false, text),
    };
    let value = if let Some(hex) = digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        u32::from_str_radix(hex, 16).map_err(|e| format!("invalid hex literal `{text}`: {e}"))?
    } else {
        digits
            .parse::<u32>()
            .map_err(|e| format!("invalid integer literal `{text}`: {e}"))?
    };
    Ok(if neg { value.wrapping_neg() } else { value })
}

fn parse_i32(text: &str) -> Result<i32, String> {
    parse_u32(text).map(|v| v as i32)
}

/// An immediate literal as the field sees it: a signed field reads the
/// 32-bit pattern as `i32`, an unsigned field as `u32`, so `-1` is out of
/// range for the latter.
fn parse_imm(text: &str, kind: Imm) -> Result<i64, String> {
    let value = parse_u32(text)?;
    let (_, signed) = kind.width();
    Ok(if signed {
        i64::from(value as i32)
    } else {
        i64::from(value)
    })
}

fn parse_reg(text: &str) -> Result<Reg, String> {
    let text = text.trim();
    let digits = text
        .strip_prefix('r')
        .or_else(|| text.strip_prefix('R'))
        .ok_or_else(|| format!("expected register, found `{text}`"))?;
    let index: u32 = digits
        .parse()
        .map_err(|_| format!("invalid register `{text}`"))?;
    Reg::new(index).map_err(|_| format!("register index out of range in `{text}`"))
}

/// Parses `offset(rA)` into `(offset, reg)`.
fn parse_mem_operand(text: &str) -> Result<(i32, Reg), String> {
    let text = text.trim();
    let open = text
        .find('(')
        .ok_or_else(|| format!("expected `offset(rA)`, found `{text}`"))?;
    let close = text
        .rfind(')')
        .ok_or_else(|| format!("missing `)` in `{text}`"))?;
    let offset_text = text[..open].trim();
    let offset = if offset_text.is_empty() {
        0
    } else {
        parse_i32(offset_text)?
    };
    let reg = parse_reg(&text[open + 1..close])?;
    Ok((offset, reg))
}

fn split_operands(rest: &str) -> Vec<String> {
    if rest.trim().is_empty() {
        return Vec::new();
    }
    rest.split(',').map(|p| p.trim().to_string()).collect()
}

fn resolve_target(
    operand: &str,
    address: u32,
    labels: &BTreeMap<String, u32>,
) -> Result<i32, String> {
    if let Ok(value) = parse_i32(operand) {
        return Ok(value);
    }
    let target = labels
        .get(operand)
        .copied()
        .ok_or_else(|| format!("undefined label `{operand}`"))?;
    let delta = i64::from(target) - i64::from(address);
    Ok((delta / i64::from(INSN_BYTES)) as i32)
}

fn parse_instruction(
    stmt: &str,
    line: usize,
    address: u32,
    labels: &BTreeMap<String, u32>,
) -> Result<Insn, IsaError> {
    let perr = |message: String| IsaError::ParseError { line, message };
    let (mnemonic, rest) = stmt.split_once(char::is_whitespace).unwrap_or((stmt, ""));
    let mnemonic = mnemonic.to_ascii_lowercase();
    let opcode = Opcode::from_mnemonic(&mnemonic)
        .ok_or_else(|| perr(format!("unknown mnemonic `{mnemonic}`")))?;
    let format = opcode.row().format;
    let ops = split_operands(rest);
    // `l.nop` may omit its immediate.
    let omitted = matches!(format, Format::K(_)) && ops.is_empty();
    if ops.len() != format.arity() && !omitted {
        return Err(perr(format!(
            "`{mnemonic}` expects {} operand(s), found {}",
            format.arity(),
            ops.len()
        )));
    }
    let reg = |i: usize| parse_reg(&ops[i]).map(Some).map_err(&perr);
    let imm = |i: usize, kind: Imm| parse_imm(&ops[i], kind).map(Some).map_err(&perr);
    let mem = |i: usize| parse_mem_operand(&ops[i]).map_err(&perr);

    let (rd, ra, rb, imm) = match format {
        Format::Dab => (reg(0)?, reg(1)?, reg(2)?, None),
        Format::Da => (reg(0)?, reg(1)?, None, None),
        Format::Dai(kind) => (reg(0)?, reg(1)?, None, imm(2, kind)?),
        Format::Dk(kind) => (reg(0)?, None, None, imm(1, kind)?),
        Format::Ab => (None, reg(0)?, reg(1)?, None),
        Format::Ai(kind) => (None, reg(0)?, None, imm(1, kind)?),
        Format::Load(_) => {
            let (offset, ra) = mem(1)?;
            (reg(0)?, Some(ra), None, Some(offset.into()))
        }
        Format::Store(_) => {
            let (offset, ra) = mem(0)?;
            (None, Some(ra), reg(1)?, Some(offset.into()))
        }
        Format::Pc(_) | Format::PcLink(_) => {
            let offset = resolve_target(&ops[0], address, labels).map_err(&perr)?;
            (None, None, None, Some(offset.into()))
        }
        Format::B | Format::BLink => (None, None, reg(0)?, None),
        Format::K(_) if omitted => (None, None, None, Some(0)),
        Format::K(kind) => (None, None, None, imm(0, kind)?),
        Format::Bare => (None, None, None, None),
    };
    Insn::from_fields(opcode, rd, ra, rb, imm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SetFlagCond, TimingClass};

    #[test]
    fn assembles_loop_with_labels() {
        let program = Assembler::new()
            .with_name("loop")
            .assemble(
                r#"
                # simple countdown
                    l.addi  r3, r0, 10
                top:
                    l.addi  r3, r3, -1
                    l.sfne  r3, r0
                    l.bf    top
                    l.nop   0
                "#,
            )
            .unwrap();
        assert_eq!(program.len(), 5);
        assert_eq!(program.name(), "loop");
        assert_eq!(program.symbol("top"), Some(4));
        // The branch is at address 12, targeting address 4 → offset -2 words.
        assert_eq!(program.insns()[3].imm(), Some(-2));
    }

    #[test]
    fn label_on_same_line_as_instruction() {
        let program = Assembler::new()
            .assemble("start: l.nop 0\n l.j start\n l.nop 0\n")
            .unwrap();
        assert_eq!(program.symbol("start"), Some(0));
        assert_eq!(program.insns()[1].imm(), Some(-1));
    }

    #[test]
    fn rejects_duplicate_labels() {
        let err = Assembler::new()
            .assemble("a:\n l.nop 0\na:\n l.nop 0\n")
            .unwrap_err();
        assert_eq!(err, IsaError::DuplicateLabel { label: "a".into() });
    }

    #[test]
    fn rejects_undefined_labels() {
        let err = Assembler::new().assemble("l.j nowhere\n").unwrap_err();
        match err {
            IsaError::ParseError { message, .. } => assert!(message.contains("nowhere")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_mnemonics() {
        let err = Assembler::new()
            .assemble("l.frobnicate r1, r2\n")
            .unwrap_err();
        match err {
            IsaError::ParseError { message, .. } => assert!(message.contains("frobnicate")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parses_memory_operands() {
        let program = Assembler::new()
            .assemble("l.lwz r3, -8(r1)\n l.sw 12(r2), r3\n l.lbz r4, (r5)\n")
            .unwrap();
        assert_eq!(program.insns()[0].imm(), Some(-8));
        assert_eq!(program.insns()[1].imm(), Some(12));
        assert_eq!(program.insns()[1].ra(), Some(Reg::r(2)));
        assert_eq!(program.insns()[2].imm(), Some(0));
    }

    #[test]
    fn parses_all_set_flag_forms() {
        let program = Assembler::new()
            .assemble("l.sfeq r1, r2\n l.sfgtu r1, r2\n l.sfnei r1, 0\n l.sflesi r1, -3\n")
            .unwrap();
        assert_eq!(program.insns()[0].opcode(), Opcode::Sf(SetFlagCond::Eq));
        assert_eq!(program.insns()[1].opcode(), Opcode::Sf(SetFlagCond::Gtu));
        assert_eq!(program.insns()[2].opcode(), Opcode::Sfi(SetFlagCond::Ne));
        assert_eq!(program.insns()[3].opcode(), Opcode::Sfi(SetFlagCond::Les));
        assert_eq!(program.insns()[3].imm(), Some(-3));
    }

    #[test]
    fn data_directives_emit_words() {
        let program = Assembler::new()
            .assemble(".data 0x100\n.word 1, 2, 0xff\n l.nop 0\n")
            .unwrap();
        assert_eq!(program.data(), &[(0x100, 1), (0x104, 2), (0x108, 0xff)]);
        assert_eq!(program.len(), 1);
    }

    #[test]
    fn hex_and_negative_literals() {
        let program = Assembler::new()
            .assemble("l.addi r3, r0, -0x10\n l.ori r4, r0, 0xABCD\n")
            .unwrap();
        assert_eq!(program.insns()[0].imm(), Some(-16));
        assert_eq!(program.insns()[1].imm(), Some(0xABCD));
    }

    fn out_of_range(source: &str) -> (&'static str, i64) {
        match Assembler::new().assemble(source) {
            Err(IsaError::ImmediateOutOfRange {
                mnemonic, value, ..
            }) => (mnemonic, value),
            other => panic!("`{source}` assembled to {other:?}"),
        }
    }

    #[test]
    fn nop_and_movhi_immediates_are_range_checked() {
        assert_eq!(out_of_range("l.nop 70000"), ("l.nop", 70_000));
        assert_eq!(out_of_range("l.nop -1"), ("l.nop", 0xFFFF_FFFF));
        assert_eq!(out_of_range("l.movhi r1, 0x12345"), ("l.movhi", 0x12345));
        assert_eq!(out_of_range("l.movhi r1, -1"), ("l.movhi", 0xFFFF_FFFF));
    }

    #[test]
    fn extra_operands_are_rejected() {
        match Assembler::new().assemble("l.nop 1, 2") {
            Err(IsaError::ParseError { message, .. }) => {
                assert!(
                    message.contains("expects 1 operand(s), found 2"),
                    "{message}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            Assembler::new().assemble("l.nop").unwrap().insns(),
            &[Insn::nop(0)]
        );
    }

    #[test]
    fn memory_offset_errors_name_the_instruction() {
        assert_eq!(out_of_range("l.lwz r1, 40000(r2)"), ("l.lwz", 40_000));
        assert_eq!(out_of_range("l.sw -40000(r2), r1"), ("l.sw", -40_000));
    }

    #[test]
    fn every_assembled_insn_reencodes() {
        let program = Assembler::new()
            .assemble(
                "l.movhi r4, 0x1234\n l.ori r4, r4, 0x5678\n l.mul r5, r4, r4\n\
                 l.sw 0(r1), r5\n l.lwz r6, 0(r1)\n l.sfeq r5, r6\n l.bf 2\n l.nop 0\n",
            )
            .unwrap();
        for insn in program.insns() {
            assert_eq!(Insn::decode(insn.encode()).unwrap(), *insn);
        }
        assert_eq!(program.insns()[2].timing_class(), TimingClass::Mul);
    }
}
