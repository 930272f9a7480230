//! Disassembly of instructions into OpenRISC assembly syntax, mainly used
//! for traces, debugging and the paper-style reports.

use crate::table::Format;
use crate::{Insn, Reg};

/// Formats a single instruction using OpenRISC assembly syntax, in the
/// operand order of its format. The assembler reads the text back to the
/// same instruction.
///
/// Branch and jump targets are rendered as relative word offsets
/// (e.g. `l.bf -3`).
///
/// # Example
///
/// ```
/// use idca_isa::{disasm, Insn, Reg};
///
/// let text = disasm::format_insn(&Insn::add(Reg::r(3), Reg::r(4), Reg::r(5)));
/// assert_eq!(text, "l.add r3, r4, r5");
/// ```
#[must_use]
pub fn format_insn(insn: &Insn) -> String {
    let m = insn.opcode().mnemonic();
    // Every `Insn` has exactly its row's fields, so the fallback is unused.
    let [d, a, b] = [insn.rd(), insn.ra(), insn.rb()].map(|r| r.unwrap_or(Reg::R0));
    let i = insn.imm().unwrap_or(0);
    match insn.opcode().row().format {
        Format::Dab => format!("{m} {d}, {a}, {b}"),
        Format::Da => format!("{m} {d}, {a}"),
        Format::Dai(_) => format!("{m} {d}, {a}, {i}"),
        Format::Dk(_) => format!("{m} {d}, {i:#x}"),
        Format::Ab => format!("{m} {a}, {b}"),
        Format::Ai(_) => format!("{m} {a}, {i}"),
        Format::Load(_) => format!("{m} {d}, {i}({a})"),
        Format::Store(_) => format!("{m} {i}({a}), {b}"),
        Format::Pc(_) | Format::PcLink(_) | Format::K(_) => format!("{m} {i}"),
        Format::B | Format::BLink => format!("{m} {b}"),
        Format::Bare => m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_all_operand_shapes() {
        assert_eq!(format_insn(&Insn::nop(3)), "l.nop 3");
        assert_eq!(
            format_insn(&Insn::movhi(Reg::r(4), 0x1000).unwrap()),
            "l.movhi r4, 0x1000"
        );
        assert_eq!(format_insn(&Insn::j(-2).unwrap()), "l.j -2");
        assert_eq!(format_insn(&Insn::jr(Reg::r(9))), "l.jr r9");
        assert_eq!(
            format_insn(&Insn::sw(4, Reg::r(1), Reg::r(3)).unwrap()),
            "l.sw 4(r1), r3"
        );
        assert_eq!(
            format_insn(&Insn::sfi(crate::SetFlagCond::Ne, Reg::r(3), 0).unwrap()),
            "l.sfnei r3, 0"
        );
        assert_eq!(
            format_insn(&Insn::slli(Reg::r(2), Reg::r(3), 4).unwrap()),
            "l.slli r2, r3, 4"
        );
        assert_eq!(
            format_insn(&Insn::extbs(Reg::r(2), Reg::r(3))),
            "l.extbs r2, r3"
        );
    }
}
