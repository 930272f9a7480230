//! Characterization workloads.
//!
//! The paper characterizes the per-instruction dynamic timing with "small
//! hand-written kernels as well as semi-random test-cases that are generated
//! by a code generation tool", simulated at gate level for about 14 k
//! cycles. This module provides both ingredients:
//!
//! * [`directed_kernels`] — hand-written snippets that deliberately excite
//!   the worst-case data conditions of each instruction class (full-length
//!   carry chains, maximum-width multiplier operands, full-toggle logic
//!   operands, maximum shift distances, back-to-back memory accesses with
//!   forwarding, dense taken branches and calls).
//! * a seeded semi-random generator that emits blocks of random ALU/memory
//!   instructions over random operand values (the "directed semi-random test
//!   generation" box of the paper's Fig. 2). It builds instructions
//!   directly, with no assembly text in between.
//! * [`characterization_program`] — the combination of both, used to build
//!   the delay LUT: the assembled directed kernels followed by the generated
//!   section. At the harness's seed it runs 11 296 cycles, against the
//!   paper's ~14 k.

use crate::assemble_kernel;
use idca_isa::{Insn, Program, ProgramBuilder, Reg, SetFlagCond};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The hand-written directed kernels, as labelled assembly snippets.
/// Each snippet loops a few dozen times and leaves the machine in a state
/// safe for the next snippet (no open delay slots, no reserved registers).
#[must_use]
pub fn directed_kernels() -> Vec<(&'static str, String)> {
    vec![
        ("adder_worst", adder_worst()),
        ("logic_worst", logic_worst()),
        ("shift_worst", shift_worst()),
        ("mul_worst", mul_worst()),
        ("setflag_sweep", setflag_sweep()),
        ("memory_pingpong", memory_pingpong()),
        ("branch_dense", branch_dense()),
        ("call_return", call_return()),
        ("move_extend", move_extend()),
    ]
}

fn adder_worst() -> String {
    r#"
            l.movhi r16, 0xFFFF
            l.ori   r16, r16, 0xFFFF    # all ones: full carry chain with +1
            l.addi  r17, r0, 1
            l.movhi r18, 0x7FFF
            l.ori   r18, r18, 0xFFFF    # max positive
            l.addi  r20, r0, 48
    ch_add_loop:
            l.add   r21, r16, r17       # 32-bit ripple
            l.add   r22, r18, r18       # sign-boundary add
            l.addi  r23, r16, 1
            l.sub   r24, r0, r16        # long borrow
            l.addc  r25, r16, r17
            l.add   r21, r21, r22       # dependent chain (forwarding)
            l.sub   r22, r21, r23
            l.addi  r20, r20, -1
            l.sfnei r20, 0
            l.bf    ch_add_loop
            l.nop   0
    "#
    .to_string()
}

fn logic_worst() -> String {
    r#"
            l.movhi r16, 0xAAAA
            l.ori   r16, r16, 0xAAAA
            l.movhi r17, 0x5555
            l.ori   r17, r17, 0x5555
            l.addi  r20, r0, 48
    ch_logic_loop:
            l.xor   r21, r16, r17       # every bit toggles
            l.and   r22, r16, r17       # full-toggle AND
            l.or    r23, r16, r17       # full-toggle OR
            l.xori  r24, r23, -1
            l.andi  r25, r21, 0xFFFF
            l.ori   r26, r22, 0xFFFF
            l.xor   r21, r21, r24       # dependent chain
            l.addi  r20, r20, -1
            l.sfnei r20, 0
            l.bf    ch_logic_loop
            l.nop   0
    "#
    .to_string()
}

fn shift_worst() -> String {
    r#"
            l.movhi r16, 0xFFFF
            l.ori   r16, r16, 0xFFFF
            l.addi  r17, r0, 31
            l.addi  r20, r0, 48
    ch_shift_loop:
            l.slli  r21, r16, 31
            l.srli  r22, r16, 31
            l.srai  r23, r16, 31
            l.rori  r24, r16, 17
            l.sll   r25, r16, r17       # full-distance register shift
            l.sra   r26, r16, r17
            l.ror   r27, r16, r17
            l.addi  r20, r20, -1
            l.sfnei r20, 0
            l.bf    ch_shift_loop
            l.nop   0
    "#
    .to_string()
}

fn mul_worst() -> String {
    r#"
            l.movhi r16, 0xFFFF
            l.ori   r16, r16, 0xFFFF    # widest unsigned operand
            l.movhi r17, 0x7FFF
            l.ori   r17, r17, 0xFFFF    # widest positive signed operand
            l.movhi r18, 0x8000        # most negative
            l.addi  r20, r0, 48
    ch_mul_loop:
            l.mul   r21, r16, r16       # all partial products active
            l.mulu  r22, r16, r17
            l.mul   r23, r17, r18
            l.muli  r24, r16, 0x7FFF
            l.mul   r25, r21, r22       # dependent multiply (forwarded)
            l.addi  r20, r20, -1
            l.sfnei r20, 0
            l.bf    ch_mul_loop
            l.nop   0
    "#
    .to_string()
}

fn setflag_sweep() -> String {
    r#"
            l.movhi r16, 0xFFFF
            l.ori   r16, r16, 0xFFFF
            l.addi  r17, r0, 1
            l.addi  r20, r0, 40
    ch_sf_loop:
            l.sfeq  r16, r17
            l.sfne  r16, r17
            l.sfgtu r16, r17
            l.sfgeu r17, r16
            l.sfltu r16, r17
            l.sfleu r16, r17
            l.sfgts r16, r17
            l.sfges r16, r17
            l.sflts r16, r17
            l.sfles r16, r17
            l.sfeqi r16, -1
            l.sfgtui r16, 0x7FFF
            l.cmov  r21, r16, r17
            l.addi  r20, r20, -1
            l.sfnei r20, 0
            l.bf    ch_sf_loop
            l.nop   0
    "#
    .to_string()
}

fn memory_pingpong() -> String {
    // The LSU worst case needs a maximally-toggling SRAM address (many set
    // address bits, long address-adder carry) together with forwarding into
    // the address operand and all-ones write/read data.
    r#"
            l.addi  r1, r0, 0x6000
            l.ori   r2, r0, 0xFF00      # high address region: many address bits set
            l.movhi r16, 0xFFFF
            l.ori   r16, r16, 0xFFFF
            l.movhi r17, 0xAAAA
            l.ori   r17, r17, 0xAAAA
            l.addi  r20, r0, 48
    ch_mem_loop:
            l.sw    0(r1), r16
            l.lwz   r21, 0(r1)          # load-to-use through forwarding
            l.add   r22, r21, r16
            l.sw    4(r1), r17
            l.lwz   r23, 4(r1)
            l.xor   r24, r23, r21
            l.addi  r3, r2, 0xFC        # forwarded address operand...
            l.sw    0(r3), r16          # ...to a maximally-set address (0xFFFC)
            l.lwz   r25, 0(r3)
            l.sw    0xF8(r2), r24       # far offset: long address adder path
            l.lwz   r26, 0xF8(r2)
            l.sh    8(r1), r25
            l.lhz   r27, 8(r1)
            l.sb    10(r1), r26
            l.lbs   r28, 10(r1)
            l.addi  r20, r20, -1
            l.sfnei r20, 0
            l.bf    ch_mem_loop
            l.nop   0
    "#
    .to_string()
}

fn branch_dense() -> String {
    r#"
            l.addi  r20, r0, 64
            l.addi  r21, r0, 0
    ch_br_loop:
            l.andi  r22, r20, 1
            l.sfnei r22, 0
            l.bf    ch_br_odd
            l.nop   0
            l.addi  r21, r21, 2
            l.j     ch_br_join
            l.nop   0
    ch_br_odd:
            l.addi  r21, r21, 1
    ch_br_join:
            l.sfgtsi r21, 1000
            l.bnf   ch_br_keep
            l.nop   0
            l.addi  r21, r0, 0
    ch_br_keep:
            l.addi  r20, r20, -1
            l.sfnei r20, 0
            l.bf    ch_br_loop
            l.nop   0
    "#
    .to_string()
}

fn call_return() -> String {
    r#"
            l.addi  r20, r0, 24
    ch_call_loop:
            l.jal   ch_callee
            l.nop   0
            l.addi  r20, r20, -1
            l.sfnei r20, 0
            l.bf    ch_call_loop
            l.nop   0
            l.j     ch_call_done
            l.nop   0
    ch_callee:
            l.addi  r22, r22, 3
            l.slli  r23, r22, 2
            l.jr    r9
            l.nop   0
    ch_call_done:
            l.addi  r24, r0, 0
    "#
    .to_string()
}

fn move_extend() -> String {
    r#"
            l.addi  r20, r0, 40
            l.movhi r16, 0x8091
            l.ori   r16, r16, 0x8223
    ch_mv_loop:
            l.movhi r21, 0xFFFF
            l.extbs r22, r16
            l.exths r23, r16
            l.sfeqi r20, 7
            l.cmov  r24, r22, r23
            l.ori   r25, r21, 0x00FF
            l.addi  r20, r20, -1
            l.sfnei r20, 0
            l.bf    ch_mv_loop
            l.nop   0
    "#
    .to_string()
}

/// Generates `blocks` straight-line blocks of semi-random instructions over
/// random operand values, reproducibly from `seed`. Memory accesses stay
/// within a 1 KiB scratch window at `0x7000`.
fn semi_random_insns(seed: u64, blocks: usize) -> Vec<Insn> {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Scratch registers available to the generator.
    const REGS: [u32; 10] = [16, 17, 18, 19, 21, 22, 23, 24, 25, 26];
    let reg = |rng: &mut SmallRng| Reg::r(REGS[rng.gen_range(0..REGS.len())]);
    let scratch = Reg::r(1);
    let mut out = Vec::with_capacity(1 + blocks * 18);
    out.push(Insn::addi(scratch, Reg::R0, 0x7000).expect("scratch base fits"));
    for _ in 0..blocks {
        // Refresh a couple of registers with random 32-bit constants.
        for _ in 0..2 {
            let rd = reg(&mut rng);
            let value: u32 = rng.gen();
            out.push(Insn::movhi(rd, value >> 16).expect("16-bit half"));
            out.push(Insn::ori(rd, rd, value & 0xFFFF).expect("16-bit half"));
        }
        for _ in 0..14 {
            let (rd, ra, rb) = (reg(&mut rng), reg(&mut rng), reg(&mut rng));
            let insn = match rng.gen_range(0..100) {
                0..=17 => Ok(Insn::add(rd, ra, rb)),
                18..=25 => Ok(Insn::sub(rd, ra, rb)),
                26..=33 => Ok(Insn::xor(rd, ra, rb)),
                34..=39 => Ok(Insn::and(rd, ra, rb)),
                40..=45 => Ok(Insn::or(rd, ra, rb)),
                46..=53 => Insn::addi(rd, ra, rng.gen_range(-2048..2048)),
                54..=60 => Ok(Insn::mul(rd, ra, rb)),
                61..=66 => Insn::slli(rd, ra, rng.gen_range(0..32)),
                67..=71 => Insn::srli(rd, ra, rng.gen_range(0..32)),
                72..=76 => Ok(Insn::sf(SetFlagCond::Gtu, ra, rb)),
                77..=80 => Ok(Insn::cmov(rd, ra, rb)),
                81..=89 => Insn::sw(rng.gen_range(0..256) * 4, scratch, rb),
                _ => Insn::lwz(rd, rng.gen_range(0..256) * 4, scratch),
            };
            out.push(insn.expect("immediates are drawn in range"));
        }
    }
    out
}

/// The full characterization program: every directed kernel followed by a
/// semi-random section of 340 blocks, ending with the exit marker. The
/// paper characterizes for about 14 k cycles; at the harness's seed
/// (`0xC0DE`) this program runs 11 296 cycles and retires 11 243
/// instructions.
///
/// Only the directed kernels go through the assembler; the semi-random
/// section is generated as instructions and appended to the assembled
/// image.
#[must_use]
pub fn characterization_program(seed: u64) -> Program {
    let mut source = String::new();
    for (_, snippet) in directed_kernels() {
        source.push_str(&snippet);
        source.push('\n');
    }
    let directed = assemble_kernel("characterization", &source);
    let mut builder = ProgramBuilder::named(directed.name());
    builder.set_base_address(directed.base_address());
    builder.extend(directed.insns().iter().copied());
    for (label, &address) in directed.symbols() {
        builder.insert_symbol(label.clone(), address);
    }
    for &(address, value) in directed.data() {
        builder.push_data_word(address, value);
    }
    builder.extend(semi_random_insns(seed, 340));
    builder.push(Insn::nop(1));
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use idca_pipeline::{SimConfig, Simulator};

    #[test]
    fn directed_kernels_assemble_individually() {
        for (name, snippet) in directed_kernels() {
            let mut source = snippet;
            source.push_str("\n            l.nop 1\n");
            let program = assemble_kernel(name, &source);
            let result = Simulator::new(SimConfig::default())
                .run(&program)
                .unwrap_or_else(|e| panic!("directed kernel {name} failed: {e}"));
            assert!(result.trace.cycle_count() > 50, "{name} is too short");
        }
    }

    #[test]
    fn characterization_program_runs_about_14k_cycles() {
        let program = characterization_program(42);
        let result = Simulator::new(SimConfig::default()).run(&program).unwrap();
        let cycles = result.trace.cycle_count();
        assert!(
            (9_000..25_000).contains(&cycles),
            "characterization length {cycles} is far from the paper's ~14k cycles"
        );
    }

    #[test]
    fn characterization_covers_every_execute_class_needed_for_the_lut() {
        use idca_isa::TimingClass;
        let program = characterization_program(42);
        let result = Simulator::new(SimConfig::default()).run(&program).unwrap();
        let stats = result.trace.stats();
        for class in [
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
        ] {
            assert!(
                stats.class_count(class) >= 5,
                "characterization exercises {class} only {} times",
                stats.class_count(class)
            );
        }
    }

    #[test]
    fn semi_random_insns_are_deterministic_per_seed() {
        assert_eq!(semi_random_insns(7, 5), semi_random_insns(7, 5));
        assert_ne!(semi_random_insns(7, 5), semi_random_insns(8, 5));
    }

    /// FNV-1a over the four parts of a program image: its encoded
    /// instruction words, data words, symbols and base address.
    fn image_hash(program: &Program) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for word in program.to_words() {
            eat(&word.to_le_bytes());
        }
        for &(address, value) in program.data() {
            eat(&address.to_le_bytes());
            eat(&value.to_le_bytes());
        }
        for (name, &address) in program.symbols() {
            eat(name.as_bytes());
            eat(&address.to_le_bytes());
        }
        eat(&program.base_address().to_le_bytes());
        hash
    }

    /// The images are pinned to the ones the all-text build (semi-random
    /// section formatted as assembly and parsed back) produced.
    #[test]
    fn characterization_images_are_pinned() {
        for (seed, expected) in [
            (0xC0DE, 0xf998_b524_097a_ecd8),
            (42, 0xd5da_4114_6e65_eb2b),
            (1, 0x5b29_98f5_aadf_5ab6),
            (99, 0xc652_27a7_f892_5307),
            (123_456, 0x6271_b0f6_2d05_ad88),
        ] {
            let program = characterization_program(seed);
            assert_eq!(program.len(), 6_277, "seed {seed}");
            assert_eq!(image_hash(&program), expected, "seed {seed}");
        }
    }

    #[test]
    fn different_seeds_still_assemble_and_run() {
        for seed in [1, 99, 123_456] {
            let program = characterization_program(seed);
            let result = Simulator::new(SimConfig::default()).run(&program).unwrap();
            assert!(result.trace.cycle_count() > 5_000);
        }
    }
}
