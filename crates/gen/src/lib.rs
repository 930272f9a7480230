//! # idca-gen — deterministic seeded ORBIS32 program generator
//!
//! The paper characterizes its core with "directed semi-random test-cases
//! that are generated by a code generation tool", and its evaluation rests on
//! 14 hand-written kernels. This crate scales the workload side far beyond
//! that: a seed-driven generator that emits arbitrary, **guaranteed
//! terminating** ORBIS32 programs with a configurable instruction-class mix,
//! bounded loop nesting and a bounded memory footprint — the raw material for
//! differential fuzzing (`tests/differential.rs`) and the Monte Carlo PVT
//! sweep engine (`idca_bench::sweep::pvt_sweep`).
//!
//! Design constraints:
//!
//! * **Deterministic** — the same `(seed, GenConfig)` always produces the
//!   bit-identical [`Program`], on any host and any thread count.
//! * **Terminating** — every loop decrements a dedicated counter register
//!   initialized to a bounded iteration count; forward branches only skip a
//!   few straight-line instructions. No register-indirect control flow is
//!   emitted, so no generated program can diverge.
//! * **Architecturally safe** — memory accesses stay inside a configurable
//!   scratch window far below the 64 KiB data SRAM, and the link register
//!   `r9` is never touched.
//! * **Round-trip clean** — every generated program is encoded to machine
//!   words and decoded back before it is returned; a mismatch is a generator
//!   (or codec) bug and panics immediately.
//!
//! # Example
//!
//! ```
//! use idca_gen::{generate_program, GenConfig};
//!
//! let a = generate_program(7, &GenConfig::default());
//! let b = generate_program(7, &GenConfig::default());
//! assert_eq!(a.insns(), b.insns()); // bit-identical per seed
//! assert!(!a.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use idca_isa::{Insn, Opcode, Program, ProgramBuilder, Reg, SetFlagCond};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Base byte address of the scratch memory window used by generated loads
/// and stores (the window grows upward from here).
pub const MEM_BASE: u32 = 0x4000;

/// Register holding the scratch-window base address.
fn mem_base_reg() -> Reg {
    Reg::r(1)
}

/// General-purpose registers the generator reads and writes. `r0` (zero),
/// `r1` (memory base), `r9` (link) and the loop counters are excluded.
const DATA_REGS: [u32; 18] = [
    2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21,
];

/// Registers reserved as loop counters, one per nesting level.
const COUNTER_REGS: [u32; 3] = [24, 25, 26];

/// Set-flag conditions the generator samples from.
const CONDS: [SetFlagCond; 10] = [
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

/// Relative sampling weights of the instruction classes the generator emits.
///
/// A weight of zero disables the class entirely; the weights need not sum to
/// anything in particular. Control flow emitted for loop bookkeeping (the
/// bounded back-branches) is governed by [`GenConfig::max_loop_depth`], not
/// by these weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassMix {
    /// Adders: `l.add`, `l.addc`, `l.sub`, `l.addi`, `l.addic`.
    pub alu: u32,
    /// Logic: `l.and(i)`, `l.or(i)`, `l.xor(i)`.
    pub logic: u32,
    /// Shifts and rotates, register and immediate forms.
    pub shift: u32,
    /// Single-cycle multiplies: `l.mul`, `l.mulu`, `l.muli`.
    pub mul: u32,
    /// Compare-flag writers: `l.sf*` / `l.sf*i`.
    pub set_flag: u32,
    /// Moves and extensions: `l.movhi`, `l.extbs`, `l.exths`, `l.cmov`.
    pub mov: u32,
    /// Loads of every width (word, half, byte; signed and unsigned).
    pub load: u32,
    /// Stores of every width.
    pub store: u32,
    /// Short forward conditional branch (`l.sf*` + `l.bf`/`l.bnf` diamond).
    pub branch: u32,
    /// Short forward unconditional jump (`l.j` over a few instructions).
    pub jump: u32,
}

impl Default for ClassMix {
    fn default() -> Self {
        // Roughly the dynamic mix of the CoreMark/BEEBS kernels: ALU-heavy
        // with a solid memory share and sparse explicit control flow.
        ClassMix {
            alu: 24,
            logic: 14,
            shift: 10,
            mul: 8,
            set_flag: 8,
            mov: 6,
            load: 12,
            store: 12,
            branch: 4,
            jump: 2,
        }
    }
}

impl ClassMix {
    fn total(&self) -> u32 {
        self.alu
            + self.logic
            + self.shift
            + self.mul
            + self.set_flag
            + self.mov
            + self.load
            + self.store
            + self.branch
            + self.jump
    }
}

/// Configuration of the program generator.
///
/// All knobs are clamped to safe bounds at generation time (loop counters
/// stay encodable, memory offsets stay inside the data SRAM), so any
/// configuration produces a valid, terminating program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Number of top-level code blocks.
    pub blocks: usize,
    /// Sampling steps per block body (a step may emit more than one
    /// instruction, e.g. a branch diamond).
    pub block_len: usize,
    /// Maximum loop-nesting depth per block (0 disables loops; clamped to 3).
    pub max_loop_depth: usize,
    /// Upper bound on the iteration count of each loop counter (clamped to
    /// 1..=1024). Total trip counts multiply across nesting levels.
    pub max_loop_iters: u32,
    /// Memory footprint: size of the load/store scratch window in 32-bit
    /// words (clamped to 1..=2048, i.e. at most 8 KiB starting at
    /// [`MEM_BASE`]).
    pub mem_window_words: u32,
    /// Instruction-class sampling weights.
    pub mix: ClassMix,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            blocks: 6,
            block_len: 12,
            max_loop_depth: 2,
            max_loop_iters: 6,
            mem_window_words: 256,
            mix: ClassMix::default(),
        }
    }
}

impl GenConfig {
    /// A stable fingerprint of the *effective* (clamped) generator
    /// configuration. Two configurations that generate identical programs
    /// for every seed hash identically; any knob change that can alter a
    /// generated program changes the hash. Used to key persistent digest
    /// caches: a cached digest is only trusted if the config fingerprint it
    /// was captured under matches exactly.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let c = self.clamped();
        let mix = &c.mix;
        let fields: [u64; 15] = [
            c.blocks as u64,
            c.block_len as u64,
            c.max_loop_depth as u64,
            u64::from(c.max_loop_iters),
            u64::from(c.mem_window_words),
            u64::from(mix.alu),
            u64::from(mix.logic),
            u64::from(mix.shift),
            u64::from(mix.mul),
            u64::from(mix.set_flag),
            u64::from(mix.mov),
            u64::from(mix.load),
            u64::from(mix.store),
            u64::from(mix.branch),
            u64::from(mix.jump),
        ];
        let mut hash = 0x1DCA_6E6E_C0DE_0001u64;
        for field in fields {
            hash = nth_seed(hash ^ field, field);
        }
        hash
    }

    fn clamped(&self) -> GenConfig {
        GenConfig {
            blocks: self.blocks.clamp(1, 64),
            block_len: self.block_len.clamp(1, 256),
            max_loop_depth: self.max_loop_depth.min(COUNTER_REGS.len()),
            max_loop_iters: self.max_loop_iters.clamp(1, 1024),
            mem_window_words: self.mem_window_words.clamp(1, 2048),
            mix: self.mix,
        }
    }
}

/// Derives the `index`-th element of a reproducible seed stream from a
/// master seed (SplitMix64). Used to fan one sweep/fuzz seed out into many
/// independent program seeds without correlation between neighbours.
#[must_use]
pub fn nth_seed(master_seed: u64, index: u64) -> u64 {
    let mut z = master_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum Kind {
    Alu,
    Logic,
    Shift,
    Mul,
    SetFlag,
    Mov,
    Load,
    Store,
    Branch,
    Jump,
}

struct Gen<'a> {
    rng: SmallRng,
    cfg: &'a GenConfig,
}

impl Gen<'_> {
    fn data_reg(&mut self) -> Reg {
        Reg::r(DATA_REGS[self.rng.gen_range(0..DATA_REGS.len())])
    }

    fn cond(&mut self) -> SetFlagCond {
        CONDS[self.rng.gen_range(0..CONDS.len())]
    }

    fn pick(&mut self) -> Kind {
        let mix = self.cfg.mix;
        let total = mix.total();
        if total == 0 {
            return Kind::Alu;
        }
        let mut roll = self.rng.gen_range(0..total);
        for (kind, weight) in [
            (Kind::Alu, mix.alu),
            (Kind::Logic, mix.logic),
            (Kind::Shift, mix.shift),
            (Kind::Mul, mix.mul),
            (Kind::SetFlag, mix.set_flag),
            (Kind::Mov, mix.mov),
            (Kind::Load, mix.load),
            (Kind::Store, mix.store),
            (Kind::Branch, mix.branch),
            (Kind::Jump, mix.jump),
        ] {
            if roll < weight {
                return kind;
            }
            roll -= weight;
        }
        Kind::Alu
    }

    /// A word-aligned byte offset inside the scratch window.
    fn word_offset(&mut self) -> i32 {
        (self.rng.gen_range(0..self.cfg.mem_window_words) * 4) as i32
    }

    /// A simple data-path instruction, safe anywhere (including the skipped
    /// arm of a branch diamond): never touches memory or the flag.
    fn simple_alu(&mut self) -> Insn {
        let (d, a, b) = (self.data_reg(), self.data_reg(), self.data_reg());
        match self.rng.gen_range(0..4u32) {
            0 => Insn::add(d, a, b),
            1 => Insn::sub(d, a, b),
            2 => Insn::xor(d, a, b),
            _ => Insn::addi(d, a, self.rng.gen_range(-2048..2048)).expect("12-bit immediate fits"),
        }
    }

    fn emit_step(&mut self, b: &mut ProgramBuilder) {
        let (d, a, r) = (self.data_reg(), self.data_reg(), self.data_reg());
        match self.pick() {
            Kind::Alu => {
                let insn = match self.rng.gen_range(0..5u32) {
                    0 => Insn::add(d, a, r),
                    1 => Insn::addc(d, a, r),
                    2 => Insn::sub(d, a, r),
                    3 => Insn::addi(d, a, self.rng.gen_range(-2048..2048))
                        .expect("12-bit immediate fits"),
                    _ => Insn::addic(d, a, self.rng.gen_range(-2048..2048))
                        .expect("12-bit immediate fits"),
                };
                b.push(insn);
            }
            Kind::Logic => {
                let imm = self.rng.gen_range(0..0x1_0000u32);
                let insn = match self.rng.gen_range(0..6u32) {
                    0 => Insn::and(d, a, r),
                    1 => Insn::or(d, a, r),
                    2 => Insn::xor(d, a, r),
                    3 => Insn::andi(d, a, imm).expect("16-bit immediate fits"),
                    4 => Insn::ori(d, a, imm).expect("16-bit immediate fits"),
                    _ => Insn::xori(d, a, self.rng.gen_range(-32768..32768))
                        .expect("16-bit immediate fits"),
                };
                b.push(insn);
            }
            Kind::Shift => {
                let amount = self.rng.gen_range(0..32u32);
                let insn = match self.rng.gen_range(0..8u32) {
                    0 => Insn::sll(d, a, r),
                    1 => Insn::srl(d, a, r),
                    2 => Insn::sra(d, a, r),
                    3 => Insn::ror(d, a, r),
                    4 => Insn::slli(d, a, amount).expect("5-bit amount fits"),
                    5 => Insn::srli(d, a, amount).expect("5-bit amount fits"),
                    6 => Insn::srai(d, a, amount).expect("5-bit amount fits"),
                    _ => Insn::rori(d, a, amount).expect("5-bit amount fits"),
                };
                b.push(insn);
            }
            Kind::Mul => {
                let insn = match self.rng.gen_range(0..3u32) {
                    0 => Insn::mul(d, a, r),
                    1 => Insn::mulu(d, a, r),
                    _ => Insn::muli(d, a, self.rng.gen_range(-32768..32768))
                        .expect("16-bit immediate fits"),
                };
                b.push(insn);
            }
            Kind::SetFlag => {
                let cond = self.cond();
                let insn = if self.rng.gen_range(0..2u32) == 0 {
                    Insn::sf(cond, a, r)
                } else {
                    Insn::sfi(cond, a, self.rng.gen_range(-32768..32768))
                        .expect("16-bit immediate fits")
                };
                b.push(insn);
            }
            Kind::Mov => {
                let insn = match self.rng.gen_range(0..4u32) {
                    0 => Insn::movhi(d, self.rng.gen_range(0..0x1_0000u32))
                        .expect("16-bit immediate fits"),
                    1 => Insn::extbs(d, a),
                    2 => Insn::exths(d, a),
                    _ => Insn::cmov(d, a, r),
                };
                b.push(insn);
            }
            Kind::Load => {
                let off = self.word_offset();
                let insn = match self.rng.gen_range(0..5u32) {
                    0 => Insn::lwz(d, off, mem_base_reg()),
                    1 => Insn::lhz(
                        d,
                        off + i32::from(self.rng.gen_range(0..2u16)) * 2,
                        mem_base_reg(),
                    ),
                    2 => Insn::lhs(
                        d,
                        off + i32::from(self.rng.gen_range(0..2u16)) * 2,
                        mem_base_reg(),
                    ),
                    3 => Insn::lbz(d, off + self.rng.gen_range(0..4), mem_base_reg()),
                    _ => Insn::lbs(d, off + self.rng.gen_range(0..4), mem_base_reg()),
                }
                .expect("window offset fits in 16 bits");
                b.push(insn);
            }
            Kind::Store => {
                let off = self.word_offset();
                let insn = match self.rng.gen_range(0..3u32) {
                    0 => Insn::sw(off, mem_base_reg(), r),
                    1 => Insn::sh(
                        off + i32::from(self.rng.gen_range(0..2u16)) * 2,
                        mem_base_reg(),
                        r,
                    ),
                    _ => Insn::sb(off + self.rng.gen_range(0..4), mem_base_reg(), r),
                }
                .expect("window offset fits in 16 bits");
                b.push(insn);
            }
            Kind::Branch => {
                // A forward diamond: sf + bf/bnf over `k` simple instructions
                // (plus the architectural delay slot). Both paths rejoin, so
                // the construct is always bounded.
                let k = self.rng.gen_range(1..=3i32);
                let cond = self.cond();
                b.push(Insn::sf(cond, a, r));
                let branch = if self.rng.gen_range(0..2u32) == 0 {
                    Insn::bf(k + 2)
                } else {
                    Insn::bnf(k + 2)
                }
                .expect("short forward offset fits");
                b.push(branch);
                b.push(Insn::nop(0)); // delay slot
                for _ in 0..k {
                    let insn = self.simple_alu();
                    b.push(insn);
                }
            }
            Kind::Jump => {
                // A forward jump over `k` instructions that therefore never
                // execute architecturally — they exercise wrong-path fetch.
                let k = self.rng.gen_range(1..=2i32);
                b.push(Insn::j(k + 2).expect("short forward offset fits"));
                b.push(Insn::nop(0)); // delay slot
                for _ in 0..k {
                    let insn = self.simple_alu();
                    b.push(insn);
                }
            }
        }
    }
}

/// Generates one deterministic, terminating ORBIS32 program from `seed`.
///
/// The program preloads every generator register with seed-derived
/// constants, then emits [`GenConfig::blocks`] code blocks. Each block opens
/// up to [`GenConfig::max_loop_depth`] nested loops with bounded counters,
/// fills its body by sampling the configured [`ClassMix`], and closes every
/// loop with a `counter -= 1; l.sfnei; l.bf` back-branch (plus delay slot).
/// The image ends with the `l.nop 1` exit marker.
///
/// # Panics
///
/// In debug builds, panics if the generated image fails its encode/decode
/// round-trip — that indicates a bug in the generator or the instruction
/// codec, never a property of the seed. Release builds skip the check (it
/// is pure verification and cannot change the returned program); the test
/// suite runs it over every seed population it touches.
#[must_use]
pub fn generate_program(seed: u64, config: &GenConfig) -> Program {
    let cfg = config.clamped();
    let mut gen = Gen {
        rng: SmallRng::seed_from_u64(seed),
        cfg: &cfg,
    };
    let mut b = ProgramBuilder::named(format!("synthetic_{seed:016x}"));

    // Prologue: scratch-window base plus seed-derived register values.
    b.load_const(mem_base_reg(), MEM_BASE);
    for &r in &DATA_REGS {
        let value: u32 = gen.rng.gen();
        b.load_const(Reg::r(r), value);
    }

    for block in 0..cfg.blocks {
        let depth = gen.rng.gen_range(0..=cfg.max_loop_depth);
        let mut open_loops = Vec::with_capacity(depth);
        for (level, &counter_index) in COUNTER_REGS.iter().enumerate().take(depth) {
            let counter = Reg::r(counter_index);
            let iters = gen.rng.gen_range(1..=cfg.max_loop_iters) as i32;
            b.push(Insn::addi(counter, Reg::R0, iters).expect("iteration bound fits"));
            let label = b.bind_label(format!("b{block}_l{level}"));
            open_loops.push((counter, label));
        }
        for _ in 0..cfg.block_len {
            gen.emit_step(&mut b);
        }
        for (counter, label) in open_loops.into_iter().rev() {
            b.push(Insn::addi(counter, counter, -1).expect("decrement fits"));
            b.push(Insn::sfi(SetFlagCond::Ne, counter, 0).expect("zero fits"));
            b.push_branch_to(Opcode::Bf, label)
                .expect("loop back-branch is in range");
            b.push(Insn::nop(0)); // delay slot
        }
    }
    b.push(Insn::nop(1)); // exit marker

    let program = b.build();
    // Encode/assemble round-trip: the generated image must survive the trip
    // through its 32-bit machine words unchanged. Verification only — gated
    // out of release builds, where generation sits on the sweep's phase-1
    // critical path.
    #[cfg(debug_assertions)]
    {
        let words = program.to_words();
        let reloaded = Program::from_words(program.name(), program.base_address(), &words)
            .expect("generated program decodes from its own machine words");
        assert_eq!(
            reloaded.insns(),
            program.insns(),
            "generated program failed its encode/decode round-trip (seed {seed:#x})"
        );
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use idca_pipeline::{SimConfig, Simulator};

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GenConfig::default();
        let a = generate_program(42, &cfg);
        let b = generate_program(42, &cfg);
        assert_eq!(a.insns(), b.insns());
        assert_ne!(
            generate_program(42, &cfg).insns(),
            generate_program(43, &cfg).insns()
        );
    }

    #[test]
    fn every_seed_terminates_on_the_pipeline() {
        let cfg = GenConfig::default();
        let sim = Simulator::new(SimConfig::default());
        for i in 0..24 {
            let seed = nth_seed(0xFEED, i);
            let program = generate_program(seed, &cfg);
            let result = sim
                .run_observed(&program, &mut [])
                .unwrap_or_else(|e| panic!("seed {seed:#x} failed: {e}"));
            assert!(result.summary.cycles > 50, "seed {seed:#x} is too short");
            assert!(
                result.summary.cycles < SimConfig::default().max_cycles,
                "seed {seed:#x} hit the cycle limit"
            );
        }
    }

    #[test]
    fn zero_weight_disables_a_class() {
        let cfg = GenConfig {
            mix: ClassMix {
                mul: 0,
                ..ClassMix::default()
            },
            ..GenConfig::default()
        };
        for seed in [1u64, 2, 3] {
            let program = generate_program(seed, &cfg);
            assert!(
                program
                    .insns()
                    .iter()
                    .all(|i| i.timing_class() != idca_isa::TimingClass::Mul),
                "seed {seed}: multiply emitted despite zero weight"
            );
        }
    }

    #[test]
    fn no_control_flow_without_loops_or_branch_weight() {
        let cfg = GenConfig {
            max_loop_depth: 0,
            mix: ClassMix {
                branch: 0,
                jump: 0,
                ..ClassMix::default()
            },
            ..GenConfig::default()
        };
        let program = generate_program(5, &cfg);
        assert!(program.insns().iter().all(|i| !matches!(
            i.opcode(),
            Opcode::Bf | Opcode::Bnf | Opcode::J | Opcode::Jal | Opcode::Jr | Opcode::Jalr
        )));
    }

    #[test]
    fn memory_accesses_stay_inside_the_window() {
        let cfg = GenConfig {
            mem_window_words: 64,
            ..GenConfig::default()
        };
        for seed in 0..8u64 {
            let program = generate_program(seed, &cfg);
            for insn in program.insns() {
                if insn.opcode().is_mem() {
                    let off = insn.imm().unwrap_or(0);
                    assert!(
                        (0..64 * 4 + 4).contains(&off),
                        "seed {seed}: offset {off} escapes the window"
                    );
                }
            }
        }
    }

    #[test]
    fn extreme_configs_are_clamped_to_valid_programs() {
        let cfg = GenConfig {
            blocks: 0,
            block_len: 0,
            max_loop_depth: 99,
            max_loop_iters: 0,
            mem_window_words: 1 << 30,
            ..GenConfig::default()
        };
        let program = generate_program(9, &cfg);
        assert!(!program.is_empty());
        Simulator::new(SimConfig::default())
            .run_observed(&program, &mut [])
            .expect("clamped config still terminates");
    }

    #[test]
    fn seed_stream_is_deterministic_and_spread_out() {
        assert_eq!(nth_seed(1, 0), nth_seed(1, 0));
        assert_ne!(nth_seed(1, 0), nth_seed(1, 1));
        assert_ne!(nth_seed(1, 0), nth_seed(2, 0));
    }

    #[test]
    fn content_hash_tracks_effective_configuration() {
        let base = GenConfig::default();
        assert_eq!(base.content_hash(), GenConfig::default().content_hash());
        // Every knob that can change a generated program changes the hash.
        let variants = [
            GenConfig {
                blocks: base.blocks + 1,
                ..base
            },
            GenConfig {
                block_len: base.block_len + 1,
                ..base
            },
            GenConfig {
                max_loop_depth: base.max_loop_depth + 1,
                ..base
            },
            GenConfig {
                max_loop_iters: base.max_loop_iters + 1,
                ..base
            },
            GenConfig {
                mem_window_words: base.mem_window_words + 1,
                ..base
            },
            GenConfig {
                mix: ClassMix {
                    mul: base.mix.mul + 1,
                    ..base.mix
                },
                ..base
            },
        ];
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(variant.content_hash(), base.content_hash(), "variant {i}");
        }
        // Clamping means out-of-range knobs collapse onto their effective
        // values: both configs generate identical programs, so they must
        // share a cache key.
        let clamped = GenConfig {
            max_loop_depth: 99,
            ..base
        };
        let effective = GenConfig {
            max_loop_depth: 3,
            ..base
        };
        assert_eq!(clamped.content_hash(), effective.content_hash());
    }
}
