//! The timing digest: a compact, replayable per-cycle view of one execution.
//!
//! A Monte Carlo PVT sweep evaluates the *same* program against many
//! corner-varied timing models. Architectural execution is identical across
//! corners, so re-running the full pipeline simulation per corner wastes
//! almost all of its work: the timing analyses only ever consume
//!
//! * the instruction **class** occupying each stage,
//! * the data-dependent **path excitation** of each stage (a normalized
//!   `[0, 1]` descriptor derived from operand activity — carry chains,
//!   multiplier widths, popcounts, forwarding, redirects),
//! * the fetch address (salt of the per-cycle residual-variation dither),
//! * and a handful of **activity bits** (execute occupancy, memory access,
//!   multiplier use, branches, forwarding) for the power model.
//!
//! [`DigestCycle`] records exactly that, [`DigestObserver`] captures it in
//! the same streaming pass as every other [`CycleObserver`], and
//! [`TimingDigest`] stores the cycle stream deduplicated (a pool of unique
//! cycles) and run-length encoded, so loop-heavy kernels with value-stable
//! activity compress toward their basic-block count. The timing and core
//! crates provide `replay_digest` entry points that fold a digest against
//! any [`idca_timing`-style] model and reproduce the direct simulation's
//! results **bit-identically** — turning an `N×M` sweep into `N` simulation
//! passes plus `N×M` cheap digest folds.
//!
//! [`idca_timing`-style]: crate::CycleRecord
//!
//! Digests are **fault-invariant**: injected fault scenarios (voltage
//! droops, delay spikes, corner shifts) perturb the *timing evaluation* of
//! a cycle downstream, never the digested execution itself, so one cached
//! digest serves every fault scenario — which is also why the digest-cache
//! key carries no fault spec.
//!
//! Interrupt scenarios are different: they change the executed cycle stream
//! itself, so a digest is **interrupt-variant** and additionally carries a
//! versioned *event stream* (codec v3) of [`DigestEvent`]s — interrupt
//! entries/returns, timer fires and MMIO touches — from which replay
//! reconstructs per-cycle interrupt phases and peripheral statistics
//! without re-simulating. Interrupt-free digests have an empty event
//! stream, and their cycle/run tables are unchanged from v1.
//!
//! # Excitation coefficients
//!
//! The downstream timing model blends every stage's raw excitation with a
//! per-cycle pseudo-random dither derived from `(cycle, stage,
//! fetch_address)`. All raw excitations are *affine* in that dither, so a
//! [`StageExcitation`] stores the two coefficients `(base, dither_gain)`
//! instead of a value: the replay recomputes `base + dither_gain × dither`
//! with the exact arithmetic of the direct path, which is what makes the
//! replay bit-identical while keeping [`DigestCycle`] independent of the
//! cycle index (a prerequisite for run-length encoding).

use crate::{
    frame, CycleObserver, CycleRecord, CycleRecordFlags, DigestEvent, ExecActivity, FormatError,
    Occupant, RunSummary, Stage,
};
use idca_isa::{Insn, TimingClass, INSN_BYTES};
use std::sync::Arc;

/// Data-dependent path excitation of one stage in one cycle, expressed as
/// coefficients of the per-cycle dither: `raw = base + dither_gain × dither`
/// with `dither ∈ [0, 1]`.
///
/// Both coefficients lie in `[0, 1]`: every value the excitation model
/// produces does, and [`TimingDigest::from_bytes`] rejects a digest holding
/// any other value (NaN included) even under a valid checksum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageExcitation {
    /// Dither-independent part of the raw excitation.
    pub base: f64,
    /// Sensitivity of the raw excitation to the per-cycle dither.
    pub dither_gain: f64,
}

impl StageExcitation {
    /// The raw (pre-blend) excitation at a given dither value. Every layer
    /// evaluates the same `base + gain × dither` expression, so live and
    /// replayed cycles produce bit-identical delays.
    #[must_use]
    pub fn raw(&self, dither: f64) -> f64 {
        self.base + self.dither_gain * dither
    }
}

/// Everything the excitation model reads of one cycle besides the six stage
/// classes. The unhinted, hinted and fused captures only gather it, each
/// from its own source; [`excitation`] turns it into coefficients.
#[derive(Clone, Copy)]
struct Activity {
    /// A branch or jump redirected the fetch address this cycle.
    fetch_redirected: bool,
    /// The fetch occupant's [`fetch_base`] (`None` for a bubble).
    fetch_base: Option<f64>,
    /// The decode occupant's [`decode_base`] (`None` for a bubble).
    decode_base: Option<f64>,
    /// The execute-stage activity (`None` when nothing executes).
    exec: Option<ExecActivity>,
    /// Load data returned by the control stage, if any.
    mem_return: Option<u32>,
    /// Value written to the register file, if any.
    wb_value: Option<u32>,
}

/// The activity → excitation model (the paper's "which paths does this
/// operand pattern toggle" question), written once for every capture path.
/// Every coefficient lies in `[0, 1]`: carry chains and multiplier widths
/// are at most 32 and shift amounts at most 31, popcount fractions and the
/// load/store drive at most 1, and the forwarding bump is clamped.
#[inline(always)]
fn excitation(
    classes: &[TimingClass; Stage::COUNT],
    activity: &Activity,
) -> [StageExcitation; Stage::COUNT] {
    let ex = |base: f64, dither_gain: f64| StageExcitation { base, dither_gain };
    let bubble = ex(0.35, 0.0);
    let redirected = activity.fetch_redirected && is_control_class(classes[Stage::Address.index()]);
    let address = if redirected {
        // Branch-target adder + PC mux + instruction-memory address setup:
        // the long address-stage path.
        ex(0.70, 0.30)
    } else {
        ex(0.30, 0.40)
    };
    let fetch = activity.fetch_base.map_or(bubble, |base| ex(base, 0.0));
    let decode = activity.decode_base.map_or(bubble, |base| ex(base, 0.12));
    let execute = match &activity.exec {
        None => 0.40,
        Some(exec) => {
            let e = match classes[Stage::Execute.index()] {
                TimingClass::Add | TimingClass::SetFlag => f64::from(exec.carry_chain) / 32.0,
                TimingClass::Mul => f64::from(exec.mul_bits) / 32.0,
                TimingClass::Shift => f64::from(exec.shift_amount) / 31.0,
                TimingClass::And | TimingClass::Or | TimingClass::Xor | TimingClass::Move => {
                    // Operand toggling at the logic unit.
                    popcount_frac(exec.op_a ^ exec.op_b)
                }
                TimingClass::Load | TimingClass::Store => {
                    // The LSU path (address adder → SRAM address/write
                    // pins) is driven by the address-generation carry chain
                    // and by how many address bits toggle at the macro
                    // inputs; the address space is 16 bits wide, so
                    // toggling is normalized to it.
                    let address = exec.mem_address.unwrap_or(0);
                    let addr_toggle = f64::from((address & 0xFFFF).count_ones()) / 16.0;
                    let drive = (f64::from(exec.carry_chain) / 32.0).max(addr_toggle);
                    0.45 + 0.55 * drive
                }
                TimingClass::BranchCond if exec.branch_taken == Some(true) => 0.85,
                TimingClass::BranchCond => 0.45,
                TimingClass::Jump => 0.55,
                TimingClass::JumpReg => popcount_frac(exec.result).max(0.5),
                TimingClass::Nop => 0.30,
                TimingClass::Bubble => 0.40,
            };
            if exec.forwarded {
                // The forwarding multiplexers lengthen the operand path.
                (e + 0.12).min(1.0)
            } else {
                e
            }
        }
    };
    let control = match classes[Stage::Control.index()] {
        TimingClass::Load => ex(
            0.30 + 0.70 * popcount_frac(activity.mem_return.unwrap_or(0)),
            0.0,
        ),
        TimingClass::Store => ex(0.35, 0.45),
        TimingClass::Mul => ex(0.45, 0.35),
        TimingClass::Bubble => bubble,
        _ => ex(0.35, 0.35),
    };
    let writeback = activity
        .wb_value
        .map_or(bubble, |value| ex(0.25 + 0.75 * popcount_frac(value), 0.0));
    [address, fetch, decode, ex(execute, 0.0), control, writeback]
}

/// The instruction-static part of the fetch-stage excitation (instruction
/// word toggling on the fetch bus).
fn fetch_base(insn: &Insn) -> f64 {
    0.25 + 0.75 * popcount_frac(insn.encode())
}

/// The instruction-static part of the decode-stage excitation (operand-port
/// and immediate decoder activity).
fn decode_base(insn: &Insn) -> f64 {
    let mut e = 0.35;
    if insn.opcode().reads_ra() {
        e += 0.18;
    }
    if insn.opcode().reads_rb() {
        e += 0.18;
    }
    if insn.imm().is_some() {
        e += 0.12;
    }
    e
}

/// Per-instruction digest excitation facts that depend only on the
/// instruction word: its timing class and the static fetch- and
/// decode-stage excitation bases. A [`crate::PredecodedProgram`] computes
/// one table per program; [`DigestObserver::with_hints`] then skips the
/// per-cycle instruction re-encode and accessor matching during capture.
/// Hinted and unhinted capture are bit-identical (pinned by tests): the
/// table stores the results of the same functions the unhinted capture
/// calls.
#[derive(Debug, Clone)]
pub struct DigestHints {
    base: u32,
    entries: Vec<HintEntry>,
}

#[derive(Debug, Clone, Copy)]
struct HintEntry {
    class: TimingClass,
    fetch_base: f64,
    decode_base: f64,
}

impl DigestHints {
    /// Precomputes the hint table for a program image starting at byte
    /// address `base`.
    #[must_use]
    pub fn for_insns(base: u32, insns: &[Insn]) -> DigestHints {
        let entries = insns
            .iter()
            .map(|insn| HintEntry {
                class: insn.timing_class(),
                fetch_base: fetch_base(insn),
                decode_base: decode_base(insn),
            })
            .collect();
        DigestHints { base, entries }
    }

    /// The hint entry for the instruction at byte address `pc`, or `None`
    /// when `pc` is outside the table or misaligned (the caller then falls
    /// back to deriving the facts from the record's instruction word).
    fn entry(&self, pc: u32) -> Option<&HintEntry> {
        let offset = pc.wrapping_sub(self.base);
        if pc < self.base || !offset.is_multiple_of(INSN_BYTES) {
            return None;
        }
        self.entries.get((offset / INSN_BYTES) as usize)
    }
}

fn is_control_class(class: TimingClass) -> bool {
    matches!(
        class,
        TimingClass::Jump | TimingClass::JumpReg | TimingClass::BranchCond
    )
}

fn popcount_frac(value: u32) -> f64 {
    f64::from(value.count_ones()) / 32.0
}

/// The timing class of one stage occupant, and its hint entry when `hints`
/// covers the occupant's pc.
#[inline(always)]
fn classify<'h>(
    occupant: &Occupant,
    hints: Option<&'h DigestHints>,
) -> (TimingClass, Option<&'h HintEntry>) {
    match occupant {
        Occupant::Insn { pc, insn, .. } => match hints.and_then(|h| h.entry(*pc)) {
            Some(entry) => (entry.class, Some(entry)),
            None => (insn.timing_class(), None),
        },
        Occupant::Bubble => (TimingClass::Bubble, None),
    }
}

/// Digests one cycle record: the unhinted capture (the reference) without
/// `hints`, the hinted one with them. Occupants whose pc falls outside the
/// hint table take the unhinted derivation. The six stage lookups are
/// written out: gathering them through `Stage::ALL.map` made capture about
/// a quarter slower.
#[inline(always)]
fn capture(record: &CycleRecord, hints: Option<&DigestHints>) -> DigestCycle {
    let fetch = record.occupant(Stage::Fetch);
    let decode = record.occupant(Stage::Decode);
    let (adr_class, _) = classify(record.occupant(Stage::Address), hints);
    let (fe_class, fe_hint) = classify(fetch, hints);
    let (dc_class, dc_hint) = classify(decode, hints);
    let (ex_class, _) = classify(record.occupant(Stage::Execute), hints);
    let (ctl_class, _) = classify(record.occupant(Stage::Control), hints);
    let (wb_class, _) = classify(record.occupant(Stage::Writeback), hints);
    let classes = [adr_class, fe_class, dc_class, ex_class, ctl_class, wb_class];
    let activity = Activity {
        fetch_redirected: record.fetch_redirected,
        fetch_base: fetch
            .insn()
            .map(|insn| fe_hint.map_or_else(|| fetch_base(insn), |h| h.fetch_base)),
        decode_base: decode
            .insn()
            .map(|insn| dc_hint.map_or_else(|| decode_base(insn), |h| h.decode_base)),
        exec: record.exec,
        mem_return: record.mem_return,
        wb_value: record.writeback,
    };
    DigestCycle {
        classes,
        excitation: excitation(&classes, &activity),
        fetch_address: record.fetch_address,
        flags: CycleRecordFlags::of_exec(record.exec.as_ref()),
    }
}

/// The timing-relevant content of one simulated cycle: per-stage instruction
/// classes and excitation coefficients, the fetch address (dither salt) and
/// the activity bits consumed by the power model. Deliberately free of the
/// cycle index, so identical pipeline situations produce identical digest
/// cycles regardless of when they occur.
///
/// This is the only per-cycle input of the timing and core layers: live
/// observers digest each record with [`DigestCycle::of_record`] and run the
/// same evaluation digest replay runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigestCycle {
    /// Timing class occupying each stage (indexed by [`Stage::index`]).
    pub classes: [TimingClass; Stage::COUNT],
    /// Excitation coefficients of each stage (indexed by [`Stage::index`]).
    pub excitation: [StageExcitation; Stage::COUNT],
    /// Instruction-memory address presented this cycle (dither salt).
    pub fetch_address: u32,
    /// Activity bits ([`CycleRecordFlags`]) for occupancy/power accounting.
    pub flags: CycleRecordFlags,
}

impl DigestCycle {
    /// Extracts the digest of one cycle record — the unhinted reference
    /// capture the hinted and fused captures are pinned against.
    #[must_use]
    pub fn of_record(record: &CycleRecord) -> DigestCycle {
        capture(record, None)
    }
}

/// Bit-exact digest-cycle equality: the dedup criterion of the observer's
/// pool. f64 coefficients are compared by bit pattern (never by value), so
/// dedup can never merge cycles whose serialized bytes would differ. The
/// fetch address leads because consecutive cycles almost always differ in
/// it, making the miss path a one-word compare.
fn same_cycle(a: &DigestCycle, b: &DigestCycle) -> bool {
    a.fetch_address == b.fetch_address
        && a.flags == b.flags
        && a.classes == b.classes
        && a.excitation.iter().zip(&b.excitation).all(|(x, y)| {
            x.base.to_bits() == y.base.to_bits()
                && x.dither_gain.to_bits() == y.dither_gain.to_bits()
        })
}

/// 64-bit content hash of a digest cycle for the dedup index: five word
/// mixes — packed classes, fetch address + flags, and the three excitation
/// bases that actually vary with data (execute, control, writeback; the
/// front-stage coefficients are functions of the classes already mixed).
/// Collisions are handled exactly (see [`DedupIndex`]), so the hash quality
/// only affects speed, never the digest bytes.
fn cycle_hash(dc: &DigestCycle) -> u64 {
    let mut h = DigestKeyHasher::default();
    let mut packed = 0u64;
    for (i, class) in dc.classes.iter().enumerate() {
        packed |= (class.index() as u64) << (8 * i);
    }
    h.mix(packed);
    h.mix(u64::from(dc.fetch_address) | (u64::from(dc.flags.bits()) << 32));
    h.mix(dc.excitation[Stage::Execute.index()].base.to_bits());
    h.mix(dc.excitation[Stage::Control.index()].base.to_bits());
    h.mix(dc.excitation[Stage::Writeback.index()].base.to_bits());
    h.0
}

/// One run of identical consecutive digest cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DigestRun {
    /// Index into the unique-cycle pool.
    cycle_id: u32,
    /// Number of consecutive occurrences.
    len: u32,
}

/// A complete, replayable timing digest of one program execution: the
/// deduplicated pool of unique [`DigestCycle`]s plus the run-length-encoded
/// cycle stream and the run totals.
///
/// Produced by [`DigestObserver`] (streaming) or
/// [`TimingDigest::from_trace`] (from a materialized trace). Consumed by the
/// `replay_digest` entry points of `idca-timing` and `idca-core`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingDigest {
    pool: Vec<DigestCycle>,
    runs: Vec<DigestRun>,
    /// Asynchronous events in cycle order (empty for interrupt-free runs).
    events: Vec<DigestEvent>,
    cycles: u64,
    retired: u64,
}

impl TimingDigest {
    /// Digests a materialized pipeline trace (test/offline convenience; the
    /// hot path streams through [`DigestObserver`] instead).
    #[must_use]
    pub fn from_trace(trace: &crate::PipelineTrace) -> TimingDigest {
        let mut observer = DigestObserver::new();
        for record in trace.cycles() {
            observer.observe_cycle(record);
        }
        observer.finish(&RunSummary {
            cycles: trace.cycle_count(),
            retired: trace.retired(),
        });
        observer.into_digest()
    }

    /// Number of simulated cycles the digest represents.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Architecturally retired instructions of the digested run.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The run totals, as every observer's `finish` received them.
    #[must_use]
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            cycles: self.cycles,
            retired: self.retired,
        }
    }

    /// Number of *unique* cycles in the pool (the digest's working set).
    #[must_use]
    pub fn unique_cycles(&self) -> usize {
        self.pool.len()
    }

    /// Number of RLE runs in the encoded stream.
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The asynchronous-event stream (interrupt entries/returns, timer
    /// fires, MMIO touches) in cycle order. Empty for interrupt-free runs.
    #[must_use]
    pub fn events(&self) -> &[DigestEvent] {
        &self.events
    }

    /// Expands the encoded stream, invoking `f` once per simulated cycle in
    /// execution order with the cycle index and the digest record. This is
    /// the replay driver: cycle indices are reconstructed from stream
    /// position, exactly as the simulator numbered them.
    pub fn for_each_cycle<F: FnMut(u64, &DigestCycle)>(&self, mut f: F) {
        let mut cycle: u64 = 0;
        for run in &self.runs {
            let dc = &self.pool[run.cycle_id as usize];
            for _ in 0..run.len {
                f(cycle, dc);
                cycle += 1;
            }
        }
    }

    /// Walks the encoded stream one *run-block* at a time, invoking `f` with
    /// the first cycle index of the block, the block length and the shared
    /// digest record. This is the batched replay driver: a consumer decodes
    /// the pooled cycle once per block instead of once per cycle (the
    /// corner-batched sweep walks run-blocks and only recomputes the
    /// cycle-indexed dither inside them).
    pub fn for_each_run<F: FnMut(u64, u32, &DigestCycle)>(&self, mut f: F) {
        let mut cycle: u64 = 0;
        for run in &self.runs {
            f(cycle, run.len, &self.pool[run.cycle_id as usize]);
            cycle += u64::from(run.len);
        }
    }

    /// Returns the digest of only the first `cycles` simulated cycles —
    /// the replay equivalent of truncating a characterization run (pool
    /// entries no longer referenced are dropped and ids are remapped in
    /// first-use order). The retired-instruction total is clamped to the
    /// new cycle count; it is an upper bound, not an architectural replay.
    #[must_use]
    pub fn truncated(&self, cycles: u64) -> TimingDigest {
        let mut out = TimingDigest::default();
        let mut remap: Vec<Option<u32>> = vec![None; self.pool.len()];
        let mut remaining = cycles;
        for run in &self.runs {
            if remaining == 0 {
                break;
            }
            let take = u64::from(run.len).min(remaining) as u32;
            remaining -= u64::from(take);
            let slot = &mut remap[run.cycle_id as usize];
            let id = *slot.get_or_insert_with(|| {
                out.pool.push(self.pool[run.cycle_id as usize]);
                (out.pool.len() - 1) as u32
            });
            out.runs.push(DigestRun {
                cycle_id: id,
                len: take,
            });
            out.cycles += u64::from(take);
        }
        out.events = self
            .events
            .iter()
            .copied()
            .filter(|event| event.cycle < out.cycles)
            .collect();
        out.retired = self.retired.min(out.cycles);
        out
    }

    /// Serializes the digest to the compact versioned binary format: a
    /// [`frame`] under magic `IDCADGST`, whose body is
    ///
    /// ```text
    /// cycles u64 | retired u64 | pool_len u32 | runs_len u32 | events_len u32
    /// | pool entries | run entries | event entries
    /// ```
    ///
    /// (all integers little-endian). The frame checksum covers the whole
    /// body, run totals and tables alike, so any single corrupted byte of a
    /// stored digest is detected. Each pool entry stores the six stage
    /// classes (one byte each), the six excitation coefficient pairs as raw
    /// `f64` bit patterns (replay must be bit-exact, so the float round-trip
    /// is by bits, never by text), the fetch address and the activity
    /// flags; each run entry is a `(cycle_id, len)` pair; each event entry
    /// (new in v3) is a `(cycle u64, kind u8, payload u32)` triple of the
    /// asynchronous-event stream. [`TimingDigest::from_bytes`] re-validates
    /// every structural invariant, so a digest loaded from disk is as
    /// trustworthy as a freshly captured one.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_len = self.pool.len() * codec::POOL_ENTRY_BYTES
            + self.runs.len() * codec::RUN_ENTRY_BYTES
            + self.events.len() * codec::EVENT_ENTRY_BYTES;
        let mut body = Vec::with_capacity(codec::BODY_HEADER_BYTES + payload_len);
        body.extend_from_slice(&self.cycles.to_le_bytes());
        body.extend_from_slice(&self.retired.to_le_bytes());
        body.extend_from_slice(&(self.pool.len() as u32).to_le_bytes());
        body.extend_from_slice(&(self.runs.len() as u32).to_le_bytes());
        body.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for dc in &self.pool {
            for class in dc.classes {
                body.push(class.index() as u8);
            }
            for excitation in dc.excitation {
                body.extend_from_slice(&excitation.base.to_bits().to_le_bytes());
                body.extend_from_slice(&excitation.dither_gain.to_bits().to_le_bytes());
            }
            body.extend_from_slice(&dc.fetch_address.to_le_bytes());
            body.push(dc.flags.bits());
        }
        for run in &self.runs {
            body.extend_from_slice(&run.cycle_id.to_le_bytes());
            body.extend_from_slice(&run.len.to_le_bytes());
        }
        for event in &self.events {
            let (kind, payload) = codec::encode_event_kind(event.kind);
            body.extend_from_slice(&event.cycle.to_le_bytes());
            body.push(kind);
            body.extend_from_slice(&payload.to_le_bytes());
        }
        frame::seal(codec::MAGIC, codec::VERSION, &body)
    }

    /// Deserializes a digest produced by [`TimingDigest::to_bytes`].
    ///
    /// Every failure mode of a file from disk — wrong magic, unknown
    /// version, truncation, trailing garbage, a flipped payload bit, classes
    /// or run ids out of range, excitation coefficients outside `[0, 1]`,
    /// run lengths that do not add up to the header cycle count — is
    /// reported as a [`FormatError`]; no input can panic this parser or
    /// yield a structurally inconsistent digest.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] describing the first violation found.
    pub fn from_bytes(bytes: &[u8]) -> Result<TimingDigest, FormatError> {
        let mut r = frame::open(bytes, codec::MAGIC, codec::VERSION)?;
        let cycles = r.u64()?;
        let retired = r.u64()?;
        let pool_len = r.u32()? as usize;
        let runs_len = r.u32()? as usize;
        let events_len = r.u32()? as usize;
        r.expect_tables(&[
            (pool_len, codec::POOL_ENTRY_BYTES),
            (runs_len, codec::RUN_ENTRY_BYTES),
            (events_len, codec::EVENT_ENTRY_BYTES),
        ])?;

        let mut pool = Vec::with_capacity(pool_len);
        for _ in 0..pool_len {
            let mut classes = [TimingClass::Bubble; Stage::COUNT];
            for slot in &mut classes {
                let index = r.u8()? as usize;
                *slot = *TimingClass::ALL
                    .get(index)
                    .ok_or(FormatError::Malformed("timing class out of range"))?;
            }
            let mut excitation = [StageExcitation {
                base: 0.0,
                dither_gain: 0.0,
            }; Stage::COUNT];
            for slot in &mut excitation {
                slot.base = r.f64_bits()?;
                slot.dither_gain = r.f64_bits()?;
                // The checksum detects corruption but does not
                // authenticate: range-check what the model can produce.
                if !(0.0..=1.0).contains(&slot.base) || !(0.0..=1.0).contains(&slot.dither_gain) {
                    return Err(FormatError::Malformed(
                        "excitation coefficient outside [0, 1]",
                    ));
                }
            }
            let fetch_address = r.u32()?;
            let flags = CycleRecordFlags::from_bits(r.u8()?)
                .ok_or(FormatError::Malformed("undefined activity flag bits"))?;
            pool.push(DigestCycle {
                classes,
                excitation,
                fetch_address,
                flags,
            });
        }

        let mut runs = Vec::with_capacity(runs_len);
        let mut total: u64 = 0;
        for _ in 0..runs_len {
            let cycle_id = r.u32()?;
            let len = r.u32()?;
            if cycle_id as usize >= pool_len {
                return Err(FormatError::Malformed("run references missing pool id"));
            }
            if len == 0 {
                return Err(FormatError::Malformed("empty run"));
            }
            total += u64::from(len);
            runs.push(DigestRun { cycle_id, len });
        }
        if total != cycles {
            return Err(FormatError::Malformed(
                "run lengths disagree with header cycle count",
            ));
        }
        if retired > cycles {
            // A pipeline cannot retire more instructions than it ran cycles;
            // live capture and `truncated` both guarantee this.
            return Err(FormatError::Malformed("retired count exceeds cycle count"));
        }

        let mut events = Vec::with_capacity(events_len);
        let mut last_event_cycle: u64 = 0;
        for _ in 0..events_len {
            let cycle = r.u64()?;
            let kind_byte = r.u8()?;
            let payload = r.u32()?;
            let kind = codec::decode_event_kind(kind_byte, payload)?;
            if cycle >= cycles {
                return Err(FormatError::Malformed(
                    "event cycle beyond header cycle count",
                ));
            }
            if cycle < last_event_cycle {
                return Err(FormatError::Malformed("event cycles not nondecreasing"));
            }
            last_event_cycle = cycle;
            events.push(DigestEvent { cycle, kind });
        }

        Ok(TimingDigest {
            pool,
            runs,
            events,
            cycles,
            retired,
        })
    }
}

/// Body layout constants and event-kind mapping of the digest format.
mod codec {
    use crate::{DigestEventKind, FormatError, Stage};

    /// File magic of the digest format.
    pub(super) const MAGIC: &[u8; 8] = b"IDCADGST";
    /// Current format version. v3 added the asynchronous-event table
    /// (`events_len` in the body header plus event entries after the run
    /// table); v1/v2 files are rejected with
    /// [`FormatError::UnsupportedVersion`] rather than silently read
    /// without their event stream.
    pub(super) const VERSION: u32 = 3;
    /// Body header: cycles + retired + pool_len + runs_len + events_len.
    pub(super) const BODY_HEADER_BYTES: usize = 8 + 8 + 4 + 4 + 4;
    /// Serialized size of one pool entry: classes + excitation coefficient
    /// pairs + fetch address + flags.
    pub(super) const POOL_ENTRY_BYTES: usize = Stage::COUNT + Stage::COUNT * 16 + 4 + 1;
    /// Serialized size of one run entry.
    pub(super) const RUN_ENTRY_BYTES: usize = 8;
    /// Serialized size of one event entry: cycle + kind + payload.
    pub(super) const EVENT_ENTRY_BYTES: usize = 8 + 1 + 4;

    /// Maps an event kind onto its `(kind byte, payload)` wire pair.
    pub(super) fn encode_event_kind(kind: DigestEventKind) -> (u8, u32) {
        match kind {
            DigestEventKind::IrqEntry { line } => (0, u32::from(line)),
            DigestEventKind::IrqReturn => (1, 0),
            DigestEventKind::TimerFire => (2, 0),
            DigestEventKind::MmioLoad { address } => (3, address),
            DigestEventKind::MmioStore { address } => (4, address),
        }
    }

    /// Inverse of [`encode_event_kind`]; rejects unknown kinds and payloads
    /// a kind cannot carry, so a decoded event always re-encodes to the
    /// same bytes.
    pub(super) fn decode_event_kind(
        kind: u8,
        payload: u32,
    ) -> Result<DigestEventKind, FormatError> {
        match kind {
            0 => {
                let line = u8::try_from(payload)
                    .map_err(|_| FormatError::Malformed("interrupt line out of range"))?;
                Ok(DigestEventKind::IrqEntry { line })
            }
            1 | 2 => {
                if payload != 0 {
                    return Err(FormatError::Malformed(
                        "nonzero payload on payloadless event",
                    ));
                }
                Ok(if kind == 1 {
                    DigestEventKind::IrqReturn
                } else {
                    DigestEventKind::TimerFire
                })
            }
            3 => Ok(DigestEventKind::MmioLoad { address: payload }),
            4 => Ok(DigestEventKind::MmioStore { address: payload }),
            _ => Err(FormatError::Malformed("undefined event kind")),
        }
    }
}

/// Fast non-cryptographic word mixer for the digest dedup index (the
/// default SipHash showed up as a main cost of digest capture).
/// [`cycle_hash`] folds a cycle's words through it; [`DedupIndex`] uses the
/// result directly as the probe start. A multiply-rotate mix is safe here
/// because every hash hit is verified exactly — pool ids are assigned in
/// insertion order regardless of hash, so the digest bytes cannot change.
#[derive(Debug, Default)]
struct DigestKeyHasher(u64);

impl DigestKeyHasher {
    const K: u64 = 0x517C_C1B7_2722_0A95;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

/// Open-addressing dedup index: flat `(hash, pool_id)` slots with linear
/// probing, kept at most half full. Every hash hit is verified bit-exactly
/// with [`same_cycle`] before the pool id is reused, and a colliding-but-
/// different cycle simply probes onward, so hash quality (and the probe
/// order itself) can only affect speed — pool ids are always assigned in
/// first-occurrence order, which is what pins the digest bytes.
#[derive(Debug, Default)]
struct DedupIndex {
    /// `id == u32::MAX` marks an empty slot. Length is a power of two.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl DedupIndex {
    const EMPTY: u32 = u32::MAX;

    /// Finds the pool id of `dc`, or inserts `next_id` for it and returns
    /// `None`. `pool` is the observer's unique-cycle pool (for exact
    /// verification of hash hits).
    fn find_or_insert(
        &mut self,
        dc: &DigestCycle,
        pool: &[DigestCycle],
        next_id: u32,
    ) -> Option<u32> {
        if self.slots.len() < (self.len + 1) * 2 {
            self.grow();
        }
        let hash = cycle_hash(dc);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (slot_hash, slot_id) = self.slots[i];
            if slot_id == Self::EMPTY {
                self.slots[i] = (hash, next_id);
                self.len += 1;
                return None;
            }
            if slot_hash == hash && same_cycle(dc, &pool[slot_id as usize]) {
                return Some(slot_id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table and reinserts every pool id by its recorded hash.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(1024);
        let mask = new_cap - 1;
        let mut slots = vec![(0u64, Self::EMPTY); new_cap];
        for &(hash, id) in self.slots.iter().filter(|(_, id)| *id != Self::EMPTY) {
            let mut i = hash as usize & mask;
            while slots[i].1 != Self::EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = (hash, id);
        }
        self.slots = slots;
    }
}

/// The facts of one hazard-free fast-path cycle, as recorded by the
/// predecoded engine's basic-block burst loop: per-stage micro-op table
/// indices (the address/fetch/decode/execute stages always hold table ops
/// during a burst; control and writeback may still carry pre-burst bubbles)
/// plus the execute stage's [`ExecActivity`] and the control and writeback
/// values. Everything [`DigestObserver::observe_fast_cycle`] needs to
/// reproduce — bit-exactly — the [`DigestCycle`] that hinted record capture
/// would extract from the equivalent [`CycleRecord`], without that record
/// ever being materialized.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastCycleFacts {
    /// Instruction-memory address presented this cycle (dither salt).
    pub fetch_address: u32,
    /// Micro-op index of the address-stage occupant (the op at `fetch_address`).
    pub adr_idx: u32,
    /// Micro-op index of the fetch-stage occupant.
    pub fe_idx: u32,
    /// Micro-op index of the decode-stage occupant.
    pub dc_idx: u32,
    /// Micro-op index of the execute-stage occupant.
    pub ex_idx: u32,
    /// Micro-op index of the control-stage occupant (`None` = bubble).
    pub ctrl_idx: Option<u32>,
    /// Micro-op index of the writeback-stage occupant (`None` = bubble).
    pub wb_idx: Option<u32>,
    /// Load data returned by the control stage this cycle, if any.
    pub mem_return: Option<u32>,
    /// Value written to the register file this cycle, if any.
    pub wb_value: Option<u32>,
    /// The execute op's activity (a plain op: no branch resolves).
    pub exec: ExecActivity,
}

/// Streaming digest capture: a [`CycleObserver`] that folds every
/// [`CycleRecord`] into a [`TimingDigest`] as the simulator produces it —
/// phase 1 of the simulate-once / evaluate-many sweep.
#[derive(Debug, Default)]
pub struct DigestObserver {
    digest: TimingDigest,
    /// Content-hash index over the pool, verified exactly on every hit.
    index: DedupIndex,
    /// Pool id of the previous cycle (run-length extension check).
    last_id: Option<u32>,
    hints: Option<Arc<DigestHints>>,
}

impl DigestObserver {
    /// Creates an empty digest observer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an observer that captures through a precomputed
    /// [`DigestHints`] table (see
    /// [`crate::PredecodedProgram::digest_hints`]). Produces bit-identical
    /// digests to [`DigestObserver::new`]; the hints only skip redundant
    /// per-cycle work.
    #[must_use]
    pub fn with_hints(hints: Arc<DigestHints>) -> Self {
        DigestObserver {
            hints: Some(hints),
            ..Self::default()
        }
    }

    /// Consumes the observer and returns the finished digest.
    #[must_use]
    pub fn into_digest(self) -> TimingDigest {
        self.digest
    }

    /// Folds one hazard-free fast-path cycle into the digest without an
    /// intermediate [`CycleRecord`]. Only reachable through
    /// [`CycleObserver::as_hinted_digest`], so `self.hints` is present and —
    /// by the caller pairing the observer with the program it simulates —
    /// indexes the same micro-op table the facts' indices point into.
    ///
    /// It gathers the same [`Activity`] the hinted record capture gathers
    /// for a burst cycle — an un-redirected cycle whose front four stages
    /// hold plain table ops — and runs the one excitation model and the one
    /// [`CycleRecordFlags::of_exec`] on it. The differential suite pins the
    /// resulting digests against full-record capture on the reference
    /// engine.
    pub(crate) fn observe_fast_cycle(&mut self, fc: &FastCycleFacts) {
        let hints = self.hints.as_ref().expect("fast-path capture is hinted");
        let entry = |idx: u32| &hints.entries[idx as usize];
        let class_of = |idx: Option<u32>| idx.map_or(TimingClass::Bubble, |idx| entry(idx).class);
        let (fetch, decode) = (entry(fc.fe_idx), entry(fc.dc_idx));
        let classes = [
            entry(fc.adr_idx).class,
            fetch.class,
            decode.class,
            entry(fc.ex_idx).class,
            class_of(fc.ctrl_idx),
            class_of(fc.wb_idx),
        ];
        let activity = Activity {
            fetch_redirected: false,
            fetch_base: Some(fetch.fetch_base),
            decode_base: Some(decode.decode_base),
            exec: Some(fc.exec),
            mem_return: fc.mem_return,
            wb_value: fc.wb_value,
        };
        self.push(DigestCycle {
            classes,
            excitation: excitation(&classes, &activity),
            fetch_address: fc.fetch_address,
            flags: CycleRecordFlags::of_exec(Some(&fc.exec)),
        });
    }

    fn push(&mut self, dc: DigestCycle) {
        self.digest.cycles += 1;
        if let Some(last) = self.last_id {
            if same_cycle(&dc, &self.digest.pool[last as usize]) {
                if let Some(run) = self.digest.runs.last_mut() {
                    run.len += 1;
                    return;
                }
            }
        }
        let next_id = self.digest.pool.len() as u32;
        let id = match self.index.find_or_insert(&dc, &self.digest.pool, next_id) {
            Some(id) => id,
            None => {
                self.digest.pool.push(dc);
                next_id
            }
        };
        self.digest.runs.push(DigestRun {
            cycle_id: id,
            len: 1,
        });
        self.last_id = Some(id);
    }
}

impl CycleObserver for DigestObserver {
    fn observe_cycle(&mut self, record: &CycleRecord) {
        self.push(capture(record, self.hints.as_deref()));
    }

    fn observe_event(&mut self, event: &DigestEvent) {
        debug_assert!(
            self.digest
                .events
                .last()
                .is_none_or(|last| last.cycle <= event.cycle),
            "events must arrive in cycle order"
        );
        self.digest.events.push(*event);
    }

    fn finish(&mut self, summary: &RunSummary) {
        self.digest.retired = summary.retired;
        debug_assert_eq!(self.digest.cycles, summary.cycles);
    }

    fn as_hinted_digest(&mut self) -> Option<&mut DigestObserver> {
        if self.hints.is_some() {
            Some(self)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DigestEventKind, SimConfig, Simulator};
    use idca_isa::asm::Assembler;

    fn trace(src: &str) -> crate::PipelineTrace {
        let program = Assembler::new().assemble(src).expect("assembles");
        Simulator::new(SimConfig::default())
            .run(&program)
            .expect("runs")
            .trace
    }

    #[test]
    fn digest_round_trips_the_cycle_stream() {
        let t = trace(
            "        l.addi r3, r0, 40
             loop:   l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.nop  0
                     l.nop  1",
        );
        let digest = TimingDigest::from_trace(&t);
        assert_eq!(digest.cycles(), t.cycle_count());
        assert_eq!(digest.retired(), t.retired());
        // Expansion reproduces, per cycle, exactly the digest of the
        // original record (RLE + pooling are lossless).
        let mut expanded = Vec::new();
        digest.for_each_cycle(|cycle, dc| expanded.push((cycle, *dc)));
        assert_eq!(expanded.len() as u64, t.cycle_count());
        for (record, (cycle, dc)) in t.cycles().iter().zip(&expanded) {
            assert_eq!(record.cycle, *cycle);
            assert_eq!(DigestCycle::of_record(record), *dc);
        }
    }

    #[test]
    fn value_stable_loops_compress_below_their_cycle_count() {
        // A loop whose per-iteration operand activity repeats (a countdown
        // re-excites mostly the same classes) must dedupe below 1:1; the
        // drain/reset bubbles at both ends also coalesce into runs.
        let t = trace(
            "        l.addi r3, r0, 200
             loop:   l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.nop  0
                     l.nop  1",
        );
        let digest = TimingDigest::from_trace(&t);
        assert!(digest.cycles() > 200);
        assert!(
            (digest.unique_cycles() as u64) < digest.cycles(),
            "pool {} should undercut {} cycles",
            digest.unique_cycles(),
            digest.cycles()
        );
    }

    #[test]
    fn run_block_walk_expands_to_the_cycle_walk() {
        let t = trace(
            "        l.addi r3, r0, 60
             loop:   l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.nop  0
                     l.nop  1",
        );
        let digest = TimingDigest::from_trace(&t);
        let mut per_cycle = Vec::new();
        digest.for_each_cycle(|cycle, dc| per_cycle.push((cycle, *dc)));
        let mut expanded = Vec::new();
        digest.for_each_run(|start, len, dc| {
            for offset in 0..u64::from(len) {
                expanded.push((start + offset, *dc));
            }
        });
        assert!(digest.run_count() as u64 <= digest.cycles());
        assert_eq!(expanded, per_cycle);
    }

    #[test]
    fn truncation_keeps_a_prefix_and_compacts_the_pool() {
        let t = trace(
            "        l.addi r3, r0, 80
             loop:   l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.nop  0
                     l.nop  1",
        );
        let digest = TimingDigest::from_trace(&t);
        let keep = digest.cycles() / 3;
        let short = digest.truncated(keep);
        assert_eq!(short.cycles(), keep);
        assert!(short.unique_cycles() <= digest.unique_cycles());
        let mut full = Vec::new();
        digest.for_each_cycle(|cycle, dc| {
            if cycle < keep {
                full.push((cycle, *dc));
            }
        });
        let mut prefix = Vec::new();
        short.for_each_cycle(|cycle, dc| prefix.push((cycle, *dc)));
        assert_eq!(prefix, full);
        // Truncating beyond the end is the identity on the cycle stream.
        assert_eq!(
            digest.truncated(digest.cycles() + 10).cycles(),
            digest.cycles()
        );
    }

    #[test]
    fn binary_round_trip_is_byte_exact() {
        let t = trace(
            "        l.addi r3, r0, 33
             loop:   l.mul  r4, r3, r3
                     l.sw   0(r0), r4
                     l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.nop  0
                     l.nop  1",
        );
        let digest = TimingDigest::from_trace(&t);
        let bytes = digest.to_bytes();
        let back = TimingDigest::from_bytes(&bytes).expect("round-trips");
        assert_eq!(back, digest);
        // Serializing the reloaded digest reproduces the identical bytes.
        assert_eq!(back.to_bytes(), bytes);
        // The empty digest round-trips too.
        let empty = TimingDigest::default();
        assert_eq!(
            TimingDigest::from_bytes(&empty.to_bytes()).expect("empty round-trips"),
            empty
        );
    }

    #[test]
    fn corrupt_and_truncated_digests_are_rejected_without_panicking() {
        let t = trace("l.addi r3, r0, 5\n l.mul r4, r3, r3\n l.nop 1\n");
        let bytes = TimingDigest::from_trace(&t).to_bytes();

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(TimingDigest::from_bytes(&bad), Err(FormatError::BadMagic));

        // Unknown version.
        let mut bad = bytes.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            TimingDigest::from_bytes(&bad),
            Err(FormatError::UnsupportedVersion(_))
        ));

        // Every possible truncation length parses to an error, never a panic.
        for len in 0..bytes.len() {
            assert!(
                TimingDigest::from_bytes(&bytes[..len]).is_err(),
                "prefix {len}"
            );
        }

        // Trailing garbage is rejected.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(TimingDigest::from_bytes(&bad).is_err());

        // A flipped payload bit trips the checksum.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(
            TimingDigest::from_bytes(&bad),
            Err(FormatError::ChecksumMismatch)
        );

        // In fact *any* single corrupted byte — header counters included —
        // is rejected: the checksum covers everything after itself.
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(TimingDigest::from_bytes(&bad).is_err(), "flip at byte {at}");
        }

        // Errors render a human-readable description.
        assert!(FormatError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
    }

    #[test]
    fn out_of_range_excitation_coefficients_are_rejected_under_a_valid_checksum() {
        // The checksum only detects corruption: a rewritten coefficient with
        // a recomputed checksum must still be refused, whichever of the two
        // coefficients it is.
        let t = trace("l.addi r3, r0, 5\n l.mul r4, r3, r3\n l.nop 1\n");
        let digest = TimingDigest::from_trace(&t);
        let base = |e: &mut StageExcitation, v: f64| e.base = v;
        let gain = |e: &mut StageExcitation, v: f64| e.dither_gain = v;
        for set in [base, gain] {
            for bad in [f64::NAN, f64::INFINITY, -1e-9, 1.0 + 1e-9] {
                let mut d = digest.clone();
                set(&mut d.pool[0].excitation[Stage::Execute.index()], bad);
                assert_eq!(
                    TimingDigest::from_bytes(&d.to_bytes()),
                    Err(FormatError::Malformed(
                        "excitation coefficient outside [0, 1]"
                    )),
                    "coefficient {bad}"
                );
            }
        }
    }

    #[test]
    fn flag_bit_six_is_undefined_even_under_a_valid_checksum() {
        // Bit 6 once meant "stalled", which no simulator ever set: it is a
        // spare bit like the others now.
        let t = trace("l.addi r3, r0, 5\n l.mul r4, r3, r3\n l.nop 1\n");
        let bytes = TimingDigest::from_trace(&t).to_bytes();
        let mut body = bytes[frame::PREFIX_BYTES..].to_vec();
        assert_eq!(frame::seal(codec::MAGIC, codec::VERSION, &body), bytes);
        // The flag byte ends the first pool entry.
        body[codec::BODY_HEADER_BYTES + codec::POOL_ENTRY_BYTES - 1] |= 1 << 6;
        assert_eq!(
            TimingDigest::from_bytes(&frame::seal(codec::MAGIC, codec::VERSION, &body)),
            Err(FormatError::Malformed("undefined activity flag bits"))
        );
    }

    /// Builds a digest carrying a populated asynchronous-event stream by
    /// driving the observer exactly as the simulator would.
    fn digest_with_events() -> TimingDigest {
        let t = trace("l.addi r3, r0, 5\n l.mul r4, r3, r3\n l.nop 1\n");
        let mut observer = DigestObserver::new();
        let events = [
            DigestEvent {
                cycle: 0,
                kind: DigestEventKind::TimerFire,
            },
            DigestEvent {
                cycle: 1,
                kind: DigestEventKind::MmioLoad {
                    address: 0xFFFF_0008,
                },
            },
            DigestEvent {
                cycle: 1,
                kind: DigestEventKind::IrqEntry { line: 1 },
            },
            DigestEvent {
                cycle: 3,
                kind: DigestEventKind::MmioStore {
                    address: 0xFFFF_000C,
                },
            },
            DigestEvent {
                cycle: 4,
                kind: DigestEventKind::IrqReturn,
            },
        ];
        for record in t.cycles() {
            observer.observe_cycle(record);
            for event in events.iter().filter(|e| e.cycle == record.cycle) {
                observer.observe_event(event);
            }
        }
        observer.finish(&RunSummary {
            cycles: t.cycle_count(),
            retired: t.retired(),
        });
        observer.into_digest()
    }

    #[test]
    fn event_stream_round_trips_and_survives_truncation() {
        let digest = digest_with_events();
        assert_eq!(digest.events().len(), 5);

        let bytes = digest.to_bytes();
        let back = TimingDigest::from_bytes(&bytes).expect("round-trips");
        assert_eq!(back, digest);
        assert_eq!(back.to_bytes(), bytes);

        // Truncation keeps only events of surviving cycles.
        let short = digest.truncated(2);
        assert_eq!(short.events().len(), 3);
        assert!(short.events().iter().all(|e| e.cycle < 2));
        let short_bytes = short.to_bytes();
        assert_eq!(
            TimingDigest::from_bytes(&short_bytes).expect("truncated round-trips"),
            short
        );
    }

    #[test]
    fn pre_event_stream_versions_are_rejected() {
        // v1/v2 digests predate the event table; reading them as v3 would
        // silently drop the (then-unrepresentable) event stream, so both are
        // rejected outright.
        let bytes = digest_with_events().to_bytes();
        for old in [1u8, 2] {
            let mut bad = bytes.clone();
            bad[8] = old;
            assert_eq!(
                TimingDigest::from_bytes(&bad),
                Err(FormatError::UnsupportedVersion(u32::from(old)))
            );
        }
    }

    #[test]
    fn corrupt_event_tables_are_rejected_without_panicking() {
        let digest = digest_with_events();
        let bytes = digest.to_bytes();

        // Flip every byte of the encoded digest — event table included —
        // and demand a structured error each time, mirroring the pool/run
        // corruption sweep above.
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(TimingDigest::from_bytes(&bad).is_err(), "flip at byte {at}");
        }
        for len in 0..bytes.len() {
            assert!(
                TimingDigest::from_bytes(&bytes[..len]).is_err(),
                "prefix {len}"
            );
        }

        // Structural event validation (bad kind, misordered cycles,
        // out-of-range cycles, oversized payloads) is checked directly
        // against hand-built digests with a fresh checksum.
        let rebuild = |mutate: &dyn Fn(&mut TimingDigest)| {
            let mut d = digest.clone();
            mutate(&mut d);
            d.to_bytes()
        };
        let misordered = rebuild(&|d| d.events.swap(0, 4));
        assert_eq!(
            TimingDigest::from_bytes(&misordered),
            Err(FormatError::Malformed("event cycles not nondecreasing"))
        );
        let beyond = rebuild(&|d| d.events.last_mut().expect("events").cycle = d.cycles);
        assert_eq!(
            TimingDigest::from_bytes(&beyond),
            Err(FormatError::Malformed(
                "event cycle beyond header cycle count"
            ))
        );
    }

    #[test]
    fn hinted_capture_is_bit_identical_to_unhinted() {
        // Exercise every hint-relevant stage situation: arithmetic with and
        // without immediates, multiplies, loads/stores, decode-resolved
        // branches and an execute-resolved register jump (whose flush
        // bubbles and redirects must digest identically too).
        let src = "        l.jal  body
                           l.addi r1, r0, 0x200
                           l.nop  1
                   body:   l.addi r3, r0, 17
                   loop:   l.mul  r4, r3, r3
                           l.sw   0(r1), r4
                           l.lwz  r5, 0(r1)
                           l.xor  r6, r5, r3
                           l.addi r3, r3, -1
                           l.sfne r3, r0
                           l.bf   loop
                           l.nop  0
                           l.jr   r9
                           l.nop  0";
        let program = Assembler::new().assemble(src).expect("assembles");
        let sim = Simulator::new(SimConfig::default());
        let mut plain = DigestObserver::new();
        sim.run_observed(&program, &mut [&mut plain]).expect("runs");
        let pre = crate::PredecodedProgram::lower(&program);
        let mut hinted = DigestObserver::with_hints(pre.digest_hints());
        sim.run_observed(&program, &mut [&mut hinted])
            .expect("runs");
        assert_eq!(
            plain.into_digest().to_bytes(),
            hinted.into_digest().to_bytes()
        );
    }

    #[test]
    fn fused_burst_capture_is_bit_identical_to_record_capture() {
        // A lone hinted observer takes the compact fast-path delivery
        // (`observe_fast_cycle`); adding any second observer sends every
        // cycle down the reference-structured path, which materializes full
        // records instead. Both captures must produce byte-identical
        // digests.
        let src = "        l.addi r1, r0, 0x200
                           l.addi r3, r0, 25
                   loop:   l.mul  r4, r3, r3
                           l.sw   0(r1), r4
                           l.lwz  r5, 0(r1)
                           l.xor  r6, r5, r3
                           l.add  r7, r6, r4
                           l.srli r8, r7, 3
                           l.addi r3, r3, -1
                           l.sfne r3, r0
                           l.bf   loop
                           l.nop  0
                           l.nop  1";
        let program = Assembler::new().assemble(src).expect("assembles");
        let sim = Simulator::new(SimConfig::default());
        let pre = crate::PredecodedProgram::lower(&program);

        let mut fused = DigestObserver::with_hints(pre.digest_hints());
        sim.run_observed(&program, &mut [&mut fused]).expect("runs");

        let mut recorded = DigestObserver::with_hints(pre.digest_hints());
        let mut chaperone = crate::TraceStats::default();
        sim.run_observed(&program, &mut [&mut recorded, &mut chaperone])
            .expect("runs");

        assert_eq!(
            fused.into_digest().to_bytes(),
            recorded.into_digest().to_bytes()
        );
    }

    #[test]
    fn empty_digest_is_well_formed() {
        let digest = TimingDigest::default();
        assert_eq!(digest.cycles(), 0);
        assert_eq!(digest.unique_cycles(), 0);
        let mut called = false;
        digest.for_each_cycle(|_, _| called = true);
        assert!(!called);
    }
}
