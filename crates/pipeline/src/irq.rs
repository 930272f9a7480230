//! Asynchronous-event layer: interrupt-storm scenarios, the
//! cycle-deterministic interrupt controller, the cycle-driven timer
//! peripheral and the memory-mapped register window that exposes both.
//!
//! The steady-state sweep only ever executes straight-line user code; this
//! module adds the workload class it cannot see — exception entry flushes
//! landing mid-learning, handler code displacing the user instruction mix,
//! peripheral traffic on the memory port — while preserving the
//! repository's bit-identity contract:
//!
//! * Every interrupt raise is a pure function of `(interrupt seed, cycle)`
//!   (storm line) or of the cycle index alone (timer line), sampled with
//!   the same split-mix hash family as the timing model's dithers. There
//!   is no RNG state, so the simulator's reference and predecoded views,
//!   its burst fast path and the digest-replay path all reconstruct the
//!   **identical** schedule.
//! * Unlike fault factors (which leave the digest untouched), interrupts
//!   change the executed cycle stream itself — so a digest captured under
//!   an [`InterruptSpec`] is *scenario-variant* and carries the spec's
//!   [`InterruptSpec::fingerprint`] in its cache identity. The digest's
//!   event stream (codec v3) records entries, returns, timer fires and
//!   MMIO touches so replay recomputes per-cycle interrupt phases without
//!   re-simulating.
//!
//! The intended call pattern: parse an [`InterruptSpec`] once (`repro
//! sweep --interrupts SPEC`), call [`InterruptPlan::attach`] to append the
//! acknowledge-and-return handler to the program image and resolve the
//! vector, hand the plan to [`crate::Simulator::with_interrupts`], and let
//! the simulator drive one [`InterruptController`] per run.

use crate::{DigestEvent, DigestEventKind, PipelineError};
use idca_isa::{Insn, Program, ProgramBuilder, Reg};

/// Base byte address of the MMIO register window. Lies far above any
/// configurable data-memory size, so plain SRAM traffic can never alias a
/// peripheral register.
pub const MMIO_BASE: u32 = 0xFFFF_0000;
/// Length of the MMIO window in bytes (five word registers).
pub const MMIO_LEN: u32 = 20;
/// Current timer count (read-only).
pub const MMIO_TIMER_COUNT: u32 = MMIO_BASE;
/// Configured timer period in cycles (read-only; 0 = timer disabled).
pub const MMIO_TIMER_PERIOD: u32 = MMIO_BASE + 4;
/// Pending interrupt lines, one bit per line (read-only).
pub const MMIO_IRQ_PENDING: u32 = MMIO_BASE + 8;
/// Acknowledge register: storing value `v` clears the pending bits in `v`
/// (write-only; loads return 0).
pub const MMIO_IRQ_ACK: u32 = MMIO_BASE + 12;
/// Interrupt mask, one bit per line; set bits disable acceptance (read/write).
pub const MMIO_IRQ_MASK: u32 = MMIO_BASE + 16;

/// Interrupt line raised by the seeded storm schedule.
pub const LINE_STORM: u32 = 0;
/// Interrupt line raised by the cycle-driven timer.
pub const LINE_TIMER: u32 = 1;

/// `true` when a *word* access at `address` targets an MMIO register.
/// Sub-word and unaligned accesses inside the window deliberately fall
/// through to [`crate::Memory`], whose bounds/alignment checks turn them
/// into structured errors.
#[must_use]
pub fn is_mmio(address: u32) -> bool {
    address.is_multiple_of(4) && (MMIO_BASE..MMIO_BASE + MMIO_LEN).contains(&address)
}

/// Salt distinguishing the storm-raise hash from every other consumer of
/// the split-mix family.
const STORM_SALT: u64 = 0x1247_5101;

// The split-mix hash family shared (by construction, not by dependency —
// `idca-pipeline` sits below `idca-timing`) with the timing model's
// per-stage dithers and the PVT corner sampler.
const HASH_SALT_A: u64 = 0x9E37_79B9_7F4A_7C15;
const HASH_SALT_B: u64 = 0xBF58_476D_1CE4_E5B9;
const HASH_SALT_C: u64 = 0x94D0_49BB_1331_11EB;

/// Deterministic pseudo-random value in `[0, 1)` — the storm schedule is a
/// pure function of `(seed, cycle)`, so every engine recomputes it
/// identically with no RNG state to thread.
fn hash01(a: u64, b: u64, c: u64) -> f64 {
    let mut x = a
        .wrapping_mul(HASH_SALT_A)
        .wrapping_add(b.wrapping_mul(HASH_SALT_B))
        .wrapping_add(c.wrapping_mul(HASH_SALT_C));
    x ^= x >> 30;
    x = x.wrapping_mul(HASH_SALT_B);
    x ^= x >> 27;
    x = x.wrapping_mul(HASH_SALT_C);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A parsed, validated interrupt scenario.
///
/// The spec is plain data: two runs with equal specs raise, enter and
/// return identically, and the spec's [`InterruptSpec::fingerprint`] ships
/// inside sweep reports and digest-cache identities so mixed-scenario
/// merges are rejected bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptSpec {
    /// Seed of the storm schedule. Independent of the sweep's master seed:
    /// the same workloads can be re-swept under a different storm draw.
    pub seed: u64,
    /// Per-cycle probability that the storm line raises (`0.0` disables
    /// the storm). Below `1.0`: see [`InterruptSpec::validate`].
    pub rate: f64,
    /// Timer period in cycles; the timer line raises every `timer` cycles
    /// (`0` disables the timer). Never `1`: see [`InterruptSpec::validate`].
    pub timer: u32,
    /// Handler vector byte address; `0` (the default) resolves to the
    /// acknowledge-and-return handler [`InterruptPlan::attach`] appends at
    /// the program's end address.
    pub vector: u32,
    /// Exception-entry flush penalty in cycles (the accept cycle plus
    /// `penalty - 1` further fetch-dead cycles). At least 1.
    pub penalty: u32,
    /// Extra fractional delay excitation during entry-flush cycles — the
    /// modeled di/dt droop of redirect-and-flush activity. Consumed by the
    /// timing layer (`idca-timing`), which composes it multiplicatively
    /// with any fault factors; the pipeline only transports it.
    pub surge: f64,
}

impl Default for InterruptSpec {
    fn default() -> Self {
        InterruptSpec {
            seed: 1,
            rate: 0.0,
            timer: 0,
            vector: 0,
            penalty: 4,
            surge: 0.25,
        }
    }
}

impl InterruptSpec {
    /// Parses a `key=value,key=value` interrupt spec, e.g.
    /// `seed=7,rate=0.002,timer=150,penalty=6,surge=0.3`.
    ///
    /// Accepted keys: `seed`, `rate`, `timer`, `vector`, `penalty`,
    /// `surge`; unspecified keys keep the [`InterruptSpec::default`]
    /// values. `rate` must lie in `[0, 1)`, `timer` must be `0` or at least
    /// `2`, `surge` must lie in `[0, 4]`, `penalty` in `[1, 1024]`, and
    /// `vector` must be word-aligned.
    ///
    /// # Errors
    ///
    /// Returns an [`InterruptSpecError`] naming the first malformed pair,
    /// unknown key or out-of-range value.
    pub fn parse(spec: &str) -> Result<InterruptSpec, InterruptSpecError> {
        let mut parsed = InterruptSpec::default();
        for pair in spec.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((key, value)) = pair.split_once('=') else {
                return Err(InterruptSpecError::MalformedPair(pair.to_string()));
            };
            let bad = |key: &'static str| InterruptSpecError::BadValue {
                key,
                value: value.to_string(),
            };
            match key {
                "seed" => parsed.seed = value.parse().map_err(|_| bad("seed"))?,
                "rate" => parsed.rate = value.parse().map_err(|_| bad("rate"))?,
                "timer" => parsed.timer = value.parse().map_err(|_| bad("timer"))?,
                "vector" => parsed.vector = value.parse().map_err(|_| bad("vector"))?,
                "penalty" => parsed.penalty = value.parse().map_err(|_| bad("penalty"))?,
                "surge" => parsed.surge = value.parse().map_err(|_| bad("surge"))?,
                other => return Err(InterruptSpecError::UnknownKey(other.to_string())),
            }
            // Range-check every pair as it lands, so the error names the
            // first bad one.
            parsed.validate()?;
        }
        Ok(parsed)
    }

    /// Checks every field against the ranges [`InterruptSpec::parse`]
    /// accepts: `rate` in `[0, 1)`, `timer` either `0` or at least `2`,
    /// `surge` in `[0, 4]`, `penalty` in `[1, 1024]` and a word-aligned
    /// `vector`. Specs decoded from a sweep-report file go through the same
    /// check.
    ///
    /// A line that raises on every cycle (`rate = 1` or `timer = 1`) is
    /// rejected because it livelocks every program: the line is pending
    /// again on the cycle `l.rfe` returns, while fetch and decode hold only
    /// flush bubbles, so the controller re-enters before any user
    /// instruction is fetched and the run burns its whole cycle budget. A
    /// timer whose period divides the handler round trip livelocks the same
    /// way; no static rule covers every vector and penalty, so
    /// [`InterruptController::accept`] catches it at run time.
    ///
    /// # Errors
    ///
    /// Returns [`InterruptSpecError::BadValue`] naming the first field out
    /// of range (NaN included).
    pub fn validate(&self) -> Result<(), InterruptSpecError> {
        let bad = |key, value: String| InterruptSpecError::BadValue { key, value };
        if !(0.0..1.0).contains(&self.rate) {
            return Err(bad("rate", self.rate.to_string()));
        }
        if self.timer == 1 {
            return Err(bad("timer", self.timer.to_string()));
        }
        if !self.vector.is_multiple_of(4) {
            return Err(bad("vector", self.vector.to_string()));
        }
        if !(1..=1024).contains(&self.penalty) {
            return Err(bad("penalty", self.penalty.to_string()));
        }
        if !(0.0..=4.0).contains(&self.surge) {
            return Err(bad("surge", self.surge.to_string()));
        }
        Ok(())
    }

    /// Canonical one-line rendering of the spec (stable across runs, used
    /// in sweep-report headers). Parsing the result reproduces the spec.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "seed={},rate={},timer={},vector={},penalty={},surge={}",
            self.seed, self.rate, self.timer, self.vector, self.penalty, self.surge
        )
    }

    /// 64-bit fingerprint over the exact field bits — the cache and merge
    /// identity of an interrupt scenario (two specs collide only if every
    /// field is bit-identical).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        crate::frame::fnv1a_words(&[
            self.seed,
            self.rate.to_bits(),
            u64::from(self.timer),
            u64::from(self.vector),
            u64::from(self.penalty),
            self.surge.to_bits(),
        ])
    }

    /// Whether the scenario can raise an interrupt at all.
    #[must_use]
    pub fn active(&self) -> bool {
        self.rate > 0.0 || self.timer > 0
    }
}

/// Errors of [`InterruptSpec::parse`] and [`InterruptSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InterruptSpecError {
    /// A comma-separated element is not a `key=value` pair.
    MalformedPair(
        /// The offending element.
        String,
    ),
    /// The key is not a recognized interrupt parameter.
    UnknownKey(
        /// The offending key.
        String,
    ),
    /// The value does not parse, or falls outside the key's valid range.
    BadValue {
        /// The key whose value was rejected.
        key: &'static str,
        /// The offending value.
        value: String,
    },
}

impl std::fmt::Display for InterruptSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterruptSpecError::MalformedPair(pair) => {
                write!(f, "interrupt spec element `{pair}` is not a key=value pair")
            }
            InterruptSpecError::UnknownKey(key) => write!(
                f,
                "unknown interrupt key `{key}` (keys: seed, rate, timer, vector, penalty, surge)"
            ),
            InterruptSpecError::BadValue { key, value } => {
                write!(f, "interrupt key `{key}` has invalid value `{value}`")
            }
        }
    }
}

impl std::error::Error for InterruptSpecError {}

/// The resolved interrupt scenario of one program: the spec plus the
/// handler vector, produced together with the handler-augmented program
/// image by [`InterruptPlan::attach`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptPlan {
    spec: InterruptSpec,
    vector: u32,
}

impl InterruptPlan {
    /// Appends the canonical acknowledge-and-return handler to `program`
    /// and resolves the vector.
    ///
    /// The handler reads the pending lines, acknowledges exactly what it
    /// read, and returns (clobbering `r30`/`r31` as dedicated scratch):
    ///
    /// ```text
    /// l.movhi r31, 0xffff      # r31 = MMIO window base
    /// l.lwz   r30, 8(r31)      # read IRQ_PENDING
    /// l.sw    12(r31), r30     # acknowledge those lines
    /// l.rfe                    # return to the saved PC
    /// l.nop   0                # delay slot
    /// ```
    ///
    /// The handler must be part of the image *before* predecode lowering
    /// so the micro-op table, runway hints and fetch index cover it — which
    /// is why this augmentation runs at plan-construction time, not inside
    /// the simulator. `spec.vector == 0` resolves to the appended handler's
    /// address; a nonzero vector is kept as given (the handler is still
    /// appended). It must lie inside the returned program image: a run
    /// whose vector lies outside it fails at once with
    /// [`PipelineError::PcOutOfRange`] naming the vector.
    #[must_use]
    pub fn attach(program: &Program, spec: &InterruptSpec) -> (Program, InterruptPlan) {
        let mut builder = ProgramBuilder::named(program.name());
        builder.set_base_address(program.base_address());
        builder.extend(program.insns().iter().copied());
        for (name, &address) in program.symbols() {
            builder.insert_symbol(name.clone(), address);
        }
        for &(address, value) in program.data() {
            builder.push_data_word(address, value);
        }
        let handler = builder.bind_label("__irq_handler");
        let _ = handler;
        let handler_address = builder.current_address();
        let scratch_base = Reg::r(31);
        let scratch_val = Reg::r(30);
        builder.push(Insn::movhi(scratch_base, MMIO_BASE >> 16).expect("16-bit immediate"));
        builder.push(
            Insn::lwz(
                scratch_val,
                (MMIO_IRQ_PENDING - MMIO_BASE) as i32,
                scratch_base,
            )
            .expect("small offset"),
        );
        builder.push(
            Insn::sw((MMIO_IRQ_ACK - MMIO_BASE) as i32, scratch_base, scratch_val)
                .expect("small offset"),
        );
        builder.push(Insn::rfe());
        builder.push(Insn::nop(0));
        let vector = if spec.vector == 0 {
            handler_address
        } else {
            spec.vector
        };
        (
            builder.build(),
            InterruptPlan {
                spec: *spec,
                vector,
            },
        )
    }

    /// The spec this plan was built from.
    #[must_use]
    pub fn spec(&self) -> &InterruptSpec {
        &self.spec
    }

    /// The resolved handler vector (byte address).
    #[must_use]
    pub fn vector(&self) -> u32 {
        self.vector
    }
}

/// The cycle-deterministic interrupt controller plus timer peripheral —
/// one per run, driven by the simulator.
///
/// All state transitions are pure functions of the cycle index and the MMIO
/// traffic the pipeline itself issues, so the simulator's reference and
/// predecoded views and its burst fast path march it through identical
/// states.
#[derive(Debug, Clone)]
pub struct InterruptController {
    seed: u64,
    rate: f64,
    timer_period: u32,
    vector: u32,
    penalty: u32,
    pending: u32,
    mask: u32,
    in_handler: bool,
    epcr: u32,
    entry_left: u32,
    timer_count: u32,
    cycle: u64,
    returned_this_cycle: bool,
    /// The engine's fetch count when `l.rfe` last returned.
    fetched_at_return: Option<u64>,
    /// Saved PC and timer count of the previous entry, when it was a
    /// timer-raised re-entry with nothing fetched since the return before it.
    last_repeat: Option<(u32, u32)>,
    events: Vec<DigestEvent>,
}

impl InterruptController {
    /// Builds the reset-state controller for one run of `plan`.
    #[must_use]
    pub fn new(plan: &InterruptPlan) -> InterruptController {
        InterruptController {
            seed: plan.spec.seed,
            rate: plan.spec.rate,
            timer_period: plan.spec.timer,
            vector: plan.vector,
            penalty: plan.spec.penalty,
            pending: 0,
            mask: 0,
            in_handler: false,
            epcr: 0,
            entry_left: 0,
            timer_count: 0,
            cycle: 0,
            returned_this_cycle: false,
            fetched_at_return: None,
            last_repeat: None,
            events: Vec::new(),
        }
    }

    /// Advances peripheral state at the start of a cycle: ticks the timer
    /// (recording a [`DigestEventKind::TimerFire`] on wrap) and samples the
    /// storm schedule. Must be called exactly once per simulated cycle, in
    /// cycle order — the burst fast path calls it per burst cycle.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.returned_this_cycle = false;
        if self.timer_period > 0 {
            self.timer_count += 1;
            if self.timer_count >= self.timer_period {
                self.timer_count = 0;
                self.pending |= 1 << LINE_TIMER;
                self.events.push(DigestEvent {
                    cycle,
                    kind: DigestEventKind::TimerFire,
                });
            }
        }
        if self.rate > 0.0 && hash01(self.seed, cycle, STORM_SALT) < self.rate {
            self.pending |= 1 << LINE_STORM;
        }
    }

    /// `true` when an unmasked line is pending and no handler is active.
    #[must_use]
    pub fn takeable(&self) -> bool {
        !self.in_handler && self.pending & !self.mask != 0
    }

    /// Accepts the highest-priority (lowest-numbered) pending unmasked
    /// line: saves `epcr`, enters the handler and starts the entry flush.
    /// The caller redirects fetch to [`InterruptController::vector`] and
    /// injects `penalty` entry-bubble cycles (this one plus
    /// [`InterruptController::entry_pending`] further ones). `fetched` is
    /// the engine's count of instructions fetched so far.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InterruptLivelock`] when the run is provably
    /// periodic: the timer raised this entry and the previous one at the
    /// same saved PC and timer count, and no instruction was fetched
    /// between either entry and the return before it, so no user
    /// instruction retired in between and none ever will. A timer whose
    /// period divides the handler round trip does this. Storm-raised
    /// entries are hash-driven, never periodic, and never trip the test.
    pub fn accept(&mut self, epcr: u32, fetched: u64) -> Result<(), PipelineError> {
        debug_assert!(self.takeable());
        let line = (self.pending & !self.mask).trailing_zeros();
        let repeat = (line == LINE_TIMER && self.fetched_at_return == Some(fetched))
            .then_some((epcr, self.timer_count));
        if repeat.is_some() && repeat == self.last_repeat {
            return Err(PipelineError::InterruptLivelock {
                pc: epcr,
                cycle: self.cycle,
            });
        }
        self.last_repeat = repeat;
        self.in_handler = true;
        self.epcr = epcr;
        self.entry_left = self.penalty - 1;
        self.events.push(DigestEvent {
            cycle: self.cycle,
            kind: DigestEventKind::IrqEntry { line: line as u8 },
        });
        Ok(())
    }

    /// `true` while entry-flush bubble cycles remain to be injected.
    #[must_use]
    pub fn entry_pending(&self) -> bool {
        self.entry_left > 0
    }

    /// Consumes one remaining entry-flush cycle.
    pub fn entry_tick(&mut self) {
        debug_assert!(self.entry_left > 0);
        self.entry_left -= 1;
    }

    /// Resolves `l.rfe` in the execute stage: leaves the handler and
    /// returns the saved PC to redirect to. A stray `l.rfe` outside an
    /// active handler is a no-op (`None`) — identically in every engine.
    /// `fetched` is the engine's count of instructions fetched so far.
    pub fn rfe_retire(&mut self, fetched: u64) -> Option<u32> {
        if !self.in_handler {
            return None;
        }
        self.in_handler = false;
        self.fetched_at_return = Some(fetched);
        self.returned_this_cycle = true;
        self.events.push(DigestEvent {
            cycle: self.cycle,
            kind: DigestEventKind::IrqReturn,
        });
        Some(self.epcr)
    }

    /// The resolved handler vector.
    #[must_use]
    pub fn vector(&self) -> u32 {
        self.vector
    }

    /// `true` while handler code is in flight (set at accept, cleared by
    /// [`InterruptController::rfe_retire`]).
    #[must_use]
    pub fn in_handler(&self) -> bool {
        self.in_handler
    }

    /// `true` when `l.rfe` resolved during the current cycle — the last
    /// cycle still classified as [`crate::IrqPhase::Handler`].
    #[must_use]
    pub fn returned_this_cycle(&self) -> bool {
        self.returned_this_cycle
    }

    /// MMIO register read (word access). Records the touch in the event
    /// stream.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnalignedAccess`] for unaligned word addresses
    /// (defensive; [`is_mmio`] already excludes them).
    pub fn mmio_load(&mut self, address: u32) -> Result<u32, PipelineError> {
        if !address.is_multiple_of(4) {
            return Err(PipelineError::UnalignedAccess { address, width: 4 });
        }
        let value = match address {
            MMIO_TIMER_COUNT => self.timer_count,
            MMIO_TIMER_PERIOD => self.timer_period,
            MMIO_IRQ_PENDING => self.pending,
            MMIO_IRQ_ACK => 0,
            MMIO_IRQ_MASK => self.mask,
            _ => unreachable!("is_mmio() admits exactly the five registers"),
        };
        self.events.push(DigestEvent {
            cycle: self.cycle,
            kind: DigestEventKind::MmioLoad { address },
        });
        Ok(value)
    }

    /// MMIO register write (word access). Records the touch in the event
    /// stream on success.
    ///
    /// # Errors
    ///
    /// [`PipelineError::MmioReadOnly`] for stores to `TIMER_COUNT`,
    /// `TIMER_PERIOD` or `IRQ_PENDING`;
    /// [`PipelineError::UnalignedAccess`] for unaligned word addresses.
    pub fn mmio_store(&mut self, address: u32, value: u32) -> Result<(), PipelineError> {
        if !address.is_multiple_of(4) {
            return Err(PipelineError::UnalignedAccess { address, width: 4 });
        }
        match address {
            MMIO_IRQ_ACK => self.pending &= !value,
            MMIO_IRQ_MASK => self.mask = value,
            MMIO_TIMER_COUNT | MMIO_TIMER_PERIOD | MMIO_IRQ_PENDING => {
                return Err(PipelineError::MmioReadOnly { address });
            }
            _ => unreachable!("is_mmio() admits exactly the five registers"),
        }
        self.events.push(DigestEvent {
            cycle: self.cycle,
            kind: DigestEventKind::MmioStore { address },
        });
        Ok(())
    }

    /// How many of the next `want` cycles starting at `start_cycle` the
    /// burst fast path may execute without an interrupt acceptance becoming
    /// possible. Conservative: a capped burst merely falls back to the
    /// simulator's per-cycle step, which makes the identical decision —
    /// the cap only has to guarantee no acceptance point lands *inside* a
    /// burst. Inside a handler bursts are always safe (no nested entry).
    #[must_use]
    pub fn burst_allowance(&self, start_cycle: u64, want: u64) -> u64 {
        if self.in_handler {
            return want;
        }
        if self.pending & !self.mask != 0 {
            return 0;
        }
        let mut allowed = want;
        if self.timer_period > 0 {
            // The fire lands on the burst cycle whose begin_cycle() brings
            // the count to the period; everything before it is safe.
            let until_fire = u64::from(self.timer_period - self.timer_count);
            allowed = allowed.min(until_fire.saturating_sub(1));
        }
        if self.rate > 0.0 {
            for j in 0..allowed {
                if hash01(self.seed, start_cycle + j, STORM_SALT) < self.rate {
                    allowed = j;
                    break;
                }
            }
        }
        allowed
    }

    /// The events recorded since the last [`InterruptController::clear_cycle_events`]
    /// (the simulator drains them to observers once per cycle).
    #[must_use]
    pub fn cycle_events(&self) -> &[DigestEvent] {
        &self.events
    }

    /// Clears the drained per-cycle events.
    pub fn clear_cycle_events(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_describe_roundtrip() {
        let spec = InterruptSpec::parse("seed=9,rate=0.01,timer=200,penalty=6,surge=0.5").unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.timer, 200);
        assert_eq!(spec.penalty, 6);
        assert!(spec.active());
        let reparsed = InterruptSpec::parse(&spec.describe()).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(spec.fingerprint(), reparsed.fingerprint());
    }

    #[test]
    fn spec_parse_rejects_bad_input() {
        assert!(matches!(
            InterruptSpec::parse("bogus"),
            Err(InterruptSpecError::MalformedPair(_))
        ));
        assert!(matches!(
            InterruptSpec::parse("warp=1"),
            Err(InterruptSpecError::UnknownKey(_))
        ));
        assert!(matches!(
            InterruptSpec::parse("rate=1.5"),
            Err(InterruptSpecError::BadValue { key: "rate", .. })
        ));
        // A line raised on every cycle livelocks every program.
        assert!(matches!(
            InterruptSpec::parse("rate=1"),
            Err(InterruptSpecError::BadValue { key: "rate", .. })
        ));
        assert!(matches!(
            InterruptSpec::parse("timer=1"),
            Err(InterruptSpecError::BadValue { key: "timer", .. })
        ));
        assert!(matches!(
            InterruptSpec::parse("penalty=0"),
            Err(InterruptSpecError::BadValue { key: "penalty", .. })
        ));
        assert!(matches!(
            InterruptSpec::parse("vector=6"),
            Err(InterruptSpecError::BadValue { key: "vector", .. })
        ));
    }

    #[test]
    fn fingerprint_distinguishes_specs() {
        let a = InterruptSpec::parse("rate=0.01").unwrap();
        let b = InterruptSpec::parse("rate=0.02").unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), InterruptSpec::default().fingerprint());
    }

    #[test]
    fn attach_appends_handler_and_resolves_vector() {
        let mut b = ProgramBuilder::named("p");
        b.push(Insn::nop(0));
        b.push(Insn::nop(crate::NOP_EXIT));
        let program = b.build();
        let end = program.end_address();
        let (augmented, plan) = InterruptPlan::attach(&program, &InterruptSpec::default());
        assert_eq!(plan.vector(), end);
        assert_eq!(augmented.len(), program.len() + 5);
        assert_eq!(augmented.symbol("__irq_handler"), Some(end));
        assert_eq!(
            augmented.insns()[augmented.len() - 2].opcode(),
            idca_isa::Opcode::Rfe
        );
    }

    #[test]
    fn timer_fires_on_period_and_records_event() {
        let spec = InterruptSpec::parse("timer=3").unwrap();
        let (_, plan) = InterruptPlan::attach(&ProgramBuilder::named("t").build(), &spec);
        let mut ctl = InterruptController::new(&plan);
        for cycle in 0..2 {
            ctl.begin_cycle(cycle);
            assert!(!ctl.takeable(), "cycle {cycle}");
        }
        ctl.begin_cycle(2);
        assert!(ctl.takeable());
        assert_eq!(ctl.cycle_events().len(), 1);
        assert_eq!(ctl.cycle_events()[0].kind, DigestEventKind::TimerFire);
        assert_eq!(ctl.cycle_events()[0].cycle, 2);
    }

    #[test]
    fn accept_ack_and_return_cycle() {
        // A timer that fires on every cycle: `validate` rejects it for whole
        // runs (it livelocks them), so build the spec directly to drive the
        // controller one cycle at a time.
        let spec = InterruptSpec {
            timer: 1,
            penalty: 2,
            ..InterruptSpec::default()
        };
        let (_, plan) = InterruptPlan::attach(&ProgramBuilder::named("t").build(), &spec);
        let mut ctl = InterruptController::new(&plan);
        ctl.begin_cycle(0);
        assert!(ctl.takeable());
        ctl.accept(0x40, 0).unwrap();
        assert!(ctl.in_handler());
        assert!(ctl.entry_pending());
        ctl.entry_tick();
        assert!(!ctl.entry_pending());
        // Raises during the handler stay pending and do not re-enter.
        ctl.begin_cycle(1);
        assert!(!ctl.takeable());
        let pending = ctl.mmio_load(MMIO_IRQ_PENDING).unwrap();
        assert_ne!(pending & (1 << LINE_TIMER), 0);
        ctl.mmio_store(MMIO_IRQ_ACK, pending).unwrap();
        assert_eq!(ctl.mmio_load(MMIO_IRQ_PENDING).unwrap(), 0);
        assert_eq!(ctl.rfe_retire(0), Some(0x40));
        assert!(ctl.returned_this_cycle());
        assert!(!ctl.in_handler());
        // Stray rfe outside a handler is a no-op.
        assert_eq!(ctl.rfe_retire(0), None);
    }

    /// One entry/return round: ticks until a line is takeable, accepts it
    /// at the same saved PC with `fetched` instructions fetched so far,
    /// acknowledges everything pending and returns after five more fetches.
    fn round(
        ctl: &mut InterruptController,
        cycle: &mut u64,
        fetched: u64,
    ) -> Result<(), PipelineError> {
        loop {
            ctl.begin_cycle(*cycle);
            *cycle += 1;
            if ctl.takeable() {
                break;
            }
        }
        ctl.accept(0x40, fetched)?;
        let pending = ctl.mmio_load(MMIO_IRQ_PENDING).unwrap();
        ctl.mmio_store(MMIO_IRQ_ACK, pending).unwrap();
        assert_eq!(ctl.rfe_retire(fetched + 5), Some(0x40));
        Ok(())
    }

    #[test]
    fn only_a_repeated_timer_entry_without_progress_is_a_livelock() {
        let controller = |spec: &str| {
            let spec = InterruptSpec::parse(spec).unwrap();
            let (_, plan) = InterruptPlan::attach(&ProgramBuilder::named("t").build(), &spec);
            InterruptController::new(&plan)
        };
        // The timer raises every entry at count 0. The first entry has no
        // return before it; the second repeats nothing yet; the third
        // repeats the second with nothing fetched since either return.
        let (mut ctl, mut cycle) = (controller("timer=4"), 0);
        round(&mut ctl, &mut cycle, 10).unwrap();
        round(&mut ctl, &mut cycle, 15).unwrap();
        assert_eq!(
            round(&mut ctl, &mut cycle, 20),
            Err(PipelineError::InterruptLivelock {
                pc: 0x40,
                cycle: 11
            })
        );
        // One fetch between the return and the next entry is progress.
        let (mut ctl, mut cycle) = (controller("timer=4"), 0);
        for fetched in [10, 15, 21, 26] {
            round(&mut ctl, &mut cycle, fetched).unwrap();
        }
        // A dense storm re-enters just as often, but never trips the test.
        let (mut ctl, mut cycle) = (controller("rate=0.9,seed=3"), 0);
        for fetched in (0..64).map(|n| 10 + 5 * n) {
            round(&mut ctl, &mut cycle, fetched).unwrap();
        }
    }

    #[test]
    fn read_only_registers_reject_stores() {
        let (_, plan) = InterruptPlan::attach(
            &ProgramBuilder::named("t").build(),
            &InterruptSpec::default(),
        );
        let mut ctl = InterruptController::new(&plan);
        for address in [MMIO_TIMER_COUNT, MMIO_TIMER_PERIOD, MMIO_IRQ_PENDING] {
            assert_eq!(
                ctl.mmio_store(address, 1),
                Err(PipelineError::MmioReadOnly { address })
            );
        }
        ctl.mmio_store(MMIO_IRQ_MASK, 0b10).unwrap();
        assert_eq!(ctl.mmio_load(MMIO_IRQ_MASK).unwrap(), 0b10);
    }

    #[test]
    fn burst_allowance_stops_before_any_raise() {
        let spec = InterruptSpec::parse("timer=10,rate=0.05,seed=3").unwrap();
        let (_, plan) = InterruptPlan::attach(&ProgramBuilder::named("t").build(), &spec);
        let mut ctl = InterruptController::new(&plan);
        let want = 64;
        let allowed = ctl.burst_allowance(0, want);
        assert!(allowed < want);
        // Replaying begin_cycle over the allowance must not make the
        // controller takeable before the predicted boundary.
        for cycle in 0..allowed {
            ctl.begin_cycle(cycle);
            assert!(!ctl.takeable(), "raise inside allowance at cycle {cycle}");
        }
    }

    #[test]
    fn storm_schedule_is_a_pure_function_of_seed_and_cycle() {
        let spec = InterruptSpec::parse("rate=0.1,seed=42").unwrap();
        let (_, plan) = InterruptPlan::attach(&ProgramBuilder::named("t").build(), &spec);
        let mut a = InterruptController::new(&plan);
        let mut b = InterruptController::new(&plan);
        for cycle in 0..256 {
            a.begin_cycle(cycle);
            b.begin_cycle(cycle);
            assert_eq!(a.takeable(), b.takeable(), "cycle {cycle}");
            if a.takeable() {
                a.accept(0, cycle).unwrap();
                b.accept(0, cycle).unwrap();
                assert_eq!(a.rfe_retire(cycle), b.rfe_retire(cycle));
            }
        }
    }
}
