//! The gate-level-simulation substitute: per-cycle dynamic delay evaluation.
//!
//! [`TimingModel`] combines a [`TimingProfile`] (which paths exist and how
//! long they are in the worst case) with a [`CellLibrary`] operating point
//! (how delays scale with supply voltage) and evaluates the dynamic delay of
//! every pipeline stage in each cycle: the per-stage maxima that the paper's
//! DTA tool reads off the gate-level endpoint event log, computed directly.
//! The data-dependent part of each delay is driven by the activity
//! descriptors recorded by the pipeline simulator: carry-chain length in the
//! adder, operand width at the multiplier, shift distance, operand toggling
//! in the logic unit, memory requests, forwarding-mux activity and
//! branch-target redirects. The pipeline crate's digest turns them into
//! per-stage excitation coefficients ([`DigestCycle`]), and every cycle is
//! evaluated from its digest, live or replayed.

use crate::{CellLibrary, LibraryError, OperatingPoint, ProfileKind, Ps, TimingProfile};
use idca_isa::TimingClass;
use idca_pipeline::{DigestCycle, Stage};

/// The dynamic delay of every pipeline stage in one cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleTiming {
    /// Dynamic delay of each stage (indexed by [`Stage::index`]).
    pub stage_delay_ps: [Ps; Stage::COUNT],
    /// The largest stage delay: the minimum safe clock period for this cycle.
    pub max_delay_ps: Ps,
    /// The stage owning the largest delay.
    pub limiting_stage: Stage,
}

impl CycleTiming {
    /// Delay of one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Ps {
        self.stage_delay_ps[stage.index()]
    }
}

/// The synthetic post-layout timing model of the core at one operating point.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingModel {
    profile: TimingProfile,
    library: CellLibrary,
    point: OperatingPoint,
}

impl TimingModel {
    /// Creates a model from an explicit profile, library and supply voltage.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::VoltageOutOfRange`] if the library has no
    /// operating point at `voltage_mv`.
    pub fn new(
        profile: TimingProfile,
        library: CellLibrary,
        voltage_mv: u32,
    ) -> Result<Self, LibraryError> {
        let point = library.operating_point(voltage_mv)?;
        Ok(TimingModel {
            profile,
            library,
            point,
        })
    }

    /// Convenience constructor: the given profile at the nominal 0.70 V point
    /// of the default 28 nm library.
    #[must_use]
    pub fn at_nominal(kind: ProfileKind) -> Self {
        Self::new(
            TimingProfile::new(kind),
            CellLibrary::fdsoi28(),
            crate::NOMINAL_VOLTAGE_MV,
        )
        .expect("nominal voltage is always characterized")
    }

    /// Convenience constructor: the given profile at an arbitrary voltage of
    /// the default library.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::VoltageOutOfRange`] for voltages outside the
    /// characterized range.
    pub fn with_voltage(kind: ProfileKind, voltage_mv: u32) -> Result<Self, LibraryError> {
        Self::new(TimingProfile::new(kind), CellLibrary::fdsoi28(), voltage_mv)
    }

    /// The timing profile in use.
    #[must_use]
    pub fn profile(&self) -> &TimingProfile {
        &self.profile
    }

    /// The cell library in use.
    #[must_use]
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// The active operating point.
    #[must_use]
    pub fn operating_point(&self) -> OperatingPoint {
        self.point
    }

    /// The static-timing-analysis clock period at the active operating point.
    #[must_use]
    pub fn static_period_ps(&self) -> Ps {
        self.profile.static_period_ps() * self.point.delay_scale
    }

    /// Worst-case delay of `(stage, class)` at the active operating point.
    #[must_use]
    pub fn worst_case_ps(&self, stage: Stage, class: TimingClass) -> Ps {
        self.profile.worst_case(stage, class) * self.point.delay_scale
    }

    /// Dynamic delay of one stage of a digested cycle. A live record is
    /// digested first ([`DigestCycle::of_record`]); the dither comes from
    /// the `(cycle, stage, fetch_address)` salt, so a live cycle and its
    /// replay evaluate the identical arithmetic.
    #[must_use]
    pub fn digest_stage_delay_ps(&self, cycle: u64, digest: &DigestCycle, stage: Stage) -> Ps {
        let class = digest.classes[stage.index()];
        let dither = stage_dither(cycle, stage, digest.fetch_address);
        let excitation = blend_excitation(digest.excitation[stage.index()].raw(dither), dither);
        self.delay_from_excitation(stage, class, excitation)
    }

    /// Evaluates the dynamic delay of every stage of a digested cycle — the
    /// one per-cycle evaluation of live observation and digest replay alike
    /// (see [`TimingModel::digest_stage_delay_ps`]).
    #[must_use]
    pub fn digest_cycle_timing(&self, cycle: u64, digest: &DigestCycle) -> CycleTiming {
        let dithers = stage_dithers(cycle, digest.fetch_address);
        let mut delays = [0.0; Stage::COUNT];
        let mut max_delay = 0.0;
        let mut limiting = Stage::Execute;
        for stage in Stage::ALL {
            let dither = dithers[stage.index()];
            let excitation = blend_excitation(digest.excitation[stage.index()].raw(dither), dither);
            let delay =
                self.delay_from_excitation(stage, digest.classes[stage.index()], excitation);
            delays[stage.index()] = delay;
            if delay > max_delay {
                max_delay = delay;
                limiting = stage;
            }
        }
        CycleTiming {
            stage_delay_ps: delays,
            max_delay_ps: max_delay,
            limiting_stage: limiting,
        }
    }

    /// The delay of `(stage, class)` at a given blended excitation.
    fn delay_from_excitation(&self, stage: Stage, class: TimingClass, excitation: f64) -> Ps {
        let base = self.profile.worst_case(stage, class);
        let spread = self.profile.spread(stage, class);
        let delay = base - spread * (1.0 - excitation);
        delay.max(base * 0.35) * self.point.delay_scale
    }
}

/// The per-cycle, per-stage residual-variation dither. Quantized to eight
/// levels so that its supremum is actually *attained* after a modest number
/// of observations — a characterization run therefore sees the same worst
/// case that any longer benchmark run can produce. Keyed by `(cycle, stage,
/// fetch_address)` only, so the digest replay recomputes the identical
/// value without storing it.
pub(crate) fn stage_dither(cycle: u64, stage: Stage, fetch_address: u32) -> f64 {
    dither_level(hash(cycle, stage.index() as u64, fetch_address.into()))
}

/// All six per-stage dithers of one cycle in a single batched kernel — the
/// shared evaluation of the scalar [`TimingModel::digest_cycle_timing`] and
/// the corner-batched [`crate::BankEvaluator`]. The `(cycle, fetch_address)`
/// hash terms are stage-invariant, so they are mixed once and only the stage
/// salt varies across the fixed-trip-count loop (wrapping addition is
/// associative and commutative, so each lane reproduces [`stage_dither`] bit
/// for bit — pinned by the unit tests below).
pub(crate) fn stage_dithers(cycle: u64, fetch_address: u32) -> [f64; Stage::COUNT] {
    let shared = cycle
        .wrapping_mul(HASH_SALT_A)
        .wrapping_add(u64::from(fetch_address).wrapping_mul(HASH_SALT_C));
    let mut dithers = [0.0; Stage::COUNT];
    for (index, dither) in dithers.iter_mut().enumerate() {
        let salted = shared.wrapping_add((index as u64).wrapping_mul(HASH_SALT_B));
        *dither = dither_level(mix(salted));
    }
    dithers
}

/// Blends a little dither into every stage's raw excitation so repeated
/// identical activity does not collapse onto a single delay value
/// (modelling residual unmodelled variation such as crosstalk), while
/// keeping the result bounded by the class worst-case.
pub(crate) fn blend_excitation(raw: f64, dither: f64) -> f64 {
    (raw * 0.92 + 0.08 * dither).clamp(0.0, 1.0)
}

/// The eight dither levels `k / 7`, `k = 0..=7`.
const DITHER_LEVELS: [f64; 8] = [
    0.0,
    1.0 / 7.0,
    2.0 / 7.0,
    3.0 / 7.0,
    4.0 / 7.0,
    5.0 / 7.0,
    6.0 / 7.0,
    1.0,
];

/// The dither level of a mixed hash: its top three bits `k` pick `k / 7`.
/// Bit-identical to quantizing `u = `[`unit_interval`]`(mixed)` as
/// `floor(u * 8) / 7`: `mixed >> 11 < 2^53` converts to `f64` exactly and
/// scaling by a power of two is exact, so `floor(u * 8)` is `mixed >> 61`
/// (pinned against that float quantizer by the unit tests below).
fn dither_level(mixed: u64) -> f64 {
    DITHER_LEVELS[(mixed >> 61) as usize]
}

/// Salt multiplying the first hash input (split-mix increment constant).
const HASH_SALT_A: u64 = 0x9E37_79B9_7F4A_7C15;
/// Salt multiplying the second hash input.
const HASH_SALT_B: u64 = 0xBF58_476D_1CE4_E5B9;
/// Salt multiplying the third hash input.
const HASH_SALT_C: u64 = 0x94D0_49BB_1331_11EB;

/// Deterministic pseudo-random value in `[0, 1)` derived from the cycle
/// index and a couple of salts (split-mix style mixing). Keeping this
/// hash-based rather than RNG-based makes every simulation bit-reproducible.
/// Shared with the PVT [`crate::VariationModel`] corner sampler.
#[inline]
pub(crate) fn hash01(a: u64, b: u64, c: u64) -> f64 {
    unit_interval(hash(a, b, c))
}

/// The salted split-mix hash behind [`hash01`] and [`stage_dither`].
fn hash(a: u64, b: u64, c: u64) -> u64 {
    mix(a
        .wrapping_mul(HASH_SALT_A)
        .wrapping_add(b.wrapping_mul(HASH_SALT_B))
        .wrapping_add(c.wrapping_mul(HASH_SALT_C)))
}

/// The split-mix finisher shared by [`hash`] and the batched
/// [`stage_dithers`] kernel: avalanches the salted sum.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(HASH_SALT_B);
    x ^= x >> 27;
    x = x.wrapping_mul(HASH_SALT_C);
    x ^ (x >> 31)
}

/// Maps the top 53 bits of a mixed hash into `[0, 1)`.
fn unit_interval(mixed: u64) -> f64 {
    (mixed >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use idca_isa::asm::Assembler;
    use idca_pipeline::{CycleRecord, PipelineTrace, SimConfig, Simulator};

    fn trace(src: &str) -> PipelineTrace {
        let program = Assembler::new().assemble(src).expect("assembles");
        Simulator::new(SimConfig::default())
            .run(&program)
            .expect("runs")
            .trace
    }

    /// The dynamic delays of a live record, evaluated through its digest.
    fn live_timing(model: &TimingModel, record: &CycleRecord) -> CycleTiming {
        model.digest_cycle_timing(record.cycle, &DigestCycle::of_record(record))
    }

    #[test]
    fn dynamic_delay_never_exceeds_class_worst_case() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = trace(
            "l.movhi r4, 0xFFFF\n l.ori r4, r4, 0xFFFF\n l.addi r3, r0, 1\n\
             l.add r5, r4, r3\n l.mul r6, r4, r4\n l.sw 0(r0), r6\n l.lwz r7, 0(r0)\n l.nop 1\n",
        );
        for record in t.cycles() {
            let timing = live_timing(&model, record);
            for stage in Stage::ALL {
                let class = record.timing_class(stage);
                assert!(
                    timing.stage(stage) <= model.worst_case_ps(stage, class) + 1e-9,
                    "cycle {} stage {stage} class {class} exceeds its worst case",
                    record.cycle
                );
            }
            assert!(timing.max_delay_ps <= model.static_period_ps());
        }
    }

    #[test]
    fn worst_case_operands_excite_near_worst_delay() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        // 0xFFFFFFFF + 1 produces a full-length carry chain.
        let t = trace(
            "l.movhi r4, 0xFFFF\n l.ori r4, r4, 0xFFFF\n l.addi r3, r0, 1\n\
             l.add r5, r4, r3\n l.nop 0\n l.nop 1\n",
        );
        let mut best_add = 0.0f64;
        for record in t.cycles() {
            if record.timing_class(Stage::Execute) == TimingClass::Add {
                best_add = best_add.max(live_timing(&model, record).stage(Stage::Execute));
            }
        }
        let worst = model.worst_case_ps(Stage::Execute, TimingClass::Add);
        assert!(
            best_add > worst - 40.0,
            "full carry chain should excite close to the worst case: {best_add} vs {worst}"
        );
    }

    #[test]
    fn multiplication_is_slower_than_logic() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = trace(
            "l.movhi r4, 0x7FFF\n l.ori r4, r4, 0xFFFF\n l.mul r5, r4, r4\n\
             l.and r6, r4, r4\n l.nop 1\n",
        );
        let mut mul_delay = 0.0f64;
        let mut and_delay = 0.0f64;
        for record in t.cycles() {
            match record.timing_class(Stage::Execute) {
                TimingClass::Mul => mul_delay = live_timing(&model, record).stage(Stage::Execute),
                TimingClass::And => and_delay = live_timing(&model, record).stage(Stage::Execute),
                _ => {}
            }
        }
        assert!(mul_delay > and_delay + 200.0, "{mul_delay} vs {and_delay}");
    }

    #[test]
    fn voltage_scaling_stretches_delays() {
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let low = TimingModel::with_voltage(ProfileKind::CriticalRangeOptimized, 600).unwrap();
        assert!(low.static_period_ps() > nominal.static_period_ps() * 1.3);
        let t = trace("l.addi r3, r0, 5\n l.add r4, r3, r3\n l.nop 1\n");
        let record = &t.cycles()[4];
        assert!(
            live_timing(&low, record).stage(Stage::Execute)
                > live_timing(&nominal, record).stage(Stage::Execute)
        );
    }

    #[test]
    fn batched_dithers_match_the_per_stage_hash() {
        // The batched kernel hoists the stage-invariant hash terms; wrapping
        // arithmetic is associative, so every lane must equal the scalar
        // per-stage dither to the last bit.
        for (cycle, fetch_address) in [(0u64, 0u32), (1, 0x100), (u64::MAX, u32::MAX), (12345, 4)] {
            let batched = stage_dithers(cycle, fetch_address);
            for stage in Stage::ALL {
                assert_eq!(
                    batched[stage.index()],
                    stage_dither(cycle, stage, fetch_address),
                    "cycle {cycle} stage {stage}"
                );
            }
        }
    }

    /// The float quantizer the integer dither level replaced: the oracle
    /// for [`dither_level`].
    fn quantize_dither(value: f64) -> f64 {
        ((value * 8.0).floor() / 7.0).clamp(0.0, 1.0)
    }

    #[test]
    fn integer_dither_level_matches_the_float_quantizer() {
        // Every engine shares this kernel, so cross-engine tests cannot
        // see it drift; pin it bit for bit against the float quantizer on
        // the extremes, both sides of every level boundary, and 2^20
        // pseudo-random hashes.
        let boundaries = (0..8u64).flat_map(|k| [k << 61, (k << 61).wrapping_sub(1)]);
        let random = (0..1u64 << 20).map(mix);
        for mixed in [0, u64::MAX].into_iter().chain(boundaries).chain(random) {
            assert_eq!(
                dither_level(mixed).to_bits(),
                quantize_dither(unit_interval(mixed)).to_bits(),
                "mixed hash {mixed:#018x}"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t1 = trace("l.addi r3, r0, 9\n l.mul r4, r3, r3\n l.nop 1\n");
        let t2 = trace("l.addi r3, r0, 9\n l.mul r4, r3, r3\n l.nop 1\n");
        for (a, b) in t1.cycles().iter().zip(t2.cycles()) {
            assert_eq!(
                live_timing(&model, a).max_delay_ps,
                live_timing(&model, b).max_delay_ps
            );
        }
    }
}
