//! The corner-batched timing-evaluation kernel.
//!
//! A Monte Carlo PVT sweep replays the same
//! [`TimingDigest`](idca_pipeline::TimingDigest) against many
//! corner-varied [`TimingModel`]s. Evaluated corner by corner, each replay
//! walks the digest separately and repeats the per-cycle work — decode the
//! pooled cycle, hash the six stage dithers, blend the six excitations —
//! that is *corner-invariant*: only the final `(base, spread, scale)` fold
//! differs between corners.
//!
//! [`CornerBank`] restructures that evaluation. It holds the per-`(stage,
//! class)` delay parameters of all `M` corners in structure-of-arrays
//! layout — a `base` lane array, a `spread` lane array and a `scale` lane
//! array, padded to the fixed [`LANE_WIDTH`] — so the delay fold
//!
//! ```text
//! delay = max(base - spread × (1 - excitation), base × 0.35) × scale
//! ```
//!
//! runs over all corners at once, one auto-vectorized loop per stage, while
//! the dither and the blended excitation are computed once per cycle and
//! broadcast. The fold is compiled for the build target (128-bit SSE2 on the
//! default x86-64 target), once more for banks of exactly one
//! [`LANE_WIDTH`] chunk with the lane count a compile-time constant, and
//! once more with 256-bit AVX2, which wide banks select at run time (see
//! [`LaneIsa`]). Every lane performs **exactly** the
//! scalar arithmetic of [`TimingModel::digest_cycle_timing`] (the parameters
//! are read from the already-varied models, the operations are in the same
//! order, no copy enables FMA, and Rust never contracts float
//! expressions), so every copy is bit-identical to the scalar path —
//! pinned by the unit tests here, which run each copy a bank of the tested
//! width can select, and by the workspace-level banked-replay property
//! tests.

use crate::model::{blend_excitation, stage_dithers};
use crate::{FaultPlan, Ps, TimingModel};
use idca_isa::TimingClass;
use idca_pipeline::{DigestCycle, Stage};

/// Width of one evaluation lane chunk: every bank pads its corner count up
/// to a multiple of it with inert lanes, so a lane slice is a whole number
/// of four-`f64` chunks — two 128-bit operations on the baseline x86-64
/// target (SSE2), one 256-bit operation in the AVX2 copy of a kernel (see
/// [`LaneIsa`]).
///
/// A lane kernel receives its lane count from [`LaneIsa::run`], and the
/// width of a bank decides which compiled copy runs it
/// ([`LaneIsa::for_lanes`]):
///
/// - *One chunk* (1–4 corners, `padded == LANE_WIDTH`): a copy in which the
///   lane count is this constant. Its loops compile to straight-line
///   chunk operations. With a runtime trip count LLVM emits loop set-up
///   and remainder code, and fills scratch with a `memset` call, which at
///   one chunk costs more than the lanes themselves.
/// - *Baseline* (5–28 corners): the runtime trip `0..padded`, built for the
///   compilation target.
/// - *AVX2* (from 29 corners, 32 padded lanes, on a CPU that has AVX2): the
///   same runtime trip with 256-bit registers. LLVM's AVX2 copy of such a
///   loop steps 8 or 16 lanes per iteration and leaves the rest to
///   remainder code, so a narrow bank pays the wide loop's set-up without
///   filling it. An A/B of the two copies measured the AVX2 copy slower or
///   no faster up to 16 lanes and faster from 24 on.
pub const LANE_WIDTH: usize = 4;

/// The narrowest bank, in padded lanes, that runs the AVX2 copy of the lane
/// kernels (see [`LANE_WIDTH`] for why).
const AVX2_MIN_LANES: usize = 8 * LANE_WIDTH;

/// Which compiled copy of the lane kernels a bank runs: the baseline copy,
/// built for the compilation target (SSE2 on the default x86-64 target);
/// the one-chunk copy, the same source with the lane count fixed at
/// [`LANE_WIDTH`]; or on x86-64 a copy of the same source built with AVX2
/// enabled.
///
/// The binary needs no build flag and still runs on a CPU without AVX2:
/// the field is private, so the AVX2 value comes only out of
/// [`LaneIsa::detected`], after the CPU was checked, and the one-chunk
/// value only out of [`LaneIsa::for_lanes`] for a one-chunk bank. Each bank
/// picks its copy once, at construction, with [`LaneIsa::for_lanes`].
///
/// Every copy is bit-identical. The AVX2 copy enables no FMA and the
/// kernels call no `mul_add`, and Rust never contracts `a * b + c`, so every
/// lane performs the same IEEE operations in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneIsa(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Baseline,
    OneChunk,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl LaneIsa {
    /// The copy built for the compilation target, which every CPU the
    /// binary runs on supports.
    pub const BASELINE: LaneIsa = LaneIsa(Isa::Baseline);

    /// The widest copy this CPU runs: AVX2 on an x86-64 CPU that has it, the
    /// baseline otherwise.
    #[must_use]
    pub fn detected() -> LaneIsa {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return LaneIsa(Isa::Avx2);
        }
        LaneIsa::BASELINE
    }

    /// The copy a bank of `padded_lanes` lanes runs: the one-chunk copy at
    /// exactly [`LANE_WIDTH`] lanes, [`LaneIsa::detected`] from 32 padded
    /// lanes on, the baseline in between.
    #[must_use]
    pub fn for_lanes(padded_lanes: usize) -> LaneIsa {
        if padded_lanes == LANE_WIDTH {
            LaneIsa(Isa::OneChunk)
        } else if padded_lanes >= AVX2_MIN_LANES {
            LaneIsa::detected()
        } else {
            LaneIsa::BASELINE
        }
    }

    /// Runs `kernel` in this copy over a bank of `lanes` padded lanes,
    /// passing it the lane count: `lanes` itself, or the literal
    /// [`LANE_WIDTH`] in the one-chunk copy. Pass an `#[inline(always)]`
    /// closure: its body then compiles into the caller twice (the baseline
    /// and the one-chunk copy) and once into the AVX2 trampoline, with
    /// 256-bit registers.
    #[inline(always)]
    pub fn run<R>(self, lanes: usize, kernel: impl FnOnce(usize) -> R) -> R {
        match self.0 {
            Isa::Baseline => kernel(lanes),
            Isa::OneChunk => {
                debug_assert_eq!(lanes, LANE_WIDTH, "the one-chunk copy runs one chunk");
                kernel(LANE_WIDTH)
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                // SAFETY: calling an `avx2` target-feature function requires
                // a CPU that runs AVX2. `Isa::Avx2` is private to this module
                // and only `LaneIsa::detected` builds it, after
                // `is_x86_feature_detected!("avx2")` found the feature.
                #[allow(unsafe_code)]
                unsafe {
                    avx2(lanes, kernel)
                }
            }
        }
    }
}

/// The AVX2 trampoline of [`LaneIsa::run`]: the inlined kernel compiles
/// into this body with AVX2 (and no FMA) enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(lanes: usize, kernel: impl FnOnce(usize) -> R) -> R {
    kernel(lanes)
}

/// The per-`(stage, class)` delay parameters of `M` timing-model corners in
/// structure-of-arrays layout, ready for batched evaluation.
///
/// Built from the already-varied models with [`CornerBank::from_models`];
/// evaluated per digested cycle through a [`BankEvaluator`] (which owns the
/// reusable scratch).
#[derive(Debug, Clone, PartialEq)]
pub struct CornerBank {
    corners: usize,
    padded: usize,
    /// Worst-case delay lanes, `(stage, class)`-major: entry
    /// `(stage.index() * TimingClass::COUNT + class.index()) * padded + lane`
    /// is corner `lane`'s varied worst case of that path group.
    base: Vec<Ps>,
    /// Data-dependent spread lanes, same layout as `base`.
    spread: Vec<Ps>,
    /// Per-corner operating-point delay scale (one lane vector shared by
    /// every `(stage, class)` pair).
    scale: Vec<f64>,
    /// Per-corner static periods (handy for per-lane static baselines).
    static_period_ps: Vec<Ps>,
    /// The copy of the evaluator's fold this bank runs.
    isa: LaneIsa,
    /// The key of a bank whose every lane is non-increasing in the stage
    /// shortfalls (see [`CycleLanes::pure_shortfalls`]), `None` otherwise.
    monotone_key: Option<u64>,
}

impl CornerBank {
    /// Packs the delay parameters of the given (typically corner-varied)
    /// models into lane order. Lane `l` reproduces `models[l]` exactly: the
    /// parameters are read back from each model, so whatever variation was
    /// applied to produce it is captured bit-for-bit.
    #[must_use]
    pub fn from_models(models: &[TimingModel]) -> CornerBank {
        let corners = models.len();
        let padded = corners.next_multiple_of(LANE_WIDTH);
        let mut base = vec![0.0; Stage::COUNT * TimingClass::COUNT * padded];
        let mut spread = vec![0.0; Stage::COUNT * TimingClass::COUNT * padded];
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                let at = lane_offset(padded, stage, class);
                for (lane, model) in models.iter().enumerate() {
                    base[at + lane] = model.profile().worst_case(stage, class);
                    spread[at + lane] = model.profile().spread(stage, class);
                }
            }
        }
        let mut scale = vec![0.0; padded];
        for (lane, model) in models.iter().enumerate() {
            scale[lane] = model.operating_point().delay_scale;
        }
        let static_period_ps = models.iter().map(TimingModel::static_period_ps).collect();
        // Every lane is `max(base - spread·x, 0.35·base)·scale` of its
        // stage's shortfall `x` in [0, 1]. With finite parameters and
        // non-negative spread and scale no step yields NaN and each IEEE
        // step is monotone, so every lane is non-increasing in `x`. The key
        // fingerprints every lane parameter, so lanes of a bank with other
        // delays carry another key.
        let monotone = base.iter().all(|lane| lane.is_finite())
            && spread
                .iter()
                .chain(&scale)
                .all(|lane| (0.0..f64::INFINITY).contains(lane));
        let monotone_key = monotone.then(|| {
            let words: Vec<u64> = [&base, &spread, &scale]
                .into_iter()
                .flatten()
                .map(|lane| lane.to_bits())
                .collect();
            idca_pipeline::frame::fnv1a_words(&words)
        });
        CornerBank {
            corners,
            padded,
            base,
            spread,
            scale,
            static_period_ps,
            isa: LaneIsa::for_lanes(padded),
            monotone_key,
        }
    }

    /// Pins the copy of the fold and of the lane perturbations, past the
    /// selection of [`LaneIsa::for_lanes`], so tests run every copy a bank
    /// of this width can run: the baseline and the detected copy at any
    /// width, the one-chunk copy at one chunk.
    #[cfg(test)]
    pub(crate) fn with_isa(mut self, isa: LaneIsa) -> CornerBank {
        self.isa = isa;
        self
    }

    /// Number of corners in the bank (excluding padding lanes).
    #[must_use]
    pub fn corners(&self) -> usize {
        self.corners
    }

    /// `true` when the bank holds no corner.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.corners == 0
    }

    /// The static-timing-analysis period of one corner's model.
    #[must_use]
    pub fn static_period_ps(&self, corner: usize) -> Ps {
        self.static_period_ps[corner]
    }

    /// Number of lanes including padding: [`CornerBank::corners`] rounded
    /// up to the next [`LANE_WIDTH`] multiple — the length of every
    /// [`CycleLanes`] slice.
    #[must_use]
    pub fn padded_lanes(&self) -> usize {
        self.padded
    }

    /// Creates an evaluator bound to this bank, owning the reusable lane
    /// scratch.
    #[must_use]
    pub fn evaluator(&self) -> BankEvaluator<'_> {
        BankEvaluator {
            bank: self,
            cycle: CycleLanes::new(self.padded, self.isa),
        }
    }
}

/// One evaluated cycle of a [`CornerBank`] kept in structure-of-arrays
/// layout: per-stage delay lanes plus the folded per-corner maximum, all
/// padded to [`CornerBank::padded_lanes`]. No per-corner
/// [`CycleTiming`](crate::CycleTiming) structs are built: lane-oriented
/// consumers (policy banks, the adaptive bank) fold contiguous slices.
///
/// Lane `i` of every slice is corner `i`; padding lanes evaluate inert
/// zero parameters and hold `0.0`.
///
/// The lanes are the evaluator's per-walk scratch, so they also carry the
/// walk's droop cache: the droop activation and the six per-stage droop
/// weights of a [`FaultPlan`] are constant within a
/// [`DROOP_WINDOW_CYCLES`](crate::DROOP_WINDOW_CYCLES)-cycle window, so
/// [`CycleLanes::apply_fault`] hashes them once per window instead of once
/// per cycle.
///
/// The lanes also carry the cycle's six stage shortfalls `1 - excitation`,
/// the one corner-invariant input of each stage's fold, and whether they are
/// *pure*: exactly the fold's output, not yet rescaled by
/// [`CycleLanes::apply_fault`] or [`CycleLanes::apply_surge`].
/// [`CycleLanes::pure_shortfalls`] hands both to the adaptive bank, with
/// the key of the bank they came from.
#[derive(Debug, Clone)]
pub struct CycleLanes {
    padded: usize,
    /// Stage-major delay lanes: entry `stage.index() * padded + lane` is
    /// corner `lane`'s delay through that stage this cycle.
    stage_delay_ps: Vec<Ps>,
    /// Per-corner maximum stage delay — the lane form of
    /// [`CycleTiming::max_delay_ps`](crate::CycleTiming::max_delay_ps),
    /// folded in stage order with the same strict-`>` reduction as the
    /// scalar path.
    max_delay_ps: Vec<Ps>,
    /// The copy of the perturbation kernel these lanes run (the bank's).
    isa: LaneIsa,
    /// The droop weights of the last window [`CycleLanes::apply_fault`]
    /// saw, keyed on the plan's value and the window number.
    droop: Option<DroopWindow>,
    /// Stage `s`'s shortfall `1 - excitation` in the last folded cycle.
    shortfall: [f64; Stage::COUNT],
    /// The bank's `monotone_key` while the lanes are the last fold's
    /// output, unperturbed; `None` once a perturbation rescaled them.
    pure_key: Option<u64>,
}

/// One cached droop window: [`FaultPlan::droop_weights`] of `window` under
/// `plan`.
#[derive(Debug, Clone, Copy)]
struct DroopWindow {
    plan: FaultPlan,
    window: u64,
    weights: Option<[f64; Stage::COUNT]>,
}

impl CycleLanes {
    fn new(padded: usize, isa: LaneIsa) -> CycleLanes {
        CycleLanes {
            padded,
            stage_delay_ps: vec![0.0; Stage::COUNT * padded],
            max_delay_ps: vec![0.0; padded],
            isa,
            droop: None,
            shortfall: [0.0; Stage::COUNT],
            pure_key: None,
        }
    }

    /// Lane count including padding.
    #[must_use]
    pub fn padded_lanes(&self) -> usize {
        self.padded
    }

    /// One stage's delay lanes (length [`CycleLanes::padded_lanes`]).
    #[inline]
    #[must_use]
    pub fn stage_lanes(&self, stage: Stage) -> &[Ps] {
        &self.stage_delay_ps[stage.index() * self.padded..][..self.padded]
    }

    /// The per-corner maximum stage delays (length
    /// [`CycleLanes::padded_lanes`]).
    #[inline]
    #[must_use]
    pub fn max_lanes(&self) -> &[Ps] {
        &self.max_delay_ps
    }

    /// The bank's key and the six stage shortfalls `1 - excitation` of
    /// this cycle, when the lanes are unperturbed and come from a bank whose
    /// lane parameters are finite with non-negative spread and scale;
    /// `None` otherwise.
    ///
    /// Every stage lane is then non-increasing in its stage's shortfall: an
    /// entry's lanes at a larger shortfall are no larger, lane by lane, than
    /// the lanes the same bank gave it at a smaller one. Two banks share a
    /// key only when their lane parameters are equal, bit for bit, or on a
    /// 64-bit FNV-1a collision.
    #[inline]
    #[must_use]
    pub fn pure_shortfalls(&self) -> Option<(u64, &[f64; Stage::COUNT])> {
        self.pure_key.map(|key| (key, &self.shortfall))
    }

    /// Applies one cycle's fault factors in place — the lane form of
    /// [`FaultPlan::faulted`]: each stage lane is rescaled by that stage's
    /// factor and the per-corner maximum is re-folded in stage order with
    /// the same strict-`>` reduction, so every lane stays bit-identical to
    /// perturbing its [`CycleTiming`](crate::CycleTiming) individually. A
    /// cycle with no active event leaves the lanes untouched. Engines call
    /// it through [`Perturbation::lanes`](crate::Perturbation::lanes),
    /// which fixes its order relative to the entry surge.
    #[inline]
    pub fn apply_fault(&mut self, plan: &FaultPlan, cycle: u64) {
        let factors = self.fault_factors(plan, cycle);
        if factors.iter().all(|&f| f == 1.0) {
            return;
        }
        self.rescale(&factors);
    }

    /// [`FaultPlan::stage_factors`] of `cycle`, with the droop weights of
    /// its window from the cache: the same values, bit for bit, since the
    /// cached weights are the ones `stage_factors` computes.
    #[inline]
    fn fault_factors(&mut self, plan: &FaultPlan, cycle: u64) -> [f64; Stage::COUNT] {
        let window = cycle / crate::DROOP_WINDOW_CYCLES;
        let cached = match self.droop {
            Some(droop) if droop.window == window && droop.plan == *plan => droop,
            _ => *self.droop.insert(DroopWindow {
                plan: *plan,
                window,
                weights: plan.droop_weights(window),
            }),
        };
        plan.factors_with(cycle, cached.weights.as_ref())
    }

    /// Applies the exception-entry delay surge in place — the lane form of
    /// [`surged`](crate::surged): every stage lane is rescaled by the same
    /// uniform `factor` and the per-corner maximum is re-folded in stage
    /// order with the same strict-`>` reduction, so every lane stays
    /// bit-identical to surging its [`CycleTiming`](crate::CycleTiming)
    /// individually (and to the live path, which scales the scalar timing
    /// the same way). A factor of exactly `1.0` leaves the lanes untouched.
    /// Engines call it through
    /// [`Perturbation::lanes`](crate::Perturbation::lanes).
    #[inline]
    pub fn apply_surge(&mut self, factor: f64) {
        if factor == 1.0 {
            return;
        }
        self.rescale(&[factor; Stage::COUNT]);
    }

    /// The kernel of both perturbations: rescales each stage's lanes by
    /// that stage's factor and re-folds the maximum lanes. The lanes are no
    /// longer pure.
    fn rescale(&mut self, factors: &[f64; Stage::COUNT]) {
        self.pure_key = None;
        self.isa.run(
            self.padded,
            #[inline(always)]
            |lanes| {
                let max = &mut self.max_delay_ps[..lanes];
                max.fill(0.0);
                for stage in Stage::ALL {
                    let factor = factors[stage.index()];
                    let delays = &mut self.stage_delay_ps[stage.index() * lanes..][..lanes];
                    for (delay, max) in delays.iter_mut().zip(&mut *max) {
                        let scaled = *delay * factor;
                        *delay = scaled;
                        if scaled > *max {
                            *max = scaled;
                        }
                    }
                }
            },
        );
    }
}

/// Reusable per-walk state of one [`CornerBank`]: the padded lane scratch.
/// Create with [`CornerBank::evaluator`]; one evaluator serves any number
/// of cycles.
#[derive(Debug, Clone)]
pub struct BankEvaluator<'b> {
    bank: &'b CornerBank,
    cycle: CycleLanes,
}

impl BankEvaluator<'_> {
    /// Evaluates one digested cycle against every corner of the bank,
    /// returning the delay lanes in structure-of-arrays form — the
    /// corner-batched replay's only evaluation entry point. Lane `i`
    /// carries exactly the stage delays and maximum of
    /// `models[i].digest_cycle_timing(cycle, dc)` on the model the bank was
    /// built from (same dither, blend, delay and max-fold arithmetic),
    /// minus the limiting-stage attribution no lane consumer reads. The
    /// reference is mutable so a
    /// [`Perturbation`](crate::Perturbation) can perturb the lanes in
    /// place; the next call recomputes every lane from scratch.
    pub fn cycle_lanes(&mut self, cycle: u64, dc: &DigestCycle) -> &mut CycleLanes {
        self.bank.isa.run(
            self.bank.padded,
            #[inline(always)]
            |lanes| self.fold(cycle, dc, lanes),
        );
        &mut self.cycle
    }

    /// The body of [`BankEvaluator::cycle_lanes`], compiled into every copy
    /// of [`LaneIsa::run`]; `padded` is the bank's padded width.
    #[inline(always)]
    fn fold(&mut self, cycle: u64, dc: &DigestCycle, padded: usize) {
        let bank = self.bank;
        // Corner-invariant per-cycle terms, computed once and broadcast: all
        // six stage dithers come out of one batched hash kernel (shared with
        // the scalar `digest_cycle_timing`, so both paths stay bit-identical
        // by construction).
        let dithers = stage_dithers(cycle, dc.fetch_address);
        let shortfalls: [f64; Stage::COUNT] = std::array::from_fn(|stage| {
            let dither = dithers[stage];
            1.0 - blend_excitation(dc.excitation[stage].raw(dither), dither)
        });
        let scale = &bank.scale[..padded];
        // One fused pass per stage: the delay expression is exactly the
        // scalar `delay_from_excitation` and the select-form running max keeps
        // each lane's comparison sequence in stage order with the scalar
        // strict-`>` reduction, so both stay bit-identical to the
        // per-corner path while the loops vectorize branch-free. The first
        // stage initializes the max lanes outright instead of folding
        // against a zero fill: delays are non-negative, so the scalar
        // `delay > 0.0` fold picks the same value either way.
        let mut first = true;
        for stage in Stage::ALL {
            let shortfall = shortfalls[stage.index()];
            let at = lane_offset(padded, stage, dc.classes[stage.index()]);
            let base = &bank.base[at..at + padded];
            let spread = &bank.spread[at..at + padded];
            let out = &mut self.cycle.stage_delay_ps[stage.index() * padded..][..padded];
            let max = &mut self.cycle.max_delay_ps[..padded];
            // The short-path floor is the `f64::max` of the scalar path in
            // compare-and-select form: the operands are finite (never NaN)
            // and a same-valued pair is always bitwise equal (`a - b` of
            // finite equals is `+0.0` in round-to-nearest), so the selected
            // value is bit-identical while the loop stays packed.
            if first {
                for lane in 0..padded {
                    let raw = base[lane] - spread[lane] * shortfall;
                    let floor = base[lane] * 0.35;
                    let delay = (if raw > floor { raw } else { floor }) * scale[lane];
                    out[lane] = delay;
                    max[lane] = delay;
                }
                first = false;
            } else {
                for lane in 0..padded {
                    let raw = base[lane] - spread[lane] * shortfall;
                    let floor = base[lane] * 0.35;
                    let delay = (if raw > floor { raw } else { floor }) * scale[lane];
                    out[lane] = delay;
                    max[lane] = if delay > max[lane] { delay } else { max[lane] };
                }
            }
        }
        // Stored once, after the lane loops, so no store through `self`
        // sits between them.
        self.cycle.shortfall = shortfalls;
        self.cycle.pure_key = bank.monotone_key;
    }
}

/// Start of the lane vector of one `(stage, class)` pair.
fn lane_offset(padded: usize, stage: Stage, class: TimingClass) -> usize {
    (stage.index() * TimingClass::COUNT + class.index()) * padded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CycleTiming, FaultSpec, ProfileKind, VariationModel, DROOP_WINDOW_CYCLES,
        SHIFT_ONSET_HORIZON,
    };
    use idca_isa::asm::Assembler;
    use idca_pipeline::{SimConfig, Simulator, TimingDigest};

    /// Every copy `with_isa` can force on a bank of `corners` corners: the
    /// baseline and the detected copy at any width, plus the copy the width
    /// selects (the one-chunk copy at 1–4 corners). Repeats are harmless.
    fn copies(corners: usize) -> [LaneIsa; 3] {
        [
            LaneIsa::BASELINE,
            LaneIsa::detected(),
            LaneIsa::for_lanes(corners.next_multiple_of(LANE_WIDTH)),
        ]
    }

    fn digest(src: &str) -> TimingDigest {
        let program = Assembler::new().assemble(src).expect("assembles");
        let trace = Simulator::new(SimConfig::default())
            .run(&program)
            .expect("runs")
            .trace;
        TimingDigest::from_trace(&trace)
    }

    fn mixed_digest() -> TimingDigest {
        digest(
            "        l.addi r1, r0, 0x100
                     l.addi r3, r0, 40
             loop:   l.mul  r5, r3, r3
                     l.sw   0(r1), r5
                     l.lwz  r6, 0(r1)
                     l.add  r4, r4, r6
                     l.xor  r7, r4, r3
                     l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.nop  0
                     l.nop  1",
        )
    }

    fn varied_models(count: u32, master_seed: u64) -> Vec<TimingModel> {
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let vm = VariationModel::default();
        (0..count)
            .map(|i| vm.apply(&nominal, &vm.sample_corner(master_seed, i)))
            .collect()
    }

    /// Asserts that lane `corner` carries `expected`'s stage delays and
    /// maximum, bit for bit.
    fn assert_lane_matches(
        lanes: &CycleLanes,
        corner: usize,
        expected: &CycleTiming,
        cycle: u64,
        what: &str,
    ) {
        assert_eq!(
            lanes.max_lanes()[corner].to_bits(),
            expected.max_delay_ps.to_bits(),
            "{what}: cycle {cycle} corner {corner}"
        );
        for stage in Stage::ALL {
            assert_eq!(
                lanes.stage_lanes(stage)[corner].to_bits(),
                expected.stage_delay_ps[stage.index()].to_bits(),
                "{what}: cycle {cycle} corner {corner} stage {stage:?}"
            );
        }
    }

    #[test]
    fn banked_timings_are_bit_identical_to_scalar_replay() {
        let d = mixed_digest();
        // Corner counts straddling the lane width, including non-multiples,
        // and one past the wide-copy gate (37 corners pad to 40 lanes), each
        // through every copy of the fold a bank of that width can run.
        for corners in [1, 2, 3, 4, 5, 7, 8, 9, 37] {
            for isa in copies(corners as usize) {
                let models = varied_models(corners, 0xBA2C);
                let bank = CornerBank::from_models(&models).with_isa(isa);
                assert_eq!(bank.corners(), corners as usize);
                let mut evaluator = bank.evaluator();
                d.for_each_cycle(|cycle, dc| {
                    let lanes = evaluator.cycle_lanes(cycle, dc);
                    for (corner, model) in models.iter().enumerate() {
                        let scalar = model.digest_cycle_timing(cycle, dc);
                        assert_lane_matches(lanes, corner, &scalar, cycle, "lanes");
                    }
                    // Padding lanes evaluate zero parameters and stay inert.
                    assert!(lanes.max_lanes()[models.len()..].iter().all(|&d| d == 0.0));
                });
            }
        }
    }

    #[test]
    fn only_banks_of_32_lanes_or_more_run_the_detected_copy() {
        // One chunk runs the one-chunk copy, whatever the CPU.
        let one_chunk = LaneIsa(Isa::OneChunk);
        assert_eq!(LaneIsa::for_lanes(4), one_chunk);
        assert_eq!(LaneIsa::for_lanes(8), LaneIsa::BASELINE);
        assert_eq!(LaneIsa::for_lanes(28), LaneIsa::BASELINE);
        assert_eq!(LaneIsa::for_lanes(32), LaneIsa::detected());
        assert_eq!(LaneIsa::for_lanes(256), LaneIsa::detected());
        assert_eq!(CornerBank::from_models(&varied_models(1, 5)).isa, one_chunk);
        assert_eq!(
            CornerBank::from_models(&varied_models(5, 5)).isa,
            LaneIsa::BASELINE
        );
        assert_eq!(
            CornerBank::from_models(&varied_models(253, 5)).isa,
            LaneIsa::detected()
        );
    }

    #[test]
    fn lane_surge_is_bit_identical_to_scalar_surge() {
        for corners in [1, 2, 3, 4, 5, 37] {
            for isa in copies(corners as usize) {
                assert_lane_surge_matches_scalar(&varied_models(corners, 0x51AB), isa);
            }
        }
    }

    #[test]
    fn droop_cache_equals_stage_factors_bit_for_bit() {
        let bits = |factors: [f64; Stage::COUNT]| factors.map(f64::to_bits);
        let spec = FaultSpec::parse(
            "seed=5,droop-rate=0.5,droop-mag=0.3,spike-rate=0.02,spike-mag=0.4,shift-mag=0.05",
        )
        .unwrap();
        let plan = FaultPlan::new(&spec);
        let other = FaultPlan::new(&FaultSpec { seed: 6, ..spec });
        let mut lanes = CycleLanes::new(LANE_WIDTH, LaneIsa::BASELINE);
        // A walk across many window boundaries and past the shift onset,
        // then a restart at cycle 0 on the same lanes, as the next job does.
        let horizon = SHIFT_ONSET_HORIZON + 2 * DROOP_WINDOW_CYCLES;
        let mut drooping_windows = 0;
        for walk in 0..2 {
            for cycle in 0..horizon {
                assert_eq!(
                    bits(lanes.fault_factors(&plan, cycle)),
                    bits(plan.stage_factors(cycle)),
                    "walk {walk} cycle {cycle}"
                );
                if cycle % DROOP_WINDOW_CYCLES == 0 {
                    drooping_windows +=
                        u32::from(plan.droop_weights(cycle / DROOP_WINDOW_CYCLES).is_some());
                }
            }
        }
        assert!(drooping_windows > 10, "{drooping_windows} drooping windows");
        assert!(plan.shift_onset() < horizon);
        // A second plan on the same lanes, inside the window the first plan
        // just cached and then alternating with it cycle by cycle: the cache
        // must never serve one plan's weights to the other.
        let mut differ = 0;
        for cycle in (horizon - DROOP_WINDOW_CYCLES..horizon).chain(0..8 * DROOP_WINDOW_CYCLES) {
            for p in [&other, &plan] {
                assert_eq!(
                    bits(lanes.fault_factors(p, cycle)),
                    bits(p.stage_factors(cycle)),
                    "seed {} cycle {cycle}",
                    p.spec().seed
                );
            }
            differ += u32::from(plan.stage_factors(cycle) != other.stage_factors(cycle));
        }
        assert!(differ > 0, "the two plans never differ");
    }

    fn assert_lane_surge_matches_scalar(models: &[TimingModel], isa: LaneIsa) {
        let d = mixed_digest();
        let bank = CornerBank::from_models(models).with_isa(isa);
        let spec = crate::FaultSpec::parse("seed=9,droop-rate=0.4,droop-mag=0.3").unwrap();
        let plan = crate::FaultPlan::new(&spec);
        let bits = |t: &CycleTiming| {
            (
                t.stage_delay_ps.map(f64::to_bits),
                t.max_delay_ps.to_bits(),
                t.limiting_stage,
            )
        };
        let mut evaluator = bank.evaluator();
        for faults in [None, Some(&plan)] {
            let perturbation = crate::Perturbation {
                faults,
                surge_factor: 1.25,
            };
            for entry in [false, true] {
                d.for_each_cycle(|cycle, dc| {
                    // The canonical composition, written out by hand: faults
                    // first, then the entry surge.
                    let expected: Vec<CycleTiming> = models
                        .iter()
                        .map(|model| {
                            let timing = model.digest_cycle_timing(cycle, dc);
                            let timing = match faults {
                                Some(plan) => plan.faulted(cycle, &timing),
                                None => timing,
                            };
                            if entry {
                                crate::surged(&timing, 1.25)
                            } else {
                                timing
                            }
                        })
                        .collect();
                    let lanes = evaluator.cycle_lanes(cycle, dc);
                    if let Some(plan) = faults {
                        lanes.apply_fault(plan, cycle);
                    }
                    if entry {
                        lanes.apply_surge(1.25);
                    }
                    for (corner, timing) in expected.iter().enumerate() {
                        assert_lane_matches(lanes, corner, timing, cycle, "hand-written lanes");
                    }
                    // `Perturbation` must reproduce the hand-written order
                    // on both the lanes and the scalar timing.
                    let lanes = evaluator.cycle_lanes(cycle, dc);
                    perturbation.lanes(cycle, lanes, entry);
                    for (corner, (model, timing)) in models.iter().zip(&expected).enumerate() {
                        assert_lane_matches(lanes, corner, timing, cycle, "Perturbation::lanes");
                        let scalar = model.digest_cycle_timing(cycle, dc);
                        assert_eq!(
                            bits(&perturbation.timing(cycle, scalar, entry)),
                            bits(timing),
                            "Perturbation::timing: cycle {cycle} corner {corner}"
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn bank_reads_back_the_model_parameters() {
        let models = varied_models(3, 7);
        let bank = CornerBank::from_models(&models);
        for (corner, model) in models.iter().enumerate() {
            assert_eq!(bank.static_period_ps(corner), model.static_period_ps());
        }
    }

    #[test]
    fn empty_bank_is_inert() {
        let bank = CornerBank::from_models(&[]);
        assert!(bank.is_empty());
        assert_eq!(bank.padded_lanes(), 0);
        let mut evaluator = bank.evaluator();
        let mut visited = 0u64;
        mixed_digest().for_each_cycle(|cycle, dc| {
            let lanes = evaluator.cycle_lanes(cycle, dc);
            assert!(lanes.max_lanes().is_empty());
            assert!(Stage::ALL.iter().all(|&s| lanes.stage_lanes(s).is_empty()));
            visited += 1;
        });
        assert!(visited > 0);
    }
}
