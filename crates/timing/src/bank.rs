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
//!
//! A bank wider than one chunk evaluates only the stage rows that can set
//! a lane's maximum. Each entry's row lies, at any shortfall in [0, 1],
//! between its values at shortfall 1 and 0, so an entry whose highest row
//! is nowhere above another stage's lowest one can never exceed it (see
//! [`CornerBank`]); the fold skips such rows and evaluates them only when a
//! reader asks for them.

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

/// Number of `(stage, class)` entries: the rows of a bank's parameter lane
/// arrays, and the bits of one dominance mask.
const ENTRIES: usize = Stage::COUNT * TimingClass::COUNT;
const _: () = assert!(ENTRIES <= u128::BITS as usize, "one mask bit per entry");

/// The row mask of a cycle that holds every stage row.
const ALL_ROWS: u8 = (1 << Stage::COUNT) - 1;

/// The per-`(stage, class)` delay parameters of `M` timing-model corners in
/// structure-of-arrays layout, ready for batched evaluation.
///
/// Built from the already-varied models with [`CornerBank::from_models`];
/// evaluated per digested cycle through a [`BankEvaluator`] (which owns the
/// reusable scratch).
///
/// A bank wider than one chunk also holds, for each entry, the mask of the
/// other stages' entries that *dominate* it: entry `a` dominates entry `b`
/// when, in every lane, `b`'s row at shortfall 0 is no larger than `a`'s
/// row at shortfall 1, both at unit scale. A row is non-increasing in the
/// shortfall, so for any two shortfalls in [0, 1] the most `b` can reach is
/// then no more than the least `a` can reach, and the lane's shared scale
/// keeps that order. When `a` is in flight, `b`'s row cannot raise the
/// maximum, and the fold skips it. Of two entries that dominate each other,
/// only the earlier stage prunes the later, so one of them always stays.
///
/// The masks hold only under conditions the bank and the fold check:
///
/// - every parameter is finite and sign-positive (no NaN, infinity,
///   negative value or `-0.0`), so every delay is `+0.0` or positive and
///   equal maxima are equal bit for bit; otherwise the bank has no masks;
/// - every shortfall of the cycle lies in [0, 1] (the blend clamps the
///   excitation, so only a NaN one leaves it); otherwise the fold keeps
///   every row;
/// - the bank is wider than one chunk: a one-chunk bank keeps every row,
///   and its one-chunk copy compiles the test away.
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
    /// Entry `b`'s mask of the entries that prune it (bit `a` for entry
    /// `a`, indexed like the lane arrays), `None` when the bank prunes
    /// nothing.
    dominators: Option<Box<[u128; ENTRIES]>>,
}

impl CornerBank {
    /// Packs the delay parameters of the given (typically corner-varied)
    /// models into lane order. Lane `l` reproduces `models[l]` exactly: the
    /// parameters are read back from each model, so whatever variation was
    /// applied to produce it is captured bit-for-bit.
    #[must_use]
    pub fn from_models(models: &[TimingModel]) -> CornerBank {
        let padded = models.len().next_multiple_of(LANE_WIDTH);
        let mut base = vec![0.0; ENTRIES * padded];
        let mut spread = vec![0.0; ENTRIES * padded];
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                let at = entry_index(stage, class) * padded;
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
        CornerBank::from_lanes(base, spread, scale, static_period_ps)
    }

    /// A bank of the given parameter lanes (`scale` is `padded` long, the
    /// others `ENTRIES * padded`) and one static period per corner.
    fn from_lanes(
        base: Vec<Ps>,
        spread: Vec<Ps>,
        scale: Vec<f64>,
        static_period_ps: Vec<Ps>,
    ) -> CornerBank {
        let padded = scale.len();
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
        let prunes = padded > LANE_WIDTH
            && [&base, &spread, &scale]
                .into_iter()
                .flatten()
                .all(|lane| lane.is_sign_positive() && lane.is_finite());
        let dominators = prunes.then(|| dominators(&base, &spread, padded));
        CornerBank {
            corners: static_period_ps.len(),
            padded,
            base,
            spread,
            scale,
            static_period_ps,
            isa: LaneIsa::for_lanes(padded),
            monotone_key,
            dominators,
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

    /// Drops the dominance masks, so the fold evaluates every stage row:
    /// the oracle the tests compare the pruned fold against.
    #[cfg(test)]
    pub(crate) fn with_every_stage(mut self) -> CornerBank {
        self.dominators = None;
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
            cycle: CycleLanes::new(self),
        }
    }

    /// The mask of the stage rows a cycle with these in-flight entries and
    /// shortfalls must evaluate: bit `s` for stage `s`. Every row without
    /// masks or with a shortfall outside [0, 1]; otherwise the rows no
    /// in-flight entry prunes.
    #[inline(always)]
    fn live_rows(&self, entries: &[usize; Stage::COUNT], shortfalls: &[f64; Stage::COUNT]) -> u8 {
        let Some(dominators) = &self.dominators else {
            return ALL_ROWS;
        };
        if !shortfalls.iter().all(|x| (0.0..=1.0).contains(x)) {
            return ALL_ROWS;
        }
        let in_flight = entries.iter().fold(0u128, |set, &entry| set | 1 << entry);
        entries.iter().enumerate().fold(0, |rows, (stage, &entry)| {
            rows | u8::from(dominators[entry] & in_flight == 0) << stage
        })
    }

    /// Writes the delay lanes of `entry` at `shortfall` into `out`, over
    /// the first `lanes` lanes.
    #[inline(always)]
    fn row(&self, entry: usize, shortfall: f64, out: &mut [Ps], lanes: usize) {
        let base = &self.base[entry * lanes..][..lanes];
        let spread = &self.spread[entry * lanes..][..lanes];
        let scale = &self.scale[..lanes];
        for (lane, out) in out[..lanes].iter_mut().enumerate() {
            *out = lane_delay(base[lane], spread[lane], shortfall, scale[lane]);
        }
    }
}

/// One lane's delay, `max(base - spread × shortfall, base × 0.35) × scale`:
/// the scalar `delay_from_excitation` with its `f64::max` in
/// compare-and-select form. The fold, a pruned row evaluated later and the
/// dominance bound all compute this one expression.
///
/// The select form keeps the loops packed and picks the bit-identical
/// value: the operands are finite (never NaN) and a same-valued pair is
/// always bitwise equal (`a - b` of finite equals is `+0.0` in
/// round-to-nearest). A NaN shortfall selects the floor, as `f64::max`
/// does.
#[inline(always)]
fn lane_delay(base: Ps, spread: Ps, shortfall: f64, scale: f64) -> Ps {
    let raw = base - spread * shortfall;
    let floor = base * 0.35;
    (if raw > floor { raw } else { floor }) * scale
}

/// Entry `b`'s mask of the entries that prune it, for every `b`: the
/// entries `a` of other stages that dominate `b` (see [`CornerBank`]),
/// except that of two entries dominating each other only the earlier stage
/// prunes the later. The parameters must be finite and sign-positive.
///
/// Each row's value at any shortfall in [0, 1] lies between its values at
/// 1 (the least) and at 0 (the most): `spread × shortfall` only grows with
/// the shortfall, and every IEEE step of [`lane_delay`] is monotone. At a
/// shared scale ≥ 0 the order of two rows survives the final product.
fn dominators(base: &[Ps], spread: &[Ps], padded: usize) -> Box<[u128; ENTRIES]> {
    let extreme = |entry: usize, shortfall: f64| -> Vec<Ps> {
        let at = entry * padded;
        (at..at + padded)
            .map(|lane| lane_delay(base[lane], spread[lane], shortfall, 1.0))
            .collect()
    };
    let least: Vec<Vec<Ps>> = (0..ENTRIES).map(|entry| extreme(entry, 1.0)).collect();
    let most: Vec<Vec<Ps>> = (0..ENTRIES).map(|entry| extreme(entry, 0.0)).collect();
    let dominates = |a: usize, b: usize| most[b].iter().zip(&least[a]).all(|(b, a)| b <= a);
    let stage = |entry: usize| entry / TimingClass::COUNT;
    let mut masks = Box::new([0; ENTRIES]);
    for (b, mask) in masks.iter_mut().enumerate() {
        for a in (0..ENTRIES).filter(|&a| stage(a) != stage(b)) {
            // Entries are stage-major, so `a < b` puts `a` in the earlier
            // stage.
            if dominates(a, b) && (a < b || !dominates(b, a)) {
                *mask |= 1 << a;
            }
        }
    }
    masks
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
/// The maximum lanes are always complete, but the lanes hold only the stage
/// rows the fold evaluated, with a mask of them: a bank wider than one
/// chunk skips the rows its dominance masks rule out of the maximum (see
/// [`CornerBank`]). They borrow their bank so any row can still be had:
/// [`CycleLanes::stage_lanes`] evaluates a missing row in place,
/// [`CycleLanes::stage_lanes_with`] into the caller's scratch, and a
/// perturbation evaluates every missing row before it rescales, since its
/// factors can lift a skipped row above the maximum. Each evaluates the
/// fold's own expression, so a row is the same bits however it was made.
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
pub struct CycleLanes<'b> {
    bank: &'b CornerBank,
    /// Stage-major delay lanes: entry `stage.index() * padded + lane` is
    /// corner `lane`'s delay through that stage this cycle, for the stages
    /// in `rows`.
    stage_delay_ps: Vec<Ps>,
    /// Per-corner maximum stage delay — the lane form of
    /// [`CycleTiming::max_delay_ps`](crate::CycleTiming::max_delay_ps),
    /// folded in stage order with the same strict-`>` reduction as the
    /// scalar path.
    max_delay_ps: Vec<Ps>,
    /// The droop weights of the last window [`CycleLanes::apply_fault`]
    /// saw, keyed on the plan's value and the window number.
    droop: Option<DroopWindow>,
    /// Stage `s`'s shortfall `1 - excitation` in the last folded cycle.
    shortfall: [f64; Stage::COUNT],
    /// Stage `s`'s in-flight `(stage, class)` entry in the last folded
    /// cycle, indexed like the bank's lane arrays.
    entries: [usize; Stage::COUNT],
    /// Bit `s` is set when `stage_delay_ps` holds stage `s`'s row.
    rows: u8,
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

impl<'b> CycleLanes<'b> {
    fn new(bank: &'b CornerBank) -> CycleLanes<'b> {
        CycleLanes {
            bank,
            stage_delay_ps: vec![0.0; Stage::COUNT * bank.padded],
            max_delay_ps: vec![0.0; bank.padded],
            droop: None,
            shortfall: [0.0; Stage::COUNT],
            entries: [0; Stage::COUNT],
            rows: ALL_ROWS,
            pure_key: None,
        }
    }

    /// Lane count including padding.
    #[must_use]
    pub fn padded_lanes(&self) -> usize {
        self.bank.padded
    }

    /// One stage's delay lanes (length [`CycleLanes::padded_lanes`]),
    /// evaluated and kept first if the fold skipped the row.
    #[inline]
    pub fn stage_lanes(&mut self, stage: Stage) -> &[Ps] {
        let padded = self.bank.padded;
        self.fill(stage, padded);
        &self.stage_delay_ps[stage.index() * padded..][..padded]
    }

    /// One stage's delay lanes through a shared reference: the held row,
    /// or, when the fold skipped it, the row evaluated into `scratch` (at
    /// least [`CycleLanes::padded_lanes`] long). Inlined, so the evaluation
    /// runs in the caller's copy of its lane kernel.
    #[inline(always)]
    pub fn stage_lanes_with<'s>(&'s self, stage: Stage, scratch: &'s mut [Ps]) -> &'s [Ps] {
        let padded = self.bank.padded;
        let s = stage.index();
        if self.rows & 1 << s != 0 {
            return &self.stage_delay_ps[s * padded..][..padded];
        }
        self.bank
            .row(self.entries[s], self.shortfall[s], scratch, padded);
        &scratch[..padded]
    }

    /// Evaluates and keeps stage `stage`'s row if the lanes lack it.
    /// `lanes` is the bank's padded width, passed by the copy of the kernel
    /// that runs this.
    #[inline(always)]
    fn fill(&mut self, stage: Stage, lanes: usize) {
        let s = stage.index();
        if self.rows & 1 << s == 0 {
            let out = &mut self.stage_delay_ps[s * lanes..][..lanes];
            self.bank
                .row(self.entries[s], self.shortfall[s], out, lanes);
            self.rows |= 1 << s;
        }
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

    /// The kernel of both perturbations: evaluates the rows the fold
    /// skipped, then rescales each stage's lanes by that stage's factor and
    /// re-folds the maximum lanes. The lanes are no longer pure.
    fn rescale(&mut self, factors: &[f64; Stage::COUNT]) {
        self.pure_key = None;
        let bank = self.bank;
        bank.isa.run(
            bank.padded,
            #[inline(always)]
            |lanes| {
                for stage in Stage::ALL {
                    self.fill(stage, lanes);
                }
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
    cycle: CycleLanes<'b>,
}

impl<'b> BankEvaluator<'b> {
    /// Evaluates one digested cycle against every corner of the bank,
    /// returning the delay lanes in structure-of-arrays form — the
    /// corner-batched replay's only evaluation entry point. Lane `i`
    /// carries exactly the stage delays and maximum of
    /// `models[i].digest_cycle_timing(cycle, dc)` on the model the bank was
    /// built from (same dither, blend, delay and max-fold arithmetic),
    /// minus the limiting-stage attribution no lane consumer reads.
    ///
    /// On a bank wider than one chunk the fold evaluates, stores and
    /// max-folds only the stage rows that no in-flight stage dominates (see
    /// [`CornerBank`]); the maximum lanes are the same bits either way, and
    /// the skipped rows are evaluated when read (see [`CycleLanes`]). The
    /// reference is mutable so a [`Perturbation`](crate::Perturbation) can
    /// perturb the lanes in place; the next call recomputes every lane from
    /// scratch.
    pub fn cycle_lanes(&mut self, cycle: u64, dc: &DigestCycle) -> &mut CycleLanes<'b> {
        let bank = self.cycle.bank;
        bank.isa.run(
            bank.padded,
            #[inline(always)]
            |lanes| self.fold(cycle, dc, lanes),
        );
        &mut self.cycle
    }

    /// The body of [`BankEvaluator::cycle_lanes`], compiled into every copy
    /// of [`LaneIsa::run`]; `padded` is the bank's padded width.
    #[inline(always)]
    fn fold(&mut self, cycle: u64, dc: &DigestCycle, padded: usize) {
        let bank = self.cycle.bank;
        // Corner-invariant per-cycle terms, computed once and broadcast: all
        // six stage dithers come out of one batched hash kernel (shared with
        // the scalar `digest_cycle_timing`, so both paths stay bit-identical
        // by construction).
        let dithers = stage_dithers(cycle, dc.fetch_address);
        let shortfalls: [f64; Stage::COUNT] = std::array::from_fn(|stage| {
            let dither = dithers[stage];
            1.0 - blend_excitation(dc.excitation[stage].raw(dither), dither)
        });
        let entries: [usize; Stage::COUNT] =
            std::array::from_fn(|stage| entry_index(Stage::ALL[stage], dc.classes[stage]));
        // A bank of one chunk evaluates every row: its one-chunk copy, where
        // `padded` is the constant `LANE_WIDTH`, compiles the test away.
        let rows = if padded > LANE_WIDTH {
            bank.live_rows(&entries, &shortfalls)
        } else {
            ALL_ROWS
        };
        let scale = &bank.scale[..padded];
        // One fused pass per evaluated stage: `lane_delay` is exactly the
        // scalar `delay_from_excitation` and the select-form running max
        // keeps each lane's comparison sequence in stage order with the
        // scalar strict-`>` reduction, so both stay bit-identical to the
        // per-corner path while the loops vectorize branch-free. The first
        // evaluated stage initializes the max lanes outright instead of
        // folding against a zero fill: delays are non-negative, so the
        // scalar `delay > 0.0` fold picks the same value either way. A
        // skipped row is no larger than some evaluated one, and equal
        // delays are equal bits, so the maximum is the same bits too.
        let mut first = true;
        for stage in Stage::ALL {
            if rows & 1 << stage.index() == 0 {
                continue;
            }
            let shortfall = shortfalls[stage.index()];
            let at = entries[stage.index()] * padded;
            let base = &bank.base[at..at + padded];
            let spread = &bank.spread[at..at + padded];
            let out = &mut self.cycle.stage_delay_ps[stage.index() * padded..][..padded];
            let max = &mut self.cycle.max_delay_ps[..padded];
            if first {
                for lane in 0..padded {
                    let delay = lane_delay(base[lane], spread[lane], shortfall, scale[lane]);
                    out[lane] = delay;
                    max[lane] = delay;
                }
                first = false;
            } else {
                for lane in 0..padded {
                    let delay = lane_delay(base[lane], spread[lane], shortfall, scale[lane]);
                    out[lane] = delay;
                    max[lane] = if delay > max[lane] { delay } else { max[lane] };
                }
            }
        }
        // Stored once, after the lane loops, so no store through `self`
        // sits between them.
        self.cycle.shortfall = shortfalls;
        self.cycle.entries = entries;
        self.cycle.rows = rows;
        self.cycle.pure_key = bank.monotone_key;
    }
}

/// Index of one `(stage, class)` entry in a bank's lane arrays, in rows:
/// its lanes start at `entry_index(stage, class) * padded`.
fn entry_index(stage: Stage, class: TimingClass) -> usize {
    stage.index() * TimingClass::COUNT + class.index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CycleTiming, FaultSpec, ProfileKind, VariationModel, DROOP_WINDOW_CYCLES,
        SHIFT_ONSET_HORIZON,
    };
    use idca_isa::asm::Assembler;
    use idca_pipeline::{CycleRecordFlags, SimConfig, Simulator, StageExcitation, TimingDigest};

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
        lanes: &mut CycleLanes<'_>,
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
        let bank = CornerBank::from_models(&[]);
        let mut lanes = CycleLanes::new(&bank);
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

    /// `true` when the two lane slices hold the same bits.
    fn same_bits(a: &[Ps], b: &[Ps]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The scenarios [`pruned_fold_equals_the_every_stage_fold`] cycles
    /// through.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Scenario {
        Clean,
        Faulted,
        Surged,
    }

    /// The pruned fold equals the fold that keeps every stage, bit for
    /// bit, on every cycle and in every copy a bank of the drawn width can
    /// run: the maximum lanes, and every stage row however it is read —
    /// kept by the fold, evaluated by a perturbation before it rescales,
    /// evaluated into scratch by `stage_lanes_with`, or filled in place by
    /// `stage_lanes`. A clean walk of a bank wider than one chunk skips
    /// more than half of its stage rows; a bank of one chunk skips none.
    #[test]
    fn pruned_fold_equals_the_every_stage_fold() {
        use crate::{IrqTimeline, Perturbation};
        use idca_cases::property;
        use idca_gen::{generate_program, nth_seed, GenConfig};
        use idca_pipeline::{DigestObserver, InterruptPlan, InterruptSpec, IrqPhase};
        use Scenario::*;
        const SCENARIOS: [Scenario; 3] = [Clean, Faulted, Surged];
        // Coprime with the scenario count, so consecutive cases walk every
        // pairing: past the AVX2 gate, two multi-chunk baseline widths,
        // then every one-chunk width.
        const CORNERS: [u32; 7] = [37, 8, 5, 1, 2, 3, 4];
        property!(
            pruned_fold_equals_the_every_stage_fold,
            master = 0xCA5E_001E,
            cases = 14
        )
        .run(|case| {
            let index = case.index() as usize;
            let scenario = SCENARIOS[index % SCENARIOS.len()];
            let corners = CORNERS[index % CORNERS.len()];
            let seed = case.u64();
            let models = varied_models(corners, seed);
            let program = generate_program(nth_seed(seed, 0), &GenConfig::default());
            let irq = (scenario == Surged).then(|| InterruptSpec {
                seed: case.u64(),
                rate: f64::from(case.int(1u32..=20)) / 1000.0,
                penalty: case.int(1u32..=8),
                surge: case.f64(0.05..0.5),
                ..InterruptSpec::default()
            });
            let mut capture = DigestObserver::new();
            match &irq {
                Some(spec) => {
                    let (attached, plan) = InterruptPlan::attach(&program, spec);
                    Simulator::new(SimConfig::default())
                        .with_interrupts(plan)
                        .run_observed(&attached, &mut [&mut capture])
                }
                None => {
                    Simulator::new(SimConfig::default()).run_observed(&program, &mut [&mut capture])
                }
            }
            .expect("generated programs terminate");
            let digest = capture.into_digest();
            let timeline = irq.map(|spec| IrqTimeline::from_events(digest.events(), spec.penalty));
            let plan = (scenario == Faulted).then(|| {
                FaultPlan::new(&FaultSpec {
                    seed: case.u64(),
                    droop_rate: case.f64(0.0..0.5),
                    droop_mag: case.f64(0.0..0.4),
                    spike_rate: case.f64(0.0..0.05),
                    spike_mag: case.f64(0.0..0.5),
                    shift_mag: case.f64(0.0..0.1),
                    ..FaultSpec::default()
                })
            });
            let perturbation = Perturbation {
                faults: plan.as_ref(),
                surge_factor: irq.map_or(1.0, |spec| 1.0 + spec.surge),
            };

            let bank = CornerBank::from_models(&models);
            let mut scratch = vec![0.0; bank.padded_lanes()];
            for isa in copies(corners as usize) {
                let what = format!("{scenario:?} {isa:?} corners {corners}");
                let pruned = bank.clone().with_isa(isa);
                let every = bank.clone().with_isa(isa).with_every_stage();
                let mut pruned = pruned.evaluator();
                let mut every = every.evaluator();
                let mut cursor = timeline.as_ref().map(IrqTimeline::cursor);
                let mut skipped = 0;
                digest.for_each_cycle(|cycle, dc| {
                    let entry = cursor
                        .as_mut()
                        .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry);
                    let lanes = pruned.cycle_lanes(cycle, dc);
                    skipped += Stage::COUNT - lanes.rows.count_ones() as usize;
                    perturbation.lanes(cycle, lanes, entry);
                    let oracle = every.cycle_lanes(cycle, dc);
                    assert_eq!(oracle.rows, ALL_ROWS, "{what}");
                    perturbation.lanes(cycle, oracle, entry);
                    assert!(
                        same_bits(lanes.max_lanes(), oracle.max_lanes()),
                        "{what}: cycle {cycle} max lanes"
                    );
                    for stage in Stage::ALL {
                        let expected = oracle.stage_lanes(stage);
                        assert!(
                            same_bits(lanes.stage_lanes_with(stage, &mut scratch), expected),
                            "{what}: cycle {cycle} {stage:?} read through scratch"
                        );
                        assert!(
                            same_bits(lanes.stage_lanes(stage), expected),
                            "{what}: cycle {cycle} {stage:?} filled in place"
                        );
                    }
                });
                let rows = digest.cycles() as usize * Stage::COUNT;
                if corners as usize <= LANE_WIDTH {
                    assert_eq!(skipped, 0, "{what}: one chunk keeps every row");
                } else if scenario == Clean {
                    assert!(
                        skipped * 2 > rows,
                        "{what}: skipped {skipped} of {rows} rows"
                    );
                }
            }
        });
    }

    /// A cycle of the given classes whose stage `s` has the raw excitation
    /// `excitation[s]` whatever the dither.
    fn hand_cycle(
        classes: [TimingClass; Stage::COUNT],
        excitation: [f64; Stage::COUNT],
    ) -> DigestCycle {
        DigestCycle {
            classes,
            excitation: excitation.map(|base| StageExcitation {
                base,
                dither_gain: 0.0,
            }),
            fetch_address: 0x40,
            flags: CycleRecordFlags::default(),
        }
    }

    /// A bank of `corners` corners in which entry `e` has the parameters
    /// `params(e)` in every corner lane and lane `l` the scale `scale(l)`.
    fn hand_bank(
        corners: usize,
        params: impl Fn(usize) -> (Ps, Ps),
        scale: impl Fn(usize) -> f64,
    ) -> CornerBank {
        let padded = corners.next_multiple_of(LANE_WIDTH);
        let mut base = vec![0.0; ENTRIES * padded];
        let mut spread = vec![0.0; ENTRIES * padded];
        for entry in 0..ENTRIES {
            let (entry_base, entry_spread) = params(entry);
            base[entry * padded..][..corners].fill(entry_base);
            spread[entry * padded..][..corners].fill(entry_spread);
        }
        let mut scales = vec![0.0; padded];
        for (lane, lane_scale) in scales[..corners].iter_mut().enumerate() {
            *lane_scale = scale(lane);
        }
        CornerBank::from_lanes(base, spread, scales, vec![2000.0; corners])
    }

    /// Folds one cycle through `bank` and through the same bank keeping
    /// every stage, asserts that their maximum lanes and every row hold the
    /// same bits, and returns the rows the pruned fold kept.
    fn fold_both(bank: &CornerBank, cycle: u64, dc: &DigestCycle) -> u8 {
        let every = bank.clone().with_every_stage();
        let (mut pruned, mut every) = (bank.evaluator(), every.evaluator());
        let lanes = pruned.cycle_lanes(cycle, dc);
        let rows = lanes.rows;
        let oracle = every.cycle_lanes(cycle, dc);
        assert!(
            same_bits(lanes.max_lanes(), oracle.max_lanes()),
            "max lanes"
        );
        for stage in Stage::ALL {
            assert!(
                same_bits(lanes.stage_lanes(stage), oracle.stage_lanes(stage)),
                "{stage:?}"
            );
        }
        rows
    }

    #[test]
    fn a_nan_excitation_keeps_every_stage() {
        let models = varied_models(8, 0x0A0A);
        let bank = CornerBank::from_models(&models);
        assert!(bank.dominators.is_some());
        let (mut clean_pruned, mut cycles) = (0, 0);
        mixed_digest().for_each_cycle(|cycle, dc| {
            clean_pruned += u32::from(fold_both(&bank, cycle, dc) != ALL_ROWS);
            cycles += 1;
            for stage in Stage::ALL {
                let excitation = dc.excitation[stage.index()];
                for nan in [
                    StageExcitation {
                        base: f64::NAN,
                        ..excitation
                    },
                    StageExcitation {
                        dither_gain: f64::NAN,
                        ..excitation
                    },
                ] {
                    let mut poisoned = *dc;
                    poisoned.excitation[stage.index()] = nan;
                    assert_eq!(fold_both(&bank, cycle, &poisoned), ALL_ROWS);
                    let mut evaluator = bank.evaluator();
                    let lanes = evaluator.cycle_lanes(cycle, &poisoned);
                    for (corner, model) in models.iter().enumerate() {
                        let scalar = model.digest_cycle_timing(cycle, &poisoned);
                        assert_lane_matches(lanes, corner, &scalar, cycle, "NaN excitation");
                    }
                }
            }
        });
        // The same cycles without the NaN do prune.
        assert!(
            clean_pruned * 2 > cycles,
            "{clean_pruned} of {cycles} cycles pruned"
        );
        // The blend clamps every other excitation into [0, 1], so the fold
        // meets no other shortfall outside it; the guard holds for any.
        let entries = std::array::from_fn(|stage| entry_index(Stage::ALL[stage], TimingClass::Add));
        assert_ne!(bank.live_rows(&entries, &[0.5; Stage::COUNT]), ALL_ROWS);
        for stage in 0..Stage::COUNT {
            for outside in [-0.25, 1.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut shortfalls = [0.5; Stage::COUNT];
                shortfalls[stage] = outside;
                assert_eq!(
                    bank.live_rows(&entries, &shortfalls),
                    ALL_ROWS,
                    "stage {stage} {outside}"
                );
            }
        }
    }

    #[test]
    fn a_bank_with_a_signed_zero_negative_nan_or_infinite_parameter_prunes_nothing() {
        let clean = CornerBank::from_models(&varied_models(8, 0x5160));
        assert!(clean.dominators.is_some());
        // A bank of one chunk has no masks either.
        assert!(CornerBank::from_models(&varied_models(4, 0x5160))
            .dominators
            .is_none());
        let lane = 5;
        let at = entry_index(Stage::Execute, TimingClass::Mul) * clean.padded + lane;
        for bad in [-0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut base = clean.base.clone();
            base[at] = bad;
            let mut spread = clean.spread.clone();
            spread[at] = bad;
            let mut scale = clean.scale.clone();
            scale[lane] = bad;
            let banks = [
                ("base", base, clean.spread.clone(), clean.scale.clone()),
                ("spread", clean.base.clone(), spread, clean.scale.clone()),
                ("scale", clean.base.clone(), clean.spread.clone(), scale),
            ];
            for (which, base, spread, scale) in banks {
                let bank =
                    CornerBank::from_lanes(base, spread, scale, clean.static_period_ps.clone());
                assert!(bank.dominators.is_none(), "{which} {bad}");
            }
        }
    }

    #[test]
    fn mutually_dominating_entries_keep_the_earlier_stage() {
        let execute = entry_index(Stage::Execute, TimingClass::Add);
        let control = entry_index(Stage::Control, TimingClass::Load);
        // Equal bases and no spread: each of the two rows is one value at
        // every shortfall, so they dominate each other. Every other entry
        // lies below both.
        let bank = hand_bank(
            8,
            |entry| {
                if entry == execute || entry == control {
                    (2000.0, 0.0)
                } else {
                    (100.0, 50.0)
                }
            },
            |lane| 1.0 + lane as f64 / 8.0,
        );
        let dominators = bank.dominators.as_ref().expect("a clean bank has masks");
        assert_ne!(dominators[control] & 1 << execute, 0);
        assert_eq!(dominators[execute] & 1 << control, 0);
        let mut classes = [TimingClass::Nop; Stage::COUNT];
        classes[Stage::Execute.index()] = TimingClass::Add;
        classes[Stage::Control.index()] = TimingClass::Load;
        for excitation in [0.0, 0.3, 1.0] {
            let dc = hand_cycle(classes, [excitation; Stage::COUNT]);
            assert_eq!(fold_both(&bank, 3, &dc), 1 << Stage::Execute.index());
        }
    }

    #[test]
    fn a_pruned_row_tying_its_dominator_folds_the_same_bits() {
        let decode = entry_index(Stage::Decode, TimingClass::Add);
        let execute = entry_index(Stage::Execute, TimingClass::Mul);
        // Decode's least, `1000 - 400`, is exactly Execute's most, `600`:
        // Decode dominates Execute, not the other way round. Every other
        // entry is zero.
        let bank = hand_bank(
            8,
            |entry| match entry {
                _ if entry == decode => (1000.0, 400.0),
                _ if entry == execute => (600.0, 100.0),
                _ => (0.0, 0.0),
            },
            |lane| [1.0, 1.1, 0.93, 1.37, 0.5, 2.0, 1.0, 0.77][lane],
        );
        let mut classes = [TimingClass::Bubble; Stage::COUNT];
        classes[Stage::Decode.index()] = TimingClass::Add;
        classes[Stage::Execute.index()] = TimingClass::Mul;
        // Raw excitations far outside [0, 1] blend to exactly 0 (Decode's
        // shortfall 1) and 1 (Execute's shortfall 0).
        let mut excitation = [0.5; Stage::COUNT];
        excitation[Stage::Decode.index()] = -10.0;
        excitation[Stage::Execute.index()] = 10.0;
        let dc = hand_cycle(classes, excitation);
        let rows = fold_both(&bank, 9, &dc);
        assert_ne!(rows & 1 << Stage::Decode.index(), 0);
        assert_eq!(rows & 1 << Stage::Execute.index(), 0);
        // The skipped row ties its dominator in every lane, and the maximum
        // is that value.
        let mut evaluator = bank.evaluator();
        let lanes = evaluator.cycle_lanes(9, &dc);
        let max = lanes.max_lanes().to_vec();
        let decode_row = lanes.stage_lanes(Stage::Decode).to_vec();
        assert!(same_bits(lanes.stage_lanes(Stage::Execute), &decode_row));
        assert!(same_bits(&max, &decode_row));
        assert!(max.iter().all(|&delay| delay > 0.0));
    }
}
