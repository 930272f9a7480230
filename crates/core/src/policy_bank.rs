//! Corner-batched accumulation for table-driven clock policies.
//!
//! [`PolicyBank`] is the policy-side counterpart of
//! [`idca_timing::CornerBank`] and [`crate::AdaptiveBank`]: it accumulates
//! what one [`PolicyObserver`](crate::PolicyObserver) per corner would —
//! realized time, violation, fault-recovery and min/max folds — for `M`
//! PVT corners at once, so a digest replay updates all `M` corners of one
//! policy in contiguous [`LANE_WIDTH`]-padded loops instead of stepping `M`
//! scalar observers per cycle.
//!
//! The table-driven policies (static / instruction-based / execute-only)
//! never read a corner's timing model, so the bank does per-lane work only
//! where the lanes can differ:
//!
//! - A walk fed by [`PolicyBank::begin_block`] — corner-invariant
//!   requests, as the instruction-based and execute-only policies issue —
//!   holds its lane-uniform state once, as scalars: the realized period,
//!   the violation threshold, the fault detection limit, the penalty step,
//!   the total time and the min/max period. Each request costs one realize
//!   and a few scalar operations, whatever the corner count. Every lane
//!   would add the same realized periods in the same order, so the one
//!   scalar sum equals each lane's sum bit for bit, and min and max are
//!   idempotent.
//! - A walk fed by [`PolicyBank::begin_block_per_corner`] — the static
//!   baseline clocks each corner at its own STA period — holds the same
//!   values per lane. Those requests are fixed for a whole job, so the
//!   sweep primes them once per job; each cycle then adds the realized
//!   lanes into the total-time lanes.
//!
//! Per cycle, [`PolicyBank::observe_cycle`] does the remaining per-lane
//! work: the violation compare-and-count, plus the recovery classification
//! and penalty time under a fault plan, plus the entry count on
//! exception-entry cycles. That loop runs in the copy the bank's width
//! selects ([`LaneIsa::for_lanes`]): the one-chunk copy at 1–4 corners, the
//! AVX2 copy from 32 padded lanes on a CPU with AVX2, the baseline
//! otherwise.
//!
//! A cycle whose lanes carry a [`CycleLanes::bound`] skips that loop when a
//! scalar test proves it would count nothing: no lane's actual delay
//! exceeds the bound, so a uniform threshold at or above it cannot be
//! undercut, and per-lane thresholds at or above the bank's
//! [`CycleLanes::ceiling`] cannot be either. The per-corner walk checks its
//! thresholds against the ceiling once per priming and bank key. A skipped
//! compare would have counted zero, and the cycle's maximum lanes are then
//! never folded; the run time is still added.
//!
//! Every fold replicates [`PolicyObserver`](crate::PolicyObserver)'s
//! arithmetic operation for operation (same order, same constants), so
//! [`PolicyBank::into_outcomes`] is bit-identical to running `M`
//! independent scalar observers — pinned by the property tests in
//! `tests/banked_replay.rs`, `tests/fault_replay.rs` and
//! `tests/interrupt_replay.rs`.

use crate::sim::RunOutcome;
use crate::tally::frequencies;
use crate::ClockGenerator;
use idca_pipeline::RunSummary;
use idca_timing::{CycleLanes, FaultPlan, FaultSpec, LaneIsa, Ps, LANE_WIDTH};

/// Per-corner accumulators of one clock policy evaluated against `M` PVT
/// corners — see the [module docs](self).
///
/// # Protocol
///
/// The first [`PolicyBank::begin_block`] (a corner-invariant request) or
/// [`PolicyBank::begin_block_per_corner`] (one request per corner) after
/// [`PolicyBank::new`] or [`PolicyBank::reset`] fixes the walk's request
/// kind. Call it again whenever the request may change — the sweep calls
/// `begin_block` once per digest run-block and `begin_block_per_corner`
/// once per job — and [`PolicyBank::observe_cycle`] once per cycle with
/// the cycle's lanes and its entry flag. After the walk,
/// [`PolicyBank::finish`] with the run summary and
/// [`PolicyBank::into_outcomes`] to take the per-corner [`RunOutcome`]s.
#[derive(Debug, Clone)]
pub struct PolicyBank<'a> {
    policy_name: String,
    generator: &'a ClockGenerator,
    corners: usize,
    padded: usize,
    // The walk's request kind, fixed by its first `begin_*` call.
    kind: Option<Requests>,
    // A `begin_block` walk's state, equal in every lane and so held once.
    uniform: Realized<Ps>,
    total_time_ps: f64,
    min_period_ps: Ps,
    max_period_ps: Ps,
    // A `begin_block_per_corner` walk's state, `padded` long; the padding
    // lanes realize a zero request and are never read back.
    lane_requests: Vec<Ps>,
    lanes: Realized<Vec<Ps>>,
    lane_total_time_ps: Vec<f64>,
    lane_min_period_ps: Vec<Ps>,
    lane_max_period_ps: Vec<Ps>,
    tally: LaneTally,
    outcomes: Option<Vec<RunOutcome>>,
    // The copy of the observe kernel this bank runs.
    isa: LaneIsa,
    // Whether bounded cycles may skip the compare; only the tests' oracle
    // turns it off.
    certifies: bool,
    // A `begin_block_per_corner` walk's certificate: the key of the corner
    // bank its thresholds were checked against, and whether every lane's
    // threshold covers that bank's ceiling. Cleared by each new priming.
    lane_cover: Option<(u64, bool)>,
    // Cycles whose compare a certificate skipped, for the tests' coverage
    // check.
    #[cfg(test)]
    pub(crate) certified_cycles: u64,
}

/// Which `begin_*` call feeds a walk's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Requests {
    /// [`PolicyBank::begin_block`]: one request shared by every corner.
    Uniform,
    /// [`PolicyBank::begin_block_per_corner`]: one request per corner.
    PerCorner,
}

/// A realized period and the accounting limits it fixes, derived with the
/// scalar observer's arithmetic: held once (`Realized<Ps>`) for a
/// corner-invariant request, in lanes (`Realized<Vec<Ps>>`) otherwise.
#[derive(Debug, Clone, Copy)]
struct Realized<T> {
    period: T,
    /// The violation threshold, `period + 1e-9`.
    threshold: T,
    /// The fault detection limit, `period * (1 + detect_window)`.
    detect_limit: T,
    /// The replay time of one recovered violation,
    /// `period * replay_penalty`.
    penalty_step: T,
}

impl Realized<Ps> {
    /// Derives the limits of `period`; without a fault plan the detection
    /// limit and the penalty step are never read.
    #[inline]
    fn of(period: Ps, faults: Option<&FaultPlan>) -> Self {
        let spec = faults.map_or_else(FaultSpec::default, |plan| *plan.spec());
        Realized {
            period,
            threshold: period + 1e-9,
            detect_limit: period * (1.0 + spec.detect_window),
            penalty_step: period * f64::from(spec.replay_penalty),
        }
    }
}

impl<T> Realized<T> {
    fn map<'s, U>(&'s self, f: impl Fn(&'s T) -> U) -> Realized<U> {
        Realized {
            period: f(&self.period),
            threshold: f(&self.threshold),
            detect_limit: f(&self.detect_limit),
            penalty_step: f(&self.penalty_step),
        }
    }
}

/// One [`Realized`] field as the observe loops read it: a scalar shared by
/// every lane, or a slice with one value per lane.
trait Lane: Copy {
    fn at(self, lane: usize) -> Ps;
}

impl Lane for Ps {
    #[inline(always)]
    fn at(self, _lane: usize) -> Ps {
        self
    }
}

impl Lane for &[Ps] {
    #[inline(always)]
    fn at(self, lane: usize) -> Ps {
        self[lane]
    }
}

/// The lane-packed counterpart of
/// [`ViolationTally`](crate::tally::ViolationTally): the fault plan
/// violations are classified under, and the per-lane violation and
/// recovery counters, `padded` long (the padding lanes count against zero
/// actual delays and are never read back).
#[derive(Debug, Clone)]
struct LaneTally {
    faults: Option<FaultPlan>,
    violations: Vec<u64>,
    entry_violations: Vec<u64>,
    recovered_cycles: Vec<u64>,
    replay_penalty_cycles: Vec<u64>,
    silent_risk_cycles: Vec<u64>,
    penalty_time_ps: Vec<f64>,
}

impl LaneTally {
    /// Accounts one cycle against `limits`, lane by lane: the violation
    /// count, the recovery classification and penalty time under a fault
    /// plan, and the entry count on an `entry` cycle — the arithmetic of
    /// `ViolationTally::record`, minus the realized-time add the caller
    /// makes.
    #[inline(always)]
    fn record<T: Lane>(&mut self, actuals: &[Ps], limits: Realized<T>, entry: bool) {
        match self.faults {
            None => count(&mut self.violations, limits.threshold, actuals),
            Some(plan) => {
                let penalty = u64::from(plan.spec().replay_penalty);
                let lanes = actuals.len();
                let violations = &mut self.violations[..lanes];
                let recovered = &mut self.recovered_cycles[..lanes];
                let replayed = &mut self.replay_penalty_cycles[..lanes];
                let silent = &mut self.silent_risk_cycles[..lanes];
                let penalty_time = &mut self.penalty_time_ps[..lanes];
                for (lane, &actual) in actuals.iter().enumerate() {
                    let violated = limits.threshold.at(lane) < actual;
                    let detected = violated && actual <= limits.detect_limit.at(lane);
                    violations[lane] += u64::from(violated);
                    recovered[lane] += u64::from(detected);
                    replayed[lane] += u64::from(detected) * penalty;
                    silent[lane] += u64::from(violated && !detected);
                    // `x + 0.0 == x` bit-exactly for the non-negative
                    // accumulator, so the select keeps the loop branch-free
                    // while matching the scalar observer's guarded add.
                    penalty_time[lane] += if detected {
                        limits.penalty_step.at(lane)
                    } else {
                        0.0
                    };
                }
            }
        }
        if entry {
            count(&mut self.entry_violations, limits.threshold, actuals);
        }
    }
}

/// Adds each lane's violation, `threshold < actual`, into `counts`.
#[inline(always)]
fn count(counts: &mut [u64], threshold: impl Lane, actuals: &[Ps]) {
    for (lane, (count, &actual)) in counts.iter_mut().zip(actuals).enumerate() {
        *count += u64::from(threshold.at(lane) < actual);
    }
}

impl<'a> PolicyBank<'a> {
    /// Creates a bank accumulating `corners` lanes for the policy named
    /// `policy_name` (the name lands verbatim in [`RunOutcome::policy`]),
    /// realizing every request through `generator`.
    #[must_use]
    pub fn new(
        policy_name: impl Into<String>,
        corners: usize,
        generator: &'a ClockGenerator,
    ) -> Self {
        let padded = corners.next_multiple_of(LANE_WIDTH);
        let mut bank = PolicyBank {
            policy_name: policy_name.into(),
            generator,
            corners,
            padded,
            kind: None,
            uniform: Realized::of(0.0, None),
            total_time_ps: 0.0,
            min_period_ps: 0.0,
            max_period_ps: 0.0,
            lane_requests: vec![0.0; padded],
            lanes: Realized::of(0.0, None).map(|_| vec![0.0; padded]),
            lane_total_time_ps: vec![0.0; padded],
            lane_min_period_ps: vec![0.0; padded],
            lane_max_period_ps: vec![0.0; padded],
            tally: LaneTally {
                faults: None,
                violations: vec![0; padded],
                entry_violations: vec![0; padded],
                recovered_cycles: vec![0; padded],
                replay_penalty_cycles: vec![0; padded],
                silent_risk_cycles: vec![0; padded],
                penalty_time_ps: vec![0.0; padded],
            },
            outcomes: None,
            isa: LaneIsa::for_lanes(padded),
            certifies: true,
            lane_cover: None,
            #[cfg(test)]
            certified_cycles: 0,
        };
        bank.reset();
        bank
    }

    /// Pins the copy of the observe kernel, past the selection of
    /// [`LaneIsa::for_lanes`], so tests run every copy a bank of this width
    /// can run (the one-chunk copy only at one chunk).
    #[cfg(test)]
    pub(crate) fn with_isa(mut self, isa: LaneIsa) -> Self {
        self.isa = isa;
        self
    }

    /// Runs the compare on every cycle, past the certificates, so tests can
    /// compare the certifying bank against one that skips nothing.
    #[cfg(test)]
    pub(crate) fn with_every_compare(mut self) -> Self {
        self.certifies = false;
        self
    }

    /// Attaches a [`FaultPlan`]: violations are classified through the
    /// plan's recovery model exactly as in
    /// [`PolicyObserver::with_faults`](crate::PolicyObserver::with_faults).
    /// The caller is expected to perturb the cycle lanes with
    /// [`Perturbation::lanes`](idca_timing::Perturbation::lanes) before
    /// [`PolicyBank::observe_cycle`].
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.tally.faults = Some(faults);
        self
    }

    /// Number of (unpadded) corners the bank accumulates.
    #[must_use]
    pub fn corners(&self) -> usize {
        self.corners
    }

    /// Lane-buffer length: [`PolicyBank::corners`] rounded up to the next
    /// [`LANE_WIDTH`] multiple — the padded width of the lanes fed to
    /// [`PolicyBank::observe_cycle`].
    #[must_use]
    pub fn padded_lanes(&self) -> usize {
        self.padded
    }

    /// Clears all accumulator state and the walk's request kind so the
    /// bank can replay another digest (same corners, same generator)
    /// without reallocating — the worker-scratch counterpart of
    /// constructing a fresh bank.
    pub fn reset(&mut self) {
        self.kind = None;
        self.total_time_ps = 0.0;
        self.min_period_ps = Ps::INFINITY;
        self.max_period_ps = 0.0;
        self.lane_total_time_ps.fill(0.0);
        self.lane_min_period_ps.fill(Ps::INFINITY);
        self.lane_max_period_ps.fill(0.0);
        let tally = &mut self.tally;
        tally.violations.fill(0);
        tally.entry_violations.fill(0);
        tally.recovered_cycles.fill(0);
        tally.replay_penalty_cycles.fill(0);
        tally.silent_risk_cycles.fill(0);
        tally.penalty_time_ps.fill(0.0);
        self.outcomes = None;
    }

    /// Fixes the walk's request kind on its first `begin_*` call and
    /// returns whether an earlier call already had (so the last request is
    /// valid).
    #[inline]
    fn fix_kind(&mut self, kind: Requests) -> bool {
        let fixed = self.kind.replace(kind);
        assert_eq!(fixed.unwrap_or(kind), kind, "one request kind per walk");
        fixed.is_some()
    }

    /// Sets the corner-invariant request of the coming cycles (the
    /// table-driven LUT policies decide from digest classes alone): realizes
    /// it once and holds its limits and the min/max fold as scalars, so a
    /// call costs one realize and a few scalar operations whatever the
    /// corner count.
    ///
    /// # Panics
    ///
    /// Panics if this walk already called
    /// [`PolicyBank::begin_block_per_corner`].
    #[inline]
    pub fn begin_block(&mut self, requested: Ps) {
        self.fix_kind(Requests::Uniform);
        let realized = self.generator.realize(requested);
        self.uniform = Realized::of(realized, self.tally.faults.as_ref());
        self.min_period_ps = self.min_period_ps.min(realized);
        self.max_period_ps = self.max_period_ps.max(realized);
    }

    /// [`PolicyBank::begin_block`] with one request per corner (the static
    /// baseline clocks each corner at its own STA period), held in lanes.
    /// `requests` must be [`PolicyBank::corners`] long. Repeating the last
    /// requests costs one compare, so priming them once per job and
    /// repeating them per block accumulate the same outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.corners()`, or if this walk
    /// already called [`PolicyBank::begin_block`].
    pub fn begin_block_per_corner(&mut self, requests: &[Ps]) {
        assert_eq!(requests.len(), self.corners, "one request per corner");
        if self.fix_kind(Requests::PerCorner) && self.lane_requests[..self.corners] == *requests {
            return;
        }
        self.lane_cover = None;
        for lane in 0..self.padded {
            let requested = requests.get(lane).copied().unwrap_or(0.0);
            let realized = self.generator.realize(requested);
            let realized = Realized::of(realized, self.tally.faults.as_ref());
            self.lane_requests[lane] = requested;
            self.lanes.period[lane] = realized.period;
            self.lanes.threshold[lane] = realized.threshold;
            self.lanes.detect_limit[lane] = realized.detect_limit;
            self.lanes.penalty_step[lane] = realized.penalty_step;
            self.lane_min_period_ps[lane] = self.lane_min_period_ps[lane].min(realized.period);
            self.lane_max_period_ps[lane] = self.lane_max_period_ps[lane].max(realized.period);
        }
    }

    /// Accumulates one cycle: adds the realized period to the run time
    /// and compares each lane's threshold against that lane's maximum
    /// delay in `lanes`, advancing the violation and recovery counters, and
    /// on an `entry` cycle the entry-violation counters. The lanes must
    /// already carry the cycle's perturbation
    /// ([`Perturbation::lanes`](idca_timing::Perturbation::lanes)).
    ///
    /// On a cycle with a [`CycleLanes::bound`] the bank first tries a
    /// scalar certificate (see the [module docs](self)). A certified cycle
    /// adds only its run time and leaves a deferred maximum unfolded;
    /// otherwise the bank folds the maximum ([`CycleLanes::fold_max`]) and
    /// runs the compare. The counts are the same either way.
    ///
    /// # Panics
    ///
    /// Panics if the lanes' padded width differs from the bank's, or if
    /// neither [`PolicyBank::begin_block`] nor
    /// [`PolicyBank::begin_block_per_corner`] was called since
    /// [`PolicyBank::new`] or [`PolicyBank::reset`].
    ///
    /// `inline(never)` keeps this kernel out of the sweep's replay loop:
    /// merged with the evaluator and the other banks it spills registers
    /// and roughly doubles the replay time (see `AdaptiveBank::
    /// observe_cycle` for the same finding).
    #[inline(never)]
    pub fn observe_cycle(&mut self, lanes: &mut CycleLanes<'_>, entry: bool) {
        assert_eq!(lanes.padded_lanes(), self.padded, "lane widths must match");
        if !self.certified(lanes) {
            // One inlined copy per flag value, so the baseline and one-chunk
            // copies drop the entry count on ordinary cycles.
            let actuals = Some(lanes.fold_max());
            if entry {
                self.observe(actuals, true);
            } else {
                self.observe(actuals, false);
            }
        } else if self.kind == Some(Requests::Uniform) {
            // A certified uniform walk has no lane work left.
            self.total_time_ps += self.uniform.period;
        } else {
            self.observe(None, entry);
        }
    }

    /// Whether a certificate proves that this cycle's compare counts no
    /// violation in any lane: the lanes have a bound, and the walk's
    /// threshold covers it (uniform requests) or every lane's threshold
    /// covers the bank's ceiling (per-corner requests).
    #[inline(always)]
    fn certified(&mut self, lanes: &CycleLanes<'_>) -> bool {
        let Some(bound) = lanes.bound().filter(|_| self.certifies) else {
            return false;
        };
        let certified = match self.kind {
            Some(Requests::Uniform) => self.uniform.threshold >= bound,
            Some(Requests::PerCorner) => {
                let Some((key, ceiling)) = lanes.ceiling() else {
                    return false;
                };
                match self.lane_cover {
                    Some((checked, covers)) if checked == key => covers,
                    _ => {
                        let covers = self
                            .lanes
                            .threshold
                            .iter()
                            .zip(ceiling)
                            .all(|(threshold, ceiling)| threshold >= ceiling);
                        self.lane_cover = Some((key, covers));
                        covers
                    }
                }
            }
            None => false,
        };
        #[cfg(test)]
        {
            self.certified_cycles += u64::from(certified);
        }
        certified
    }

    /// [`PolicyBank::observe_cycle`] on a non-entry cycle whose lane-packed
    /// maximum delays are `actuals` ([`PolicyBank::padded_lanes`] long;
    /// lane `i` = corner `i`'s
    /// [`CycleTiming::max_delay_ps`](idca_timing::CycleTiming::max_delay_ps),
    /// padding lanes zero), with no certificate: the same kernel body,
    /// always comparing. It stays for the benchmark harness's traced walk
    /// until that walk reads the library's own timings (ROADMAP item 3).
    ///
    /// # Panics
    ///
    /// Panics if `actuals.len() != self.padded_lanes()`, or as
    /// [`PolicyBank::observe_cycle`] does.
    #[inline(never)]
    pub fn observe_actuals(&mut self, actuals: &[Ps]) {
        self.observe(Some(actuals), false);
    }

    /// [`PolicyBank::observe_actuals`] for an exception-entry cycle: the
    /// same accumulation, plus each lane's violation is tallied into the
    /// entry-violation counters. It stays, like `observe_actuals`, until
    /// ROADMAP item 3.
    ///
    /// # Panics
    ///
    /// Panics as [`PolicyBank::observe_actuals`] does.
    #[inline(never)]
    pub fn observe_actuals_entry(&mut self, actuals: &[Ps]) {
        self.observe(Some(actuals), true);
    }

    /// The one observe kernel behind every entry point, run in the bank's
    /// copy (see [`LaneIsa::run`]) and inlined into each: the run-time
    /// add, then, unless a certificate left `actuals` out, the compare.
    #[inline(always)]
    fn observe(&mut self, actuals: Option<&[Ps]>, entry: bool) {
        self.isa.run(
            self.padded,
            #[inline(always)]
            |lanes| self.observe_lanes(actuals, lanes, entry),
        );
    }

    /// The body of [`PolicyBank::observe`], compiled into every copy of
    /// [`LaneIsa::run`]; `lanes` is the bank's padded width.
    #[inline(always)]
    fn observe_lanes(&mut self, actuals: Option<&[Ps]>, lanes: usize, entry: bool) {
        let actuals = actuals.map(|actuals| {
            assert_eq!(actuals.len(), lanes, "lane-packed actual delays");
            &actuals[..lanes]
        });
        match self.kind {
            Some(Requests::Uniform) => {
                self.total_time_ps += self.uniform.period;
                if let Some(actuals) = actuals {
                    self.tally.record(actuals, self.uniform, entry);
                }
            }
            Some(Requests::PerCorner) => {
                let limits = self.lanes.map(|lane| &lane[..lanes]);
                for (total, &period) in self.lane_total_time_ps.iter_mut().zip(limits.period) {
                    *total += period;
                }
                if let Some(actuals) = actuals {
                    self.tally.record(actuals, limits, entry);
                }
            }
            None => panic!("PolicyBank observed a cycle before any begin_block call"),
        }
    }

    /// Derives the per-corner [`RunOutcome`]s from the accumulated state —
    /// field-for-field the arithmetic of
    /// [`PolicyObserver`](crate::PolicyObserver)'s `finish`.
    pub fn finish(&mut self, summary: &RunSummary) {
        let cycles = summary.cycles;
        // A `begin_block` walk held its run time and min/max once; every
        // corner reports them.
        if self.kind == Some(Requests::Uniform) {
            self.lane_total_time_ps.fill(self.total_time_ps);
            self.lane_min_period_ps.fill(self.min_period_ps);
            self.lane_max_period_ps.fill(self.max_period_ps);
        }
        let (tally, min_period) = (&self.tally, &self.lane_min_period_ps);
        let outcomes = (0..self.corners)
            .map(|lane| {
                let total_time_ps = self.lane_total_time_ps[lane];
                let (avg_period_ps, effective_frequency_mhz, recovery_frequency_mhz) =
                    frequencies(total_time_ps, tally.penalty_time_ps[lane], cycles);
                let mips = if total_time_ps > 0.0 {
                    summary.retired as f64 / (total_time_ps * 1e-6)
                } else {
                    0.0
                };
                RunOutcome {
                    policy: self.policy_name.clone(),
                    cycles,
                    retired: summary.retired,
                    total_time_ps,
                    avg_period_ps,
                    min_period_ps: if cycles == 0 { 0.0 } else { min_period[lane] },
                    max_period_ps: self.lane_max_period_ps[lane],
                    effective_frequency_mhz,
                    mips,
                    violations: tally.violations[lane],
                    entry_violations: tally.entry_violations[lane],
                    recovered_cycles: tally.recovered_cycles[lane],
                    replay_penalty_cycles: tally.replay_penalty_cycles[lane],
                    silent_risk_cycles: tally.silent_risk_cycles[lane],
                    recovery_frequency_mhz,
                }
            })
            .collect();
        self.outcomes = Some(outcomes);
    }

    /// Consumes the bank and returns one [`RunOutcome`] per corner.
    ///
    /// # Panics
    ///
    /// Panics if [`PolicyBank::finish`] was never called.
    #[must_use]
    pub fn into_outcomes(self) -> Vec<RunOutcome> {
        self.outcomes
            .expect("the digest walk must finish before taking the outcomes")
    }

    /// [`PolicyBank::into_outcomes`] by value without consuming the bank —
    /// the worker-scratch path takes the outcomes and keeps the lane
    /// storage for the next job.
    ///
    /// # Panics
    ///
    /// Panics if [`PolicyBank::finish`] was never called.
    #[must_use]
    pub fn take_outcomes(&mut self) -> Vec<RunOutcome> {
        self.outcomes
            .take()
            .expect("the digest walk must finish before taking the outcomes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticClock;
    use crate::PolicyObserver;
    use idca_pipeline::{CycleObserver, SimConfig, Simulator, TimingDigest};
    use idca_timing::{CornerBank, FaultSpec, ProfileKind, TimingModel, VariationModel};

    fn digest() -> TimingDigest {
        let program = idca_isa::asm::Assembler::new()
            .assemble(
                "        l.addi r1, r0, 0x80
                         l.addi r3, r0, 40
                 loop:   l.mul  r5, r3, r3
                         l.sw   0(r1), r5
                         l.lwz  r6, 0(r1)
                         l.addi r3, r3, -1
                         l.sfne r3, r0
                         l.bf   loop
                         l.nop  0
                         l.nop  1",
            )
            .unwrap();
        let trace = Simulator::new(SimConfig::default())
            .run(&program)
            .unwrap()
            .trace;
        TimingDigest::from_trace(&trace)
    }

    fn corner_models(n: u32) -> Vec<TimingModel> {
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let vm = VariationModel::default();
        (0..n)
            .map(|i| vm.apply(&nominal, &vm.sample_corner(0x9A7E, i)))
            .collect()
    }

    /// Drives a bank running the `isa` copy of its kernel and the scalar
    /// reference over the same digest and asserts bit-identical outcomes.
    fn assert_bank_matches_scalar(models: &[TimingModel], faults: Option<FaultPlan>, isa: LaneIsa) {
        let digest = digest();
        let generator = ClockGenerator::quantized_50ps();
        let bank = CornerBank::from_models(models);
        // Per-corner static periods: exercises the per-corner block entry.
        let requests: Vec<Ps> = (0..models.len())
            .map(|i| bank.static_period_ps(i))
            .collect();

        let mut pbank = PolicyBank::new("static", models.len(), &generator).with_isa(isa);
        if let Some(plan) = faults {
            pbank = pbank.with_faults(plan);
        }
        let mut evaluator = bank.evaluator();
        digest.for_each_run(|start, len, dc| {
            pbank.begin_block_per_corner(&requests);
            for cycle in start..start + u64::from(len) {
                let lanes = evaluator.cycle_lanes(cycle, dc);
                if let Some(plan) = &faults {
                    lanes.apply_fault(plan, cycle);
                }
                pbank.observe_actuals(lanes.max_lanes());
            }
        });
        pbank.finish(&digest.summary());
        let banked = pbank.into_outcomes();

        for (corner, (model, expected)) in models.iter().zip(&banked).enumerate() {
            let policy = StaticClock::new(requests[corner]);
            let mut observer = PolicyObserver::new(model, &policy, &generator);
            if let Some(plan) = &faults {
                observer = observer.with_faults(plan);
            }
            digest.for_each_cycle(|cycle, dc| {
                let timing = model.digest_cycle_timing(cycle, dc);
                let timing = match &faults {
                    Some(plan) => plan.faulted(cycle, &timing),
                    None => timing,
                };
                observer.observe_digest_timed(cycle, dc, &timing);
            });
            observer.finish(&digest.summary());
            assert_eq!(*expected, observer.into_outcome(), "corner {corner}");
        }
    }

    /// Every copy `with_isa` can force on a bank of `corners` corners: the
    /// baseline and the detected copy at any width, plus the copy the width
    /// selects (the one-chunk copy at 1–4 corners). Repeats are harmless.
    fn copies(corners: u32) -> [LaneIsa; 3] {
        [
            LaneIsa::BASELINE,
            LaneIsa::detected(),
            LaneIsa::for_lanes((corners as usize).next_multiple_of(LANE_WIDTH)),
        ]
    }

    // Every copy of the kernel at one chunk (1–4 corners), below and past
    // the wide-copy gate (37 corners pad to 40 lanes).
    #[test]
    fn bank_matches_scalar_observers_without_faults() {
        for corners in [1, 2, 3, 4, 5, 37] {
            for isa in copies(corners) {
                assert_bank_matches_scalar(&corner_models(corners), None, isa);
            }
        }
    }

    #[test]
    fn bank_matches_scalar_observers_under_faults() {
        let spec = FaultSpec::parse("seed=3,droop-rate=0.4,droop-mag=0.5,spike-rate=0.05,spike-mag=0.9,penalty=5,detect-window=0.3")
            .unwrap();
        let plan = FaultPlan::new(&spec);
        for corners in [1, 2, 3, 4, 6, 37] {
            for isa in copies(corners) {
                assert_bank_matches_scalar(&corner_models(corners), Some(plan), isa);
            }
        }
    }

    #[test]
    fn reset_reproduces_a_fresh_bank() {
        let generator = ClockGenerator::Ideal;
        let digest = digest();
        let mut bank = PolicyBank::new("static", 3, &generator);
        let run = |bank: &mut PolicyBank<'_>| {
            digest.for_each_run(|_start, len, _dc| {
                bank.begin_block(1800.0);
                let actuals = vec![1500.0; bank.padded_lanes()];
                for _ in 0..len {
                    bank.observe_actuals(&actuals);
                }
            });
            bank.finish(&digest.summary());
            bank.take_outcomes()
        };
        let first = run(&mut bank);
        bank.reset();
        let second = run(&mut bank);
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "before any begin_block call")]
    fn observing_before_any_request_panics() {
        // Without a request there is no threshold to compare against: a
        // silent zero threshold would count every cycle as a violation.
        let generator = ClockGenerator::Ideal;
        let mut bank = PolicyBank::new("static", 3, &generator);
        bank.observe_actuals(&[1500.0; 4]);
    }

    #[test]
    #[should_panic(expected = "one request kind per walk")]
    fn mixing_request_kinds_in_one_walk_panics() {
        let generator = ClockGenerator::Ideal;
        let mut bank = PolicyBank::new("static", 3, &generator);
        bank.begin_block(1800.0);
        bank.begin_block_per_corner(&[1800.0; 3]);
    }

    #[test]
    fn empty_digest_yields_neutral_outcomes() {
        let generator = ClockGenerator::Ideal;
        let mut bank = PolicyBank::new("static", 2, &generator);
        bank.finish(&RunSummary {
            cycles: 0,
            retired: 0,
        });
        let outcomes = bank.into_outcomes();
        assert_eq!(outcomes.len(), 2);
        for o in outcomes {
            assert_eq!(o.cycles, 0);
            assert_eq!(o.min_period_ps, 0.0);
            assert_eq!(o.effective_frequency_mhz, 0.0);
        }
    }
}
