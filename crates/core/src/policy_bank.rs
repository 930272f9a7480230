//! Corner-batched accumulation for table-driven clock policies.
//!
//! [`PolicyBank`] is the policy-side counterpart of
//! [`idca_timing::CornerBank`] and [`crate::AdaptiveBank`]: it packs the
//! per-corner accumulator state of one [`PolicyObserver`](crate::PolicyObserver)
//! — realized-time, violation, fault-recovery and min/max folds — into
//! [`LANE_WIDTH`]-padded structure-of-arrays lanes, so a digest replay
//! updates all `M` corners of one policy in contiguous loops instead of
//! stepping `M` scalar observers per cycle.
//!
//! The bank exploits a structural property of the table-driven policies
//! (static / instruction-based / execute-only): their requested period
//! depends only on the digest classes (or on nothing at all), never on the
//! cycle index. Within one digest RLE run-block the request — and therefore
//! the generator-realized period, the violation threshold and the fault
//! detection limit — is constant, so [`PolicyBank::begin_block`] hoists all
//! four out of the per-cycle loop and [`PolicyBank::observe_actuals`]
//! reduces each cycle to a compare-and-count over the lanes.
//!
//! Every fold replicates [`PolicyObserver`](crate::PolicyObserver)'s
//! arithmetic operation-for-operation (same order, same constants), so
//! [`PolicyBank::into_outcomes`] is bit-identical to running `M`
//! independent scalar observers — pinned by the property tests in
//! `tests/banked_replay.rs` and `tests/fault_replay.rs`.

use crate::sim::RunOutcome;
use crate::tally::frequencies;
use crate::ClockGenerator;
use idca_pipeline::{CycleObserver, RunSummary};
use idca_timing::{ActivityObserver, FaultPlan, Ps, LANE_WIDTH};

/// SoA-packed per-corner accumulators of one clock policy evaluated
/// against `M` PVT corners — see the [module docs](self).
///
/// # Protocol
///
/// For each digest run-block: one call to [`PolicyBank::begin_block`]
/// (corner-invariant request) or [`PolicyBank::begin_block_per_corner`]
/// (per-corner requests, e.g. the per-corner static period), then one
/// [`PolicyBank::observe_actuals`] per cycle of the block with the
/// lane-packed actual delays. After the walk, [`PolicyBank::finish`] with
/// the run summary and [`PolicyBank::into_outcomes`] to take the
/// per-corner [`RunOutcome`]s.
#[derive(Debug, Clone)]
pub struct PolicyBank<'a> {
    policy_name: String,
    generator: &'a ClockGenerator,
    faults: Option<FaultPlan>,
    corners: usize,
    padded: usize,
    // Per-lane accumulators, `padded` long; the padding lanes accumulate
    // against zeroed requests/actuals and are never read back.
    total_time_ps: Vec<f64>,
    penalty_time_ps: Vec<f64>,
    min_period_ps: Vec<Ps>,
    max_period_ps: Vec<Ps>,
    violations: Vec<u64>,
    entry_violations: Vec<u64>,
    recovered_cycles: Vec<u64>,
    replay_penalty_cycles: Vec<u64>,
    silent_risk_cycles: Vec<u64>,
    // Block-hoisted per-lane values, refreshed by `begin_block*`:
    // the generator-realized period, the violation threshold
    // (`realized + 1e-9`), the fault detection limit
    // (`realized * (1 + detect_window)`) and the per-event penalty time
    // (`realized * replay_penalty`).
    realized: Vec<Ps>,
    threshold: Vec<Ps>,
    detect_limit: Vec<Ps>,
    penalty_step: Vec<f64>,
    // Last block's requests, so a repeated request (the common case: the
    // table-driven policies emit a handful of distinct periods) skips the
    // realize-and-derive refill.
    last_requests: Vec<Ps>,
    primed: bool,
    outcomes: Option<Vec<RunOutcome>>,
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
        PolicyBank {
            policy_name: policy_name.into(),
            generator,
            faults: None,
            corners,
            padded,
            total_time_ps: vec![0.0; padded],
            penalty_time_ps: vec![0.0; padded],
            min_period_ps: vec![Ps::INFINITY; padded],
            max_period_ps: vec![0.0; padded],
            violations: vec![0; padded],
            entry_violations: vec![0; padded],
            recovered_cycles: vec![0; padded],
            replay_penalty_cycles: vec![0; padded],
            silent_risk_cycles: vec![0; padded],
            realized: vec![0.0; padded],
            threshold: vec![0.0; padded],
            detect_limit: vec![0.0; padded],
            penalty_step: vec![0.0; padded],
            last_requests: vec![0.0; padded],
            primed: false,
            outcomes: None,
        }
    }

    /// Attaches a [`FaultPlan`]: violations are classified through the
    /// plan's recovery model exactly as in
    /// [`PolicyObserver::with_faults`](crate::PolicyObserver::with_faults).
    /// The caller is expected to perturb the cycle lanes with
    /// [`Perturbation::lanes`](idca_timing::Perturbation::lanes) before
    /// [`PolicyBank::observe_actuals`].
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Number of (unpadded) corners the bank accumulates.
    #[must_use]
    pub fn corners(&self) -> usize {
        self.corners
    }

    /// Lane-buffer length: [`PolicyBank::corners`] rounded up to the next
    /// [`LANE_WIDTH`] multiple — the expected length of the `actuals`
    /// slice fed to [`PolicyBank::observe_actuals`].
    #[must_use]
    pub fn padded_lanes(&self) -> usize {
        self.padded
    }

    /// Clears all accumulator state so the bank can replay another digest
    /// (same corners, same generator) without reallocating — the
    /// worker-scratch counterpart of constructing a fresh bank.
    pub fn reset(&mut self) {
        self.total_time_ps.fill(0.0);
        self.penalty_time_ps.fill(0.0);
        self.min_period_ps.fill(Ps::INFINITY);
        self.max_period_ps.fill(0.0);
        self.violations.fill(0);
        self.entry_violations.fill(0);
        self.recovered_cycles.fill(0);
        self.replay_penalty_cycles.fill(0);
        self.silent_risk_cycles.fill(0);
        self.primed = false;
        self.outcomes = None;
    }

    /// Starts a run-block whose request is corner-invariant (the
    /// table-driven LUT policies decide from digest classes alone):
    /// realizes `requested` once, broadcasts the hoisted
    /// threshold/detect/penalty values across the lanes and folds the
    /// block's min/max periods.
    #[inline]
    pub fn begin_block(&mut self, requested: Ps) {
        if self.padded == 0 {
            return;
        }
        // Min/max folding is idempotent, so folding only when the realized
        // period actually changes (a request-cache miss) is bit-identical
        // to the scalar observer's per-cycle fold.
        if !(self.primed && self.last_requests[0] == requested) {
            let realized = self.generator.realize(requested);
            self.fill_lanes_uniform(requested, realized);
            self.fold_min_max();
        }
    }

    /// [`PolicyBank::begin_block`] with one request per corner (the static
    /// baseline clocks each corner at its own STA period). `requests` must
    /// be [`PolicyBank::corners`] long.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.corners()`.
    pub fn begin_block_per_corner(&mut self, requests: &[Ps]) {
        assert_eq!(requests.len(), self.corners, "one request per corner");
        if !(self.primed && self.last_requests[..self.corners] == *requests) {
            for lane in 0..self.padded {
                let requested = requests.get(lane).copied().unwrap_or(0.0);
                let realized = self.generator.realize(requested);
                self.set_lane(lane, requested, realized);
            }
            self.primed = true;
            self.fold_min_max();
        }
    }

    /// Broadcasts one realized request across every lane.
    fn fill_lanes_uniform(&mut self, requested: Ps, realized: Ps) {
        self.last_requests.fill(requested);
        self.realized.fill(realized);
        self.threshold.fill(realized + 1e-9);
        if let Some(plan) = &self.faults {
            let spec = plan.spec();
            self.detect_limit
                .fill(realized * (1.0 + spec.detect_window));
            self.penalty_step
                .fill(realized * f64::from(spec.replay_penalty));
        }
        self.primed = true;
    }

    /// Writes one lane's hoisted block values.
    fn set_lane(&mut self, lane: usize, requested: Ps, realized: Ps) {
        self.last_requests[lane] = requested;
        self.realized[lane] = realized;
        self.threshold[lane] = realized + 1e-9;
        if let Some(plan) = &self.faults {
            let spec = plan.spec();
            self.detect_limit[lane] = realized * (1.0 + spec.detect_window);
            self.penalty_step[lane] = realized * f64::from(spec.replay_penalty);
        }
    }

    /// Folds the current block's realized period into the min/max lanes.
    /// The realized period is constant within a block, so folding once per
    /// block is bit-identical to the scalar observer's per-cycle fold
    /// (min/max are idempotent).
    #[inline]
    fn fold_min_max(&mut self) {
        let lanes = self
            .min_period_ps
            .iter_mut()
            .zip(&mut self.max_period_ps)
            .zip(&self.realized);
        for ((min, max), &realized) in lanes {
            *min = min.min(realized);
            *max = max.max(realized);
        }
    }

    /// Accumulates one cycle: compares each lane's hoisted threshold
    /// against that lane's actual delay and advances the violation,
    /// recovery and realized-time accumulators. `actuals` must be
    /// [`PolicyBank::padded_lanes`] long (lane `i` = corner `i`'s
    /// [`CycleTiming::max_delay_ps`](idca_timing::CycleTiming::max_delay_ps);
    /// padding lanes zero).
    ///
    /// # Panics
    ///
    /// Panics if `actuals.len() != self.padded_lanes()`.
    ///
    /// `inline(never)` keeps this kernel out of the sweep's replay loop:
    /// merged with the evaluator and the other banks it spills registers
    /// and roughly doubles the replay time (see `AdaptiveBank::
    /// observe_cycle_lanes_phased` for the same finding).
    #[inline(never)]
    pub fn observe_actuals(&mut self, actuals: &[Ps]) {
        let lanes = actuals.len();
        assert_eq!(lanes, self.padded, "lane-packed actual delays");
        match &self.faults {
            Some(plan) => {
                let penalty = u64::from(plan.spec().replay_penalty);
                let threshold = &self.threshold[..lanes];
                let detect_limit = &self.detect_limit[..lanes];
                let penalty_step = &self.penalty_step[..lanes];
                let realized = &self.realized[..lanes];
                let violations = &mut self.violations[..lanes];
                let recovered = &mut self.recovered_cycles[..lanes];
                let replayed = &mut self.replay_penalty_cycles[..lanes];
                let silent = &mut self.silent_risk_cycles[..lanes];
                let penalty_time = &mut self.penalty_time_ps[..lanes];
                let total_time = &mut self.total_time_ps[..lanes];
                for lane in 0..lanes {
                    let actual = actuals[lane];
                    let violated = threshold[lane] < actual;
                    let detected = violated && actual <= detect_limit[lane];
                    violations[lane] += u64::from(violated);
                    recovered[lane] += u64::from(detected);
                    replayed[lane] += u64::from(detected) * penalty;
                    silent[lane] += u64::from(violated && !detected);
                    // `x + 0.0 == x` bit-exactly for the non-negative
                    // accumulator, so the select keeps the loop branch-free
                    // while matching the scalar observer's guarded add.
                    penalty_time[lane] += if detected { penalty_step[lane] } else { 0.0 };
                    total_time[lane] += realized[lane];
                }
            }
            None => {
                let folds = self
                    .violations
                    .iter_mut()
                    .zip(&mut self.total_time_ps)
                    .zip(&self.threshold)
                    .zip(&self.realized)
                    .zip(actuals);
                for ((((violations, total_time), &threshold), &realized), &actual) in folds {
                    *violations += u64::from(threshold < actual);
                    *total_time += realized;
                }
            }
        }
    }

    /// [`PolicyBank::observe_actuals`] for an exception-entry cycle: the
    /// same accumulation, plus each lane's violation (recomputed from the
    /// hoisted threshold, so the count is bit-identical to the main kernel's
    /// compare) is tallied into the entry-violation lanes. The caller is
    /// expected to have applied the entry surge to `actuals` already
    /// ([`Perturbation::lanes`](idca_timing::Perturbation::lanes)), like the
    /// fault factors.
    pub fn observe_actuals_entry(&mut self, actuals: &[Ps]) {
        self.observe_actuals(actuals);
        let folds = self
            .entry_violations
            .iter_mut()
            .zip(&self.threshold)
            .zip(actuals);
        for ((entry, &threshold), &actual) in folds {
            *entry += u64::from(threshold < actual);
        }
    }

    /// Derives the per-corner [`RunOutcome`]s from the accumulated lanes —
    /// field-for-field the arithmetic of
    /// [`PolicyObserver`](crate::PolicyObserver)'s `finish`. The activity
    /// summary is the empty-finished default (the banked paths fold
    /// activity once, outside the bank); callers that replay activity
    /// assign it onto the outcomes afterwards.
    pub fn finish(&mut self, summary: &RunSummary) {
        let mut activity = ActivityObserver::new();
        activity.finish(summary);
        let activity = activity.summary();
        let cycles = summary.cycles;
        let outcomes = (0..self.corners)
            .map(|lane| {
                let total_time_ps = self.total_time_ps[lane];
                let (avg_period_ps, effective_frequency_mhz, recovery_frequency_mhz) =
                    frequencies(total_time_ps, self.penalty_time_ps[lane], cycles);
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
                    min_period_ps: if cycles == 0 {
                        0.0
                    } else {
                        self.min_period_ps[lane]
                    },
                    max_period_ps: self.max_period_ps[lane],
                    effective_frequency_mhz,
                    mips,
                    violations: self.violations[lane],
                    entry_violations: self.entry_violations[lane],
                    recovered_cycles: self.recovered_cycles[lane],
                    replay_penalty_cycles: self.replay_penalty_cycles[lane],
                    silent_risk_cycles: self.silent_risk_cycles[lane],
                    recovery_frequency_mhz,
                    activity,
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
    use idca_pipeline::{SimConfig, Simulator, TimingDigest};
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

    /// Drives a bank and the scalar reference over the same digest and
    /// asserts bit-identical outcomes (modulo the activity fold, which the
    /// bank leaves empty-finished).
    fn assert_bank_matches_scalar(models: &[TimingModel], faults: Option<FaultPlan>) {
        let digest = digest();
        let generator = ClockGenerator::quantized_50ps();
        let bank = CornerBank::from_models(models);
        // Per-corner static periods: exercises the per-corner block entry.
        let requests: Vec<Ps> = (0..models.len())
            .map(|i| bank.static_period_ps(i))
            .collect();

        let mut pbank = PolicyBank::new("static", models.len(), &generator);
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
            let mut scalar = observer.into_outcome();
            scalar.activity = expected.activity;
            assert_eq!(*expected, scalar, "corner {corner}");
        }
    }

    #[test]
    fn bank_matches_scalar_observers_without_faults() {
        assert_bank_matches_scalar(&corner_models(5), None);
    }

    #[test]
    fn bank_matches_scalar_observers_under_faults() {
        let spec = FaultSpec::parse("seed=3,droop-rate=0.4,droop-mag=0.5,spike-rate=0.05,spike-mag=0.9,penalty=5,detect-window=0.3")
            .unwrap();
        assert_bank_matches_scalar(&corner_models(6), Some(FaultPlan::new(&spec)));
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
