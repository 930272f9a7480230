//! The dynamic-clock simulation driver.
//!
//! This is the software equivalent of the paper's enhanced cycle-accurate
//! instruction-set simulator: for every cycle it asks a [`ClockPolicy`] for
//! the clock period, passes the request through the [`ClockGenerator`]
//! model, accumulates the resulting execution time and — crucially — checks
//! the *frequency-over-scaling without timing errors* invariant by comparing
//! every realized period against the actual dynamic delay of that cycle.
//!
//! The driver is a streaming accumulator over digested cycles:
//! [`replay_digest`] replays a captured [`TimingDigest`] through a
//! [`PolicyObserver`], and [`replay_digest_banked`] replays it against many
//! corner-varied models in one walk (see also [`crate::eval`]). The
//! observer also implements [`CycleObserver`] and evaluates each live
//! record through the same per-cycle body: it is the live oracle the
//! replays are pinned against.

use crate::tally::{frequencies, ViolationTally};
use crate::{ClockGenerator, ClockPolicy};
use idca_pipeline::{CycleObserver, CycleRecord, DigestCycle, IrqPhase, RunSummary, TimingDigest};
use idca_timing::{
    CornerBank, CycleTiming, FaultPlan, IrqCursor, IrqTimeline, Perturbation, Ps, TimingModel,
};
use serde::{Deserialize, Serialize};

/// Result of replaying one trace under one clocking policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Name of the policy that produced this outcome.
    pub policy: String,
    /// Number of cycles in the replayed trace.
    pub cycles: u64,
    /// Architecturally retired instructions.
    pub retired: u64,
    /// Total execution time in picoseconds (sum of realized periods).
    pub total_time_ps: f64,
    /// Average realized clock period in picoseconds.
    pub avg_period_ps: Ps,
    /// Shortest realized period.
    pub min_period_ps: Ps,
    /// Longest realized period.
    pub max_period_ps: Ps,
    /// Effective clock frequency in MHz (cycles / total time).
    pub effective_frequency_mhz: f64,
    /// Instructions per second, in millions (throughput metric).
    pub mips: f64,
    /// Cycles in which the realized period was shorter than the actual
    /// dynamic delay — must be zero for a correctly constructed LUT.
    pub violations: u64,
    /// The subset of [`RunOutcome::violations`] that occurred during
    /// exception-entry cycles (the flush-and-redirect window after an
    /// interrupt is accepted, when the entry delay surge is in effect).
    /// Zero for interrupt-free runs.
    #[serde(default)]
    pub entry_violations: u64,
    /// Violating cycles whose overshoot stayed inside the fault plan's
    /// detection window: a Razor-style detect-and-replay pipeline catches
    /// them and re-executes at the replay penalty. Zero without a fault
    /// plan.
    pub recovered_cycles: u64,
    /// Total replay cycles charged for the recovered violations (the fault
    /// plan's per-event penalty times [`RunOutcome::recovered_cycles`]).
    pub replay_penalty_cycles: u64,
    /// Violating cycles whose overshoot escaped the detection window — the
    /// detect-and-replay net misses them, so they are tallied as silent
    /// data-corruption risk instead of being repaired.
    pub silent_risk_cycles: u64,
    /// Effective clock frequency in MHz **after** charging the replay
    /// penalty time for every recovered violation — the
    /// throughput-under-recovery score. Bit-equal to
    /// [`RunOutcome::effective_frequency_mhz`] when nothing was recovered.
    pub recovery_frequency_mhz: f64,
}

impl RunOutcome {
    /// Speedup of this outcome relative to a baseline outcome
    /// (ratio of effective frequencies; > 1 means faster).
    #[must_use]
    pub fn speedup_over(&self, baseline: &RunOutcome) -> f64 {
        if baseline.effective_frequency_mhz == 0.0 {
            1.0
        } else {
            self.effective_frequency_mhz / baseline.effective_frequency_mhz
        }
    }
}

/// Streaming dynamic-clock evaluation: a [`CycleObserver`] that applies a
/// [`ClockPolicy`] to every cycle as the pipeline simulator produces it,
/// realizes the requested period through a [`ClockGenerator`] and checks the
/// no-timing-violation invariant against `model`, with no materialized
/// trace. Switching activity is a property of the run, not of the policy:
/// the power model folds it once per run from the digest or the trace.
///
/// Several `PolicyObserver`s can ride on the same
/// [`run_observed`](idca_pipeline::Simulator::run_observed) pass (the live
/// oracle of [`replay_digest`]) or the same digest walk
/// ([`crate::eval::compare_digest_policies`]).
pub struct PolicyObserver<'a> {
    model: &'a TimingModel,
    policy: &'a dyn ClockPolicy,
    generator: &'a ClockGenerator,
    perturbation: Perturbation<'a>,
    irq: Option<IrqCursor<'a>>,
    tally: ViolationTally,
    min_period_ps: Ps,
    max_period_ps: Ps,
    outcome: Option<RunOutcome>,
}

impl<'a> PolicyObserver<'a> {
    /// Creates an observer evaluating `policy` through `generator` against
    /// the dynamic delays of `model`.
    #[must_use]
    pub fn new(
        model: &'a TimingModel,
        policy: &'a dyn ClockPolicy,
        generator: &'a ClockGenerator,
    ) -> Self {
        PolicyObserver {
            model,
            policy,
            generator,
            perturbation: Perturbation::default(),
            irq: None,
            tally: ViolationTally::default(),
            min_period_ps: Ps::INFINITY,
            max_period_ps: 0.0,
            outcome: None,
        }
    }

    /// Attaches a [`FaultPlan`]: the cycle-computing entry points
    /// ([`CycleObserver::observe_cycle`], [`PolicyObserver::observe_digest`])
    /// perturb each cycle's timing through the plan, and every violation is
    /// classified through the plan's recovery model — detected-and-replayed
    /// (inside the detection window, at the configured penalty) or silent
    /// corruption risk. [`PolicyObserver::observe_digest_timed`] expects the
    /// *caller* to have perturbed the timing already; the plan then only
    /// drives the recovery accounting.
    #[must_use]
    pub fn with_faults(mut self, faults: &'a FaultPlan) -> Self {
        self.perturbation.faults = Some(faults);
        self
    }

    /// Attaches the interrupt scenario: `surge_factor` (`1 + surge`, so
    /// `1.0` = no surge) scales every stage delay during exception-entry
    /// cycles, and violations on those cycles are additionally tallied as
    /// [`RunOutcome::entry_violations`].
    ///
    /// The phase source differs per path: the **live** path
    /// ([`CycleObserver::observe_cycle`]) reads each record's
    /// `irq_phase` directly — pass `None` for `timeline`. The **replay**
    /// paths ([`PolicyObserver::observe_digest`] and friends) rebuild the
    /// phases from the digest event stream — pass the run's
    /// [`IrqTimeline`]. Both classify exactly the same cycles as entry
    /// cycles (pinned by the interrupt differential tests).
    ///
    /// Like faults, the surge convention splits by entry point: the
    /// cycle-computing entry points apply it themselves through a
    /// [`Perturbation`] (after the fault factors — the canonical order),
    /// while [`PolicyObserver::observe_digest_timed`] expects the caller to
    /// have applied it already.
    #[must_use]
    pub fn with_interrupts(mut self, timeline: Option<&'a IrqTimeline>, surge_factor: f64) -> Self {
        self.irq = timeline.map(IrqTimeline::cursor);
        self.perturbation.surge_factor = surge_factor;
        self
    }

    /// Whether `cycle` is an exception-entry cycle according to the
    /// attached replay timeline (`false` when none is attached).
    fn entry_at(&mut self, cycle: u64) -> bool {
        self.irq
            .as_mut()
            .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry)
    }

    /// Consumes the observer and returns the outcome of the run.
    ///
    /// # Panics
    ///
    /// Panics if the simulation never called [`CycleObserver::finish`]
    /// (i.e. the run errored out or the observer was never driven).
    #[must_use]
    pub fn into_outcome(self) -> RunOutcome {
        self.outcome
            .expect("simulation must complete (finish) before taking the outcome")
    }

    /// Evaluates one *digested* cycle, with its interrupt phase from the
    /// attached timeline — the body live observation runs too, so replaying
    /// a digest is bit-identical to observing the originating
    /// [`CycleRecord`]s.
    pub fn observe_digest(&mut self, cycle: u64, digest_cycle: &DigestCycle) {
        let entry = self.entry_at(cycle);
        self.evaluate(cycle, digest_cycle, entry);
    }

    /// [`PolicyObserver::observe_digest`] with the cycle's [`CycleTiming`]
    /// already evaluated — and already perturbed, faults and entry surge
    /// alike — so several observers riding the same replay share one model
    /// evaluation per cycle ([`crate::eval::compare_digest_policies`]). The
    /// cycle's interrupt phase still comes from the attached timeline.
    pub fn observe_digest_timed(
        &mut self,
        cycle: u64,
        digest_cycle: &DigestCycle,
        timing: &CycleTiming,
    ) {
        let entry = self.entry_at(cycle);
        self.step(cycle, digest_cycle, timing.max_delay_ps, entry);
    }

    /// The per-cycle evaluation of live observation and digest replay: the
    /// model's dynamic delays, perturbed by the attached faults and entry
    /// surge, then [`PolicyObserver::step`].
    fn evaluate(&mut self, cycle: u64, digest_cycle: &DigestCycle, entry: bool) {
        let timing = self.model.digest_cycle_timing(cycle, digest_cycle);
        let timing = self.perturbation.timing(cycle, timing, entry);
        self.step(cycle, digest_cycle, timing.max_delay_ps, entry);
    }

    /// The per-cycle accumulation shared by every entry point: the policy
    /// decides from the digest's classes, the realized period is accounted
    /// against the actual dynamic delay ([`ViolationTally::record`]) and
    /// folded into the min/max period.
    fn step(&mut self, cycle: u64, digest_cycle: &DigestCycle, actual: Ps, entry: bool) {
        let requested = self.policy.digest_period_ps(cycle, digest_cycle);
        let realized = self.generator.realize(requested);
        self.tally
            .record(realized, actual, entry, self.perturbation.faults);
        self.min_period_ps = self.min_period_ps.min(realized);
        self.max_period_ps = self.max_period_ps.max(realized);
    }
}

impl CycleObserver for PolicyObserver<'_> {
    fn observe_cycle(&mut self, record: &CycleRecord) {
        let entry = record.irq_phase == IrqPhase::Entry;
        self.evaluate(record.cycle, &DigestCycle::of_record(record), entry);
    }

    fn finish(&mut self, summary: &RunSummary) {
        let cycles = summary.cycles;
        let tally = self.tally;
        let (avg_period_ps, effective_frequency_mhz, recovery_frequency_mhz) =
            frequencies(tally.total_time_ps, tally.penalty_time_ps, cycles);
        let mips = if tally.total_time_ps > 0.0 {
            summary.retired as f64 / (tally.total_time_ps * 1e-6)
        } else {
            0.0
        };
        self.outcome = Some(RunOutcome {
            policy: self.policy.name().to_string(),
            cycles,
            retired: summary.retired,
            total_time_ps: tally.total_time_ps,
            avg_period_ps,
            min_period_ps: if cycles == 0 { 0.0 } else { self.min_period_ps },
            max_period_ps: self.max_period_ps,
            effective_frequency_mhz,
            mips,
            violations: tally.violations,
            entry_violations: tally.entry_violations,
            recovered_cycles: tally.recovered_cycles,
            replay_penalty_cycles: tally.replay_penalty_cycles,
            silent_risk_cycles: tally.silent_risk_cycles,
            recovery_frequency_mhz,
        });
    }
}

/// Replays a [`TimingDigest`] under `policy` — the simulate-once /
/// evaluate-many entry point: one digested simulation can be evaluated
/// against any number of (e.g. PVT-varied) timing models without a
/// simulator in the loop. Drives the same accumulation as
/// [`PolicyObserver`] on the live pass, so the outcome — violations,
/// realized periods, effective frequency — is bit-identical to that
/// observer riding the originating execution.
#[must_use]
pub fn replay_digest(
    model: &TimingModel,
    digest: &TimingDigest,
    policy: &dyn ClockPolicy,
    generator: &ClockGenerator,
) -> RunOutcome {
    let mut observer = PolicyObserver::new(model, policy, generator);
    digest.for_each_cycle(|cycle, dc| observer.observe_digest(cycle, dc));
    observer.finish(&digest.summary());
    observer.into_outcome()
}

/// Replays a [`TimingDigest`] under `policy` against **all** `models` in a
/// single digest walk — the corner-batched counterpart of
/// [`replay_digest`]. The per-cycle dither and excitation blend are
/// computed once and broadcast; the per-corner delay folds run through the
/// [`CornerBank`]'s vectorized lanes. Outcome `i` is bit-identical to
/// `replay_digest(&models[i], digest, policy, generator)` (pinned by the
/// banked-replay property tests), at a fraction of the walk cost.
///
/// # Example
///
/// Capture a digest once, then evaluate one policy against several
/// PVT-varied corners in a single walk:
///
/// ```
/// use idca_core::{policy::InstructionBased, replay_digest_banked, ClockGenerator};
/// use idca_isa::asm::Assembler;
/// use idca_pipeline::{DigestObserver, SimConfig, Simulator};
/// use idca_timing::{ProfileKind, TimingModel, VariationModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Assembler::new().assemble(
///     "l.addi r3, r0, 20\nloop: l.addi r3, r3, -1\n l.sfne r3, r0\n l.bf loop\n l.nop 0\n l.nop 1\n",
/// )?;
/// let mut observer = DigestObserver::new();
/// Simulator::new(SimConfig::default()).run_observed(&program, &mut [&mut observer])?;
/// let digest = observer.into_digest();
///
/// let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
/// let variation = VariationModel::default();
/// let corners: Vec<TimingModel> = (0..4u32)
///     .map(|i| variation.apply(&nominal, &variation.sample_corner(7, i)))
///     .collect();
/// let policy = InstructionBased::from_model(&nominal);
///
/// let outcomes = replay_digest_banked(&corners, &digest, &policy, &ClockGenerator::Ideal);
/// assert_eq!(outcomes.len(), corners.len());
/// assert!(outcomes.iter().all(|o| o.cycles == digest.cycles()));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn replay_digest_banked(
    models: &[TimingModel],
    digest: &TimingDigest,
    policy: &dyn ClockPolicy,
    generator: &ClockGenerator,
) -> Vec<RunOutcome> {
    let bank = CornerBank::from_models(models);
    let mut pbank = crate::PolicyBank::new(policy.name(), models.len(), generator);
    let mut evaluator = bank.evaluator();
    digest.for_each_run(|start, len, dc| {
        for cycle in start..start + u64::from(len) {
            // The policy sees only the digest, never the model, so its
            // request is corner-invariant: decide once per cycle (it may
            // depend on the cycle index — the genie oracle dithers), and
            // the bank holds the realized period and its limits once, as
            // scalars, for every lane.
            pbank.begin_block(policy.digest_period_ps(cycle, dc));
            // The evaluated cycle stays in structure-of-arrays form: the
            // bank folds the contiguous max-delay lanes directly, or skips
            // them when its threshold covers the cycle's bound.
            pbank.observe_cycle(evaluator.lazy_lanes(cycle, dc), false);
        }
    });
    pbank.finish(&digest.summary());
    pbank.into_outcomes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GenieOracle, InstructionBased, StaticClock};
    use crate::DelayLut;
    use idca_isa::asm::Assembler;
    use idca_pipeline::{DigestObserver, SimConfig, Simulator};
    use idca_timing::ProfileKind;

    fn digest(src: &str) -> TimingDigest {
        let program = Assembler::new().assemble(src).unwrap();
        let mut capture = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .run_observed(&program, &mut [&mut capture])
            .unwrap();
        capture.into_digest()
    }

    fn mixed_digest() -> TimingDigest {
        digest(
            "        l.addi r1, r0, 0x100
                     l.addi r3, r0, 50
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

    #[test]
    fn static_clock_matches_sta_frequency() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let outcome = replay_digest(
            &model,
            &mixed_digest(),
            &StaticClock::of_model(&model),
            &ClockGenerator::Ideal,
        );
        assert!((outcome.effective_frequency_mhz - 493.6).abs() < 1.0);
        assert_eq!(outcome.violations, 0);
        assert_eq!(outcome.min_period_ps, outcome.max_period_ps);
    }

    #[test]
    fn instruction_based_is_faster_without_violations() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = mixed_digest();
        let baseline = replay_digest(
            &model,
            &t,
            &StaticClock::of_model(&model),
            &ClockGenerator::Ideal,
        );
        let dynamic = replay_digest(
            &model,
            &t,
            &InstructionBased::from_model(&model),
            &ClockGenerator::Ideal,
        );
        assert_eq!(dynamic.violations, 0);
        let speedup = dynamic.speedup_over(&baseline);
        assert!(speedup > 1.15, "speedup {speedup}");
        assert!(dynamic.mips > baseline.mips);
    }

    #[test]
    fn genie_oracle_bounds_the_lut_policy() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = mixed_digest();
        let lut = replay_digest(
            &model,
            &t,
            &InstructionBased::from_model(&model),
            &ClockGenerator::Ideal,
        );
        let genie = replay_digest(
            &model,
            &t,
            &GenieOracle::new(model.clone()),
            &ClockGenerator::Ideal,
        );
        assert!(genie.effective_frequency_mhz >= lut.effective_frequency_mhz);
        assert_eq!(genie.violations, 0);
    }

    #[test]
    fn quantized_generator_reduces_but_preserves_gain() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = mixed_digest();
        let policy = InstructionBased::from_model(&model);
        let ideal = replay_digest(&model, &t, &policy, &ClockGenerator::Ideal);
        let quantized = replay_digest(&model, &t, &policy, &ClockGenerator::quantized_50ps());
        assert!(quantized.effective_frequency_mhz <= ideal.effective_frequency_mhz);
        assert_eq!(quantized.violations, 0);
        let baseline = replay_digest(
            &model,
            &t,
            &StaticClock::of_model(&model),
            &ClockGenerator::Ideal,
        );
        assert!(quantized.speedup_over(&baseline) > 1.1);
    }

    #[test]
    fn undersized_static_clock_is_flagged_as_violating() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = mixed_digest();
        // Clock the core at half the static period: plenty of violations.
        let reckless = StaticClock::new(model.static_period_ps() / 2.0);
        let outcome = replay_digest(&model, &t, &reckless, &ClockGenerator::Ideal);
        assert!(outcome.violations > 0);
    }

    #[test]
    fn characterized_lut_replayed_on_same_workload_has_no_violations() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = mixed_digest();
        let dta = idca_timing::dta::DynamicTimingAnalysis::replay_digest(&model, &t);
        let lut = DelayLut::from_dta(&dta, 1);
        let outcome = replay_digest(
            &model,
            &t,
            &InstructionBased::new(lut),
            &ClockGenerator::Ideal,
        );
        assert_eq!(outcome.violations, 0);
    }

    #[test]
    fn banked_replay_matches_per_corner_replay() {
        use idca_timing::VariationModel;
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let vm = VariationModel::default();
        let models: Vec<TimingModel> = (0..5)
            .map(|i| vm.apply(&nominal, &vm.sample_corner(0xBA2C, i)))
            .collect();
        let digest = mixed_digest();
        let policy = InstructionBased::from_model(&nominal);
        let banked = replay_digest_banked(&models, &digest, &policy, &ClockGenerator::Ideal);
        assert_eq!(banked.len(), models.len());
        for (model, outcome) in models.iter().zip(&banked) {
            let scalar = replay_digest(model, &digest, &policy, &ClockGenerator::Ideal);
            assert_eq!(*outcome, scalar);
        }
        // An empty bank yields no outcomes but also no panic.
        assert!(replay_digest_banked(&[], &digest, &policy, &ClockGenerator::Ideal).is_empty());
    }

    #[test]
    fn empty_trace_produces_neutral_outcome() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let empty = TimingDigest::default();
        let outcome = replay_digest(
            &model,
            &empty,
            &StaticClock::of_model(&model),
            &ClockGenerator::Ideal,
        );
        assert_eq!(outcome.cycles, 0);
        assert_eq!(outcome.effective_frequency_mhz, 0.0);
        assert_eq!(outcome.violations, 0);
    }
}
