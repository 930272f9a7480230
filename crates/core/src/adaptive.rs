//! Online updating of the delay prediction table.
//!
//! The paper's conclusion points out that the proposed approach "could be
//! effective in accounting for other static and dynamic timing variations,
//! for example due to process, temperature and voltage fluctuations, by
//! (online-)updating of the used delay prediction table". This module
//! implements that extension: an adaptive controller that starts from a
//! conservative table (or a pre-characterized LUT), observes the actual
//! dynamic delay of every cycle through an on-chip delay monitor — modelled
//! here by the [`TimingModel`] — and updates the per-class, per-stage entries
//! at run time:
//!
//! * entries are *tightened* toward the observed delays plus a safety margin
//!   (learning the LUT in the field instead of at characterization time);
//! * whenever the monitor reports a near-violation, the affected entry is
//!   *backed off*, which lets the table track slow drift (temperature,
//!   voltage droop, aging) that would invalidate a static characterization.

use crate::tally::{frequencies, ViolationTally};
use crate::{ClockGenerator, DelayLut};
use idca_isa::TimingClass;
use idca_pipeline::{
    CycleObserver, CycleRecord, DigestCycle, IrqPhase, RunSummary, Stage, TimingDigest,
};
use idca_timing::{
    CornerBank, CycleLanes, CycleTiming, FaultPlan, IrqCursor, IrqTimeline, LaneIsa, Perturbation,
    Ps, TimingModel, LANE_WIDTH,
};
use serde::{Deserialize, Serialize};

/// Configuration of the online-adaptive clock controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Safety margin added on top of every observed delay when tightening an
    /// entry (fraction, e.g. `0.05` = 5 %).
    pub margin: f64,
    /// Fractional increase applied to an entry whose realized period turned
    /// out to be insufficient (the monitor flagged a violation).
    pub violation_backoff: f64,
    /// Number of observations of a `(stage, class)` pair required before its
    /// entry may drop below the static period.
    pub warmup_observations: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            margin: 0.05,
            violation_backoff: 0.10,
            warmup_observations: 4,
        }
    }
}

/// Result of one adaptive run over a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// Number of replayed cycles.
    pub cycles: u64,
    /// Average realized clock period in picoseconds.
    pub avg_period_ps: Ps,
    /// Effective clock frequency in MHz.
    pub effective_frequency_mhz: f64,
    /// Speedup over conventional clocking at the (drift-free) static period.
    pub speedup_over_static: f64,
    /// Cycles whose realized period undercut the actual dynamic delay.
    pub violations: u64,
    /// The subset of [`AdaptiveOutcome::violations`] that occurred during
    /// exception-entry cycles (when the entry delay surge is in effect).
    /// Zero for interrupt-free runs.
    #[serde(default)]
    pub entry_violations: u64,
    /// Violating cycles caught by the fault plan's detection window and
    /// repaired at the replay penalty. Zero without a fault plan.
    pub recovered_cycles: u64,
    /// Total replay cycles charged for the recovered violations.
    pub replay_penalty_cycles: u64,
    /// Violating cycles that escaped the detection window — silent
    /// data-corruption risk.
    pub silent_risk_cycles: u64,
    /// Effective clock frequency in MHz **after** charging the replay
    /// penalty time — bit-equal to
    /// [`AdaptiveOutcome::effective_frequency_mhz`] when nothing was
    /// recovered.
    pub recovery_frequency_mhz: f64,
    /// Cycles spent at the conservative static period while entries warmed up.
    pub warmup_cycles: u64,
}

/// Environmental drift applied on top of the nominal dynamic delays,
/// modelling temperature/voltage variation over the course of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Drift {
    /// No drift: delays are exactly the nominal model's.
    None,
    /// Delays grow linearly by `fraction_per_kilocycle` every 1000 cycles
    /// (e.g. self-heating slowing the core down).
    LinearSlowdown {
        /// Fractional delay increase per 1000 cycles.
        fraction_per_kilocycle: f64,
    },
}

impl Drift {
    fn factor(self, cycle: u64) -> f64 {
        match self {
            Drift::None => 1.0,
            Drift::LinearSlowdown {
                fraction_per_kilocycle,
            } => 1.0 + fraction_per_kilocycle * (cycle as f64 / 1000.0),
        }
    }
}

/// Streaming online-adaptive clock controller: a [`CycleObserver`] that
/// replays the adaptive prediction/observation/update loop on every cycle as
/// the pipeline simulator produces it. Created by [`AdaptiveObserver::new`];
/// [`replay_adaptive_digest`] drives the same accumulation from a captured
/// digest.
pub struct AdaptiveObserver<'a> {
    model: &'a TimingModel,
    config: AdaptiveConfig,
    generator: &'a ClockGenerator,
    drift: Drift,
    static_period: Ps,
    // `learned[idx]` is the running maximum of (observed delay × (1+margin))
    // for that (stage, class) pair; it is only *used* for prediction once the
    // pair has been observed at least `warmup_observations` times. A seed LUT
    // pre-populates the learned values (field-refinement of an existing
    // characterization instead of learning from scratch).
    learned: Vec<Ps>,
    observations: Vec<u64>,
    perturbation: Perturbation<'a>,
    irq: Option<IrqCursor<'a>>,
    tally: ViolationTally,
    warmup_cycles: u64,
    outcome: Option<AdaptiveOutcome>,
}

impl<'a> AdaptiveObserver<'a> {
    /// Creates the controller. Entries start at the static period (or at
    /// `seed_lut` when provided) so the very first occurrences of an
    /// instruction class are always safe.
    #[must_use]
    pub fn new(
        model: &'a TimingModel,
        config: &AdaptiveConfig,
        generator: &'a ClockGenerator,
        seed_lut: Option<&DelayLut>,
        drift: Drift,
    ) -> Self {
        let table_len = Stage::COUNT * TimingClass::COUNT;
        let learned: Vec<Ps> = match seed_lut {
            Some(lut) => {
                let mut t = vec![0.0; table_len];
                for stage in Stage::ALL {
                    for class in TimingClass::ALL {
                        t[stage.index() * TimingClass::COUNT + class.index()] =
                            lut.delay_ps(stage, class);
                    }
                }
                t
            }
            None => vec![0.0; table_len],
        };
        let observations = vec![
            if seed_lut.is_some() {
                config.warmup_observations
            } else {
                0
            };
            table_len
        ];
        AdaptiveObserver {
            model,
            config: *config,
            generator,
            drift,
            static_period: model.static_period_ps(),
            learned,
            observations,
            perturbation: Perturbation::default(),
            irq: None,
            tally: ViolationTally::default(),
            warmup_cycles: 0,
            outcome: None,
        }
    }

    /// Attaches a [`FaultPlan`]: the cycle-computing entry points
    /// ([`CycleObserver::observe_cycle`],
    /// [`AdaptiveObserver::observe_digest`]) perturb each cycle's timing
    /// through the plan — so the controller both *suffers* the transient
    /// and *learns from* the perturbed delays — and every violation is
    /// classified through the plan's recovery model.
    /// [`AdaptiveObserver::observe_digest_timed`] expects the caller to
    /// have perturbed the timing already.
    #[must_use]
    pub fn with_faults(mut self, faults: &'a FaultPlan) -> Self {
        self.perturbation.faults = Some(faults);
        self
    }

    /// Attaches the interrupt scenario, exactly as
    /// [`PolicyObserver::with_interrupts`](crate::PolicyObserver::with_interrupts):
    /// `surge_factor` (`1 + surge`) scales every stage delay during
    /// exception-entry cycles — so the controller both *suffers* the surge
    /// and *learns from* the surged delays — and violations on those cycles
    /// are additionally tallied as [`AdaptiveOutcome::entry_violations`].
    ///
    /// The **live** path reads each record's `irq_phase` directly — pass
    /// `None` for `timeline`. The **replay** paths rebuild phases from the
    /// digest event stream — pass the run's [`IrqTimeline`]. The
    /// cycle-computing entry points apply the surge themselves through a
    /// [`Perturbation`] (faults first, then the surge);
    /// [`AdaptiveObserver::observe_digest_timed`] expects the caller to
    /// have applied it, like the fault factors.
    #[must_use]
    pub fn with_interrupts(mut self, timeline: Option<&'a IrqTimeline>, surge_factor: f64) -> Self {
        self.irq = timeline.map(IrqTimeline::cursor);
        self.perturbation.surge_factor = surge_factor;
        self
    }

    fn entry_at(&mut self, cycle: u64) -> bool {
        self.irq
            .as_mut()
            .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry)
    }

    /// Consumes the controller and returns the outcome of the run.
    ///
    /// # Panics
    ///
    /// Panics if the simulation never called [`CycleObserver::finish`].
    #[must_use]
    pub fn into_outcome(self) -> AdaptiveOutcome {
        self.outcome
            .expect("simulation must complete (finish) before taking the outcome")
    }

    /// The current learned table entry of a `(stage, class)` pair, in
    /// picoseconds. Entries start at 0 (or at the seed LUT) and only ever
    /// grow: they are the running maximum of `observed × (1 + margin)`,
    /// plus any violation backoff. Exposed so tests can assert the
    /// convergence invariants of the online-updating outlook.
    #[must_use]
    pub fn learned_ps(&self, stage: Stage, class: TimingClass) -> Ps {
        self.learned[stage.index() * TimingClass::COUNT + class.index()]
    }

    /// How many times a `(stage, class)` pair has been observed so far.
    #[must_use]
    pub fn observation_count(&self, stage: Stage, class: TimingClass) -> u64 {
        self.observations[stage.index() * TimingClass::COUNT + class.index()]
    }

    /// The controller configuration.
    #[must_use]
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Replays the predict/observe/update loop on one *digested* cycle,
    /// with its interrupt phase from the attached timeline — the body live
    /// observation runs too, so replaying a digest is bit-identical to
    /// observing the originating [`CycleRecord`]s.
    pub fn observe_digest(&mut self, cycle: u64, digest_cycle: &DigestCycle) {
        let entry = self.entry_at(cycle);
        self.evaluate(cycle, digest_cycle, entry);
    }

    /// The per-cycle evaluation of live observation and digest replay: the
    /// model's dynamic delays, perturbed by the attached faults and entry
    /// surge, drive [`AdaptiveObserver::observe_parts`].
    fn evaluate(&mut self, cycle: u64, digest_cycle: &DigestCycle, entry: bool) {
        let timing = self.model.digest_cycle_timing(cycle, digest_cycle);
        let timing = self.perturbation.timing(cycle, timing, entry);
        self.observe_parts(cycle, &digest_cycle.classes, &timing, entry);
    }

    /// [`AdaptiveObserver::observe_digest`] with the cycle's
    /// [`CycleTiming`] already evaluated (shared across the observers of
    /// one replay pass). Fault factors **and** the entry surge are the
    /// caller's responsibility; the cycle's interrupt phase still comes
    /// from the attached timeline cursor.
    pub fn observe_digest_timed(
        &mut self,
        cycle: u64,
        digest_cycle: &DigestCycle,
        timing: &CycleTiming,
    ) {
        let entry = self.entry_at(cycle);
        self.observe_parts(cycle, &digest_cycle.classes, timing, entry);
    }

    /// The predict/observe/update loop shared by every entry point, driven
    /// by the per-stage classes and the cycle's dynamic delays.
    fn observe_parts(
        &mut self,
        cycle: u64,
        classes: &[TimingClass; Stage::COUNT],
        timing: &CycleTiming,
        entry: bool,
    ) {
        // 1. Predict: the controller only sees the instruction classes; any
        //    entry that is still warming up keeps the whole cycle at the
        //    always-safe static period.
        let mut requested: Ps = 0.0;
        let mut warm = true;
        for stage in Stage::ALL {
            let idx = stage.index() * TimingClass::COUNT + classes[stage.index()].index();
            if self.observations[idx] < self.config.warmup_observations {
                warm = false;
            } else {
                requested = requested.max(self.learned[idx]);
            }
        }
        if !warm {
            requested = requested.max(self.static_period);
            self.warmup_cycles += 1;
        }
        let realized = self.generator.realize(requested);

        // 2. Observe: the delay monitor reports the actual per-stage delays
        //    of the cycle (with environmental drift applied).
        let drift_factor = self.drift.factor(cycle);
        let actual_max = timing.max_delay_ps * drift_factor;
        let violated = self
            .tally
            .record(realized, actual_max, entry, self.perturbation.faults);

        // 3. Adapt the in-flight entries.
        for stage in Stage::ALL {
            let idx = stage.index() * TimingClass::COUNT + classes[stage.index()].index();
            let observed = timing.stage(stage) * drift_factor;
            self.observations[idx] += 1;
            let target = observed * (1.0 + self.config.margin);
            if target > self.learned[idx] {
                self.learned[idx] = target;
            }
            if violated && observed + 1e-9 > realized {
                // This stage's path was (one of) the violators: back off so
                // the next occurrence gets extra headroom against the drift.
                self.learned[idx] = (self.learned[idx] * (1.0 + self.config.violation_backoff))
                    .min(self.static_period * 2.0);
            }
        }
    }
}

impl CycleObserver for AdaptiveObserver<'_> {
    fn observe_cycle(&mut self, record: &CycleRecord) {
        let entry = record.irq_phase == IrqPhase::Entry;
        self.evaluate(record.cycle, &DigestCycle::of_record(record), entry);
    }

    fn finish(&mut self, summary: &RunSummary) {
        let cycles = summary.cycles;
        let tally = self.tally;
        let (avg_period_ps, effective_frequency_mhz, recovery_frequency_mhz) =
            frequencies(tally.total_time_ps, tally.penalty_time_ps, cycles);
        self.outcome = Some(AdaptiveOutcome {
            cycles,
            avg_period_ps,
            effective_frequency_mhz,
            speedup_over_static: if avg_period_ps > 0.0 {
                self.static_period / avg_period_ps
            } else {
                1.0
            },
            violations: tally.violations,
            entry_violations: tally.entry_violations,
            recovered_cycles: tally.recovered_cycles,
            replay_penalty_cycles: tally.replay_penalty_cycles,
            silent_risk_cycles: tally.silent_risk_cycles,
            recovery_frequency_mhz,
            warmup_cycles: self.warmup_cycles,
        });
    }
}

/// Index of a `(stage, class)` entry in the [`AdaptiveBank`]'s per-entry
/// tables: its observation count, and the start (times the padded width) of
/// its learned lanes.
fn table_index(stage: Stage, class: TimingClass) -> usize {
    stage.index() * TimingClass::COUNT + class.index()
}

/// The corner-batched online-adaptive controller: the learned delay tables
/// and run accumulators of `M` independent [`AdaptiveObserver`]s packed in
/// structure-of-arrays layout, mirroring [`CornerBank`] on the timing side.
///
/// In a corner-batched digest replay the adaptive controller used to be the
/// only remaining per-corner scalar state: every corner's observer re-walked
/// its own `learned`/`observations` tables per cycle. The bank instead keys
/// each `(stage, class)` entry once per cycle (the classes come from the
/// corner-invariant digest) and folds all `M` lanes of that entry
/// contiguously — predict, realize, observe, adapt — in lane-friendly loops
/// padded to [`LANE_WIDTH`]. They run in the copy the bank's width selects
/// ([`LaneIsa::for_lanes`]): the one-chunk copy at 1–4 corners, the AVX2
/// copy from 32 padded lanes on a CPU with AVX2, the baseline otherwise.
/// Every pass that runs covers all padded lanes, so a one-chunk bank has no
/// runtime trip count at all. Padding lanes are inert: they request 0, see
/// 0 and never violate, and [`AdaptiveBank::finish`] reads only the corner
/// lanes.
///
/// State that cannot differ between corners is held once. Every corner
/// sees the same classes, so an entry's observation count is the same in
/// every lane — construction, [`AdaptiveBank::reset`], seed-LUT seeding and
/// the per-cycle bump all touch the lanes of an entry together — and so is
/// the number of cycles spent warming up. Each is one scalar, not a lane
/// vector.
///
/// The bank skips the grow passes that cannot move a lane. An unperturbed
/// cycle's stage lanes are non-increasing in the stage's corner-invariant
/// shortfall `1 - excitation` ([`CycleLanes::pure_shortfalls`]), and
/// without drift so is the grow target `delay × (1 + margin)`. Once an
/// entry's grow pass ran at shortfall `x₀`, a later unperturbed,
/// violation-free cycle at `x ≥ x₀` cannot raise any of its lanes, so each
/// entry keeps one scalar floor, the least shortfall its pass ran at, and
/// skips exactly those passes. A violated cycle's backoff can lower a lane
/// (to twice its static period), so it clears the floors of the entries it
/// touches; [`AdaptiveBank::reset`] and lanes from another corner bank
/// clear them all. A bank of one chunk (1–4 corners) runs every pass: its
/// grow pass is a single chunk, which costs less than the floor test and
/// its hard-to-predict branch.
///
/// A bank wider than one chunk also skips lane work by two scalar proofs:
///
/// - *The certificate.* On a cycle whose lanes carry a
///   [`CycleLanes::bound`], with the ideal generator, no drift and a margin
///   factor `1 + margin ≥ 1`, no lane can violate when an in-flight entry
///   is cold and every static lane covers the corner bank's
///   [`CycleLanes::ceiling`] (the request is at least the static period),
///   or when every entry is warm, the lanes carry the floors' bank key and
///   every in-flight shortfall is at or above its entry's floor (each
///   learned row is then at least its row at the floor, which is at least
///   its row now). Such a cycle skips the compare, keeps the run-time add,
///   and leaves a deferred maximum unfolded. The floors need only a
///   positive margin factor; this needs the learned row to cover the row
///   itself, and a learned lane that is NaN covers nothing, so a NaN seed
///   entry or static period turns the warm case off.
/// - *Predict by dominance.* Each entry keeps the least and the largest
///   lane of its learned row, updated by the passes that write the row
///   (padding lanes included, which can only weaken the test). Predict
///   keeps the warm in-flight row with the largest least lane, the earlier
///   stage on a tie, and skips every other warm row whose largest lane is
///   at most that value: it cannot raise the select-form maximum in any
///   lane. A NaN lane makes its row's least lane NaN for good, so that row
///   never dominates.
///
/// Every lane performs **exactly** the scalar arithmetic of
/// [`AdaptiveObserver`] in the same order, so outcome `i` is bit-identical
/// to running `AdaptiveObserver` against `models[i]` alone — pinned by the
/// unit tests here and the workspace banked-replay property tests.
pub struct AdaptiveBank<'a> {
    config: AdaptiveConfig,
    generator: &'a ClockGenerator,
    drift: Drift,
    corners: usize,
    padded: usize,
    /// Per-corner static periods (the always-safe fallback request),
    /// `padded` long; padding lanes hold 0.
    static_period: Vec<Ps>,
    /// Learned-table lanes, `(stage, class)`-major: entry
    /// `table_index(stage, class) * padded + lane` is corner `lane`'s
    /// running maximum of `observed × (1 + margin)`.
    learned: Vec<Ps>,
    /// Observation count of each `(stage, class)` entry, shared by all
    /// lanes (indexed by `table_index`).
    observations: Vec<u64>,
    faults: Option<FaultPlan>,
    // Run accumulators, `padded` long; the padding lanes are never read
    // back.
    total_time: Vec<f64>,
    penalty_time: Vec<f64>,
    violations: Vec<u64>,
    entry_violations: Vec<u64>,
    recovered_cycles: Vec<u64>,
    replay_penalty_cycles: Vec<u64>,
    silent_risk_cycles: Vec<u64>,
    /// Cycles run at the static period while an in-flight entry warmed up,
    /// shared by all lanes like the observation counts.
    warmup_cycles: u64,
    // Per-cycle scratch (`padded` long), reused across the whole walk: the
    // predicted request of every lane, realized in place.
    requested: Vec<Ps>,
    // Per-cycle scratch (`padded` long): the realized period of violated
    // lanes, `+inf` otherwise, so the backoff test is one `f64` compare.
    // Padding lanes never violate, so theirs is always `+inf`.
    violation_limit: Vec<Ps>,
    // Per-pass scratch (`padded` long): a stage row the corner bank's fold
    // skipped, evaluated for a grow pass that reads it.
    row: Vec<Ps>,
    outcomes: Option<Vec<AdaptiveOutcome>>,
    // The copy of the lanes kernel this bank runs.
    isa: LaneIsa,
    /// Whether the floors may skip grow passes, fixed at construction: the
    /// bank has no drift and its margin factor is positive and finite, so
    /// the grow target is non-increasing in the lanes. Only banks wider
    /// than one chunk use them.
    skips: bool,
    /// The shortfall floor of each `(stage, class)` entry (indexed by
    /// `table_index`): a pure cycle of the corner bank keyed `floor_key` at
    /// a shortfall at or above it cannot raise the entry's lanes. `+inf`
    /// until a pass runs.
    floor: Vec<f64>,
    /// The key of the corner bank the floors hold for.
    floor_key: u64,
    /// Whether bounded cycles may skip the compare, fixed at construction:
    /// the generator is ideal, the bank skips (no drift, finite margin
    /// factor) and the margin factor is at least 1. Only the tests' oracle
    /// turns it off, with `ranks`.
    certifies: bool,
    /// Whether every learned lane is a number, as the warm certificate
    /// needs: no static period (the backoff cap) and no seed entry is NaN.
    /// Set by [`AdaptiveBank::reset`].
    rows_are_numbers: bool,
    /// The cold certificate: the key of the corner bank the static periods
    /// were checked against, and whether every lane covers its ceiling.
    static_cover: Option<(u64, bool)>,
    /// Whether predict skips dominated rows on a bank wider than one chunk.
    ranks: bool,
    /// The least lane of each entry's learned row (indexed by
    /// `table_index`), NaN once a lane is; kept on banks wider than one
    /// chunk.
    least: Vec<Ps>,
    /// The largest lane of each entry's learned row, like `least`.
    most: Vec<Ps>,
    /// Grow passes skipped so far, for the tests' coverage check.
    #[cfg(test)]
    skipped_passes: u64,
    /// Cycles whose compare a certificate skipped, for the tests' coverage
    /// check.
    #[cfg(test)]
    certified_cycles: u64,
    /// Warm rows predict folded, for the tests' coverage check.
    #[cfg(test)]
    predict_rows: u64,
}

/// The running least and largest of four lanes, one slot per lane of a
/// chunk, over a row written chunk by chunk.
#[derive(Clone, Copy)]
struct Extremes {
    least: [Ps; LANE_WIDTH],
    most: [Ps; LANE_WIDTH],
}

impl Extremes {
    const EMPTY: Extremes = Extremes {
        least: [Ps::INFINITY; LANE_WIDTH],
        most: [Ps::NEG_INFINITY; LANE_WIDTH],
    };

    /// Folds `value` into slot `lane`.
    #[inline(always)]
    fn push(&mut self, lane: usize, value: Ps) {
        self.least[lane] = lower(self.least[lane], value);
        self.most[lane] = raise(self.most[lane], value);
    }

    /// The least and the largest over the four slots.
    #[inline(always)]
    fn reduce(self) -> (Ps, Ps) {
        (
            self.least.into_iter().fold(Ps::INFINITY, lower),
            self.most.into_iter().fold(Ps::NEG_INFINITY, raise),
        )
    }
}

/// The lesser of `least` and `value`, where a NaN on either side wins and
/// stays: a row with a NaN lane must never pass for dominating another.
#[inline(always)]
fn lower(least: Ps, value: Ps) -> Ps {
    if value < least || value.is_nan() {
        value
    } else {
        least
    }
}

/// The greater of `most` and `value`, ignoring a NaN `value` as predict's
/// select-form maximum does.
#[inline(always)]
fn raise(most: Ps, value: Ps) -> Ps {
    if value > most {
        value
    } else {
        most
    }
}

impl<'a> AdaptiveBank<'a> {
    /// Creates one adaptive controller per model, exactly as
    /// [`AdaptiveObserver::new`] would: entries start at 0 (or at
    /// `seed_lut`, with the warmup already satisfied) so the very first
    /// occurrences of an instruction class are always safe.
    #[must_use]
    pub fn new(
        models: &[TimingModel],
        config: &AdaptiveConfig,
        generator: &'a ClockGenerator,
        seed_lut: Option<&DelayLut>,
        drift: Drift,
    ) -> Self {
        Self::from_static_periods(
            models.iter().map(TimingModel::static_period_ps).collect(),
            config,
            generator,
            seed_lut,
            drift,
        )
    }

    /// [`AdaptiveBank::new`] from the corners' static periods alone — the
    /// only model parameter the controllers consume (the dynamic delays
    /// arrive pre-evaluated through [`AdaptiveBank::observe_cycle`]), so
    /// callers that already hold the periods (e.g. via
    /// [`CornerBank::static_period_ps`]) need not materialize a model slice.
    #[must_use]
    pub fn from_static_periods(
        mut static_periods: Vec<Ps>,
        config: &AdaptiveConfig,
        generator: &'a ClockGenerator,
        seed_lut: Option<&DelayLut>,
        drift: Drift,
    ) -> Self {
        let corners = static_periods.len();
        let padded = corners.next_multiple_of(LANE_WIDTH);
        // Padding lanes get a 0 static period: the cold-cycle padding keeps
        // their request at 0 and their backoff cap at 0. They are never
        // read back.
        static_periods.resize(padded, 0.0);
        let table_len = Stage::COUNT * TimingClass::COUNT;
        let margin_factor = 1.0 + config.margin;
        let skips = drift == Drift::None && margin_factor > 0.0 && margin_factor.is_finite();
        let mut bank = AdaptiveBank {
            config: *config,
            generator,
            drift,
            corners,
            padded,
            static_period: static_periods,
            learned: vec![0.0; table_len * padded],
            observations: vec![0; table_len],
            faults: None,
            total_time: vec![0.0; padded],
            penalty_time: vec![0.0; padded],
            violations: vec![0; padded],
            entry_violations: vec![0; padded],
            recovered_cycles: vec![0; padded],
            replay_penalty_cycles: vec![0; padded],
            silent_risk_cycles: vec![0; padded],
            warmup_cycles: 0,
            requested: vec![0.0; padded],
            violation_limit: vec![Ps::INFINITY; padded],
            row: vec![0.0; padded],
            outcomes: None,
            isa: LaneIsa::for_lanes(padded),
            skips,
            floor: vec![Ps::INFINITY; table_len],
            floor_key: 0,
            certifies: skips && margin_factor >= 1.0 && matches!(generator, ClockGenerator::Ideal),
            rows_are_numbers: true,
            static_cover: None,
            ranks: true,
            least: vec![0.0; table_len],
            most: vec![0.0; table_len],
            #[cfg(test)]
            skipped_passes: 0,
            #[cfg(test)]
            certified_cycles: 0,
            #[cfg(test)]
            predict_rows: 0,
        };
        bank.reset(seed_lut);
        bank
    }

    /// Pins the copy of the lanes kernel, past the selection of
    /// [`LaneIsa::for_lanes`], so tests run every copy a bank of this width
    /// can run (the one-chunk copy only at one chunk).
    #[cfg(test)]
    pub(crate) fn with_isa(mut self, isa: LaneIsa) -> Self {
        self.isa = isa;
        self
    }

    /// Runs every grow pass, past the floors, so tests can compare the
    /// skipping bank against one that skips nothing.
    #[cfg(test)]
    pub(crate) fn with_every_pass(mut self) -> Self {
        self.skips = false;
        self
    }

    /// Runs the compare on every cycle and folds every warm row in
    /// predict, past the certificates and the dominance test, so tests can
    /// compare the bank against one that skips neither.
    #[cfg(test)]
    pub(crate) fn with_every_compare(mut self) -> Self {
        self.certifies = false;
        self.ranks = false;
        self
    }

    /// Attaches a [`FaultPlan`] for the recovery accounting. The
    /// [`CycleLanes`] handed to [`AdaptiveBank::observe_cycle`] must
    /// already carry the plan's perturbation (apply it with
    /// [`Perturbation::lanes`]) — the bank itself only classifies
    /// violations as recovered or silent risk, lane by lane, exactly like
    /// the scalar observer.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Clears the learned tables and run accumulators so the bank can
    /// replay another digest without reallocating its lane storage —
    /// equivalent to rebuilding it via [`AdaptiveBank::from_static_periods`]
    /// with the same periods, config, generator and drift.
    pub fn reset(&mut self, seed_lut: Option<&DelayLut>) {
        self.learned.fill(0.0);
        self.observations.fill(0);
        self.floor.fill(Ps::INFINITY);
        self.least.fill(0.0);
        self.most.fill(0.0);
        self.rows_are_numbers = !self.static_period.iter().any(|period| period.is_nan());
        if let Some(lut) = seed_lut {
            for stage in Stage::ALL {
                for class in TimingClass::ALL {
                    let entry = table_index(stage, class);
                    let at = entry * self.padded;
                    let row = &mut self.learned[at..at + self.padded];
                    row[..self.corners].fill(lut.delay_ps(stage, class));
                    (self.least[entry], self.most[entry]) = row
                        .iter()
                        .fold((Ps::INFINITY, Ps::NEG_INFINITY), |(least, most), &value| {
                            (lower(least, value), raise(most, value))
                        });
                    self.rows_are_numbers &= !lut.delay_ps(stage, class).is_nan();
                    self.observations[entry] = self.config.warmup_observations;
                }
            }
        }
        self.total_time.fill(0.0);
        self.penalty_time.fill(0.0);
        self.violations.fill(0);
        self.entry_violations.fill(0);
        self.recovered_cycles.fill(0);
        self.replay_penalty_cycles.fill(0);
        self.silent_risk_cycles.fill(0);
        self.warmup_cycles = 0;
        self.outcomes = None;
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

    /// One corner's current learned table entry, in picoseconds — the
    /// banked counterpart of [`AdaptiveObserver::learned_ps`].
    ///
    /// # Panics
    ///
    /// Panics if `corner` is not below [`AdaptiveBank::corners`].
    #[must_use]
    pub fn learned_ps(&self, corner: usize, stage: Stage, class: TimingClass) -> Ps {
        self.assert_corner(corner);
        self.learned[table_index(stage, class) * self.padded + corner]
    }

    /// How many times one corner has observed a `(stage, class)` pair —
    /// the banked counterpart of [`AdaptiveObserver::observation_count`].
    ///
    /// # Panics
    ///
    /// Panics if `corner` is not below [`AdaptiveBank::corners`].
    #[must_use]
    pub fn observation_count(&self, corner: usize, stage: Stage, class: TimingClass) -> u64 {
        self.assert_corner(corner);
        self.observations[table_index(stage, class)]
    }

    /// The tables are padded and entry-major, so an unchecked corner past
    /// the last one would read a padding lane or another entry's lanes.
    fn assert_corner(&self, corner: usize) {
        assert!(
            corner < self.corners,
            "corner {corner} is out of range for a bank of {} corners",
            self.corners
        );
    }

    /// Replays the predict/observe/update loop of **all** corners on one
    /// digested cycle straight off a [`idca_timing::BankEvaluator`]'s
    /// structure-of-arrays [`CycleLanes`] — the hot entry point of the
    /// corner-batched sweep. No per-corner [`CycleTiming`] structs are
    /// materialized: the observe pass folds the contiguous max-delay lanes
    /// and the adapt pass folds each keyed `(stage, class)` entry against
    /// the matching contiguous stage lanes. Bit-identical, lane by lane, to
    /// [`AdaptiveObserver::observe_digest_timed`] on the matching model
    /// (the hoisted `(1 + margin)`-style factors are computed exactly as
    /// the scalar expressions, just once per cycle instead of once per
    /// lane).
    ///
    /// Per-lane work is spent only where lanes can differ: warmth is one
    /// flag per cycle, the generator's variant is dispatched once per
    /// cycle, and the violation classification and the backoff fold run
    /// only on cycles where some lane violated — otherwise the adapt pass
    /// is a grow-only running maximum. On unperturbed lanes
    /// ([`CycleLanes::pure_shortfalls`]) of a bank wider than one chunk
    /// and without drift, that grow pass is skipped for every entry whose
    /// shortfall floor rules out a change, and a certified cycle skips the
    /// compare without folding a deferred maximum; predict skips the
    /// learned rows another in-flight row dominates (see [`AdaptiveBank`]).
    /// Purity, drift, the bank key and the certificate are tested once per
    /// cycle. A grow pass that runs reads its stage's row through
    /// [`CycleLanes::stage_lanes_with`]: a row the corner bank's fold
    /// skipped or deferred is evaluated into the bank's scratch, with the
    /// fold's expression, in this kernel's copy.
    ///
    /// `entry` is the cycle's interrupt-entry classification — the bank
    /// lives in `'static` worker scratch, so it cannot hold a borrowed
    /// timeline cursor; the sweep derives the phase once per cycle from a
    /// shared [`IrqCursor`] instead. The lanes must already carry the
    /// cycle's [`Perturbation`] (fault factors and, on entry cycles, the
    /// surge).
    ///
    /// # Panics
    ///
    /// Panics if the lanes' padded width differs from the bank's.
    // `inline(never)` keeps each kernel a call of its own, small enough to
    // vectorize cleanly, and a symbol CI's codegen check can disassemble.
    // When first measured, inlining this body into the sweep's replay loop
    // (beside the evaluator and the three policy banks) doubled the replay
    // time at 100×8: the merged loop spilled registers across every pass.
    // Re-measured with the one-chunk copies (`repro bench`, one thread, 14
    // alternating rounds, min / median replay ms): at 200 seeds × 2 corners
    // with the fleet's faults and interrupts, 25.7 / 43.1 as a call, 26.9 /
    // 40.0 with this body `#[inline]`, 29.4 / 46.4 with the two
    // `PolicyBank` entry points inlined too; at 100×8, 18.8 / 27.8, 19.7 /
    // 27.2 and 17.7 / 30.0. No variant separates from the host's drift, so
    // the attribute stays.
    #[inline(never)]
    pub fn observe_cycle(
        &mut self,
        cycle: u64,
        dc: &DigestCycle,
        lanes: &mut CycleLanes<'_>,
        entry: bool,
    ) {
        assert_eq!(lanes.padded_lanes(), self.padded, "lane widths must match");
        let certified = self.certified(dc, lanes);
        if !certified {
            lanes.fold_max();
        }
        self.observe(cycle, dc, lanes, certified, entry);
    }

    /// [`AdaptiveBank::observe_cycle`] on lanes whose maximum is folded,
    /// with no certificate: the same kernel body, always comparing. It
    /// stays for the benchmark harness's traced walk until that walk reads
    /// the library's own timings (ROADMAP item 3).
    ///
    /// # Panics
    ///
    /// Panics if the lanes' padded width differs from the bank's, or if
    /// their fold is deferred ([`CycleLanes::max_lanes`]).
    #[inline(never)]
    pub fn observe_cycle_lanes_phased(
        &mut self,
        cycle: u64,
        dc: &DigestCycle,
        lanes: &CycleLanes,
        entry: bool,
    ) {
        assert_eq!(lanes.padded_lanes(), self.padded, "lane widths must match");
        self.observe(cycle, dc, lanes, false, entry);
    }

    /// Whether a certificate proves that no lane violates this cycle (see
    /// [`AdaptiveBank`]): the lanes have a bound and a key, and either an
    /// in-flight entry is cold and every static lane covers the corner
    /// bank's ceiling, or every entry is warm at or above its floor.
    #[inline(always)]
    fn certified(&mut self, dc: &DigestCycle, lanes: &CycleLanes<'_>) -> bool {
        if !self.certifies || lanes.bound().is_none() {
            return false;
        }
        let (Some((key, shortfalls)), Some((_, ceiling))) =
            (lanes.pure_shortfalls(), lanes.ceiling())
        else {
            return false;
        };
        let warmup = self.config.warmup_observations;
        let entries: [usize; Stage::COUNT] =
            std::array::from_fn(|stage| table_index(Stage::ALL[stage], dc.classes[stage]));
        let certified = if entries
            .iter()
            .any(|&entry| self.observations[entry] < warmup)
        {
            // Cold: the request is at least the static period in every
            // lane.
            match self.static_cover {
                Some((checked, covers)) if checked == key => covers,
                _ => {
                    let covers = self
                        .static_period
                        .iter()
                        .zip(ceiling)
                        .all(|(period, ceiling)| period >= ceiling);
                    self.static_cover = Some((key, covers));
                    covers
                }
            }
        } else {
            // Warm: each learned row is at least its row at the floor.
            self.rows_are_numbers
                && key == self.floor_key
                && entries
                    .iter()
                    .zip(shortfalls)
                    .all(|(&entry, &shortfall)| shortfall >= self.floor[entry])
        };
        #[cfg(test)]
        {
            self.certified_cycles += u64::from(certified);
        }
        certified
    }

    /// The one kernel behind both entry points, run in the bank's copy (see
    /// [`LaneIsa::run`]) and inlined into each.
    #[inline(always)]
    fn observe(
        &mut self,
        cycle: u64,
        dc: &DigestCycle,
        lanes: &CycleLanes,
        certified: bool,
        entry: bool,
    ) {
        self.isa.run(
            self.padded,
            #[inline(always)]
            |padded| self.observe_lanes(cycle, dc, lanes, certified, entry, padded),
        );
    }

    /// The body of [`AdaptiveBank::observe`], compiled into every copy of
    /// [`LaneIsa::run`]; `padded` is the bank's padded width. A `certified`
    /// cycle skips the compare and never reads the maximum lanes.
    #[inline(always)]
    fn observe_lanes(
        &mut self,
        cycle: u64,
        dc: &DigestCycle,
        lanes: &CycleLanes,
        certified: bool,
        entry: bool,
        padded: usize,
    ) {
        if padded == 0 {
            return;
        }

        // 1. Predict — identical to the scalar observer. Warmth is a
        //    per-entry scalar (the observation counts are lane-uniform), so
        //    the fold touches only `f64` lanes and the warm flag collapses
        //    to one bool per cycle. A bank wider than one chunk keeps the
        //    warm row with the largest least lane (the earlier stage on a
        //    tie) and skips every other warm row whose largest lane is at
        //    most that value: no lane of it can raise the maximum. A bank of
        //    one chunk folds every warm row: the one-chunk copy drops the
        //    test.
        let warmup = self.config.warmup_observations;
        let entries: [usize; Stage::COUNT] =
            std::array::from_fn(|stage| table_index(Stage::ALL[stage], dc.classes[stage]));
        let warm = entries.map(|entry| self.observations[entry] >= warmup);
        let all_warm = warm.iter().all(|&warm| warm);
        let ranks = self.ranks && padded > LANE_WIDTH;
        let mut top: Option<(usize, Ps)> = None;
        if ranks {
            for (stage, &entry) in entries.iter().enumerate() {
                let least = self.least[entry];
                if warm[stage] && top.is_none_or(|(_, best)| least > best) {
                    top = Some((stage, least));
                }
            }
        }
        let requested = &mut self.requested[..padded];
        requested.fill(0.0);
        for (stage, &entry) in entries.iter().enumerate() {
            if !warm[stage] {
                continue;
            }
            if let Some((top, least)) = top {
                if stage != top && self.most[entry] <= least {
                    continue;
                }
            }
            #[cfg(test)]
            {
                self.predict_rows += 1;
            }
            let at = entry * padded;
            let learned = &self.learned[at..at + padded];
            // Comparison-select form of the scalar `f64::max` fold:
            // learned periods are finite and non-negative (never NaN
            // or -0.0), so the picked value is bit-identical — and the
            // fixed-trip inner loop gives the vectorizer a compile-time
            // width (a runtime trip of `padded` = 8 lanes stays scalar).
            let chunks = requested
                .chunks_exact_mut(LANE_WIDTH)
                .zip(learned.chunks_exact(LANE_WIDTH));
            for (req4, learned4) in chunks {
                for l in 0..LANE_WIDTH {
                    let learned = learned4[l];
                    req4[l] = if learned > req4[l] { learned } else { req4[l] };
                }
            }
        }
        // An entry still warming up keeps the whole cycle at the
        // always-safe static period — the scalar `f64::max` again as a
        // select over finite non-negative periods.
        if !all_warm {
            self.warmup_cycles += 1;
            for (request, period) in requested.iter_mut().zip(&self.static_period) {
                *request = if *period > *request {
                    *period
                } else {
                    *request
                };
            }
        }
        self.generator.realize_lanes(requested);

        // 2. Observe: the scalar observer's violation check and run time,
        //    with the same arithmetic, over length-bound slices so the
        //    per-lane indexing stays check-free. A padding lane's actual
        //    delay is 0, so it never violates. A certified cycle cannot
        //    violate, so it only adds the run time.
        let drift_factor = self.drift.factor(cycle);
        // Only a bank wider than one chunk is ever certified: the one-chunk
        // copy drops the test and keeps one observe loop.
        let certified = certified && padded > LANE_WIDTH;
        let realized_lanes = &requested[..padded];
        let total_time = &mut self.total_time[..padded];
        let mut any_violated = false;
        if certified {
            for (total, &realized) in total_time.iter_mut().zip(realized_lanes) {
                *total += realized;
            }
        } else {
            let actual_lanes = &lanes.max_lanes()[..padded];
            let violations = &mut self.violations[..padded];
            let violation_limit = &mut self.violation_limit[..padded];
            for lane in 0..padded {
                let realized = realized_lanes[lane];
                let violated = realized + 1e-9 < actual_lanes[lane] * drift_factor;
                violations[lane] += u64::from(violated);
                total_time[lane] += realized;
                // The adapt pass only asks "was this lane violated, and is
                // the observed delay above its realized period" — encoding
                // the non-violated case as `+inf` turns that into a single
                // compare.
                violation_limit[lane] = if violated { realized } else { Ps::INFINITY };
                any_violated |= violated;
            }
        }

        // 3. Classify the violations: the entry-cycle tally and the fault
        //    plan's recovery model. Only a violated lane moves these
        //    counters, so violation-free cycles skip the pass.
        let recovery = self.faults.as_ref().map(|plan| {
            let spec = plan.spec();
            (
                1.0 + spec.detect_window,
                u64::from(spec.replay_penalty),
                f64::from(spec.replay_penalty),
            )
        });
        if any_violated && (entry || recovery.is_some()) {
            let actual_lanes = &lanes.max_lanes()[..padded];
            let entry_violations = &mut self.entry_violations[..padded];
            let recovered = &mut self.recovered_cycles[..padded];
            let replayed = &mut self.replay_penalty_cycles[..padded];
            let silent = &mut self.silent_risk_cycles[..padded];
            let penalty_time = &mut self.penalty_time[..padded];
            for lane in 0..padded {
                let realized = realized_lanes[lane];
                let actual_max = actual_lanes[lane] * drift_factor;
                let violated = realized + 1e-9 < actual_max;
                entry_violations[lane] += u64::from(violated && entry);
                if let Some((detect_factor, penalty_cycles, penalty)) = recovery {
                    let detected = violated && actual_max <= realized * detect_factor;
                    recovered[lane] += u64::from(detected);
                    replayed[lane] += u64::from(detected) * penalty_cycles;
                    silent[lane] += u64::from(violated && !detected);
                    // `x + 0.0 == x` bit-exactly for the non-negative
                    // accumulator, so the select matches the scalar
                    // observer's guarded add while keeping the loop
                    // branch-free.
                    penalty_time[lane] += if detected { realized * penalty } else { 0.0 };
                }
            }
        }

        // 4. Adapt the in-flight entries, lane-contiguously per keyed
        //    `(stage, class)` entry against that stage's contiguous delay
        //    lanes. The folds run over the full padded width in fixed-trip
        //    chunks (compile-time trip count, packed compare-and-blend).
        //    Padding lanes carry a 0 delay, a 0 static period and a `+inf`
        //    violation limit; their learned entries are never read back.
        //    On a pure, violation-free cycle of a bank that skips, an entry
        //    whose floor is at or below its stage's shortfall skips the
        //    grow pass, which could not raise a lane. A bank of one chunk
        //    runs every pass: the test is constant there in the one-chunk
        //    copy, which drops the floor code. A bank wider than one chunk
        //    also refreshes the entry's least and largest lane in the pass.
        let margin_factor = 1.0 + self.config.margin;
        let backoff_factor = 1.0 + self.config.violation_backoff;
        let floors = self.skips && padded > LANE_WIDTH;
        let pure = if floors && !any_violated {
            lanes.pure_shortfalls()
        } else {
            None
        };
        let shortfalls = pure.map(|(key, shortfalls)| {
            if key != self.floor_key {
                self.floor.fill(Ps::INFINITY);
                self.floor_key = key;
            }
            shortfalls
        });
        for (stage, &entry) in Stage::ALL.iter().zip(&entries) {
            self.observations[entry] += 1;
            if let Some(shortfalls) = shortfalls {
                let shortfall = shortfalls[stage.index()];
                if shortfall >= self.floor[entry] {
                    #[cfg(test)]
                    {
                        self.skipped_passes += 1;
                    }
                    continue;
                }
                self.floor[entry] = shortfall;
            }
            let at = entry * padded;
            let learned = &mut self.learned[at..at + padded];
            let observed_lanes = &lanes.stage_lanes_with(*stage, &mut self.row)[..padded];
            let chunks = learned
                .chunks_exact_mut(LANE_WIDTH)
                .zip(observed_lanes.chunks_exact(LANE_WIDTH));
            let mut extremes = Extremes::EMPTY;
            if any_violated {
                let chunks = chunks
                    .zip(self.violation_limit.chunks_exact(LANE_WIDTH))
                    .zip(self.static_period.chunks_exact(LANE_WIDTH));
                for (((learned4, observed4), limit4), period4) in chunks {
                    for l in 0..LANE_WIDTH {
                        let observed = observed4[l] * drift_factor;
                        let target = observed * margin_factor;
                        let grown = if target > learned4[l] {
                            target
                        } else {
                            learned4[l]
                        };
                        // This lane's stage was (one of) the violators: back
                        // off so the next occurrence gets headroom against
                        // drift. Select form of the scalar conditional
                        // update — the `f64::min` cap as a compare-and-select
                        // over finite non-negative periods picks
                        // bit-identical values.
                        let boosted = grown * backoff_factor;
                        let cap = period4[l] * 2.0;
                        let backed = if boosted < cap { boosted } else { cap };
                        let backoff = observed + 1e-9 > limit4[l];
                        learned4[l] = if backoff { backed } else { grown };
                        extremes.push(l, learned4[l]);
                    }
                }
                // The backoff's cap can take a lane below its grown value.
                if floors {
                    self.floor[entry] = Ps::INFINITY;
                }
            } else {
                // Grow-only: every violation limit is `+inf`, so the fold
                // above would keep `grown` in every lane.
                for (learned4, observed4) in chunks {
                    for l in 0..LANE_WIDTH {
                        let target = observed4[l] * drift_factor * margin_factor;
                        learned4[l] = if target > learned4[l] {
                            target
                        } else {
                            learned4[l]
                        };
                        extremes.push(l, learned4[l]);
                    }
                }
            }
            if ranks {
                (self.least[entry], self.most[entry]) = extremes.reduce();
            }
        }
    }

    /// Finalizes every corner's outcome from the run totals — the banked
    /// counterpart of [`CycleObserver::finish`] on each scalar observer.
    pub fn finish(&mut self, summary: &RunSummary) {
        let cycles = summary.cycles;
        let outcomes = (0..self.corners)
            .map(|lane| {
                let (avg_period_ps, effective_frequency_mhz, recovery_frequency_mhz) =
                    frequencies(self.total_time[lane], self.penalty_time[lane], cycles);
                AdaptiveOutcome {
                    cycles,
                    avg_period_ps,
                    effective_frequency_mhz,
                    speedup_over_static: if avg_period_ps > 0.0 {
                        self.static_period[lane] / avg_period_ps
                    } else {
                        1.0
                    },
                    violations: self.violations[lane],
                    entry_violations: self.entry_violations[lane],
                    recovered_cycles: self.recovered_cycles[lane],
                    replay_penalty_cycles: self.replay_penalty_cycles[lane],
                    silent_risk_cycles: self.silent_risk_cycles[lane],
                    recovery_frequency_mhz,
                    warmup_cycles: self.warmup_cycles,
                }
            })
            .collect();
        self.outcomes = Some(outcomes);
    }

    /// Consumes the bank and returns one outcome per corner (index =
    /// corner).
    ///
    /// # Panics
    ///
    /// Panics if the replay never called [`AdaptiveBank::finish`].
    #[must_use]
    pub fn into_outcomes(self) -> Vec<AdaptiveOutcome> {
        self.outcomes
            .expect("the replay must complete (finish) before taking the outcomes")
    }

    /// [`AdaptiveBank::into_outcomes`] without consuming the bank — the
    /// worker-scratch path takes the outcomes and keeps the lane storage
    /// (after [`AdaptiveBank::reset`]) for the next job.
    ///
    /// # Panics
    ///
    /// Panics if the replay never called [`AdaptiveBank::finish`].
    #[must_use]
    pub fn take_outcomes(&mut self) -> Vec<AdaptiveOutcome> {
        self.outcomes
            .take()
            .expect("the replay must complete (finish) before taking the outcomes")
    }
}

/// Replays a [`TimingDigest`] under an online-adaptive delay table — the
/// simulate-once / evaluate-many entry point: one digested simulation can
/// train and evaluate the controller against any number of (e.g.
/// PVT-varied) timing models without re-simulating.
///
/// Every cycle the controller requests the maximum table entry of the
/// classes in flight (exactly like the instruction-based policy), realizes
/// it through `generator`, and then uses the observed actual delay of the
/// cycle (scaled by `drift`) to update the table: tighten unexcited entries
/// toward `observed × (1 + margin)`, back off entries that proved too
/// optimistic. Drives the same accumulation as [`AdaptiveObserver`] on the
/// live pass, so the outcome and the learned table are bit-identical.
#[must_use]
pub fn replay_adaptive_digest(
    model: &TimingModel,
    digest: &TimingDigest,
    config: &AdaptiveConfig,
    generator: &ClockGenerator,
    seed_lut: Option<&DelayLut>,
    drift: Drift,
) -> AdaptiveOutcome {
    let mut observer = AdaptiveObserver::new(model, config, generator, seed_lut, drift);
    digest.for_each_cycle(|cycle, dc| observer.observe_digest(cycle, dc));
    observer.finish(&digest.summary());
    observer.into_outcome()
}

/// Trains and evaluates one adaptive controller per model in a **single**
/// digest walk — the corner-batched counterpart of
/// [`replay_adaptive_digest`]. The per-cycle dither/excitation evaluation
/// runs once through a [`CornerBank`] and is broadcast across corners; the
/// `M` controllers' tables live in one [`AdaptiveBank`] and are updated by
/// the sweep's own per-cycle call ([`AdaptiveBank::observe_cycle`]) on
/// [`BankEvaluator::lazy_lanes`](idca_timing::BankEvaluator::lazy_lanes).
/// Outcome `i` is bit-identical to
/// `replay_adaptive_digest(&models[i], ...)` (pinned by the banked-replay
/// property tests), at a fraction of the walk cost.
#[must_use]
pub fn replay_adaptive_digest_banked(
    models: &[TimingModel],
    digest: &TimingDigest,
    config: &AdaptiveConfig,
    generator: &ClockGenerator,
    seed_lut: Option<&DelayLut>,
    drift: Drift,
) -> Vec<AdaptiveOutcome> {
    let bank = CornerBank::from_models(models);
    let mut adaptive = AdaptiveBank::new(models, config, generator, seed_lut, drift);
    let mut evaluator = bank.evaluator();
    digest.for_each_cycle(|cycle, dc| {
        adaptive.observe_cycle(cycle, dc, evaluator.lazy_lanes(cycle, dc), false);
    });
    adaptive.finish(&digest.summary());
    adaptive.into_outcomes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::InstructionBased;
    use crate::replay_digest;
    use idca_isa::asm::Assembler;
    use idca_pipeline::{DigestObserver, SimConfig, Simulator};
    use idca_timing::ProfileKind;

    fn long_digest() -> TimingDigest {
        let program = Assembler::new()
            .assemble(
                "        l.addi r1, r0, 0x200
                         l.addi r3, r0, 400
                 loop:   l.add  r4, r4, r3
                         l.mul  r5, r3, r4
                         l.sw   0(r1), r5
                         l.lwz  r6, 0(r1)
                         l.xor  r7, r6, r4
                         l.slli r8, r7, 3
                         l.addi r3, r3, -1
                         l.sfne r3, r0
                         l.bf   loop
                         l.nop  0
                         l.nop  1",
            )
            .unwrap();
        let mut capture = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .run_observed(&program, &mut [&mut capture])
            .unwrap();
        capture.into_digest()
    }

    #[test]
    fn adaptive_table_learns_a_speedup_from_scratch() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let digest = long_digest();
        let outcome = replay_adaptive_digest(
            &model,
            &digest,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        assert_eq!(
            outcome.violations, 0,
            "margin must keep the adaptation safe"
        );
        assert!(
            outcome.speedup_over_static > 1.15,
            "learned speedup {}",
            outcome.speedup_over_static
        );
        assert!(outcome.warmup_cycles < outcome.cycles / 4);
    }

    #[test]
    fn adaptive_approaches_the_precharacterized_policy() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let digest = long_digest();
        let adaptive = replay_adaptive_digest(
            &model,
            &digest,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        let characterized = replay_digest(
            &model,
            &digest,
            &InstructionBased::from_model(&model),
            &ClockGenerator::Ideal,
        );
        let ratio = adaptive.effective_frequency_mhz / characterized.effective_frequency_mhz;
        // Learning online (with a 5 % margin) should recover most of the
        // statically characterized gain.
        assert!(ratio > 0.85, "adaptive recovers only {ratio} of the gain");
        assert!(ratio < 1.05);
    }

    #[test]
    fn seeded_table_starts_fast_and_stays_safe() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let digest = long_digest();
        let seed = DelayLut::from_model(&model);
        let outcome = replay_adaptive_digest(
            &model,
            &digest,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            Some(&seed),
            Drift::None,
        );
        assert_eq!(outcome.violations, 0);
        assert!(outcome.speedup_over_static > 1.2);
    }

    #[test]
    fn adaptation_tracks_environmental_drift() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let digest = long_digest();
        // 1 % slowdown per 1000 cycles: by the end of the run every path is
        // several percent slower than the characterization assumed.
        let drift = Drift::LinearSlowdown {
            fraction_per_kilocycle: 0.01,
        };

        // A frozen, pre-characterized LUT has no way to notice the drift.
        let frozen_lut = DelayLut::from_model(&model);
        let frozen = {
            let policy = InstructionBased::new(frozen_lut.clone());
            let mut violations = 0;
            digest.for_each_cycle(|cycle, digest_cycle| {
                let requested = crate::ClockPolicy::digest_period_ps(&policy, cycle, digest_cycle);
                let actual = model.digest_cycle_timing(cycle, digest_cycle).max_delay_ps
                    * drift.factor(cycle);
                if requested + 1e-9 < actual {
                    violations += 1;
                }
            });
            violations
        };
        assert!(
            frozen > 0,
            "the drift must be strong enough to break the frozen LUT"
        );

        // The adaptive table backs off as soon as the monitor reports
        // trouble and keeps the violation count dramatically lower.
        let adaptive = replay_adaptive_digest(
            &model,
            &digest,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            Some(&frozen_lut),
            drift,
        );
        assert!(
            adaptive.violations * 10 < frozen,
            "adaptive {} vs frozen {frozen}",
            adaptive.violations
        );
        assert!(adaptive.speedup_over_static > 1.05);
    }

    fn varied_models(count: u32, master_seed: u64) -> Vec<TimingModel> {
        use idca_timing::VariationModel;
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let vm = VariationModel::default();
        (0..count)
            .map(|i| vm.apply(&nominal, &vm.sample_corner(master_seed, i)))
            .collect()
    }

    #[test]
    fn adaptive_bank_is_bit_identical_to_scalar_observers() {
        let digest = long_digest();
        let config = AdaptiveConfig::default();
        // Every generator: padding lanes enter the observe pass, and the
        // quantized and discrete generators realize their 0 ps request as a
        // nonzero period.
        let generators = [
            ClockGenerator::Ideal,
            ClockGenerator::quantized_50ps(),
            ClockGenerator::discrete(8, 900.0, 2100.0),
        ];
        // Corner counts straddling the lane width and one past the wide-copy
        // gate (37 corners pad to 40 lanes), through every copy of the
        // kernel a bank of that width can run (the one-chunk copy at 1–4
        // corners; repeats are harmless), plus both seeding modes and a
        // non-trivial drift (which exercises the backoff path).
        let mut drift_violations = 0;
        for corners in [1usize, 2, 3, 4, 5, 8, 37] {
            let models = varied_models(corners as u32, 0xADA7);
            let seed = DelayLut::from_model(&models[0]);
            let corner_bank = CornerBank::from_models(&models);
            let copies = [
                LaneIsa::BASELINE,
                LaneIsa::detected(),
                LaneIsa::for_lanes(corner_bank.padded_lanes()),
            ];
            for generator in &generators {
                for (seed_lut, drift) in [
                    (None, Drift::None),
                    (
                        Some(&seed),
                        Drift::LinearSlowdown {
                            fraction_per_kilocycle: 0.02,
                        },
                    ),
                ] {
                    let scalar: Vec<AdaptiveOutcome> = models
                        .iter()
                        .map(|model| {
                            replay_adaptive_digest(
                                model, &digest, &config, generator, seed_lut, drift,
                            )
                        })
                        .collect();
                    for isa in copies {
                        // `replay_adaptive_digest_banked` with the copy pinned.
                        let mut evaluator = corner_bank.evaluator();
                        let mut bank =
                            AdaptiveBank::new(&models, &config, generator, seed_lut, drift)
                                .with_isa(isa);
                        digest.for_each_cycle(|cycle, dc| {
                            bank.observe_cycle_lanes_phased(
                                cycle,
                                dc,
                                evaluator.cycle_lanes(cycle, dc),
                                false,
                            );
                        });
                        bank.finish(&digest.summary());
                        let banked = bank.into_outcomes();
                        assert_eq!(banked, scalar, "{isa:?} {generator:?} corners {corners}");
                        if seed_lut.is_some() {
                            drift_violations += banked.iter().map(|o| o.violations).sum::<u64>();
                        }
                    }
                }
            }
        }
        // The seeded, drifting case must violate somewhere, so the
        // grow-plus-backoff fold ran and not only the grow-only one.
        assert!(drift_violations > 0, "the drift never violated");
    }

    #[test]
    fn adaptive_bank_learned_tables_match_the_scalar_observer() {
        let digest = long_digest();
        let models = varied_models(3, 7);
        let config = AdaptiveConfig::default();
        let corner_bank = idca_timing::CornerBank::from_models(&models);
        let mut bank =
            AdaptiveBank::new(&models, &config, &ClockGenerator::Ideal, None, Drift::None);
        let mut evaluator = corner_bank.evaluator();
        digest.for_each_cycle(|cycle, dc| {
            bank.observe_cycle_lanes_phased(cycle, dc, evaluator.cycle_lanes(cycle, dc), false);
        });
        for (corner, model) in models.iter().enumerate() {
            let mut scalar =
                AdaptiveObserver::new(model, &config, &ClockGenerator::Ideal, None, Drift::None);
            digest.for_each_cycle(|cycle, dc| scalar.observe_digest(cycle, dc));
            for stage in Stage::ALL {
                for class in TimingClass::ALL {
                    assert_eq!(
                        bank.learned_ps(corner, stage, class),
                        scalar.learned_ps(stage, class)
                    );
                    assert_eq!(
                        bank.observation_count(corner, stage, class),
                        scalar.observation_count(stage, class)
                    );
                }
            }
        }
    }

    /// The scenarios [`floors_never_change_a_result`] cycles through.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Scenario {
        Clean,
        Faults,
        Surges,
        Drifting,
        SeedLut,
        Quantized,
        Discrete,
        /// Static periods scaled by 0.30–0.35, so backoffs hit the 2× cap:
        /// it lies below the grown value of the slowest entries, and a
        /// backoff lowers them.
        ScaledStatic,
        /// Lanes of a slower bank of the same width from a drawn cycle on,
        /// without a reset.
        BankSwitch,
        /// Requests and static periods scaled by 0.6–0.95, between the
        /// rows' values at shortfall 1 and the actual delays, so some lanes
        /// violate.
        Tight,
    }

    /// One drawn job's digest and perturbations: the interrupts of
    /// [`Scenario::Surges`], the fault plan of [`Scenario::Faults`] and the
    /// drift of [`Scenario::Drifting`], drawn in that order.
    struct DrawnJob {
        digest: TimingDigest,
        timeline: Option<IrqTimeline>,
        surge_factor: f64,
        plan: Option<FaultPlan>,
        drift: Drift,
    }

    impl DrawnJob {
        fn draw(case: &mut idca_cases::Case, scenario: Scenario, seed: u64) -> DrawnJob {
            use idca_gen::{generate_program, nth_seed, GenConfig};
            use idca_pipeline::{InterruptPlan, InterruptSpec};
            use idca_timing::FaultSpec;
            let program = generate_program(nth_seed(seed, 0), &GenConfig::default());
            let irq = (scenario == Scenario::Surges).then(|| InterruptSpec {
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
            let plan = (scenario == Scenario::Faults).then(|| {
                FaultPlan::new(&FaultSpec {
                    seed: case.u64(),
                    droop_rate: case.f64(0.0..0.5),
                    droop_mag: case.f64(0.0..0.4),
                    spike_rate: case.f64(0.0..0.05),
                    spike_mag: case.f64(0.0..0.5),
                    shift_mag: case.f64(0.0..0.1),
                    replay_penalty: case.int(1u32..=8),
                    ..FaultSpec::default()
                })
            });
            let drift = if scenario == Scenario::Drifting {
                Drift::LinearSlowdown {
                    fraction_per_kilocycle: case.f64(0.005..0.03),
                }
            } else {
                Drift::None
            };
            DrawnJob {
                digest,
                timeline,
                surge_factor: irq.map_or(1.0, |spec| 1.0 + spec.surge),
                plan,
                drift,
            }
        }
    }

    /// Learned periods (as bits) and observation counts, entry by entry.
    type Table = Vec<(u64, u64)>;

    /// Every table entry of every corner, corner-major.
    fn learned_bits(bank: &AdaptiveBank<'_>) -> Table {
        (0..bank.corners())
            .flat_map(|corner| {
                Stage::ALL.into_iter().flat_map(move |stage| {
                    TimingClass::ALL.into_iter().map(move |class| {
                        (
                            bank.learned_ps(corner, stage, class).to_bits(),
                            bank.observation_count(corner, stage, class),
                        )
                    })
                })
            })
            .collect()
    }

    /// The shortfall floors skip grow passes without changing a result: a
    /// bank with floors equals the same bank running every grow pass (its
    /// outcomes, learned tables and observation counts) in every copy of
    /// the kernel, and equals one scalar observer per corner wherever its
    /// static periods are the models' own. A clean walk of a bank wider
    /// than one chunk skips more than three quarters of its entry updates;
    /// a bank of one chunk skips none.
    #[test]
    fn floors_never_change_a_result() {
        use idca_cases::property;
        use idca_timing::VariationModel;
        use Scenario::*;
        const SCENARIOS: [Scenario; 9] = [
            Clean,
            Faults,
            Surges,
            Drifting,
            SeedLut,
            Quantized,
            Discrete,
            ScaledStatic,
            BankSwitch,
        ];
        // Every scenario meets a multi-chunk width past the AVX2 gate and
        // `sweep-fleet`'s one-chunk width first, where the bank runs every
        // pass, then the rest of 1–5 corners.
        const CORNERS: [u32; 6] = [37, 2, 5, 1, 4, 3];
        property!(
            floors_never_change_a_result,
            master = 0xCA5E_001A,
            cases = 18
        )
        .run(|case| {
            let index = case.index() as usize;
            let scenario = SCENARIOS[index % SCENARIOS.len()];
            let corners = CORNERS[index / SCENARIOS.len() % CORNERS.len()];
            let seed = case.u64();
            let config = AdaptiveConfig::default();
            let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
            let models = varied_models(corners, seed);
            let DrawnJob {
                digest,
                timeline,
                surge_factor,
                plan,
                drift,
            } = DrawnJob::draw(case, scenario, seed);
            let seed_table = DelayLut::from_model(&nominal);
            let seed_lut = (scenario == SeedLut).then_some(&seed_table);
            let generator = match scenario {
                Quantized => ClockGenerator::quantized_50ps(),
                Discrete => ClockGenerator::discrete(8, 900.0, 2100.0),
                _ => ClockGenerator::Ideal,
            };
            let static_scale = if scenario == ScaledStatic {
                case.f64(0.3..0.35)
            } else {
                1.0
            };
            let static_periods: Vec<Ps> = models
                .iter()
                .map(|m| m.static_period_ps() * static_scale)
                .collect();
            // The second bank runs at a lower supply voltage, so its lanes
            // are slower and a floor carried over from the first would skip
            // passes that raise them.
            let (second_models, switch_at) = if scenario == BankSwitch {
                let slow = TimingModel::with_voltage(ProfileKind::CriticalRangeOptimized, 600)
                    .expect("600 mV is characterized");
                let vm = VariationModel::default();
                let slow_models = (0..corners)
                    .map(|i| vm.apply(&slow, &vm.sample_corner(seed, i)))
                    .collect();
                (slow_models, case.int(0..=digest.cycles()))
            } else {
                (models.clone(), u64::MAX)
            };

            let first = CornerBank::from_models(&models);
            let second = CornerBank::from_models(&second_models);
            let copies = [
                LaneIsa::BASELINE,
                LaneIsa::detected(),
                LaneIsa::for_lanes(first.padded_lanes()),
            ];
            let new_bank = |isa| {
                let bank = AdaptiveBank::from_static_periods(
                    static_periods.clone(),
                    &config,
                    &generator,
                    seed_lut,
                    drift,
                )
                .with_isa(isa);
                match plan {
                    Some(plan) => bank.with_faults(plan),
                    None => bank,
                }
            };
            let mut floored: Vec<AdaptiveBank<'_>> = copies.map(new_bank).into();
            let mut every: Vec<AdaptiveBank<'_>> =
                copies.map(|isa| new_bank(isa).with_every_pass()).into();
            let perturbation = Perturbation {
                faults: plan.as_ref(),
                surge_factor,
            };
            let mut evaluators = [first.evaluator(), second.evaluator()];
            let mut cursor = timeline.as_ref().map(IrqTimeline::cursor);
            digest.for_each_cycle(|cycle, dc| {
                let entry = cursor
                    .as_mut()
                    .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry);
                let lanes = evaluators[usize::from(cycle >= switch_at)].cycle_lanes(cycle, dc);
                perturbation.lanes(cycle, lanes, entry);
                for bank in floored.iter_mut().chain(&mut every) {
                    bank.observe_cycle_lanes_phased(cycle, dc, lanes, entry);
                }
            });
            let summary = digest.summary();

            // One scalar observer per corner, where the bank's static
            // periods and lanes are its model's.
            let scalar: Option<Vec<(Table, AdaptiveOutcome)>> =
                (static_scale == 1.0 && switch_at == u64::MAX).then(|| {
                    models
                        .iter()
                        .map(|model| {
                            let mut observer =
                                AdaptiveObserver::new(model, &config, &generator, seed_lut, drift)
                                    .with_interrupts(timeline.as_ref(), surge_factor);
                            if let Some(plan) = plan.as_ref() {
                                observer = observer.with_faults(plan);
                            }
                            digest.for_each_cycle(|cycle, dc| observer.observe_digest(cycle, dc));
                            observer.finish(&summary);
                            let table = Stage::ALL
                                .into_iter()
                                .flat_map(|stage| TimingClass::ALL.map(|class| (stage, class)))
                                .map(|(stage, class)| {
                                    (
                                        observer.learned_ps(stage, class).to_bits(),
                                        observer.observation_count(stage, class),
                                    )
                                })
                                .collect();
                            (table, observer.into_outcome())
                        })
                        .collect()
                });

            let updates = digest.cycles() * Stage::COUNT as u64;
            for (isa, (mut floored, mut every)) in
                copies.into_iter().zip(floored.into_iter().zip(every))
            {
                let what = format!("{scenario:?} {isa:?} corners {corners}");
                assert_eq!(every.skipped_passes, 0, "{what}");
                if corners as usize <= LANE_WIDTH {
                    assert_eq!(
                        floored.skipped_passes, 0,
                        "{what}: one chunk runs every pass"
                    );
                } else if scenario == Clean {
                    // The multi-chunk clean cases at IDCA_FUZZ_SEEDS=2000
                    // skipped 83.4–96.3 % of their entry updates (median
                    // 92.9 %).
                    assert!(
                        floored.skipped_passes * 4 > updates * 3,
                        "{what}: skipped {} of {updates} entry updates",
                        floored.skipped_passes
                    );
                }
                let table = learned_bits(&floored);
                assert_eq!(table, learned_bits(&every), "{what}");
                floored.finish(&summary);
                every.finish(&summary);
                let outcomes = floored.into_outcomes();
                assert_eq!(outcomes, every.into_outcomes(), "{what}");
                if let Some(scalar) = &scalar {
                    for (corner, (scalar_table, scalar_outcome)) in scalar.iter().enumerate() {
                        let at = corner * scalar_table.len();
                        assert_eq!(
                            &table[at..][..scalar_table.len()],
                            &scalar_table[..],
                            "{what}"
                        );
                        assert_eq!(&outcomes[corner], scalar_outcome, "{what} corner {corner}");
                    }
                }
            }
        });
    }

    /// The maximum of all six stage rows, folded in stage order with the
    /// fold's strict `>`: the maximum lanes of a fold that keeps every
    /// stage. Reading each row keeps it in the lanes.
    fn refolded_max(lanes: &mut CycleLanes<'_>) -> Vec<Ps> {
        let mut max = lanes.stage_lanes(Stage::ALL[0]).to_vec();
        for stage in &Stage::ALL[1..] {
            for (max, &delay) in max.iter_mut().zip(lanes.stage_lanes(*stage)) {
                if delay > *max {
                    *max = delay;
                }
            }
        }
        max
    }

    /// The three table-driven policy banks and the adaptive bank of one
    /// job, all reading the same lanes.
    struct JobBanks<'g> {
        policies: [crate::PolicyBank<'g>; 3],
        adaptive: AdaptiveBank<'g>,
    }

    /// The corner bank's pruned fold changes no result of the banks that
    /// read its lanes. One set of banks reads the pruned lanes; another
    /// reads the lanes of a second evaluator of the same bank with every
    /// stage row kept, and the maximum refolded from all six rows. In every
    /// copy a bank of the drawn width can run, the three `PolicyBank`s'
    /// outcomes and the `AdaptiveBank`'s outcomes and learned tables must
    /// be equal, and on every cycle the pruned maximum lanes must equal the
    /// refolded ones, bit for bit.
    #[test]
    fn pruned_lanes_never_change_a_result() {
        use crate::{ClockPolicy, ExecuteOnly, PolicyBank};
        use idca_cases::property;
        use Scenario::*;
        const SCENARIOS: [Scenario; 5] = [Clean, Faults, Surges, Drifting, SeedLut];
        // Coprime with the scenario count: consecutive cases walk every
        // pairing of a scenario with a multi-chunk width (past the AVX2 gate
        // and two baseline widths) or a one-chunk width.
        const CORNERS: [u32; 7] = [37, 8, 5, 1, 2, 3, 4];
        property!(
            pruned_lanes_never_change_a_result,
            master = 0xCA5E_001F,
            cases = 14
        )
        .run(|case| {
            let index = case.index() as usize;
            let scenario = SCENARIOS[index % SCENARIOS.len()];
            let corners = CORNERS[index % CORNERS.len()];
            let seed = case.u64();
            let config = AdaptiveConfig::default();
            let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
            let models = varied_models(corners, seed);
            let DrawnJob {
                digest,
                timeline,
                surge_factor,
                plan,
                drift,
            } = DrawnJob::draw(case, scenario, seed);
            let seed_table = DelayLut::from_model(&nominal);
            let seed_lut = (scenario == SeedLut).then_some(&seed_table);
            let lut_policy = InstructionBased::from_model(&nominal);
            let exec_only = ExecuteOnly::new(DelayLut::from_model(&nominal));
            let generator = ClockGenerator::Ideal;

            let bank = CornerBank::from_models(&models);
            let static_periods: Vec<Ps> =
                models.iter().map(TimingModel::static_period_ps).collect();
            let copies = [
                LaneIsa::BASELINE,
                LaneIsa::detected(),
                LaneIsa::for_lanes(bank.padded_lanes()),
            ];
            let new_banks = |isa| {
                let policy = |name| {
                    let bank = PolicyBank::new(name, models.len(), &generator).with_isa(isa);
                    match plan {
                        Some(plan) => bank.with_faults(plan),
                        None => bank,
                    }
                };
                let adaptive =
                    AdaptiveBank::new(&models, &config, &generator, seed_lut, drift).with_isa(isa);
                JobBanks {
                    policies: [policy("static"), policy("lut"), policy("exec")],
                    adaptive: match plan {
                        Some(plan) => adaptive.with_faults(plan),
                        None => adaptive,
                    },
                }
            };
            // Per copy, the banks reading the pruned lanes, then those
            // reading every stage.
            let mut pruned_banks: Vec<JobBanks<'_>> = copies.map(new_banks).into();
            let mut every_banks: Vec<JobBanks<'_>> = copies.map(new_banks).into();
            let perturbation = Perturbation {
                faults: plan.as_ref(),
                surge_factor,
            };
            if digest.cycles() > 0 {
                for banks in pruned_banks.iter_mut().chain(&mut every_banks) {
                    banks.policies[0].begin_block_per_corner(&static_periods);
                }
            }
            let (mut pruned, mut every) = (bank.evaluator(), bank.evaluator());
            let mut cursor = timeline.as_ref().map(IrqTimeline::cursor);
            digest.for_each_run(|start, len, dc| {
                let lut = lut_policy.digest_period_ps(start, dc);
                let exec = exec_only.digest_period_ps(start, dc);
                for banks in pruned_banks.iter_mut().chain(&mut every_banks) {
                    banks.policies[1].begin_block(lut);
                    banks.policies[2].begin_block(exec);
                }
                for cycle in start..start + u64::from(len) {
                    let entry = cursor
                        .as_mut()
                        .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry);
                    let lanes = pruned.cycle_lanes(cycle, dc);
                    perturbation.lanes(cycle, lanes, entry);
                    let oracle = every.cycle_lanes(cycle, dc);
                    perturbation.lanes(cycle, oracle, entry);
                    let max = refolded_max(oracle);
                    assert_eq!(
                        lanes
                            .max_lanes()
                            .iter()
                            .map(|d| d.to_bits())
                            .collect::<Vec<_>>(),
                        max.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                        "{scenario:?} corners {corners}: cycle {cycle}"
                    );
                    let feeds = [
                        (&mut pruned_banks, &*lanes, lanes.max_lanes()),
                        (&mut every_banks, &*oracle, &max[..]),
                    ];
                    for (banks, lanes, max) in feeds {
                        for banks in banks.iter_mut() {
                            for policy in &mut banks.policies {
                                if entry {
                                    policy.observe_actuals_entry(max);
                                } else {
                                    policy.observe_actuals(max);
                                }
                            }
                            banks
                                .adaptive
                                .observe_cycle_lanes_phased(cycle, dc, lanes, entry);
                        }
                    }
                }
            });

            let summary = digest.summary();
            for (isa, (pruned, every)) in copies
                .into_iter()
                .zip(pruned_banks.into_iter().zip(every_banks))
            {
                let what = format!("{scenario:?} {isa:?} corners {corners}");
                assert_eq!(
                    learned_bits(&pruned.adaptive),
                    learned_bits(&every.adaptive),
                    "{what}"
                );
                for (mut pruned, mut every) in pruned.policies.into_iter().zip(every.policies) {
                    pruned.finish(&summary);
                    every.finish(&summary);
                    assert_eq!(pruned.into_outcomes(), every.into_outcomes(), "{what}");
                }
                let (mut pruned, mut every) = (pruned.adaptive, every.adaptive);
                pruned.finish(&summary);
                every.finish(&summary);
                assert_eq!(pruned.into_outcomes(), every.into_outcomes(), "{what}");
            }
        });
    }

    /// One job a certifying set of banks and its oracle replay side by
    /// side: the digest and its perturbations, the banks' configuration,
    /// the per-cycle requests and the cycles whose excitation turns NaN.
    struct OracleJob<'j> {
        models: &'j [TimingModel],
        job: &'j DrawnJob,
        generator: &'j ClockGenerator,
        config: AdaptiveConfig,
        seed_lut: Option<&'j DelayLut>,
        static_periods: Vec<Ps>,
        /// The factor on the guarded LUT's requests.
        tight: f64,
        /// Every cycle divisible by it gets a NaN excitation in one stage.
        nan_every: Option<u64>,
    }

    /// What the certifying banks of one copy skipped, and what they counted.
    #[derive(Debug, Clone, PartialEq)]
    struct Coverage {
        cycles: u64,
        policy_certified: [u64; 3],
        adaptive_certified: u64,
        skipped_passes: u64,
        /// Warm rows predict folded: the certifying bank's, the oracle's.
        predict_rows: (u64, u64),
        /// Violations over the three policy banks and the adaptive bank.
        violations: u64,
    }

    /// Replays `job` through the certifying banks, reading
    /// `BankEvaluator::lazy_lanes`, and through the oracle: the same banks
    /// with the certificates, predict dominance and the floors switched
    /// off, reading the eagerly folded `BankEvaluator::cycle_lanes`. In
    /// every copy a
    /// bank of the job's width can run, the maximum lanes and every stage
    /// row must be the oracle's on every cycle, and the outcomes, learned
    /// tables, observation counts and warmup cycles per job. Returns the
    /// coverage, equal in every copy.
    fn assert_matches_the_oracle(job: &OracleJob<'_>) -> Coverage {
        use crate::{ClockPolicy, ExecuteOnly, PolicyBank};
        use idca_pipeline::StageExcitation;
        use idca_timing::VariationModel;
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let guarded =
            DelayLut::from_model(&nominal).scaled(1.0 + VariationModel::default().margin());
        let lut_policy = InstructionBased::new(guarded.clone());
        let exec_only = ExecuteOnly::new(guarded);
        let bank = CornerBank::from_models(job.models);
        let copies = [
            LaneIsa::BASELINE,
            LaneIsa::detected(),
            LaneIsa::for_lanes(bank.padded_lanes()),
        ];
        let new_banks = |isa, oracle: bool| {
            let policy = |name| {
                let bank = PolicyBank::new(name, job.models.len(), job.generator).with_isa(isa);
                let bank = if oracle {
                    bank.with_every_compare()
                } else {
                    bank
                };
                match job.job.plan {
                    Some(plan) => bank.with_faults(plan),
                    None => bank,
                }
            };
            let adaptive = AdaptiveBank::from_static_periods(
                job.static_periods.clone(),
                &job.config,
                job.generator,
                job.seed_lut,
                job.job.drift,
            )
            .with_isa(isa);
            let adaptive = if oracle {
                adaptive.with_every_compare().with_every_pass()
            } else {
                adaptive
            };
            JobBanks {
                policies: [policy("static"), policy("lut"), policy("exec")],
                adaptive: match job.job.plan {
                    Some(plan) => adaptive.with_faults(plan),
                    None => adaptive,
                },
            }
        };
        let mut banks: Vec<JobBanks<'_>> = copies.map(|isa| new_banks(isa, false)).into();
        let mut oracles: Vec<JobBanks<'_>> = copies.map(|isa| new_banks(isa, true)).into();
        let digest = &job.job.digest;
        if digest.cycles() > 0 {
            for banks in banks.iter_mut().chain(&mut oracles) {
                banks.policies[0].begin_block_per_corner(&job.static_periods);
            }
        }
        let perturbation = Perturbation {
            faults: job.job.plan.as_ref(),
            surge_factor: job.job.surge_factor,
        };
        let mut lazy: Vec<_> = copies.map(|_| bank.evaluator()).into();
        let mut eager = bank.evaluator();
        let mut cursor = job.job.timeline.as_ref().map(IrqTimeline::cursor);
        let mut scratch = vec![0.0; bank.padded_lanes()];
        let same = |a: &[Ps], b: &[Ps]| {
            a.iter()
                .map(|d| d.to_bits())
                .eq(b.iter().map(|d| d.to_bits()))
        };
        digest.for_each_cycle(|cycle, dc| {
            let mut dc = *dc;
            if job.nan_every.is_some_and(|every| cycle % every == 0) {
                dc.excitation[cycle as usize % Stage::COUNT] = StageExcitation {
                    base: f64::NAN,
                    dither_gain: 0.0,
                };
            }
            let dc = &dc;
            let entry = cursor
                .as_mut()
                .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry);
            let lut = lut_policy.digest_period_ps(cycle, dc) * job.tight;
            let exec = exec_only.digest_period_ps(cycle, dc) * job.tight;
            let oracle = eager.cycle_lanes(cycle, dc);
            perturbation.lanes(cycle, oracle, entry);
            for banks in banks.iter_mut().chain(&mut oracles) {
                banks.policies[1].begin_block(lut);
                banks.policies[2].begin_block(exec);
            }
            for banks in &mut oracles {
                for policy in &mut banks.policies {
                    policy.observe_cycle(oracle, entry);
                }
                banks.adaptive.observe_cycle(cycle, dc, oracle, entry);
            }
            for (banks, evaluator) in banks.iter_mut().zip(&mut lazy) {
                let lanes = evaluator.lazy_lanes(cycle, dc);
                perturbation.lanes(cycle, lanes, entry);
                for policy in &mut banks.policies {
                    policy.observe_cycle(lanes, entry);
                }
                banks.adaptive.observe_cycle(cycle, dc, lanes, entry);
                // Whatever the banks left unfolded is the oracle's when read.
                for stage in Stage::ALL {
                    assert!(
                        same(
                            lanes.stage_lanes_with(stage, &mut scratch),
                            oracle.stage_lanes(stage)
                        ),
                        "cycle {cycle} {stage:?}"
                    );
                }
                assert!(
                    same(lanes.fold_max(), oracle.max_lanes()),
                    "cycle {cycle} maximum"
                );
            }
        });

        let summary = digest.summary();
        let mut coverage = None;
        for (isa, (banks, oracles)) in copies.into_iter().zip(banks.into_iter().zip(oracles)) {
            let what = format!("{isa:?} corners {}", job.models.len());
            assert_eq!(
                learned_bits(&banks.adaptive),
                learned_bits(&oracles.adaptive),
                "{what}"
            );
            let mut copy = Coverage {
                cycles: digest.cycles(),
                policy_certified: banks.policies.each_ref().map(|bank| bank.certified_cycles),
                adaptive_certified: banks.adaptive.certified_cycles,
                skipped_passes: banks.adaptive.skipped_passes,
                predict_rows: (banks.adaptive.predict_rows, oracles.adaptive.predict_rows),
                violations: 0,
            };
            assert_eq!(oracles.adaptive.certified_cycles, 0, "{what}");
            for (mut bank, mut oracle) in banks.policies.into_iter().zip(oracles.policies) {
                assert_eq!(oracle.certified_cycles, 0, "{what}");
                bank.finish(&summary);
                oracle.finish(&summary);
                let outcomes = bank.into_outcomes();
                copy.violations += outcomes.iter().map(|o| o.violations).sum::<u64>();
                assert_eq!(outcomes, oracle.into_outcomes(), "{what}");
            }
            let (mut bank, mut oracle) = (banks.adaptive, oracles.adaptive);
            bank.finish(&summary);
            oracle.finish(&summary);
            let outcomes = bank.into_outcomes();
            copy.violations += outcomes.iter().map(|o| o.violations).sum::<u64>();
            assert_eq!(outcomes, oracle.into_outcomes(), "{what}");
            match &coverage {
                None => coverage = Some(copy),
                Some(first) => assert_eq!(first, &copy, "{what}"),
            }
        }
        coverage.expect("three copies")
    }

    /// The certificates, the deferred maximum and predict dominance change
    /// no result: banks reading `lazy_lanes` equal the oracle banks reading
    /// eager lanes with all three switched off, per cycle and per job (see
    /// [`assert_matches_the_oracle`]), at 1–5, 8, 37 and 64 corners, on
    /// clean, faulted, entry-surged, drifting, seeded-LUT, scaled-static and
    /// tight walks, under the ideal, quantized and discrete generators. The
    /// quantized generator's top period lies below the ceiling, so its
    /// requests can realize below the rows they cover. A multi-chunk clean
    /// walk under the ideal generator certifies every cycle for the policy
    /// banks and most cycles for the adaptive bank; a one-chunk walk
    /// certifies none.
    #[test]
    fn certificates_never_change_a_result() {
        use idca_cases::property;
        use Scenario::*;
        const SCENARIOS: [Scenario; 7] = [
            Clean,
            Faults,
            Surges,
            Drifting,
            SeedLut,
            ScaledStatic,
            Tight,
        ];
        // Coprime with the scenario count, so the cases pair every
        // scenario with every width: past the AVX2 gate (37 corners pad to
        // 40 lanes, 64 have no padding lane), two baseline widths and every
        // one-chunk width. Case `i` takes width `i % 8` and scenario `i %
        // 7`, so scenario `s` meets the widths at `s, s - 1, s - 2, ...`
        // (mod 8); in this order each scenario's first three cases, the
        // default budget, include a multi-chunk width.
        const CORNERS: [u32; 8] = [37, 1, 2, 8, 3, 5, 64, 4];
        property!(
            certificates_never_change_a_result,
            master = 0xCA5E_0020,
            cases = 21
        )
        .run(|case| {
            let index = case.index() as usize;
            let scenario = SCENARIOS[index % SCENARIOS.len()];
            let corners = CORNERS[index % CORNERS.len()];
            let seed = case.u64();
            let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
            let models = varied_models(corners, seed);
            let job = DrawnJob::draw(case, scenario, seed);
            let (generator, ideal) = match index / SCENARIOS.len() % 3 {
                0 => (ClockGenerator::Ideal, true),
                1 => (
                    ClockGenerator::Quantized {
                        step_ps: 50.0,
                        min_ps: 600.0,
                        max_ps: case.f64(1200.0..1900.0),
                    },
                    false,
                ),
                _ => (ClockGenerator::discrete(8, 900.0, 2100.0), false),
            };
            let tight = if scenario == Tight {
                case.f64(0.6..0.95)
            } else {
                1.0
            };
            let static_scale = match scenario {
                ScaledStatic => case.f64(0.3..0.35),
                _ => tight,
            };
            let seed_table = DelayLut::from_model(&nominal);
            let coverage = assert_matches_the_oracle(&OracleJob {
                models: &models,
                job: &job,
                generator: &generator,
                config: AdaptiveConfig::default(),
                seed_lut: (scenario == SeedLut).then_some(&seed_table),
                static_periods: models
                    .iter()
                    .map(|model| model.static_period_ps() * static_scale)
                    .collect(),
                tight,
                nan_every: None,
            });
            let what = format!("{scenario:?} {generator:?} corners {corners}: {coverage:?}");
            if corners as usize <= LANE_WIDTH {
                assert_eq!(coverage.policy_certified, [0; 3], "{what}");
                assert_eq!(coverage.adaptive_certified, 0, "{what}");
                assert_eq!(coverage.predict_rows.0, coverage.predict_rows.1, "{what}");
            } else if scenario == Clean && ideal {
                assert_eq!(coverage.policy_certified, [coverage.cycles; 3], "{what}");
                // The six multi-chunk clean cases under the ideal
                // generator at IDCA_FUZZ_SEEDS=2000 certified 86.7–94.6 %
                // of their cycles for the adaptive bank.
                assert!(
                    coverage.adaptive_certified * 100 >= coverage.cycles * 85,
                    "{what}"
                );
            }
        });
    }

    /// A clean job over [`long_digest`]: no interrupts, faults or drift.
    fn clean_job(drift: Drift) -> DrawnJob {
        DrawnJob {
            digest: long_digest(),
            timeline: None,
            surge_factor: 1.0,
            plan: None,
            drift,
        }
    }

    /// An [`OracleJob`] of 8 corners (two chunks) over `job`, under the
    /// ideal generator and the default configuration, with each corner's
    /// own static period and the guarded LUT's requests.
    fn wide_job<'j>(
        models: &'j [TimingModel],
        job: &'j DrawnJob,
        generator: &'j ClockGenerator,
    ) -> OracleJob<'j> {
        OracleJob {
            models,
            job,
            generator,
            config: AdaptiveConfig::default(),
            seed_lut: None,
            static_periods: models.iter().map(TimingModel::static_period_ps).collect(),
            tight: 1.0,
            nan_every: None,
        }
    }

    #[test]
    fn a_nan_excitation_runs_the_compare() {
        let models = varied_models(8, 0x0A0A);
        let job = clean_job(Drift::None);
        let clean = assert_matches_the_oracle(&OracleJob {
            tight: 0.8,
            ..wide_job(&models, &job, &ClockGenerator::Ideal)
        });
        let poisoned = assert_matches_the_oracle(&OracleJob {
            tight: 0.8,
            nan_every: Some(3),
            ..wide_job(&models, &job, &ClockGenerator::Ideal)
        });
        // A NaN shortfall leaves the cycle without a bound, so no bank
        // certifies it, and its violations are counted. The static bank
        // certifies every other cycle.
        let nan_cycles = clean.cycles.div_ceil(3);
        assert_eq!(clean.policy_certified[0], clean.cycles, "{clean:?}");
        assert_eq!(
            poisoned.policy_certified[0],
            poisoned.cycles - nan_cycles,
            "{poisoned:?}"
        );
        for (poisoned, clean) in poisoned.policy_certified.iter().zip(clean.policy_certified) {
            assert!(*poisoned <= clean);
        }
        assert!(poisoned.adaptive_certified <= clean.adaptive_certified);
        assert!(poisoned.violations > 0, "{poisoned:?}");
    }

    #[test]
    fn a_bank_with_an_infinite_parameter_runs_the_compare() {
        // One corner's execute-stage `Mul` paths are infinitely slow: the
        // bank is not monotone, so no cycle has a bound, and that lane
        // violates whenever a multiply executes. The banks keep the corner's
        // finite static period.
        let mut models = varied_models(8, 0x1F1F);
        let static_periods = models.iter().map(TimingModel::static_period_ps).collect();
        let slow = models[5].profile().with_cell_variation(|stage, class| {
            if (stage, class) == (Stage::Execute, TimingClass::Mul) {
                f64::INFINITY
            } else {
                1.0
            }
        });
        models[5] = TimingModel::new(slow, models[5].library().clone(), 700).unwrap();
        let job = clean_job(Drift::None);
        let coverage = assert_matches_the_oracle(&OracleJob {
            static_periods,
            ..wide_job(&models, &job, &ClockGenerator::Ideal)
        });
        assert_eq!(coverage.policy_certified, [0; 3], "{coverage:?}");
        assert_eq!(coverage.adaptive_certified, 0, "{coverage:?}");
        assert!(coverage.violations > 0, "{coverage:?}");
    }

    #[test]
    fn a_quantized_generator_below_the_ceiling_runs_the_compare() {
        // The top period, 1500 ps, lies below the slowest rows, so a warm
        // request can realize below the row it covers.
        let generator = ClockGenerator::Quantized {
            step_ps: 50.0,
            min_ps: 600.0,
            max_ps: 1500.0,
        };
        let models = varied_models(8, 0x0B0B);
        let job = clean_job(Drift::None);
        let coverage = assert_matches_the_oracle(&wide_job(&models, &job, &generator));
        assert_eq!(coverage.adaptive_certified, 0, "{coverage:?}");
        assert!(coverage.violations > 0, "{coverage:?}");
    }

    #[test]
    fn a_negative_margin_keeps_the_floors_and_drops_the_certificate() {
        let models = varied_models(8, 0x0C0C);
        let job = clean_job(Drift::None);
        let coverage = assert_matches_the_oracle(&OracleJob {
            config: AdaptiveConfig {
                margin: -0.1,
                ..AdaptiveConfig::default()
            },
            ..wide_job(&models, &job, &ClockGenerator::Ideal)
        });
        assert!(coverage.skipped_passes > 0, "{coverage:?}");
        assert_eq!(coverage.adaptive_certified, 0, "{coverage:?}");
        assert!(coverage.violations > 0, "{coverage:?}");
    }

    #[test]
    fn drift_drops_the_adaptive_certificate() {
        let models = varied_models(8, 0x0D0D);
        let seed = DelayLut::from_model(&models[0]);
        let job = clean_job(Drift::LinearSlowdown {
            fraction_per_kilocycle: 0.02,
        });
        let coverage = assert_matches_the_oracle(&OracleJob {
            seed_lut: Some(&seed),
            ..wide_job(&models, &job, &ClockGenerator::Ideal)
        });
        // The policy banks read no drift and stay certified.
        assert_eq!(
            coverage.policy_certified, [coverage.cycles; 3],
            "{coverage:?}"
        );
        assert_eq!(coverage.adaptive_certified, 0, "{coverage:?}");
        assert!(coverage.violations > 0, "{coverage:?}");
    }

    #[test]
    fn static_periods_below_the_ceiling_run_the_compare() {
        let models = varied_models(8, 0x0E0E);
        let job = clean_job(Drift::None);
        let own = assert_matches_the_oracle(&wide_job(&models, &job, &ClockGenerator::Ideal));
        let scaled = assert_matches_the_oracle(&OracleJob {
            static_periods: models
                .iter()
                .map(|model| model.static_period_ps() * 0.7)
                .collect(),
            ..wide_job(&models, &job, &ClockGenerator::Ideal)
        });
        // The static bank and the adaptive bank's cold cycles lose their
        // certificates; the warm ones keep theirs.
        assert_eq!(own.policy_certified[0], own.cycles, "{own:?}");
        assert_eq!(scaled.policy_certified[0], 0, "{scaled:?}");
        assert!(
            scaled.adaptive_certified < own.adaptive_certified,
            "{scaled:?} {own:?}"
        );
        assert!(scaled.adaptive_certified > 0, "{scaled:?}");
        assert!(scaled.violations > 0, "{scaled:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn adaptive_bank_rejects_a_corner_past_the_last() {
        let models = varied_models(3, 7);
        let bank = AdaptiveBank::new(
            &models,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        let _ = bank.learned_ps(bank.corners(), Stage::Execute, TimingClass::Bubble);
    }

    #[test]
    fn empty_adaptive_bank_is_inert() {
        let digest = long_digest();
        let outcomes = replay_adaptive_digest_banked(
            &[],
            &digest,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        assert!(outcomes.is_empty());
    }

    #[test]
    fn empty_trace_is_neutral() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let outcome = replay_adaptive_digest(
            &model,
            &TimingDigest::default(),
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        assert_eq!(outcome.cycles, 0);
        assert_eq!(outcome.violations, 0);
        assert_eq!(outcome.speedup_over_static, 1.0);
    }
}
