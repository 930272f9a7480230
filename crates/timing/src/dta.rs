//! Dynamic timing analysis (DTA).
//!
//! The paper's DTA tool consumes the event log of a gate-level simulation
//! and, per cycle, relates the last data arrival of every endpoint to the
//! next capturing clock edge, yielding the *dynamic* slack that static
//! timing analysis cannot see (it has no notion of path activation
//! probability). It then groups the endpoints by pipeline stage, and the
//! per-stage per-cycle maxima are combined with the program trace to obtain
//! per-instruction-class worst-case delays — the content of the delay
//! prediction LUT — plus the distributions shown in Figs. 5–7. Here the
//! [`TimingModel`] computes those per-stage maxima directly.
//!
//! The analysis is a single-pass accumulator over digested cycles:
//! [`DynamicTimingAnalysis::replay_digest`] folds a captured
//! [`TimingDigest`], the production route (characterize once, replay
//! against any model). [`DtaObserver`] is its live oracle: it implements
//! [`CycleObserver`] and folds every [`CycleRecord`] through the same
//! per-cycle body as the simulator produces it.

use crate::{Histogram, Ps, TimingModel};
use idca_isa::TimingClass;
use idca_pipeline::{CycleObserver, CycleRecord, DigestCycle, Stage, TimingDigest};
use serde::{Deserialize, Serialize};

/// Result of a dynamic timing analysis over one execution trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicTimingAnalysis {
    static_period_ps: Ps,
    cycles: u64,
    sum_cycle_max: f64,
    max_cycle_delay: Ps,
    cycle_histogram: Histogram,
    limiting_counts: [u64; Stage::COUNT],
    class_stage_max: Vec<Ps>,
    class_stage_counts: Vec<u64>,
    class_stage_hist: Vec<Histogram>,
}

fn table_index(stage: Stage, class: TimingClass) -> usize {
    stage.index() * TimingClass::COUNT + class.index()
}

impl DynamicTimingAnalysis {
    fn empty(static_period_ps: Ps) -> Self {
        let hist_max = static_period_ps * 1.05;
        DynamicTimingAnalysis {
            static_period_ps,
            cycles: 0,
            sum_cycle_max: 0.0,
            max_cycle_delay: 0.0,
            cycle_histogram: Histogram::new(0.0, hist_max, 25.0),
            limiting_counts: [0; Stage::COUNT],
            class_stage_max: vec![0.0; Stage::COUNT * TimingClass::COUNT],
            class_stage_counts: vec![0; Stage::COUNT * TimingClass::COUNT],
            class_stage_hist: (0..Stage::COUNT * TimingClass::COUNT)
                .map(|_| Histogram::new(0.0, hist_max, 50.0))
                .collect(),
        }
    }

    /// Creates a streaming observer that performs the analysis cycle by
    /// cycle as the simulator runs — the live oracle of
    /// [`DynamicTimingAnalysis::replay_digest`].
    #[must_use]
    pub fn streaming(model: &TimingModel) -> DtaObserver<'_> {
        DtaObserver {
            dta: Self::empty(model.static_period_ps()),
            model,
        }
    }

    /// Replays a [`TimingDigest`] against `model` — the simulate-once /
    /// evaluate-many entry point. The digest carries the per-stage classes
    /// and excitation coefficients of every cycle, so the analysis is
    /// bit-identical to a [`DtaObserver`] riding the originating execution
    /// while skipping the pipeline simulation entirely (one digested run can
    /// be characterized against any number of models).
    #[must_use]
    pub fn replay_digest(model: &TimingModel, digest: &TimingDigest) -> Self {
        let mut dta = Self::empty(model.static_period_ps());
        digest.for_each_cycle(|cycle, dc| dta.observe_digest_cycle(model, cycle, dc));
        dta
    }

    /// The per-cycle fold of live observation and digest replay alike.
    fn observe_digest_cycle(&mut self, model: &TimingModel, cycle: u64, dc: &DigestCycle) {
        let timing = model.digest_cycle_timing(cycle, dc);
        self.accumulate_cycle(&timing.stage_delay_ps, &dc.classes);
    }

    fn accumulate_cycle(&mut self, delays: &[Ps; Stage::COUNT], classes: &[TimingClass]) {
        self.cycles += 1;
        let mut max_delay = 0.0;
        let mut limiting = Stage::Execute;
        for stage in Stage::ALL {
            let delay = delays[stage.index()];
            let class = classes[stage.index()];
            let idx = table_index(stage, class);
            self.class_stage_counts[idx] += 1;
            self.class_stage_hist[idx].add(delay);
            if delay > self.class_stage_max[idx] {
                self.class_stage_max[idx] = delay;
            }
            if delay > max_delay {
                max_delay = delay;
                limiting = stage;
            }
        }
        self.sum_cycle_max += max_delay;
        self.max_cycle_delay = self.max_cycle_delay.max(max_delay);
        self.cycle_histogram.add(max_delay);
        self.limiting_counts[limiting.index()] += 1;
    }

    /// Number of cycles analysed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Static-timing-analysis period the analysis compares against.
    #[must_use]
    pub fn static_period_ps(&self) -> Ps {
        self.static_period_ps
    }

    /// Mean of the per-cycle maximum dynamic delay (the 1334 ps of Fig. 5).
    #[must_use]
    pub fn mean_cycle_delay_ps(&self) -> Ps {
        if self.cycles == 0 {
            0.0
        } else {
            self.sum_cycle_max / self.cycles as f64
        }
    }

    /// Largest per-cycle delay observed anywhere in the trace.
    #[must_use]
    pub fn max_cycle_delay_ps(&self) -> Ps {
        self.max_cycle_delay
    }

    /// Mean dynamic slack per cycle with respect to the static period.
    #[must_use]
    pub fn mean_slack_ps(&self) -> Ps {
        self.static_period_ps - self.mean_cycle_delay_ps()
    }

    /// The genie-aided (oracle) speedup: adjusting the clock each cycle to
    /// the exact dynamic delay, as in §IV-A of the paper (≈ 1.5×).
    #[must_use]
    pub fn genie_speedup(&self) -> f64 {
        if self.mean_cycle_delay_ps() == 0.0 {
            1.0
        } else {
            self.static_period_ps / self.mean_cycle_delay_ps()
        }
    }

    /// Histogram of the per-cycle maximum dynamic delay (Fig. 5).
    #[must_use]
    pub fn cycle_histogram(&self) -> &Histogram {
        &self.cycle_histogram
    }

    /// How many cycles each stage was the limiting one (Fig. 6).
    #[must_use]
    pub fn limiting_counts(&self) -> [u64; Stage::COUNT] {
        self.limiting_counts
    }

    /// Fraction of cycles in which `stage` owned the limiting path (Fig. 6).
    #[must_use]
    pub fn limiting_fraction(&self, stage: Stage) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.limiting_counts[stage.index()] as f64 / self.cycles as f64
        }
    }

    /// Worst observed dynamic delay of `class` in `stage` (a delay-LUT entry).
    #[must_use]
    pub fn observed_worst_ps(&self, stage: Stage, class: TimingClass) -> Ps {
        self.class_stage_max[table_index(stage, class)]
    }

    /// Number of cycles `class` was observed in `stage` (used to decide
    /// whether the characterization of an instruction is trustworthy).
    #[must_use]
    pub fn observations(&self, stage: Stage, class: TimingClass) -> u64 {
        self.class_stage_counts[table_index(stage, class)]
    }

    /// The worst observed delay of a class across all stages together with
    /// the limiting stage (one row of Table II).
    #[must_use]
    pub fn class_worst_case(&self, class: TimingClass) -> (Stage, Ps) {
        let mut best = (Stage::Execute, 0.0);
        for stage in Stage::ALL {
            let v = self.observed_worst_ps(stage, class);
            if v > best.1 {
                best = (stage, v);
            }
        }
        best
    }

    /// Per-stage delay histogram of one instruction class (Fig. 7 uses the
    /// six histograms of `l.mul`).
    #[must_use]
    pub fn stage_histogram(&self, stage: Stage, class: TimingClass) -> &Histogram {
        &self.class_stage_hist[table_index(stage, class)]
    }
}

/// Streaming dynamic timing analysis: a [`CycleObserver`] that evaluates the
/// dynamic stage delays of every cycle against a [`TimingModel`] and folds
/// them into a [`DynamicTimingAnalysis`] as the simulation runs. Created by
/// [`DynamicTimingAnalysis::streaming`].
#[derive(Debug, Clone)]
pub struct DtaObserver<'m> {
    model: &'m TimingModel,
    dta: DynamicTimingAnalysis,
}

impl DtaObserver<'_> {
    /// The analysis accumulated so far.
    #[must_use]
    pub fn analysis(&self) -> &DynamicTimingAnalysis {
        &self.dta
    }

    /// Consumes the observer and returns the finished analysis.
    #[must_use]
    pub fn into_analysis(self) -> DynamicTimingAnalysis {
        self.dta
    }
}

impl CycleObserver for DtaObserver<'_> {
    /// Digests the record and takes the per-cycle fold of
    /// [`DynamicTimingAnalysis::replay_digest`].
    fn observe_cycle(&mut self, record: &CycleRecord) {
        self.dta
            .observe_digest_cycle(self.model, record.cycle, &DigestCycle::of_record(record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileKind;
    use idca_isa::asm::Assembler;
    use idca_isa::Program;
    use idca_pipeline::{DigestObserver, SimConfig, Simulator};

    fn mixed_program() -> Program {
        Assembler::new()
            .assemble(
                "        l.addi r1, r0, 0x200
                     l.addi r3, r0, 64
                     l.addi r4, r0, 0
             loop:   l.mul  r5, r3, r3
                     l.sw   0(r1), r5
                     l.lwz  r6, 0(r1)
                     l.add  r4, r4, r6
                     l.xor  r7, r4, r3
                     l.slli r8, r7, 3
                     l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.addi r1, r1, 4
                     l.nop  1",
            )
            .expect("assembles")
    }

    /// The mixed program's DTA, by replay of its captured digest.
    fn mixed_dta(model: &TimingModel) -> DynamicTimingAnalysis {
        let mut digest = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .run_observed(&mixed_program(), &mut [&mut digest])
            .expect("runs");
        DynamicTimingAnalysis::replay_digest(model, &digest.into_digest())
    }

    #[test]
    fn dynamic_margins_exist_below_static_period() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let dta = mixed_dta(&model);
        assert!(dta.cycles() > 100);
        assert!(dta.mean_cycle_delay_ps() < model.static_period_ps());
        assert!(dta.genie_speedup() > 1.1);
        assert!(dta.max_cycle_delay_ps() <= model.static_period_ps());
        assert!(dta.mean_slack_ps() > 0.0);
    }

    #[test]
    fn execute_stage_dominates_limiting_cycles() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let dta = mixed_dta(&model);
        let ex = dta.limiting_fraction(Stage::Execute);
        assert!(ex > 0.5, "execute stage should dominate, got {ex}");
        let total: f64 = Stage::ALL.iter().map(|s| dta.limiting_fraction(*s)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mul_observed_worst_exceeds_add() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let dta = mixed_dta(&model);
        let (mul_stage, mul_worst) = dta.class_worst_case(TimingClass::Mul);
        let (_, add_worst) = dta.class_worst_case(TimingClass::Add);
        assert_eq!(mul_stage, Stage::Execute);
        assert!(mul_worst > add_worst);
        assert!(mul_worst <= model.worst_case_ps(Stage::Execute, TimingClass::Mul) + 1e-9);
    }

    #[test]
    fn observed_worst_never_exceeds_profile_worst() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let dta = mixed_dta(&model);
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                assert!(
                    dta.observed_worst_ps(stage, class) <= model.worst_case_ps(stage, class) + 1e-9,
                    "{stage}/{class}"
                );
            }
        }
    }

    #[test]
    fn mul_stage_histograms_show_execute_concentration() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let dta = mixed_dta(&model);
        let ex_hist = dta.stage_histogram(Stage::Execute, TimingClass::Mul);
        let wb_hist = dta.stage_histogram(Stage::Writeback, TimingClass::Mul);
        assert!(ex_hist.count() > 0);
        assert!(wb_hist.count() > 0);
        assert!(ex_hist.mean() > wb_hist.mean() + 300.0);
    }

    #[test]
    fn empty_trace_is_handled() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let dta = DynamicTimingAnalysis::replay_digest(&model, &TimingDigest::default());
        assert_eq!(dta.cycles(), 0);
        assert_eq!(dta.mean_cycle_delay_ps(), 0.0);
        assert_eq!(dta.genie_speedup(), 1.0);
    }

    #[test]
    fn streaming_observer_is_bit_identical_to_trace_replay() {
        // The live observer against a replay of the digest captured on the
        // same pass.
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let mut observer = DynamicTimingAnalysis::streaming(&model);
        let mut digest = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .run_observed(&mixed_program(), &mut [&mut observer, &mut digest])
            .expect("runs");
        let streamed = observer.into_analysis();
        let replayed = DynamicTimingAnalysis::replay_digest(&model, &digest.into_digest());
        assert_eq!(streamed.cycles(), replayed.cycles());
        assert_eq!(
            streamed.mean_cycle_delay_ps(),
            replayed.mean_cycle_delay_ps()
        );
        assert_eq!(streamed.max_cycle_delay_ps(), replayed.max_cycle_delay_ps());
        assert_eq!(streamed.limiting_counts(), replayed.limiting_counts());
        assert_eq!(streamed.cycle_histogram(), replayed.cycle_histogram());
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                assert_eq!(
                    streamed.observed_worst_ps(stage, class),
                    replayed.observed_worst_ps(stage, class),
                    "{stage}/{class}"
                );
                assert_eq!(
                    streamed.observations(stage, class),
                    replayed.observations(stage, class)
                );
            }
        }
    }
}
