//! # idca-bench — experiment harness
//!
//! Shared plumbing for regenerating every table and figure of the paper's
//! evaluation section. The `repro` binary and the repository benchmark
//! (`perfbench/`) both go through the functions in this crate, so the
//! numbers they print are produced by exactly one code path.
//!
//! | Experiment | Paper | Function |
//! |---|---|---|
//! | Fig. 5 | histogram / mean of per-cycle dynamic delay | [`Experiments::fig5`] |
//! | Fig. 6 | limiting-stage shares | [`Experiments::fig6`] |
//! | Table I | critical-range max-delay factors | [`Experiments::table1`] |
//! | Table II | per-instruction worst-case delays | [`Experiments::table2`] |
//! | Fig. 7 | per-stage delay histograms of `l.mul` | [`Experiments::fig7`] |
//! | Fig. 8 | per-benchmark effective frequency | [`Experiments::fig8`] |
//! | §IV-B | voltage scaling / energy efficiency | [`Experiments::power_scaling`] |
//! | ablations | CG quantization, execute-only, profile, LUT source | [`Experiments::ablations`] |
//! | PVT outlook | Monte Carlo seeds × corners sweep | [`sweep::pvt_sweep`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use idca_core::{
    eval::{self, SuiteSummary},
    policy::{ExecuteOnly, GenieOracle, InstructionBased},
    vfs::{self, VoltageScalingResult},
    ClockGenerator, ClockPolicy, DelayLut,
};
use idca_isa::TimingClass;
use idca_pipeline::{RunSummary, SimConfig, Simulator, Stage, TimingDigest};
use idca_timing::{
    dta::DynamicTimingAnalysis, CellLibrary, Histogram, PowerModel, ProfileKind, TimingModel,
    TimingProfile,
};
use idca_workloads::{benchmark_suite, suite, suite::characterization_workload, Workload};

pub mod serve;
pub mod shard;
pub mod sweep;

pub use idca_pipeline::{FormatError, InterruptSpec, InterruptSpecError};
pub use idca_timing::{FaultPlan, FaultSpec, FaultSpecError};
pub use serve::{Corpus, CorpusError, DigestCacheStats, QueryError, ServeSession};
pub use shard::{merge_reports, MergeError, ShardSpecError, SweepShard};
pub use sweep::{
    pvt_sweep, pvt_sweep_seed_range_timed_with_cache, write_atomic, SweepConfig, SweepError,
    SweepReport, SweepTiming,
};

/// Seed used for the characterization workload throughout the harness.
pub const CHARACTERIZATION_SEED: u64 = 0xC0DE;

/// Paper reference values used in the "paper vs measured" columns.
pub mod paper {
    /// Static timing limit at 0.70 V (ps).
    pub const STATIC_PERIOD_PS: f64 = 2026.0;
    /// Mean per-cycle dynamic delay of Fig. 5 (ps).
    pub const FIG5_MEAN_PS: f64 = 1334.0;
    /// Genie-aided speedup of §IV-A (percent).
    pub const GENIE_SPEEDUP_PERCENT: f64 = 50.0;
    /// Execute-stage limiting share of Fig. 6 (percent).
    pub const FIG6_EXECUTE_PERCENT: f64 = 93.0;
    /// Address-stage limiting share of Fig. 6 (percent).
    pub const FIG6_ADDRESS_PERCENT: f64 = 7.0;
    /// Average effective frequency under conventional clocking (MHz).
    pub const FIG8_BASELINE_MHZ: f64 = 494.0;
    /// Average effective frequency with dynamic clock adjustment (MHz).
    pub const FIG8_DYNAMIC_MHZ: f64 = 680.0;
    /// Average speedup of Fig. 8 (percent).
    pub const FIG8_SPEEDUP_PERCENT: f64 = 38.0;
    /// Conventional-clocking energy efficiency (µW/MHz).
    pub const POWER_BASELINE_UW_PER_MHZ: f64 = 13.7;
    /// Voltage-scaled energy efficiency (µW/MHz).
    pub const POWER_SCALED_UW_PER_MHZ: f64 = 11.0;
    /// Supply-voltage reduction (mV).
    pub const POWER_VOLTAGE_REDUCTION_MV: f64 = 70.0;
    /// Energy-efficiency improvement (percent).
    pub const POWER_GAIN_PERCENT: f64 = 24.0;

    /// Table I rows published in the paper: (class label, factor).
    pub const TABLE1: [(&str, f64); 7] = [
        ("l.add(i)", 0.92),
        ("l.bf", 0.78),
        ("l.j", 0.74),
        ("l.lwz", 0.85),
        ("l.mul", 1.10),
        ("l.nop", 0.78),
        ("l.sw", 0.85),
    ];

    /// Table II rows published in the paper: (class label, delay ps, stage).
    pub const TABLE2: [(&str, f64, &str); 8] = [
        ("l.add(i)", 1467.0, "EX"),
        ("l.and(i)", 1482.0, "EX"),
        ("l.bf", 1470.0, "EX"),
        ("l.j", 1172.0, "ADR"),
        ("l.lwz", 1391.0, "EX"),
        ("l.mul", 1899.0, "EX"),
        ("l.sll(i)", 1270.0, "EX"),
        ("l.xor", 1514.0, "EX"),
    ];
}

/// Result of the Fig. 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Mean of the per-cycle maximum dynamic delay (ps).
    pub mean_delay_ps: f64,
    /// Static timing limit (ps).
    pub static_period_ps: f64,
    /// Genie-aided speedup in percent.
    pub genie_speedup_percent: f64,
    /// The delay histogram (25 ps bins).
    pub histogram: Histogram,
}

/// One row of the Fig. 6 experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Pipeline stage.
    pub stage: Stage,
    /// Fraction of cycles in which this stage owned the limiting path (%).
    pub percent: f64,
}

/// One row of the Table I experiment.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Instruction class.
    pub class: TimingClass,
    /// Measured `optimized / conventional` worst-case delay factor.
    pub factor: f64,
    /// Paper value, when the class appears in the paper's excerpt.
    pub paper: Option<f64>,
}

/// One row of the Fig. 7 experiment (per-stage `l.mul` delay statistics).
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Pipeline stage.
    pub stage: Stage,
    /// Number of cycles `l.mul` occupied the stage.
    pub observations: u64,
    /// Mean dynamic delay (ps).
    pub mean_ps: f64,
    /// Maximum dynamic delay (ps).
    pub max_ps: f64,
}

/// One row of the Fig. 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Effective frequency under conventional clocking (MHz).
    pub static_mhz: f64,
    /// Effective frequency with instruction-based adjustment (MHz).
    pub dynamic_mhz: f64,
    /// Speedup in percent.
    pub speedup_percent: f64,
}

/// Ablation study results (design-choice sensitivity).
#[derive(Debug, Clone)]
pub struct Ablations {
    /// Mean suite speedup (%) with the ideal clock generator.
    pub ideal_cg_percent: f64,
    /// Mean suite speedup (%) with a 50 ps-quantized clock generator.
    pub quantized_cg_percent: f64,
    /// Mean suite speedup (%) with an 8-level discrete clock generator.
    pub discrete_cg_percent: f64,
    /// Mean suite speedup (%) when only the execute stage is monitored.
    pub execute_only_percent: f64,
    /// Mean suite speedup (%) on the conventional (timing-wall) profile.
    pub conventional_profile_percent: f64,
    /// Mean suite speedup (%) with the genie-aided oracle.
    pub genie_percent: f64,
    /// Violations across the suite when the LUT is built from a short
    /// (truncated) characterization instead of the full one.
    pub truncated_lut_violations: u64,
}

/// Pre-computed state shared by all experiments: the timing models, the
/// characterization run totals, its DTA, the extracted delay LUT and the
/// pre-assembled benchmark suite.
pub struct Experiments {
    /// Timing model of the critical-range-optimized core at 0.70 V.
    pub model: TimingModel,
    /// Timing model of the conventional (timing-wall) core at 0.70 V.
    pub conventional: TimingModel,
    /// The characterized cell library.
    pub library: CellLibrary,
    /// The activity-based power model.
    pub power: PowerModel,
    /// Run totals (cycles, retired instructions) of the characterization
    /// workload, as its digest records them.
    pub characterization: RunSummary,
    /// DTA of the characterization run on the optimized core: a replay of
    /// [`Experiments::characterization_digest`].
    pub dta: DynamicTimingAnalysis,
    /// Timing digest of the characterization run. The DTA above replays it,
    /// and re-characterizing against a different model (profile, voltage,
    /// corner, a truncated run) replays it through
    /// [`DynamicTimingAnalysis::replay_digest`] instead of re-simulating.
    pub characterization_digest: TimingDigest,
    /// Timing digests of the Fig. 8 suite, one per [`Experiments::suite`]
    /// entry: every benchmark is simulated exactly once, here; all policy
    /// evaluations (Fig. 8, every ablation) are digest replays.
    pub suite_digests: Vec<TimingDigest>,
    /// Raw delay LUT extracted from the characterization (min. 8
    /// observations) — this is what Table II reports.
    pub raw_lut: DelayLut,
    /// The LUT actually deployed by the clock-adjustment policies: the raw
    /// characterization entries plus a 1.5 % guardband covering data
    /// conditions the characterization stimuli did not produce.
    pub lut: DelayLut,
    /// The assembled Fig. 8 benchmark suite (assembled once, in parallel).
    pub suite: Vec<Workload>,
}

impl Experiments {
    /// Runs the characterization flow once and prepares everything the
    /// individual experiments need. Every workload is simulated exactly
    /// once, here, through the sweep's fused digest capture, in one parallel
    /// pass over 15 tasks: task 0 builds the characterization program,
    /// captures it and replays its digest into the DTA, and tasks 1–14
    /// capture the kernels of the suite, which is assembled first. The
    /// runner hands tasks out in index order, so the longest task, the
    /// characterization, starts at once and the suite fills the other
    /// workers. Nothing is evaluated live: the DTA replays the
    /// characterization digest, and the experiments themselves (Fig. 8 and
    /// every ablation) replay the suite digests. No `CycleRecord` is built
    /// for a basic-block interior.
    #[must_use]
    pub fn prepare() -> Self {
        let library = CellLibrary::fdsoi28();
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let conventional = TimingModel::at_nominal(ProfileKind::Conventional);
        let power = PowerModel::new(library.clone());
        let simulator = Simulator::new(SimConfig::default());
        let capture = |workload: &Workload| {
            sweep::digest_program(&simulator, &workload.program)
                .unwrap_or_else(|e| panic!("{} runs: {e}", workload.name))
                .0
        };
        let suite = benchmark_suite();
        // Task 0 (`None`) is the characterization. One flat map: a `join`
        // around nested maps would start a second set of workers.
        let tasks: Vec<_> = [None].into_iter().chain(suite.iter().map(Some)).collect();
        let mut captured = suite::par_map(&tasks, |task| match task {
            None => {
                let digest = capture(&characterization_workload(CHARACTERIZATION_SEED));
                let dta = DynamicTimingAnalysis::replay_digest(&model, &digest);
                (digest, Some(dta))
            }
            Some(workload) => (capture(workload), None),
        })
        .into_iter();
        let Some((characterization_digest, Some(dta))) = captured.next() else {
            unreachable!("task 0 captures the characterization and replays its DTA")
        };
        let suite_digests = captured.map(|(digest, _)| digest).collect();
        let characterization = characterization_digest.summary();
        let raw_lut = DelayLut::from_dta(&dta, 8);
        let lut = raw_lut.with_guardband(0.015);
        Experiments {
            model,
            conventional,
            library,
            power,
            characterization,
            dta,
            characterization_digest,
            suite_digests,
            raw_lut,
            lut,
            suite,
        }
    }

    /// Fig. 5: per-cycle dynamic-delay distribution and the genie bound.
    #[must_use]
    pub fn fig5(&self) -> Fig5 {
        Fig5 {
            mean_delay_ps: self.dta.mean_cycle_delay_ps(),
            static_period_ps: self.dta.static_period_ps(),
            genie_speedup_percent: (self.dta.genie_speedup() - 1.0) * 100.0,
            histogram: self.dta.cycle_histogram().clone(),
        }
    }

    /// Fig. 6: share of cycles in which each stage owns the limiting path.
    #[must_use]
    pub fn fig6(&self) -> Vec<Fig6Row> {
        Stage::ALL
            .iter()
            .map(|&stage| Fig6Row {
                stage,
                percent: self.dta.limiting_fraction(stage) * 100.0,
            })
            .collect()
    }

    /// Table I: optimized-vs-conventional worst-case delay factors.
    #[must_use]
    pub fn table1(&self) -> Vec<Table1Row> {
        TimingClass::INSTRUCTION_CLASSES
            .iter()
            .map(|&class| {
                let factor = TimingProfile::max_delay_factor(class);
                let paper = paper::TABLE1
                    .iter()
                    .find(|(label, _)| *label == class.label())
                    .map(|(_, f)| *f);
                Table1Row {
                    class,
                    factor,
                    paper,
                }
            })
            .collect()
    }

    /// Table II: per-instruction worst-case dynamic delays from the
    /// characterization LUT (raw observed values, no guardband).
    #[must_use]
    pub fn table2(&self) -> Vec<idca_core::Table2Row> {
        self.raw_lut.table2_rows()
    }

    /// Fig. 7: per-stage dynamic-delay statistics of the `l.mul` class.
    #[must_use]
    pub fn fig7(&self) -> Vec<Fig7Row> {
        Stage::ALL
            .iter()
            .map(|&stage| {
                let hist = self.dta.stage_histogram(stage, TimingClass::Mul);
                Fig7Row {
                    stage,
                    observations: hist.count(),
                    mean_ps: hist.mean(),
                    max_ps: if hist.count() == 0 {
                        0.0
                    } else {
                        hist.observed_max()
                    },
                }
            })
            .collect()
    }

    /// Fig. 8: per-benchmark effective clock frequency under conventional
    /// clocking and under instruction-based dynamic clock adjustment.
    #[must_use]
    pub fn fig8(&self) -> (Vec<Fig8Row>, SuiteSummary) {
        self.fig8_with(
            &InstructionBased::new(self.lut.clone()),
            &ClockGenerator::Ideal,
        )
    }

    /// Fig. 8 with an arbitrary policy / clock generator: the one-policy
    /// case of the suite evaluation the ablations share.
    ///
    /// No benchmark is re-simulated: each policy pair replays the digests
    /// captured once in [`Experiments::prepare`] (bit-identical to a live
    /// pass), in parallel across workloads.
    #[must_use]
    pub fn fig8_with(
        &self,
        policy: &dyn ClockPolicy,
        generator: &ClockGenerator,
    ) -> (Vec<Fig8Row>, SuiteSummary) {
        self.suite_summaries_with(&self.model, &[(policy, generator)])
            .pop()
            .expect("one summary per policy")
    }

    /// Parallel digest-replay suite evaluation of every `(policy,
    /// generator)` pair against an arbitrary model, in one walk per suite
    /// digest ([`eval::compare_digest_policies`]); entry `i` belongs to
    /// `policies[i]`. The digests are model-independent (they capture
    /// architecture and path excitation, not delays), so the same captured
    /// suite serves the optimized profile, the conventional profile and any
    /// varied corner — profile sweeps never re-simulate.
    fn suite_summaries_with(
        &self,
        model: &TimingModel,
        policies: &[(&dyn ClockPolicy, &ClockGenerator)],
    ) -> Vec<(Vec<Fig8Row>, SuiteSummary)> {
        let indices: Vec<usize> = (0..self.suite.len()).collect();
        let per_benchmark = suite::par_map(&indices, |&i| {
            eval::compare_digest_policies(
                model,
                self.suite[i].name.clone(),
                &self.suite_digests[i],
                policies,
            )
        });
        let mut results = vec![(Vec::new(), SuiteSummary::new()); policies.len()];
        for comparisons in per_benchmark {
            for (comparison, (rows, summary)) in comparisons.into_iter().zip(&mut results) {
                rows.push(Fig8Row {
                    benchmark: comparison.benchmark.clone(),
                    static_mhz: comparison.baseline.effective_frequency_mhz,
                    dynamic_mhz: comparison.dynamic.effective_frequency_mhz,
                    speedup_percent: (comparison.speedup() - 1.0) * 100.0,
                });
                summary.push(comparison);
            }
        }
        results
    }

    /// §IV-B: iso-throughput voltage scaling on a representative benchmark
    /// (the kernel whose speedup sits at the median of the Fig. 8 suite).
    /// No benchmark is re-simulated: each candidate operating point replays
    /// the digest captured in [`Experiments::prepare`], walking downward
    /// from nominal and stopping at the first infeasible voltage, so the
    /// result equals [`vfs::scale_for_iso_throughput`] on the live trace.
    #[must_use]
    pub fn power_scaling(&self) -> VoltageScalingResult {
        let index = self
            .suite
            .iter()
            .position(|w| w.name == "beebs_dijkstra")
            .expect("beebs_dijkstra exists");
        vfs::scale_for_iso_throughput_digest(
            ProfileKind::CriticalRangeOptimized,
            &self.library,
            &self.power,
            &self.suite_digests[index],
            &|model: &TimingModel| {
                Box::new(InstructionBased::new(
                    self.lut.scaled(model.operating_point().delay_scale),
                ))
            },
            &ClockGenerator::Ideal,
        )
        .expect("a feasible operating point exists")
    }

    /// Ablation studies over the paper's design choices: clock-generator
    /// quantization, execute-only monitoring, the genie bound, the
    /// conventional (timing-wall) profile and the characterization length
    /// behind the LUT.
    ///
    /// Two suite evaluations serve them all: the six optimized-model
    /// policies share one walk per suite digest, and the conventional
    /// profile, a second model, takes a second.
    #[must_use]
    pub fn ablations(&self) -> Ablations {
        let lut_policy = InstructionBased::new(self.lut.clone());
        let exec_policy = ExecuteOnly::new(self.lut.clone());
        let genie_policy = GenieOracle::new(self.model.clone());
        // LUT built from a deliberately short characterization: count how
        // many violations slip through on the full suite. The truncated
        // characterization is a digest replay of the first 500 cycles of
        // the pass captured in `prepare` — bit-identical to characterizing
        // only those cycles live, with no simulator in the loop.
        let short_dta = DynamicTimingAnalysis::replay_digest(
            &self.model,
            &self.characterization_digest.truncated(500),
        );
        let short_lut_policy = InstructionBased::new(DelayLut::from_dta(&short_dta, 1));
        let ideal = ClockGenerator::Ideal;
        let optimized = self.suite_summaries_with(
            &self.model,
            &[
                (&lut_policy, &ideal),
                (&lut_policy, &ClockGenerator::quantized_50ps()),
                (&lut_policy, &ClockGenerator::discrete(8, 900.0, 2100.0)),
                (&exec_policy, &ideal),
                (&genie_policy, &ideal),
                (&short_lut_policy, &ideal),
            ],
        );
        let [ideal_cg, quantized_cg, discrete_cg, execute_only, genie, truncated_lut] =
            <[_; 6]>::try_from(optimized)
                .expect("one summary per policy")
                .map(|(_, summary)| summary);

        // Conventional (timing-wall) profile: both the baseline and the LUT
        // come from the conventional implementation.
        let conventional_policy = InstructionBased::from_model(&self.conventional);
        let (_, conventional) = self
            .suite_summaries_with(&self.conventional, &[(&conventional_policy, &ideal)])
            .pop()
            .expect("one summary per policy");

        let percent = |s: &SuiteSummary| (s.mean_speedup() - 1.0) * 100.0;
        Ablations {
            ideal_cg_percent: percent(&ideal_cg),
            quantized_cg_percent: percent(&quantized_cg),
            discrete_cg_percent: percent(&discrete_cg),
            execute_only_percent: percent(&execute_only),
            conventional_profile_percent: percent(&conventional),
            genie_percent: percent(&genie),
            truncated_lut_violations: truncated_lut.total_violations(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_prepare_and_fig5_is_sane() {
        let exp = Experiments::prepare();
        let fig5 = exp.fig5();
        assert!(fig5.mean_delay_ps < fig5.static_period_ps);
        assert!(fig5.genie_speedup_percent > 20.0);
        assert!(fig5.histogram.count() > 5_000);
        let fig6 = exp.fig6();
        let total: f64 = fig6.iter().map(|r| r.percent).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn prepare_equals_a_live_reference_pass() {
        use idca_pipeline::DigestObserver;
        let exp = Experiments::prepare();
        let simulator = Simulator::new(SimConfig::default());

        // The DTA and run totals: a streaming DTA riding the reference view.
        let workload = characterization_workload(CHARACTERIZATION_SEED);
        let mut live = DynamicTimingAnalysis::streaming(&exp.model);
        let mut digest = DigestObserver::new();
        let run = simulator
            .run_observed_reference(&workload.program, &mut [&mut live, &mut digest])
            .expect("characterization runs");
        assert_eq!(exp.characterization, run.summary);
        assert_eq!(
            exp.characterization_digest.to_bytes(),
            digest.into_digest().to_bytes()
        );
        let (live, dta) = (live.into_analysis(), &exp.dta);
        assert_eq!(dta.cycles(), live.cycles());
        assert_eq!(dta.mean_cycle_delay_ps(), live.mean_cycle_delay_ps());
        assert_eq!(dta.max_cycle_delay_ps(), live.max_cycle_delay_ps());
        assert_eq!(dta.limiting_counts(), live.limiting_counts());
        assert_eq!(dta.cycle_histogram(), live.cycle_histogram());
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                let at = format!("{stage}/{class}");
                assert_eq!(
                    dta.observed_worst_ps(stage, class),
                    live.observed_worst_ps(stage, class),
                    "{at}"
                );
                assert_eq!(
                    dta.observations(stage, class),
                    live.observations(stage, class),
                    "{at}"
                );
                assert_eq!(
                    dta.stage_histogram(stage, class),
                    live.stage_histogram(stage, class),
                    "{at}"
                );
            }
        }

        // Every suite digest: an unhinted capture on the reference view.
        let reference = suite::par_map(&exp.suite, |workload| {
            let mut digest = DigestObserver::new();
            simulator
                .run_observed_reference(&workload.program, &mut [&mut digest])
                .expect("benchmark runs");
            digest.into_digest().to_bytes()
        });
        assert_eq!(exp.suite_digests.len(), reference.len());
        for ((workload, digest), reference) in
            exp.suite.iter().zip(&exp.suite_digests).zip(reference)
        {
            assert_eq!(digest.to_bytes(), reference, "{}", workload.name);
        }
    }

    #[test]
    fn digest_replayed_power_scaling_equals_the_trace_scan() {
        let exp = Experiments::prepare();
        let workload = exp
            .suite
            .iter()
            .find(|w| w.name == "beebs_dijkstra")
            .expect("beebs_dijkstra exists");
        let trace = Simulator::new(SimConfig::default())
            .run(&workload.program)
            .expect("beebs_dijkstra runs")
            .trace;
        let oracle = vfs::scale_for_iso_throughput(
            ProfileKind::CriticalRangeOptimized,
            &exp.library,
            &exp.power,
            &trace,
            &|model: &TimingModel| {
                Box::new(InstructionBased::new(
                    exp.lut.scaled(model.operating_point().delay_scale),
                ))
            },
            &ClockGenerator::Ideal,
        )
        .expect("a feasible operating point exists");
        assert!(oracle.voltage_reduction_mv > 0, "{oracle:?}");
        assert_eq!(exp.power_scaling(), oracle);
    }
}
