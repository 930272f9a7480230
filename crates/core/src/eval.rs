//! Evaluation helpers: per-benchmark policy comparisons and suite-level
//! aggregation (the data behind Fig. 8 and the headline 38 % result).
//!
//! Every comparison replays a captured [`TimingDigest`]: each benchmark is
//! simulated **once**, into its digest, and [`compare_digest_policies`]
//! evaluates any number of policies against the static baseline in one
//! walk of it, with one model evaluation per cycle shared by every
//! policy's [`PolicyObserver`]. [`compare_digest`] is its one-policy call.

use crate::sim::PolicyObserver;
use crate::{ClockGenerator, ClockPolicy, RunOutcome, StaticClock};
use idca_pipeline::{CycleObserver, TimingDigest};
use idca_timing::TimingModel;
use serde::{Deserialize, Serialize};

/// The outcome of one benchmark under conventional clocking and under a
/// dynamic clock-adjustment policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Conventional (static) clocking outcome.
    pub baseline: RunOutcome,
    /// Dynamic clock-adjustment outcome.
    pub dynamic: RunOutcome,
}

impl PolicyComparison {
    /// Speedup of the dynamic policy over the static baseline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.dynamic.speedup_over(&self.baseline)
    }

    /// Effective-frequency gain in MHz.
    #[must_use]
    pub fn frequency_gain_mhz(&self) -> f64 {
        self.dynamic.effective_frequency_mhz - self.baseline.effective_frequency_mhz
    }
}

/// Compares a dynamic clock-adjustment policy against conventional static
/// clocking by replaying a pre-captured [`TimingDigest`]: one digested
/// simulation serves any number of `(model, policy, generator)`
/// evaluations with no simulator in the loop. This is the one-policy call
/// of [`compare_digest_policies`], and bit-identical to a static-baseline
/// and a dynamic [`PolicyObserver`] riding the originating simulation (the
/// digest replay is the same arithmetic).
#[must_use]
pub fn compare_digest(
    model: &TimingModel,
    benchmark: impl Into<String>,
    digest: &TimingDigest,
    policy: &dyn ClockPolicy,
    generator: &ClockGenerator,
) -> PolicyComparison {
    compare_digest_policies(model, benchmark, digest, &[(policy, generator)])
        .pop()
        .expect("one comparison per policy")
}

/// Compares every `(policy, generator)` pair against conventional static
/// clocking in **one** walk of a pre-captured [`TimingDigest`]: the model
/// is evaluated once per cycle, and that timing feeds the static baseline
/// and every policy's [`PolicyObserver`] side by side. Comparison `i`
/// belongs to `policies[i]`, and every comparison carries the same
/// baseline outcome; each is bit-identical to a [`compare_digest`] (or a
/// [`crate::replay_digest`]) of that pair alone.
#[must_use]
pub fn compare_digest_policies(
    model: &TimingModel,
    benchmark: impl Into<String>,
    digest: &TimingDigest,
    policies: &[(&dyn ClockPolicy, &ClockGenerator)],
) -> Vec<PolicyComparison> {
    let static_policy = StaticClock::of_model(model);
    let mut baseline = PolicyObserver::new(model, &static_policy, &ClockGenerator::Ideal);
    let mut dynamic: Vec<_> = policies
        .iter()
        .map(|&(policy, generator)| PolicyObserver::new(model, policy, generator))
        .collect();
    digest.for_each_cycle(|cycle, dc| {
        let timing = model.digest_cycle_timing(cycle, dc);
        baseline.observe_digest_timed(cycle, dc, &timing);
        for observer in &mut dynamic {
            observer.observe_digest_timed(cycle, dc, &timing);
        }
    });
    let summary = digest.summary();
    baseline.finish(&summary);
    let baseline = baseline.into_outcome();
    let benchmark = benchmark.into();
    dynamic
        .into_iter()
        .map(|mut observer| {
            observer.finish(&summary);
            PolicyComparison {
                benchmark: benchmark.clone(),
                baseline: baseline.clone(),
                dynamic: observer.into_outcome(),
            }
        })
        .collect()
}

/// Aggregation of [`PolicyComparison`]s over a benchmark suite (Fig. 8).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SuiteSummary {
    comparisons: Vec<PolicyComparison>,
}

impl SuiteSummary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one benchmark comparison.
    pub fn push(&mut self, comparison: PolicyComparison) {
        self.comparisons.push(comparison);
    }

    /// Folds another summary into this one and restores a canonical
    /// benchmark-name order, so sharded suite evaluations aggregate to the
    /// same summary regardless of which worker produced which slice (the
    /// suite-level counterpart of the sweep report's shard merge). Sorting
    /// is by name only — duplicate names keep their relative fold order.
    pub fn merge(&mut self, mut other: SuiteSummary) {
        self.comparisons.append(&mut other.comparisons);
        self.comparisons
            .sort_by(|a, b| a.benchmark.cmp(&b.benchmark));
    }

    /// The individual benchmark comparisons in insertion order.
    #[must_use]
    pub fn comparisons(&self) -> &[PolicyComparison] {
        &self.comparisons
    }

    /// Number of benchmarks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.comparisons.len()
    }

    /// `true` when no benchmark has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.comparisons.is_empty()
    }

    /// Arithmetic mean of the per-benchmark speedups (the paper's "on
    /// average 38 %" aggregates this way over CoreMark and BEEBS).
    #[must_use]
    pub fn mean_speedup(&self) -> f64 {
        if self.comparisons.is_empty() {
            return 1.0;
        }
        self.comparisons
            .iter()
            .map(PolicyComparison::speedup)
            .sum::<f64>()
            / self.comparisons.len() as f64
    }

    /// Geometric mean of the per-benchmark speedups.
    #[must_use]
    pub fn geometric_mean_speedup(&self) -> f64 {
        if self.comparisons.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.comparisons.iter().map(|c| c.speedup().ln()).sum();
        (log_sum / self.comparisons.len() as f64).exp()
    }

    /// Mean effective frequency under conventional clocking, in MHz.
    #[must_use]
    pub fn mean_baseline_frequency_mhz(&self) -> f64 {
        mean(
            self.comparisons
                .iter()
                .map(|c| c.baseline.effective_frequency_mhz),
        )
    }

    /// Mean effective frequency under dynamic clock adjustment, in MHz.
    #[must_use]
    pub fn mean_dynamic_frequency_mhz(&self) -> f64 {
        mean(
            self.comparisons
                .iter()
                .map(|c| c.dynamic.effective_frequency_mhz),
        )
    }

    /// Total timing violations observed across the suite (expected: zero).
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.comparisons.iter().map(|c| c.dynamic.violations).sum()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::InstructionBased;
    use idca_isa::{asm::Assembler, Program};
    use idca_pipeline::{DigestObserver, SimConfig, Simulator};
    use idca_timing::ProfileKind;

    fn loop_program(body: &str) -> Program {
        let src = format!(
            "        l.addi r3, r0, 40
             loop:   {body}
                     l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.nop  0
                     l.nop  1"
        );
        Assembler::new().assemble(&src).unwrap()
    }

    fn loop_digest(body: &str) -> TimingDigest {
        let mut capture = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .run_observed(&loop_program(body), &mut [&mut capture])
            .unwrap();
        capture.into_digest()
    }

    #[test]
    fn comparison_reports_positive_speedup() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let policy = InstructionBased::from_model(&model);
        let t = loop_digest("l.add r4, r4, r3\n l.xor r5, r4, r3");
        let cmp = compare_digest(&model, "alu-loop", &t, &policy, &ClockGenerator::Ideal);
        assert_eq!(cmp.benchmark, "alu-loop");
        assert!(cmp.speedup() > 1.2);
        assert!(cmp.frequency_gain_mhz() > 50.0);
        assert_eq!(cmp.dynamic.violations, 0);
    }

    #[test]
    fn suite_summary_aggregates_benchmarks() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let policy = InstructionBased::from_model(&model);
        let mut suite = SuiteSummary::new();
        for (name, body) in [
            ("alu", "l.add r4, r4, r3\n l.and r5, r4, r3"),
            ("mul", "l.mul r4, r3, r3\n l.mul r5, r4, r3"),
            ("mem", "l.sw 0(r0), r4\n l.lwz r5, 0(r0)"),
        ] {
            let t = loop_digest(body);
            suite.push(compare_digest(
                &model,
                name,
                &t,
                &policy,
                &ClockGenerator::Ideal,
            ));
        }
        assert_eq!(suite.len(), 3);
        assert!(suite.mean_speedup() > 1.1);
        assert!(suite.geometric_mean_speedup() <= suite.mean_speedup() + 1e-9);
        assert!(suite.mean_dynamic_frequency_mhz() > suite.mean_baseline_frequency_mhz());
        assert_eq!(suite.total_violations(), 0);
        // The multiplier-heavy loop must gain the least (its LUT entry is the
        // slowest), the pure ALU loop the most.
        let speedups: Vec<f64> = suite.comparisons().iter().map(|c| c.speedup()).collect();
        assert!(
            speedups[0] > speedups[1],
            "alu should beat mul: {speedups:?}"
        );
    }

    #[test]
    fn digest_comparison_matches_trace_comparison() {
        // The static baseline and the policy observing the live pass, against
        // a replay of the digest captured on that same pass.
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let policy = InstructionBased::from_model(&model);
        let static_policy = StaticClock::of_model(&model);
        let mut baseline = PolicyObserver::new(&model, &static_policy, &ClockGenerator::Ideal);
        let mut dynamic = PolicyObserver::new(&model, &policy, &ClockGenerator::Ideal);
        let mut capture = DigestObserver::new();
        let program = loop_program("l.mul r4, r3, r3\n l.sw 0(r0), r4\n l.lwz r5, 0(r0)");
        Simulator::new(SimConfig::default())
            .run_observed(&program, &mut [&mut baseline, &mut dynamic, &mut capture])
            .unwrap();
        let live = PolicyComparison {
            benchmark: "kernel".to_string(),
            baseline: baseline.into_outcome(),
            dynamic: dynamic.into_outcome(),
        };
        let digest = capture.into_digest();
        let via_digest = compare_digest(&model, "kernel", &digest, &policy, &ClockGenerator::Ideal);
        assert_eq!(live, via_digest);
    }

    #[test]
    fn suite_summary_merge_matches_unsharded_aggregation() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let policy = InstructionBased::from_model(&model);
        let kernels = [
            ("a_alu", "l.add r4, r4, r3\n l.and r5, r4, r3"),
            ("b_mul", "l.mul r4, r3, r3\n l.mul r5, r4, r3"),
            ("c_mem", "l.sw 0(r0), r4\n l.lwz r5, 0(r0)"),
        ];
        let mut full = SuiteSummary::new();
        for (name, body) in kernels {
            let t = loop_digest(body);
            full.push(compare_digest(
                &model,
                name,
                &t,
                &policy,
                &ClockGenerator::Ideal,
            ));
        }
        // Shard the suite in the "wrong" order and merge.
        let mut merged = SuiteSummary::new();
        for (name, body) in [kernels[2], kernels[0], kernels[1]] {
            let mut shard = SuiteSummary::new();
            let t = loop_digest(body);
            shard.push(compare_digest(
                &model,
                name,
                &t,
                &policy,
                &ClockGenerator::Ideal,
            ));
            merged.merge(shard);
        }
        assert_eq!(merged, full);
        assert_eq!(merged.mean_speedup(), full.mean_speedup());
    }

    #[test]
    fn empty_suite_is_neutral() {
        let suite = SuiteSummary::new();
        assert!(suite.is_empty());
        assert_eq!(suite.mean_speedup(), 1.0);
        assert_eq!(suite.geometric_mean_speedup(), 1.0);
        assert_eq!(suite.mean_baseline_frequency_mhz(), 0.0);
    }
}
