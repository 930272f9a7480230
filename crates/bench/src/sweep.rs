//! The Monte Carlo PVT sweep engine — simulate once, evaluate many.
//!
//! The paper's evaluation fixes one timing corner and 14 kernels; its
//! conclusion claims the technique survives process/voltage/temperature
//! variation via online LUT updating. This module tests that claim at
//! scale: `N` seed-generated programs ([`idca_gen`]) × `M` sampled PVT
//! corners ([`idca_timing::VariationModel`]).
//!
//! Architectural execution does not depend on the PVT corner, so the sweep
//! runs in **two phases**:
//!
//! 1. **Simulate** (`O(N)`): each seed's program is simulated exactly once
//!    (parallel over seeds, worker-local [`SimBuffers`] scratch), with a
//!    [`DigestObserver`] capturing the run's [`TimingDigest`] — the
//!    compact, replayable timing view of every cycle. With a digest cache
//!    directory configured, digests are loaded from disk instead (keyed by
//!    `(program seed, generator-config hash, simulator version)`), so
//!    repeat sweeps skip this phase entirely.
//! 2. **Replay** (`O(N)` corner-batched digest walks): the sweep is
//!    sharded into `N` per-seed jobs. Each job walks its digest **once** —
//!    one pool decode per RLE run-block (on pooled digests nearly every
//!    run-block is a single cycle), one set of corner-invariant policy
//!    decisions and one batched dither kernel per cycle — and evaluates
//!    every cycle against **all** `M` corners at once through the
//!    vectorized [`CornerBank`] lanes. The evaluated cycle stays in
//!    structure-of-arrays form end to end: the shared delay/max lanes feed
//!    three [`PolicyBank`]s (static baseline, margin-guarded
//!    instruction-based and execute-only) and all `M` online-learning
//!    adaptive controllers folded through one SoA [`AdaptiveBank`] — with
//!    no pipeline simulator, no per-corner `CycleTiming` structs and no
//!    per-corner scalar state in the loop.
//!
//! The banked replay is bit-identical to live observation
//! ([`pvt_sweep_direct`], the retained single-phase oracle that simulates
//! every `(seed, corner)` job with the scalar observers riding along) —
//! pinned by the digest-equivalence property tests and the unit tests
//! here — so the report is byte-for-byte the same as the original
//! `N×M`-simulations engine while doing a fraction of the work.
//!
//! Determinism is load-bearing: programs and corners are hash-derived from
//! the master seed, workers are stateless, and [`SweepReport::merge`] sorts
//! by `(seed, corner)` — so the rendered report is byte-identical across
//! thread counts, shards and repeated runs (proven by the golden-output
//! tests).

use idca_core::{
    policy::{ExecuteOnly, InstructionBased, StaticClock},
    AdaptiveBank, AdaptiveConfig, AdaptiveObserver, ClockGenerator, ClockPolicy, DelayLut, Drift,
    PolicyBank, PolicyObserver,
};
use idca_gen::{generate_program, nth_seed, GenConfig};
use idca_isa::Program;
use idca_pipeline::frame::{FormatError, Reader};
use idca_pipeline::{
    CycleObserver, CycleRecord, DigestObserver, InterruptPlan, InterruptSpec, IrqPhase,
    PipelineError, PredecodedProgram, SimBuffers, SimConfig, Simulator, TimingDigest,
    SIMULATOR_VERSION,
};
use idca_timing::{
    CornerBank, FaultPlan, FaultSpec, IrqTimeline, Perturbation, ProfileKind, Ps, PvtCorner,
    TimingModel, VariationModel,
};
use idca_workloads::suite::par_map;
use std::cell::RefCell;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Names of the policies evaluated per job, in report order.
pub const SWEEP_POLICIES: [&str; 4] = ["static", "instruction-based", "execute-only", "adaptive"];

/// The sweep's clock-generator model with a `'static` lifetime, so
/// worker-local replay scratch (whose banks borrow their generator) can
/// outlive any single job.
static IDEAL_GENERATOR: ClockGenerator = ClockGenerator::Ideal;

/// Configuration of one Monte Carlo PVT sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of generated programs (`N` seeds).
    pub seeds: u32,
    /// Number of sampled PVT corners (`M`).
    pub corners: u32,
    /// Master seed: programs, corners and every report number derive from
    /// this single value.
    pub master_seed: u64,
    /// Program-generator configuration shared by all seeds.
    pub gen: GenConfig,
    /// The PVT variation distribution corners are sampled from.
    pub variation: VariationModel,
    /// Per-program simulated-cycle budget. A seed whose program does not
    /// reach the exit marker within this many cycles fails its sweep with a
    /// structured [`SweepError::JobFailed`] naming the seed and the limit —
    /// never a panic. Not part of the digest-cache key: the limit can only
    /// abort a simulation, not change a completed digest.
    pub max_cycles: u64,
    /// Optional deterministic fault injection: when set, every replay
    /// perturbs each cycle's timing through a [`FaultPlan`] seeded from
    /// this spec and scores violations under its recovery model. Not part
    /// of the digest-cache key: faults perturb the *timing evaluation* of
    /// a digest, never the digested execution itself, so one cached digest
    /// serves every fault scenario.
    pub faults: Option<FaultSpec>,
    /// Optional asynchronous-event scenario: when set (and
    /// [`InterruptSpec::active`]), every program runs with the interrupt
    /// handler attached and the storm/timer raising per the spec. Unlike
    /// faults, interrupts change the *digested execution itself* (handler
    /// cycles, flush bubbles, MMIO traffic), so the spec's fingerprint IS
    /// part of the digest-cache key and of the shard-merge identity.
    pub interrupts: Option<InterruptSpec>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seeds: 32,
            corners: 4,
            master_seed: 0xC0DE,
            gen: GenConfig::default(),
            variation: VariationModel::default(),
            max_cycles: SimConfig::default().max_cycles,
            faults: None,
            interrupts: None,
        }
    }
}

impl SweepConfig {
    /// Rejects degenerate sweep shapes before any work is scheduled: a
    /// sweep with `seeds == 0` or `corners == 0` has no jobs, and silently
    /// returning an empty report would mask a mis-built config (a CLI or
    /// orchestration bug) as a successful sweep. Every engine validates
    /// first and surfaces [`SweepError::InvalidConfig`] naming the field.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::InvalidConfig`] when `seeds` or `corners`
    /// is zero.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.seeds == 0 {
            return Err(SweepError::InvalidConfig { field: "seeds" });
        }
        if self.corners == 0 {
            return Err(SweepError::InvalidConfig { field: "corners" });
        }
        Ok(())
    }

    /// The normalized interrupt scenario: a spec that cannot raise anything
    /// (`rate == 0 && timer == 0`) is treated exactly like `None`
    /// everywhere — no handler is attached (attaching one would perturb the
    /// program image), no cache-key suffix, no report columns.
    #[must_use]
    pub fn active_interrupts(&self) -> Option<InterruptSpec> {
        self.interrupts.filter(InterruptSpec::active)
    }
}

/// Structured failure of a sweep (or one of its shards). The sweep engines
/// return this instead of panicking: one pathological seed must fail only
/// its own run — with enough context to reproduce it — not abort a whole
/// sharded fleet with a worker panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SweepError {
    /// One `(seed)` job's simulation failed (cycle-limit overrun, memory
    /// fault, ...). Carries the sweep-local seed index, the derived program
    /// seed and the underlying pipeline error so the exact program can be
    /// regenerated and debugged in isolation.
    JobFailed {
        /// Index of the failing seed within the sweep.
        seed_index: u32,
        /// The derived program-generator seed of the failing job.
        program_seed: u64,
        /// What the pipeline reported (names the cycle limit on overrun).
        error: PipelineError,
    },
    /// The sweep configuration is degenerate: a shape field that must be
    /// at least 1 is zero, so the sweep would have no jobs at all. Rejected
    /// up front (see [`SweepConfig::validate`]) instead of returning an
    /// empty report that hides the mis-configuration.
    InvalidConfig {
        /// Name of the rejected [`SweepConfig`] field.
        field: &'static str,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::JobFailed {
                seed_index,
                program_seed,
                error,
            } => write!(
                f,
                "sweep job for seed index {seed_index} (program seed {program_seed:#x}) failed: {error}"
            ),
            SweepError::InvalidConfig { field } => write!(
                f,
                "invalid sweep config: `{field}` must be at least 1 (a zero-{field} sweep has no jobs)"
            ),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::JobFailed { error, .. } => Some(error),
            SweepError::InvalidConfig { .. } => None,
        }
    }
}

/// Outcome of one policy on one `(program, corner)` job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyJobOutcome {
    /// Cycles whose realized period undercut the actual (corner-scaled)
    /// dynamic delay.
    pub violations: u64,
    /// The subset of `violations` that hit during exception-entry cycles,
    /// when the entry delay surge is in effect (0 interrupt-free).
    pub entry_violations: u64,
    /// Effective clock frequency in MHz.
    pub mhz: f64,
    /// Cycles spent at the safe static period while adaptive entries warmed
    /// up (0 for non-adaptive policies).
    pub warmup_cycles: u64,
    /// Violating cycles caught by the fault plan's detection window and
    /// repaired by replay (0 without a fault plan).
    pub recovered_cycles: u64,
    /// Total replay cycles charged for the recovered violations.
    pub replay_penalty_cycles: u64,
    /// Violating cycles that escaped detection: silent-corruption risk.
    pub silent_risk_cycles: u64,
    /// Effective frequency in MHz after charging the replay penalty time
    /// (bit-equal to `mhz` when nothing was recovered).
    pub recovery_mhz: f64,
}

/// Outcome of one `(program, corner)` job: the static baseline plus every
/// dynamic policy, all measured on the same simulation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepJobOutcome {
    /// Index of the program seed within the sweep.
    pub seed_index: u32,
    /// Index of the PVT corner within the sweep.
    pub corner_index: u32,
    /// Simulated cycles of the generated program.
    pub cycles: u64,
    /// Interrupt entries taken during the job's run (0 interrupt-free).
    /// Corner-invariant — interrupts are architectural — so every corner of
    /// one seed repeats the seed's count, exactly like `cycles`.
    pub irq_entries: u64,
    /// Cycles spent in exception entry or handler code (0 interrupt-free).
    pub irq_handler_cycles: u64,
    /// Per-policy outcomes in [`SWEEP_POLICIES`] order (the static baseline
    /// is entry 0; speedups are measured against it).
    pub policies: [PolicyJobOutcome; SWEEP_POLICIES.len()],
}

impl SweepJobOutcome {
    fn speedup(&self, policy: usize) -> f64 {
        let baseline = self.policies[0].mhz;
        if baseline == 0.0 {
            1.0
        } else {
            self.policies[policy].mhz / baseline
        }
    }

    /// Speedup over the static baseline on the recovery-charged
    /// frequencies: what the policy actually delivers once every detected
    /// violation has paid its replay penalty.
    fn effective_speedup(&self, policy: usize) -> f64 {
        let baseline = self.policies[0].recovery_mhz;
        if baseline == 0.0 {
            1.0
        } else {
            self.policies[policy].recovery_mhz / baseline
        }
    }
}

/// Aggregated, mergeable result of a (possibly sharded) PVT sweep.
///
/// A report holds the per-job outcomes; quantiles and rates are computed at
/// render time. [`SweepReport::merge`] concatenates two shards and restores
/// the canonical `(seed, corner)` order, so folding order — and therefore
/// thread count — cannot influence the rendered bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Number of program seeds the full sweep was configured with.
    pub seeds: u32,
    /// Number of PVT corners the full sweep was configured with.
    pub corners: u32,
    /// The master seed.
    pub master_seed: u64,
    /// The LUT guardband fraction covering every samplable corner.
    pub margin: f64,
    /// The fault-injection spec this sweep ran under (`None` = the
    /// steady-state sweep). Part of the report identity: shards can only
    /// merge when they ran the same fault scenario.
    pub faults: Option<FaultSpec>,
    /// The interrupt scenario this sweep ran under (`None` = interrupt-free,
    /// including a configured-but-inactive spec). Part of the report
    /// identity: interrupts change the digested execution, so mixed-scenario
    /// shard merges are rejected.
    pub interrupts: Option<InterruptSpec>,
    /// The sampled corners (corner index order).
    pub corner_samples: Vec<PvtCorner>,
    /// Per-job outcomes in canonical `(seed, corner)` order.
    pub jobs: Vec<SweepJobOutcome>,
}

impl SweepReport {
    /// Creates an empty report shell for a sweep configuration.
    #[must_use]
    pub fn empty(config: &SweepConfig, corner_samples: Vec<PvtCorner>) -> Self {
        SweepReport {
            seeds: config.seeds,
            corners: config.corners,
            master_seed: config.master_seed,
            margin: config.variation.margin(),
            faults: config.faults,
            interrupts: config.active_interrupts(),
            corner_samples,
            jobs: Vec::new(),
        }
    }

    /// Folds another shard into this report and restores canonical job
    /// order. Merging is commutative and associative up to the final sort,
    /// so any sharding of the job space produces the same report.
    pub fn merge(&mut self, mut other: SweepReport) {
        self.jobs.append(&mut other.jobs);
        self.jobs
            .sort_by_key(|job| (job.seed_index, job.corner_index));
    }

    /// Total simulated cycles across all jobs.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.cycles).sum()
    }

    /// Total violation count of one policy (by [`SWEEP_POLICIES`] index).
    #[must_use]
    pub fn violations(&self, policy: usize) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.policies[policy].violations)
            .sum()
    }

    /// Fraction of simulated cycles a policy violated.
    #[must_use]
    pub fn violation_rate(&self, policy: usize) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.violations(policy) as f64 / cycles as f64
        }
    }

    /// Total exception-entry violation count of one policy (by
    /// [`SWEEP_POLICIES`] index) — violations that hit while the entry
    /// surge was in effect. Always 0 on an interrupt-free sweep.
    #[must_use]
    pub fn entry_violations(&self, policy: usize) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.policies[policy].entry_violations)
            .sum()
    }

    /// Total interrupt entries across all jobs. Like
    /// [`total_cycles`](Self::total_cycles), every corner of a seed repeats
    /// the seed's (corner-invariant) count, so this scales with the job
    /// count.
    #[must_use]
    pub fn irq_entries(&self) -> u64 {
        self.jobs.iter().map(|j| j.irq_entries).sum()
    }

    /// Total cycles spent in exception entry or handler code across all
    /// jobs (same per-job accounting convention as
    /// [`irq_entries`](Self::irq_entries)).
    #[must_use]
    pub fn irq_handler_cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.irq_handler_cycles).sum()
    }

    /// Number of jobs in which a policy violated at least once.
    #[must_use]
    pub fn violating_jobs(&self, policy: usize) -> u32 {
        self.jobs
            .iter()
            .filter(|j| j.policies[policy].violations > 0)
            .count() as u32
    }

    /// The per-job speedup samples of one policy over the static baseline,
    /// in canonical job order.
    #[must_use]
    pub fn speedups(&self, policy: usize) -> Vec<f64> {
        self.jobs.iter().map(|j| j.speedup(policy)).collect()
    }

    /// Total recovered (detected-and-replayed) violation cycles of one
    /// policy.
    #[must_use]
    pub fn recovered(&self, policy: usize) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.policies[policy].recovered_cycles)
            .sum()
    }

    /// Total replay-penalty cycles one policy was charged for recovery.
    #[must_use]
    pub fn replay_penalty(&self, policy: usize) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.policies[policy].replay_penalty_cycles)
            .sum()
    }

    /// Total silent-corruption-risk cycles of one policy (violations that
    /// escaped the detection window).
    #[must_use]
    pub fn silent_risk(&self, policy: usize) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.policies[policy].silent_risk_cycles)
            .sum()
    }

    /// The per-job *effective* speedup samples of one policy — speedup over
    /// the static baseline on the recovery-charged frequencies — in
    /// canonical job order.
    #[must_use]
    pub fn effective_speedups(&self, policy: usize) -> Vec<f64> {
        self.jobs
            .iter()
            .map(|j| j.effective_speedup(policy))
            .collect()
    }

    /// Fraction of adaptive cycles spent warming up at the static period.
    #[must_use]
    pub fn adaptive_warmup_fraction(&self) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            return 0.0;
        }
        let warmup: u64 = self.jobs.iter().map(|j| j.policies[3].warmup_cycles).sum();
        warmup as f64 / cycles as f64
    }

    /// Per-job convergence ratio of the adaptive controller: its effective
    /// frequency relative to the pre-characterized instruction-based policy
    /// on the same job (1.0 = the online-learned LUT fully recovered the
    /// characterized gain).
    #[must_use]
    pub fn adaptive_recovery(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .map(|j| {
                if j.policies[1].mhz == 0.0 {
                    1.0
                } else {
                    j.policies[3].mhz / j.policies[1].mhz
                }
            })
            .collect()
    }

    /// Renders the stable, machine-readable `key=value` report. All numbers
    /// are fixed-precision and derived only from the master seed, so the
    /// output is byte-identical across runs, thread counts and shardings.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line("pvt_sweep.version=1".to_string());
        line(format!("pvt_sweep.master_seed={}", self.master_seed));
        line(format!("pvt_sweep.seeds={}", self.seeds));
        line(format!("pvt_sweep.corners={}", self.corners));
        line(format!("pvt_sweep.jobs={}", self.jobs.len()));
        line(format!("pvt_sweep.margin_frac={:.6}", self.margin));
        if let Some(spec) = &self.faults {
            line(format!("pvt_sweep.faults={}", spec.describe()));
        }
        if let Some(spec) = &self.interrupts {
            line(format!("pvt_sweep.interrupts={}", spec.describe()));
        }
        line(format!("pvt_sweep.total_cycles={}", self.total_cycles()));
        if self.interrupts.is_some() {
            line(format!("irq.entries={}", self.irq_entries()));
            line(format!("irq.handler_cycles={}", self.irq_handler_cycles()));
        }
        for corner in &self.corner_samples {
            line(format!("corner.{}={}", corner.index, corner.describe()));
        }
        for (p, name) in SWEEP_POLICIES.iter().enumerate() {
            line(format!("policy.{name}.violations={}", self.violations(p)));
            line(format!(
                "policy.{name}.violation_rate={:.8}",
                self.violation_rate(p)
            ));
            line(format!(
                "policy.{name}.violating_jobs={}",
                self.violating_jobs(p)
            ));
            if self.interrupts.is_some() {
                line(format!(
                    "policy.{name}.entry_violations={}",
                    self.entry_violations(p)
                ));
            }
            if self.faults.is_some() {
                line(format!("policy.{name}.recovered={}", self.recovered(p)));
                line(format!(
                    "policy.{name}.replay_penalty={}",
                    self.replay_penalty(p)
                ));
                line(format!("policy.{name}.silent_risk={}", self.silent_risk(p)));
            }
            if p == 0 {
                continue; // the baseline's speedup over itself is 1 by definition
            }
            let speedups = self.speedups(p);
            line(format!("policy.{name}.speedup.mean={:.4}", mean(&speedups)));
            // One sort serves every quantile of this policy (the old
            // per-quantile `to_vec` + sort was 7 sorts per policy).
            let sorted = sorted_samples(speedups);
            for (label, q) in [
                ("min", 0.0),
                ("p05", 0.05),
                ("p25", 0.25),
                ("p50", 0.50),
                ("p75", 0.75),
                ("p95", 0.95),
                ("max", 1.0),
            ] {
                line(format!(
                    "policy.{name}.speedup.{label}={:.4}",
                    quantile_sorted(&sorted, q)
                ));
            }
            if self.faults.is_some() {
                let effective = self.effective_speedups(p);
                line(format!(
                    "policy.{name}.effective_speedup.mean={:.4}",
                    mean(&effective)
                ));
                let sorted = sorted_samples(effective);
                for (label, q) in [("p05", 0.05), ("p50", 0.50), ("p95", 0.95)] {
                    line(format!(
                        "policy.{name}.effective_speedup.{label}={:.4}",
                        quantile_sorted(&sorted, q)
                    ));
                }
            }
        }
        let recovery = self.adaptive_recovery();
        line(format!(
            "adaptive.warmup_frac={:.6}",
            self.adaptive_warmup_fraction()
        ));
        line(format!("adaptive.recovery.mean={:.4}", mean(&recovery)));
        let sorted = sorted_samples(recovery);
        line(format!(
            "adaptive.recovery.p05={:.4}",
            quantile_sorted(&sorted, 0.05)
        ));
        line(format!(
            "adaptive.recovery.p50={:.4}",
            quantile_sorted(&sorted, 0.50)
        ));
        out
    }
}

/// Mean of a sample set (`NaN` when empty — a defined, printable value).
pub(crate) fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Consumes a sample set and returns it sorted for [`quantile_sorted`].
pub(crate) fn sorted_samples(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Empirical quantile via the nearest-rank method on pre-sorted samples
/// (`NaN` when empty). `q` is clamped into `[0, 1]`.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = if q.is_nan() { 0.5 } else { q.clamp(0.0, 1.0) };
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Empirical quantile of an unsorted sample set (test convenience).
#[cfg(test)]
fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted_samples(samples.to_vec()), q)
}

/// Wall-clock breakdown (and phase-1 work accounting) of one two-phase
/// sweep, for the perf harness and the cache-behaviour smoke tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepTiming {
    /// Phase 1: acquire each seed's timing digest (simulate or cache load).
    pub simulate: Duration,
    /// Time phase 1 spent lowering programs into predecoded micro-op
    /// tables, summed across workers. A subset of `simulate` (not an
    /// additional phase), reported separately so the one-time lowering
    /// cost stays visible next to the dispatch win it buys; 0 on a fully
    /// warm digest cache, where nothing is lowered at all.
    pub predecode: Duration,
    /// Phase 2: the corner-batched digest replays.
    pub replay: Duration,
    /// Time phase 2 spent inside the per-seed replay jobs proper — the
    /// policy-bank and adaptive-bank digest folds — summed across workers.
    /// A subset of `replay` (not an additional phase): the remainder is
    /// corner-constant setup (varied models, policy tables, the SoA corner
    /// bank) plus scheduling.
    pub policy_replay: Duration,
    /// Programs phase 1 actually simulated (0 on a fully warm cache).
    pub simulated_programs: u32,
    /// Digests phase 1 loaded from the cache instead of simulating.
    pub digest_cache_hits: u32,
}

impl SweepTiming {
    /// Total sweep wall time (both phases).
    #[must_use]
    pub fn total(&self) -> Duration {
        self.simulate + self.replay
    }
}

/// Runs `f` with this worker thread's simulation scratch (register file and
/// 64 KiB memory image), allocating it on first use and reusing it for
/// every subsequent job on the same thread — both sweep engines route
/// their simulations through here so neither pays per-job allocation noise.
fn with_worker_buffers<R>(simulator: &Simulator, f: impl FnOnce(&mut SimBuffers) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<Option<SimBuffers>> = const { RefCell::new(None) };
    }
    SCRATCH.with(|cell| {
        let mut slot = cell.borrow_mut();
        let buffers = slot.get_or_insert_with(|| SimBuffers::for_config(simulator.config()));
        f(buffers)
    })
}

/// Phase 1 worker: generates and simulates one seed's program, capturing
/// its [`TimingDigest`] in worker-local scratch. The program is lowered
/// once into a [`PredecodedProgram`]; the simulation dispatches from the
/// micro-op table and the digest capture reuses the table's per-pc hints
/// instead of re-deriving timing classes and excitation bases per cycle.
/// Returns the digest plus the time spent lowering (so the sweep timing
/// can report the one-time predecode cost separately).
///
/// # Errors
///
/// Propagates the simulation's [`PipelineError`] (e.g. a cycle-limit
/// overrun on a pathological program) instead of panicking the worker.
pub(crate) fn digest_program(
    simulator: &Simulator,
    program: &Program,
) -> Result<(TimingDigest, Duration), PipelineError> {
    with_worker_buffers(simulator, |buffers| {
        let start = Instant::now();
        let pre = PredecodedProgram::lower(program);
        let predecode = start.elapsed();
        let mut observer = DigestObserver::with_hints(pre.digest_hints());
        simulator.run_observed_predecoded_with_buffers(&pre, &mut [&mut observer], buffers)?;
        Ok((observer.into_digest(), predecode))
    })
}

/// [`digest_program`] under the sweep's interrupt scenario: when a spec is
/// active the handler is appended to the program and the run is driven by a
/// per-program interrupt controller, so the worker builds its own simulator
/// (the plan's vector depends on where the program ends). The captured
/// digest then carries the scenario's event stream (codec v3), which is all
/// the replay engines need — interrupt-free seeds take the shared-simulator
/// fast path untouched, so their digests stay byte-identical.
fn digest_seed(
    simulator: &Simulator,
    program: &Program,
    interrupts: Option<&InterruptSpec>,
) -> Result<(TimingDigest, Duration), PipelineError> {
    match interrupts {
        Some(spec) => {
            let (program, plan) = InterruptPlan::attach(program, spec);
            let simulator = Simulator::new(simulator.config().clone()).with_interrupts(plan);
            digest_program(&simulator, &program)
        }
        None => digest_program(simulator, program),
    }
}

/// Wraps a per-seed worker failure in the structured sweep error.
fn job_failed(seed_index: u32, program_seed: u64, error: PipelineError) -> SweepError {
    SweepError::JobFailed {
        seed_index,
        program_seed,
        error,
    }
}

/// Folds a parallel worker's per-item results, reporting the first failure
/// in canonical (input) order — deterministic regardless of which worker
/// hit its error first.
fn collect_jobs<T>(results: Vec<Result<T, SweepError>>) -> Result<Vec<T>, SweepError> {
    results.into_iter().collect()
}

/// Corner-constant replay state of one sweep, built **once** and shared
/// (it is `Sync`) by every per-seed job: in the replay phase each job's
/// real work is a cheap digest fold, so repeating this setup per job would
/// be a measurable fixed cost. Every corner deploys the same margin-guarded
/// LUT, so the two table-driven policies are built once for all corners.
struct ReplaySetup<'a> {
    corner_samples: &'a [PvtCorner],
    /// Each corner's STA period: the static baseline's per-corner request.
    static_periods: Vec<Ps>,
    lut_policy: InstructionBased,
    exec_only: ExecuteOnly,
    bank: CornerBank,
}

/// Maps a policy observer's [`idca_core::RunOutcome`] to the sweep's
/// per-job row.
fn policy_outcome(o: idca_core::RunOutcome) -> PolicyJobOutcome {
    PolicyJobOutcome {
        violations: o.violations,
        entry_violations: o.entry_violations,
        mhz: o.effective_frequency_mhz,
        warmup_cycles: 0,
        recovered_cycles: o.recovered_cycles,
        replay_penalty_cycles: o.replay_penalty_cycles,
        silent_risk_cycles: o.silent_risk_cycles,
        recovery_mhz: o.recovery_frequency_mhz,
    }
}

/// Maps an adaptive controller's [`idca_core::AdaptiveOutcome`] to the
/// sweep's per-job row.
fn adaptive_outcome(o: idca_core::AdaptiveOutcome) -> PolicyJobOutcome {
    PolicyJobOutcome {
        violations: o.violations,
        entry_violations: o.entry_violations,
        mhz: o.effective_frequency_mhz,
        warmup_cycles: o.warmup_cycles,
        recovered_cycles: o.recovered_cycles,
        replay_penalty_cycles: o.replay_penalty_cycles,
        silent_risk_cycles: o.silent_risk_cycles,
        recovery_mhz: o.recovery_frequency_mhz,
    }
}

/// Attaches the sweep's fault plan (when configured) to a policy observer.
fn with_sweep_faults<'a>(
    observer: PolicyObserver<'a>,
    faults: Option<&'a FaultPlan>,
) -> PolicyObserver<'a> {
    match faults {
        Some(plan) => observer.with_faults(plan),
        None => observer,
    }
}

/// Rides along the live reference engine's observer stack to count the
/// interrupt entries and entry/handler cycles of one run straight off the
/// records' live phases. Counts exactly what [`IrqTimeline`] recomputes
/// from the digest event stream — each entry opens a contiguous `Entry`
/// window and every in-span cycle carries a non-`None` phase, with spans
/// separated by at least one `Handler` cycle — so live rows and replay rows
/// stay bit-identical.
struct IrqStatObserver {
    entries: u64,
    handler_cycles: u64,
    prev: IrqPhase,
}

impl IrqStatObserver {
    fn new() -> IrqStatObserver {
        IrqStatObserver {
            entries: 0,
            handler_cycles: 0,
            prev: IrqPhase::None,
        }
    }
}

impl CycleObserver for IrqStatObserver {
    fn observe_cycle(&mut self, record: &CycleRecord) {
        let phase = record.irq_phase;
        self.entries += u64::from(phase == IrqPhase::Entry && self.prev != IrqPhase::Entry);
        self.handler_cycles += u64::from(phase != IrqPhase::None);
        self.prev = phase;
    }
}

/// Worker-local scratch of the corner-batched replay: the three SoA
/// [`PolicyBank`]s, the SoA [`AdaptiveBank`] and the per-cycle lane
/// buffers, allocated once per worker thread and reset (not reallocated)
/// between jobs — mirroring the [`SimBuffers`] reuse of phase 1, so
/// large-`M` sweeps don't pay `O(M)` lane allocations per seed.
///
/// The scratch is keyed by the sweep's per-corner static periods and fault
/// plan: within one sweep every job shares them, so the banks are rebuilt
/// only when a *different* sweep runs on the same worker thread (e.g.
/// consecutive configs in one process).
struct ReplayScratch {
    /// Key: the per-corner static periods the banks were built for.
    static_periods: Vec<Ps>,
    /// Key: the fault plan the banks classify violations under.
    faults: Option<FaultPlan>,
    bank_static: PolicyBank<'static>,
    bank_lut: PolicyBank<'static>,
    bank_exec: PolicyBank<'static>,
    adaptive: AdaptiveBank<'static>,
}

impl ReplayScratch {
    fn new(static_periods: &[Ps], faults: Option<&FaultPlan>) -> ReplayScratch {
        let corners = static_periods.len();
        let bank = |name: &str| {
            let mut bank = PolicyBank::new(name, corners, &IDEAL_GENERATOR);
            if let Some(plan) = faults {
                bank = bank.with_faults(*plan);
            }
            bank
        };
        let mut adaptive = AdaptiveBank::from_static_periods(
            static_periods.to_vec(),
            &AdaptiveConfig::default(),
            &IDEAL_GENERATOR,
            None,
            Drift::None,
        );
        if let Some(plan) = faults {
            adaptive = adaptive.with_faults(*plan);
        }
        ReplayScratch {
            static_periods: static_periods.to_vec(),
            faults: faults.copied(),
            bank_static: bank(SWEEP_POLICIES[0]),
            bank_lut: bank(SWEEP_POLICIES[1]),
            bank_exec: bank(SWEEP_POLICIES[2]),
            adaptive,
        }
    }

    /// Whether this scratch was built for exactly this sweep's corners and
    /// fault plan (and can therefore be reset instead of rebuilt).
    fn matches(&self, static_periods: &[Ps], faults: Option<&FaultPlan>) -> bool {
        self.faults == faults.copied() && self.static_periods == static_periods
    }

    /// Clears all per-job accumulator state (bank lanes, learned tables).
    fn reset(&mut self) {
        self.bank_static.reset();
        self.bank_lut.reset();
        self.bank_exec.reset();
        self.adaptive.reset(None);
    }
}

/// Runs `f` with this worker thread's replay scratch, building it on first
/// use (or when the sweep's corners/fault plan changed) and resetting it
/// otherwise — the phase-2 counterpart of [`with_worker_buffers`].
fn with_replay_scratch<R>(
    static_periods: &[Ps],
    faults: Option<&FaultPlan>,
    f: impl FnOnce(&mut ReplayScratch) -> R,
) -> R {
    thread_local! {
        static SCRATCH: RefCell<Option<ReplayScratch>> = const { RefCell::new(None) };
    }
    SCRATCH.with(|cell| {
        let mut slot = cell.borrow_mut();
        let scratch = match slot.as_mut() {
            Some(scratch) if scratch.matches(static_periods, faults) => {
                scratch.reset();
                scratch
            }
            _ => slot.insert(ReplayScratch::new(static_periods, faults)),
        };
        f(scratch)
    })
}

/// Phase 2 worker of the corner-batched engine: replays one seed's digest
/// against **every** corner in a single walk. Each pooled digest record is
/// decoded once per RLE run-block; each cycle's six stage dithers come out
/// of one batched hash kernel and are broadcast; the per-corner delay folds
/// run through the [`CornerBank`]'s vectorized lanes; and **all** per-corner
/// policy state lives in structure-of-arrays banks — the three table-driven
/// policies' accumulators in [`PolicyBank`]s and the `M` adaptive
/// controllers' learned tables in one [`AdaptiveBank`] — no per-corner
/// scalar state walks the digest anymore.
///
/// Every corner deploys the same guarded LUT, so the instruction-based and
/// execute-only requests are corner-invariant: each is decided once per
/// cycle, and its bank holds the realized period and its limits as
/// scalars, leaving one compare-and-count per lane. The static baseline's
/// per-corner requests are fixed for the whole job, so its bank is primed
/// once, before the walk.
///
/// Produces the same rows, bit for bit, as [`run_job`] simulating each
/// `(seed, corner)` pair live (pinned by the sweep tests): one decode, one
/// dither batch, `M` corner outcomes. `timeline` is the seed's interrupt
/// phase timeline (`None` without an interrupt scenario).
fn replay_seed_banked(
    digest: &TimingDigest,
    setup: &ReplaySetup<'_>,
    perturbation: Perturbation<'_>,
    timeline: Option<&IrqTimeline>,
    seed_index: u32,
) -> Vec<SweepJobOutcome> {
    if setup.corner_samples.is_empty() {
        return Vec::new();
    }
    with_replay_scratch(&setup.static_periods, perturbation.faults, |scratch| {
        // An empty walk must not fold a realized period into the static
        // bank's min/max: the scalar observer reports zero for it.
        if digest.cycles() > 0 {
            scratch
                .bank_static
                .begin_block_per_corner(&setup.static_periods);
        }
        let mut evaluator = setup.bank.evaluator();
        let mut cursor = timeline.map(IrqTimeline::cursor);
        digest.for_each_run(|start, len, dc| {
            // Every corner deploys the same guarded LUT, so one decision
            // per block serves all corners; the banks hold its realized
            // period and limits as scalars.
            scratch
                .bank_lut
                .begin_block(setup.lut_policy.digest_period_ps(start, dc));
            scratch
                .bank_exec
                .begin_block(setup.exec_only.digest_period_ps(start, dc));
            for cycle in start..start + u64::from(len) {
                // The evaluated cycle stays in structure-of-arrays form end
                // to end: no per-corner `CycleTiming` structs are built on
                // the hot path.
                let entry = cursor
                    .as_mut()
                    .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry);
                let lanes = evaluator.cycle_lanes(cycle, dc);
                // The same fault-then-surge perturbation the scalar paths
                // apply, so the lanes stay bit-identical to them.
                perturbation.lanes(cycle, lanes, entry);
                let lanes = &*lanes;
                if entry {
                    scratch.bank_static.observe_actuals_entry(lanes.max_lanes());
                    scratch.bank_lut.observe_actuals_entry(lanes.max_lanes());
                    scratch.bank_exec.observe_actuals_entry(lanes.max_lanes());
                } else {
                    scratch.bank_static.observe_actuals(lanes.max_lanes());
                    scratch.bank_lut.observe_actuals(lanes.max_lanes());
                    scratch.bank_exec.observe_actuals(lanes.max_lanes());
                }
                scratch
                    .adaptive
                    .observe_cycle_lanes_phased(cycle, dc, lanes, entry);
            }
        });

        let summary = digest.summary();
        scratch.bank_static.finish(&summary);
        scratch.bank_lut.finish(&summary);
        scratch.bank_exec.finish(&summary);
        scratch.adaptive.finish(&summary);
        let out_static = scratch.bank_static.take_outcomes();
        let out_lut = scratch.bank_lut.take_outcomes();
        let out_exec = scratch.bank_exec.take_outcomes();
        let out_adaptive = scratch.adaptive.take_outcomes();

        let (irq_entries, irq_handler_cycles) = match timeline {
            Some(timeline) => (timeline.entries(), timeline.handler_cycles(summary.cycles)),
            None => (0, 0),
        };
        let stacks = out_static
            .into_iter()
            .zip(out_lut)
            .zip(out_exec)
            .zip(out_adaptive);
        setup
            .corner_samples
            .iter()
            .zip(stacks)
            .map(
                |(corner, (((ob_s, ob_l), ob_e), adaptive))| SweepJobOutcome {
                    seed_index,
                    corner_index: corner.index,
                    cycles: summary.cycles,
                    irq_entries,
                    irq_handler_cycles,
                    policies: [
                        policy_outcome(ob_s),
                        policy_outcome(ob_l),
                        policy_outcome(ob_e),
                        adaptive_outcome(adaptive),
                    ],
                },
            )
            .collect()
    })
}

/// Runs one `(program, corner)` job: a single streaming simulation pass
/// observed by the full policy stack against the corner's varied timing
/// model. This is the single-phase reference implementation retained for
/// [`pvt_sweep_direct`]; the production sweep replays digests instead.
#[allow(clippy::too_many_arguments)] // mirrors the sweep config it unpacks
fn run_job(
    simulator: &Simulator,
    program: &idca_isa::Program,
    nominal: &TimingModel,
    variation: &VariationModel,
    corner: &PvtCorner,
    guarded_lut: &DelayLut,
    faults: Option<&FaultPlan>,
    interrupts: Option<&InterruptSpec>,
    seed_index: u32,
) -> Result<SweepJobOutcome, PipelineError> {
    let varied = variation.apply(nominal, corner);
    let static_policy = StaticClock::of_model(&varied);
    let lut_policy = InstructionBased::new(guarded_lut.clone());
    let exec_only = ExecuteOnly::new(guarded_lut.clone());

    // With interrupts the job simulates live: the handler is appended to
    // the program and a per-program controller drives the run, so the job
    // builds its own simulator (the plan's vector depends on the program).
    // The observers take no timeline — the live records carry the ground
    // truth `irq_phase` — but they do need the entry surge factor.
    let surge_factor = interrupts.map_or(1.0, |spec| 1.0 + spec.surge);
    let attached = interrupts.map(|spec| {
        let (program, plan) = InterruptPlan::attach(program, spec);
        let simulator = Simulator::new(simulator.config().clone()).with_interrupts(plan);
        (program, simulator)
    });
    let (program, simulator) = match &attached {
        Some((program, simulator)) => (program, simulator),
        None => (program, simulator),
    };

    let mut ob_static = with_sweep_faults(
        PolicyObserver::new(&varied, &static_policy, &ClockGenerator::Ideal),
        faults,
    )
    .with_interrupts(None, surge_factor);
    let mut ob_lut = with_sweep_faults(
        PolicyObserver::new(&varied, &lut_policy, &ClockGenerator::Ideal),
        faults,
    )
    .with_interrupts(None, surge_factor);
    let mut ob_exec = with_sweep_faults(
        PolicyObserver::new(&varied, &exec_only, &ClockGenerator::Ideal),
        faults,
    )
    .with_interrupts(None, surge_factor);
    let mut ob_adaptive = AdaptiveObserver::new(
        &varied,
        &AdaptiveConfig::default(),
        &ClockGenerator::Ideal,
        None,
        Drift::None,
    )
    .with_interrupts(None, surge_factor);
    if let Some(plan) = faults {
        ob_adaptive = ob_adaptive.with_faults(plan);
    }
    let mut ob_irq = IrqStatObserver::new();

    // Like the two-phase engine's phase 1, the honest single-phase baseline
    // simulates in worker-local scratch: the comparison between the engines
    // should measure evaluation strategy, not per-job allocation noise.
    let pre = PredecodedProgram::lower(program);
    let summary = with_worker_buffers(simulator, |buffers| {
        simulator.run_observed_predecoded_with_buffers(
            &pre,
            &mut [
                &mut ob_static,
                &mut ob_lut,
                &mut ob_exec,
                &mut ob_adaptive,
                &mut ob_irq,
            ],
            buffers,
        )
    })?;

    Ok(SweepJobOutcome {
        seed_index,
        corner_index: corner.index,
        cycles: summary.cycles,
        irq_entries: ob_irq.entries,
        irq_handler_cycles: ob_irq.handler_cycles,
        policies: [
            policy_outcome(ob_static.into_outcome()),
            policy_outcome(ob_lut.into_outcome()),
            policy_outcome(ob_exec.into_outcome()),
            adaptive_outcome(ob_adaptive.into_outcome()),
        ],
    })
}

/// The simulator configuration of one sweep (the configured cycle budget
/// over the default memory image).
fn sim_config(config: &SweepConfig) -> SimConfig {
    SimConfig {
        max_cycles: config.max_cycles,
        ..SimConfig::default()
    }
}

/// Shared sweep preamble: the nominal model, the margin-guarded deployed
/// LUT and the sampled corners.
fn sweep_setup(config: &SweepConfig) -> (TimingModel, DelayLut, Vec<PvtCorner>) {
    let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    // The deployed LUT: analytic worst cases inflated by exactly the
    // variation margin, so every in-distribution corner is covered.
    let guarded_lut = DelayLut::from_model(&nominal).scaled(1.0 + config.variation.margin());
    let corner_samples: Vec<PvtCorner> = (0..config.corners)
        .map(|i| config.variation.sample_corner(config.master_seed, i))
        .collect();
    (nominal, guarded_lut, corner_samples)
}

/// The seed-major `(seed, corner)` job list of one sweep.
fn job_list(config: &SweepConfig) -> Vec<(u32, u32)> {
    (0..config.seeds)
        .flat_map(|s| (0..config.corners).map(move |c| (s, c)))
        .collect()
}

/// Finalizes a report from per-job outcomes in canonical order.
fn finish_report(
    config: &SweepConfig,
    corner_samples: Vec<PvtCorner>,
    outcomes: Vec<SweepJobOutcome>,
) -> SweepReport {
    // par_map preserves input order and the job list is built seed-major,
    // so `outcomes` is already one complete job set in canonical order; the
    // sort makes that invariant explicit rather than positional.
    let mut report = SweepReport::empty(config, corner_samples);
    report.jobs = outcomes;
    report
        .jobs
        .sort_by_key(|job| (job.seed_index, job.corner_index));
    report
}

/// Writes `bytes` to `path` atomically: they are staged in the same
/// directory under the target's own name plus this process's id
/// (`.<name>.<pid>.tmp`) and renamed into place, so a reader in this or any
/// concurrent process sees the complete file or none. The staged file is
/// removed whenever the write or the rename fails. `repro` writes its sweep
/// reports through it, and the digest cache its entries.
///
/// # Errors
///
/// The I/O error of the write or the rename, or
/// [`std::io::ErrorKind::InvalidInput`] when `path` names no file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let name = path
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "not a file path"))?;
    let mut staged = std::ffi::OsString::from(".");
    staged.push(name);
    staged.push(format!(".{}.tmp", std::process::id()));
    let staged = path.with_file_name(staged);
    let written = std::fs::write(&staged, bytes).and_then(|()| std::fs::rename(&staged, path));
    if written.is_err() {
        std::fs::remove_file(&staged).ok();
    }
    written
}

/// Magic of one digest-cache entry file: a key header in front of the
/// [`TimingDigest`] frame.
const CACHE_MAGIC: &[u8; 8] = b"IDCACHE1";
/// Cache entry header: magic + program seed + generator-config hash +
/// simulator version + interrupt-scenario fingerprint. Interrupts (unlike
/// faults) change the captured digest — the controller perturbs the
/// simulated image — so the scenario fingerprint is part of the cache key;
/// interrupt-free sweeps key on fingerprint 0.
const CACHE_HEADER_BYTES: usize = 8 + 8 + 8 + 4 + 8;
/// Every cache entry is named `digest-<key>.bin`; see [`cache_entry_path`].
const CACHE_ENTRY_PREFIX: &str = "digest-";
const CACHE_ENTRY_SUFFIX: &str = ".bin";

/// The on-disk location of one cached digest. The full cache key is in the
/// file name, so sweeps over different generator configurations, interrupt
/// scenarios (or simulator versions) coexist in one directory instead of
/// evicting each other; the same key is repeated inside the entry header
/// and re-verified on load as defense against renamed or hand-edited files.
/// Interrupt-free entries keep the historical name shape (no `-irq` part).
fn cache_entry_path(dir: &Path, program_seed: u64, config_hash: u64, irq_fp: u64) -> PathBuf {
    let irq_part = if irq_fp == 0 {
        String::new()
    } else {
        format!("-irq{irq_fp:016x}")
    };
    dir.join(format!(
        "{CACHE_ENTRY_PREFIX}{program_seed:016x}-{config_hash:016x}{irq_part}\
         -v{SIMULATOR_VERSION}{CACHE_ENTRY_SUFFIX}"
    ))
}

/// Whether a file name in a cache directory is a digest-cache entry. Staged
/// writes (`.digest-*.tmp`) and the `quarantine/` directory are not.
pub(crate) fn is_cache_entry_name(name: &str) -> bool {
    name.starts_with(CACHE_ENTRY_PREFIX) && name.ends_with(CACHE_ENTRY_SUFFIX)
}

/// Decodes one cache entry's bytes against its expected key, naming the
/// exact reason an entry cannot be trusted (for the quarantine warning).
/// Each header field must equal the key the file name was built from; the
/// payload is a checksummed digest frame.
fn decode_cache_entry(
    bytes: &[u8],
    program_seed: u64,
    config_hash: u64,
    irq_fp: u64,
) -> Result<TimingDigest, String> {
    let header = |error: FormatError| format!("entry header {error}");
    let key = |what: &str, found: u64, expected: u64| {
        if found == expected {
            Ok(())
        } else {
            Err(format!(
                "stale key: embedded {what} {found:#018x} != expected {expected:#018x}"
            ))
        }
    };
    let mut r = Reader::new(bytes);
    if r.bytes_exact(CACHE_MAGIC.len()).map_err(header)? != CACHE_MAGIC {
        return Err("bad entry magic".to_string());
    }
    key("program seed", r.u64().map_err(header)?, program_seed)?;
    key("config hash", r.u64().map_err(header)?, config_hash)?;
    key(
        "simulator version",
        u64::from(r.u32().map_err(header)?),
        u64::from(SIMULATOR_VERSION),
    )?;
    key("interrupt fingerprint", r.u64().map_err(header)?, irq_fp)?;
    TimingDigest::from_bytes(r.remaining())
        .map_err(|error| format!("digest payload rejected: {error}"))
}

/// Moves an untrusted cache entry into the cache's `quarantine/`
/// subdirectory (so a recurring corruption source is diagnosable instead
/// of being silently overwritten on re-simulation) and emits a structured
/// stderr warning naming the entry and the decode error. Best-effort: if
/// the move itself fails the entry is left in place — the sweep result is
/// unaffected either way, because the caller re-simulates.
fn quarantine_cache_entry(dir: &Path, path: &Path, reason: &str) {
    let quarantine_dir = dir.join("quarantine");
    let target = match path.file_name() {
        Some(name) => quarantine_dir.join(name),
        None => return,
    };
    let moved = std::fs::create_dir_all(&quarantine_dir)
        .and_then(|()| std::fs::rename(path, &target))
        .is_ok();
    let disposition = if moved {
        format!("quarantined to {}", target.display())
    } else {
        "left in place".to_string()
    };
    eprintln!(
        "warning: digest-cache entry {path} rejected: {reason}; {disposition}; re-simulating",
        path = path.display()
    );
}

/// Loads one cached digest. Returns `None` — a cache miss, never an error —
/// unless the entry exists, carries exactly the expected
/// `(program_seed, config_hash, SIMULATOR_VERSION)` key and its digest
/// payload passes every integrity check of [`TimingDigest::from_bytes`]:
/// stale or corrupt entries are moved to the cache's `quarantine/`
/// subdirectory with a stderr warning naming the decode error, then
/// re-simulated — never trusted, never silently discarded.
fn load_cached_digest(
    dir: &Path,
    program_seed: u64,
    config_hash: u64,
    irq_fp: u64,
) -> Option<TimingDigest> {
    let path = cache_entry_path(dir, program_seed, config_hash, irq_fp);
    let bytes = std::fs::read(&path).ok()?;
    match decode_cache_entry(&bytes, program_seed, config_hash, irq_fp) {
        Ok(digest) => Some(digest),
        Err(reason) => {
            quarantine_cache_entry(dir, &path, &reason);
            None
        }
    }
}

/// Writes one digest-cache entry through [`write_atomic`], so a reader in
/// this or any concurrent process never sees a torn entry (and even a torn
/// write from an unclean shutdown is demoted to a miss by the digest
/// checksum). Best-effort: an I/O failure leaves the sweep result
/// untouched — the cache is an accelerator, never a correctness dependency.
fn store_cached_digest(
    dir: &Path,
    program_seed: u64,
    config_hash: u64,
    irq_fp: u64,
    digest: &TimingDigest,
) {
    let payload = digest.to_bytes();
    let mut bytes = Vec::with_capacity(CACHE_HEADER_BYTES + payload.len());
    bytes.extend_from_slice(CACHE_MAGIC);
    bytes.extend_from_slice(&program_seed.to_le_bytes());
    bytes.extend_from_slice(&config_hash.to_le_bytes());
    bytes.extend_from_slice(&SIMULATOR_VERSION.to_le_bytes());
    bytes.extend_from_slice(&irq_fp.to_le_bytes());
    bytes.extend_from_slice(&payload);
    write_atomic(
        &cache_entry_path(dir, program_seed, config_hash, irq_fp),
        &bytes,
    )
    .ok();
}

/// Runs the full sweep: phase 1 acquires each seed's [`TimingDigest`]
/// (simulating exactly once, parallel over seeds), phase 2 fans `N`
/// per-seed corner-batched replays across rayon workers and folds the
/// outcomes into one canonical [`SweepReport`] — byte-identical to the
/// single-phase [`pvt_sweep_direct`] at a fraction of the work.
///
/// # Errors
///
/// Returns [`SweepError::JobFailed`] naming the first failing seed (in
/// canonical order) if any program fails to simulate.
pub fn pvt_sweep(config: &SweepConfig) -> Result<SweepReport, SweepError> {
    Ok(pvt_sweep_timed_with_cache(config, None)?.0)
}

/// [`pvt_sweep`] with the per-phase wall-clock breakdown (the `repro bench`
/// perf harness reports it) and an optional persistent digest cache: when
/// `cache_dir` is given, phase 1 loads each seed's digest from
/// `digest-<seed>.bin` if a valid entry keyed by the exact
/// `(program seed, generator-config hash, simulator version)` exists, and
/// backfills the cache after simulating otherwise. A fully warm cache skips
/// phase 1's simulations entirely ([`SweepTiming::simulated_programs`]
/// is 0); the report is byte-identical either way, because the digest
/// binary round-trip is bit-exact.
///
/// # Errors
///
/// Returns [`SweepError::JobFailed`] if any program fails to simulate.
pub fn pvt_sweep_timed_with_cache(
    config: &SweepConfig,
    cache_dir: Option<&Path>,
) -> Result<(SweepReport, SweepTiming), SweepError> {
    pvt_sweep_seed_range_timed_with_cache(config, 0..config.seeds, cache_dir)
}

/// The sharded engine underneath [`pvt_sweep_timed_with_cache`]: runs only
/// the seeds in `seed_range` (each against **all** corners) and returns a
/// partial [`SweepReport`] whose header still describes the *full* sweep.
/// Because per-seed jobs are independent, the partial rows are bit-identical
/// to the same rows of the single-process run, so merging every shard of a
/// partition reproduces that run exactly (see `shard::merge_reports`).
///
/// # Errors
///
/// Returns [`SweepError::JobFailed`] if any program in the range fails to
/// simulate. An empty or out-of-range shard (`seed_range` clamped to the
/// configured seed count) yields an empty partial report, not an error.
pub fn pvt_sweep_seed_range_timed_with_cache(
    config: &SweepConfig,
    seed_range: Range<u32>,
    cache_dir: Option<&Path>,
) -> Result<(SweepReport, SweepTiming), SweepError> {
    config.validate()?;
    let (nominal, guarded_lut, corner_samples) = sweep_setup(config);
    let seed_range = seed_range.start.min(config.seeds)..seed_range.end.min(config.seeds);

    // Phase 1 — one digest per in-range seed: cache hit or
    // simulate-and-backfill. Program generation and simulation run fused in
    // the same worker (par_map preserves input order, so the digest list is
    // deterministic regardless of worker count).
    let start = Instant::now();
    let simulator = Simulator::new(sim_config(config));
    let config_hash = config.gen.content_hash();
    let irq_spec = config.active_interrupts();
    let irq_fp = irq_spec.as_ref().map_or(0, InterruptSpec::fingerprint);
    let seed_indices: Vec<u32> = seed_range.collect();
    let digests = collect_jobs(par_map(&seed_indices, |&i| {
        let program_seed = nth_seed(config.master_seed, u64::from(i));
        if let Some(dir) = cache_dir {
            if let Some(digest) = load_cached_digest(dir, program_seed, config_hash, irq_fp) {
                return Ok((digest, true, Duration::ZERO));
            }
        }
        let program = generate_program(program_seed, &config.gen);
        let (digest, predecode) = digest_seed(&simulator, &program, irq_spec.as_ref())
            .map_err(|error| job_failed(i, program_seed, error))?;
        if let Some(dir) = cache_dir {
            store_cached_digest(dir, program_seed, config_hash, irq_fp, &digest);
        }
        Ok((digest, false, predecode))
    }))?;
    let simulate = start.elapsed();
    let digest_cache_hits = digests.iter().filter(|(_, hit, _)| *hit).count() as u32;
    let predecode = digests.iter().map(|(_, _, d)| *d).sum();

    // Phase 2 — corner-batched: one per-seed job per in-range seed, each
    // walking its digest once against the whole bank. The varied models,
    // policy tables and the SoA corner bank are corner-constant, so they
    // are built once and shared by every job.
    let start = Instant::now();
    let plan = config.faults.map(|spec| FaultPlan::new(&spec));
    let varied_models: Vec<TimingModel> = corner_samples
        .iter()
        .map(|corner| config.variation.apply(&nominal, corner))
        .collect();
    let setup = ReplaySetup {
        corner_samples: &corner_samples,
        static_periods: varied_models
            .iter()
            .map(TimingModel::static_period_ps)
            .collect(),
        lut_policy: InstructionBased::new(guarded_lut.clone()),
        exec_only: ExecuteOnly::new(guarded_lut),
        bank: CornerBank::from_models(&varied_models),
    };
    let perturbation = Perturbation {
        faults: plan.as_ref(),
        surge_factor: irq_spec.as_ref().map_or(1.0, |spec| 1.0 + spec.surge),
    };
    let positions: Vec<usize> = (0..seed_indices.len()).collect();
    let timed_jobs: Vec<(Vec<SweepJobOutcome>, Duration)> = par_map(&positions, |&p| {
        let job_start = Instant::now();
        let digest = &digests[p].0;
        // The interrupt scenario replays from the digest's own event
        // stream: one timeline per seed, built inside its job and shared by
        // every corner of that seed.
        let timeline = irq_spec
            .as_ref()
            .map(|spec| IrqTimeline::from_events(digest.events(), spec.penalty));
        let rows = replay_seed_banked(
            digest,
            &setup,
            perturbation,
            timeline.as_ref(),
            seed_indices[p],
        );
        (rows, job_start.elapsed())
    });
    let policy_replay = timed_jobs.iter().map(|(_, d)| *d).sum();
    let outcomes: Vec<SweepJobOutcome> =
        timed_jobs.into_iter().flat_map(|(rows, _)| rows).collect();
    let replay = start.elapsed();

    Ok((
        finish_report(config, corner_samples, outcomes),
        SweepTiming {
            simulate,
            predecode,
            replay,
            policy_replay,
            simulated_programs: seed_indices.len() as u32 - digest_cache_hits,
            digest_cache_hits,
        },
    ))
}

/// The single-phase reference sweep: every `(seed, corner)` job runs its
/// own full pipeline simulation with the policy stack riding along, exactly
/// like the original engine. Kept (and exercised by tests) to prove the
/// two-phase [`pvt_sweep`] byte-identical; also the honest baseline for the
/// perf harness's simulate-once speedup measurement.
///
/// # Errors
///
/// Returns [`SweepError::JobFailed`] if any program fails to simulate.
pub fn pvt_sweep_direct(config: &SweepConfig) -> Result<SweepReport, SweepError> {
    config.validate()?;
    let (nominal, guarded_lut, corner_samples) = sweep_setup(config);

    let seed_indices: Vec<u32> = (0..config.seeds).collect();
    let programs = par_map(&seed_indices, |&i| {
        generate_program(nth_seed(config.master_seed, u64::from(i)), &config.gen)
    });

    let simulator = Simulator::new(sim_config(config));
    let plan = config.faults.map(|spec| FaultPlan::new(&spec));
    let irq_spec = config.active_interrupts();
    let jobs = job_list(config);
    let outcomes = collect_jobs(par_map(&jobs, |&(seed_index, corner_index)| {
        run_job(
            &simulator,
            &programs[seed_index as usize],
            &nominal,
            &config.variation,
            &corner_samples[corner_index as usize],
            &guarded_lut,
            plan.as_ref(),
            irq_spec.as_ref(),
            seed_index,
        )
        .map_err(|error| {
            job_failed(
                seed_index,
                nth_seed(config.master_seed, u64::from(seed_index)),
                error,
            )
        })
    }))?;
    Ok(finish_report(config, corner_samples, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SweepConfig {
        SweepConfig {
            seeds: 4,
            corners: 3,
            master_seed: 0x5EED,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn cycle_limit_overrun_is_a_structured_error_not_a_panic() {
        // A cycle budget too small for any generated program forces every
        // job to fail: the sweep must surface the *first* failure in
        // canonical order as a structured error naming the seed and the
        // configured limit — never panic, never return a partial report.
        let config = SweepConfig {
            seeds: 2,
            corners: 1,
            master_seed: 0x5EED,
            max_cycles: 2,
            ..SweepConfig::default()
        };
        for result in [
            pvt_sweep(&config),
            pvt_sweep_direct(&config),
            pvt_sweep_seed_range_timed_with_cache(&config, 0..config.seeds, None)
                .map(|(report, _)| report),
        ] {
            let error = result.expect_err("a 2-cycle budget cannot fit any program");
            let SweepError::JobFailed {
                seed_index,
                program_seed,
                error: ref cause,
            } = error
            else {
                panic!("expected JobFailed, got {error:?}");
            };
            assert_eq!(seed_index, 0, "first failure in canonical order");
            assert_eq!(program_seed, nth_seed(config.master_seed, 0));
            assert!(matches!(cause, PipelineError::CycleLimitExceeded { .. }));
            let message = error.to_string();
            assert!(message.contains("seed index 0"), "{message}");
            assert!(message.contains("2"), "limit named: {message}");
            assert!(
                std::error::Error::source(&error).is_some(),
                "pipeline cause is chained"
            );
        }
    }

    #[test]
    fn zero_seed_and_zero_corner_sweeps_are_rejected_up_front() {
        for (seeds, corners, field) in [(0, 4, "seeds"), (4, 0, "corners"), (0, 0, "seeds")] {
            let config = SweepConfig {
                seeds,
                corners,
                ..SweepConfig::default()
            };
            for result in [pvt_sweep(&config), pvt_sweep_direct(&config)] {
                let error = result.expect_err("degenerate shape must be rejected");
                assert_eq!(error, SweepError::InvalidConfig { field });
                let message = error.to_string();
                assert!(message.contains(field), "{message}");
                assert!(
                    std::error::Error::source(&error).is_none(),
                    "config errors have no underlying cause"
                );
            }
        }
        // The smallest non-degenerate shape passes validation.
        SweepConfig {
            seeds: 1,
            corners: 1,
            ..SweepConfig::default()
        }
        .validate()
        .expect("1x1 is a valid sweep");
    }

    #[test]
    fn banked_sweep_is_byte_identical_to_the_direct_reference() {
        // Corner counts deliberately straddle the SIMD lane width (3, 5) so
        // the padded lanes are exercised alongside exact multiples, and 37
        // corners (40 padded lanes) cross the gate to the wide kernel copy.
        for (seeds, corners, master_seed) in
            [(4, 3, 0x5EED), (6, 2, 7), (3, 5, 0xC0DE), (2, 37, 0xA5)]
        {
            let config = SweepConfig {
                seeds,
                corners,
                master_seed,
                ..SweepConfig::default()
            };
            let banked = pvt_sweep(&config).expect("sweep runs");
            let direct = pvt_sweep_direct(&config).expect("sweep runs");
            // Bit-identical job rows (f64 equality), not just rendered text.
            assert_eq!(banked, direct, "{seeds}x{corners}@{master_seed:#x}");
            assert_eq!(banked.render(), direct.render());
        }
    }

    #[test]
    fn digest_cache_round_trips_and_rejects_stale_entries() {
        let dir = std::env::temp_dir().join(format!(
            "idca-digest-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cache dir is creatable");
        let config = small_config();

        // Cold: everything is simulated and the cache is populated.
        let (cold, cold_timing) =
            pvt_sweep_timed_with_cache(&config, Some(&dir)).expect("sweep runs");
        assert_eq!(cold_timing.simulated_programs, config.seeds);
        assert_eq!(cold_timing.digest_cache_hits, 0);
        let entries = std::fs::read_dir(&dir).expect("cache dir readable").count();
        assert_eq!(entries, config.seeds as usize);

        // Warm: nothing is simulated; the report is byte-identical.
        let (warm, warm_timing) =
            pvt_sweep_timed_with_cache(&config, Some(&dir)).expect("sweep runs");
        assert_eq!(warm_timing.simulated_programs, 0);
        assert_eq!(warm_timing.digest_cache_hits, config.seeds);
        assert_eq!(warm, cold);
        assert_eq!(warm.render(), cold.render());

        // Stale: flip one bit of one entry's *embedded* generator-config
        // hash (the defense-in-depth copy inside the header — e.g. a file
        // renamed or copied by hand). That entry must be re-simulated (and
        // rewritten), not trusted.
        let seed0 = nth_seed(config.master_seed, 0);
        let path = cache_entry_path(&dir, seed0, config.gen.content_hash(), 0);
        let mut bytes = std::fs::read(&path).expect("entry exists");
        bytes[16] ^= 0x01;
        std::fs::write(&path, &bytes).expect("entry is writable");
        let (stale, stale_timing) =
            pvt_sweep_timed_with_cache(&config, Some(&dir)).expect("sweep runs");
        assert_eq!(stale_timing.simulated_programs, 1);
        assert_eq!(stale_timing.digest_cache_hits, config.seeds - 1);
        assert_eq!(stale, cold);
        // The rejected entry was moved into quarantine/, not overwritten in
        // place, so the corruption source stays diagnosable.
        let quarantined = dir
            .join("quarantine")
            .join(path.file_name().expect("entry has a file name"));
        let stale_bytes = std::fs::read(&quarantined).expect("stale entry is quarantined");
        assert_eq!(stale_bytes, bytes, "quarantine preserves the bad bytes");

        // Corrupt: truncate one entry's digest payload; the checksummed
        // codec rejects it, quarantines it and the sweep re-simulates.
        let bytes = std::fs::read(&path).expect("entry was rewritten after quarantine");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("entry is writable");
        let (corrupt, corrupt_timing) =
            pvt_sweep_timed_with_cache(&config, Some(&dir)).expect("sweep runs");
        assert_eq!(corrupt_timing.simulated_programs, 1);
        assert_eq!(corrupt, cold);
        let corrupt_bytes = std::fs::read(&quarantined).expect("corrupt entry is quarantined");
        assert_eq!(corrupt_bytes, bytes[..bytes.len() - 3]);

        // A different generator config must not hit the old entries — and,
        // because the config hash is part of the file name, it must not
        // evict them either: both configs' entries coexist, and the
        // original config stays fully warm afterwards.
        let other = SweepConfig {
            gen: idca_gen::GenConfig {
                block_len: config.gen.block_len + 1,
                ..config.gen
            },
            ..config.clone()
        };
        let (_, other_timing) = pvt_sweep_timed_with_cache(&other, Some(&dir)).expect("sweep runs");
        assert_eq!(other_timing.digest_cache_hits, 0);
        let (_, rewarm_timing) =
            pvt_sweep_timed_with_cache(&config, Some(&dir)).expect("sweep runs");
        assert_eq!(rewarm_timing.digest_cache_hits, config.seeds);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_cache_write_leaves_no_staged_file_and_the_report_unchanged() {
        let dir = std::env::temp_dir().join(format!(
            "idca-digest-cache-write-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = small_config();
        // A non-empty directory squats on one entry's final path, so that
        // entry's rename fails after its staged write succeeded.
        let seed0 = nth_seed(config.master_seed, 0);
        let squatter = cache_entry_path(&dir, seed0, config.gen.content_hash(), 0);
        std::fs::create_dir_all(squatter.join("occupied")).expect("squatter is creatable");

        let (report, timing) = pvt_sweep_timed_with_cache(&config, Some(&dir)).expect("sweep runs");
        assert_eq!(timing.simulated_programs, config.seeds);
        assert_eq!(report.to_bytes(), pvt_sweep(&config).unwrap().to_bytes());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("cache dir readable")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            names.iter().all(|name| !name.ends_with(".tmp")),
            "staged files left behind: {names:?}"
        );
        // The other seeds' entries landed; the squatter is untouched.
        assert_eq!(names.len(), config.seeds as usize);
        assert!(squatter.join("occupied").is_dir());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_sweeps_are_byte_identical_across_engines_and_score_recovery() {
        let spec = FaultSpec::parse(
            "seed=9,droop-rate=0.5,droop-mag=0.6,spike-rate=0.02,spike-mag=0.8,\
             penalty=6,detect-window=0.25",
        )
        .expect("valid fault spec");
        let config = SweepConfig {
            seeds: 3,
            corners: 3,
            master_seed: 0xFA17,
            faults: Some(spec),
            ..SweepConfig::default()
        };
        let banked = pvt_sweep(&config).expect("sweep runs");
        let direct = pvt_sweep_direct(&config).expect("sweep runs");
        assert_eq!(banked, direct, "banked vs live under faults");
        assert_eq!(banked.render(), direct.render());

        // The droop overwhelms the guard margin: violations occur and the
        // recovery model classifies every one of them.
        let lut_violations = banked.violations(1);
        assert!(lut_violations > 0, "fault spec too weak to violate");
        assert_eq!(
            banked.recovered(1) + banked.silent_risk(1),
            lut_violations,
            "every violation is either recovered or silent risk"
        );
        assert_eq!(
            banked.replay_penalty(1),
            banked.recovered(1) * u64::from(spec.replay_penalty)
        );
        for job in &banked.jobs {
            for p in &job.policies {
                assert_eq!(p.recovered_cycles + p.silent_risk_cycles, p.violations);
                assert!(p.recovery_mhz <= p.mhz, "recovery can only cost throughput");
            }
        }

        // The rendered report carries the fault header and the recovery
        // columns per policy.
        let rendered = banked.render();
        assert!(rendered.contains("pvt_sweep.faults=seed=9,"), "{rendered}");
        assert!(rendered.contains("policy.instruction-based.recovered="));
        assert!(rendered.contains("policy.static.silent_risk="));
        assert!(rendered.contains("policy.adaptive.effective_speedup.mean="));

        // And the steady-state report stays byte-identical to before: no
        // fault lines leak into an unfaulted render.
        let unfaulted = pvt_sweep(&SweepConfig {
            faults: None,
            ..config.clone()
        })
        .expect("sweep runs");
        assert!(!unfaulted.render().contains("faults"));
        assert!(!unfaulted.render().contains("effective_speedup"));
    }

    #[test]
    fn interrupt_sweeps_are_byte_identical_across_engines_and_surface_entry_violations() {
        let spec = InterruptSpec::parse("seed=3,rate=0.004,timer=211,penalty=6")
            .expect("valid interrupt spec");
        let config = SweepConfig {
            seeds: 3,
            corners: 3,
            master_seed: 0x1247,
            interrupts: Some(spec),
            ..SweepConfig::default()
        };
        let banked = pvt_sweep(&config).expect("sweep runs");
        let direct = pvt_sweep_direct(&config).expect("sweep runs");
        assert_eq!(banked, direct, "banked replay vs live under interrupts");
        assert_eq!(banked.render(), direct.render());

        // The storm actually fires and spends cycles in the handler.
        assert!(banked.irq_entries() > 0, "storm never entered the handler");
        assert!(banked.irq_handler_cycles() > banked.irq_entries());

        // The entry surge exceeds the guard margin: the table-driven
        // policies violate *during entry flushes* where the steady-state
        // sweep (below) is violation-free, and every such violation is
        // classified as an entry violation.
        let lut_violations = banked.violations(1);
        assert!(lut_violations > 0, "entry surge too weak to violate");
        assert_eq!(banked.entry_violations(1), lut_violations);
        for job in &banked.jobs {
            for p in &job.policies {
                assert!(p.entry_violations <= p.violations);
            }
        }

        // The rendered report carries the interrupt header and columns.
        let rendered = banked.render();
        assert!(
            rendered.contains("pvt_sweep.interrupts=seed=3,"),
            "{rendered}"
        );
        assert!(rendered.contains("irq.entries="));
        assert!(rendered.contains("irq.handler_cycles="));
        assert!(rendered.contains("policy.instruction-based.entry_violations="));

        // Steady state: same workloads, no interrupts — zero violations and
        // no interrupt lines leak into the render (byte-stability of
        // interrupt-free reports).
        let steady = pvt_sweep(&SweepConfig {
            interrupts: None,
            ..config.clone()
        })
        .expect("sweep runs");
        assert_eq!(steady.violations(1), 0, "steady state must be clean");
        assert!(!steady.render().contains("interrupts"));
        assert!(!steady.render().contains("irq."));
        assert!(!steady.render().contains("entry_violations"));

        // An inactive spec (rate=0, timer=0) is normalized to "no
        // interrupts": attaching a handler that can never fire must not
        // perturb the report.
        let inactive = pvt_sweep(&SweepConfig {
            interrupts: Some(InterruptSpec {
                rate: 0.0,
                timer: 0,
                ..spec
            }),
            ..config.clone()
        })
        .expect("sweep runs");
        assert_eq!(inactive, steady);
        assert_eq!(inactive.render(), steady.render());
    }

    #[test]
    fn interrupts_compose_with_faults_bit_identically_across_engines() {
        // The combined scenario: deterministic droop faults *and* an
        // interrupt storm. Faults apply first, then the entry surge — the
        // canonical composition order every engine must share for the rows
        // to stay bit-identical. 37 corners (40 padded lanes) run the wide
        // kernel copy under both perturbations.
        for corners in [3, 37] {
            let config = SweepConfig {
                seeds: 2,
                corners,
                master_seed: 0xFA17,
                faults: Some(
                    FaultSpec::parse("seed=9,droop-rate=0.3,droop-mag=0.5,penalty=4")
                        .expect("valid fault spec"),
                ),
                interrupts: Some(
                    InterruptSpec::parse("seed=5,rate=0.003,timer=173,penalty=5")
                        .expect("valid interrupt spec"),
                ),
                ..SweepConfig::default()
            };
            let banked = pvt_sweep(&config).expect("sweep runs");
            let direct = pvt_sweep_direct(&config).expect("sweep runs");
            assert_eq!(
                banked, direct,
                "banked vs live, faults+interrupts, {corners} corners"
            );
            assert!(banked.irq_entries() > 0);
            // Fault recovery still classifies every violation, entry or not.
            for job in &banked.jobs {
                for p in &job.policies {
                    assert_eq!(p.recovered_cycles + p.silent_risk_cycles, p.violations);
                }
            }
        }
    }

    #[test]
    fn sweep_is_deterministic_and_covers_all_jobs() {
        let config = small_config();
        let a = pvt_sweep(&config).expect("sweep runs");
        let b = pvt_sweep(&config).expect("sweep runs");
        assert_eq!(a, b);
        assert_eq!(a.jobs.len(), 12);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn guarded_policies_stay_violation_free_in_distribution() {
        let report = pvt_sweep(&small_config()).expect("sweep runs");
        // static (0), instruction-based (1) and execute-only (2) carry the
        // full variation margin: no samplable corner may violate them.
        for (policy, name) in SWEEP_POLICIES.iter().enumerate().take(3) {
            assert_eq!(
                report.violations(policy),
                0,
                "{name} violated in-distribution"
            );
        }
    }

    #[test]
    fn dynamic_policies_beat_the_static_baseline_on_average() {
        let report = pvt_sweep(&small_config()).expect("sweep runs");
        let speedups = report.speedups(1);
        assert!(mean(&speedups) > 1.1, "mean speedup {}", mean(&speedups));
        assert!(quantile(&speedups, 0.05) > 1.0);
        // Adaptive recovers a solid share of the characterized gain.
        let recovery = mean(&report.adaptive_recovery());
        assert!(recovery > 0.8, "adaptive recovery {recovery}");
    }

    #[test]
    fn merge_order_does_not_change_the_report() {
        let config = small_config();
        let full = pvt_sweep(&config).expect("sweep runs");
        // Re-shard by corner parity and merge in the "wrong" order.
        let mut even = SweepReport::empty(&config, full.corner_samples.clone());
        let mut odd = SweepReport::empty(&config, full.corner_samples.clone());
        for job in &full.jobs {
            let target = if job.corner_index % 2 == 0 {
                &mut even
            } else {
                &mut odd
            };
            target.jobs.push(job.clone());
        }
        odd.jobs.reverse();
        let mut merged = SweepReport::empty(&config, full.corner_samples.clone());
        merged.merge(odd);
        merged.merge(even);
        assert_eq!(merged.render(), full.render());
    }

    #[test]
    fn quantiles_of_empty_samples_are_defined() {
        assert!(quantile(&[], 0.5).is_nan());
        assert!(mean(&[]).is_nan());
        let empty = SweepReport::empty(&small_config(), vec![]);
        // Rendering an empty report must not panic and must stay stable.
        assert_eq!(empty.render(), empty.render());
        assert_eq!(empty.total_cycles(), 0);
        assert_eq!(empty.violation_rate(1), 0.0);
    }
}
