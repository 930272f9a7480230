//! The three workloads: set-up, one closed-loop iteration, and the output
//! checks that run outside the timed loop.
//!
//! Every workload drives the same public entry points the `repro`
//! subcommands call. The library receives only generated programs and
//! sampled corners; the master seed stays in the benchmark.

use idca_bench::sweep::{pvt_sweep_direct, pvt_sweep_timed_with_cache};
use idca_bench::{
    merge_reports, pvt_sweep, pvt_sweep_seed_range_timed_with_cache, Corpus, Experiments,
    FaultSpec, InterruptSpec, ServeSession, SweepConfig, SweepReport, SweepShard, SweepTiming,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Corners of `sweep-corners`: wide enough that lane throughput dominates.
pub const CORNERS_CORNERS: u32 = 256;
/// Simulated cycles per corner in `sweep-corners` (about 64 programs).
pub const CORNERS_CYCLE_BUDGET: u64 = 44_000;
/// Corners of `sweep-fleet`: below the lane width, so fixed per-cycle
/// cost dominates replay.
pub const FLEET_CORNERS: u32 = 2;
/// Simulated cycles per corner in `sweep-fleet` (about 1000 programs).
pub const FLEET_CYCLE_BUDGET: u64 = 720_000;
/// `sweep-fleet` runs as this many `--shard K/N` ranges in sequence,
/// without a digest cache: cold cache writes are disk-bound and drift
/// run to run (see `README.md`).
pub const FLEET_SHARDS: u32 = 4;
/// The `--faults` spec of `sweep-fleet`.
pub const FLEET_FAULTS: &str =
    "seed=1,droop-rate=0.3,spike-rate=0.01,droop-mag=0.15,spike-mag=0.25";
/// The `--interrupts` spec of `sweep-fleet`.
pub const FLEET_INTERRUPTS: &str = "seed=1,rate=0.002,timer=150";
/// Seeds whose rows are checked against the `pvt_sweep_direct` oracle.
pub const ORACLE_SEEDS: u32 = 2;

/// One serve query per line of the fixed mix, with its kind. Every kind of
/// the protocol except `help` and `cache` (which read no index) appears.
pub const QUERY_MIX: [(&str, &str); 14] = [
    ("corpus", "corpus"),
    ("speedup", "speedup instruction-based"),
    ("speedup", "speedup adaptive"),
    ("quantile", "quantile instruction-based 0.5"),
    ("quantile", "quantile execute-only 0.95"),
    ("quantile", "quantile adaptive 0.05"),
    ("violations", "violations static"),
    ("violations", "violations instruction-based"),
    ("violations", "violations adaptive"),
    ("hist", "hist instruction-based"),
    ("hist", "hist adaptive"),
    ("recovery", "recovery"),
    ("risk", "risk instruction-based"),
    ("risk", "risk execute-only"),
];
/// The query kinds of [`QUERY_MIX`] with their per-kind latency metric.
pub const QUERY_KINDS: [(&str, &str); 7] = [
    ("corpus", "bench.serve.query_us.corpus"),
    ("speedup", "bench.serve.query_us.speedup"),
    ("quantile", "bench.serve.query_us.quantile"),
    ("violations", "bench.serve.query_us.violations"),
    ("hist", "bench.serve.query_us.hist"),
    ("recovery", "bench.serve.query_us.recovery"),
    ("risk", "bench.serve.query_us.risk"),
];
/// How often one `sweep-fleet` iteration sends the whole mix.
pub const QUERY_ROUNDS: usize = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperRepro,
    SweepCorners,
    SweepFleet,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperRepro, Kind::SweepCorners, Kind::SweepFleet];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperRepro => "paper-repro",
            Kind::SweepCorners => "sweep-corners",
            Kind::SweepFleet => "sweep-fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// A workload ready to iterate: its sweep configuration (unused by
/// `paper-repro`), its scratch directory and the reference output every
/// iteration must reproduce byte for byte.
pub struct Prepared {
    pub kind: Kind,
    pub config: SweepConfig,
    pub cache_dir: PathBuf,
    /// The rendered output of one reference run.
    pub reference: String,
    /// The reference sweep report (sweep workloads only).
    pub report: Option<SweepReport>,
}

/// What one iteration produced.
pub struct IterOutput {
    /// The rendered report; must equal [`Prepared::reference`].
    pub text: String,
    /// Simulated cycle·corner evaluations of the iteration.
    pub cycle_corners: u64,
    /// Phase timings summed over the iteration's sweeps.
    pub timing: SweepTiming,
    /// Per serve query: index into [`QUERY_KINDS`], latency, and whether
    /// it returned an error.
    pub queries: Vec<(usize, Duration, bool)>,
}

/// The sweep configuration of a sweep workload before its seed count is
/// fixed.
pub fn base_config(kind: Kind, seed: u64) -> Result<SweepConfig, String> {
    let config = SweepConfig {
        master_seed: seed,
        ..SweepConfig::default()
    };
    match kind {
        Kind::PaperRepro => Ok(config),
        Kind::SweepCorners => Ok(SweepConfig {
            corners: CORNERS_CORNERS,
            ..config
        }),
        Kind::SweepFleet => Ok(SweepConfig {
            corners: FLEET_CORNERS,
            faults: Some(FaultSpec::parse(FLEET_FAULTS).map_err(|e| e.to_string())?),
            interrupts: Some(InterruptSpec::parse(FLEET_INTERRUPTS).map_err(|e| e.to_string())?),
            ..config
        }),
    }
}

/// The smallest seed count whose programs hold `budget` simulated cycles.
/// Fixing the work instead of the seed count keeps iteration walls
/// comparable across master seeds; the seed count is recorded with each
/// result. Program cycles do not depend on corners or faults, so a
/// one-corner, fault-free probe measures them.
fn budgeted_seeds(config: &SweepConfig, budget: u64, probe_seeds: u32) -> Result<u32, String> {
    let probe = SweepConfig {
        seeds: probe_seeds,
        corners: 1,
        faults: None,
        ..config.clone()
    };
    let report = pvt_sweep(&probe).map_err(|e| e.to_string())?;
    let mut total = 0;
    for job in &report.jobs {
        total += job.cycles;
        if total >= budget {
            return Ok(job.seed_index + 1);
        }
    }
    Err(format!(
        "{probe_seeds} probe programs hold only {total} of {budget} budgeted cycles"
    ))
}

/// Empties `dir`, creating it if needed.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Prepares `kind` for its first timed iteration: generates the inputs
/// from `seed`, warms the digest cache of `sweep-corners`, and builds the
/// reference output.
pub fn setup(kind: Kind, seed: u64, work_dir: &Path) -> Result<Prepared, String> {
    let cache_dir = work_dir.join("digest-cache");
    fresh_dir(&cache_dir)?;
    let mut config = base_config(kind, seed)?;
    let (reference, report) = match kind {
        Kind::PaperRepro => (paper_text(&Experiments::prepare()), None),
        Kind::SweepCorners => {
            config.seeds = budgeted_seeds(&config, CORNERS_CYCLE_BUDGET, 128)?;
            // A cold pass fills the cache; the warm pass is the reference.
            pvt_sweep_timed_with_cache(&config, Some(&cache_dir)).map_err(|e| e.to_string())?;
            let (report, timing) =
                pvt_sweep_timed_with_cache(&config, Some(&cache_dir)).map_err(|e| e.to_string())?;
            if timing.digest_cache_hits != config.seeds {
                return Err(format!(
                    "warm cache served {} of {} digests",
                    timing.digest_cache_hits, config.seeds
                ));
            }
            (report.render(), Some(report))
        }
        Kind::SweepFleet => {
            config.seeds = budgeted_seeds(&config, FLEET_CYCLE_BUDGET, 1500)?;
            let report = pvt_sweep(&config).map_err(|e| e.to_string())?;
            (report.render(), Some(report))
        }
    };
    Ok(Prepared {
        kind,
        config,
        cache_dir,
        reference,
        report,
    })
}

impl Prepared {
    /// The input shape, for the result's context stamp.
    pub fn shape(&self) -> String {
        match self.kind {
            Kind::PaperRepro => format!(
                "characterization seed {:#x}, 14-kernel suite, every repro experiment",
                idca_bench::CHARACTERIZATION_SEED
            ),
            Kind::SweepCorners => format!(
                "{} seeds x {} corners, warm digest cache",
                self.config.seeds, self.config.corners
            ),
            Kind::SweepFleet => format!(
                "{} seeds x {} corners, {FLEET_SHARDS} shards, no digest cache, faults {FLEET_FAULTS}, interrupts {FLEET_INTERRUPTS}",
                self.config.seeds, self.config.corners
            ),
        }
    }

    /// One iteration of the closed loop.
    pub fn iterate(&self) -> Result<IterOutput, String> {
        match self.kind {
            Kind::PaperRepro => {
                let exp = Experiments::prepare();
                let cycle_corners = exp.characterization.cycles
                    + exp.suite_digests.iter().map(|d| d.cycles()).sum::<u64>();
                Ok(IterOutput {
                    text: paper_text(&exp),
                    cycle_corners,
                    timing: SweepTiming::default(),
                    queries: Vec::new(),
                })
            }
            Kind::SweepCorners => {
                let (report, timing) =
                    pvt_sweep_timed_with_cache(&self.config, Some(&self.cache_dir))
                        .map_err(|e| e.to_string())?;
                Ok(IterOutput {
                    text: report.render(),
                    cycle_corners: report.total_cycles(),
                    timing,
                    queries: Vec::new(),
                })
            }
            Kind::SweepFleet => self.iterate_fleet(),
        }
    }

    fn iterate_fleet(&self) -> Result<IterOutput, String> {
        let mut timing = SweepTiming::default();
        let mut parts = Vec::with_capacity(FLEET_SHARDS as usize);
        for index in 1..=FLEET_SHARDS {
            let shard = SweepShard::new(index, FLEET_SHARDS).map_err(|e| e.to_string())?;
            let (part, t) = pvt_sweep_seed_range_timed_with_cache(
                &self.config,
                shard.seed_range(self.config.seeds),
                None,
            )
            .map_err(|e| e.to_string())?;
            add_timing(&mut timing, &t);
            parts.push(part.to_bytes());
        }
        let decoded = parts
            .iter()
            .map(|bytes| SweepReport::from_bytes(bytes))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let merged = merge_reports(decoded).map_err(|e| e.to_string())?;
        let text = merged.render();
        let cycle_corners = merged.total_cycles();
        let mut corpus = Corpus::new();
        corpus.ingest(merged).map_err(|e| e.to_string())?;
        let session = ServeSession::new(corpus, None);
        let mut queries = Vec::with_capacity(QUERY_ROUNDS * QUERY_MIX.len());
        for _ in 0..QUERY_ROUNDS {
            for (kind, line) in QUERY_MIX {
                let start = Instant::now();
                let reply = session.query(black_box(line));
                let latency = start.elapsed();
                queries.push((query_kind(kind), latency, black_box(reply).is_err()));
            }
        }
        Ok(IterOutput {
            text,
            cycle_corners,
            timing,
            queries,
        })
    }

    /// The output checks that run outside the timed loop, by name. The
    /// per-iteration byte comparison against [`Prepared::reference`] is made
    /// by the caller.
    pub fn checks(&self) -> Vec<(&'static str, Result<(), String>)> {
        let mut checks = vec![("one-thread-bytes", self.check_one_thread())];
        match self.kind {
            Kind::PaperRepro => checks.push(("paper-claims", check_paper_claims())),
            Kind::SweepCorners | Kind::SweepFleet => {
                checks.push(("direct-oracle", self.check_oracle()));
            }
        }
        checks
    }

    /// The reference ran at the default worker count; one worker must give
    /// the same bytes.
    fn check_one_thread(&self) -> Result<(), String> {
        let text = with_threads(1, || -> Result<String, String> {
            Ok(match self.kind {
                Kind::PaperRepro => paper_text(&Experiments::prepare()),
                Kind::SweepCorners => {
                    pvt_sweep_timed_with_cache(&self.config, Some(&self.cache_dir))
                        .map_err(|e| e.to_string())?
                        .0
                        .render()
                }
                Kind::SweepFleet => pvt_sweep(&self.config).map_err(|e| e.to_string())?.render(),
            })
        })?;
        check_output(&self.reference, &text)
    }

    /// The first [`ORACLE_SEEDS`] seeds' rows match the single-phase
    /// `pvt_sweep_direct` reference engine bit for bit.
    fn check_oracle(&self) -> Result<(), String> {
        let report = self.report.as_ref().ok_or("no reference report")?;
        let config = SweepConfig {
            seeds: ORACLE_SEEDS,
            ..self.config.clone()
        };
        let oracle = pvt_sweep_direct(&config).map_err(|e| e.to_string())?;
        let rows = &report.jobs[..oracle.jobs.len()];
        if oracle.jobs != rows || oracle.corner_samples != report.corner_samples {
            return Err("rows differ from the pvt_sweep_direct oracle".to_string());
        }
        Ok(())
    }
}

/// Adds one sweep's phase timings to a running total.
pub fn add_timing(total: &mut SweepTiming, t: &SweepTiming) {
    total.simulate += t.simulate;
    total.predecode += t.predecode;
    total.replay += t.replay;
    total.policy_replay += t.policy_replay;
    total.simulated_programs += t.simulated_programs;
    total.digest_cache_hits += t.digest_cache_hits;
}

/// Index of a query kind in [`QUERY_KINDS`].
pub fn query_kind(kind: &str) -> usize {
    QUERY_KINDS
        .iter()
        .position(|(k, _)| *k == kind)
        .expect("every mix entry names a listed kind")
}

/// Compares an iteration's output with the reference.
pub fn check_output(reference: &str, text: &str) -> Result<(), String> {
    if reference == text {
        return Ok(());
    }
    let line = reference
        .lines()
        .zip(text.lines())
        .position(|(a, b)| a != b)
        .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
    Err(format!("output differs from the reference at {line}"))
}

/// Runs `f` with the parallel map limited to `threads` workers. Only the
/// main thread calls this, between parallel regions.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let previous = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let result = f();
    match previous {
        Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    result
}

/// The worker count the parallel map uses: `RAYON_NUM_THREADS` when set,
/// else the core count.
pub fn worker_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(nproc)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Fig. 8 mean speedup of the instruction-based policy in percent.
fn fig8_percent(summary: &idca_core::eval::SuiteSummary) -> f64 {
    (summary.mean_speedup() - 1.0) * 100.0
}

/// `paper-repro` keeps the paper's headline: 0 violations across the
/// suite and +41.9 % mean speedup.
fn check_paper_claims() -> Result<(), String> {
    let (_, summary) = Experiments::prepare().fig8();
    let percent = format!("{:.1}", fig8_percent(&summary));
    if summary.total_violations() != 0 || percent != "41.9" {
        return Err(format!(
            "Fig. 8: {} violations, +{percent} % (expected 0 and +41.9 %)",
            summary.total_violations()
        ));
    }
    Ok(())
}

/// |Fig. 8 mean speedup − the paper's +38 %| in percentage points.
pub fn paper_gap_pp(exp: &Experiments) -> f64 {
    (fig8_percent(&exp.fig8().1) - idca_bench::paper::FIG8_SPEEDUP_PERCENT).abs()
}

/// The outputs of every experiment `repro` runs with no flags, in its
/// order (`--summary` repeats Fig. 5 and Fig. 8).
pub struct PaperOutputs {
    pub fig5: idca_bench::Fig5,
    pub fig6: Vec<idca_bench::Fig6Row>,
    pub table1: Vec<idca_bench::Table1Row>,
    pub table2: Vec<idca_core::Table2Row>,
    pub fig7: Vec<idca_bench::Fig7Row>,
    pub fig8: (Vec<idca_bench::Fig8Row>, idca_core::eval::SuiteSummary),
    pub power: idca_core::vfs::VoltageScalingResult,
    pub ablations: idca_bench::Ablations,
    pub summary_fig5: idca_bench::Fig5,
    pub summary_fig8: idca_core::eval::SuiteSummary,
}

impl PaperOutputs {
    /// Every value at full precision, one experiment per line.
    pub fn render(&self) -> String {
        format!(
            "fig5={:?}\nfig6={:?}\ntable1={:?}\ntable2={:?}\nfig7={:?}\nfig8={:?}\npower={:?}\nablations={:?}\nsummary.fig5={:?}\nsummary.fig8={:?}\n",
            self.fig5,
            self.fig6,
            self.table1,
            self.table2,
            self.fig7,
            self.fig8,
            self.power,
            self.ablations,
            self.summary_fig5,
            self.summary_fig8,
        )
    }
}

/// Runs every `repro` experiment on prepared state and renders the results.
pub fn paper_text(exp: &Experiments) -> String {
    PaperOutputs {
        fig5: exp.fig5(),
        fig6: exp.fig6(),
        table1: exp.table1(),
        table2: exp.table2(),
        fig7: exp.fig7(),
        fig8: exp.fig8(),
        power: exp.power_scaling(),
        ablations: exp.ablations(),
        summary_fig5: exp.fig5(),
        summary_fig8: exp.fig8().1,
    }
    .render()
}

/// Wall time of `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}
