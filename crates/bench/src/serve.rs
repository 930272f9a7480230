//! Sweep-as-a-service: the in-memory corpus index behind `repro serve`.
//!
//! A sharded fleet produces merged [`SweepReport`] files (the binary format
//! of [`SweepReport::to_bytes`]); this module turns a directory of them
//! into a long-running query service. Ingestion happens **once**, at
//! startup: per-policy speedup samples (kept sorted for nearest-rank
//! quantiles), violation totals and speedup histograms (folded with
//! [`Histogram::merge`]) are indexed in memory, and every query after that
//! is answered from the index — the replay engine, the pipeline simulator
//! and the report files themselves are never touched again.
//!
//! The query protocol is a pure function from a request line to a reply
//! string ([`ServeSession::query`]), so the whole service — including its
//! error replies — is unit-testable without a process or a socket. The
//! `repro serve` binary is a thin stdin/stdout loop around it.

use crate::sweep::{mean, quantile_sorted, SweepReport, SWEEP_POLICIES};
use idca_timing::Histogram;
use std::path::Path;

/// Speedup histograms cover `[0, 2)` baseline ratios in 0.05 steps: wide
/// enough for every policy (speedups cluster in 1.0–1.6), fine enough that
/// the ASCII rendering shows the distribution shape.
fn speedup_histogram() -> Histogram {
    Histogram::new(0.0, 2.0, 0.05)
}

/// Identity of one ingested report, used to reject duplicate ingestion
/// (the same merged report indexed twice would double every statistic).
/// The fault-spec and interrupt-spec fingerprints are part of the identity:
/// the same sweep run under a different fault or interrupt scenario is a
/// different experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReportKey {
    master_seed: u64,
    seeds: u32,
    corners: u32,
    fault_fingerprint: Option<u64>,
    interrupt_fingerprint: Option<u64>,
}

/// Per-policy aggregate over every ingested report.
#[derive(Debug, Clone)]
struct PolicyIndex {
    violations: u64,
    violating_jobs: u64,
    /// All per-job speedups versus the static baseline, kept sorted so
    /// quantile queries are a direct nearest-rank lookup.
    speedups: Vec<f64>,
    histogram: Histogram,
    /// Fault-violation cycles absorbed by the K-cycle replay mechanism.
    recovered: u64,
    /// Replay-penalty cycles charged for those recoveries.
    replay_penalty: u64,
    /// Margin-exceeding cycles the detection window missed (silent risk).
    silent_risk: u64,
    /// Per-job speedups on the recovery-adjusted clock, kept sorted.
    effective_speedups: Vec<f64>,
}

/// The in-memory index `repro serve` answers from.
///
/// # Example
///
/// ```
/// use idca_bench::{pvt_sweep, Corpus, SweepConfig};
///
/// let report = pvt_sweep(&SweepConfig { seeds: 2, corners: 2, ..SweepConfig::default() })?;
/// let mut corpus = Corpus::new();
/// corpus.ingest(report)?;
/// assert_eq!(corpus.reports(), 1);
/// assert!(corpus.quantile("adaptive", 0.5)?.is_finite());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Corpus {
    keys: Vec<ReportKey>,
    jobs: u64,
    cycles: u64,
    policies: [PolicyIndex; SWEEP_POLICIES.len()],
    /// Sorted adaptive recovery fractions (fraction of the corner's
    /// adaptive frequency gain retained after warm-up).
    recovery: Vec<f64>,
}

impl Default for Corpus {
    fn default() -> Self {
        Corpus::new()
    }
}

impl Corpus {
    /// Creates an empty corpus.
    #[must_use]
    pub fn new() -> Self {
        Corpus {
            keys: Vec::new(),
            jobs: 0,
            cycles: 0,
            policies: std::array::from_fn(|_| PolicyIndex {
                violations: 0,
                violating_jobs: 0,
                speedups: Vec::new(),
                histogram: speedup_histogram(),
                recovered: 0,
                replay_penalty: 0,
                silent_risk: 0,
                effective_speedups: Vec::new(),
            }),
            recovery: Vec::new(),
        }
    }

    /// Folds one report into the index. This is the only moment report
    /// contents are read; queries never revisit them.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::DuplicateReport`] when a report with the same
    /// `(master seed, seeds, corners)` identity was already ingested —
    /// indexing it twice would silently double every aggregate.
    pub fn ingest(&mut self, report: SweepReport) -> Result<(), CorpusError> {
        let key = ReportKey {
            master_seed: report.master_seed,
            seeds: report.seeds,
            corners: report.corners,
            fault_fingerprint: report.faults.map(|s| s.fingerprint()),
            interrupt_fingerprint: report.interrupts.map(|s| s.fingerprint()),
        };
        if self.keys.contains(&key) {
            return Err(CorpusError::DuplicateReport {
                master_seed: key.master_seed,
                seeds: key.seeds,
                corners: key.corners,
            });
        }
        self.keys.push(key);
        self.jobs += report.jobs.len() as u64;
        self.cycles += report.total_cycles();
        for (policy, index) in self.policies.iter_mut().enumerate() {
            index.violations += report.violations(policy);
            index.violating_jobs += u64::from(report.violating_jobs(policy));
            let mut incoming = speedup_histogram();
            for &speedup in &report.speedups(policy) {
                incoming.add(speedup);
            }
            index
                .histogram
                .merge(&incoming)
                .expect("corpus histograms share one fixed binning");
            index.speedups.extend(report.speedups(policy));
            index.speedups.sort_by(f64::total_cmp);
            index.recovered += report.recovered(policy);
            index.replay_penalty += report.replay_penalty(policy);
            index.silent_risk += report.silent_risk(policy);
            index
                .effective_speedups
                .extend(report.effective_speedups(policy));
            index.effective_speedups.sort_by(f64::total_cmp);
        }
        self.recovery.extend(report.adaptive_recovery());
        self.recovery.sort_by(f64::total_cmp);
        Ok(())
    }

    /// Number of reports ingested.
    #[must_use]
    pub fn reports(&self) -> usize {
        self.keys.len()
    }

    /// Total `(seed, corner)` jobs across all ingested reports.
    #[must_use]
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Total simulated cycles across all ingested reports.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Resolves a policy by [`SWEEP_POLICIES`] name or index.
    fn policy(&self, name: &str) -> Result<usize, QueryError> {
        if let Some(position) = SWEEP_POLICIES.iter().position(|&p| p == name) {
            return Ok(position);
        }
        name.parse::<usize>()
            .ok()
            .filter(|&i| i < SWEEP_POLICIES.len())
            .ok_or_else(|| QueryError::UnknownPolicy(name.to_string()))
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`) of a policy's speedups over
    /// the whole corpus.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownPolicy`] for an unrecognized policy.
    pub fn quantile(&self, policy: &str, q: f64) -> Result<f64, QueryError> {
        let policy = self.policy(policy)?;
        Ok(quantile_sorted(&self.policies[policy].speedups, q))
    }
}

/// Errors of [`Corpus::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CorpusError {
    /// A report with this identity is already indexed.
    DuplicateReport {
        /// Master seed of the duplicate.
        master_seed: u64,
        /// Seed count of the duplicate.
        seeds: u32,
        /// Corner count of the duplicate.
        corners: u32,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::DuplicateReport {
                master_seed,
                seeds,
                corners,
            } => write!(
                f,
                "report (master seed {master_seed:#x}, {seeds} seeds x {corners} corners) is already in the corpus"
            ),
        }
    }
}

impl std::error::Error for CorpusError {}

/// Errors a query line can produce. These become `error: ...` reply lines,
/// never a panic and never a dropped connection.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// The verb is not part of the protocol.
    UnknownCommand(
        /// The offending verb.
        String,
    ),
    /// The policy argument matches no [`SWEEP_POLICIES`] name or index.
    UnknownPolicy(
        /// The offending policy argument.
        String,
    ),
    /// Wrong number of arguments for the verb.
    BadArity {
        /// The usage line of the verb.
        usage: &'static str,
    },
    /// An argument did not parse as the number the verb needs.
    BadNumber(
        /// The offending argument.
        String,
    ),
    /// The raw request line is not valid UTF-8. Raised by the server's
    /// stdin loop (queries themselves take `&str`), answered like any other
    /// query error so a binary paste cannot kill the session.
    InvalidUtf8,
    /// The raw request line exceeds the server's line-length cap.
    LineTooLong {
        /// The cap, in bytes, the line overran.
        limit: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownCommand(verb) => {
                write!(f, "unknown command {verb:?} (try: help)")
            }
            QueryError::UnknownPolicy(policy) => write!(
                f,
                "unknown policy {policy:?} (policies: {})",
                SWEEP_POLICIES.join(", ")
            ),
            QueryError::BadArity { usage } => write!(f, "usage: {usage}"),
            QueryError::BadNumber(argument) => {
                write!(f, "not a number: {argument:?}")
            }
            QueryError::InvalidUtf8 => {
                write!(f, "query line is not valid UTF-8")
            }
            QueryError::LineTooLong { limit } => {
                write!(f, "query line exceeds {limit} bytes")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Statistics of a warm digest cache attached to the service (so operators
/// can verify a fleet's shared cache actually populated). Counting is by
/// directory scan — entries are validated lazily by the sweep engine on
/// use, not here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestCacheStats {
    /// Number of `digest-*.bin` entries in the cache directory.
    pub entries: u64,
    /// Total size of those entries in bytes.
    pub bytes: u64,
}

impl DigestCacheStats {
    /// Scans a digest-cache directory, counting `digest-*.bin` entries.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be read.
    pub fn scan(dir: &Path) -> std::io::Result<DigestCacheStats> {
        let mut stats = DigestCacheStats::default();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if crate::sweep::is_cache_entry_name(&name) {
                stats.entries += 1;
                stats.bytes += entry.metadata()?.len();
            }
        }
        Ok(stats)
    }
}

/// One `repro serve` session: the corpus index plus optional warm-cache
/// statistics, answering the line-based query protocol.
#[derive(Debug, Clone)]
pub struct ServeSession {
    corpus: Corpus,
    cache: Option<DigestCacheStats>,
}

/// The `help` reply, doubling as the protocol reference.
const HELP: &str = "commands:\n\
  corpus                   reports / jobs / cycles in the index\n\
  speedup <policy>         mean/min/max speedup vs the static baseline\n\
  quantile <policy> <q>    nearest-rank speedup quantile, q in [0,1]\n\
  violations <policy>      violation totals and rate for a policy\n\
  hist <policy>            ASCII speedup histogram\n\
  recovery                 adaptive post-warm-up recovery quantiles\n\
  risk <policy>            fault recovery / replay-penalty / silent-risk totals\n\
  cache                    warm digest-cache statistics\n\
  help                     this text\n\
  quit                     end the session\n\
policies: static, instruction-based, execute-only, adaptive (or 0-3)";

impl ServeSession {
    /// Builds a session over an ingested corpus; `cache` carries the
    /// statistics of the warm digest cache, if one was attached.
    #[must_use]
    pub fn new(corpus: Corpus, cache: Option<DigestCacheStats>) -> Self {
        ServeSession { corpus, cache }
    }

    /// Read-only view of the indexed corpus.
    #[must_use]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Answers one query line. Pure: no I/O, no replay, no mutation — every
    /// reply comes from the in-memory index built at ingest time.
    ///
    /// # Errors
    ///
    /// Returns a [`QueryError`] for lines that are not valid queries; the
    /// server loop renders it as an `error: ...` reply and keeps serving.
    pub fn query(&self, line: &str) -> Result<String, QueryError> {
        let mut words = line.split_whitespace();
        let Some(verb) = words.next() else {
            return Ok(String::new());
        };
        let arguments: Vec<&str> = words.collect();
        let arity = |count: usize, usage: &'static str| {
            if arguments.len() == count {
                Ok(())
            } else {
                Err(QueryError::BadArity { usage })
            }
        };
        match verb {
            "help" => {
                arity(0, "help")?;
                Ok(HELP.to_string())
            }
            "corpus" => {
                arity(0, "corpus")?;
                Ok(format!(
                    "reports={} jobs={} cycles={}",
                    self.corpus.reports(),
                    self.corpus.jobs(),
                    self.corpus.cycles()
                ))
            }
            "speedup" => {
                arity(1, "speedup <policy>")?;
                let policy = self.corpus.policy(arguments[0])?;
                let samples = &self.corpus.policies[policy].speedups;
                Ok(format!(
                    "policy={} n={} mean={:.4} min={:.4} max={:.4}",
                    SWEEP_POLICIES[policy],
                    samples.len(),
                    mean(samples),
                    samples.first().copied().unwrap_or(f64::NAN),
                    samples.last().copied().unwrap_or(f64::NAN),
                ))
            }
            "quantile" => {
                arity(2, "quantile <policy> <q>")?;
                let q: f64 = arguments[1]
                    .parse()
                    .map_err(|_| QueryError::BadNumber(arguments[1].to_string()))?;
                let policy = self.corpus.policy(arguments[0])?;
                Ok(format!(
                    "policy={} q={} speedup={:.4}",
                    SWEEP_POLICIES[policy],
                    q,
                    self.corpus.quantile(arguments[0], q)?
                ))
            }
            "violations" => {
                arity(1, "violations <policy>")?;
                let policy = self.corpus.policy(arguments[0])?;
                let index = &self.corpus.policies[policy];
                let rate = if self.corpus.cycles == 0 {
                    0.0
                } else {
                    index.violations as f64 / self.corpus.cycles as f64
                };
                Ok(format!(
                    "policy={} violations={} violating_jobs={} rate={:.3e}",
                    SWEEP_POLICIES[policy], index.violations, index.violating_jobs, rate
                ))
            }
            "hist" => {
                arity(1, "hist <policy>")?;
                let policy = self.corpus.policy(arguments[0])?;
                let histogram = &self.corpus.policies[policy].histogram;
                // The shared ASCII renderer labels bin edges in ps; these
                // bins are speedup ratios, so render the bars directly.
                let peak = histogram.bins().map(|(_, c)| c).max().unwrap_or(0).max(1);
                let mut reply = format!("policy={} speedup histogram", SWEEP_POLICIES[policy]);
                let mut populated = false;
                for (edge, count) in histogram.bins() {
                    if count == 0 {
                        continue;
                    }
                    populated = true;
                    let bar = "#".repeat((count as f64 / peak as f64 * 40.0).ceil() as usize);
                    reply.push_str(&format!("\n  {edge:5.2}x | {bar} {count}"));
                }
                if !populated {
                    reply.push_str("\n  (empty)");
                }
                Ok(reply)
            }
            "recovery" => {
                arity(0, "recovery")?;
                let samples = &self.corpus.recovery;
                Ok(format!(
                    "n={} mean={:.4} p05={:.4} p50={:.4}",
                    samples.len(),
                    mean(samples),
                    quantile_sorted(samples, 0.05),
                    quantile_sorted(samples, 0.50),
                ))
            }
            "risk" => {
                arity(1, "risk <policy>")?;
                let policy = self.corpus.policy(arguments[0])?;
                let index = &self.corpus.policies[policy];
                Ok(format!(
                    "policy={} recovered={} replay_penalty={} silent_risk={} effective_speedup_mean={:.4}",
                    SWEEP_POLICIES[policy],
                    index.recovered,
                    index.replay_penalty,
                    index.silent_risk,
                    mean(&index.effective_speedups),
                ))
            }
            "cache" => {
                arity(0, "cache")?;
                Ok(match self.cache {
                    Some(stats) => format!(
                        "digest_cache entries={} bytes={}",
                        stats.entries, stats.bytes
                    ),
                    None => "digest_cache none".to_string(),
                })
            }
            other => Err(QueryError::UnknownCommand(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{pvt_sweep, SweepConfig};

    fn report(master_seed: u64) -> SweepReport {
        pvt_sweep(&SweepConfig {
            seeds: 3,
            corners: 2,
            master_seed,
            ..SweepConfig::default()
        })
        .expect("sweep runs")
    }

    fn session() -> ServeSession {
        let mut corpus = Corpus::new();
        corpus.ingest(report(0x5EED)).expect("first ingest");
        corpus.ingest(report(0xBEEF)).expect("second ingest");
        ServeSession::new(
            corpus,
            Some(DigestCacheStats {
                entries: 6,
                bytes: 1234,
            }),
        )
    }

    #[test]
    fn ingest_rejects_duplicates_and_counts_jobs() {
        let mut corpus = Corpus::new();
        corpus.ingest(report(0x5EED)).expect("first ingest");
        let error = corpus.ingest(report(0x5EED)).expect_err("duplicate");
        assert!(matches!(error, CorpusError::DuplicateReport { .. }));
        assert!(error.to_string().contains("already in the corpus"));
        assert_eq!(corpus.reports(), 1);
        assert_eq!(corpus.jobs(), 6);
        assert!(corpus.cycles() > 0);
    }

    #[test]
    fn queries_answer_from_the_index() {
        let session = session();
        assert_eq!(
            session.query("corpus").unwrap(),
            "reports=2 jobs=12 cycles=".to_string() + &session.corpus().cycles().to_string()
        );
        let speedup = session.query("speedup adaptive").unwrap();
        assert!(
            speedup.starts_with("policy=adaptive n=12 mean="),
            "{speedup}"
        );
        let quantile = session.query("quantile 3 0.5").unwrap();
        assert!(
            quantile.starts_with("policy=adaptive q=0.5 speedup="),
            "{quantile}"
        );
        let violations = session.query("violations static").unwrap();
        assert!(violations.contains("violations=0"), "{violations}");
        assert!(session.query("hist adaptive").unwrap().contains('#'));
        assert!(session.query("recovery").unwrap().starts_with("n="));
        assert_eq!(
            session.query("cache").unwrap(),
            "digest_cache entries=6 bytes=1234"
        );
        assert!(session.query("help").unwrap().contains("quantile"));
        assert_eq!(session.query("   ").unwrap(), "");
    }

    #[test]
    fn quantiles_are_consistent_with_sorted_samples() {
        let session = session();
        let minimum = session.corpus().quantile("adaptive", 0.0).unwrap();
        let maximum = session.corpus().quantile("adaptive", 1.0).unwrap();
        let median = session.corpus().quantile("adaptive", 0.5).unwrap();
        assert!(minimum <= median && median <= maximum);
    }

    #[test]
    fn bad_queries_are_structured_errors_not_panics() {
        let session = session();
        assert_eq!(
            session.query("stats"),
            Err(QueryError::UnknownCommand("stats".to_string()))
        );
        assert_eq!(
            session.query("speedup warp-drive"),
            Err(QueryError::UnknownPolicy("warp-drive".to_string()))
        );
        assert_eq!(
            session.query("quantile adaptive"),
            Err(QueryError::BadArity {
                usage: "quantile <policy> <q>"
            })
        );
        assert_eq!(
            session.query("quantile adaptive fast"),
            Err(QueryError::BadNumber("fast".to_string()))
        );
        // Out-of-range q is clamped by the quantile helper, not an error.
        assert!(session.query("quantile adaptive 7").is_ok());
        for (error, needle) in [
            (session.query("nope").unwrap_err(), "unknown command"),
            (session.query("speedup x").unwrap_err(), "unknown policy"),
            (session.query("recovery 1").unwrap_err(), "usage:"),
        ] {
            assert!(error.to_string().contains(needle), "{error}");
        }
    }

    #[test]
    fn risk_query_reports_fault_recovery_totals() {
        use idca_timing::FaultSpec;

        let spec =
            FaultSpec::parse("seed=3,droop-rate=0.6,droop-mag=0.8,penalty=4").expect("valid spec");
        let faulted = pvt_sweep(&SweepConfig {
            seeds: 3,
            corners: 2,
            master_seed: 0x5EED,
            faults: Some(spec),
            ..SweepConfig::default()
        })
        .expect("faulted sweep runs");
        let mut corpus = Corpus::new();
        // Same grid and master seed, different fault scenario: a distinct
        // experiment, so both ingest cleanly.
        corpus.ingest(report(0x5EED)).expect("unfaulted ingest");
        corpus.ingest(faulted.clone()).expect("faulted ingest");
        let error = corpus.ingest(faulted).expect_err("duplicate faulted");
        assert!(matches!(error, CorpusError::DuplicateReport { .. }));

        let session = ServeSession::new(corpus, None);
        let risk = session.query("risk adaptive").unwrap();
        assert!(risk.starts_with("policy=adaptive recovered="), "{risk}");
        assert!(risk.contains("silent_risk="), "{risk}");
        assert!(risk.contains("effective_speedup_mean="), "{risk}");
        // The faulted half of the corpus recorded recovery activity.
        let statics = session.query("risk static").unwrap();
        let total: u64 = SWEEP_POLICIES
            .iter()
            .map(|p| {
                let reply = session.query(&format!("risk {p}")).unwrap();
                reply
                    .split_whitespace()
                    .find_map(|w| w.strip_prefix("recovered="))
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap()
            })
            .sum();
        assert!(total > 0, "no recovery activity indexed: {statics}");
        assert_eq!(
            session.query("risk"),
            Err(QueryError::BadArity {
                usage: "risk <policy>"
            })
        );
    }

    #[test]
    fn hardening_errors_render_structured_messages() {
        assert_eq!(
            QueryError::InvalidUtf8.to_string(),
            "query line is not valid UTF-8"
        );
        assert_eq!(
            QueryError::LineTooLong { limit: 4096 }.to_string(),
            "query line exceeds 4096 bytes"
        );
    }

    #[test]
    fn cache_stats_scan_counts_only_digest_entries() {
        let dir = std::env::temp_dir().join(format!("idca-serve-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("digest-00aa-11bb-v1.bin"), [0u8; 16]).unwrap();
        std::fs::write(dir.join("digest-00cc-11dd-v1.bin"), [0u8; 8]).unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a cache entry").unwrap();
        let stats = DigestCacheStats::scan(&dir).unwrap();
        assert_eq!(
            stats,
            DigestCacheStats {
                entries: 2,
                bytes: 24
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
