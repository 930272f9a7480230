//! `repro` — regenerates every table and figure of the paper's evaluation
//! section and prints paper-vs-measured rows (the source of EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p idca-bench --bin repro [-- --fig5 --table2 ...]`
//! With no flags, every experiment is reproduced. Unknown flags are
//! rejected (a typo like `--fig9` must not silently select nothing).
//!
//! The `sweep` subcommand runs the Monte Carlo PVT sweep instead:
//! `repro sweep --seeds N --corners M --seed S` prints a stable,
//! machine-readable `key=value` report that is byte-identical across thread
//! counts and repeated runs with the same seed. With `--shard K/N` it runs
//! only the `K`-th of `N` deterministic seed partitions and writes a
//! checksummed binary partial report (`--out`); `repro merge` folds the
//! partials back into the byte-identical single-process report, and
//! `repro serve` answers quantile/violation/speedup queries over a
//! directory of merged reports without ever re-running the replay engine.

use idca_bench::sweep::pvt_sweep_timed_with_cache;
use idca_bench::{
    merge_reports, paper, pvt_sweep_seed_range_timed_with_cache, write_atomic, Corpus,
    DigestCacheStats, Experiments, FaultSpec, InterruptSpec, QueryError, ServeSession, SweepConfig,
    SweepReport, SweepShard, SweepTiming,
};
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The accepted experiment flags with their descriptions.
const FLAGS: [(&str, &str); 9] = [
    (
        "--fig5",
        "per-cycle dynamic-delay histogram and genie bound",
    ),
    ("--fig6", "limiting-pipeline-stage shares"),
    ("--fig7", "per-stage dynamic delays of l.mul"),
    ("--fig8", "per-benchmark effective clock frequency"),
    ("--table1", "critical-range optimization max-delay factors"),
    ("--table2", "per-instruction worst-case dynamic delays"),
    ("--power", "iso-throughput voltage scaling (§IV-B)"),
    ("--ablations", "design-choice sensitivity studies"),
    ("--summary", "headline paper-vs-measured summary"),
];

fn print_help() {
    println!("repro — regenerates the paper's tables and figures (paper vs measured)");
    println!();
    println!("Usage: repro [FLAGS]");
    println!("       repro sweep [--seeds N] [--corners M] [--seed S] [--digest-cache DIR]");
    println!("                   [--faults SPEC] [--interrupts SPEC] [--shard K/N --out PATH]");
    println!("       repro merge OUT.sweep PARTIAL.sweep...");
    println!("       repro serve --corpus DIR [--digest-cache DIR]");
    println!("       repro bench [--seeds N] [--corners M] [--seed S] [--faults SPEC] [--interrupts SPEC]");
    println!("                   [--runs K] [--json] [--out PATH] [--digest-cache DIR]\n");
    println!("With no flags, every experiment is reproduced. Flags:");
    for (flag, description) in FLAGS {
        println!("  {flag:<16} {description}");
    }
    println!("  {:<16} print this help and exit", "--help");
    println!();
    print_sweep_help();
    println!();
    print_merge_help();
    println!();
    print_serve_help();
    println!();
    print_bench_help();
}

fn print_merge_help() {
    println!("merge — folds sharded partial reports into the full sweep report");
    println!("  usage: repro merge OUT.sweep PARTIAL.sweep...");
    println!("  validates that the partials describe one sweep, overlap nowhere and");
    println!("  cover every (seed, corner) job, writes the merged binary report to");
    println!("  OUT.sweep (atomically) and renders it to stdout — byte-identical to");
    println!("  the single-process `repro sweep` run of the same configuration");
}

fn print_serve_help() {
    println!("serve — long-running query service over merged sweep reports");
    println!(
        "  {:<16} directory of *.sweep report files to index (required)",
        "--corpus DIR"
    );
    println!(
        "  {:<16} warm digest cache to report statistics for",
        "--digest-cache"
    );
    println!("  reports are ingested once at startup; quantile / violation / speedup");
    println!("  queries (one per stdin line, see the `help` query) are answered from");
    println!("  the in-memory index without re-running any simulation or replay");
}

fn print_bench_help() {
    println!("bench — PVT-sweep throughput measurement (simulate-once / evaluate-many)");
    println!(
        "  {:<16} sweep size, like the sweep subcommand (defaults 100 x 8, seed 7)",
        "--seeds/..."
    );
    println!(
        "  {:<16} scenario, like the sweep subcommand; both specs are recorded",
        "--faults/..."
    );
    println!("  {:<16} in the output (null when absent)", "");
    println!(
        "  {:<16} timed repetitions; the median run by total wall is reported,",
        "--runs K"
    );
    println!("  {:<16} with the fastest and slowest wall (default 3)", "");
    println!(
        "  {:<16} also write the machine-readable report to BENCH_sweep.json",
        "--json"
    );
    println!("  {:<16} override the --json output path", "--out PATH");
    println!(
        "  {:<16} load/save phase-1 digests in DIR (see sweep --digest-cache)",
        "--digest-cache"
    );
    println!("  output: key=value throughput report (cycles/sec, jobs/sec, per-phase wall)");
    println!("  the JSON fields, their units and how CI consumes them are documented");
    println!("  in docs/BENCH_SCHEMA.md");
}

fn print_sweep_help() {
    println!("sweep — Monte Carlo PVT sweep: N generated programs x M sampled corners");
    println!(
        "  {:<16} number of generated programs (default 32)",
        "--seeds N"
    );
    println!(
        "  {:<16} number of sampled PVT corners (default 4)",
        "--corners M"
    );
    println!(
        "  {:<16} master seed driving programs and corners (default 49374)",
        "--seed S"
    );
    println!(
        "  {:<16} persist phase-1 timing digests in DIR, keyed by",
        "--digest-cache"
    );
    println!(
        "  {:<16} (program seed, generator-config hash, simulator version);",
        ""
    );
    println!(
        "  {:<16} warm entries skip the simulation phase entirely",
        ""
    );
    println!(
        "  {:<16} inject a deterministic fault scenario, SPEC is",
        "--faults SPEC"
    );
    println!(
        "  {:<16} key=value pairs like seed=1,droop-rate=0.3,spike-rate=0.01,",
        ""
    );
    println!(
        "  {:<16} droop-mag=0.15,spike-mag=0.25,shift-mag=0,penalty=8,",
        ""
    );
    println!(
        "  {:<16} detect-window=0.1; adds recovery/silent-risk columns",
        ""
    );
    println!(
        "  {:<16} drive an asynchronous interrupt-storm scenario, SPEC is",
        "--interrupts"
    );
    println!(
        "  {:<16} key=value pairs like seed=1,rate=0.002,timer=150,",
        ""
    );
    println!(
        "  {:<16} vector=0,penalty=4,surge=0.25; adds interrupt-entry and",
        ""
    );
    println!(
        "  {:<16} handler-cycle columns and per-policy entry violations",
        ""
    );
    println!(
        "  {:<16} run only the K-th of N deterministic seed partitions",
        "--shard K/N"
    );
    println!(
        "  {:<16} write the (partial) report in the checksummed binary",
        "--out PATH"
    );
    println!(
        "  {:<16} format for `repro merge` (required with --shard)",
        ""
    );
    println!("  output: stable machine-readable key=value report on stdout");
    println!("  (suppressed under --shard: a partial report's aggregates are");
    println!("  meaningless until merged)");
}

/// Creates a digest-cache directory (errors are fatal: an explicitly
/// requested cache that cannot exist should fail loudly, not silently run
/// uncached).
fn prepare_cache_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|error| {
        format!(
            "cannot create digest-cache directory {}: {error}",
            dir.display()
        )
    })
}

/// The sweep-shape flags shared verbatim by `repro sweep` and `repro
/// bench`, parsed and validated in exactly one place so the two
/// subcommands cannot drift (they once range-checked `--seeds`
/// differently).
struct SweepShapeArgs {
    config: SweepConfig,
    cache_dir: Option<PathBuf>,
}

impl SweepShapeArgs {
    fn new(defaults: SweepConfig) -> Self {
        SweepShapeArgs {
            config: defaults,
            cache_dir: None,
        }
    }

    /// Consumes one `flag value` pair if it is a shared flag; returns
    /// `false` (untouched) so the caller can try its subcommand-specific
    /// flags.
    fn consume(&mut self, flag: &str, value: &str) -> Result<bool, String> {
        match flag {
            "--digest-cache" => self.cache_dir = Some(PathBuf::from(value)),
            "--seeds" => self.config.seeds = parse_count(flag, value)?,
            "--corners" => self.config.corners = parse_count(flag, value)?,
            "--seed" => {
                self.config.master_seed = value
                    .parse()
                    .map_err(|_| format!("`{flag}` expects an unsigned integer, got `{value}`"))?;
            }
            "--faults" => {
                self.config.faults = Some(
                    FaultSpec::parse(value)
                        .map_err(|error| format!("invalid --faults `{value}`: {error}"))?,
                );
            }
            "--interrupts" => {
                self.config.interrupts = Some(
                    InterruptSpec::parse(value)
                        .map_err(|error| format!("invalid --interrupts `{value}`: {error}"))?,
                );
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Post-parse validation: the job grid stays under the 1,000,000-job
    /// limit and an explicitly requested digest cache directory exists.
    fn finish(&self) -> Result<(), String> {
        let jobs = u64::from(self.config.seeds) * u64::from(self.config.corners);
        if jobs > 1_000_000 {
            return Err(format!(
                "seeds x corners = {jobs} jobs exceeds the 1000000-job limit"
            ));
        }
        if let Some(dir) = &self.cache_dir {
            prepare_cache_dir(dir)?;
        }
        Ok(())
    }
}

/// Shared `--seeds` / `--corners` range check (1..=100,000).
fn parse_count(flag: &str, value: &str) -> Result<u32, String> {
    value
        .parse::<u64>()
        .ok()
        .filter(|parsed| (1..=100_000).contains(parsed))
        .map(|parsed| parsed as u32)
        .ok_or_else(|| format!("`{flag}` must be an integer between 1 and 100000, got `{value}`"))
}

/// Shared `--shard K/N` validation (also exercised by `SweepShard::parse`
/// unit tests): rejects `0/N`, `K > N` and malformed specs with the
/// library's message.
fn parse_shard(value: &str) -> Result<SweepShard, String> {
    SweepShard::parse(value).map_err(|error| format!("invalid --shard `{value}`: {error}"))
}

/// Shared `--corpus DIR` validation: the directory must already exist
/// (serving an empty, silently auto-created corpus would mask a typo).
fn parse_corpus_dir(value: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(value);
    if !dir.is_dir() {
        return Err(format!("--corpus directory {value} does not exist"));
    }
    Ok(dir)
}

/// Writes a binary sweep report atomically: a crashed or interrupted shard
/// leaves either the complete report or nothing — never a truncated file
/// for `repro merge` to trip over.
fn write_report(path: &Path, report: &SweepReport) -> Result<(), String> {
    write_atomic(path, &report.to_bytes())
        .map_err(|error| format!("cannot write {}: {error}", path.display()))
}

/// Parses and runs the `sweep` subcommand.
fn run_sweep(args: &[String]) -> Result<ExitCode, String> {
    let mut shape = SweepShapeArgs::new(SweepConfig::default());
    let mut shard: Option<SweepShard> = None;
    let mut out: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--help" || flag == "-h" {
            print_sweep_help();
            return Ok(ExitCode::SUCCESS);
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("`{flag}` requires a value"))?;
        if shape.consume(flag, value)? {
            continue;
        }
        match flag.as_str() {
            "--shard" => shard = Some(parse_shard(value)?),
            "--out" => out = Some(PathBuf::from(value)),
            unknown => {
                return Err(format!(
                    "unknown sweep flag `{unknown}`\nrun `repro sweep --help` for the accepted flags"
                ));
            }
        }
    }
    shape.finish()?;
    let SweepShapeArgs { config, cache_dir } = shape;
    if shard.is_some() && out.is_none() {
        return Err("`--shard` requires `--out PATH` for the binary partial report".to_string());
    }
    let seed_range = match shard {
        Some(shard) => {
            let range = shard.seed_range(config.seeds);
            eprintln!(
                "running PVT sweep shard {shard}: seeds [{}, {}) of {} x {} corners (master seed {:#x})...",
                range.start, range.end, config.seeds, config.corners, config.master_seed
            );
            range
        }
        None => {
            eprintln!(
                "running PVT sweep: {} seeds x {} corners (master seed {:#x})...",
                config.seeds, config.corners, config.master_seed
            );
            0..config.seeds
        }
    };
    let (report, timing) =
        pvt_sweep_seed_range_timed_with_cache(&config, seed_range, cache_dir.as_deref())
            .map_err(|error| error.to_string())?;
    if cache_dir.is_some() {
        eprintln!(
            "digest cache: {} hits, {} simulated",
            timing.digest_cache_hits, timing.simulated_programs
        );
    }
    if let Some(path) = &out {
        write_report(path, &report)?;
        eprintln!("wrote {} ({} jobs)", path.display(), report.jobs.len());
    }
    // A partial report's aggregate statistics are meaningless until merged,
    // so only the full run renders to stdout.
    if shard.is_none() {
        print!("{}", report.render());
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses and runs the `merge` subcommand: `repro merge OUT IN...`.
fn run_merge(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_merge_help();
        return Ok(ExitCode::SUCCESS);
    }
    let [out, inputs @ ..] = args else {
        return Err("usage: repro merge OUT.sweep PARTIAL.sweep...".to_string());
    };
    if inputs.is_empty() {
        return Err("merge needs at least one partial report".to_string());
    }
    let mut parts = Vec::with_capacity(inputs.len());
    for input in inputs {
        let bytes =
            std::fs::read(input).map_err(|error| format!("cannot read {input}: {error}"))?;
        parts.push(SweepReport::from_bytes(&bytes).map_err(|error| format!("{input}: {error}"))?);
    }
    let merged = merge_reports(parts).map_err(|error| error.to_string())?;
    write_report(Path::new(out), &merged)?;
    eprintln!(
        "merged {} partials into {out} ({} jobs)",
        inputs.len(),
        merged.jobs.len()
    );
    print!("{}", merged.render());
    Ok(ExitCode::SUCCESS)
}

/// Parses and runs the `serve` subcommand: ingest a corpus of merged
/// reports once, then answer queries from the in-memory index.
fn run_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut corpus_dir: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--help" || flag == "-h" {
            print_serve_help();
            return Ok(ExitCode::SUCCESS);
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("`{flag}` requires a value"))?;
        match flag.as_str() {
            "--corpus" => corpus_dir = Some(parse_corpus_dir(value)?),
            "--digest-cache" => cache_dir = Some(PathBuf::from(value)),
            unknown => {
                return Err(format!(
                    "unknown serve flag `{unknown}`\nrun `repro serve --help` for the accepted flags"
                ));
            }
        }
    }
    let corpus_dir = corpus_dir.ok_or_else(|| "serve requires `--corpus DIR`".to_string())?;

    let mut report_files: Vec<PathBuf> = std::fs::read_dir(&corpus_dir)
        .map_err(|error| format!("cannot read corpus {}: {error}", corpus_dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "sweep"))
        .collect();
    report_files.sort();
    if report_files.is_empty() {
        return Err(format!(
            "corpus {} contains no *.sweep report files",
            corpus_dir.display()
        ));
    }
    let mut corpus = Corpus::new();
    for path in &report_files {
        let bytes = std::fs::read(path)
            .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
        let report = SweepReport::from_bytes(&bytes)
            .map_err(|error| format!("{}: {error}", path.display()))?;
        corpus
            .ingest(report)
            .map_err(|error| format!("{}: {error}", path.display()))?;
    }
    let cache = match &cache_dir {
        Some(dir) => Some(
            DigestCacheStats::scan(dir)
                .map_err(|error| format!("cannot scan digest cache {}: {error}", dir.display()))?,
        ),
        None => None,
    };
    eprintln!(
        "serving {} reports ({} jobs, {} cycles); one query per line, `help` lists them",
        corpus.reports(),
        corpus.jobs(),
        corpus.cycles()
    );

    let session = ServeSession::new(corpus, cache);
    let stdin = std::io::stdin();
    let mut reader = std::io::BufReader::new(stdin.lock());
    let mut stdout = std::io::stdout();
    let mut buffer = Vec::with_capacity(256);
    loop {
        // Byte-level reads: stdin is untrusted input, so a binary paste
        // (invalid UTF-8), an unbounded line or a mid-line EOF must each
        // become a structured reply or a clean exit, never a panic or a
        // silently dropped session.
        buffer.clear();
        let read = (&mut reader)
            .take(MAX_QUERY_BYTES as u64 + 1)
            .read_until(b'\n', &mut buffer)
            .map_err(|error| format!("cannot read query: {error}"))?;
        if read == 0 {
            break; // clean EOF
        }
        let mut terminated = buffer.last() == Some(&b'\n');
        if terminated {
            buffer.pop();
        }
        if buffer.last() == Some(&b'\r') {
            buffer.pop();
        }
        let reply = if buffer.len() > MAX_QUERY_BYTES {
            // Drain the rest of the oversized line in bounded chunks so the
            // next read starts exactly at the next line boundary; bytes of
            // the *following* query are never consumed.
            let mut scratch = Vec::with_capacity(4096);
            while !terminated {
                scratch.clear();
                let n = (&mut reader)
                    .take(4096)
                    .read_until(b'\n', &mut scratch)
                    .map_err(|error| format!("cannot read query: {error}"))?;
                terminated = scratch.last() == Some(&b'\n');
                if n == 0 {
                    break;
                }
            }
            Err(QueryError::LineTooLong {
                limit: MAX_QUERY_BYTES,
            })
        } else {
            match std::str::from_utf8(&buffer) {
                Ok(line) => {
                    let trimmed = line.trim();
                    if trimmed == "quit" || trimmed == "exit" {
                        break;
                    }
                    session.query(line)
                }
                Err(_) => Err(QueryError::InvalidUtf8),
            }
        };
        match reply {
            Ok(reply) if reply.is_empty() => {}
            Ok(reply) => println!("{reply}"),
            Err(error) => println!("error: {error}"),
        }
        // Replies must reach a piped client promptly, not sit in the
        // block-buffered stdout until the session ends.
        stdout
            .flush()
            .map_err(|error| format!("cannot flush reply: {error}"))?;
        if !terminated {
            break; // mid-line EOF: the final unterminated query was answered
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Upper bound on one serve query line; real queries are tens of bytes, so
/// anything longer is a runaway or hostile writer and is answered with a
/// structured error instead of being buffered without limit.
const MAX_QUERY_BYTES: usize = 4096;

/// Milliseconds with microsecond resolution (stable fixed-point rendering).
fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Parses and runs the `bench` subcommand: times the two-phase PVT sweep
/// and reports throughput, optionally as JSON (`BENCH_sweep.json` by
/// default) for CI's same-job ratio gates.
fn run_bench(args: &[String]) -> Result<ExitCode, String> {
    let mut shape = SweepShapeArgs::new(SweepConfig {
        seeds: 100,
        corners: 8,
        master_seed: 7,
        ..SweepConfig::default()
    });
    let mut runs: u32 = 3;
    let mut write_json = false;
    let mut out_path = String::from("BENCH_sweep.json");
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                print_bench_help();
                return Ok(ExitCode::SUCCESS);
            }
            "--json" => {
                write_json = true;
                continue;
            }
            _ => {}
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("`{flag}` requires a value"))?;
        if shape.consume(flag, value)? {
            continue;
        }
        match flag.as_str() {
            "--out" => {
                out_path = value.clone();
                write_json = true;
            }
            "--runs" => {
                runs = value
                    .parse::<u64>()
                    .ok()
                    .filter(|parsed| (1..=100).contains(parsed))
                    .map(|parsed| parsed as u32)
                    .ok_or_else(|| format!("`--runs` must be between 1 and 100, got `{value}`"))?;
            }
            unknown => {
                return Err(format!(
                    "unknown bench flag `{unknown}`\nrun `repro bench --help` for the accepted flags"
                ));
            }
        }
    }
    shape.finish()?;
    let SweepShapeArgs { config, cache_dir } = shape;
    let jobs = u64::from(config.seeds) * u64::from(config.corners);
    eprintln!(
        "benchmarking PVT sweep: {} seeds x {} corners, {} timed runs...",
        config.seeds, config.corners, runs
    );
    // Report the median of `runs` repetitions by total wall (the lower
    // middle run for an even count), with the spread of all of them. Every
    // repetition produces the identical report, so the cycle totals can
    // come from any of them.
    let mut timings: Vec<SweepTiming> = Vec::with_capacity(runs as usize);
    let mut evaluated_cycles = 0;
    for _ in 0..runs {
        let (report, timing) = pvt_sweep_timed_with_cache(&config, cache_dir.as_deref())
            .map_err(|error| error.to_string())?;
        evaluated_cycles = report.total_cycles();
        timings.push(timing);
    }
    timings.sort_by_key(SweepTiming::total);
    let wall_ms_min = ms(timings[0].total());
    let wall_ms_max = ms(timings[timings.len() - 1].total());
    let timing = timings[(timings.len() - 1) / 2];
    let wall = timing.total().as_secs_f64();
    let jobs_per_sec = jobs as f64 / wall;
    let cycles_per_sec = evaluated_cycles as f64 / wall;
    // Banked-replay phase throughput: every digested cycle is evaluated
    // against every corner, so `evaluated_cycles` (summed over jobs) is the
    // cycle·corner count the replay phase pushed through its SIMD lanes.
    let replay_cycle_corners_per_sec = evaluated_cycles as f64 / timing.replay.as_secs_f64();

    // The scenario, as the canonical spec strings: a faulted or
    // interrupted run must not read like a clean one.
    let faults = config.faults.as_ref().map(FaultSpec::describe);
    let interrupts = config.interrupts.as_ref().map(InterruptSpec::describe);
    println!("bench.schema=6");
    println!("bench.seeds={}", config.seeds);
    println!("bench.corners={}", config.corners);
    println!("bench.master_seed={}", config.master_seed);
    println!("bench.faults={}", faults.as_deref().unwrap_or("null"));
    println!(
        "bench.interrupts={}",
        interrupts.as_deref().unwrap_or("null")
    );
    println!("bench.jobs={jobs}");
    println!("bench.evaluated_cycles={evaluated_cycles}");
    println!("bench.runs={runs}");
    println!("bench.wall_ms={:.3}", ms(timing.total()));
    println!("bench.wall_ms_min={wall_ms_min:.3}");
    println!("bench.wall_ms_max={wall_ms_max:.3}");
    println!("bench.simulate_ms={:.3}", ms(timing.simulate));
    println!("bench.predecode_ms={:.3}", ms(timing.predecode));
    println!("bench.replay_ms={:.3}", ms(timing.replay));
    println!("bench.policy_replay_ms={:.3}", ms(timing.policy_replay));
    println!("bench.simulated_programs={}", timing.simulated_programs);
    println!("bench.digest_cache_hits={}", timing.digest_cache_hits);
    println!("bench.jobs_per_sec={jobs_per_sec:.1}");
    println!("bench.cycles_per_sec={cycles_per_sec:.0}");
    println!("bench.replay_cycle_corners_per_sec={replay_cycle_corners_per_sec:.0}");

    if write_json {
        // The spec strings hold only `[a-z0-9=,.-]`, so quoting needs no
        // escapes.
        let json_string =
            |spec: Option<String>| spec.map_or("null".to_string(), |s| format!("\"{s}\""));
        let json = format!(
            "{{\n  \"schema\": 6,\n  \"seeds\": {},\n  \"corners\": {},\n  \"master_seed\": {},\n  \
             \"faults\": {},\n  \"interrupts\": {},\n  \
             \"jobs\": {},\n  \"evaluated_cycles\": {},\n  \"runs\": {},\n  \"wall_ms\": {:.3},\n  \
             \"wall_ms_min\": {:.3},\n  \"wall_ms_max\": {:.3},\n  \
             \"simulate_ms\": {:.3},\n  \"predecode_ms\": {:.3},\n  \"replay_ms\": {:.3},\n  \
             \"policy_replay_ms\": {:.3},\n  \"simulated_programs\": {},\n  \
             \"digest_cache_hits\": {},\n  \"jobs_per_sec\": {:.1},\n  \
             \"cycles_per_sec\": {:.0},\n  \"replay_cycle_corners_per_sec\": {:.0}\n}}\n",
            config.seeds,
            config.corners,
            config.master_seed,
            json_string(faults),
            json_string(interrupts),
            jobs,
            evaluated_cycles,
            runs,
            ms(timing.total()),
            wall_ms_min,
            wall_ms_max,
            ms(timing.simulate),
            ms(timing.predecode),
            ms(timing.replay),
            ms(timing.policy_replay),
            timing.simulated_programs,
            timing.digest_cache_hits,
            jobs_per_sec,
            cycles_per_sec,
            replay_cycle_corners_per_sec,
        );
        std::fs::write(&out_path, json)
            .map_err(|error| format!("cannot write {out_path}: {error}"))?;
        eprintln!("wrote {out_path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders a subcommand's structured error on stderr with a nonzero exit.
fn exit_with(result: Result<ExitCode, String>) -> ExitCode {
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => return exit_with(run_sweep(&args[1..])),
        Some("merge") => return exit_with(run_merge(&args[1..])),
        Some("serve") => return exit_with(run_serve(&args[1..])),
        Some("bench") => return exit_with(run_bench(&args[1..])),
        _ => {}
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return ExitCode::SUCCESS;
    }
    if let Some(unknown) = args
        .iter()
        .find(|a| !FLAGS.iter().any(|(flag, _)| flag == a))
    {
        eprintln!("error: unknown flag `{unknown}`");
        eprintln!("run `repro --help` for the accepted flags");
        return ExitCode::FAILURE;
    }
    let want = |flag: &str| args.is_empty() || args.iter().any(|a| a == flag);

    eprintln!(
        "preparing characterization run (seed {:#x})...",
        idca_bench::CHARACTERIZATION_SEED
    );
    let exp = Experiments::prepare();
    println!(
        "static timing limit: {:.0} ps ({:.1} MHz) at 0.70 V  [paper: {:.0} ps / 494 MHz]",
        exp.model.static_period_ps(),
        1.0e6 / exp.model.static_period_ps(),
        paper::STATIC_PERIOD_PS
    );
    println!(
        "characterization: {} cycles, {} retired instructions\n",
        exp.characterization.cycles, exp.characterization.retired
    );

    if want("--fig5") {
        let fig5 = exp.fig5();
        println!("== Fig. 5 — per-cycle dynamic maximum delay ==");
        println!(
            "  mean delay      : {:>7.0} ps   [paper {:>6.0} ps]",
            fig5.mean_delay_ps,
            paper::FIG5_MEAN_PS
        );
        println!(
            "  static limit    : {:>7.0} ps   [paper {:>6.0} ps]",
            fig5.static_period_ps,
            paper::STATIC_PERIOD_PS
        );
        println!(
            "  genie speedup   : {:>6.1} %    [paper {:>5.0} %]",
            fig5.genie_speedup_percent,
            paper::GENIE_SPEEDUP_PERCENT
        );
        println!("  histogram (25 ps bins):");
        print!("{}", fig5.histogram.to_ascii(50));
        println!();
    }

    if want("--fig6") {
        println!("== Fig. 6 — limiting pipeline stage ==");
        println!("  paper: EX 93 %, ADR 7 %, others < 1 %");
        for row in exp.fig6() {
            println!("  {:<5} {:>6.1} %", row.stage.label(), row.percent);
        }
        println!();
    }

    if want("--table1") {
        println!("== Table I — critical-range optimization max-delay factors ==");
        println!("  {:<16} {:>9} {:>8}", "instruction", "measured", "paper");
        for row in exp.table1() {
            match row.paper {
                Some(p) => println!("  {:<16} {:>9.2} {:>8.2}", row.class.label(), row.factor, p),
                None => println!("  {:<16} {:>9.2} {:>8}", row.class.label(), row.factor, "-"),
            }
        }
        let sta_ratio = exp.model.static_period_ps()
            / idca_timing::TimingProfile::new(idca_timing::ProfileKind::Conventional)
                .static_period_ps();
        println!(
            "  STA period increase from the optimization: {:.1} %  [paper 9 %]\n",
            (sta_ratio - 1.0) * 100.0
        );
    }

    if want("--table2") {
        println!("== Table II — dynamic instruction delay worst-cases ==");
        println!(
            "  {:<16} {:>12} {:>7} {:>14} {:>10} {:>7}",
            "instruction", "measured ps", "stage", "observations", "paper ps", "stage"
        );
        for row in exp.table2() {
            let reference = paper::TABLE2
                .iter()
                .find(|(label, _, _)| *label == row.class.label());
            let (paper_ps, paper_stage) = match reference {
                Some((_, ps, stage)) => (format!("{ps:.0}"), (*stage).to_string()),
                None => ("-".to_string(), "-".to_string()),
            };
            println!(
                "  {:<16} {:>12.0} {:>7} {:>14} {:>10} {:>7}",
                row.class.label(),
                row.max_delay_ps,
                row.stage.label(),
                row.observations,
                paper_ps,
                paper_stage
            );
        }
        println!();
    }

    if want("--fig7") {
        println!("== Fig. 7 — per-stage dynamic delays of l.mul ==");
        println!(
            "  {:<6} {:>13} {:>10} {:>10}",
            "stage", "observations", "mean ps", "max ps"
        );
        for row in exp.fig7() {
            println!(
                "  {:<6} {:>13} {:>10.0} {:>10.0}",
                row.stage.label(),
                row.observations,
                row.mean_ps,
                row.max_ps
            );
        }
        println!("  (paper: EX close to the static maximum with ~300 ps spread, other stages much lower)\n");
    }

    let fig8 = (want("--fig8") || want("--summary")).then(|| exp.fig8());
    if let Some((rows, summary)) = fig8.as_ref().filter(|_| want("--fig8")) {
        println!("== Fig. 8 — effective clock frequency per benchmark ==");
        println!(
            "  {:<22} {:>11} {:>12} {:>9}",
            "benchmark", "static MHz", "dynamic MHz", "speedup"
        );
        for row in rows {
            println!(
                "  {:<22} {:>11.1} {:>12.1} {:>8.1}%",
                row.benchmark, row.static_mhz, row.dynamic_mhz, row.speedup_percent
            );
        }
        println!(
            "  average: {:.1} -> {:.1} MHz, +{:.1} %   [paper: {:.0} -> {:.0} MHz, +{:.0} %]",
            summary.mean_baseline_frequency_mhz(),
            summary.mean_dynamic_frequency_mhz(),
            (summary.mean_speedup() - 1.0) * 100.0,
            paper::FIG8_BASELINE_MHZ,
            paper::FIG8_DYNAMIC_MHZ,
            paper::FIG8_SPEEDUP_PERCENT
        );
        println!(
            "  timing violations across the suite: {}\n",
            summary.total_violations()
        );
    }

    if want("--power") {
        println!("== §IV-B — voltage scaling at iso-throughput ==");
        let result = exp.power_scaling();
        println!(
            "  baseline : {:>4} mV  {:>7.1} MHz  {:>6.2} µW/MHz   [paper {:.1} µW/MHz]",
            result.baseline.voltage_mv,
            result.baseline.frequency_mhz,
            result.baseline.uw_per_mhz,
            paper::POWER_BASELINE_UW_PER_MHZ
        );
        println!(
            "  scaled   : {:>4} mV  {:>7.1} MHz  {:>6.2} µW/MHz   [paper {:.1} µW/MHz]",
            result.scaled.voltage_mv,
            result.scaled.frequency_mhz,
            result.scaled.uw_per_mhz,
            paper::POWER_SCALED_UW_PER_MHZ
        );
        println!(
            "  supply reduction {:>3} mV [paper ~{:.0} mV], efficiency gain {:>4.1} % [paper {:.0} %]\n",
            result.voltage_reduction_mv,
            paper::POWER_VOLTAGE_REDUCTION_MV,
            result.efficiency_gain_percent(),
            paper::POWER_GAIN_PERCENT
        );
    }

    if want("--ablations") {
        println!("== Ablations ==");
        let ablations = exp.ablations();
        println!(
            "  mean suite speedup, ideal clock generator      : {:>5.1} %",
            ablations.ideal_cg_percent
        );
        println!(
            "  mean suite speedup, 50 ps quantized generator  : {:>5.1} %",
            ablations.quantized_cg_percent
        );
        println!(
            "  mean suite speedup, 8-level discrete generator : {:>5.1} %",
            ablations.discrete_cg_percent
        );
        println!(
            "  mean suite speedup, execute-only monitoring    : {:>5.1} %",
            ablations.execute_only_percent
        );
        println!(
            "  mean suite speedup, conventional (wall) profile: {:>5.1} %",
            ablations.conventional_profile_percent
        );
        println!(
            "  mean suite speedup, genie oracle               : {:>5.1} %",
            ablations.genie_percent
        );
        println!(
            "  violations with a truncated-characterization LUT: {}",
            ablations.truncated_lut_violations
        );
        println!();
    }

    if let Some((_, summary)) = fig8.as_ref().filter(|_| want("--summary")) {
        let fig5 = exp.fig5();
        println!("== Headline summary ==");
        println!(
            "  genie bound        : +{:.1} %   [paper +50 %]",
            fig5.genie_speedup_percent
        );
        println!(
            "  instruction-based  : +{:.1} %   [paper +38 %]",
            (summary.mean_speedup() - 1.0) * 100.0
        );
    }

    ExitCode::SUCCESS
}
