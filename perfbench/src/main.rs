//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-repro|sweep-corners|sweep-fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up from its seed, runs a closed loop of iterations
//! for the given seconds, checks every output, and prints one JSON object
//! as the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! See `README.md` for the workloads, metrics and method.

mod probe;
mod stats;
mod trace;
mod workloads;

use idca_bench::{SweepReport, SweepTiming};
use probe::HostProbe;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{check_output, timed, worker_threads, Kind, Prepared, QUERY_KINDS};

/// End-to-end metrics: name, unit and better direction.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("iter_ms_p50", "ms", "lower"),
    ("iter_ms_tail", "ms", "lower"),
    ("cycle_corners_per_s", "1/s", "higher"),
];

/// Per-layer metrics of the traced run: name, unit and better direction.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    ("gen.generate.ms", "ms", "lower"),
    ("gen.generate.programs", "count", "lower"),
    ("workloads.assemble.ms", "ms", "lower"),
    ("pipeline.predecode.ms", "ms", "lower"),
    ("pipeline.predecode.ops", "count", "lower"),
    ("pipeline.simulate.ms", "ms", "lower"),
    ("pipeline.simulate.cycles", "count", "lower"),
    ("pipeline.simulate.ns_per_cycle", "ns", "lower"),
    ("pipeline.simulate_observed.ms", "ms", "lower"),
    ("pipeline.digest.walk_ms", "ms", "lower"),
    ("pipeline.digest.unique_ratio", "ratio", "lower"),
    ("pipeline.digest.run_len_p50", "cycles", "higher"),
    ("pipeline.digest.run_len_p90", "cycles", "higher"),
    ("pipeline.codec.encode_ms", "ms", "lower"),
    ("pipeline.codec.decode_ms", "ms", "lower"),
    ("pipeline.codec.bytes_per_cycle", "B/cycle", "lower"),
    ("timing.model.ms", "ms", "lower"),
    ("timing.lanes.ms", "ms", "lower"),
    ("timing.lanes.ns_per_cycle_corner", "ns", "lower"),
    ("timing.fault.ms", "ms", "lower"),
    ("timing.dta.ms", "ms", "lower"),
    ("core.lut.ms", "ms", "lower"),
    ("core.policy_bank.ms", "ms", "lower"),
    ("core.policy_bank.blocks", "count", "lower"),
    ("core.adaptive_bank.ms", "ms", "lower"),
    ("core.replay.ms", "ms", "lower"),
    ("core.vfs.ms", "ms", "lower"),
    ("core.violations.static", "count", "lower"),
    ("core.violations.instruction-based", "count", "lower"),
    ("core.violations.execute-only", "count", "lower"),
    ("core.violations.adaptive", "count", "lower"),
    ("bench.sweep.phase1_ms", "ms", "lower"),
    ("bench.sweep.phase2_ms", "ms", "lower"),
    ("bench.sweep.policy_replay_ms", "ms", "lower"),
    ("bench.cache.hit_ratio", "ratio", "higher"),
    ("bench.cache.read_ms", "ms", "lower"),
    ("bench.cache.write_ms", "ms", "lower"),
    ("bench.replay.worker_imbalance", "ratio", "lower"),
    ("bench.replay.scratch_ms", "ms", "lower"),
    ("bench.replay.thread_speedup", "ratio", "higher"),
    ("bench.shard.encode_ms", "ms", "lower"),
    ("bench.shard.decode_ms", "ms", "lower"),
    ("bench.merge.ms", "ms", "lower"),
    ("bench.render.ms", "ms", "lower"),
    ("bench.serve.ingest_ms", "ms", "lower"),
    ("bench.serve.query_us.corpus", "us", "lower"),
    ("bench.serve.query_us.speedup", "us", "lower"),
    ("bench.serve.query_us.quantile", "us", "lower"),
    ("bench.serve.query_us.violations", "us", "lower"),
    ("bench.serve.query_us.hist", "us", "lower"),
    ("bench.serve.query_us.recovery", "us", "lower"),
    ("bench.serve.query_us.risk", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("query_us_p50", "us", "lower"),
    ("query_us_tail", "us", "lower"),
    ("paper_gap_pp", "pp", "lower"),
    ("error_rate", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("host.probe_ms", "ms", "lower"),
    ("iter_ms_p50_unscaled", "ms", "lower"),
];

/// Set-up runs per benchmark run; `setup_s` is their median.
const SETUP_RUNS: usize = 5;
/// Fewest timed iterations, so the tail has ten samples beyond it.
const MIN_ITERATIONS: usize = 12;
/// Samples a tail percentile leaves beyond itself.
const TAIL_BEYOND: usize = 10;

/// Traced iterations per workload: a fixed count, so summed self times
/// compare across runs.
fn traced_iterations(kind: Kind) -> usize {
    match kind {
        Kind::PaperRepro => 20,
        Kind::SweepCorners => 8,
        Kind::SweepFleet => 6,
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("`{flag}` requires a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` expects an unsigned integer, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!(
                        "unknown workload `{value}` (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` expects 0 or 1, got `{value}`")),
                });
            }
            unknown => return Err(format!("unknown flag `{unknown}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing `--workload`")?,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.ok_or("missing `--trace`")?,
    })
}

/// Operations attempted and failed: iterations, output checks and serve
/// queries.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = result {
            self.failed += 1;
            eprintln!("check failed: {what}: {error}");
        }
    }
}

/// The untimed closed loop's records.
#[derive(Default)]
struct Loop {
    walls_ms: Vec<f64>,
    /// Cycle·corner evaluations per second of each iteration.
    rates: Vec<f64>,
    timings: Vec<SweepTiming>,
    queries_us: Vec<f64>,
}

/// Runs iterations back to back for `budget` (at least [`MIN_ITERATIONS`]),
/// sampling the host probe between them.
fn closed_loop(
    p: &Prepared,
    budget: Duration,
    probe: &mut HostProbe,
    tally: &mut Tally,
) -> Result<Loop, String> {
    let mut records = Loop::default();
    let start = Instant::now();
    let mut iterations = 0;
    while iterations < MIN_ITERATIONS || start.elapsed() < budget {
        probe.tick();
        let (output, wall) = timed(|| p.iterate());
        iterations += 1;
        let output = match output {
            Ok(output) => output,
            Err(error) => {
                tally.record("iteration", Err(error));
                continue;
            }
        };
        tally.record("iteration bytes", check_output(&p.reference, &output.text));
        for (kind, latency, failed) in output.queries {
            let query = QUERY_KINDS[kind].0;
            tally.record(
                query,
                if failed {
                    Err("error reply".into())
                } else {
                    Ok(())
                },
            );
            records.queries_us.push(latency.as_secs_f64() * 1e6);
        }
        records.walls_ms.push(wall.as_secs_f64() * 1e3);
        records
            .rates
            .push(output.cycle_corners as f64 / wall.as_secs_f64());
        records.timings.push(output.timing);
    }
    Ok(records)
}

/// Peak resident memory of this process (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// A scratch directory in the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(kind: Kind) -> Result<WorkDir, String> {
        let dir =
            Path::new(".perfbench_work").join(format!("{}-{}", kind.name(), std::process::id()));
        workloads::fresh_dir(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when no other run uses it
        }
    }
}

type Metrics = Vec<(&'static str, f64)>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run(args: &Args) -> Result<(Tally, Metrics), String> {
    let work = WorkDir::create(args.kind)?;
    let mut probe = HostProbe::new();
    let mut setup_s = Vec::with_capacity(SETUP_RUNS);
    let mut prepared = None;
    for _ in 0..SETUP_RUNS {
        probe.sample();
        let (p, elapsed) = timed(|| workloads::setup(args.kind, args.seed, &work.0));
        setup_s.push(elapsed.as_secs_f64());
        prepared = Some(p?);
    }
    let p = prepared.expect("at least one set-up run");
    println!(
        "# context workload={} seed={} nproc={} threads={} rustc=\"{}\" commit={} shape=\"{}\"",
        args.kind.name(),
        args.seed,
        workloads::nproc(),
        worker_threads(),
        command_line(
            &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
            &["-V"]
        ),
        command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
        p.shape(),
    );

    let mut tally = Tally::default();
    let budget = Duration::from_secs(args.seconds);
    let budget = if args.trace { budget / 2 } else { budget };
    let untraced = closed_loop(&p, budget, &mut probe, &mut tally)?;
    let scale = probe.scale();
    let [core, l2, shared] = probe.medians_ms();
    println!(
        "# host probe: core {core:.4} l2 {l2:.4} shared {shared:.4} ms, geometric mean {:.4} ms over {} samples; times are scaled by {scale:.4} to the reference {} ms",
        probe.speed_ms(),
        probe.samples(),
        probe::REFERENCE_PROBE_MS
    );
    let metrics = if args.trace {
        // Read before the traced run grows the heap.
        let peak_rss = peak_rss_mb()?;
        traced_metrics(&p, &untraced, peak_rss, &probe, &work.0, &mut tally)?
    } else {
        let tail = stats::tail(&untraced.walls_ms, TAIL_BEYOND).ok_or("too few iterations")?;
        let (setup, p50, rate) = (
            stats::median(&setup_s),
            stats::median(&untraced.walls_ms),
            stats::median(&untraced.rates),
        );
        println!(
            "# iter_ms_tail is p{:.1} of {} iterations",
            tail.percentile, tail.samples
        );
        println!(
            "# unscaled: setup_s {setup:.4} iter_ms_p50 {p50:.4} iter_ms_tail {:.4} cycle_corners_per_s {rate:.1}",
            tail.value
        );
        vec![
            ("setup_s", setup * scale),
            ("iter_ms_p50", p50 * scale),
            ("iter_ms_tail", tail.value * scale),
            ("cycle_corners_per_s", rate / scale),
        ]
    };
    for (name, result) in p.checks() {
        tally.record(name, result);
    }
    Ok((tally, metrics))
}

/// The per-layer metrics: the traced run's spans plus figures of the
/// untraced loop that ran first.
fn traced_metrics(
    p: &Prepared,
    untraced: &Loop,
    peak_rss: f64,
    probe: &HostProbe,
    work_dir: &Path,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let traced = trace::run(p, traced_iterations(p.kind), work_dir)?;
    for check in traced.checks {
        tally.record("traced mirror", check);
    }
    let spans = &traced.spans;
    let per = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    // `paper-repro` iterations carry zero sweep timings, so these read 0.
    let median_of = |f: fn(&SweepTiming) -> Duration| {
        let samples: Vec<f64> = untraced.timings.iter().map(|t| ms(f(t))).collect();
        stats::median(&samples)
    };
    let hits: u32 = untraced.timings.iter().map(|t| t.digest_cache_hits).sum();
    let programs: u32 = untraced
        .timings
        .iter()
        .map(|t| t.digest_cache_hits + t.simulated_programs)
        .sum();
    let thread_speedup = match p.report {
        Some(_) => {
            let one = workloads::with_threads(1, || p.iterate())?;
            tally.record(
                "one-thread iteration bytes",
                check_output(&p.reference, &one.text),
            );
            per(ms(one.timing.replay), median_of(|t| t.replay))
        }
        None => 0.0,
    };
    let query_tail = stats::tail(&untraced.queries_us, TAIL_BEYOND).map_or(0.0, |t| t.value);
    let (unique_ratio, run_p50, run_p90) = trace::digest_stats(&traced.digests);
    let (paper_gap, violations) = outcome_figures(p);
    let lanes_cc = spans.counted("timing.lanes.cycle_corners") as f64;
    let sim_cycles = spans.counted("pipeline.simulate.cycles") as f64;
    let untraced_p50 = stats::median(&untraced.walls_ms);
    let traced_p50 = stats::median(&traced.walls_ms);
    let mut metrics: Metrics = Vec::new();
    for (name, _, _) in PER_LAYER {
        let value = match name {
            "gen.generate.programs"
            | "pipeline.predecode.ops"
            | "pipeline.simulate.cycles"
            | "core.policy_bank.blocks" => spans.counted(name) as f64,
            "pipeline.simulate.ns_per_cycle" => {
                per(spans.ms("pipeline.simulate.ms") * 1e6, sim_cycles)
            }
            "pipeline.digest.unique_ratio" => unique_ratio,
            "pipeline.digest.run_len_p50" => run_p50,
            "pipeline.digest.run_len_p90" => run_p90,
            "pipeline.codec.bytes_per_cycle" => per(
                spans.counted("pipeline.codec.bytes") as f64,
                spans.counted("pipeline.codec.cycles") as f64,
            ),
            "timing.lanes.ns_per_cycle_corner" => per(spans.ms("timing.lanes.ms") * 1e6, lanes_cc),
            "core.violations.static" => violations[0],
            "core.violations.instruction-based" => violations[1],
            "core.violations.execute-only" => violations[2],
            "core.violations.adaptive" => violations[3],
            "bench.sweep.phase1_ms" => median_of(|t| t.simulate),
            "bench.sweep.phase2_ms" => median_of(|t| t.replay),
            "bench.sweep.policy_replay_ms" => median_of(|t| t.policy_replay),
            "bench.cache.hit_ratio" => per(f64::from(hits), f64::from(programs)),
            "bench.replay.worker_imbalance" => traced.worker_imbalance,
            "bench.replay.thread_speedup" => thread_speedup,
            "query_us_p50" => stats::median(&untraced.queries_us),
            "query_us_tail" => query_tail,
            "paper_gap_pp" => paper_gap,
            "peak_rss_mb" => peak_rss,
            "error_rate" => f64::NAN, // filled in by `main` once every check ran
            "trace.overhead_pct" => (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "trace.coverage" => traced.coverage,
            "host.probe_ms" => probe.speed_ms(),
            "iter_ms_p50_unscaled" => untraced_p50,
            _ if name.starts_with("bench.serve.query_us.") => spans
                .samples
                .get(name)
                .map_or(0.0, |samples| stats::median(samples)),
            _ => spans.ms(name),
        };
        metrics.push((name, value));
    }
    println!(
        "# traced {} iterations (p50 {traced_p50:.3} ms) against {} untraced (p50 {untraced_p50:.3} ms)",
        traced.walls_ms.len(),
        untraced.walls_ms.len()
    );
    Ok(metrics)
}

/// `paper_gap_pp` and the four policies' violation counts of the
/// workload's reference output.
fn outcome_figures(p: &Prepared) -> (f64, [f64; 4]) {
    match &p.report {
        Some(report) => (
            (policy_speedup_percent(report, 1) - idca_bench::paper::FIG8_SPEEDUP_PERCENT).abs(),
            std::array::from_fn(|policy| report.violations(policy) as f64),
        ),
        None => {
            let exp = idca_bench::Experiments::prepare();
            let (_, fig8) = exp.fig8();
            let baseline: u64 = fig8
                .comparisons()
                .iter()
                .map(|c| c.baseline.violations)
                .sum();
            let (_, execute_only) = exp.fig8_with(
                &idca_core::ExecuteOnly::new(exp.lut.clone()),
                &idca_core::ClockGenerator::Ideal,
            );
            (
                workloads::paper_gap_pp(&exp),
                [
                    baseline as f64,
                    fig8.total_violations() as f64,
                    execute_only.total_violations() as f64,
                    0.0,
                ],
            )
        }
    }
}

/// Mean speedup of one policy over the static baseline, in percent.
fn policy_speedup_percent(report: &SweepReport, policy: usize) -> f64 {
    let speedups = report.speedups(policy);
    (speedups.iter().sum::<f64>() / speedups.len() as f64 - 1.0) * 100.0
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_json(tally: &Tally, metrics: &[(&str, f64)], units: &[(&str, &str, &str)]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = units
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or("", |(_, unit, _)| unit);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        entries.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!("usage: perfbench --workload <paper-repro|sweep-corners|sweep-fleet> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (mut tally, mut metrics) = match run(&args) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    let error_rate = tally.failed as f64 / tally.attempted as f64;
    for (name, value) in &mut metrics {
        if *name == "error_rate" {
            *value = error_rate;
        }
        if !value.is_finite() {
            tally.record(name, Err(format!("metric is {value}")));
            *value = 0.0;
        }
    }
    let units: &[(&str, &str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_json(&tally, &metrics, units));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        names.sort_unstable();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for (_, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(matches!(*better, "lower" | "higher"));
        }
    }

    #[test]
    fn benchmark_json_registers_every_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for kind in Kind::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", kind.name())));
        }
        let registered = json.matches("\"better\"").count();
        assert_eq!(registered, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn every_metric_is_emitted_by_both_modes() {
        let args = |trace: &str| {
            parse_args(
                &[
                    "--workload",
                    "sweep-fleet",
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ]
                .map(String::from),
            )
            .expect("valid arguments")
        };
        for (trace, expected) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let (tally, metrics) = run(&args(trace)).expect("benchmark runs");
            assert_eq!(tally.failed, 0);
            let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
            let wanted: Vec<&str> = expected.iter().map(|m| m.0).collect();
            assert_eq!(names, wanted);
            let line = result_json(&tally, &metrics, expected);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }

    #[test]
    fn a_corrupted_report_fails_the_output_check() {
        let reference = "pvt_sweep.version=1\npolicy.static.violations=0\n";
        assert!(check_output(reference, reference).is_ok());
        let corrupted = reference.replace("=0", "=1");
        let error = check_output(reference, &corrupted).expect_err("corruption is caught");
        assert!(error.contains("line 2"), "{error}");

        let report = idca_bench::pvt_sweep(&idca_bench::SweepConfig {
            seeds: 2,
            corners: 2,
            ..idca_bench::SweepConfig::default()
        })
        .expect("sweep runs");
        let mut bytes = report.to_bytes();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x40;
        assert!(
            SweepReport::from_bytes(&bytes).is_err(),
            "checksum catches a flipped bit"
        );
    }

    #[test]
    fn arguments_are_validated() {
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string(), "1".to_string()]).is_err());
    }
}
