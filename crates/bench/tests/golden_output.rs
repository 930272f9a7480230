//! Golden snapshot tests for the `repro` binary's stdout.
//!
//! Two properties are pinned:
//!
//! 1. **Format stability** — the `repro --summary` headline and the
//!    `repro sweep` machine-readable report must match the committed golden
//!    files byte for byte, so report-format (or result) regressions are
//!    caught in CI. Refresh the snapshots with
//!    `UPDATE_GOLDEN=1 cargo test -p idca-bench --test golden_output`.
//! 2. **Thread-count invariance** — the sweep report must be byte-identical
//!    under `RAYON_NUM_THREADS=1` and `=4` (the merge order is canonical,
//!    not scheduling-dependent), and the paper run's reports under `=1`,
//!    `=2` and `=4` (one worker runs `Experiments::prepare`'s tasks in
//!    order).

use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Runs the repro binary with `args` and `threads` rayon workers and
/// returns its stdout. Panics if the binary fails.
fn repro_stdout(args: &[&str], threads: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("repro binary runs");
    assert!(
        output.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("repro output is UTF-8")
}

/// Compares `actual` against the golden file, rewriting it when
/// `UPDATE_GOLDEN` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("golden file is writable");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "`repro` stdout diverged from {} — if the change is intentional, \
         refresh with UPDATE_GOLDEN=1 cargo test -p idca-bench --test golden_output",
        path.display()
    );
}

#[test]
fn sweep_report_is_byte_identical_across_thread_counts_and_matches_golden() {
    let args = ["sweep", "--seeds", "4", "--corners", "2", "--seed", "7"];
    let single = repro_stdout(&args, "1");
    let four = repro_stdout(&args, "4");
    assert_eq!(
        single, four,
        "sweep report differs between RAYON_NUM_THREADS=1 and =4"
    );
    // Repeated runs with the same seed are byte-identical too.
    assert_eq!(single, repro_stdout(&args, "4"));
    assert_matches_golden("sweep_s4_c2_seed7.txt", &single);
}

/// Runs `repro` with `args` at 1, 2 and 4 workers, asserts the three
/// stdouts are equal and returns the 2-worker one.
fn thread_invariant_stdout(args: &[&str]) -> String {
    let two = repro_stdout(args, "2");
    for threads in ["1", "4"] {
        assert_eq!(
            repro_stdout(args, threads),
            two,
            "repro {args:?} differs between RAYON_NUM_THREADS=2 and ={threads}"
        );
    }
    two
}

#[test]
fn summary_report_matches_golden() {
    assert_matches_golden("summary.txt", &thread_invariant_stdout(&["--summary"]));
}

/// The full default report: Figs. 5–8, Tables I/II, §IV-B and the
/// ablations. `--summary` pins only the headline.
#[test]
fn default_report_matches_golden() {
    assert_matches_golden("repro_default.txt", &thread_invariant_stdout(&[]));
}

#[test]
fn digest_cached_sweep_is_byte_identical_cold_warm_threaded_and_stale() {
    let dir = std::env::temp_dir().join(format!("idca-golden-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("temp dir is UTF-8").to_string();
    let args = [
        "sweep",
        "--seeds",
        "4",
        "--corners",
        "2",
        "--seed",
        "7",
        "--digest-cache",
        &dir_arg,
    ];

    // Cold run populates the cache; stdout matches the uncached golden.
    let cold = repro_stdout(&args, "4");
    assert_matches_golden("sweep_s4_c2_seed7.txt", &cold);
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists after the cold run")
        .map(|e| e.expect("cache dir entry").path())
        .collect();
    assert_eq!(entries.len(), 4, "one cache entry per seed");

    // Warm cache, and warm cache across thread counts: byte-identical.
    assert_eq!(repro_stdout(&args, "4"), cold, "warm cache diverged");
    assert_eq!(
        repro_stdout(&args, "1"),
        repro_stdout(&args, "4"),
        "cached sweep differs between RAYON_NUM_THREADS=1 and =4"
    );

    // Stale entry: corrupt one file's generator-config hash (bytes 16..24
    // of the entry header). The sweep must re-simulate that seed and still
    // produce the identical report.
    let victim = &entries[0];
    let mut bytes = std::fs::read(victim).expect("cache entry readable");
    bytes[16..24].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
    std::fs::write(victim, &bytes).expect("cache entry writable");
    assert_eq!(repro_stdout(&args, "4"), cold, "stale entry was trusted");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_sweep_merges_to_the_single_process_golden() {
    let dir = std::env::temp_dir().join(format!("idca-golden-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("shard work dir");
    let path = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("temp path is UTF-8")
            .to_string()
    };

    // Run each half of the sweep as its own process, then merge: the merged
    // stdout must match the single-process golden byte for byte.
    let shape = ["--seeds", "4", "--corners", "2", "--seed", "7"];
    for (shard, out) in [("1/2", path("part-1.sweep")), ("2/2", path("part-2.sweep"))] {
        let mut args = vec!["sweep"];
        args.extend_from_slice(&shape);
        args.extend_from_slice(&["--shard", shard, "--out", &out]);
        let shard_run = repro_stdout(&args, "2");
        assert_eq!(shard_run, "", "a shard must not render a partial report");
    }
    let merged = repro_stdout(
        &[
            "merge",
            &path("merged.sweep"),
            &path("part-2.sweep"),
            &path("part-1.sweep"),
        ],
        "2",
    );
    assert_matches_golden("sweep_s4_c2_seed7.txt", &merged);

    // The merged binary report re-renders identically through another merge
    // (merge of one complete report is the identity).
    let remerged = repro_stdout(
        &["merge", &path("remerged.sweep"), &path("merged.sweep")],
        "2",
    );
    assert_eq!(remerged, merged);

    // Overlapping and missing shards are structured errors, not reports.
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro binary runs")
    };
    let overlap = run(&[
        "merge",
        &path("bad.sweep"),
        &path("part-1.sweep"),
        &path("part-1.sweep"),
        &path("part-2.sweep"),
    ]);
    assert!(!overlap.status.success());
    assert!(String::from_utf8_lossy(&overlap.stderr).contains("more than one partial"));
    let missing = run(&["merge", &path("bad.sweep"), &path("part-1.sweep")]);
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("first missing job"));

    // A corrupted partial is rejected by the codec, named by file.
    let victim = dir.join("part-1.sweep");
    let mut bytes = std::fs::read(&victim).expect("partial readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&victim, &bytes).expect("partial writable");
    let corrupt = run(&[
        "merge",
        &path("bad.sweep"),
        &path("part-1.sweep"),
        &path("part-2.sweep"),
    ]);
    assert!(!corrupt.status.success());
    assert!(String::from_utf8_lossy(&corrupt.stderr).contains("part-1.sweep"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_queries_from_a_merged_corpus() {
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!("idca-golden-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    let out = corpus.join("full.sweep");
    repro_stdout(
        &[
            "sweep",
            "--seeds",
            "4",
            "--corners",
            "2",
            "--seed",
            "7",
            "--out",
            out.to_str().expect("UTF-8 path"),
        ],
        "2",
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--corpus", corpus.to_str().expect("UTF-8 path")])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    child
        .stdin
        .take()
        .expect("serve stdin")
        .write_all(b"corpus\nquantile adaptive 0.5\nbogus\nquit\n")
        .expect("queries written");
    let output = child.wait_with_output().expect("serve exits");
    assert!(
        output.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("serve output is UTF-8");
    assert!(stdout.contains("reports=1 jobs=8"), "{stdout}");
    assert!(
        stdout.contains("policy=adaptive q=0.5 speedup="),
        "{stdout}"
    );
    assert!(stdout.contains("error: unknown command"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_sweep_is_thread_invariant_and_matches_golden() {
    let args = [
        "sweep",
        "--seeds",
        "4",
        "--corners",
        "2",
        "--seed",
        "7",
        "--faults",
        "seed=9,droop-rate=0.5,droop-mag=0.6,spike-rate=0.02,spike-mag=0.8,penalty=6,detect-window=0.25",
    ];
    let single = repro_stdout(&args, "1");
    let four = repro_stdout(&args, "4");
    assert_eq!(
        single, four,
        "faulted sweep differs between RAYON_NUM_THREADS=1 and =4"
    );
    assert_eq!(single, repro_stdout(&args, "4"));
    assert!(single.contains("pvt_sweep.faults=seed=9,"), "{single}");
    assert!(single.contains("policy.adaptive.recovered="), "{single}");
    assert!(
        single.contains("policy.adaptive.effective_speedup.mean="),
        "{single}"
    );
    assert_matches_golden("sweep_s4_c2_seed7_faulted.txt", &single);
}

#[test]
fn empty_shards_merge_to_the_single_process_golden() {
    // 4 seeds over 8 shards: shards 1, 3, 5 and 7 get empty seed ranges.
    // Their partials must still be valid report files that merge cleanly.
    let dir = std::env::temp_dir().join(format!("idca-golden-empty-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("shard work dir");
    let path = |name: String| {
        dir.join(name)
            .to_str()
            .expect("temp path is UTF-8")
            .to_string()
    };

    let mut merge_args = vec!["merge".to_string(), path("merged.sweep".to_string())];
    for shard in 1..=8u32 {
        let out = path(format!("part-{shard}.sweep"));
        let spec = format!("{shard}/8");
        let stdout = repro_stdout(
            &[
                "sweep",
                "--seeds",
                "4",
                "--corners",
                "2",
                "--seed",
                "7",
                "--shard",
                &spec,
                "--out",
                &out,
            ],
            "2",
        );
        assert_eq!(stdout, "", "shard {shard}/8 rendered a partial report");
        merge_args.push(out);
    }
    let merge_args: Vec<&str> = merge_args.iter().map(String::as_str).collect();
    let merged = repro_stdout(&merge_args, "2");
    assert_matches_golden("sweep_s4_c2_seed7.txt", &merged);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_shards_merge_to_the_faulted_golden_and_reject_mixed_scenarios() {
    let dir = std::env::temp_dir().join(format!("idca-golden-fault-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("shard work dir");
    let path = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("temp path is UTF-8")
            .to_string()
    };
    let spec =
        "seed=9,droop-rate=0.5,droop-mag=0.6,spike-rate=0.02,spike-mag=0.8,penalty=6,detect-window=0.25";

    let shape = ["--seeds", "4", "--corners", "2", "--seed", "7"];
    for (shard, out) in [("1/2", path("part-1.sweep")), ("2/2", path("part-2.sweep"))] {
        let mut args = vec!["sweep"];
        args.extend_from_slice(&shape);
        args.extend_from_slice(&["--faults", spec, "--shard", shard, "--out", &out]);
        assert_eq!(repro_stdout(&args, "2"), "");
    }
    // An unfaulted partial of the same grid: must not merge with the
    // faulted ones.
    let unfaulted = path("unfaulted-2.sweep");
    {
        let mut args = vec!["sweep"];
        args.extend_from_slice(&shape);
        args.extend_from_slice(&["--shard", "2/2", "--out", &unfaulted]);
        assert_eq!(repro_stdout(&args, "2"), "");
    }

    let merged = repro_stdout(
        &[
            "merge",
            &path("merged.sweep"),
            &path("part-2.sweep"),
            &path("part-1.sweep"),
        ],
        "2",
    );
    assert_matches_golden("sweep_s4_c2_seed7_faulted.txt", &merged);

    let mixed = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "merge",
            &path("bad.sweep"),
            &path("part-1.sweep"),
            &unfaulted,
        ])
        .output()
        .expect("repro binary runs");
    assert!(!mixed.status.success(), "mixed fault scenarios merged");
    assert!(
        String::from_utf8_lossy(&mixed.stderr).contains("fault spec"),
        "mixed-scenario merge error does not name the fault spec"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupt_sweep_is_thread_invariant_cached_sharded_and_matches_golden() {
    let dir = std::env::temp_dir().join(format!("idca-golden-irq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    let path = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("temp path is UTF-8")
            .to_string()
    };
    let spec = "seed=3,rate=0.004,timer=211,penalty=6";
    let shape = ["--seeds", "4", "--corners", "2", "--seed", "7"];

    // Thread invariance of the storm report, and the golden pin. The storm
    // must surface what steady state cannot: entry-flush violations.
    let mut args = vec!["sweep"];
    args.extend_from_slice(&shape);
    args.extend_from_slice(&["--interrupts", spec]);
    let single = repro_stdout(&args, "1");
    let four = repro_stdout(&args, "4");
    assert_eq!(
        single, four,
        "interrupt sweep differs between RAYON_NUM_THREADS=1 and =4"
    );
    assert!(single.contains("pvt_sweep.interrupts=seed=3,"), "{single}");
    assert!(single.contains("irq.entries="), "{single}");
    assert!(
        single.contains("policy.instruction-based.entry_violations="),
        "{single}"
    );
    assert_matches_golden("sweep_s4_c2_seed7_interrupts.txt", &single);

    // Interrupt digests are scenario-variant: the cache keys them under the
    // spec fingerprint, so a storm run and a steady-state run on the same
    // cache directory keep separate entries and identical stdout cold/warm.
    let cache = path("cache");
    let mut cached_args = args.clone();
    cached_args.extend_from_slice(&["--digest-cache", &cache]);
    let cold = repro_stdout(&cached_args, "4");
    assert_eq!(cold, single, "caching changed the storm report");
    let storm_entries = std::fs::read_dir(&cache)
        .expect("cache dir exists after the cold run")
        .filter(|e| {
            e.as_ref()
                .expect("cache dir entry")
                .path()
                .extension()
                .is_some_and(|x| x == "bin")
        })
        .count();
    assert_eq!(storm_entries, 4, "one storm cache entry per seed");
    assert_eq!(repro_stdout(&cached_args, "4"), cold, "warm cache diverged");
    let mut steady_args = vec!["sweep"];
    steady_args.extend_from_slice(&shape);
    steady_args.extend_from_slice(&["--digest-cache", &cache]);
    repro_stdout(&steady_args, "4");
    let all_entries = std::fs::read_dir(&cache)
        .expect("cache dir exists")
        .filter(|e| {
            e.as_ref()
                .expect("cache dir entry")
                .path()
                .extension()
                .is_some_and(|x| x == "bin")
        })
        .count();
    assert_eq!(
        all_entries, 8,
        "steady-state digests must not alias the storm digests"
    );

    // Two storm shards merge to the single-process report byte for byte.
    for (shard, out) in [("1/2", path("part-1.sweep")), ("2/2", path("part-2.sweep"))] {
        let mut shard_args = vec!["sweep"];
        shard_args.extend_from_slice(&shape);
        shard_args.extend_from_slice(&["--interrupts", spec, "--shard", shard, "--out", &out]);
        assert_eq!(repro_stdout(&shard_args, "2"), "");
    }
    let merged = repro_stdout(
        &[
            "merge",
            &path("merged.sweep"),
            &path("part-2.sweep"),
            &path("part-1.sweep"),
        ],
        "2",
    );
    assert_matches_golden("sweep_s4_c2_seed7_interrupts.txt", &merged);

    // A steady-state partial of the same grid must not merge with the storm
    // partials, and the error names the interrupt spec.
    let steady = path("steady-2.sweep");
    {
        let mut shard_args = vec!["sweep"];
        shard_args.extend_from_slice(&shape);
        shard_args.extend_from_slice(&["--shard", "2/2", "--out", &steady]);
        assert_eq!(repro_stdout(&shard_args, "2"), "");
    }
    let mixed = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["merge", &path("bad.sweep"), &path("part-1.sweep"), &steady])
        .output()
        .expect("repro binary runs");
    assert!(!mixed.status.success(), "mixed interrupt scenarios merged");
    assert!(
        String::from_utf8_lossy(&mixed.stderr).contains("interrupt spec"),
        "mixed-scenario merge error does not name the interrupt spec"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// An interrupt storm and a combined faults + interrupts scenario on the
/// 16 seeds x 4 corners grid: both are thread-invariant and carry their
/// scenario columns, the combined report is pinned byte for byte, and the
/// steady-state report of the same grid carries no irq columns.
#[test]
fn storm_and_combined_fault_interrupt_sweeps_are_thread_invariant_and_match_golden() {
    let sweep = |scenario: &[&str], threads: &str| {
        let mut args = vec!["sweep", "--seeds", "16", "--corners", "4", "--seed", "7"];
        args.extend_from_slice(scenario);
        repro_stdout(&args, threads)
    };

    let steady = sweep(&[], "2");
    assert!(
        !steady.contains("irq."),
        "steady-state report must not carry irq columns"
    );

    let storm = ["--interrupts", "seed=3,rate=0.004,timer=211,penalty=6"];
    let single = sweep(&storm, "1");
    assert_eq!(
        single,
        sweep(&storm, "4"),
        "storm sweep differs between RAYON_NUM_THREADS=1 and =4"
    );
    assert!(single.contains("pvt_sweep.interrupts=seed=3,"), "{single}");
    assert!(single.contains("irq.entries="), "{single}");
    assert!(
        single.contains("policy.instruction-based.entry_violations="),
        "{single}"
    );

    // Fault factors apply first, then the entry surge.
    let combined = [
        "--faults",
        "seed=9,droop-rate=0.3,droop-mag=0.5,penalty=4",
        "--interrupts",
        "seed=5,rate=0.003,timer=173,penalty=5",
    ];
    let single = sweep(&combined, "1");
    assert_eq!(
        single,
        sweep(&combined, "4"),
        "combined sweep differs between RAYON_NUM_THREADS=1 and =4"
    );
    assert!(single.contains("policy.adaptive.recovered="), "{single}");
    assert!(
        single.contains("policy.adaptive.entry_violations="),
        "{single}"
    );
    assert_matches_golden("sweep_s16_c4_seed7_faults_interrupts.txt", &single);
}

#[test]
fn serve_survives_hostile_stdin() {
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!("idca-golden-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    let out = corpus.join("full.sweep");
    repro_stdout(
        &[
            "sweep",
            "--seeds",
            "2",
            "--corners",
            "2",
            "--seed",
            "7",
            "--out",
            out.to_str().expect("UTF-8 path"),
        ],
        "2",
    );

    let serve = |stdin_bytes: &[u8]| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["serve", "--corpus", corpus.to_str().expect("UTF-8 path")])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("serve starts");
        child
            .stdin
            .take()
            .expect("serve stdin")
            .write_all(stdin_bytes)
            .expect("stdin written");
        let output = child.wait_with_output().expect("serve exits");
        assert!(
            output.status.success(),
            "serve crashed on hostile stdin: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("serve replies are UTF-8")
    };

    // Invalid UTF-8 is a structured reply; the session keeps serving.
    let stdout = serve(b"\xff\xfe\xfd garbage\ncorpus\nquit\n");
    assert!(
        stdout.contains("error: query line is not valid UTF-8"),
        "{stdout}"
    );
    assert!(stdout.contains("reports=1"), "{stdout}");

    // An oversized line is rejected, and the reader resyncs to the next
    // line instead of treating the overflow as new queries.
    let mut hostile = vec![b'a'; 100_000];
    hostile.extend_from_slice(b"\ncorpus\nquit\n");
    let stdout = serve(&hostile);
    assert!(
        stdout.contains("error: query line exceeds 4096 bytes"),
        "{stdout}"
    );
    assert!(stdout.contains("reports=1"), "{stdout}");

    // Mid-line EOF: the final unterminated query is still answered and the
    // session exits cleanly.
    let stdout = serve(b"corpus");
    assert!(stdout.contains("reports=1"), "{stdout}");

    // Oversized line with no terminator at all: rejected, clean exit.
    let stdout = serve(&vec![b'b'; 50_000]);
    assert!(
        stdout.contains("error: query line exceeds 4096 bytes"),
        "{stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entries_are_quarantined_with_a_structured_warning() {
    let dir = std::env::temp_dir().join(format!("idca-golden-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("temp dir is UTF-8").to_string();
    let args = [
        "sweep",
        "--seeds",
        "2",
        "--corners",
        "2",
        "--seed",
        "7",
        "--digest-cache",
        &dir_arg,
    ];
    let cold = repro_stdout(&args, "2");

    // Truncate one entry, then rerun: same stdout, a structured stderr
    // warning, and the corrupt bytes moved into quarantine/.
    let victim = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .map(|e| e.expect("cache entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "bin"))
        .expect("at least one cache entry");
    let bytes = std::fs::read(&victim).expect("cache entry readable");
    std::fs::write(&victim, &bytes[..bytes.len() - 3]).expect("cache entry writable");

    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("RAYON_NUM_THREADS", "2")
        .output()
        .expect("repro binary runs");
    assert!(output.status.success());
    assert_eq!(
        String::from_utf8(output.stdout).expect("UTF-8 stdout"),
        cold,
        "quarantine changed the report"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("warning: digest-cache entry"),
        "no structured warning: {stderr}"
    );
    assert!(stderr.contains("quarantined to"), "{stderr}");
    let quarantined = dir
        .join("quarantine")
        .join(victim.file_name().expect("entry file name"));
    assert_eq!(
        std::fs::read(&quarantined).expect("quarantined bytes readable"),
        bytes[..bytes.len() - 3],
        "quarantine does not hold the rejected bytes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_rejects_malformed_flags() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro binary runs")
    };
    assert!(!run(&["sweep", "--seeds"]).status.success());
    assert!(!run(&["sweep", "--seeds", "zero"]).status.success());
    assert!(!run(&["sweep", "--bogus", "1"]).status.success());
    assert!(run(&["sweep", "--help"]).status.success());

    // Zero-sized sweeps are rejected before any work starts, on every
    // subcommand that takes the axes, and the error names the flag (the
    // library layer double-checks via `SweepConfig::validate`).
    for (sub, flag) in [
        ("sweep", "--seeds"),
        ("sweep", "--corners"),
        ("bench", "--seeds"),
        ("bench", "--corners"),
    ] {
        let output = run(&[sub, flag, "0"]);
        assert!(!output.status.success(), "{sub} {flag} 0 was accepted");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains(flag),
            "{sub} {flag} 0 error does not name the flag"
        );
    }

    // Shard specs are validated in one place; each rejection names the rule.
    for bad in ["0/4", "5/4", "1/0", "x/4", "1-4", "1/2/3"] {
        let output = run(&["sweep", "--shard", bad, "--out", "unused.sweep"]);
        assert!(!output.status.success(), "--shard {bad} was accepted");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("invalid --shard"),
            "--shard {bad} error is unstructured"
        );
    }
    // --shard without --out has nowhere to put the partial report.
    assert!(!run(&["sweep", "--shard", "1/2"]).status.success());
    // Fault specs are validated up front, naming the rule.
    for bad in ["seed", "warp=1", "droop-rate=2", "penalty=-1"] {
        let output = run(&["sweep", "--faults", bad]);
        assert!(!output.status.success(), "--faults {bad} was accepted");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("invalid --faults"),
            "--faults {bad} error is unstructured"
        );
    }
    // Interrupt specs are validated up front too, naming the rule.
    for bad in [
        "seed",
        "warp=1",
        "rate=1.5",
        "rate=1",
        "timer=1",
        "penalty=0",
        "vector=6",
    ] {
        let output = run(&["sweep", "--interrupts", bad]);
        assert!(!output.status.success(), "--interrupts {bad} was accepted");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("invalid --interrupts"),
            "--interrupts {bad} error is unstructured"
        );
    }
    // A well-formed vector outside the program image fails the first job,
    // naming its seed; an in-image vector runs the sweep to completion.
    let sweep = |interrupts: &str| {
        run(&[
            "sweep",
            "--seeds",
            "2",
            "--corners",
            "2",
            "--seed",
            "7",
            "--interrupts",
            interrupts,
        ])
    };
    let output = sweep("seed=1,rate=0.01,vector=4096");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("seed index 0")
            && stderr.contains("0x00001000 is outside the program image"),
        "{stderr}"
    );
    assert!(sweep("seed=1,rate=0.01,vector=8").status.success());
    // serve validates --corpus in the same shared place.
    assert!(!run(&["serve"]).status.success());
    assert!(!run(&["serve", "--corpus", "/nonexistent-idca-corpus"])
        .status
        .success());
    assert!(run(&["merge", "--help"]).status.success());
    assert!(run(&["serve", "--help"]).status.success());
}
