//! Property tests of the sharded-orchestration contract: for random sweep
//! shapes, shard counts and merge orders, running every shard through the
//! seed-range engine, shipping each partial report through the binary codec
//! and merging the parts must reproduce the single-process `SweepReport`
//! **byte-identically** — same struct, same rendered bytes, same serialized
//! bytes. Duplicate and missing shards must be structured merge errors.

use idca_bench::{
    merge_reports, pvt_sweep, pvt_sweep_seed_range_timed_with_cache, MergeError, SweepConfig,
    SweepReport, SweepShard,
};
use idca_cases::property;

/// Runs one shard through the seed-range engine and round-trips its partial
/// report through the binary codec (exactly what `repro sweep --shard` plus
/// `repro merge` do to it).
fn shard_partial(config: &SweepConfig, shard: SweepShard) -> SweepReport {
    let (partial, _) =
        pvt_sweep_seed_range_timed_with_cache(config, shard.seed_range(config.seeds), None)
            .expect("shard sweep runs");
    SweepReport::from_bytes(&partial.to_bytes()).expect("partial report round-trips")
}

#[test]
fn any_shard_partition_merges_to_the_byte_identical_report() {
    property!(
        any_shard_partition_merges_to_the_byte_identical_report,
        master = 0xCA5E_0016,
        cases = 10
    )
    .run(|case| {
        let seeds = case.int(1u32..7);
        let corners = case.int(1u32..4);
        let master_seed = case.u64();
        let shard_count = case.int(1u32..=8);
        let merge_order_seed = case.u64();
        let config = SweepConfig {
            seeds,
            corners,
            master_seed,
            ..SweepConfig::default()
        };
        let full = pvt_sweep(&config).expect("full sweep runs");

        let mut partials: Vec<SweepReport> = (1..=shard_count)
            .map(|index| {
                let shard =
                    SweepShard::parse(&format!("{index}/{shard_count}")).expect("valid shard spec");
                shard_partial(&config, shard)
            })
            .collect();
        // Shuffle the merge order deterministically: merging must be
        // insensitive to which shard finishes (or is listed) first.
        for i in (1..partials.len()).rev() {
            let mixed = (merge_order_seed ^ (i as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            partials.swap(i, (mixed >> 33) as usize % (i + 1));
        }

        let merged = merge_reports(partials).expect("clean partition merges");
        assert_eq!(&merged, &full);
        assert_eq!(merged.render(), full.render());
        assert_eq!(merged.to_bytes(), full.to_bytes());
    });
}

#[test]
fn duplicate_and_missing_shards_are_structured_errors() {
    property!(
        duplicate_and_missing_shards_are_structured_errors,
        master = 0xCA5E_0017,
        cases = 10
    )
    .run(|case| {
        let seeds = case.int(2u32..6);
        let master_seed = case.u64();
        let config = SweepConfig {
            seeds,
            corners: 2,
            master_seed,
            ..SweepConfig::default()
        };
        let first = shard_partial(&config, SweepShard::parse("1/2").expect("valid"));
        let second = shard_partial(&config, SweepShard::parse("2/2").expect("valid"));

        // The same shard twice: rejected as an overlap (with both halves
        // present) or — when shard 1 is empty for this shape — as missing
        // coverage; never silently double-counted.
        let twice = merge_reports(vec![first.clone(), first.clone(), second.clone()]);
        if first.jobs.is_empty() {
            assert!(
                matches!(twice, Err(MergeError::MissingJobs { .. })),
                "{twice:?}"
            );
        } else {
            assert!(
                matches!(twice, Err(MergeError::OverlappingJobs { .. })),
                "{twice:?}"
            );
        }

        // A missing shard: rejected with the coverage gap named, unless the
        // present shard happens to cover everything (empty partner shard).
        let missing = merge_reports(vec![first.clone()]);
        if second.jobs.is_empty() {
            assert!(missing.is_ok());
        } else {
            assert!(
                matches!(missing, Err(MergeError::MissingJobs { .. })),
                "{missing:?}"
            );
        }
    });
}
