//! Sharded sweep orchestration: deterministic job partitioning, the
//! versioned binary partial-report codec and the merge algebra.
//!
//! The two-phase sweep engine is single-process; this module is what lets a
//! fleet of processes (CI runners, machines) split one `N×M` job grid and
//! still produce the *exact* bytes of the single-process run:
//!
//! * [`SweepShard`] — a validated `K/N` shard specification that partitions
//!   the **seed axis** into contiguous, balanced ranges. Seeds (not
//!   `(seed, corner)` jobs) are the unit of sharding because phase 1
//!   simulates per seed and phase 2 replays per seed against all corners —
//!   a seed split across shards would be simulated twice.
//! * [`SweepReport::to_bytes`] / [`SweepReport::from_bytes`] — a versioned,
//!   checksummed binary codec in the same [`frame`] as the [`TimingDigest`]
//!   codec, with every structural invariant re-validated. Any single
//!   corrupted byte of a stored report is rejected with a [`FormatError`],
//!   never a panic. Effective frequencies are stored as raw `f64` bit
//!   patterns, so a report that went to disk and back renders
//!   byte-identically.
//! * [`merge_reports`] — folds partial reports into the canonical full
//!   report. Mismatched sweep identities, overlapping shards and missing
//!   jobs are structured [`MergeError`]s, never silent double-counts; a
//!   successful merge is proven (by the shard-merge property tests and the
//!   CI smoke job) byte-identical to the single-process sweep.
//!
//! [`TimingDigest`]: idca_pipeline::TimingDigest

use crate::sweep::{PolicyJobOutcome, SweepJobOutcome, SweepReport, SWEEP_POLICIES};
use idca_pipeline::frame::{self, FormatError};
use idca_pipeline::InterruptSpec;
use idca_timing::{FaultSpec, PvtCorner};
use std::ops::Range;

/// A validated `K/N` shard specification (1-based `K`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepShard {
    index: u32,
    count: u32,
}

impl SweepShard {
    /// Builds a shard spec, rejecting `K = 0`, `N = 0` and `K > N`.
    ///
    /// # Errors
    ///
    /// Returns [`ShardSpecError`] describing the violated constraint.
    pub fn new(index: u32, count: u32) -> Result<SweepShard, ShardSpecError> {
        if count == 0 {
            return Err(ShardSpecError::ZeroCount);
        }
        if index == 0 {
            return Err(ShardSpecError::ZeroIndex);
        }
        if index > count {
            return Err(ShardSpecError::IndexOutOfRange { index, count });
        }
        Ok(SweepShard { index, count })
    }

    /// Parses a `K/N` spec like `2/4` (as accepted by `repro sweep
    /// --shard`). `K` is 1-based: `--shard 1/4` is the first of four
    /// shards; `0/N`, `K > N` and anything non-numeric are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ShardSpecError`] for malformed or out-of-range specs.
    pub fn parse(spec: &str) -> Result<SweepShard, ShardSpecError> {
        let Some((index, count)) = spec.split_once('/') else {
            return Err(ShardSpecError::Malformed);
        };
        let index: u32 = index.parse().map_err(|_| ShardSpecError::Malformed)?;
        let count: u32 = count.parse().map_err(|_| ShardSpecError::Malformed)?;
        SweepShard::new(index, count)
    }

    /// The 1-based shard index `K`.
    #[must_use]
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The shard count `N`.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The contiguous, balanced seed range this shard owns out of `seeds`
    /// total: shard `K/N` covers `[⌊(K−1)·S/N⌋, ⌊K·S/N⌋)`. Every seed
    /// belongs to exactly one shard, range sizes differ by at most one, and
    /// shards beyond the seed count come out empty (legal — their partial
    /// reports merge as no-ops).
    #[must_use]
    pub fn seed_range(&self, seeds: u32) -> Range<u32> {
        let slice = |k: u32| (u64::from(seeds) * u64::from(k) / u64::from(self.count)) as u32;
        slice(self.index - 1)..slice(self.index)
    }
}

impl std::fmt::Display for SweepShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Errors of [`SweepShard::parse`] / [`SweepShard::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShardSpecError {
    /// The spec is not two `/`-separated unsigned integers.
    Malformed,
    /// `K = 0`: shard indices are 1-based (`--shard 1/N` is the first).
    ZeroIndex,
    /// `N = 0`: a sweep cannot be split into zero shards.
    ZeroCount,
    /// `K > N`.
    IndexOutOfRange {
        /// The offending 1-based index.
        index: u32,
        /// The shard count it exceeds.
        count: u32,
    },
}

impl std::fmt::Display for ShardSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardSpecError::Malformed => {
                write!(f, "shard spec must be K/N with unsigned integers, like 2/4")
            }
            ShardSpecError::ZeroIndex => {
                write!(f, "shard index is 1-based: the first shard is 1/N, not 0/N")
            }
            ShardSpecError::ZeroCount => write!(f, "shard count must be at least 1"),
            ShardSpecError::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} exceeds shard count {count}")
            }
        }
    }
}

impl std::error::Error for ShardSpecError {}

/// Body layout of the partial-report binary format.
mod codec {
    use idca_pipeline::frame::{FormatError, Reader};

    /// File magic of the sweep-report format.
    pub(super) const MAGIC: &[u8; 8] = b"IDCASWRP";
    /// Current format version. Version 2 added the fault-spec block to the
    /// body header and the recovery columns to every policy entry; version 3
    /// added the interrupt-spec block, the per-job interrupt columns
    /// (entries, handler cycles) and the per-policy entry-violation column.
    /// Version-1 and version-2 files are rejected with
    /// [`super::FormatError::UnsupportedVersion`] (re-run the shards — a
    /// sweep is cheaper than a format bridge).
    pub(super) const VERSION: u32 = 3;
    /// Fixed-size fault-spec block inside the body header: present flag +
    /// fault seed + six f64 parameters (droop rate/mag, spike rate/mag,
    /// shift mag, detect window) + replay penalty. All-zero when absent.
    pub(super) const FAULT_BLOCK_BYTES: usize = 4 + 8 + 6 * 8 + 4;
    /// Fixed-size interrupt-spec block inside the body header: present
    /// flag, storm seed, rate f64-bits, timer, vector, penalty and surge
    /// f64-bits. All-zero when absent.
    pub(super) const IRQ_BLOCK_BYTES: usize = 4 + 8 + 8 + 4 + 4 + 4 + 8;
    /// Body header: seeds + corners + master_seed + margin + fault block +
    /// interrupt block + corner_count + job_count.
    pub(super) const BODY_HEADER_BYTES: usize =
        4 + 4 + 8 + 8 + FAULT_BLOCK_BYTES + IRQ_BLOCK_BYTES + 4 + 4;
    /// Serialized size of one corner sample: index + sigma + droop + temp +
    /// salt.
    pub(super) const CORNER_ENTRY_BYTES: usize = 4 + 8 + 8 + 8 + 8;
    /// Serialized size of one job row: seed + corner + cycles + interrupt
    /// entries + handler cycles + per-policy (violations, entry violations,
    /// mhz, warmup, recovered, replay penalty, silent risk, recovery mhz)
    /// tuples.
    pub(super) const JOB_ENTRY_BYTES: usize = 4 + 4 + 8 + 8 + 8 + super::SWEEP_POLICIES.len() * 64;

    /// Reads a spec block of `block_bytes`: its present flag, then a reader
    /// over its fields. An absent block must be all zero, as `to_bytes`
    /// writes it, so every report that decodes re-encodes to its own bytes.
    pub(super) fn spec_block<'a>(
        r: &mut Reader<'a>,
        block_bytes: usize,
    ) -> Result<Option<Reader<'a>>, FormatError> {
        let present = r.u32()?;
        let fields = r.bytes_exact(block_bytes - 4)?;
        match present {
            1 => Ok(Some(Reader::new(fields))),
            0 if fields.iter().all(|&byte| byte == 0) => Ok(None),
            0 => Err(FormatError::Malformed("absent spec block is not all zero")),
            _ => Err(FormatError::Malformed("spec flag must be 0 or 1")),
        }
    }
}

impl SweepReport {
    /// Serializes the (partial or full) report to the compact versioned
    /// binary format — the unit that ships between shard processes: a
    /// [`frame`] under magic `IDCASWRP`, whose body is
    ///
    /// ```text
    /// seeds u32 | corners u32 | master_seed u64 | margin f64-bits
    /// | fault block (present u32, fault seed u64, droop rate/mag,
    ///   spike rate/mag, shift mag, detect window f64-bits, penalty u32)
    /// | interrupt block (present u32, storm seed u64, rate f64-bits,
    ///   timer u32, vector u32, penalty u32, surge f64-bits)
    /// | corner_count u32 | job_count u32
    /// | corner entries | job entries
    /// ```
    ///
    /// (all integers little-endian). The frame checksum covers the whole
    /// body, so any single corrupted byte of a stored report is detected.
    /// All `f64` fields (margin, fault
    /// parameters, corner coordinates, effective frequencies) are stored as
    /// raw bit patterns: merging deserialized shards must reproduce the
    /// single-process report **byte-identically**, so the float round-trip
    /// is by bits, never by text.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_len = self.corner_samples.len() * codec::CORNER_ENTRY_BYTES
            + self.jobs.len() * codec::JOB_ENTRY_BYTES;
        let mut body = Vec::with_capacity(codec::BODY_HEADER_BYTES + payload_len);
        body.extend_from_slice(&self.seeds.to_le_bytes());
        body.extend_from_slice(&self.corners.to_le_bytes());
        body.extend_from_slice(&self.master_seed.to_le_bytes());
        body.extend_from_slice(&self.margin.to_bits().to_le_bytes());
        // The fault block is fixed-size (all-zero when absent) so the body
        // header never shifts and a flag flip cannot desynchronize the
        // tables.
        let fault = self.faults.unwrap_or(FaultSpec {
            seed: 0,
            droop_rate: 0.0,
            droop_mag: 0.0,
            spike_rate: 0.0,
            spike_mag: 0.0,
            shift_mag: 0.0,
            replay_penalty: 0,
            detect_window: 0.0,
        });
        body.extend_from_slice(&u32::from(self.faults.is_some()).to_le_bytes());
        body.extend_from_slice(&fault.seed.to_le_bytes());
        for value in [
            fault.droop_rate,
            fault.droop_mag,
            fault.spike_rate,
            fault.spike_mag,
            fault.shift_mag,
            fault.detect_window,
        ] {
            body.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        body.extend_from_slice(&fault.replay_penalty.to_le_bytes());
        // The interrupt block is fixed-size (all-zero when absent) for the
        // same reason as the fault block.
        let irq = self.interrupts.unwrap_or(InterruptSpec {
            seed: 0,
            rate: 0.0,
            timer: 0,
            vector: 0,
            penalty: 0,
            surge: 0.0,
        });
        body.extend_from_slice(&u32::from(self.interrupts.is_some()).to_le_bytes());
        body.extend_from_slice(&irq.seed.to_le_bytes());
        body.extend_from_slice(&irq.rate.to_bits().to_le_bytes());
        body.extend_from_slice(&irq.timer.to_le_bytes());
        body.extend_from_slice(&irq.vector.to_le_bytes());
        body.extend_from_slice(&irq.penalty.to_le_bytes());
        body.extend_from_slice(&irq.surge.to_bits().to_le_bytes());
        body.extend_from_slice(&(self.corner_samples.len() as u32).to_le_bytes());
        body.extend_from_slice(&(self.jobs.len() as u32).to_le_bytes());
        for corner in &self.corner_samples {
            body.extend_from_slice(&corner.index.to_le_bytes());
            body.extend_from_slice(&corner.process_sigma.to_bits().to_le_bytes());
            body.extend_from_slice(&corner.voltage_droop_mv.to_bits().to_le_bytes());
            body.extend_from_slice(&corner.temperature_c.to_bits().to_le_bytes());
            body.extend_from_slice(&corner.salt().to_le_bytes());
        }
        for job in &self.jobs {
            body.extend_from_slice(&job.seed_index.to_le_bytes());
            body.extend_from_slice(&job.corner_index.to_le_bytes());
            body.extend_from_slice(&job.cycles.to_le_bytes());
            body.extend_from_slice(&job.irq_entries.to_le_bytes());
            body.extend_from_slice(&job.irq_handler_cycles.to_le_bytes());
            for policy in &job.policies {
                body.extend_from_slice(&policy.violations.to_le_bytes());
                body.extend_from_slice(&policy.entry_violations.to_le_bytes());
                body.extend_from_slice(&policy.mhz.to_bits().to_le_bytes());
                body.extend_from_slice(&policy.warmup_cycles.to_le_bytes());
                body.extend_from_slice(&policy.recovered_cycles.to_le_bytes());
                body.extend_from_slice(&policy.replay_penalty_cycles.to_le_bytes());
                body.extend_from_slice(&policy.silent_risk_cycles.to_le_bytes());
                body.extend_from_slice(&policy.recovery_mhz.to_bits().to_le_bytes());
            }
        }
        frame::seal(codec::MAGIC, codec::VERSION, &body)
    }

    /// Deserializes a report produced by [`SweepReport::to_bytes`].
    ///
    /// A report file is untrusted input shipped between machines: wrong
    /// magic, unknown version, truncation, trailing garbage, a flipped
    /// payload bit, out-of-range or out-of-order job coordinates,
    /// inconsistent corner tables and fault or interrupt specs the CLI
    /// parsers would reject are all reported as a [`FormatError`] — no
    /// input can panic this parser or yield a structurally inconsistent
    /// report.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] describing the first violation found.
    pub fn from_bytes(bytes: &[u8]) -> Result<SweepReport, FormatError> {
        let mut r = frame::open(bytes, codec::MAGIC, codec::VERSION)?;
        let seeds = r.u32()?;
        let corners = r.u32()?;
        let master_seed = r.u64()?;
        let margin = r.f64_bits()?;
        // Struct fields are evaluated in the order written: wire order.
        let faults = match codec::spec_block(&mut r, codec::FAULT_BLOCK_BYTES)? {
            None => None,
            Some(mut b) => Some(FaultSpec {
                seed: b.u64()?,
                droop_rate: b.f64_bits()?,
                droop_mag: b.f64_bits()?,
                spike_rate: b.f64_bits()?,
                spike_mag: b.f64_bits()?,
                shift_mag: b.f64_bits()?,
                detect_window: b.f64_bits()?,
                replay_penalty: b.u32()?,
            }),
        };
        let interrupts = match codec::spec_block(&mut r, codec::IRQ_BLOCK_BYTES)? {
            None => None,
            Some(mut b) => Some(InterruptSpec {
                seed: b.u64()?,
                rate: b.f64_bits()?,
                timer: b.u32()?,
                vector: b.u32()?,
                penalty: b.u32()?,
                surge: b.f64_bits()?,
            }),
        };
        let corner_count = r.u32()? as usize;
        let job_count = r.u32()? as usize;
        r.expect_tables(&[
            (corner_count, codec::CORNER_ENTRY_BYTES),
            (job_count, codec::JOB_ENTRY_BYTES),
        ])?;
        // A matching checksum proves only that the bytes are the ones
        // written: the specs must also pass the checks the CLI parsers run.
        if faults.is_some_and(|spec| spec.validate().is_err()) {
            return Err(FormatError::Malformed("fault spec out of range"));
        }
        if interrupts.is_some_and(|spec| spec.validate().is_err()) {
            return Err(FormatError::Malformed("interrupt spec out of range"));
        }
        if corner_count != corners as usize {
            return Err(FormatError::Malformed(
                "corner table disagrees with header corner count",
            ));
        }
        let max_jobs = (u64::from(seeds) * u64::from(corners)) as usize;
        if job_count > max_jobs {
            return Err(FormatError::Malformed(
                "more jobs than the seeds x corners grid",
            ));
        }

        let mut corner_samples = Vec::with_capacity(corner_count);
        for position in 0..corner_count {
            let index = r.u32()?;
            if index as usize != position {
                return Err(FormatError::Malformed(
                    "corner indices must be dense and in order",
                ));
            }
            let process_sigma = r.f64_bits()?;
            let voltage_droop_mv = r.f64_bits()?;
            let temperature_c = r.f64_bits()?;
            let salt = r.u64()?;
            corner_samples.push(PvtCorner::from_raw(
                index,
                process_sigma,
                voltage_droop_mv,
                temperature_c,
                salt,
            ));
        }

        let mut jobs: Vec<SweepJobOutcome> = Vec::with_capacity(job_count);
        for _ in 0..job_count {
            let seed_index = r.u32()?;
            let corner_index = r.u32()?;
            if seed_index >= seeds || corner_index >= corners {
                return Err(FormatError::Malformed(
                    "job coordinates outside the sweep grid",
                ));
            }
            if let Some(last) = jobs.last() {
                // Canonical (seed, corner) order, strictly: rejects both
                // disorder and duplicate rows inside one report.
                if (last.seed_index, last.corner_index) >= (seed_index, corner_index) {
                    return Err(FormatError::Malformed(
                        "job rows not in strictly ascending (seed, corner) order",
                    ));
                }
            }
            let cycles = r.u64()?;
            let irq_entries = r.u64()?;
            let irq_handler_cycles = r.u64()?;
            let mut policies = [PolicyJobOutcome {
                violations: 0,
                entry_violations: 0,
                mhz: 0.0,
                warmup_cycles: 0,
                recovered_cycles: 0,
                replay_penalty_cycles: 0,
                silent_risk_cycles: 0,
                recovery_mhz: 0.0,
            }; SWEEP_POLICIES.len()];
            for policy in &mut policies {
                policy.violations = r.u64()?;
                policy.entry_violations = r.u64()?;
                policy.mhz = r.f64_bits()?;
                policy.warmup_cycles = r.u64()?;
                policy.recovered_cycles = r.u64()?;
                policy.replay_penalty_cycles = r.u64()?;
                policy.silent_risk_cycles = r.u64()?;
                policy.recovery_mhz = r.f64_bits()?;
            }
            jobs.push(SweepJobOutcome {
                seed_index,
                corner_index,
                cycles,
                irq_entries,
                irq_handler_cycles,
                policies,
            });
        }

        Ok(SweepReport {
            seeds,
            corners,
            master_seed,
            margin,
            faults,
            interrupts,
            corner_samples,
            jobs,
        })
    }
}

/// Errors of [`merge_reports`]: the partial reports do not form a clean
/// partition of one sweep's job grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// No partial reports were given.
    NoInputs,
    /// Two partials disagree on the sweep identity (they come from
    /// different sweeps, or one header is forged).
    ConfigMismatch {
        /// Which header field disagreed.
        field: &'static str,
    },
    /// The same `(seed, corner)` job appears in more than one partial —
    /// merging would silently double-count it.
    OverlappingJobs {
        /// Seed index of the duplicated job.
        seed_index: u32,
        /// Corner index of the duplicated job.
        corner_index: u32,
    },
    /// The union of the partials does not cover the full grid (a shard is
    /// missing).
    MissingJobs {
        /// Jobs the full grid needs.
        expected: u64,
        /// Jobs the partials supplied.
        actual: u64,
        /// Canonically-first job with no row.
        first_missing: (u32, u32),
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoInputs => write!(f, "no partial reports to merge"),
            MergeError::ConfigMismatch { field } => {
                write!(f, "partial reports disagree on sweep {field}")
            }
            MergeError::OverlappingJobs {
                seed_index,
                corner_index,
            } => write!(
                f,
                "job (seed {seed_index}, corner {corner_index}) appears in more than one partial report"
            ),
            MergeError::MissingJobs {
                expected,
                actual,
                first_missing,
            } => write!(
                f,
                "merged partials cover {actual} of {expected} jobs; first missing job is (seed {}, corner {})",
                first_missing.0, first_missing.1
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Folds partial shard reports into the canonical full report.
///
/// Validates that every partial describes the *same* sweep (seeds, corners,
/// master seed, margin, fault spec, interrupt spec, sampled corners —
/// compared bit-exactly), that no
/// `(seed, corner)` job appears twice, and that the union covers the full
/// grid; the result is then jobs-sorted into canonical order and — because
/// shard rows are bit-identical to the single-process rows — renders the
/// exact bytes of the unsharded run. Merge order cannot matter: the inputs
/// are validated as a set and the output order is canonical.
///
/// # Errors
///
/// Returns a [`MergeError`] naming the first identity mismatch, duplicated
/// job or missing job.
pub fn merge_reports(reports: Vec<SweepReport>) -> Result<SweepReport, MergeError> {
    let mut parts = reports.into_iter();
    let mut merged = parts.next().ok_or(MergeError::NoInputs)?;
    for part in parts {
        if part.seeds != merged.seeds {
            return Err(MergeError::ConfigMismatch { field: "seeds" });
        }
        if part.corners != merged.corners {
            return Err(MergeError::ConfigMismatch { field: "corners" });
        }
        if part.master_seed != merged.master_seed {
            return Err(MergeError::ConfigMismatch {
                field: "master seed",
            });
        }
        if part.margin.to_bits() != merged.margin.to_bits() {
            return Err(MergeError::ConfigMismatch {
                field: "variation margin",
            });
        }
        if part.faults.map(|s| s.fingerprint()) != merged.faults.map(|s| s.fingerprint()) {
            return Err(MergeError::ConfigMismatch {
                field: "fault spec",
            });
        }
        if part.interrupts.map(|s| s.fingerprint()) != merged.interrupts.map(|s| s.fingerprint()) {
            return Err(MergeError::ConfigMismatch {
                field: "interrupt spec",
            });
        }
        if part.corner_samples != merged.corner_samples {
            return Err(MergeError::ConfigMismatch {
                field: "corner samples",
            });
        }
        merged.merge(part);
    }

    // `SweepReport::merge` restored canonical order, but no merge sorted a
    // lone report (sorting sorted rows is one pass). One linear scan then
    // rejects overlaps, and a second finds the first coverage gap.
    merged
        .jobs
        .sort_by_key(|job| (job.seed_index, job.corner_index));
    for pair in merged.jobs.windows(2) {
        if (pair[0].seed_index, pair[0].corner_index) == (pair[1].seed_index, pair[1].corner_index)
        {
            return Err(MergeError::OverlappingJobs {
                seed_index: pair[0].seed_index,
                corner_index: pair[0].corner_index,
            });
        }
    }
    let expected = u64::from(merged.seeds) * u64::from(merged.corners);
    let actual = merged.jobs.len() as u64;
    if actual != expected {
        // Walk the expected grid and the sorted rows side by side: the first
        // grid job the rows step over is the first missing one.
        let mut rows = merged
            .jobs
            .iter()
            .map(|j| (j.seed_index, j.corner_index))
            .peekable();
        let first_missing = (0..merged.seeds)
            .flat_map(|s| (0..merged.corners).map(move |c| (s, c)))
            .find(|&job| {
                while rows.next_if(|&row| row < job).is_some() {}
                rows.next_if_eq(&job).is_none()
            })
            .unwrap_or((merged.seeds, merged.corners));
        return Err(MergeError::MissingJobs {
            expected,
            actual,
            first_missing,
        });
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{pvt_sweep, SweepConfig};

    fn small_report() -> SweepReport {
        pvt_sweep(&SweepConfig {
            seeds: 3,
            corners: 2,
            master_seed: 0x5EED,
            ..SweepConfig::default()
        })
        .expect("sweep runs")
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        let shard = SweepShard::parse("2/4").expect("valid spec");
        assert_eq!((shard.index(), shard.count()), (2, 4));
        assert_eq!(shard.to_string(), "2/4");
        assert_eq!(SweepShard::parse("0/4"), Err(ShardSpecError::ZeroIndex));
        assert_eq!(SweepShard::parse("1/0"), Err(ShardSpecError::ZeroCount));
        assert_eq!(
            SweepShard::parse("5/4"),
            Err(ShardSpecError::IndexOutOfRange { index: 5, count: 4 })
        );
        for bad in ["", "3", "/", "a/b", "1/2/3", "-1/4", "1.5/4"] {
            assert_eq!(
                SweepShard::parse(bad),
                Err(ShardSpecError::Malformed),
                "{bad}"
            );
        }
    }

    #[test]
    fn shard_seed_ranges_partition_the_seed_axis() {
        for seeds in [0u32, 1, 5, 8, 100] {
            for count in 1u32..=8 {
                let mut covered = Vec::new();
                let mut previous_end = 0;
                for index in 1..=count {
                    let range = SweepShard::new(index, count).unwrap().seed_range(seeds);
                    assert_eq!(
                        range.start, previous_end,
                        "{seeds} seeds, shard {index}/{count}"
                    );
                    previous_end = range.end;
                    covered.extend(range);
                }
                assert_eq!(previous_end, seeds);
                assert_eq!(covered, (0..seeds).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn report_codec_round_trips_bit_exactly() {
        let report = small_report();
        let bytes = report.to_bytes();
        let back = SweepReport::from_bytes(&bytes).expect("round-trips");
        assert_eq!(back, report);
        assert_eq!(back.render(), report.render());
        assert_eq!(back.to_bytes(), bytes);
        // An empty partial (legal for a shard with no seeds) round-trips too.
        let empty = SweepReport {
            jobs: Vec::new(),
            ..report
        };
        let back = SweepReport::from_bytes(&empty.to_bytes()).expect("empty round-trips");
        assert_eq!(back, empty);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = small_report().to_bytes();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                SweepReport::from_bytes(&bad).is_err(),
                "flipped bit at byte {at} was accepted"
            );
        }
        // Every truncation is rejected as well.
        for len in 0..bytes.len() {
            assert!(
                SweepReport::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes was accepted"
            );
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SweepReport::from_bytes(&padded).is_err());
    }

    #[test]
    fn out_of_range_specs_are_rejected_despite_a_valid_checksum() {
        // `to_bytes` checksums whatever it is given, exactly like a crafted
        // file would: the decoder itself must range-check the specs.
        let report = small_report();
        let nan_droop = SweepReport {
            faults: Some(FaultSpec {
                droop_rate: f64::NAN,
                ..FaultSpec::default()
            }),
            ..report.clone()
        };
        assert_eq!(
            SweepReport::from_bytes(&nan_droop.to_bytes()),
            Err(FormatError::Malformed("fault spec out of range"))
        );
        let overfull_storm = SweepReport {
            interrupts: Some(InterruptSpec {
                rate: 1.5,
                ..InterruptSpec::default()
            }),
            ..report.clone()
        };
        assert_eq!(
            SweepReport::from_bytes(&overfull_storm.to_bytes()),
            Err(FormatError::Malformed("interrupt spec out of range"))
        );
        // A timer that fires on every cycle livelocks every program.
        let livelocked_timer = SweepReport {
            interrupts: Some(InterruptSpec {
                timer: 1,
                ..InterruptSpec::default()
            }),
            ..report
        };
        assert_eq!(
            SweepReport::from_bytes(&livelocked_timer.to_bytes()),
            Err(FormatError::Malformed("interrupt spec out of range"))
        );
    }

    #[test]
    fn absent_spec_blocks_must_be_zero_despite_a_valid_checksum() {
        // `to_bytes` zeroes an absent block; a nonzero one would decode but
        // not re-encode to its own bytes.
        let bytes = small_report().to_bytes();
        // The first byte after each block's present flag: the spec's seed.
        for at in [28, 28 + codec::FAULT_BLOCK_BYTES] {
            let mut body = bytes[frame::PREFIX_BYTES..].to_vec();
            body[at] = 1;
            assert_eq!(
                SweepReport::from_bytes(&frame::seal(codec::MAGIC, codec::VERSION, &body)),
                Err(FormatError::Malformed("absent spec block is not all zero")),
                "byte {at}"
            );
        }
    }

    #[test]
    fn merge_rejects_overlap_missing_and_mismatch() {
        let full = small_report();
        let half = |range: Range<u32>| SweepReport {
            jobs: full
                .jobs
                .iter()
                .filter(|j| range.contains(&j.seed_index))
                .cloned()
                .collect(),
            ..full.clone()
        };
        let first = half(0..2);
        let second = half(2..3);

        // A clean partition merges to the full report.
        let merged = merge_reports(vec![second.clone(), first.clone()]).expect("partition merges");
        assert_eq!(merged, full);

        assert_eq!(merge_reports(vec![]), Err(MergeError::NoInputs));
        // Duplicate shard: overlap named by job.
        assert!(matches!(
            merge_reports(vec![first.clone(), first.clone(), second.clone()]),
            Err(MergeError::OverlappingJobs {
                seed_index: 0,
                corner_index: 0
            })
        ));
        // Missing shard: coverage gap named by first missing job.
        assert_eq!(
            merge_reports(vec![first.clone()]),
            Err(MergeError::MissingJobs {
                expected: 6,
                actual: 4,
                first_missing: (2, 0)
            })
        );
        // A lone report in any row order is checked and returned in
        // canonical order: a duplicate that does not sit next to its twin
        // is still an overlap.
        let mut shuffled = full.clone();
        shuffled.jobs.reverse();
        assert_eq!(merge_reports(vec![shuffled.clone()]), Ok(full.clone()));
        shuffled.jobs[0] = full.jobs[0].clone();
        assert_eq!(
            merge_reports(vec![shuffled]),
            Err(MergeError::OverlappingJobs {
                seed_index: 0,
                corner_index: 0
            })
        );
        // Identity mismatch.
        let foreign = SweepReport {
            master_seed: full.master_seed + 1,
            ..second.clone()
        };
        assert_eq!(
            merge_reports(vec![first, foreign]),
            Err(MergeError::ConfigMismatch {
                field: "master seed"
            })
        );

        // An in-memory grid of 40 000 seeds x 2 corners in four shards,
        // with no simulation: finding the first missing job stays linear in
        // the grid.
        let seeds = 40_000;
        let shard = |range: Range<u32>| SweepReport {
            seeds,
            jobs: range
                .flat_map(|seed_index| {
                    let row = &full.jobs[0];
                    (0..full.corners).map(move |corner_index| SweepJobOutcome {
                        seed_index,
                        corner_index,
                        ..row.clone()
                    })
                })
                .collect(),
            ..full.clone()
        };
        let mut shards: Vec<SweepReport> = (0..4)
            .map(|k| shard(k * seeds / 4..(k + 1) * seeds / 4))
            .collect();
        let last = shards.pop().expect("four shards");
        assert_eq!(
            merge_reports(shards.clone()),
            Err(MergeError::MissingJobs {
                expected: 80_000,
                actual: 60_000,
                first_missing: (30_000, 0)
            })
        );
        shards.push(last);
        shards[1]
            .jobs
            .retain(|j| (j.seed_index, j.corner_index) != (12_345, 1));
        assert_eq!(
            merge_reports(shards),
            Err(MergeError::MissingJobs {
                expected: 80_000,
                actual: 79_999,
                first_missing: (12_345, 1)
            })
        );
    }

    #[test]
    fn older_format_versions_are_rejected_with_a_structured_error() {
        // Version 1 and 2 report files (pre-interrupt formats) must be
        // rejected by version, not misparsed: the interrupt block shifted
        // every offset after the fault block.
        let mut bytes = small_report().to_bytes();
        for old in [1u32, 2] {
            bytes[codec::MAGIC.len()..codec::MAGIC.len() + 4].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                SweepReport::from_bytes(&bytes),
                Err(FormatError::UnsupportedVersion(old))
            );
        }
    }

    #[test]
    fn interrupt_report_codec_round_trips_and_merge_checks_interrupt_identity() {
        let spec = InterruptSpec::parse("seed=3,rate=0.004,timer=211,penalty=6")
            .expect("valid interrupt spec");
        let stormy = pvt_sweep(&SweepConfig {
            seeds: 3,
            corners: 2,
            master_seed: 0x5EED,
            interrupts: Some(spec),
            ..SweepConfig::default()
        })
        .expect("interrupt sweep runs");
        assert!(stormy.irq_entries() > 0, "storm never fired");

        // The interrupt block and columns survive the codec bit-exactly,
        // and every single-byte corruption of the stormy report is caught.
        let bytes = stormy.to_bytes();
        let back = SweepReport::from_bytes(&bytes).expect("interrupt report round-trips");
        assert_eq!(back, stormy);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(
            back.interrupts.map(|s| s.fingerprint()),
            Some(spec.fingerprint())
        );
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                SweepReport::from_bytes(&bad).is_err(),
                "flipped bit at byte {at} was accepted"
            );
        }

        // Partials from different interrupt scenarios (including "no
        // interrupts at all") never merge: their digests describe different
        // simulated histories.
        let half = |range: Range<u32>, interrupts: Option<InterruptSpec>| SweepReport {
            interrupts,
            jobs: stormy
                .jobs
                .iter()
                .filter(|j| range.contains(&j.seed_index))
                .cloned()
                .collect(),
            ..stormy.clone()
        };
        assert_eq!(
            merge_reports(vec![half(0..2, Some(spec)), half(2..3, None)]),
            Err(MergeError::ConfigMismatch {
                field: "interrupt spec"
            })
        );
        let mut other = spec;
        other.seed ^= 1;
        assert_eq!(
            merge_reports(vec![half(0..2, Some(spec)), half(2..3, Some(other))]),
            Err(MergeError::ConfigMismatch {
                field: "interrupt spec"
            })
        );
        // Matching scenarios merge back to the full stormy report.
        let merged = merge_reports(vec![half(2..3, Some(spec)), half(0..2, Some(spec))])
            .expect("stormy partition merges");
        assert_eq!(merged, stormy);
        assert_eq!(merged.render(), stormy.render());
    }

    #[test]
    fn faulted_report_codec_round_trips_and_merge_checks_fault_identity() {
        let spec = FaultSpec::parse("seed=5,droop-rate=0.4,spike-rate=0.01,penalty=4")
            .expect("valid fault spec");
        let faulted = pvt_sweep(&SweepConfig {
            seeds: 3,
            corners: 2,
            master_seed: 0x5EED,
            faults: Some(spec),
            ..SweepConfig::default()
        })
        .expect("faulted sweep runs");

        // The fault block and recovery columns survive the codec bit-exactly.
        let bytes = faulted.to_bytes();
        let back = SweepReport::from_bytes(&bytes).expect("faulted report round-trips");
        assert_eq!(back, faulted);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(
            back.faults.map(|s| s.fingerprint()),
            Some(spec.fingerprint())
        );

        // Partials from different fault scenarios (including "no faults at
        // all") never merge: the rows would describe different physics.
        let half = |range: Range<u32>, faults: Option<FaultSpec>| SweepReport {
            faults,
            jobs: faulted
                .jobs
                .iter()
                .filter(|j| range.contains(&j.seed_index))
                .cloned()
                .collect(),
            ..faulted.clone()
        };
        assert_eq!(
            merge_reports(vec![half(0..2, Some(spec)), half(2..3, None)]),
            Err(MergeError::ConfigMismatch {
                field: "fault spec"
            })
        );
        let mut other = spec;
        other.seed ^= 1;
        assert_eq!(
            merge_reports(vec![half(0..2, Some(spec)), half(2..3, Some(other))]),
            Err(MergeError::ConfigMismatch {
                field: "fault spec"
            })
        );
        // Matching fault specs merge back to the full faulted report.
        let merged = merge_reports(vec![half(2..3, Some(spec)), half(0..2, Some(spec))])
            .expect("faulted partition merges");
        assert_eq!(merged, faulted);
        assert_eq!(merged.render(), faulted.render());
    }
}
