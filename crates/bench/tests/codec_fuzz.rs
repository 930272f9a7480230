//! The files a sweep writes and reads back — timing digests, sweep reports
//! and digest-cache entries — under hostile edits, plus byte pins of all
//! three.
//!
//! The mutation fuzz draws multi-byte overwrites, splices, truncations,
//! extensions and header-field rewrites from one seeded stream. The
//! rewrites set the table counts (pool, run, event, corner and job) to huge
//! values among others. The fuzz is a property of the shared case runner
//! (`idca_cases`): 200 cases at the default budget, scaled by
//! `IDCA_FUZZ_SEEDS`, and a failure prints its seed and a rerun command.

use idca_bench::sweep::pvt_sweep_timed_with_cache;
use idca_bench::{FaultSpec, FormatError, InterruptSpec, SweepConfig, SweepReport};
use idca_cases::{property, Case};
use idca_pipeline::frame::{fnv1a, PREFIX_BYTES};
use idca_pipeline::TimingDigest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Counts the allocations of the current thread and their largest size, so
/// a decode can be shown to allocate nothing for a table its input cannot
/// hold.
struct TrackingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter needs no allocation of its own.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS
            .try_with(|a| {
                let (count, largest) = a.get();
                a.set((count + 1, largest.max(layout.size())));
            })
            .ok();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// Runs `f` and returns its result with the number of allocations it made
/// and the largest one, in bytes.
fn tracked<R>(f: impl FnOnce() -> R) -> (R, u64, usize) {
    ALLOCATIONS.with(|a| a.set((0, 0)));
    let result = f();
    let (count, largest) = ALLOCATIONS.with(Cell::get);
    (result, count, largest)
}

/// Digest-cache entry header: magic + program seed + generator-config hash
/// + simulator version + interrupt fingerprint. The digest frame follows.
const ENTRY_HEADER_BYTES: usize = 8 + 8 + 8 + 4 + 8;

/// A faulted and interrupted 2 x 2 sweep: its report, its config, and the
/// first of its digest-cache entries with the digest inside.
struct Fixture {
    config: SweepConfig,
    report: SweepReport,
    entry_name: String,
    entry: Vec<u8>,
    digest: TimingDigest,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idca-codec-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

/// The fixture sweep's scenario.
const FIXTURE_FAULTS: &str = "seed=9,droop-rate=0.3,droop-mag=0.5,penalty=4";
const FIXTURE_INTERRUPTS: &str = "seed=5,rate=0.003,timer=173,penalty=5";

fn fixture(cache_dir: &Path) -> Fixture {
    let config = SweepConfig {
        seeds: 2,
        corners: 2,
        master_seed: 7,
        faults: Some(FaultSpec::parse(FIXTURE_FAULTS).unwrap()),
        interrupts: Some(InterruptSpec::parse(FIXTURE_INTERRUPTS).unwrap()),
        ..SweepConfig::default()
    };
    let (report, _) = pvt_sweep_timed_with_cache(&config, Some(cache_dir)).expect("sweep runs");
    let mut names: Vec<String> = std::fs::read_dir(cache_dir)
        .expect("cache dir is readable")
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), 2, "one cache entry per seed: {names:?}");
    let entry_name = names.swap_remove(0);
    let entry = std::fs::read(cache_dir.join(&entry_name)).expect("entry is readable");
    let digest = TimingDigest::from_bytes(&entry[ENTRY_HEADER_BYTES..]).expect("entry decodes");
    assert!(!digest.events().is_empty(), "the interrupts left no events");
    Fixture {
        config,
        report,
        entry_name,
        entry,
        digest,
    }
}

/// Pins the FNV-1a of each encoding: any byte of the three formats may
/// change only with its format version (or `SIMULATOR_VERSION`) and new
/// constants.
#[test]
fn encoded_bytes_are_pinned() {
    let dir = scratch_dir("pin");
    let f = fixture(&dir);
    assert_eq!(fnv1a(&f.digest.to_bytes()), 0x6f6c_623a_d0f4_c258, "digest");
    assert_eq!(fnv1a(&f.report.to_bytes()), 0xb02d_e8b7_7ae6_1cdd, "report");
    assert_eq!(fnv1a(&f.entry), 0xc705_4c54_9357_189e, "cache entry");
    std::fs::remove_dir_all(&dir).ok();
}

/// Pins the spec fingerprints: the interrupt fingerprint is part of every
/// digest-cache key, and both ride in every sweep report.
#[test]
fn spec_fingerprints_are_pinned() {
    let faults = FaultSpec::parse(FIXTURE_FAULTS).unwrap();
    let interrupts = InterruptSpec::parse(FIXTURE_INTERRUPTS).unwrap();
    assert_eq!(FaultSpec::default().fingerprint(), 0xb1d2_79de_b7bb_3065);
    assert_eq!(faults.fingerprint(), 0x22cc_f9b4_3803_c82b);
    assert_eq!(
        InterruptSpec::default().fingerprint(),
        0xd9b1_00c7_3ba0_1e60
    );
    assert_eq!(interrupts.fingerprint(), 0x20f8_e53f_8725_872e);
}

/// `n` drawn bytes.
fn bytes(case: &mut Case, n: usize) -> Vec<u8> {
    (0..n).map(|_| case.u64() as u8).collect()
}

/// A little-endian header field of a codec: its offset and width in bytes,
/// and whether it counts table entries.
#[derive(Debug, Clone, Copy)]
struct Field {
    name: &'static str,
    at: usize,
    width: usize,
    count: bool,
}

impl Field {
    fn read(&self, bytes: &[u8]) -> u64 {
        let mut word = [0u8; 8];
        word[..self.width].copy_from_slice(&bytes[self.at..self.at + self.width]);
        u64::from_le_bytes(word)
    }
}

const fn field(name: &'static str, at: usize, width: usize, count: bool) -> Field {
    Field {
        name,
        at,
        width,
        count,
    }
}

/// The digest's body header.
const DIGEST_FIELDS: [Field; 5] = [
    field("cycles", PREFIX_BYTES, 8, false),
    field("retired", PREFIX_BYTES + 8, 8, false),
    field("pool_len", PREFIX_BYTES + 16, 4, true),
    field("runs_len", PREFIX_BYTES + 20, 4, true),
    field("events_len", PREFIX_BYTES + 24, 4, true),
];

/// The sweep report's body-header integers: seeds, corners, the two spec
/// flags, the spec integers and the table counts.
const REPORT_FIELDS: [Field; 11] = [
    field("seeds", PREFIX_BYTES, 4, false),
    field("corners", PREFIX_BYTES + 4, 4, false),
    field("fault flag", PREFIX_BYTES + 24, 4, false),
    field("fault seed", PREFIX_BYTES + 28, 8, false),
    field("fault penalty", PREFIX_BYTES + 84, 4, false),
    field("interrupt flag", PREFIX_BYTES + 88, 4, false),
    field("interrupt timer", PREFIX_BYTES + 108, 4, false),
    field("interrupt vector", PREFIX_BYTES + 112, 4, false),
    field("interrupt penalty", PREFIX_BYTES + 116, 4, false),
    field("corner_count", PREFIX_BYTES + 128, 4, true),
    field("job_count", PREFIX_BYTES + 132, 4, true),
];

#[derive(Debug)]
enum Mutation {
    /// Overwrite bytes starting at `at`.
    Overwrite { at: usize, bytes: Vec<u8> },
    /// Copy `len` bytes from `from` over the bytes at `to`.
    Splice { from: usize, to: usize, len: usize },
    /// Keep only the first `len` bytes.
    Truncate { len: usize },
    /// Append bytes.
    Extend { bytes: Vec<u8> },
    /// Rewrite one header field.
    Field { field: Field, value: u64 },
}

impl Mutation {
    fn draw(case: &mut Case, len: usize, fields: &[Field]) -> Mutation {
        match case.int(0..4 + usize::from(!fields.is_empty())) {
            0 => {
                let at = case.int(0..len);
                let n = 1 + case.int(0..8.min(len - at));
                Mutation::Overwrite {
                    at,
                    bytes: bytes(case, n),
                }
            }
            1 => {
                let n = 2 + case.int(0..15);
                Mutation::Splice {
                    from: case.int(0..len - n),
                    to: case.int(0..len - n),
                    len: n,
                }
            }
            2 => Mutation::Truncate {
                len: case.int(0..len),
            },
            3 => {
                let n = 1 + case.int(0..16);
                Mutation::Extend {
                    bytes: bytes(case, n),
                }
            }
            _ => {
                let field = *case.pick(fields);
                let max = if field.width == 4 {
                    u64::from(u32::MAX)
                } else {
                    u64::MAX
                };
                let value = match case.int(0..6) {
                    0 => 0,
                    1 => 1,
                    2 => max,
                    3 => max / 2,
                    4 => 1 << 24,
                    _ => case.u64() & max,
                };
                Mutation::Field { field, value }
            }
        }
    }

    fn apply(&self, original: &[u8]) -> Vec<u8> {
        let mut bytes = original.to_vec();
        match self {
            Mutation::Overwrite { at, bytes: with } => {
                bytes[*at..*at + with.len()].copy_from_slice(with);
            }
            Mutation::Splice { from, to, len } => {
                bytes.copy_within(*from..*from + *len, *to);
            }
            Mutation::Truncate { len } => bytes.truncate(*len),
            Mutation::Extend { bytes: with } => bytes.extend_from_slice(with),
            Mutation::Field { field, value } => {
                bytes[field.at..field.at + field.width]
                    .copy_from_slice(&value.to_le_bytes()[..field.width]);
            }
        }
        bytes
    }

    /// A table count raised above its true value: the input cannot hold
    /// the tables it announces.
    fn grows_a_count(&self, original: &[u8]) -> bool {
        matches!(self, Mutation::Field { field, value } if field.count && *value > field.read(original))
    }
}

/// Draws a mutation that changes `original`.
fn mutate(case: &mut Case, original: &[u8], fields: &[Field]) -> (Mutation, Vec<u8>) {
    loop {
        let mutation = Mutation::draw(case, original.len(), fields);
        let bytes = mutation.apply(original);
        if bytes != original {
            return (mutation, bytes);
        }
    }
}

/// Recomputes the frame checksum, so the mutant reaches the body checks.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    if bytes.len() >= PREFIX_BYTES {
        let checksum = fnv1a(&bytes[PREFIX_BYTES..]);
        bytes[PREFIX_BYTES - 8..PREFIX_BYTES].copy_from_slice(&checksum.to_le_bytes());
    }
    bytes
}

/// One codec under test.
struct Codec {
    name: &'static str,
    fields: &'static [Field],
    /// Decodes and, on success, re-encodes.
    round_trip: fn(&[u8]) -> Result<Vec<u8>, FormatError>,
}

/// Decodes `mutant`, holding the decoder to its contract: allocation stays
/// within twice the input, and a decoded value re-encodes to the mutant.
/// Returns the decode error, if any, and the number of allocations.
fn decode(codec: &Codec, mutant: &[u8]) -> Result<(Option<FormatError>, u64), String> {
    let (result, allocations, largest) = tracked(|| (codec.round_trip)(mutant));
    if largest > 2 * mutant.len() + 64 {
        return Err(format!(
            "allocated {largest} bytes for a {}-byte input",
            mutant.len()
        ));
    }
    match result {
        Ok(encoded) if encoded != mutant => Err("decoded, but re-encodes to other bytes".into()),
        Ok(_) => Ok((None, allocations)),
        Err(error) => Ok((Some(error), allocations)),
    }
}

/// Checks one drawn mutant of `original`, as written and resealed.
fn check_codec(codec: &Codec, case: &mut Case, original: &[u8]) -> Result<(), String> {
    let (mutation, mutant) = mutate(case, original, codec.fields);
    let context = |what: String| format!("{} {mutation:?}: {what}", codec.name);
    if decode(codec, &mutant).map_err(context)?.0.is_none() {
        return Err(context("accepted without a valid checksum".into()));
    }
    let (error, allocations) = decode(codec, &reseal(mutant)).map_err(context)?;
    if mutation.grows_a_count(original)
        && !(matches!(error, Some(FormatError::Truncated { .. })) && allocations == 0)
    {
        return Err(context(format!(
            "expected Truncated before any allocation, got {error:?} after {allocations} \
             allocations"
        )));
    }
    Ok(())
}

/// Writes a mutated cache entry over the fixture's and reruns the sweep: the
/// entry must be quarantined and re-simulated, and the report unchanged.
fn check_cache_entry(f: &Fixture, dir: &Path, case: &mut Case) -> Result<(), String> {
    // Half the mutants forge the embedded digest's table counts under a
    // valid payload checksum; the rest are corrupt bytes anywhere.
    let (mutation, mutant) = if case.int(0..2) == 0 {
        let counts: Vec<Field> = DIGEST_FIELDS
            .iter()
            .filter(|f| f.count)
            .map(|f| Field {
                at: f.at + ENTRY_HEADER_BYTES,
                ..*f
            })
            .collect();
        let field = *case.pick(&counts);
        let mutation = Mutation::Field {
            field,
            value: field.read(&f.entry) + 1 + case.int(0..1u64 << 20),
        };
        let mut mutant = mutation.apply(&f.entry);
        let payload = reseal(mutant.split_off(ENTRY_HEADER_BYTES));
        mutant.extend_from_slice(&payload);
        (mutation, mutant)
    } else {
        mutate(case, &f.entry, &[])
    };
    let context = |what: &str| format!("cache entry {mutation:?}: {what}");
    let path = dir.join(&f.entry_name);
    std::fs::write(&path, &mutant).map_err(|e| context(&e.to_string()))?;
    let (report, timing) =
        pvt_sweep_timed_with_cache(&f.config, Some(dir)).map_err(|e| context(&e.to_string()))?;
    if report.to_bytes() != f.report.to_bytes() {
        return Err(context("the report changed"));
    }
    if timing.simulated_programs != 1 {
        return Err(context("the mutated entry was not re-simulated"));
    }
    let quarantined = std::fs::read(dir.join("quarantine").join(&f.entry_name)).ok();
    if quarantined.as_deref() != Some(&mutant[..]) {
        return Err(context("the mutated entry was not quarantined"));
    }
    if std::fs::read(&path).ok().as_deref() != Some(&f.entry[..]) {
        return Err(context("the re-simulated entry was not written back"));
    }
    Ok(())
}

#[test]
fn codec_mutation_fuzz() {
    let dir = scratch_dir("fuzz");
    let f = fixture(&dir);
    let digest_bytes = f.digest.to_bytes();
    let report_bytes = f.report.to_bytes();

    // The field tables point at the counts they name.
    let counts = [
        (&DIGEST_FIELDS[2], &digest_bytes, f.digest.unique_cycles()),
        (&DIGEST_FIELDS[3], &digest_bytes, f.digest.run_count()),
        (&DIGEST_FIELDS[4], &digest_bytes, f.digest.events().len()),
        (
            &REPORT_FIELDS[9],
            &report_bytes,
            f.report.corner_samples.len(),
        ),
        (&REPORT_FIELDS[10], &report_bytes, f.report.jobs.len()),
    ];
    for (field, bytes, count) in counts {
        assert_eq!(field.read(bytes), count as u64, "{}", field.name);
    }

    let digest = Codec {
        name: "digest",
        fields: &DIGEST_FIELDS,
        round_trip: |bytes| TimingDigest::from_bytes(bytes).map(|d| d.to_bytes()),
    };
    let report = Codec {
        name: "report",
        fields: &REPORT_FIELDS,
        round_trip: |bytes| SweepReport::from_bytes(bytes).map(|r| r.to_bytes()),
    };
    property!(codec_mutation_fuzz, master = 0xC0DEC, cases = 200).run(|case| {
        let mut checked = check_codec(&digest, case, &digest_bytes)
            .and_then(|()| check_codec(&report, case, &report_bytes));
        // A cache mutant reruns the sweep: an eighth of the budget.
        if case.index() % 8 == 0 {
            checked = checked.and_then(|()| check_cache_entry(&f, &dir, case));
        }
        if let Err(failure) = checked {
            panic!("codec fuzz failure: {failure}");
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
