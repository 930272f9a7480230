//! The host-speed probe: three fixed kernels timed between iterations, so
//! every timed end-to-end metric can be scaled to one reference host speed.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! drifts with their load in episodes of seconds to minutes: the three
//! workloads, interleaved in one process, slow down and speed up together
//! by ±25 %. Most of that drift is contention for the shared cache and
//! memory; the cores' own speed moves far less. The probe times a
//! core-bound kernel, a random walk inside the private L2 cache and a
//! random walk over a buffer past it, and takes the geometric mean of the
//! three medians as the run's host speed. A run reports its times
//! multiplied by [`REFERENCE_PROBE_MS`] ÷ that mean: what the run would have
//! measured at the reference host speed. The kernels share no code with the
//! repository, so a change to the program cannot move them.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Loop time between two samples.
const EVERY: Duration = Duration::from_millis(250);
/// `u64` words of the walk inside the private L2 cache (256 KiB).
const L2_WORDS: usize = 1 << 15;
/// `u64` words of the walk past the private caches (8 MiB).
const SHARED_WORDS: usize = 1 << 20;
/// Random read-modify-write steps of each walk.
const WALK_STEPS: u32 = 1 << 19;
/// Multiply-xor steps of the core-bound kernel.
const CORE_STEPS: u64 = 3_500_000;
/// The geometric mean of the three kernels' medians on the reference host
/// (a 2-vCPU Xeon microVM with 2 MiB of L2 per core, `rustc 1.95.0`), in
/// milliseconds.
pub const REFERENCE_PROBE_MS: f64 = 4.0;

/// The run's probe samples.
pub struct HostProbe {
    l2: Vec<u64>,
    shared: Vec<u64>,
    /// Per kernel: core, L2 walk, shared walk.
    samples_ms: [Vec<f64>; 3],
    last: Instant,
}

/// A latency-bound multiply-xor chain: the core's own speed.
fn core_kernel() -> f64 {
    let start = Instant::now();
    let mut y = 1u64;
    for k in 0..CORE_STEPS {
        y = y.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k) ^ (y >> 29);
    }
    black_box(y);
    start.elapsed().as_secs_f64() * 1e3
}

/// An xorshift-addressed read-modify-write walk over `buffer`, whose length
/// is a power of two. An untimed sequential pass first brings the buffer
/// back into the cache the workload evicted it from.
fn walk(buffer: &mut [u64]) -> f64 {
    black_box(buffer.iter().fold(0u64, |a, &w| a ^ w));
    let mask = buffer.len() - 1;
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..WALK_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut buffer[x as usize & mask];
        *slot = slot.wrapping_add(x);
    }
    black_box(&buffer);
    start.elapsed().as_secs_f64() * 1e3
}

impl HostProbe {
    /// Allocates the buffers and faults every page in, outside any sample.
    pub fn new() -> HostProbe {
        HostProbe {
            l2: (0..L2_WORDS as u64).collect(),
            shared: (0..SHARED_WORDS as u64).collect(),
            samples_ms: Default::default(),
            last: Instant::now(),
        }
    }

    /// Times one sample of each kernel.
    pub fn sample(&mut self) {
        self.samples_ms[0].push(core_kernel());
        self.samples_ms[1].push(walk(&mut self.l2));
        self.samples_ms[2].push(walk(&mut self.shared));
        self.last = Instant::now();
    }

    /// Takes a sample when [`EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// Each kernel's median sample (core, L2 walk, shared walk), in ms.
    pub fn medians_ms(&self) -> [f64; 3] {
        std::array::from_fn(|kernel| crate::stats::median(&self.samples_ms[kernel]))
    }

    /// The host speed of the run: the geometric mean of the medians, in ms.
    pub fn speed_ms(&self) -> f64 {
        (self.medians_ms().iter().map(|m| m.ln()).sum::<f64>() / 3.0).exp()
    }

    /// Samples taken of each kernel.
    pub fn samples(&self) -> usize {
        self.samples_ms[0].len()
    }

    /// The factor that scales this run's times to the reference host speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_PROBE_MS / self.speed_ms()
    }
}
