//! Property test of the fault-injection determinism contract: for random
//! sweep shapes, master seeds and fault scenarios (droop density, spike
//! density, corner shift, replay penalty, detection window), both sweep
//! engines — banked replay ([`pvt_sweep`]) and the single-phase direct
//! reference ([`pvt_sweep_direct`]) — must produce **bit-identical** report
//! rows, including the recovery columns (recovered / replay-penalty /
//! silent-risk cycles and the recovery-adjusted effective frequency), and
//! render the identical bytes. Faults perturb the *timing evaluation*, not
//! the digested execution, so the digest-replay equivalence must survive
//! any fault scenario.
//!
//! About half the cases also draw an interrupt scenario, so the entry surge
//! composes with the fault factors: both engines must apply the faults
//! first and the surge second (`Perturbation`'s order) to stay identical.

use idca_bench::sweep::{pvt_sweep, pvt_sweep_direct};
use idca_bench::{FaultSpec, InterruptSpec, SweepConfig};
use idca_cases::property;

/// Timer periods the interrupt draws pick from: off, or long enough that
/// the canonical handler never runs in lockstep with the timer.
const TIMER_PERIODS: [u32; 5] = [0, 97, 113, 131, 151];

#[test]
fn faulted_rows_are_bit_identical_across_engines() {
    property!(
        faulted_rows_are_bit_identical_across_engines,
        master = 0xCA5E_0015,
        cases = 12
    )
    .run(|case| {
        let seeds = case.int(1u32..5);
        let corners = case.int(1u32..4);
        let master_seed = case.u64();
        let fault_seed = case.u64();
        // Integer grids, scaled, so the edges (zero and the largest rate,
        // magnitude and window) are drawn too; the same value feeds both
        // engines.
        let droop_rate_pct = case.int(0u32..=100);
        let spike_rate_pm = case.int(0u32..=100);
        let shift_mag_pm = case.int(0u32..=300);
        let replay_penalty = case.int(0u32..=32);
        let detect_window_pm = case.int(0u32..=500);
        let droop_rate = f64::from(droop_rate_pct) / 100.0;
        let spike_rate = f64::from(spike_rate_pm) / 1000.0;
        let shift_mag = f64::from(shift_mag_pm) / 1000.0;
        let detect_window = f64::from(detect_window_pm) / 1000.0;
        // Drawn after the faults, so the fault draws above keep their
        // values.
        let interrupts = case.bool().then(|| InterruptSpec {
            seed: case.u64(),
            rate: f64::from(case.int(0u32..=20)) / 1000.0,
            timer: *case.pick(&TIMER_PERIODS),
            penalty: case.int(1u32..=8),
            surge: f64::from(case.int(0u32..=100)) / 100.0,
            ..InterruptSpec::default()
        });
        let config = SweepConfig {
            seeds,
            corners,
            master_seed,
            faults: Some(FaultSpec {
                seed: fault_seed,
                droop_rate,
                spike_rate,
                shift_mag,
                replay_penalty,
                detect_window,
                ..FaultSpec::default()
            }),
            interrupts,
            ..SweepConfig::default()
        };
        let banked = pvt_sweep(&config).expect("banked sweep runs");
        let direct = pvt_sweep_direct(&config).expect("direct sweep runs");
        assert_eq!(banked.jobs.len(), (seeds * corners) as usize);
        for (a, b) in banked.jobs.iter().zip(&direct.jobs) {
            // Field-for-field f64 equality, not tolerance: both engines run
            // the same perturbed arithmetic, so every row — including the
            // recovery accounting — must match to the last bit.
            assert_eq!(a, b);
        }
        assert_eq!(banked.render(), direct.render());

        // Recovery bookkeeping is conserved: every violation under faults is
        // either recovered or silent risk, and the replay penalty is exactly
        // K cycles per recovery.
        for job in &banked.jobs {
            for policy in &job.policies {
                assert_eq!(
                    policy.recovered_cycles + policy.silent_risk_cycles,
                    policy.violations
                );
                assert_eq!(
                    policy.replay_penalty_cycles,
                    policy.recovered_cycles * u64::from(replay_penalty)
                );
                // Paying a replay penalty can only slow the effective clock.
                assert!(policy.recovery_mhz <= policy.mhz);
                // Entry violations are a subset of all violations.
                assert!(policy.entry_violations <= policy.violations);
            }
        }

        // The serialized report round-trips the fault block bit-exactly.
        let bytes = banked.to_bytes();
        let back = idca_bench::SweepReport::from_bytes(&bytes).expect("codec round-trips");
        assert_eq!(&back, &banked);
        assert_eq!(back.to_bytes(), bytes);
    });
}
