//! Property test of the sweep-level digest-equivalence contract: for random
//! sweep shapes and master seeds (i.e. random `idca_gen` programs × random
//! PVT corners), the two-phase simulate-once / evaluate-many engine must
//! produce **bit-identical** `SweepReport` rows — violations, effective
//! frequencies (and therefore every speedup quantile), adaptive warmup —
//! to the single-phase direct `run_observed` reference, and render the
//! identical bytes.

use idca_bench::sweep::{pvt_sweep, pvt_sweep_direct};
use idca_bench::SweepConfig;
use idca_cases::property;

#[test]
fn two_phase_rows_are_bit_identical_to_direct() {
    property!(
        two_phase_rows_are_bit_identical_to_direct,
        master = 0xCA5E_0018,
        cases = 12
    )
    .run(|case| {
        let seeds = case.int(1u32..6);
        let corners = case.int(1u32..5);
        let master_seed = case.u64();
        let config = SweepConfig {
            seeds,
            corners,
            master_seed,
            ..SweepConfig::default()
        };
        let two_phase = pvt_sweep(&config).expect("two-phase sweep runs");
        let direct = pvt_sweep_direct(&config).expect("direct sweep runs");
        assert_eq!(two_phase.jobs.len(), (seeds * corners) as usize);
        for (a, b) in two_phase.jobs.iter().zip(&direct.jobs) {
            // Field-for-field f64 equality, not tolerance: the replay is
            // the same arithmetic, so the rows must match to the last bit.
            assert_eq!(a, b);
        }
        assert_eq!(two_phase.render(), direct.render());
    });
}
