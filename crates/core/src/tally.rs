//! The per-cycle violation accounting of the scalar observers, and the
//! period-to-frequency arithmetic every outcome shares.
//!
//! The paper's invariant is checked once per cycle: a realized clock period
//! shorter than that cycle's actual dynamic delay is a timing violation.
//! [`ViolationTally::record`] is that check for [`PolicyObserver`] and
//! [`AdaptiveObserver`], together with the fault plan's recovery
//! classification. The SoA banks keep their own lane-packed copies of the
//! same arithmetic (branch-free selects; the policy banks derive the
//! realized period and its limits once per request change, as scalars when
//! the request is corner-invariant, and the adaptive bank realizes once per
//! cycle), pinned bit-identical to this one by the banked-replay property
//! tests.
//!
//! [`PolicyObserver`]: crate::PolicyObserver
//! [`AdaptiveObserver`]: crate::AdaptiveObserver

use idca_timing::{FaultPlan, Ps};

/// The violation and realized-time accumulators of one scalar observer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ViolationTally {
    /// Sum of the realized periods.
    pub(crate) total_time_ps: f64,
    /// Realized time charged for replaying recovered violations.
    pub(crate) penalty_time_ps: f64,
    /// Cycles whose realized period undercut the actual delay.
    pub(crate) violations: u64,
    /// The violations that hit an exception-entry cycle.
    pub(crate) entry_violations: u64,
    /// Violations inside the fault plan's detection window.
    pub(crate) recovered_cycles: u64,
    /// Replay cycles charged for the recovered violations.
    pub(crate) replay_penalty_cycles: u64,
    /// Violations that escaped the detection window.
    pub(crate) silent_risk_cycles: u64,
}

impl ViolationTally {
    /// Accounts one cycle: checks the realized period against the actual
    /// dynamic delay, tallies a violation (and, on `entry` cycles, an entry
    /// violation), classifies it through `faults`' recovery model when a
    /// plan is attached — recovered at the replay penalty if the overshoot
    /// fits the detection window, silent risk otherwise — and adds the
    /// realized period to the run time. Returns whether the cycle violated.
    pub(crate) fn record(
        &mut self,
        realized: Ps,
        actual: Ps,
        entry: bool,
        faults: Option<&FaultPlan>,
    ) -> bool {
        let violated = realized + 1e-9 < actual;
        if violated {
            self.violations += 1;
            self.entry_violations += u64::from(entry);
            if let Some(plan) = faults {
                let spec = plan.spec();
                if actual <= realized * (1.0 + spec.detect_window) {
                    self.recovered_cycles += 1;
                    self.replay_penalty_cycles += u64::from(spec.replay_penalty);
                    self.penalty_time_ps += realized * f64::from(spec.replay_penalty);
                } else {
                    self.silent_risk_cycles += 1;
                }
            }
        }
        self.total_time_ps += realized;
        violated
    }
}

/// The average realized period, the effective frequency (MHz) and the
/// frequency after charging `penalty_time_ps` of replay time, for a run of
/// `cycles` cycles that took `total_time_ps`. A zero-cycle or zero-time run
/// reports `0.0` for each.
pub(crate) fn frequencies(total_time_ps: f64, penalty_time_ps: f64, cycles: u64) -> (Ps, f64, f64) {
    let per_cycle = |time_ps: f64| {
        if cycles == 0 {
            0.0
        } else {
            time_ps / cycles as f64
        }
    };
    let mhz = |period_ps: Ps| {
        if period_ps > 0.0 {
            1.0e6 / period_ps
        } else {
            0.0
        }
    };
    let avg_period_ps = per_cycle(total_time_ps);
    let recovery_period_ps = per_cycle(total_time_ps + penalty_time_ps);
    (avg_period_ps, mhz(avg_period_ps), mhz(recovery_period_ps))
}
