//! Clock-adjustment policies.
//!
//! A [`ClockPolicy`] decides, for every cycle of a pipeline trace, the clock
//! period it *requests* from the clock generator. Four policies are
//! provided, matching the comparison points of the paper's evaluation:
//!
//! | Policy | Paper reference |
//! |---|---|
//! | [`StaticClock`] | conventional synchronous clocking at the STA limit |
//! | [`InstructionBased`] | the proposed predictive instruction-based adjustment (Fig. 1) |
//! | [`ExecuteOnly`] | the simplified controller of §IV-A that monitors only the execute stage |
//! | [`GenieOracle`] | the genie-aided per-cycle adjustment used as the 50 % upper bound |

use crate::DelayLut;
use idca_pipeline::{DigestCycle, Stage};
use idca_timing::{Ps, TimingModel};

/// A per-cycle clock-period decision rule.
///
/// Policies are deliberately *predictive*: they may only use information
/// that the hardware controller of Fig. 1 would have (the instruction types
/// currently in flight), except for [`GenieOracle`] which deliberately peeks
/// at the exact dynamic delays to establish the upper bound.
///
/// Policies are immutable decision tables, so the trait requires [`Sync`]:
/// the parallel suite runner shares one policy across worker threads.
pub trait ClockPolicy: Sync {
    /// Short human-readable name used in reports.
    fn name(&self) -> &str;

    /// The clock period requested for one cycle, in picoseconds, decided
    /// from its digest. The digest carries the information the hardware
    /// controller of Fig. 1 sees (the instruction classes in flight), and
    /// live observers digest each record before asking, so live and
    /// replayed runs share this one decision.
    fn digest_period_ps(&self, cycle: u64, digest_cycle: &DigestCycle) -> Ps;
}

/// Conventional synchronous clocking: every cycle uses the static-timing
/// -analysis period.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticClock {
    period_ps: Ps,
}

impl StaticClock {
    /// Creates a static clock with an explicit period.
    #[must_use]
    pub fn new(period_ps: Ps) -> Self {
        StaticClock { period_ps }
    }

    /// Creates a static clock at the STA limit of a timing model.
    #[must_use]
    pub fn of_model(model: &TimingModel) -> Self {
        StaticClock {
            period_ps: model.static_period_ps(),
        }
    }

    /// The configured period.
    #[must_use]
    pub fn period(&self) -> Ps {
        self.period_ps
    }
}

impl ClockPolicy for StaticClock {
    fn name(&self) -> &str {
        "static"
    }

    fn digest_period_ps(&self, _cycle: u64, _digest_cycle: &DigestCycle) -> Ps {
        self.period_ps
    }
}

/// The paper's contribution: the controller monitors the instruction class
/// in every pipeline stage and requests the maximum of the corresponding
/// delay-LUT entries (equation (2) at instruction-type granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionBased {
    lut: DelayLut,
}

impl InstructionBased {
    /// Creates the policy from a delay LUT.
    #[must_use]
    pub fn new(lut: DelayLut) -> Self {
        InstructionBased { lut }
    }

    /// Creates the policy from the analytic worst-case LUT of a model.
    #[must_use]
    pub fn from_model(model: &TimingModel) -> Self {
        InstructionBased {
            lut: DelayLut::from_model(model),
        }
    }

    /// The LUT driving the policy.
    #[must_use]
    pub fn lut(&self) -> &DelayLut {
        &self.lut
    }
}

impl ClockPolicy for InstructionBased {
    fn name(&self) -> &str {
        "instruction-based"
    }

    #[inline]
    fn digest_period_ps(&self, _cycle: u64, digest_cycle: &DigestCycle) -> Ps {
        self.lut.period_for(&digest_cycle.classes)
    }
}

/// The simplified controller discussed in §IV-A of the paper: because the
/// execute stage owns the limiting path in ~93 % of cycles, the controller
/// only monitors the execute-stage instruction and guards the remaining
/// stages with a single fixed bound (the worst address-stage entry, i.e.
/// the instruction-memory address timing that must always be respected).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecuteOnly {
    lut: DelayLut,
    guard_ps: Ps,
}

impl ExecuteOnly {
    /// Creates the policy from a delay LUT. The guard is the worst
    /// *characterized* entry of every stage other than execute (for
    /// characterization LUTs, never-observed classes — which fall back to
    /// the static period — are excluded, otherwise the guard would disable
    /// the adjustment entirely).
    #[must_use]
    pub fn new(lut: DelayLut) -> Self {
        let guard_ps = Stage::ALL
            .iter()
            .filter(|s| **s != Stage::Execute)
            .map(|s| lut.stage_worst_characterized_ps(*s))
            .fold(0.0, Ps::max);
        ExecuteOnly { lut, guard_ps }
    }

    /// The fixed guard period covering the unmonitored stages.
    #[must_use]
    pub fn guard_ps(&self) -> Ps {
        self.guard_ps
    }
}

impl ClockPolicy for ExecuteOnly {
    fn name(&self) -> &str {
        "execute-only"
    }

    #[inline]
    fn digest_period_ps(&self, _cycle: u64, digest_cycle: &DigestCycle) -> Ps {
        let class = digest_cycle.classes[Stage::Execute.index()];
        self.lut.delay_ps(Stage::Execute, class).max(self.guard_ps)
    }
}

/// Genie-aided clock adjustment: the clock period of every cycle equals the
/// exact dynamic delay of that cycle (a-posteriori knowledge). This is the
/// theoretical upper bound of §IV-A (≈ 50 % speedup) — unrealizable in
/// hardware but the yardstick the 38 % instruction-based gain is compared
/// against.
#[derive(Debug, Clone, PartialEq)]
pub struct GenieOracle {
    model: TimingModel,
}

impl GenieOracle {
    /// Creates the oracle for a given timing model.
    #[must_use]
    pub fn new(model: TimingModel) -> Self {
        GenieOracle { model }
    }
}

impl ClockPolicy for GenieOracle {
    fn name(&self) -> &str {
        "genie-oracle"
    }

    fn digest_period_ps(&self, cycle: u64, digest_cycle: &DigestCycle) -> Ps {
        self.model
            .digest_cycle_timing(cycle, digest_cycle)
            .max_delay_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idca_isa::{asm::Assembler, TimingClass};
    use idca_pipeline::{CycleRecord, PipelineTrace, SimConfig, Simulator};
    use idca_timing::ProfileKind;

    fn trace(src: &str) -> PipelineTrace {
        let program = Assembler::new().assemble(src).unwrap();
        Simulator::new(SimConfig::default())
            .run(&program)
            .unwrap()
            .trace
    }

    fn model() -> TimingModel {
        TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized)
    }

    /// A policy's request for a live record, decided from its digest.
    fn period(policy: &dyn ClockPolicy, record: &CycleRecord) -> Ps {
        policy.digest_period_ps(record.cycle, &DigestCycle::of_record(record))
    }

    #[test]
    fn static_policy_is_constant() {
        let m = model();
        let policy = StaticClock::of_model(&m);
        let t = trace("l.addi r3, r0, 1\n l.mul r4, r3, r3\n l.nop 1\n");
        for record in t.cycles() {
            assert_eq!(period(&policy, record), m.static_period_ps());
        }
        assert_eq!(policy.name(), "static");
    }

    #[test]
    fn instruction_based_requests_longer_periods_for_multiplies() {
        let m = model();
        let policy = InstructionBased::from_model(&m);
        let t = trace(
            "l.addi r3, r0, 7\n l.nop 0\n l.nop 0\n l.nop 0\n l.mul r4, r3, r3\n\
                       l.nop 0\n l.nop 0\n l.nop 0\n l.nop 1\n",
        );
        let mut mul_period = 0.0f64;
        let mut nop_period = f64::MAX;
        for record in t.cycles() {
            let p = period(&policy, record);
            match record.timing_class(Stage::Execute) {
                TimingClass::Mul => mul_period = p,
                TimingClass::Nop => nop_period = nop_period.min(p),
                _ => {}
            }
        }
        assert!(mul_period >= m.worst_case_ps(Stage::Execute, TimingClass::Mul));
        assert!(nop_period < mul_period);
    }

    #[test]
    fn instruction_based_period_covers_every_stage() {
        let m = model();
        let policy = InstructionBased::from_model(&m);
        let t = trace(
            "l.addi r3, r0, 10\nloop: l.addi r3, r3, -1\n l.sfne r3, r0\n l.bf loop\n l.nop 0\n l.nop 1\n",
        );
        for record in t.cycles() {
            let p = period(&policy, record);
            for stage in Stage::ALL {
                let entry = policy.lut().delay_ps(stage, record.timing_class(stage));
                assert!(p >= entry, "period must cover stage {stage}");
            }
        }
    }

    #[test]
    fn execute_only_never_requests_less_than_its_guard() {
        let m = model();
        let policy = ExecuteOnly::new(DelayLut::from_model(&m));
        assert!(policy.guard_ps() >= 1172.0);
        let t = trace("l.nop 0\n l.nop 0\n l.nop 0\n l.nop 1\n");
        for record in t.cycles() {
            assert!(period(&policy, record) >= policy.guard_ps());
        }
    }

    #[test]
    fn genie_oracle_matches_model_cycle_timing() {
        let m = model();
        let policy = GenieOracle::new(m.clone());
        let t = trace("l.addi r3, r0, 3\n l.mul r4, r3, r3\n l.nop 1\n");
        for record in t.cycles() {
            assert_eq!(
                period(&policy, record),
                m.digest_cycle_timing(record.cycle, &DigestCycle::of_record(record))
                    .max_delay_ps
            );
        }
    }

    #[test]
    fn policy_ordering_genie_fastest_static_slowest() {
        let m = model();
        let t = trace(
            "l.addi r1, r0, 0x80\n l.addi r3, r0, 30\nloop: l.add r4, r4, r3\n l.sw 0(r1), r4\n\
             l.lwz r5, 0(r1)\n l.addi r3, r3, -1\n l.sfne r3, r0\n l.bf loop\n l.nop 0\n l.nop 1\n",
        );
        let genie = GenieOracle::new(m.clone());
        let lut_policy = InstructionBased::from_model(&m);
        let fixed = StaticClock::of_model(&m);
        let sum = |p: &dyn ClockPolicy| -> f64 { t.cycles().iter().map(|r| period(p, r)).sum() };
        let genie_total = sum(&genie);
        let lut_total = sum(&lut_policy);
        let static_total = sum(&fixed);
        assert!(genie_total <= lut_total + 1e-6);
        assert!(lut_total < static_total);
    }
}
