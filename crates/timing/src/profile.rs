//! Timing profiles: the population of worst-case path delays of the core,
//! per pipeline stage and instruction class.
//!
//! A [`TimingProfile`] is the synthetic stand-in for a placed-and-routed
//! netlist with SDF timing. It answers one question: *for a given pipeline
//! stage and the instruction class currently occupying it, what is the
//! worst-case delay of the excited paths, and how much of that delay is
//! data-dependent (the spread)?*
//!
//! Two profiles are provided, mirroring §II-B/§III-A of the paper:
//!
//! * [`ProfileKind::CriticalRangeOptimized`] — the paper's implementation:
//!   synthesis with critical-range constraints and path over-constraining
//!   plus multiplier shielding, which keeps sub-critical paths short at the
//!   cost of a 9 % longer static critical path (2026 ps at 0.70 V).
//! * [`ProfileKind::Conventional`] — a conventional implementation with a
//!   pronounced *timing wall*: most per-instruction worst-case paths sit
//!   close to the (9 % shorter) static limit, so little dynamic margin is
//!   available.
//!
//! The per-class worst-case delays of the optimized profile reproduce
//! Table II of the paper; the ratio between the two profiles reproduces the
//! "max delay factor" column of Table I.

use crate::{Ps, STATIC_PERIOD_PS};
use idca_isa::TimingClass;
use idca_pipeline::Stage;
use serde::{Deserialize, Serialize};

/// Which physical implementation of the core the profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProfileKind {
    /// Critical-range-optimized implementation (the paper's design point).
    CriticalRangeOptimized,
    /// Conventional implementation exhibiting a timing wall.
    Conventional,
}

impl ProfileKind {
    /// Both profile kinds.
    pub const ALL: [ProfileKind; 2] = [
        ProfileKind::CriticalRangeOptimized,
        ProfileKind::Conventional,
    ];
}

/// A dense `(stage, class)` table of delays in picoseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageClassDelays {
    values: Vec<Ps>,
}

impl StageClassDelays {
    /// Creates a table filled with `value`.
    #[must_use]
    pub fn filled(value: Ps) -> Self {
        StageClassDelays {
            values: vec![value; Stage::COUNT * TimingClass::COUNT],
        }
    }

    /// Reads one entry.
    #[must_use]
    pub fn get(&self, stage: Stage, class: TimingClass) -> Ps {
        self.values[stage.index() * TimingClass::COUNT + class.index()]
    }

    /// Writes one entry.
    pub fn set(&mut self, stage: Stage, class: TimingClass, value: Ps) {
        self.values[stage.index() * TimingClass::COUNT + class.index()] = value;
    }

    /// The maximum entry for a class across all stages, with the stage that
    /// attains it.
    #[must_use]
    pub fn class_max(&self, class: TimingClass) -> (Stage, Ps) {
        let mut best = (Stage::Execute, 0.0);
        for stage in Stage::ALL {
            let v = self.get(stage, class);
            if v > best.1 {
                best = (stage, v);
            }
        }
        best
    }
}

/// The timing profile of one physical implementation of the core.
///
/// # Example
///
/// ```
/// use idca_timing::{ProfileKind, TimingProfile};
/// use idca_isa::TimingClass;
/// use idca_pipeline::Stage;
///
/// let profile = TimingProfile::new(ProfileKind::CriticalRangeOptimized);
/// // Table II: the worst-case execute-stage delay of l.mul is 1899 ps.
/// assert_eq!(profile.worst_case(Stage::Execute, TimingClass::Mul).round(), 1899.0);
/// assert_eq!(profile.static_period_ps().round(), 2026.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingProfile {
    kind: ProfileKind,
    base: StageClassDelays,
    spread: StageClassDelays,
    sta_stage: [Ps; Stage::COUNT],
}

/// Worst-case delay and data-dependent spread of the critical-range
/// optimized implementation, at the nominal voltage, for one
/// `(stage, class)` pair. All values in picoseconds.
fn optimized_entry(stage: Stage, class: TimingClass) -> (Ps, Ps) {
    use idca_isa::TimingClass as C;
    use idca_pipeline::Stage as S;
    match stage {
        S::Address => match class {
            // Jumps/branches drive the branch-target adder and the
            // instruction-memory address mux — the long address-stage path
            // (Table II lists 1172 ps for l.j with ADR as limiting stage).
            C::Jump => (1172.0, 150.0),
            C::BranchCond => (1140.0, 140.0),
            C::JumpReg => (1020.0, 120.0),
            C::Bubble => (890.0, 60.0),
            // Sequential fetches only exercise the PC increment path.
            _ => (1035.0, 90.0),
        },
        S::Fetch => match class {
            C::Jump | C::BranchCond => (930.0, 90.0),
            C::Bubble => (770.0, 50.0),
            _ => (905.0, 80.0),
        },
        S::Decode => match class {
            C::Jump | C::BranchCond => (1120.0, 120.0),
            C::Mul => (1040.0, 100.0),
            C::Bubble => (820.0, 60.0),
            _ => (1010.0, 110.0),
        },
        S::Execute => match class {
            // Table II values.
            C::Add => (1467.0, 260.0),
            C::And => (1482.0, 230.0),
            C::Or => (1495.0, 230.0),
            C::Xor => (1514.0, 240.0),
            C::Move => (1180.0, 150.0),
            C::Shift => (1270.0, 210.0),
            C::Mul => (1899.0, 300.0),
            C::SetFlag => (1478.0, 240.0),
            C::Load => (1391.0, 230.0),
            C::Store => (1352.0, 200.0),
            C::BranchCond => (1470.0, 220.0),
            C::Jump => (905.0, 130.0),
            C::JumpReg => (1105.0, 160.0),
            C::Nop => (940.0, 90.0),
            C::Bubble => (760.0, 60.0),
        },
        S::Control => match class {
            C::Load => (1345.0, 210.0),
            C::Store => (1180.0, 170.0),
            C::Mul => (1150.0, 130.0),
            C::Jump => (940.0, 100.0),
            C::Nop => (900.0, 90.0),
            C::Bubble => (800.0, 60.0),
            _ => (1060.0, 120.0),
        },
        S::Writeback => match class {
            C::Store | C::BranchCond | C::Jump | C::Nop => (760.0, 60.0),
            C::Bubble => (700.0, 50.0),
            _ => (840.0, 70.0),
        },
    }
}

/// Per-class ratio `optimized / conventional` of the overall worst-case
/// delay (the "max delay factor" of Table I). Classes not listed in the
/// paper's excerpt are given factors in the same 0.74–0.92 range.
fn critical_range_factor(class: TimingClass) -> f64 {
    use idca_isa::TimingClass as C;
    match class {
        C::Add => 0.92,
        C::And => 0.88,
        C::Or => 0.88,
        C::Xor => 0.90,
        C::Move => 0.80,
        C::Shift => 0.82,
        C::Mul => 1.10,
        C::SetFlag => 0.86,
        C::Load => 0.85,
        C::Store => 0.85,
        C::BranchCond => 0.78,
        C::Jump => 0.74,
        C::JumpReg => 0.80,
        C::Nop => 0.78,
        C::Bubble => 0.78,
    }
}

/// Static-timing-analysis critical path per stage (paths that exist in the
/// netlist but are not necessarily excited by any instruction).
fn sta_stage(kind: ProfileKind, stage: Stage) -> Ps {
    use idca_pipeline::Stage as S;
    match kind {
        ProfileKind::CriticalRangeOptimized => match stage {
            S::Address => 1480.0,
            S::Fetch => 1150.0,
            S::Decode => 1290.0,
            S::Execute => STATIC_PERIOD_PS,
            S::Control => 1620.0,
            S::Writeback => 980.0,
        },
        // The conventional implementation meets a 9 % tighter static limit
        // (the critical-range constraints cost 9 % of STA frequency) but its
        // sub-critical paths crowd right below it.
        ProfileKind::Conventional => match stage {
            S::Address => 1640.0,
            S::Fetch => 1270.0,
            S::Decode => 1440.0,
            S::Execute => STATIC_PERIOD_PS / 1.09,
            S::Control => 1740.0,
            S::Writeback => 1010.0,
        },
    }
}

impl TimingProfile {
    /// Builds the timing profile for the requested implementation.
    #[must_use]
    pub fn new(kind: ProfileKind) -> Self {
        let mut base = StageClassDelays::filled(0.0);
        let mut spread = StageClassDelays::filled(0.0);
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                let (opt_base, opt_spread) = optimized_entry(stage, class);
                let (b, s) = match kind {
                    ProfileKind::CriticalRangeOptimized => (opt_base, opt_spread),
                    ProfileKind::Conventional => {
                        let factor = critical_range_factor(class);
                        let sta = sta_stage(kind, stage);
                        // De-optimized paths stretch toward the timing wall
                        // but can never exceed the stage's static limit.
                        let stretched = (opt_base / factor).min(sta * 0.995);
                        (stretched, opt_spread)
                    }
                };
                base.set(stage, class, b);
                spread.set(stage, class, s);
            }
        }
        let sta = [
            sta_stage(kind, Stage::Address),
            sta_stage(kind, Stage::Fetch),
            sta_stage(kind, Stage::Decode),
            sta_stage(kind, Stage::Execute),
            sta_stage(kind, Stage::Control),
            sta_stage(kind, Stage::Writeback),
        ];
        TimingProfile {
            kind,
            base,
            spread,
            sta_stage: sta,
        }
    }

    /// Which implementation this profile describes.
    #[must_use]
    pub fn kind(&self) -> ProfileKind {
        self.kind
    }

    /// Worst-case (over all data conditions) delay of the paths excited by
    /// `class` in `stage`, at the nominal voltage.
    #[must_use]
    pub fn worst_case(&self, stage: Stage, class: TimingClass) -> Ps {
        self.base.get(stage, class)
    }

    /// Data-dependent delay spread of the paths excited by `class` in
    /// `stage`: the observed delay ranges over
    /// `[worst_case - spread, worst_case]` depending on operand activity.
    #[must_use]
    pub fn spread(&self, stage: Stage, class: TimingClass) -> Ps {
        self.spread.get(stage, class)
    }

    /// Static-timing-analysis critical path of one stage.
    #[must_use]
    pub fn sta_stage_ps(&self, stage: Stage) -> Ps {
        self.sta_stage[stage.index()]
    }

    /// The static clock period of the whole core: the longest STA path over
    /// all stages (2026 ps for the optimized profile at 0.70 V).
    #[must_use]
    pub fn static_period_ps(&self) -> Ps {
        self.sta_stage.iter().copied().fold(0.0, Ps::max)
    }

    /// Worst-case delay of a class across all stages together with the
    /// limiting stage (the "Stage" column of Table II).
    #[must_use]
    pub fn class_worst_case(&self, class: TimingClass) -> (Stage, Ps) {
        self.base.class_max(class)
    }

    /// The ratio `optimized / conventional` of the overall worst-case delay
    /// of a class (Table I "max delay factor"), computed from the two
    /// profiles rather than hard-coded.
    #[must_use]
    pub fn max_delay_factor(class: TimingClass) -> f64 {
        let optimized = TimingProfile::new(ProfileKind::CriticalRangeOptimized);
        let conventional = TimingProfile::new(ProfileKind::Conventional);
        optimized.class_worst_case(class).1 / conventional.class_worst_case(class).1
    }

    /// Returns a copy of the profile with every `(stage, class)` path group
    /// scaled by `factor(stage, class)` — the hook the PVT
    /// [`VariationModel`](crate::VariationModel) uses to perturb per-cell
    /// delays for a sampled corner.
    ///
    /// Worst-case delay and data-dependent spread scale together (the whole
    /// path population shifts). Each stage's STA limit is stretched by the
    /// largest factor of any class in that stage, and never shrinks below
    /// the nominal limit: a chip is signed off (and statically clocked) at
    /// design-time STA, so a fast corner does not raise the static clock.
    #[must_use]
    pub fn with_cell_variation(&self, factor: impl Fn(Stage, TimingClass) -> f64) -> TimingProfile {
        let mut varied = self.clone();
        for stage in Stage::ALL {
            let mut stage_max: f64 = 1.0;
            for class in TimingClass::ALL {
                let f = factor(stage, class).max(0.0);
                stage_max = stage_max.max(f);
                varied
                    .base
                    .set(stage, class, self.base.get(stage, class) * f);
                varied
                    .spread
                    .set(stage, class, self.spread.get(stage, class) * f);
            }
            varied.sta_stage[stage.index()] = self.sta_stage[stage.index()] * stage_max;
        }
        varied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idca_isa::TimingClass as C;
    use idca_pipeline::Stage as S;

    #[test]
    fn optimized_reproduces_table2_values() {
        let p = TimingProfile::new(ProfileKind::CriticalRangeOptimized);
        let expect = [
            (C::Add, 1467.0, S::Execute),
            (C::And, 1482.0, S::Execute),
            (C::BranchCond, 1470.0, S::Execute),
            (C::Jump, 1172.0, S::Address),
            (C::Load, 1391.0, S::Execute),
            (C::Mul, 1899.0, S::Execute),
            (C::Shift, 1270.0, S::Execute),
            (C::Xor, 1514.0, S::Execute),
        ];
        for (class, delay, stage) in expect {
            let (limiting, worst) = p.class_worst_case(class);
            assert_eq!(worst, delay, "worst-case delay of {class}");
            assert_eq!(limiting, stage, "limiting stage of {class}");
        }
    }

    #[test]
    fn static_period_matches_paper() {
        let p = TimingProfile::new(ProfileKind::CriticalRangeOptimized);
        assert_eq!(p.static_period_ps(), STATIC_PERIOD_PS);
        let c = TimingProfile::new(ProfileKind::Conventional);
        // Conventional STA limit is ~9 % tighter (the paper reports the
        // critical-range constraints cost 9 % of static frequency).
        let ratio = p.static_period_ps() / c.static_period_ps();
        assert!((ratio - 1.09).abs() < 0.01, "STA ratio {ratio}");
    }

    #[test]
    fn max_delay_factors_match_table1() {
        // Table I of the paper.
        let expect = [
            (C::Add, 0.92),
            (C::BranchCond, 0.78),
            (C::Jump, 0.74),
            (C::Load, 0.85),
            (C::Mul, 1.10),
            (C::Store, 0.85),
        ];
        for (class, factor) in expect {
            let measured = TimingProfile::max_delay_factor(class);
            assert!(
                (measured - factor).abs() < 0.03,
                "factor for {class}: measured {measured:.3}, paper {factor}"
            );
        }
    }

    #[test]
    fn worst_cases_never_exceed_stage_sta() {
        for kind in ProfileKind::ALL {
            let p = TimingProfile::new(kind);
            for stage in Stage::ALL {
                for class in TimingClass::ALL {
                    assert!(
                        p.worst_case(stage, class) <= p.sta_stage_ps(stage) + 1e-9,
                        "{kind:?}/{stage}/{class} exceeds stage STA"
                    );
                }
            }
        }
    }

    #[test]
    fn spreads_are_positive_and_smaller_than_base() {
        for kind in ProfileKind::ALL {
            let p = TimingProfile::new(kind);
            for stage in Stage::ALL {
                for class in TimingClass::ALL {
                    let base = p.worst_case(stage, class);
                    let spread = p.spread(stage, class);
                    assert!(spread > 0.0);
                    assert!(spread < base, "{kind:?}/{stage}/{class}");
                }
            }
        }
    }

    #[test]
    fn execute_dominates_most_classes_in_optimized_profile() {
        let p = TimingProfile::new(ProfileKind::CriticalRangeOptimized);
        let mut execute_limited = 0;
        for class in TimingClass::INSTRUCTION_CLASSES {
            if p.class_worst_case(class).0 == Stage::Execute {
                execute_limited += 1;
            }
        }
        // Everything except the PC-relative jump class is execute-limited.
        assert!(execute_limited >= TimingClass::INSTRUCTION_CLASSES.len() - 2);
    }

    #[test]
    fn conventional_profile_has_longer_per_class_paths() {
        let opt = TimingProfile::new(ProfileKind::CriticalRangeOptimized);
        let conv = TimingProfile::new(ProfileKind::Conventional);
        // The timing wall: every class except the multiplier gets slower in
        // the conventional implementation.
        for class in TimingClass::INSTRUCTION_CLASSES {
            if class == C::Mul {
                assert!(opt.class_worst_case(class).1 > conv.class_worst_case(class).1);
            } else {
                assert!(
                    opt.class_worst_case(class).1 < conv.class_worst_case(class).1,
                    "{class} should be slower in the conventional profile"
                );
            }
        }
    }

    #[test]
    fn stage_class_delay_table_roundtrips() {
        let mut t = StageClassDelays::filled(1.0);
        t.set(S::Execute, C::Mul, 1899.0);
        assert_eq!(t.get(S::Execute, C::Mul), 1899.0);
        assert_eq!(t.get(S::Execute, C::Add), 1.0);
        assert_eq!(t.class_max(C::Mul), (S::Execute, 1899.0));
    }
}
