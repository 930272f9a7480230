//! Process/voltage/temperature (PVT) variation modelling.
//!
//! The paper's conclusion singles PVT out as the natural next step for
//! instruction-based clock adjustment: the approach "could be effective in
//! accounting for other static and dynamic timing variations, for example
//! due to process, temperature and voltage fluctuations, by
//! (online-)updating of the used delay prediction table". Evaluating that
//! claim needs timing models *away* from the nominal corner, which is what
//! this module provides:
//!
//! * [`PvtCorner`] — one sampled operating condition: a normalized process
//!   point (die-to-die sigma plus a per-corner salt that spreads it across
//!   cells), a supply droop below nominal, and a junction temperature.
//! * [`VariationModel`] — the sampling distribution and its effect on
//!   delays. [`VariationModel::apply`] turns a nominal [`TimingModel`] into
//!   the model of the same core at a corner by scaling every
//!   `(stage, class)` path group (worst case and spread together) with a
//!   per-cell factor; [`VariationModel::margin`] bounds the worst slowdown
//!   any samplable corner can inflict, which is exactly the guardband a
//!   delay LUT must carry to stay violation-free across the whole corner
//!   population (see `tests/property.rs`).
//!
//! Everything is hash-derived from `(master_seed, corner index)` — no RNG
//! state — so a Monte Carlo sweep over corners is bit-reproducible and
//! trivially shardable across threads or machines.

use crate::model::hash01;
use crate::{Ps, TimingModel};
use idca_isa::TimingClass;
use idca_pipeline::Stage;
use serde::{Deserialize, Serialize};

/// Nominal junction temperature (°C) at which the base profiles are
/// characterized; delays drift away from their nominal values as the
/// temperature departs from this point.
pub const NOMINAL_TEMPERATURE_C: f64 = 25.0;

/// One sampled PVT operating condition.
///
/// Corners are produced by [`VariationModel::sample_corner`] and are
/// self-contained: the per-cell delay factor of any `(stage, class)` pair
/// can be recomputed from the corner alone (plus the model parameters),
/// which keeps sweep workers stateless.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PvtCorner {
    /// Index of the corner within its sweep (also its display name).
    pub index: u32,
    /// Normalized die-to-die process point in `[-1, 1]` (−1 = fastest
    /// sampled die, +1 = slowest).
    pub process_sigma: f64,
    /// Supply droop below the nominal operating voltage, in millivolts
    /// (non-negative; a droop slows every cell down).
    pub voltage_droop_mv: f64,
    /// Junction temperature in °C.
    pub temperature_c: f64,
    /// Per-corner salt spreading the process point across cells
    /// (within-die variation); derived from the sweep master seed.
    salt: u64,
}

impl PvtCorner {
    /// Stable single-line description used in machine-readable reports.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "sigma:{:+.4},droop_mv:{:.1},temp_c:{:.1}",
            self.process_sigma, self.voltage_droop_mv, self.temperature_c
        )
    }

    /// The within-die variation salt (an opaque hash-derived word). Exposed
    /// only so binary report codecs can round-trip a corner bit-exactly;
    /// pair with [`PvtCorner::from_raw`].
    #[must_use]
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Rebuilds a corner from its serialized fields. This is the codec
    /// counterpart of [`VariationModel::sample_corner`]: a corner that went
    /// through `(index, process_sigma, voltage_droop_mv, temperature_c,
    /// salt())` and back is bit-identical to the original, so replaying or
    /// merging reports built from deserialized corners cannot drift.
    #[must_use]
    pub fn from_raw(
        index: u32,
        process_sigma: f64,
        voltage_droop_mv: f64,
        temperature_c: f64,
        salt: u64,
    ) -> PvtCorner {
        PvtCorner {
            index,
            process_sigma,
            voltage_droop_mv,
            temperature_c,
            salt,
        }
    }
}

/// The PVT variation distribution and its delay impact.
///
/// The model is deliberately simple and linear — a first-order sensitivity
/// model around the nominal corner, which is how sign-off derates are
/// usually expressed — but it perturbs delays at per-cell granularity: each
/// `(stage, class)` path group of each sampled die gets its own factor, so
/// no two corners stress the same paths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    /// Fractional delay shift per unit of `process_sigma` (e.g. `0.04` =
    /// ±4 % between the fastest and slowest sampled die, before the
    /// within-die spread).
    pub process_sigma_frac: f64,
    /// Largest supply droop a corner may sample, in millivolts.
    pub max_voltage_droop_mv: f64,
    /// Fractional delay increase per millivolt of droop.
    pub droop_frac_per_mv: f64,
    /// Coldest samplable junction temperature (°C).
    pub min_temperature_c: f64,
    /// Hottest samplable junction temperature (°C).
    pub max_temperature_c: f64,
    /// Fractional delay drift per °C away from [`NOMINAL_TEMPERATURE_C`]
    /// (positive: hotter is slower).
    pub temp_frac_per_c: f64,
}

impl Default for VariationModel {
    fn default() -> Self {
        // 28 nm-FDSOI-flavoured first-order numbers: ±4 % die-to-die, up to
        // 30 mV of droop at ~0.15 %/mV, and 0..85 °C at 0.04 %/°C.
        VariationModel {
            process_sigma_frac: 0.04,
            max_voltage_droop_mv: 30.0,
            droop_frac_per_mv: 0.0015,
            min_temperature_c: 0.0,
            max_temperature_c: 85.0,
            temp_frac_per_c: 0.0004,
        }
    }
}

impl VariationModel {
    /// Deterministically samples the `index`-th corner of the sweep keyed by
    /// `master_seed`. The same `(master_seed, index)` always yields the same
    /// corner, independent of sampling order or thread count.
    #[must_use]
    pub fn sample_corner(&self, master_seed: u64, index: u32) -> PvtCorner {
        let idx = u64::from(index);
        let process_sigma = 2.0 * hash01(master_seed, idx, u64::from(b'P')) - 1.0;
        let voltage_droop_mv =
            hash01(master_seed, idx, u64::from(b'V')) * self.max_voltage_droop_mv;
        let temperature_c = self.min_temperature_c
            + hash01(master_seed, idx, u64::from(b'T'))
                * (self.max_temperature_c - self.min_temperature_c);
        let salt = (hash01(master_seed, idx, 0x5A17) * (1u64 << 53) as f64) as u64;
        PvtCorner {
            index,
            process_sigma,
            voltage_droop_mv,
            temperature_c,
            salt,
        }
    }

    /// Environmental (voltage + temperature) delay factor of a corner,
    /// shared by every cell of the die.
    fn environment_factor(&self, corner: &PvtCorner) -> f64 {
        1.0 + self.droop_frac_per_mv * corner.voltage_droop_mv
            + self.temp_frac_per_c * (corner.temperature_c - NOMINAL_TEMPERATURE_C)
    }

    /// Delay factor of the `(stage, class)` path group at `corner`: the
    /// environmental factor times a per-cell process term. Factors below
    /// 1.0 (fast cells, cold dies) are possible and harmless — only factors
    /// above 1.0 threaten a delay LUT.
    #[must_use]
    pub fn cell_factor(&self, corner: &PvtCorner, stage: Stage, class: TimingClass) -> f64 {
        // Within-die spread: each cell sees the die's process point through
        // its own `[-1, 1]` weight, so one die has both fast and slow cells.
        let weight = 2.0 * hash01(corner.salt, stage.index() as u64, class.index() as u64) - 1.0;
        let process = 1.0 + self.process_sigma_frac * corner.process_sigma * weight;
        (self.environment_factor(corner) * process).max(0.0)
    }

    /// The largest delay factor `corner` can inflict on any cell.
    #[must_use]
    pub fn corner_worst_factor(&self, corner: &PvtCorner) -> f64 {
        self.environment_factor(corner)
            * (1.0 + self.process_sigma_frac * corner.process_sigma.abs())
    }

    /// The guardband fraction that covers **every** samplable corner: a LUT
    /// whose entries are inflated by `margin()` (e.g. via
    /// `DelayLut::scaled(1.0 + margin)` in `idca-core`) can never be
    /// undercut by a delay this model produces.
    #[must_use]
    pub fn margin(&self) -> f64 {
        let worst_env = 1.0
            + self.droop_frac_per_mv * self.max_voltage_droop_mv
            + self.temp_frac_per_c * (self.max_temperature_c - NOMINAL_TEMPERATURE_C).max(0.0);
        worst_env * (1.0 + self.process_sigma_frac) - 1.0
    }

    /// Builds the timing model of the core at `corner`: every `(stage,
    /// class)` path group of `base` is scaled by its [`cell_factor`]
    /// (worst case and spread together), and each stage's STA limit is
    /// stretched to keep covering its slowest class — so
    /// `StaticClock::of_model(&varied)` remains safe at the corner, exactly
    /// like a sign-off derate would guarantee.
    ///
    /// [`cell_factor`]: VariationModel::cell_factor
    #[must_use]
    pub fn apply(&self, base: &TimingModel, corner: &PvtCorner) -> TimingModel {
        let profile = base
            .profile()
            .with_cell_variation(|stage, class| self.cell_factor(corner, stage, class));
        TimingModel::new(
            profile,
            base.library().clone(),
            base.operating_point().voltage_mv,
        )
        .expect("base model's operating point is characterized")
    }

    /// Largest static period any corner of this model can require, relative
    /// to the nominal static period (useful for sanity checks and reports).
    #[must_use]
    pub fn worst_static_period_ps(&self, base: &TimingModel) -> Ps {
        base.static_period_ps() * (1.0 + self.margin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileKind;

    fn nominal() -> TimingModel {
        TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized)
    }

    #[test]
    fn corner_raw_round_trip_is_bit_identical() {
        let vm = VariationModel::default();
        for index in 0..16 {
            let corner = vm.sample_corner(0xC0DE, index);
            let back = PvtCorner::from_raw(
                corner.index,
                corner.process_sigma,
                corner.voltage_droop_mv,
                corner.temperature_c,
                corner.salt(),
            );
            assert_eq!(corner, back);
            // The salt feeds the per-cell hash, so the round-tripped corner
            // must produce bit-identical delay factors everywhere.
            for stage in Stage::ALL {
                for class in TimingClass::ALL {
                    assert_eq!(
                        vm.cell_factor(&corner, stage, class).to_bits(),
                        vm.cell_factor(&back, stage, class).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn corner_sampling_is_deterministic_and_in_range() {
        let vm = VariationModel::default();
        for index in 0..32 {
            let a = vm.sample_corner(0xC0DE, index);
            let b = vm.sample_corner(0xC0DE, index);
            assert_eq!(a, b);
            assert!((-1.0..=1.0).contains(&a.process_sigma));
            assert!((0.0..=vm.max_voltage_droop_mv).contains(&a.voltage_droop_mv));
            assert!((vm.min_temperature_c..=vm.max_temperature_c).contains(&a.temperature_c));
        }
        assert_ne!(
            vm.sample_corner(0xC0DE, 0).describe(),
            vm.sample_corner(0xC0DE, 1).describe()
        );
    }

    #[test]
    fn cell_factors_stay_within_the_advertised_margin() {
        let vm = VariationModel::default();
        let margin = vm.margin();
        for index in 0..64 {
            let corner = vm.sample_corner(7, index);
            for stage in Stage::ALL {
                for class in TimingClass::ALL {
                    let f = vm.cell_factor(&corner, stage, class);
                    assert!(
                        f <= 1.0 + margin + 1e-12,
                        "corner {index} {stage}/{class}: factor {f} exceeds margin {margin}"
                    );
                    assert!(f > 0.5, "factor {f} collapsed");
                }
            }
            assert!(vm.corner_worst_factor(&corner) <= 1.0 + margin + 1e-12);
        }
    }

    #[test]
    fn applied_model_scales_worst_cases_by_the_cell_factor() {
        let vm = VariationModel::default();
        let base = nominal();
        let corner = vm.sample_corner(99, 3);
        let varied = vm.apply(&base, &corner);
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                let expected =
                    base.worst_case_ps(stage, class) * vm.cell_factor(&corner, stage, class);
                let got = varied.worst_case_ps(stage, class);
                assert!(
                    (got - expected).abs() < 1e-6,
                    "{stage}/{class}: {got} vs {expected}"
                );
            }
        }
        // The varied static period covers every varied worst case but never
        // shrinks below the nominal sign-off period.
        assert!(varied.static_period_ps() >= base.static_period_ps());
        assert!(varied.static_period_ps() <= vm.worst_static_period_ps(&base) + 1e-9);
    }

    #[test]
    fn varied_dynamic_delays_never_exceed_margin_scaled_nominal_worst() {
        use idca_isa::asm::Assembler;
        use idca_pipeline::{DigestCycle, SimConfig, Simulator};

        let vm = VariationModel::default();
        let base = nominal();
        let margin = vm.margin();
        let program = Assembler::new()
            .assemble(
                "l.movhi r4, 0xFFFF\n l.ori r4, r4, 0xFFFF\n l.addi r3, r0, 1\n\
                 l.add r5, r4, r3\n l.mul r6, r4, r4\n l.sw 0(r0), r6\n l.lwz r7, 0(r0)\n l.nop 1\n",
            )
            .unwrap();
        let trace = Simulator::new(SimConfig::default())
            .run(&program)
            .unwrap()
            .trace;
        for index in 0..8 {
            let corner = vm.sample_corner(11, index);
            let varied = vm.apply(&base, &corner);
            for record in trace.cycles() {
                let digest_cycle = DigestCycle::of_record(record);
                for stage in Stage::ALL {
                    let class = record.timing_class(stage);
                    assert!(
                        varied.digest_stage_delay_ps(record.cycle, &digest_cycle, stage)
                            <= base.worst_case_ps(stage, class) * (1.0 + margin) + 1e-9,
                        "corner {index} cycle {} stage {stage} escapes the margin",
                        record.cycle
                    );
                }
            }
        }
    }
}
