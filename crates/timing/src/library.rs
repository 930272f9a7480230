//! Synthetic 28 nm-FDSOI-like cell library characterized at multiple
//! operating points.
//!
//! The paper evaluates the core with "fully characterized cell libraries for
//! different operating points" (0.6 V, 0.7 V, ...). We reproduce that with an
//! analytic library: path delays scale with supply voltage following an
//! alpha-power-law MOSFET model, dynamic energy scales with `V²`, and leakage
//! grows exponentially with voltage. The library is normalized so that the
//! nominal 0.70 V point reproduces the paper's 2026 ps static period.

use crate::NOMINAL_VOLTAGE_MV;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error type for cell-library queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LibraryError {
    /// The requested supply voltage is outside the characterized range.
    VoltageOutOfRange {
        /// Requested voltage in millivolts.
        requested_mv: u32,
        /// Lowest characterized voltage in millivolts.
        min_mv: u32,
        /// Highest characterized voltage in millivolts.
        max_mv: u32,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::VoltageOutOfRange {
                requested_mv,
                min_mv,
                max_mv,
            } => write!(
                f,
                "supply voltage {requested_mv} mV is outside the characterized range {min_mv}..={max_mv} mV"
            ),
        }
    }
}

impl std::error::Error for LibraryError {}

/// One characterized operating point of the library.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Supply voltage in millivolts.
    pub voltage_mv: u32,
    /// Path-delay multiplier relative to the nominal 0.70 V point.
    pub delay_scale: f64,
    /// Dynamic-energy multiplier relative to the nominal point (`∝ V²`).
    pub energy_scale: f64,
    /// Total leakage power of the core at this voltage, in microwatts.
    pub leakage_uw: f64,
}

impl OperatingPoint {
    /// Supply voltage in volts.
    #[must_use]
    pub fn voltage(&self) -> f64 {
        f64::from(self.voltage_mv) / 1000.0
    }
}

/// The characterized library: a dense table of [`OperatingPoint`]s.
///
/// # Example
///
/// ```
/// use idca_timing::CellLibrary;
///
/// # fn main() -> Result<(), idca_timing::LibraryError> {
/// let lib = CellLibrary::fdsoi28();
/// let nominal = lib.operating_point(700)?;
/// assert_eq!(nominal.delay_scale, 1.0);
/// // Lowering the supply slows the logic down.
/// assert!(lib.operating_point(630)?.delay_scale > 1.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    points: Vec<OperatingPoint>,
}

impl CellLibrary {
    /// Characterized voltage step in millivolts.
    pub const STEP_MV: u32 = 10;
    /// Lowest characterized voltage in millivolts.
    pub const MIN_MV: u32 = 500;
    /// Highest characterized voltage in millivolts.
    pub const MAX_MV: u32 = 900;

    /// Builds the default 28 nm-FDSOI-like library (0.50 V – 0.90 V in 10 mV
    /// steps, regular-Vt devices).
    ///
    /// The alpha-power-law parameters (effective threshold voltage 0.43 V,
    /// velocity-saturation exponent 1.4) are chosen so that the delay penalty
    /// of a 70 mV supply reduction around 0.70 V matches the ~38 % slow-down
    /// the paper exploits when converting its speedup into a power saving.
    /// Leakage is 0.30 µW at the nominal voltage.
    #[must_use]
    pub fn fdsoi28() -> Self {
        let (threshold_v, alpha, leakage_uw_nominal) = (0.43, 1.4, 0.30);
        let nominal_v = f64::from(NOMINAL_VOLTAGE_MV) / 1000.0;
        let raw_delay = |v: f64| v / (v - threshold_v).powf(alpha);
        let nominal_delay = raw_delay(nominal_v);
        let mut points = Vec::new();
        let mut mv = Self::MIN_MV;
        while mv <= Self::MAX_MV {
            let v = f64::from(mv) / 1000.0;
            let delay_scale = raw_delay(v) / nominal_delay;
            let energy_scale = (v / nominal_v).powi(2);
            // Leakage: sub-threshold component shrinks with voltage, but the
            // dominant trend at these voltages is the V·exp(k·V) growth.
            let leakage_uw = leakage_uw_nominal * (v / nominal_v) * ((v - nominal_v) * 5.0).exp();
            points.push(OperatingPoint {
                voltage_mv: mv,
                delay_scale,
                energy_scale,
                leakage_uw,
            });
            mv += Self::STEP_MV;
        }
        CellLibrary { points }
    }

    /// All characterized operating points, ordered by increasing voltage.
    #[must_use]
    pub fn operating_points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Returns the operating point characterized at `voltage_mv`.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::VoltageOutOfRange`] when the voltage is not in
    /// the characterized range; voltages between grid points are rounded to
    /// the nearest 10 mV step.
    pub fn operating_point(&self, voltage_mv: u32) -> Result<OperatingPoint, LibraryError> {
        if !(Self::MIN_MV..=Self::MAX_MV).contains(&voltage_mv) {
            return Err(LibraryError::VoltageOutOfRange {
                requested_mv: voltage_mv,
                min_mv: Self::MIN_MV,
                max_mv: Self::MAX_MV,
            });
        }
        let index = ((voltage_mv - Self::MIN_MV) + Self::STEP_MV / 2) / Self::STEP_MV;
        Ok(self.points[index as usize])
    }

    /// The nominal (0.70 V) operating point.
    #[must_use]
    pub fn nominal(&self) -> OperatingPoint {
        self.operating_point(NOMINAL_VOLTAGE_MV)
            .expect("nominal point is always characterized")
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::fdsoi28()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_is_unity() {
        let lib = CellLibrary::fdsoi28();
        let p = lib.nominal();
        assert_eq!(p.voltage_mv, 700);
        assert!((p.delay_scale - 1.0).abs() < 1e-12);
        assert!((p.energy_scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delay_increases_monotonically_as_voltage_drops() {
        let lib = CellLibrary::fdsoi28();
        let points = lib.operating_points();
        for pair in points.windows(2) {
            assert!(
                pair[0].delay_scale > pair[1].delay_scale,
                "delay must shrink with rising voltage: {:?} vs {:?}",
                pair[0],
                pair[1]
            );
            assert!(pair[0].energy_scale < pair[1].energy_scale);
        }
    }

    #[test]
    fn seventy_mv_drop_costs_roughly_the_papers_speedup() {
        // The paper trades a 38 % frequency gain for a 70 mV supply
        // reduction; the library's delay penalty at 0.63 V should therefore
        // be in the same ball-park so the round trip is consistent.
        let lib = CellLibrary::fdsoi28();
        let scale = lib.operating_point(630).unwrap().delay_scale;
        assert!((1.25..1.55).contains(&scale), "0.63 V delay scale {scale}");
    }

    #[test]
    fn out_of_range_voltages_are_rejected() {
        let lib = CellLibrary::fdsoi28();
        assert!(lib.operating_point(400).is_err());
        assert!(lib.operating_point(950).is_err());
        assert!(lib.operating_point(500).is_ok());
        assert!(lib.operating_point(900).is_ok());
    }

    #[test]
    fn energy_scales_quadratically() {
        let lib = CellLibrary::fdsoi28();
        let p600 = lib.operating_point(600).unwrap();
        let expected = (0.6f64 / 0.7).powi(2);
        assert!((p600.energy_scale - expected).abs() < 1e-9);
    }

    #[test]
    fn leakage_grows_with_voltage() {
        let lib = CellLibrary::fdsoi28();
        assert!(
            lib.operating_point(900).unwrap().leakage_uw
                > lib.operating_point(600).unwrap().leakage_uw
        );
    }

    #[test]
    fn voltages_round_to_nearest_grid_point() {
        let lib = CellLibrary::fdsoi28();
        assert_eq!(lib.operating_point(634).unwrap().voltage_mv, 630);
        assert_eq!(lib.operating_point(636).unwrap().voltage_mv, 640);
    }
}
