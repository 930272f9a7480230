//! Tunable clock-generator models.
//!
//! The paper assumes a clock generator (CG) whose period can be adjusted on
//! a cycle-by-cycle basis — e.g. a tunable ring oscillator with a muxed
//! output or a multi-PLL clocking unit — and explicitly leaves its circuit
//! design out of scope. We model the CG as a function from the *requested*
//! period (what the delay LUT asks for) to the *realized* period (what the
//! hardware can actually produce), which lets the benches quantify how much
//! of the gain survives period quantization.

use idca_timing::Ps;
use serde::{Deserialize, Serialize};

/// A model of the tunable clock generator.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ClockGenerator {
    /// An ideal generator that can produce any requested period exactly.
    #[default]
    Ideal,
    /// A generator with a fixed period granularity: requested periods are
    /// rounded *up* to the next multiple of `step_ps` (never down, which
    /// would cause timing violations) and clamped to `[min_ps, max_ps]`.
    Quantized {
        /// Period granularity in picoseconds.
        step_ps: Ps,
        /// Shortest producible period.
        min_ps: Ps,
        /// Longest producible period.
        max_ps: Ps,
    },
    /// A generator offering a fixed set of discrete periods (e.g. a bank of
    /// PLL-derived clocks muxed per cycle). The smallest period that is no
    /// shorter than the request is selected; if none exists the longest
    /// available period is used.
    DiscreteLevels {
        /// The available periods in picoseconds (any order).
        periods_ps: Vec<Ps>,
    },
}

impl ClockGenerator {
    /// A quantized generator with sensible defaults: 50 ps steps between
    /// 600 ps and 2400 ps.
    #[must_use]
    pub fn quantized_50ps() -> Self {
        ClockGenerator::Quantized {
            step_ps: 50.0,
            min_ps: 600.0,
            max_ps: 2400.0,
        }
    }

    /// A discrete generator with `levels` periods spread uniformly between
    /// `fastest_ps` and `slowest_ps` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` or `fastest_ps >= slowest_ps`.
    #[must_use]
    pub fn discrete(levels: usize, fastest_ps: Ps, slowest_ps: Ps) -> Self {
        assert!(
            levels >= 2,
            "a discrete clock generator needs at least two levels"
        );
        assert!(
            fastest_ps < slowest_ps,
            "fastest period must be shorter than slowest"
        );
        let step = (slowest_ps - fastest_ps) / (levels - 1) as f64;
        ClockGenerator::DiscreteLevels {
            periods_ps: (0..levels).map(|i| fastest_ps + step * i as f64).collect(),
        }
    }

    /// Maps a requested period to the period the generator actually produces.
    ///
    /// The realized period is never shorter than the request (except when the
    /// request exceeds the generator's range, in which case the longest
    /// available period is produced — the caller's violation check will
    /// flag the consequences).
    #[inline]
    #[must_use]
    pub fn realize(&self, requested_ps: Ps) -> Ps {
        match self {
            ClockGenerator::Ideal => requested_ps,
            ClockGenerator::Quantized {
                step_ps,
                min_ps,
                max_ps,
            } => {
                let stepped = (requested_ps / step_ps).ceil() * step_ps;
                stepped.clamp(*min_ps, *max_ps)
            }
            ClockGenerator::DiscreteLevels { periods_ps } => {
                let mut best: Option<Ps> = None;
                let mut longest = Ps::NEG_INFINITY;
                for &p in periods_ps {
                    longest = longest.max(p);
                    if p >= requested_ps {
                        best = Some(best.map_or(p, |b: Ps| b.min(p)));
                    }
                }
                best.unwrap_or(longest)
            }
        }
    }

    /// Realizes every period of `periods` in place — [`ClockGenerator::realize`]
    /// applied element-wise. The variant is checked once for the whole
    /// slice, so the `Ideal` generator (the identity) costs nothing.
    pub(crate) fn realize_lanes(&self, periods: &mut [Ps]) {
        if matches!(self, ClockGenerator::Ideal) {
            return;
        }
        for period in periods {
            *period = self.realize(*period);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_generator_is_transparent() {
        assert_eq!(ClockGenerator::Ideal.realize(1234.5), 1234.5);
    }

    #[test]
    fn quantized_generator_rounds_up() {
        let cg = ClockGenerator::quantized_50ps();
        assert_eq!(cg.realize(1401.0), 1450.0);
        assert_eq!(cg.realize(1450.0), 1450.0);
        assert_eq!(cg.realize(100.0), 600.0);
        assert_eq!(cg.realize(9999.0), 2400.0);
    }

    #[test]
    fn discrete_generator_picks_smallest_safe_level() {
        let cg = ClockGenerator::discrete(4, 1000.0, 2200.0);
        // Levels: 1000, 1400, 1800, 2200.
        assert_eq!(cg.realize(1350.0), 1400.0);
        assert_eq!(cg.realize(1800.0), 1800.0);
        assert_eq!(cg.realize(900.0), 1000.0);
        // Out-of-range request falls back to the slowest level.
        assert_eq!(cg.realize(5000.0), 2200.0);
    }

    #[test]
    fn realized_period_never_undercuts_request_within_range() {
        let generators = [
            ClockGenerator::Ideal,
            ClockGenerator::quantized_50ps(),
            ClockGenerator::discrete(8, 800.0, 2400.0),
        ];
        for cg in &generators {
            let requests = [800.0, 1111.0, 1450.5, 1899.0, 2026.0];
            for request in requests {
                assert!(
                    cg.realize(request) >= request,
                    "{cg:?} undercuts the requested {request} ps"
                );
            }
            let mut lanes = requests;
            cg.realize_lanes(&mut lanes);
            assert_eq!(lanes, requests.map(|request| cg.realize(request)), "{cg:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two levels")]
    fn discrete_with_one_level_panics() {
        let _ = ClockGenerator::discrete(1, 1000.0, 2000.0);
    }
}
