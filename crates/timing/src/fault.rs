//! Deterministic, seeded fault injection: transient timing events and the
//! violation-recovery model.
//!
//! The steady-state sweep treats a violation as a counter tick; real
//! detect-and-replay silicon pays for it. This module makes both the
//! *events* (voltage-droop windows, one-shot delay spikes, a persistent
//! mid-run corner shift) and the *cost* (a K-cycle replay penalty per
//! detected fault, a silent-corruption tally for undetected ones)
//! first-class — while preserving the repository's bit-identity contract:
//!
//! * Every perturbation is a pure function of `(fault seed, cycle)`,
//!   sampled with the same split-mix hash family as the per-stage dithers
//!   ([`crate::TimingModel`]) and the PVT corner sampler. There is no RNG
//!   state to thread, so the live simulator, the scalar digest replay and
//!   the corner-batched banked replay all recompute the **identical**
//!   per-cycle stage factors.
//! * Fault factors scale the *actual* dynamic delays, never the digest:
//!   a [`TimingDigest`](idca_pipeline::TimingDigest) captured with faults
//!   enabled is byte-identical to one captured without, so the digest
//!   cache stays fault-invariant and one cached simulation serves every
//!   fault scenario.
//! * Factors are corner-invariant (the same droop hits every sampled PVT
//!   corner of a sweep at the same cycles), so the banked replay can apply
//!   one factor set per cycle across all SIMD lanes.
//!
//! The intended call pattern: parse a [`FaultSpec`] once (`repro sweep
//! --faults SPEC`), build one [`FaultPlan`] per run, and perturb each
//! cycle's [`CycleTiming`] through a [`Perturbation`](crate::Perturbation)
//! (which applies [`FaultPlan::faulted`], then any interrupt entry surge)
//! before the policy observers fold it. Observers that are handed
//! pre-perturbed timings use the plan only for its recovery parameters.

use crate::model::hash01;
use crate::{CycleTiming, Ps};
use idca_pipeline::Stage;

/// Cycles per voltage-droop window: droop activation is decided per window
/// (so a droop lasts long enough to hit an adaptive controller mid-learning)
/// while its intensity ramps per cycle inside the window.
pub const DROOP_WINDOW_CYCLES: u64 = 64;

/// Horizon (in cycles) within which a configured mid-run corner shift
/// lands: the onset cycle is hash-derived from the fault seed inside
/// `[horizon/4, horizon)`, so the shift always arrives after the adaptive
/// warm-up but within every generated program's run length.
pub const SHIFT_ONSET_HORIZON: u64 = 4096;

/// Salt distinguishing the droop-window activation hash.
const DROOP_SALT: u64 = 0xD800_17AE;
/// Salt distinguishing the per-stage droop weight hash.
const DROOP_STAGE_SALT: u64 = 0xD800_57A6;
/// Salt distinguishing the spike activation hash.
const SPIKE_SALT: u64 = 0x59D1_4E00;
/// Salt distinguishing the spike stage-selection hash.
const SPIKE_STAGE_SALT: u64 = 0x59D1_57A6;
/// Salt distinguishing the corner-shift onset hash.
const SHIFT_SALT: u64 = 0x5811_F700;

/// A parsed, validated fault scenario: which transient events a run
/// injects and what a violation costs to recover from.
///
/// The spec is plain data (no state): two runs with equal specs perturb
/// identically, and the spec ships inside sweep-report files so merged
/// shards can be checked for identity bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault schedule. Independent of the sweep's master seed:
    /// the same workloads can be re-swept under a different fault draw.
    pub seed: u64,
    /// Probability that any given [`DROOP_WINDOW_CYCLES`]-cycle window
    /// carries a voltage droop (`0.0` disables droops).
    pub droop_rate: f64,
    /// Peak fractional delay increase at the center of a droop window
    /// (`0.15` = delays up to 15 % longer).
    pub droop_mag: f64,
    /// Per-cycle probability of a one-shot delay spike on one hash-chosen
    /// stage (`0.0` disables spikes).
    pub spike_rate: f64,
    /// Fractional delay increase of a spiked stage.
    pub spike_mag: f64,
    /// Persistent fractional slowdown applied from the hash-derived onset
    /// cycle onward — the "mid-run corner shift" (`0.0` disables it).
    pub shift_mag: f64,
    /// Replay penalty of one detected fault, in cycles re-executed at the
    /// realized period (the Razor-style detect-and-replay cost).
    pub replay_penalty: u32,
    /// Detection window as a fraction of the realized period: a violating
    /// cycle whose actual delay lands within `realized * (1 + window)` is
    /// caught by the error-detection flops and replayed; anything later is
    /// tallied as silent-corruption risk.
    pub detect_window: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 1,
            droop_rate: 0.0,
            droop_mag: 0.15,
            spike_rate: 0.0,
            spike_mag: 0.25,
            shift_mag: 0.0,
            replay_penalty: 8,
            detect_window: 0.10,
        }
    }
}

impl FaultSpec {
    /// Parses a `key=value,key=value` fault spec, e.g.
    /// `seed=7,droop-rate=0.05,droop-mag=0.2,spike-rate=0.001,penalty=10`.
    ///
    /// Accepted keys: `seed`, `droop-rate`, `droop-mag`, `spike-rate`,
    /// `spike-mag`, `shift-mag`, `penalty`, `detect-window`; unspecified
    /// keys keep the [`FaultSpec::default`] values. Rates and the
    /// detection window must lie in `[0, 1]`; magnitudes in `[0, 4]`;
    /// `penalty` in `[0, 10000]`.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultSpecError`] naming the first malformed pair,
    /// unknown key or out-of-range value.
    pub fn parse(spec: &str) -> Result<FaultSpec, FaultSpecError> {
        let mut parsed = FaultSpec::default();
        for pair in spec.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((key, value)) = pair.split_once('=') else {
                return Err(FaultSpecError::MalformedPair(pair.to_string()));
            };
            let bad = |key: &'static str| FaultSpecError::BadValue {
                key,
                value: value.to_string(),
            };
            let float = |key: &'static str| value.parse::<f64>().map_err(|_| bad(key));
            match key {
                "seed" => parsed.seed = value.parse().map_err(|_| bad("seed"))?,
                "droop-rate" => parsed.droop_rate = float("droop-rate")?,
                "droop-mag" => parsed.droop_mag = float("droop-mag")?,
                "spike-rate" => parsed.spike_rate = float("spike-rate")?,
                "spike-mag" => parsed.spike_mag = float("spike-mag")?,
                "shift-mag" => parsed.shift_mag = float("shift-mag")?,
                "detect-window" => parsed.detect_window = float("detect-window")?,
                "penalty" => parsed.replay_penalty = value.parse().map_err(|_| bad("penalty"))?,
                other => return Err(FaultSpecError::UnknownKey(other.to_string())),
            }
            // Range-check every pair as it lands, so the error names the
            // first bad one.
            parsed.validate()?;
        }
        Ok(parsed)
    }

    /// Checks every field against the ranges [`FaultSpec::parse`] accepts:
    /// rates and the detection window in `[0, 1]`, magnitudes in `[0, 4]`,
    /// `penalty` at most 10000. Specs decoded from a sweep-report file go
    /// through the same check.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError::BadValue`] naming the first field out of
    /// range (NaN included).
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        let floats = [
            ("droop-rate", self.droop_rate, 1.0),
            ("droop-mag", self.droop_mag, 4.0),
            ("spike-rate", self.spike_rate, 1.0),
            ("spike-mag", self.spike_mag, 4.0),
            ("shift-mag", self.shift_mag, 4.0),
            ("detect-window", self.detect_window, 1.0),
        ];
        for (key, value, hi) in floats {
            if !(0.0..=hi).contains(&value) {
                return Err(FaultSpecError::BadValue {
                    key,
                    value: value.to_string(),
                });
            }
        }
        if self.replay_penalty > 10_000 {
            return Err(FaultSpecError::BadValue {
                key: "penalty",
                value: self.replay_penalty.to_string(),
            });
        }
        Ok(())
    }

    /// Canonical one-line rendering of the spec (stable across runs, used
    /// in sweep-report headers). Parsing the result reproduces the spec.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "seed={},droop-rate={},droop-mag={},spike-rate={},spike-mag={},shift-mag={},penalty={},detect-window={}",
            self.seed,
            self.droop_rate,
            self.droop_mag,
            self.spike_rate,
            self.spike_mag,
            self.shift_mag,
            self.replay_penalty,
            self.detect_window
        )
    }

    /// Order-independent 64-bit fingerprint over the exact field bits —
    /// the corpus-index identity of a fault scenario (two specs collide
    /// only if every field is bit-identical).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        idca_pipeline::frame::fnv1a_words(&[
            self.seed,
            self.droop_rate.to_bits(),
            self.droop_mag.to_bits(),
            self.spike_rate.to_bits(),
            self.spike_mag.to_bits(),
            self.shift_mag.to_bits(),
            u64::from(self.replay_penalty),
            self.detect_window.to_bits(),
        ])
    }

    /// Whether the spec perturbs delays at all (a pure-recovery spec with
    /// every rate and magnitude at zero still scores violations, it just
    /// never creates new ones).
    #[must_use]
    pub fn perturbs(&self) -> bool {
        (self.droop_rate > 0.0 && self.droop_mag > 0.0)
            || (self.spike_rate > 0.0 && self.spike_mag > 0.0)
            || self.shift_mag > 0.0
    }
}

/// Errors of [`FaultSpec::parse`] and [`FaultSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSpecError {
    /// A comma-separated element is not a `key=value` pair.
    MalformedPair(
        /// The offending element.
        String,
    ),
    /// The key is not a recognized fault parameter.
    UnknownKey(
        /// The offending key.
        String,
    ),
    /// The value does not parse, or falls outside the key's valid range.
    BadValue {
        /// The key whose value was rejected.
        key: &'static str,
        /// The offending value.
        value: String,
    },
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::MalformedPair(pair) => {
                write!(f, "fault spec element `{pair}` is not a key=value pair")
            }
            FaultSpecError::UnknownKey(key) => write!(
                f,
                "unknown fault key `{key}` (keys: seed, droop-rate, droop-mag, \
                 spike-rate, spike-mag, shift-mag, penalty, detect-window)"
            ),
            FaultSpecError::BadValue { key, value } => {
                write!(f, "fault key `{key}` has invalid value `{value}`")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// The evaluated fault schedule of one run: a [`FaultSpec`] plus the
/// precomputed corner-shift onset. Cheap to copy; holds no per-cycle
/// state, so one plan can be shared by any number of observers and lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// First cycle of the persistent corner shift (`u64::MAX` when
    /// `shift_mag` is zero — the shift never arrives).
    shift_onset: u64,
}

impl FaultPlan {
    /// Builds the plan for one run: derives the corner-shift onset from
    /// the fault seed (inside `[SHIFT_ONSET_HORIZON/4, SHIFT_ONSET_HORIZON)`).
    #[must_use]
    pub fn new(spec: &FaultSpec) -> FaultPlan {
        let shift_onset = if spec.shift_mag > 0.0 {
            let lo = SHIFT_ONSET_HORIZON / 4;
            let span = (SHIFT_ONSET_HORIZON - lo) as f64;
            lo + (hash01(spec.seed, 0, SHIFT_SALT) * span) as u64
        } else {
            u64::MAX
        };
        FaultPlan {
            spec: *spec,
            shift_onset,
        }
    }

    /// The spec this plan was built from (recovery parameters live here).
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The hash-derived onset cycle of the persistent corner shift
    /// (`u64::MAX` when no shift is configured).
    #[must_use]
    pub fn shift_onset(&self) -> u64 {
        self.shift_onset
    }

    /// The per-stage delay multipliers of one cycle — the pure
    /// `(fault seed, cycle)` function every engine recomputes. Factors are
    /// always `>= 1.0` (faults only slow logic down) and compose as
    /// droop × spike × shift per stage.
    #[must_use]
    pub fn stage_factors(&self, cycle: u64) -> [f64; Stage::COUNT] {
        let weights = self.droop_weights(cycle / DROOP_WINDOW_CYCLES);
        self.factors_with(cycle, weights.as_ref())
    }

    /// The droop of one [`DROOP_WINDOW_CYCLES`]-cycle window: `None` when
    /// the window carries no droop, otherwise each stage's hash-weighted
    /// share of it — droops hit the long execute paths harder or softer run
    /// by run. Constant within the window, so the lane path
    /// ([`CycleLanes::apply_fault`](crate::CycleLanes::apply_fault)) caches
    /// it per window.
    pub(crate) fn droop_weights(&self, window: u64) -> Option<[f64; Stage::COUNT]> {
        let spec = &self.spec;
        let droops = spec.droop_rate > 0.0
            && spec.droop_mag > 0.0
            && hash01(spec.seed, window, DROOP_SALT) < spec.droop_rate;
        droops.then(|| {
            std::array::from_fn(|index| {
                0.5 + 0.5
                    * hash01(
                        spec.seed.wrapping_add(window),
                        index as u64,
                        DROOP_STAGE_SALT,
                    )
            })
        })
    }

    /// [`FaultPlan::stage_factors`] of `cycle` given its window's
    /// [`FaultPlan::droop_weights`].
    #[inline]
    pub(crate) fn factors_with(
        &self,
        cycle: u64,
        droop_weights: Option<&[f64; Stage::COUNT]>,
    ) -> [f64; Stage::COUNT] {
        let mut factors = [1.0; Stage::COUNT];
        let spec = &self.spec;

        // Voltage droop: decided per window, ramping triangularly inside it
        // (peak mid-window) with the window's per-stage weights.
        if let Some(weights) = droop_weights {
            let position = (cycle % DROOP_WINDOW_CYCLES) as f64 / DROOP_WINDOW_CYCLES as f64;
            let shape = 1.0 - (2.0 * position - 1.0).abs();
            for (factor, weight) in factors.iter_mut().zip(weights) {
                *factor *= 1.0 + spec.droop_mag * shape * weight;
            }
        }

        // One-shot spike on a single hash-chosen stage.
        if spec.spike_rate > 0.0 && spec.spike_mag > 0.0 {
            let draw = hash01(spec.seed, cycle, SPIKE_SALT);
            if draw < spec.spike_rate {
                let stage =
                    (hash01(spec.seed, cycle, SPIKE_STAGE_SALT) * Stage::COUNT as f64) as usize;
                let stage = stage.min(Stage::COUNT - 1);
                factors[stage] *= 1.0 + spec.spike_mag;
            }
        }

        // Persistent mid-run corner shift from the onset cycle onward.
        if cycle >= self.shift_onset {
            for factor in &mut factors {
                *factor *= 1.0 + spec.shift_mag;
            }
        }

        factors
    }

    /// Applies this cycle's fault factors to an evaluated [`CycleTiming`],
    /// rescaling each stage delay and re-folding the maximum with the same
    /// strict-`>` reduction as [`crate::TimingModel::digest_cycle_timing`].
    ///
    /// A cycle with no active event returns the input **unchanged** (not
    /// merely numerically equal), so fault-enabled runs stay bit-identical
    /// to fault-free runs on every unfaulted cycle; and because the
    /// factors are a pure function of `(fault seed, cycle)`, the live,
    /// scalar-replay and banked-replay engines perturb identically.
    #[must_use]
    pub fn faulted(&self, cycle: u64, timing: &CycleTiming) -> CycleTiming {
        let factors = self.stage_factors(cycle);
        if factors.iter().all(|&f| f == 1.0) {
            return *timing;
        }
        let mut delays = [0.0; Stage::COUNT];
        let mut max_delay: Ps = 0.0;
        let mut limiting = Stage::Execute;
        for stage in Stage::ALL {
            let delay = timing.stage_delay_ps[stage.index()] * factors[stage.index()];
            delays[stage.index()] = delay;
            if delay > max_delay {
                max_delay = delay;
                limiting = stage;
            }
        }
        CycleTiming {
            stage_delay_ps: delays,
            max_delay_ps: max_delay,
            limiting_stage: limiting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn droopy_spec() -> FaultSpec {
        FaultSpec {
            seed: 7,
            droop_rate: 0.25,
            droop_mag: 0.2,
            spike_rate: 0.01,
            spike_mag: 0.3,
            shift_mag: 0.05,
            ..FaultSpec::default()
        }
    }

    fn sample_timing() -> CycleTiming {
        let mut delays = [0.0; Stage::COUNT];
        for (index, delay) in delays.iter_mut().enumerate() {
            *delay = 1000.0 + 100.0 * index as f64;
        }
        CycleTiming {
            stage_delay_ps: delays,
            max_delay_ps: delays[Stage::COUNT - 1],
            limiting_stage: Stage::ALL[Stage::COUNT - 1],
        }
    }

    #[test]
    fn spec_parses_round_trips_and_rejects() {
        let spec = FaultSpec::parse(
            "seed=7,droop-rate=0.25,droop-mag=0.2,spike-rate=0.01,spike-mag=0.3,shift-mag=0.05",
        )
        .expect("valid spec");
        assert_eq!(
            spec,
            FaultSpec {
                seed: 7,
                droop_rate: 0.25,
                droop_mag: 0.2,
                spike_rate: 0.01,
                spike_mag: 0.3,
                shift_mag: 0.05,
                ..FaultSpec::default()
            }
        );
        // describe() is canonical: re-parsing reproduces the spec exactly.
        assert_eq!(FaultSpec::parse(&spec.describe()), Ok(spec));
        assert_eq!(FaultSpec::parse(""), Ok(FaultSpec::default()));
        assert!(matches!(
            FaultSpec::parse("droop-rate"),
            Err(FaultSpecError::MalformedPair(_))
        ));
        assert!(matches!(
            FaultSpec::parse("droops=0.5"),
            Err(FaultSpecError::UnknownKey(_))
        ));
        for bad in [
            "droop-rate=1.5",
            "droop-rate=-0.1",
            "droop-rate=NaN",
            "seed=x",
            "penalty=-3",
            "penalty=10001",
            "detect-window=2",
        ] {
            assert!(
                matches!(FaultSpec::parse(bad), Err(FaultSpecError::BadValue { .. })),
                "{bad} was accepted"
            );
        }
        // Errors render with the offending key/value.
        let error = FaultSpec::parse("droop-rate=9").unwrap_err();
        assert!(error.to_string().contains("droop-rate"), "{error}");
    }

    #[test]
    fn factors_are_deterministic_and_bounded() {
        let plan = FaultPlan::new(&droopy_spec());
        let mut perturbed = 0u32;
        for cycle in 0..2048 {
            let factors = plan.stage_factors(cycle);
            assert_eq!(factors, plan.stage_factors(cycle), "cycle {cycle}");
            for &factor in &factors {
                assert!((1.0..=2.5).contains(&factor), "cycle {cycle}: {factor}");
            }
            if factors.iter().any(|&f| f != 1.0) {
                perturbed += 1;
            }
        }
        // A 25 % droop rate must actually perturb a visible share of cycles.
        assert!(perturbed > 100, "only {perturbed} of 2048 cycles perturbed");
    }

    #[test]
    fn unfaulted_cycles_pass_through_bit_identically() {
        // A spec with no events configured never changes a timing.
        let inert = FaultPlan::new(&FaultSpec::default());
        let timing = sample_timing();
        for cycle in 0..256 {
            assert_eq!(inert.faulted(cycle, &timing), timing);
        }
        assert!(!FaultSpec::default().perturbs());
        assert!(droopy_spec().perturbs());
    }

    #[test]
    fn faulted_timing_rescales_and_refolds_the_maximum() {
        let plan = FaultPlan::new(&droopy_spec());
        let timing = sample_timing();
        let mut saw_fault = false;
        for cycle in 0..2048 {
            let faulted = plan.faulted(cycle, &timing);
            let factors = plan.stage_factors(cycle);
            for stage in Stage::ALL {
                assert_eq!(
                    faulted.stage_delay_ps[stage.index()],
                    timing.stage_delay_ps[stage.index()] * factors[stage.index()]
                );
                assert!(faulted.max_delay_ps >= faulted.stage_delay_ps[stage.index()]);
            }
            assert_eq!(
                faulted.max_delay_ps,
                faulted.stage(faulted.limiting_stage),
                "cycle {cycle}: max must belong to the limiting stage"
            );
            if faulted.max_delay_ps > timing.max_delay_ps {
                saw_fault = true;
            }
        }
        assert!(saw_fault, "no cycle was perturbed in 2048 cycles");
    }

    #[test]
    fn shift_onset_is_in_range_and_persistent() {
        let plan = FaultPlan::new(&droopy_spec());
        let onset = plan.shift_onset();
        assert!((SHIFT_ONSET_HORIZON / 4..SHIFT_ONSET_HORIZON).contains(&onset));
        let timing = sample_timing();
        // From the onset onward every stage is at least (1 + shift) slower.
        for cycle in [onset, onset + 1, onset + 10_000] {
            let faulted = plan.faulted(cycle, &timing);
            for stage in Stage::ALL {
                assert!(
                    faulted.stage_delay_ps[stage.index()]
                        >= timing.stage_delay_ps[stage.index()] * 1.05 - 1e-9
                );
            }
        }
        // No shift configured => onset never arrives.
        let unshifted = FaultPlan::new(&FaultSpec {
            shift_mag: 0.0,
            ..droopy_spec()
        });
        assert_eq!(unshifted.shift_onset(), u64::MAX);
    }

    #[test]
    fn fingerprints_separate_distinct_specs() {
        let a = droopy_spec();
        let mut b = a;
        b.seed += 1;
        let mut c = a;
        c.detect_window += 0.01;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), droopy_spec().fingerprint());
    }
}
