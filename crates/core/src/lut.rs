//! The delay prediction lookup table (LUT).
//!
//! The LUT is the hardware table of Fig. 1 of the paper: for every
//! instruction class and every pipeline stage it stores the worst-case delay
//! of the paths that class excites in that stage. At run time the clock
//! adjustment controller looks up the classes currently in flight in all
//! stages and programs the clock generator with the maximum of the entries.

use crate::error::LutFormatError;
use crate::CoreError;
use idca_isa::TimingClass;
use idca_pipeline::Stage;
use idca_timing::{dta::DynamicTimingAnalysis, Ps, TimingModel};
use serde::{Deserialize, Serialize};

/// Where the LUT entries came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LutSource {
    /// Entries are the worst delays observed during a dynamic-timing-analysis
    /// characterization run (the paper's flow). Under-characterized classes
    /// fall back to the static period.
    Characterization,
    /// Entries are the analytic per-class worst cases of the timing profile
    /// (guaranteed safe for any data).
    ProfileWorstCase,
}

/// One row of the paper's Table II: the overall worst-case delay of an
/// instruction class and the stage in which it occurs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Instruction class (printed with the paper's `l.xxx(i)` labels).
    pub class: TimingClass,
    /// Worst-case delay in picoseconds.
    pub max_delay_ps: Ps,
    /// The pipeline stage that limits this class.
    pub stage: Stage,
    /// Number of characterization observations backing the entry
    /// (0 for profile-derived LUTs).
    pub observations: u64,
}

/// The per-class, per-stage delay prediction table.
///
/// # Example
///
/// ```
/// use idca_core::DelayLut;
/// use idca_isa::TimingClass;
/// use idca_pipeline::Stage;
/// use idca_timing::{ProfileKind, TimingModel};
///
/// let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
/// let lut = DelayLut::from_model(&model);
/// // Table II: l.mul is the slowest instruction class, limited by execute.
/// assert_eq!(lut.delay_ps(Stage::Execute, TimingClass::Mul).round(), 1899.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayLut {
    entries: Vec<Ps>,
    observations: Vec<u64>,
    source: LutSource,
    static_period_ps: Ps,
    min_observations: u64,
}

#[inline]
fn index(stage: Stage, class: TimingClass) -> usize {
    stage.index() * TimingClass::COUNT + class.index()
}

impl DelayLut {
    /// Builds the LUT from a characterization run, mirroring the paper's
    /// instruction-timing-extraction step.
    ///
    /// Entries of `(stage, class)` pairs with fewer than `min_observations`
    /// occurrences are replaced by the static period, exactly like the paper
    /// handles instructions "where no accurate maximum delay characterization
    /// could be performed".
    #[must_use]
    pub fn from_dta(dta: &DynamicTimingAnalysis, min_observations: u64) -> Self {
        let static_period_ps = dta.static_period_ps();
        let mut entries = vec![static_period_ps; Stage::COUNT * TimingClass::COUNT];
        let mut observations = vec![0u64; Stage::COUNT * TimingClass::COUNT];
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                let seen = dta.observations(stage, class);
                observations[index(stage, class)] = seen;
                if seen >= min_observations {
                    entries[index(stage, class)] = dta.observed_worst_ps(stage, class);
                }
            }
        }
        DelayLut {
            entries,
            observations,
            source: LutSource::Characterization,
            static_period_ps,
            min_observations,
        }
    }

    /// Builds the LUT from the analytic worst-case delays of the timing
    /// model's profile (safe for any operand values by construction).
    #[must_use]
    pub fn from_model(model: &TimingModel) -> Self {
        let static_period_ps = model.static_period_ps();
        let mut entries = vec![static_period_ps; Stage::COUNT * TimingClass::COUNT];
        let observations = vec![0u64; Stage::COUNT * TimingClass::COUNT];
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                entries[index(stage, class)] = model.worst_case_ps(stage, class);
            }
        }
        DelayLut {
            entries,
            observations,
            source: LutSource::ProfileWorstCase,
            static_period_ps,
            min_observations: 0,
        }
    }

    /// The origin of the entries.
    #[must_use]
    pub fn source(&self) -> LutSource {
        self.source
    }

    /// The static clock period used as fallback and baseline, in picoseconds.
    #[must_use]
    pub fn static_period_ps(&self) -> Ps {
        self.static_period_ps
    }

    /// The delay entry for one `(stage, class)` pair.
    #[inline]
    #[must_use]
    pub fn delay_ps(&self, stage: Stage, class: TimingClass) -> Ps {
        self.entries[index(stage, class)]
    }

    /// Number of characterization observations backing an entry.
    #[must_use]
    pub fn observations(&self, stage: Stage, class: TimingClass) -> u64 {
        self.observations[index(stage, class)]
    }

    /// The clock period required for one cycle given the classes currently
    /// in flight in every stage: the maximum of the corresponding entries
    /// (equation (2) of the paper, evaluated at LUT granularity).
    #[inline]
    #[must_use]
    pub fn period_for(&self, classes: &[TimingClass; Stage::COUNT]) -> Ps {
        Stage::ALL
            .iter()
            .map(|stage| self.delay_ps(*stage, classes[stage.index()]))
            .fold(0.0, Ps::max)
    }

    /// The worst entry of one stage across all classes (used by the
    /// execute-only controller as a guard for the unmonitored stages).
    #[must_use]
    pub fn stage_worst_ps(&self, stage: Stage) -> Ps {
        TimingClass::ALL
            .iter()
            .map(|class| self.delay_ps(stage, *class))
            .fold(0.0, Ps::max)
    }

    /// Like [`DelayLut::stage_worst_ps`] but, for characterization-derived
    /// LUTs, only entries backed by at least one observation are considered.
    ///
    /// Entries of never-observed classes fall back to the static period; a
    /// controller that needs "the worst timing this stage can realistically
    /// demand" (e.g. the execute-only controller's address-stage guard)
    /// would otherwise be pinned to the static period by a class that never
    /// occurs. Returns [`DelayLut::stage_worst_ps`] if the stage has no
    /// observed entry at all.
    #[must_use]
    pub fn stage_worst_characterized_ps(&self, stage: Stage) -> Ps {
        if self.source == LutSource::ProfileWorstCase {
            return self.stage_worst_ps(stage);
        }
        // Only entries that were characterized well enough to escape the
        // static-period fallback count as "realistic" stage demands.
        let threshold = self.min_observations.max(1);
        let observed = TimingClass::ALL
            .iter()
            .filter(|class| self.observations(stage, **class) >= threshold)
            .map(|class| self.delay_ps(stage, *class))
            .fold(0.0, Ps::max);
        if observed > 0.0 {
            observed
        } else {
            self.stage_worst_ps(stage)
        }
    }

    /// The overall worst-case delay of a class and its limiting stage
    /// (one row of Table II).
    #[must_use]
    pub fn class_worst_case(&self, class: TimingClass) -> (Stage, Ps) {
        let mut best = (Stage::Execute, 0.0);
        for stage in Stage::ALL {
            let v = self.delay_ps(stage, class);
            if v > best.1 {
                best = (stage, v);
            }
        }
        best
    }

    /// Produces the rows of the paper's Table II for all instruction classes.
    #[must_use]
    pub fn table2_rows(&self) -> Vec<Table2Row> {
        TimingClass::INSTRUCTION_CLASSES
            .iter()
            .map(|&class| {
                let (stage, max_delay_ps) = self.class_worst_case(class);
                Table2Row {
                    class,
                    max_delay_ps,
                    stage,
                    observations: self.observations(stage, class),
                }
            })
            .collect()
    }

    /// Returns a copy of the LUT with every characterized entry inflated by
    /// `fraction` (e.g. `0.015` for 1.5 %), capped at the static period.
    ///
    /// A characterization run can only observe the data conditions its
    /// stimuli produce; a small guardband covers residual data-dependent
    /// delay that a different workload might excite, preserving the paper's
    /// "frequency-over-scaling without timing errors" property for LUTs
    /// built from finite characterizations. Entries that already fell back
    /// to the static period stay there.
    #[must_use]
    pub fn with_guardband(&self, fraction: f64) -> Self {
        let mut guarded = self.clone();
        for entry in &mut guarded.entries {
            *entry = (*entry * (1.0 + fraction)).min(self.static_period_ps);
        }
        guarded
    }

    /// Returns a copy of the LUT with every entry (and the static period)
    /// multiplied by `factor` — used to retarget a characterization done at
    /// one voltage to another operating point.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        DelayLut {
            entries: self.entries.iter().map(|d| d * factor).collect(),
            observations: self.observations.clone(),
            source: self.source,
            static_period_ps: self.static_period_ps * factor,
            min_observations: self.min_observations,
        }
    }

    /// Serializes the LUT to JSON (the artifact handed to the clock
    /// adjustment controller / instruction-set simulator in the paper's
    /// tool flow). The format is a small hand-rolled schema so the workspace
    /// needs no JSON dependency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LutSerialization`] on serialization failure.
    pub fn to_json(&self) -> Result<String, CoreError> {
        let entries: Vec<String> = self.entries.iter().map(|v| format!("{v:?}")).collect();
        let observations: Vec<String> = self.observations.iter().map(u64::to_string).collect();
        let source = match self.source {
            LutSource::Characterization => "characterization",
            LutSource::ProfileWorstCase => "profile-worst-case",
        };
        Ok(format!(
            "{{\n  \"source\": \"{source}\",\n  \"static_period_ps\": {:?},\n  \
             \"min_observations\": {},\n  \"entries\": [{}],\n  \"observations\": [{}]\n}}\n",
            self.static_period_ps,
            self.min_observations,
            entries.join(", "),
            observations.join(", "),
        ))
    }

    /// Deserializes a LUT previously produced by [`DelayLut::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LutSerialization`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, CoreError> {
        let mut parser = json::Parser::new(text);
        let mut source = None;
        let mut static_period_ps = None;
        let mut min_observations = None;
        let mut entries: Option<Vec<Ps>> = None;
        let mut observations: Option<Vec<u64>> = None;

        parser.expect('{')?;
        loop {
            let key = parser.string()?;
            parser.expect(':')?;
            match key.as_str() {
                "source" => {
                    source = Some(match parser.string()?.as_str() {
                        "characterization" => LutSource::Characterization,
                        "profile-worst-case" => LutSource::ProfileWorstCase,
                        other => {
                            return Err(LutFormatError::new(format!(
                                "unknown LUT source `{other}`"
                            ))
                            .into())
                        }
                    });
                }
                "static_period_ps" => static_period_ps = Some(parser.number()?),
                "min_observations" => min_observations = Some(parser.integer()?),
                "entries" => entries = Some(parser.array(json::Parser::number)?),
                "observations" => observations = Some(parser.array(json::Parser::integer)?),
                other => {
                    return Err(LutFormatError::new(format!("unknown LUT field `{other}`")).into())
                }
            }
            if !parser.comma_or_end('}')? {
                break;
            }
        }
        parser.end()?;

        let missing = |field: &str| LutFormatError::new(format!("missing LUT field `{field}`"));
        let entries = entries.ok_or_else(|| missing("entries"))?;
        let observations = observations.ok_or_else(|| missing("observations"))?;
        let expected = Stage::COUNT * TimingClass::COUNT;
        if entries.len() != expected || observations.len() != expected {
            return Err(LutFormatError::new(format!(
                "LUT tables must hold {expected} entries, got {} delays / {} observation counts",
                entries.len(),
                observations.len()
            ))
            .into());
        }
        Ok(DelayLut {
            entries,
            observations,
            source: source.ok_or_else(|| missing("source"))?,
            static_period_ps: static_period_ps.ok_or_else(|| missing("static_period_ps"))?,
            min_observations: min_observations.ok_or_else(|| missing("min_observations"))?,
        })
    }
}

/// A minimal parser for the fixed JSON schema of [`DelayLut::to_json`].
mod json {
    use crate::error::LutFormatError;

    pub(super) struct Parser<'a> {
        text: &'a str,
        pos: usize,
    }

    impl<'a> Parser<'a> {
        pub(super) fn new(text: &'a str) -> Self {
            Parser { text, pos: 0 }
        }

        fn skip_whitespace(&mut self) {
            let rest = &self.text[self.pos..];
            self.pos += rest.len() - rest.trim_start().len();
        }

        fn peek(&mut self) -> Option<char> {
            self.skip_whitespace();
            self.text[self.pos..].chars().next()
        }

        pub(super) fn expect(&mut self, wanted: char) -> Result<(), LutFormatError> {
            match self.peek() {
                Some(c) if c == wanted => {
                    self.pos += wanted.len_utf8();
                    Ok(())
                }
                found => Err(LutFormatError::new(format!(
                    "expected `{wanted}` at byte {}, found {found:?}",
                    self.pos
                ))),
            }
        }

        pub(super) fn string(&mut self) -> Result<String, LutFormatError> {
            self.expect('"')?;
            let rest = &self.text[self.pos..];
            // The schema never emits escapes, so a bare quote ends the string.
            let len = rest
                .find('"')
                .ok_or_else(|| LutFormatError::new("unterminated string"))?;
            let value = rest[..len].to_string();
            self.pos += len + 1;
            Ok(value)
        }

        fn numeric_token(&mut self) -> Result<&'a str, LutFormatError> {
            self.skip_whitespace();
            let rest = &self.text[self.pos..];
            let len = rest
                .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .unwrap_or(rest.len());
            if len == 0 {
                return Err(LutFormatError::new(format!(
                    "expected a number at byte {}",
                    self.pos
                )));
            }
            self.pos += len;
            Ok(&rest[..len])
        }

        pub(super) fn number(&mut self) -> Result<f64, LutFormatError> {
            let token = self.numeric_token()?;
            token
                .parse()
                .map_err(|_| LutFormatError::new(format!("malformed number `{token}`")))
        }

        pub(super) fn integer(&mut self) -> Result<u64, LutFormatError> {
            let token = self.numeric_token()?;
            token
                .parse()
                .map_err(|_| LutFormatError::new(format!("malformed integer `{token}`")))
        }

        pub(super) fn array<T>(
            &mut self,
            mut element: impl FnMut(&mut Self) -> Result<T, LutFormatError>,
        ) -> Result<Vec<T>, LutFormatError> {
            self.expect('[')?;
            let mut items = Vec::new();
            if self.peek() == Some(']') {
                self.pos += 1;
                return Ok(items);
            }
            loop {
                items.push(element(self)?);
                if !self.comma_or_end(']')? {
                    return Ok(items);
                }
            }
        }

        /// Consumes either a `,` (returning `true`) or `close` (returning
        /// `false`).
        pub(super) fn comma_or_end(&mut self, close: char) -> Result<bool, LutFormatError> {
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                    Ok(true)
                }
                Some(c) if c == close => {
                    self.pos += 1;
                    Ok(false)
                }
                found => Err(LutFormatError::new(format!(
                    "expected `,` or `{close}` at byte {}, found {found:?}",
                    self.pos
                ))),
            }
        }

        pub(super) fn end(&mut self) -> Result<(), LutFormatError> {
            match self.peek() {
                None => Ok(()),
                Some(c) => Err(LutFormatError::new(format!(
                    "trailing content starting with `{c}`"
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idca_isa::asm::Assembler;
    use idca_pipeline::{DigestObserver, SimConfig, Simulator};
    use idca_timing::ProfileKind;

    fn model() -> TimingModel {
        TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized)
    }

    fn characterization_dta() -> DynamicTimingAnalysis {
        let program = Assembler::new()
            .assemble(
                "        l.addi r1, r0, 0x100
                         l.movhi r2, 0xFFFF
                         l.ori  r2, r2, 0xFFFF
                         l.addi r3, r0, 40
                 loop:   l.add  r4, r2, r3
                         l.mul  r5, r2, r3
                         l.sw   0(r1), r5
                         l.lwz  r6, 0(r1)
                         l.xor  r7, r6, r2
                         l.slli r8, r7, 17
                         l.addi r3, r3, -1
                         l.sfne r3, r0
                         l.bf   loop
                         l.nop  0
                         l.nop  1",
            )
            .unwrap();
        let mut capture = DigestObserver::new();
        Simulator::new(SimConfig::default())
            .run_observed(&program, &mut [&mut capture])
            .unwrap();
        DynamicTimingAnalysis::replay_digest(&model(), &capture.into_digest())
    }

    #[test]
    fn profile_lut_matches_model_worst_cases() {
        let m = model();
        let lut = DelayLut::from_model(&m);
        assert_eq!(lut.source(), LutSource::ProfileWorstCase);
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                assert_eq!(lut.delay_ps(stage, class), m.worst_case_ps(stage, class));
            }
        }
        assert_eq!(lut.static_period_ps(), m.static_period_ps());
    }

    #[test]
    fn characterization_lut_uses_static_fallback_for_unseen_classes() {
        let dta = characterization_dta();
        let lut = DelayLut::from_dta(&dta, 5);
        // The characterization kernel contains no register-indirect jumps,
        // so that class must fall back to the static period.
        assert_eq!(
            lut.delay_ps(Stage::Execute, TimingClass::JumpReg),
            lut.static_period_ps()
        );
        // Frequently exercised classes must sit below the static period.
        assert!(lut.delay_ps(Stage::Execute, TimingClass::Add) < lut.static_period_ps());
        assert!(lut.observations(Stage::Execute, TimingClass::Add) >= 5);
    }

    #[test]
    fn characterization_lut_is_bounded_by_profile_lut() {
        let m = model();
        let dta = characterization_dta();
        let char_lut = DelayLut::from_dta(&dta, 1);
        let prof_lut = DelayLut::from_model(&m);
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                if char_lut.observations(stage, class) > 0 {
                    assert!(
                        char_lut.delay_ps(stage, class) <= prof_lut.delay_ps(stage, class) + 1e-9,
                        "{stage}/{class}"
                    );
                }
            }
        }
    }

    #[test]
    fn period_for_takes_the_maximum_across_stages() {
        let lut = DelayLut::from_model(&model());
        let all_bubble = [TimingClass::Bubble; Stage::COUNT];
        let mut with_mul = all_bubble;
        with_mul[Stage::Execute.index()] = TimingClass::Mul;
        assert!(lut.period_for(&with_mul) > lut.period_for(&all_bubble));
        assert_eq!(
            lut.period_for(&with_mul),
            lut.delay_ps(Stage::Execute, TimingClass::Mul)
        );
    }

    #[test]
    fn table2_rows_cover_all_instruction_classes() {
        let lut = DelayLut::from_model(&model());
        let rows = lut.table2_rows();
        assert_eq!(rows.len(), TimingClass::INSTRUCTION_CLASSES.len());
        let mul = rows.iter().find(|r| r.class == TimingClass::Mul).unwrap();
        assert_eq!(mul.stage, Stage::Execute);
        assert_eq!(mul.max_delay_ps.round(), 1899.0);
        let jump = rows.iter().find(|r| r.class == TimingClass::Jump).unwrap();
        assert_eq!(jump.stage, Stage::Address);
    }

    #[test]
    fn guardband_inflates_entries_but_never_exceeds_static_period() {
        let dta = characterization_dta();
        let lut = DelayLut::from_dta(&dta, 8);
        let guarded = lut.with_guardband(0.02);
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                let raw = lut.delay_ps(stage, class);
                let safe = guarded.delay_ps(stage, class);
                assert!(safe >= raw);
                assert!(safe <= lut.static_period_ps() + 1e-9);
                if raw < lut.static_period_ps() / 1.02 {
                    assert!((safe - raw * 1.02).abs() < 1e-6, "{stage}/{class}");
                }
            }
        }
    }

    #[test]
    fn scaling_retargets_every_entry() {
        let lut = DelayLut::from_model(&model());
        let scaled = lut.scaled(1.5);
        assert_eq!(
            scaled.delay_ps(Stage::Execute, TimingClass::Add),
            lut.delay_ps(Stage::Execute, TimingClass::Add) * 1.5
        );
        assert_eq!(scaled.static_period_ps(), lut.static_period_ps() * 1.5);
    }

    #[test]
    fn json_roundtrip_preserves_the_table() {
        let lut = DelayLut::from_model(&model());
        let json = lut.to_json().unwrap();
        let back = DelayLut::from_json(&json).unwrap();
        assert_eq!(back, lut);
        assert!(DelayLut::from_json("not json").is_err());
    }

    #[test]
    fn stage_worst_reflects_address_stage_jump_path() {
        let lut = DelayLut::from_model(&model());
        let adr_worst = lut.stage_worst_ps(Stage::Address);
        assert_eq!(adr_worst, lut.delay_ps(Stage::Address, TimingClass::Jump));
    }
}
