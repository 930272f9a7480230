//! Interrupt-aware timing: replaying the digest event stream into per-cycle
//! interrupt phases, and the exception-entry delay surge.
//!
//! The pipeline simulator records asynchronous events (interrupt entries and
//! returns, timer fires, MMIO touches) into the [`TimingDigest`] event stream
//! (see `idca-pipeline`). During live observation every [`CycleRecord`]
//! carries its interrupt phase directly; replay paths instead rebuild the
//! phase of every cycle from the event stream with an [`IrqTimeline`], so
//! digest replay and banked replay classify exactly the same cycles as
//! *entry* / *handler* cycles as the live run did — without re-simulating.
//!
//! [`TimingDigest`]: idca_pipeline::TimingDigest
//! [`CycleRecord`]: idca_pipeline::CycleRecord
//!
//! # The entry surge
//!
//! Exception entry is the one place the paper's dynamic-clock-adjustment
//! story meets truly asynchronous behaviour: the redirect to the vector,
//! the pipeline flush and the first handler fetches excite long control
//! paths *on top of* whatever the interrupted instruction stream was doing,
//! and the instruction-based delay predictor has had no chance to see the
//! handler's first cycles. We model this as a multiplicative delay surge of
//! factor `1 + surge` applied uniformly to every stage during entry cycles
//! ([`surged`], [`CycleLanes::apply_surge`]), composing multiplicatively
//! with any active fault factors — exactly like a short,
//! perfectly-correlated voltage droop pinned to the entry window. Every
//! engine composes the two through one [`Perturbation`].

use idca_pipeline::{DigestEvent, DigestEventKind, IrqPhase, Stage};

use crate::model::CycleTiming;
use crate::{CycleLanes, FaultPlan, Ps};

/// One interrupt episode reconstructed from the digest event stream: the
/// entry window `[entry, entry + penalty)` during which the pipeline drains
/// bubbles into the vector, followed by the handler span
/// `[entry + penalty, ret]` (closed at the cycle the `l.rfe` retired, which
/// the live run also classifies as a handler cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IrqSpan {
    entry: u64,
    handler_start: u64,
    /// First cycle *after* the handler span; `u64::MAX` while unterminated.
    end: u64,
}

/// The per-cycle interrupt phases of one run, rebuilt from the digest event
/// stream so replay never has to re-simulate.
///
/// Built with [`IrqTimeline::from_events`] from the `IrqEntry` / `IrqReturn`
/// events of a [`TimingDigest`](idca_pipeline::TimingDigest) plus the entry
/// penalty of the interrupt spec that produced it. Query it either in cycle
/// order through an [`IrqCursor`] (O(1) amortized, used by the replay hot
/// loops) or at random via [`IrqTimeline::phase_at`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrqTimeline {
    spans: Vec<IrqSpan>,
}

impl IrqTimeline {
    /// Rebuild the timeline from a digest event stream.
    ///
    /// `penalty` is the modeled exception-entry flush penalty in cycles (the
    /// `penalty=` field of the interrupt spec): each `IrqEntry` event at
    /// cycle `e` opens an entry window of exactly `penalty` cycles. An
    /// `IrqReturn` at cycle `r` closes the enclosing handler span after
    /// cycle `r`. Timer and MMIO events are ignored — they carry no phase.
    #[must_use]
    pub fn from_events(events: &[DigestEvent], penalty: u32) -> Self {
        let mut spans: Vec<IrqSpan> = Vec::new();
        for event in events {
            match event.kind {
                DigestEventKind::IrqEntry { .. } => {
                    spans.push(IrqSpan {
                        entry: event.cycle,
                        handler_start: event.cycle + u64::from(penalty),
                        end: u64::MAX,
                    });
                }
                DigestEventKind::IrqReturn => {
                    if let Some(open) = spans.iter_mut().rev().find(|s| s.end == u64::MAX) {
                        open.end = event.cycle + 1;
                    }
                }
                DigestEventKind::TimerFire
                | DigestEventKind::MmioLoad { .. }
                | DigestEventKind::MmioStore { .. } => {}
            }
        }
        Self { spans }
    }

    /// Number of interrupt entries on the timeline.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.spans.len() as u64
    }

    /// Total cycles spent in entry or handler phase over a run of
    /// `total_cycles` cycles. Unterminated spans (the run hit its cycle
    /// limit inside a handler) are clamped to the end of the run.
    #[must_use]
    pub fn handler_cycles(&self, total_cycles: u64) -> u64 {
        self.spans
            .iter()
            .map(|s| {
                s.end
                    .min(total_cycles)
                    .saturating_sub(s.entry.min(total_cycles))
            })
            .sum()
    }

    /// Phase of one cycle, by binary search. Replay hot loops should prefer
    /// an [`IrqCursor`].
    #[must_use]
    pub fn phase_at(&self, cycle: u64) -> IrqPhase {
        let idx = self.spans.partition_point(|s| s.entry <= cycle);
        if idx == 0 {
            return IrqPhase::None;
        }
        span_phase(&self.spans[idx - 1], cycle)
    }

    /// A cycle-ordered cursor over the timeline.
    #[must_use]
    pub fn cursor(&self) -> IrqCursor<'_> {
        IrqCursor {
            timeline: self,
            idx: 0,
        }
    }
}

#[inline]
fn span_phase(span: &IrqSpan, cycle: u64) -> IrqPhase {
    if cycle < span.entry || cycle >= span.end {
        IrqPhase::None
    } else if cycle < span.handler_start {
        IrqPhase::Entry
    } else {
        IrqPhase::Handler
    }
}

/// Monotone cursor over an [`IrqTimeline`]: queried with nondecreasing
/// cycles it classifies each cycle in O(1) amortized, matching the replay
/// loops' forward-only traversal of the digest.
#[derive(Debug, Clone)]
pub struct IrqCursor<'a> {
    timeline: &'a IrqTimeline,
    idx: usize,
}

impl IrqCursor<'_> {
    /// Phase of `cycle`. Cycles must be queried in nondecreasing order.
    #[inline]
    pub fn phase(&mut self, cycle: u64) -> IrqPhase {
        let spans = &self.timeline.spans;
        while self.idx + 1 < spans.len() && spans[self.idx + 1].entry <= cycle {
            self.idx += 1;
        }
        match spans.get(self.idx) {
            Some(span) => span_phase(span, cycle),
            None => IrqPhase::None,
        }
    }
}

/// The per-cycle timing perturbation of one scenario: the fault plan's
/// stage factors on every cycle, then the entry surge on exception-entry
/// cycles.
///
/// This is the one place that order is written down. Float multiplication
/// is not associative, so surging before faulting would change the last
/// bits of a delay. The scalar observers (live and replay) perturb through
/// [`Perturbation::timing`] and the corner-batched sweep through
/// [`Perturbation::lanes`], so every engine composes the two identically.
/// The default — no plan, surge factor `1.0` — leaves every timing
/// untouched.
#[derive(Debug, Clone, Copy)]
pub struct Perturbation<'a> {
    /// The fault plan whose stage factors apply on every cycle (`None`: no
    /// faults).
    pub faults: Option<&'a FaultPlan>,
    /// The uniform delay factor of exception-entry cycles (`1 + surge`;
    /// `1.0`: no surge).
    pub surge_factor: f64,
}

impl Default for Perturbation<'_> {
    fn default() -> Self {
        Perturbation {
            faults: None,
            surge_factor: 1.0,
        }
    }
}

impl Perturbation<'_> {
    /// Perturbs one cycle's scalar timing: the fault factors, then — when
    /// `entry` — the entry surge.
    #[inline]
    #[must_use]
    pub fn timing(&self, cycle: u64, timing: CycleTiming, entry: bool) -> CycleTiming {
        let timing = match self.faults {
            Some(plan) => plan.faulted(cycle, &timing),
            None => timing,
        };
        if entry {
            surged(&timing, self.surge_factor)
        } else {
            timing
        }
    }

    /// The lane form of [`Perturbation::timing`]: perturbs every corner of
    /// one evaluated cycle in place, in the same order, so lane `i` stays
    /// bit-identical to perturbing corner `i`'s [`CycleTiming`].
    #[inline]
    pub fn lanes(&self, cycle: u64, lanes: &mut CycleLanes, entry: bool) {
        if let Some(plan) = self.faults {
            lanes.apply_fault(plan, cycle);
        }
        if entry {
            lanes.apply_surge(self.surge_factor);
        }
    }
}

/// Apply the exception-entry delay surge to one cycle's timing: every stage
/// delay scales by `factor` and the maximum/limiting stage are refolded.
///
/// Mirrors [`FaultPlan::faulted`] exactly — the refold is the same
/// strict-greater scan — so the surge composes multiplicatively with fault
/// factors, in the order [`Perturbation`] fixes.
#[must_use]
pub fn surged(timing: &CycleTiming, factor: f64) -> CycleTiming {
    if factor == 1.0 {
        return *timing;
    }
    let mut delays = [0.0; Stage::COUNT];
    let mut max_delay: Ps = 0.0;
    let mut limiting = Stage::Execute;
    for stage in Stage::ALL {
        let delay = timing.stage_delay_ps[stage.index()] * factor;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cycle: u64) -> DigestEvent {
        DigestEvent {
            cycle,
            kind: DigestEventKind::IrqEntry { line: 0 },
        }
    }

    fn ret(cycle: u64) -> DigestEvent {
        DigestEvent {
            cycle,
            kind: DigestEventKind::IrqReturn,
        }
    }

    #[test]
    fn timeline_classifies_entry_handler_and_steady_state() {
        // Entry at 10 with penalty 4: entry phase 10..14, handler 14..=20.
        let events = vec![
            DigestEvent {
                cycle: 3,
                kind: DigestEventKind::TimerFire,
            },
            entry(10),
            DigestEvent {
                cycle: 16,
                kind: DigestEventKind::MmioLoad {
                    address: 0xFFFF_0008,
                },
            },
            ret(20),
            entry(30),
        ];
        let timeline = IrqTimeline::from_events(&events, 4);
        assert_eq!(timeline.entries(), 2);

        let mut cursor = timeline.cursor();
        let expect = |cycle: u64| match cycle {
            10..=13 | 30..=33 => IrqPhase::Entry,
            14..=20 | 34.. => IrqPhase::Handler,
            _ => IrqPhase::None,
        };
        for cycle in 0..40 {
            assert_eq!(cursor.phase(cycle), expect(cycle), "cursor at {cycle}");
            assert_eq!(timeline.phase_at(cycle), expect(cycle), "phase_at {cycle}");
        }

        // Terminated span contributes 11 + entry window 4 = 11 cycles from
        // entry 10 through return 20 inclusive; the unterminated span at 30
        // clamps to the run length.
        assert_eq!(timeline.handler_cycles(40), (21 - 10) + (40 - 30));
        assert_eq!(timeline.handler_cycles(12), 2);
        assert_eq!(timeline.handler_cycles(5), 0);
    }

    #[test]
    fn surge_refolds_max_and_limiting_stage() {
        let timing = CycleTiming {
            stage_delay_ps: [100.0, 900.0, 300.0, 800.0, 500.0, 200.0],
            max_delay_ps: 900.0,
            limiting_stage: Stage::Fetch,
        };
        let surged_timing = surged(&timing, 1.25);
        assert_eq!(surged_timing.max_delay_ps, 900.0 * 1.25);
        assert_eq!(surged_timing.limiting_stage, Stage::Fetch);
        for stage in Stage::ALL {
            assert_eq!(
                surged_timing.stage_delay_ps[stage.index()].to_bits(),
                (timing.stage_delay_ps[stage.index()] * 1.25).to_bits()
            );
        }
        // factor == 1.0 is a bit-exact no-op.
        assert_eq!(surged(&timing, 1.0), timing);
    }

    #[test]
    fn surge_composes_with_fault_factors_faults_first() {
        let timing = CycleTiming {
            stage_delay_ps: [640.0, 1280.0, 320.0, 1600.0, 960.0, 480.0],
            max_delay_ps: 1600.0,
            limiting_stage: Stage::Execute,
        };
        let spec = crate::FaultSpec::parse("seed=9,droop-rate=1.0,droop-mag=0.3").unwrap();
        let plan = crate::FaultPlan::new(&spec);
        let cycle = 17;
        // The canonical composition every engine uses: faults first, then
        // the surge. Pin the result against the element-wise expectation.
        let composed = surged(&plan.faulted(cycle, &timing), 1.25);
        let factors = plan.stage_factors(cycle);
        assert!(factors.iter().any(|&f| f != 1.0), "droop must be active");
        for stage in Stage::ALL {
            let expected = (timing.stage_delay_ps[stage.index()] * factors[stage.index()]) * 1.25;
            assert_eq!(
                composed.stage_delay_ps[stage.index()].to_bits(),
                expected.to_bits()
            );
        }
        assert!(composed.max_delay_ps >= 1600.0 * 1.25);
    }
}
