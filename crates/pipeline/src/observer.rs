//! Streaming cycle observers.
//!
//! The paper's tool flow is a chain of per-cycle analyses — gate-level-style
//! trace, dynamic timing analysis, clock-policy evaluation, power — and every
//! one of them only ever needs the *current* cycle. A [`CycleObserver`]
//! receives each [`CycleRecord`] as the simulator produces it
//! ([`crate::Simulator::run_observed`]), so a workload is simulated once and
//! all downstream analyses run in the same pass, with no full-trace
//! materialization on the hot path. Materializing a [`crate::PipelineTrace`]
//! is just another observer (used by tests and serialization).

use crate::{CycleRecord, DigestEvent, DigestObserver};

/// Run totals handed to every observer when the simulation finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Number of simulated cycles (equals the number of observed records).
    pub cycles: u64,
    /// Architecturally retired instructions.
    pub retired: u64,
}

/// A streaming consumer of per-cycle pipeline records.
///
/// Observers are driven by [`crate::Simulator::run_observed`]: one
/// [`CycleObserver::observe_cycle`] call per simulated cycle, in execution
/// order, followed by exactly one [`CycleObserver::finish`] call carrying
/// the run totals.
pub trait CycleObserver {
    /// Consumes the record of one simulated cycle.
    fn observe_cycle(&mut self, record: &CycleRecord);

    /// Consumes one asynchronous event (interrupt entry/return, timer
    /// fire, MMIO touch). Delivered after the [`CycleObserver::observe_cycle`]
    /// call of the cycle the event occurred in, in within-cycle order.
    /// Interrupt-free runs never call this; the default ignores events.
    fn observe_event(&mut self, event: &DigestEvent) {
        let _ = event;
    }

    /// Called once after the last cycle with the run totals.
    fn finish(&mut self, summary: &RunSummary) {
        let _ = summary;
    }

    /// Internal fast-path hook: the hinted [`DigestObserver`] behind this
    /// observer, if there is one. When a hinted digest capture is the *only*
    /// observer of a predecoded run, the simulator folds hazard-free
    /// basic-block burst cycles straight into the digest without
    /// materializing a [`CycleRecord`] per cycle. Capture through either
    /// path is bit-identical (pinned by the digest and differential tests).
    /// Adapters that filter or reorder cycles must keep the default `None`
    /// so they always see the full record stream.
    #[doc(hidden)]
    fn as_hinted_digest(&mut self) -> Option<&mut DigestObserver> {
        None
    }
}

/// Forwarding impl so `&mut O` can be composed into observer slices.
impl<O: CycleObserver + ?Sized> CycleObserver for &mut O {
    fn observe_cycle(&mut self, record: &CycleRecord) {
        (**self).observe_cycle(record);
    }

    fn observe_event(&mut self, event: &DigestEvent) {
        (**self).observe_event(event);
    }

    fn finish(&mut self, summary: &RunSummary) {
        (**self).finish(summary);
    }

    fn as_hinted_digest(&mut self) -> Option<&mut DigestObserver> {
        (**self).as_hinted_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Occupant, Stage};

    #[derive(Default)]
    struct Counting {
        observed: u64,
        finished: Option<RunSummary>,
    }

    impl CycleObserver for Counting {
        fn observe_cycle(&mut self, _record: &CycleRecord) {
            self.observed += 1;
        }

        fn finish(&mut self, summary: &RunSummary) {
            self.finished = Some(*summary);
        }
    }

    fn record(cycle: u64) -> CycleRecord {
        CycleRecord {
            cycle,
            stages: [Occupant::Bubble; Stage::COUNT],
            exec: None,
            mem_return: None,
            writeback: None,
            fetch_address: 0,
            fetch_redirected: false,
            irq_phase: crate::IrqPhase::None,
        }
    }

    #[test]
    fn mut_reference_forwards() {
        let mut counting = Counting::default();
        {
            let as_ref = &mut counting;
            as_ref.observe_cycle(&record(0));
            as_ref.finish(&RunSummary {
                cycles: 1,
                retired: 0,
            });
        }
        assert_eq!(counting.observed, 1);
        assert!(counting.finished.is_some());
    }
}
