use crate::{CycleObserver, CycleRecord, CycleRecordFlags, RunSummary, Stage};
use idca_isa::TimingClass;
use serde::{Deserialize, Serialize};

/// The full per-cycle record of one program execution on the pipeline.
///
/// A `PipelineTrace` is the software equivalent of the paper's gate-level
/// simulation dump: it contains, for every clock cycle, the instruction in
/// flight in every stage plus the activity descriptors needed to derive
/// dynamic path delays.
///
/// Materialization is deliberately *opt-in*: the trace is itself a
/// [`CycleObserver`], so callers that need the full record sequence (tests,
/// serialization, file-based replay) pass an empty trace to
/// [`crate::Simulator::run_observed`], while the hot analysis path composes
/// streaming observers instead and never allocates per-cycle storage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineTrace {
    cycles: Vec<CycleRecord>,
    retired: u64,
}

impl PipelineTrace {
    /// Creates a trace from raw parts (used by the simulator).
    #[must_use]
    pub fn from_parts(cycles: Vec<CycleRecord>, retired: u64) -> Self {
        PipelineTrace { cycles, retired }
    }

    /// Number of simulated cycles.
    #[must_use]
    pub fn cycle_count(&self) -> u64 {
        self.cycles.len() as u64
    }

    /// Number of architecturally retired instructions.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles.is_empty() {
            0.0
        } else {
            self.retired as f64 / self.cycles.len() as f64
        }
    }

    /// The per-cycle records in execution order.
    #[must_use]
    pub fn cycles(&self) -> &[CycleRecord] {
        &self.cycles
    }

    /// Iterates over the per-cycle records.
    pub fn iter(&self) -> std::slice::Iter<'_, CycleRecord> {
        self.cycles.iter()
    }

    /// Aggregates occupancy statistics over the whole trace.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::default();
        for record in &self.cycles {
            stats.observe(record);
        }
        stats.retired = self.retired;
        stats
    }
}

impl CycleObserver for PipelineTrace {
    fn observe_cycle(&mut self, record: &CycleRecord) {
        self.cycles.push(record.clone());
    }

    fn finish(&mut self, summary: &RunSummary) {
        self.retired = summary.retired;
    }
}

impl<'a> IntoIterator for &'a PipelineTrace {
    type Item = &'a CycleRecord;
    type IntoIter = std::slice::Iter<'a, CycleRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.cycles.iter()
    }
}

/// Aggregate statistics of a [`PipelineTrace`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Architecturally retired instructions.
    pub retired: u64,
    /// Cycles in which the execute stage held each timing class
    /// (indexed by [`TimingClass::index`]).
    pub execute_class_counts: [u64; TimingClass::COUNT],
    /// Cycles in which the execute stage held a bubble.
    pub execute_bubbles: u64,
    /// Data-memory accesses issued.
    pub memory_accesses: u64,
    /// Branch/jump instructions executed.
    pub branches: u64,
    /// Taken branches/jumps.
    pub taken_branches: u64,
    /// Multiplications executed.
    pub multiplications: u64,
    /// Cycles in which at least one operand was forwarded.
    pub forwarded_cycles: u64,
}

impl TraceStats {
    /// Accumulates one cycle record into the statistics, through the same
    /// counting rule as [`TraceStats::observe_digest`]: the record's
    /// [`CycleRecordFlags`] encode exactly the facts counted here, so a
    /// replayed digest yields the identical statistics.
    pub fn observe(&mut self, record: &CycleRecord) {
        self.count(
            record.timing_class(Stage::Execute),
            CycleRecordFlags::of_exec(record.exec.as_ref()),
        );
    }

    /// Accumulates one digest cycle into the statistics — the digest-replay
    /// counterpart of [`TraceStats::observe`].
    pub fn observe_digest(&mut self, digest_cycle: &crate::DigestCycle) {
        self.count(
            digest_cycle.classes[Stage::Execute.index()],
            digest_cycle.flags,
        );
    }

    /// The one counting rule: the execute-stage class and the activity
    /// flags of a cycle.
    fn count(&mut self, execute_class: TimingClass, flags: CycleRecordFlags) {
        use CycleRecordFlags as F;
        self.cycles += 1;
        self.execute_class_counts[execute_class.index()] += 1;
        if !flags.contains(F::EXECUTE_INSN) {
            self.execute_bubbles += 1;
        }
        if flags.contains(F::MEM_ACCESS) {
            self.memory_accesses += 1;
        }
        if flags.contains(F::BRANCH) {
            self.branches += 1;
            if flags.contains(F::BRANCH_TAKEN) {
                self.taken_branches += 1;
            }
        }
        if flags.contains(F::MUL_ACTIVE) {
            self.multiplications += 1;
        }
        if flags.contains(F::FORWARDED) {
            self.forwarded_cycles += 1;
        }
    }

    /// Number of execute-stage cycles occupied by a given timing class.
    #[must_use]
    pub fn class_count(&self, class: TimingClass) -> u64 {
        self.execute_class_counts[class.index()]
    }

    /// Fraction of cycles whose execute stage held a real instruction.
    #[must_use]
    pub fn execute_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            1.0 - self.execute_bubbles as f64 / self.cycles as f64
        }
    }
}

impl CycleObserver for TraceStats {
    fn observe_cycle(&mut self, record: &CycleRecord) {
        self.observe(record);
    }

    fn finish(&mut self, summary: &RunSummary) {
        self.retired = summary.retired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Occupant;

    fn empty_record(cycle: u64) -> CycleRecord {
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
    fn empty_trace_has_zero_ipc() {
        let trace = PipelineTrace::from_parts(vec![], 0);
        assert_eq!(trace.ipc(), 0.0);
        assert_eq!(trace.cycle_count(), 0);
    }

    #[test]
    fn stats_count_bubbles() {
        let trace = PipelineTrace::from_parts(vec![empty_record(0), empty_record(1)], 0);
        let stats = trace.stats();
        assert_eq!(stats.cycles, 2);
        assert_eq!(stats.execute_bubbles, 2);
        assert_eq!(stats.class_count(TimingClass::Bubble), 2);
        assert_eq!(stats.execute_occupancy(), 0.0);
    }
}
