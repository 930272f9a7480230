//! Per-cycle activity descriptors recorded by the pipeline simulator.
//!
//! These descriptors are the interface between the micro-architectural
//! simulation and the timing model: they carry what the paper's dynamic
//! timing analysis reads of a gate-level simulation — which instruction is
//! in flight in which stage, and which data-dependent conditions it excites
//! (operand values, carry chains, multiplier activity, the data-memory
//! address, forwarding, a resolved branch, the load and writeback values).
//! Nothing else is recorded: a [`CycleRecord`] carries no field that the
//! digest capture or the live oracles do not read.

use crate::Stage;
use idca_isa::{Insn, TimingClass};
use serde::{Deserialize, Serialize};

/// Which part of an interrupt episode a cycle belongs to.
///
/// `Entry` covers the accept cycle and the modeled entry-flush penalty
/// cycles; `Handler` covers every subsequent cycle up to and including the
/// cycle in which `l.rfe` resolves. The same classification is recomputed
/// from the digest event stream during replay
/// (`idca-timing`'s `IrqTimeline`), and the differential tests pin the two
/// derivations bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IrqPhase {
    /// Ordinary user-code cycle.
    #[default]
    None,
    /// Exception-entry flush in progress (accept cycle + penalty cycles).
    Entry,
    /// Handler code in flight (after entry, through the `l.rfe` redirect).
    Handler,
}

/// One entry of the digest's asynchronous-event stream (codec v3).
///
/// Events carry everything replay needs to reconstruct interrupt phases and
/// peripheral activity without re-simulating: entries/returns rebuild the
/// [`IrqPhase`] timeline, timer fires and MMIO touches pin peripheral
/// traffic. Events are recorded in cycle order; within a cycle the order is
/// timer fire → MMIO touches → interrupt return → interrupt entry (the
/// pipeline's stage-evaluation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigestEvent {
    /// Cycle index the event occurred in.
    pub cycle: u64,
    /// What happened.
    pub kind: DigestEventKind,
}

/// The kind of an asynchronous [`DigestEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DigestEventKind {
    /// An interrupt was accepted and exception entry began.
    IrqEntry {
        /// Interrupt line that was taken (lowest pending unmasked line).
        line: u8,
    },
    /// `l.rfe` resolved and the handler returned to the saved PC.
    IrqReturn,
    /// The cycle-driven timer wrapped and raised its interrupt line.
    TimerFire,
    /// A load hit the MMIO window.
    MmioLoad {
        /// Register byte address that was read.
        address: u32,
    },
    /// A store hit the MMIO window.
    MmioStore {
        /// Register byte address that was written.
        address: u32,
    },
}

/// The content of one pipeline stage during one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Occupant {
    /// A real instruction is in flight.
    Insn {
        /// Byte address of the instruction.
        pc: u32,
        /// The instruction itself.
        insn: Insn,
    },
    /// No instruction (bubble).
    Bubble,
}

impl Occupant {
    /// The timing class of the occupant ([`TimingClass::Bubble`] for bubbles).
    #[must_use]
    pub fn timing_class(&self) -> TimingClass {
        match self {
            Occupant::Insn { insn, .. } => insn.timing_class(),
            Occupant::Bubble => TimingClass::Bubble,
        }
    }

    /// The instruction, if the stage holds one.
    #[must_use]
    pub fn insn(&self) -> Option<&Insn> {
        match self {
            Occupant::Insn { insn, .. } => Some(insn),
            Occupant::Bubble => None,
        }
    }
}

/// Operand activity of the instruction occupying the execute stage: what
/// the excitation model and the activity flags read of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecActivity {
    /// Resolved first operand (after forwarding).
    pub op_a: u32,
    /// Resolved second operand (after forwarding / immediate selection).
    pub op_b: u32,
    /// Primary result produced in the execute stage.
    pub result: u32,
    /// Length of the longest carry-propagation run in the main adder
    /// (0 when the adder is idle). Drives the data-dependent delay of
    /// add/sub/compare/memory-address paths.
    pub carry_chain: u8,
    /// `true` when the shielded multiplier is active this cycle.
    pub mul_active: bool,
    /// Significant operand width seen by the multiplier (max of both
    /// operands, in bits); 0 when the multiplier is idle.
    pub mul_bits: u8,
    /// Shift amount applied by the barrel shifter (0 when idle).
    pub shift_amount: u8,
    /// At least one operand came through the forwarding network.
    pub forwarded: bool,
    /// `Some(taken)` when a branch or jump resolved this cycle: in decode
    /// for PC-relative transfers (reported when the instruction reaches
    /// execute), in execute for register jumps and `l.rfe`.
    pub branch_taken: Option<bool>,
    /// Byte address of the data-memory request issued this cycle, if any.
    pub mem_address: Option<u32>,
}

/// Everything the simulator observed during one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleRecord {
    /// Cycle index, starting at 0.
    pub cycle: u64,
    /// Stage occupancy in pipeline order (`[Stage::Address]` ... `[Stage::Writeback]`).
    pub stages: [Occupant; Stage::COUNT],
    /// Execute-stage activity, present exactly when the execute stage holds
    /// an instruction.
    pub exec: Option<ExecActivity>,
    /// Load data returned by the control stage this cycle, if any.
    pub mem_return: Option<u32>,
    /// Value written to the register file this cycle, if any.
    pub writeback: Option<u32>,
    /// Instruction-memory address presented by the address stage.
    pub fetch_address: u32,
    /// `true` when the fetch address was redirected by a branch or jump
    /// resolved during this cycle.
    pub fetch_redirected: bool,
    /// Interrupt phase of this cycle (ground truth for the replay-derived
    /// timeline; `IrqPhase::None` for interrupt-free runs).
    #[serde(default)]
    pub irq_phase: IrqPhase,
}

impl CycleRecord {
    /// The occupant of a given stage.
    #[must_use]
    pub fn occupant(&self, stage: Stage) -> &Occupant {
        &self.stages[stage.index()]
    }

    /// The timing class present in a given stage.
    #[must_use]
    pub fn timing_class(&self, stage: Stage) -> TimingClass {
        self.occupant(stage).timing_class()
    }
}

/// The boolean activity facts of one cycle, packed into a byte — everything
/// the occupancy/power statistics ([`crate::TraceStats`]) need beyond the
/// per-stage timing classes. Part of the timing digest
/// ([`crate::DigestCycle`]), so digest replay reproduces the same activity
/// accounting as the direct simulation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CycleRecordFlags(u8);

impl CycleRecordFlags {
    /// The execute stage holds a real instruction.
    pub const EXECUTE_INSN: u8 = 1 << 0;
    /// A data-memory request was issued this cycle.
    pub const MEM_ACCESS: u8 = 1 << 1;
    /// The shielded multiplier was active this cycle.
    pub const MUL_ACTIVE: u8 = 1 << 2;
    /// A branch/jump resolved this cycle.
    pub const BRANCH: u8 = 1 << 3;
    /// The resolved branch/jump was taken.
    pub const BRANCH_TAKEN: u8 = 1 << 4;
    /// At least one execute operand was forwarded.
    pub const FORWARDED: u8 = 1 << 5;

    /// The flags of one cycle, from its execute-stage activity (`None`
    /// when the execute stage holds a bubble).
    #[must_use]
    pub fn of_exec(exec: Option<&ExecActivity>) -> CycleRecordFlags {
        let Some(exec) = exec else {
            return CycleRecordFlags(0);
        };
        let mut bits = Self::EXECUTE_INSN;
        if exec.mem_address.is_some() {
            bits |= Self::MEM_ACCESS;
        }
        if exec.mul_active {
            bits |= Self::MUL_ACTIVE;
        }
        if let Some(taken) = exec.branch_taken {
            bits |= Self::BRANCH;
            if taken {
                bits |= Self::BRANCH_TAKEN;
            }
        }
        if exec.forwarded {
            bits |= Self::FORWARDED;
        }
        CycleRecordFlags(bits)
    }

    /// The raw bit pattern.
    #[must_use]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs flags from a raw bit pattern (digest deserialization).
    /// Bits outside the defined flag set are rejected so a corrupt byte
    /// cannot smuggle undefined activity into the power accounting.
    #[must_use]
    pub fn from_bits(bits: u8) -> Option<CycleRecordFlags> {
        const ALL: u8 = CycleRecordFlags::EXECUTE_INSN
            | CycleRecordFlags::MEM_ACCESS
            | CycleRecordFlags::MUL_ACTIVE
            | CycleRecordFlags::BRANCH
            | CycleRecordFlags::BRANCH_TAKEN
            | CycleRecordFlags::FORWARDED;
        (bits & !ALL == 0).then_some(CycleRecordFlags(bits))
    }

    /// Tests one of the flag constants.
    #[must_use]
    pub fn contains(self, flag: u8) -> bool {
        self.0 & flag != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idca_isa::Reg;

    #[test]
    fn occupant_timing_class_for_bubble_and_insn() {
        let bubble = Occupant::Bubble;
        assert_eq!(bubble.timing_class(), TimingClass::Bubble);
        assert_eq!(bubble.insn(), None);
        let add = Insn::add(Reg::r(1), Reg::r(2), Reg::r(3));
        let insn = Occupant::Insn { pc: 0, insn: add };
        assert_eq!(insn.timing_class(), TimingClass::Add);
        assert_eq!(insn.insn(), Some(&add));
    }

    #[test]
    fn cycle_record_stage_lookup() {
        let record = CycleRecord {
            cycle: 7,
            stages: [Occupant::Bubble; Stage::COUNT],
            exec: None,
            mem_return: None,
            writeback: None,
            fetch_address: 0x40,
            fetch_redirected: false,
            irq_phase: IrqPhase::None,
        };
        assert_eq!(record.timing_class(Stage::Execute), TimingClass::Bubble);
        assert_eq!(
            record.occupant(Stage::Address).timing_class(),
            TimingClass::Bubble
        );
    }
}
