use std::fmt;

/// Errors reported by the pipeline simulator and the reference interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The program counter left the program image.
    PcOutOfRange {
        /// The offending program counter value (byte address).
        pc: u32,
    },
    /// A data memory access touched an address outside the configured SRAM.
    DataAccessOutOfRange {
        /// The offending byte address.
        address: u32,
        /// Size of the data memory in bytes.
        size: u32,
    },
    /// A load/store address was not aligned to the access width.
    UnalignedAccess {
        /// The offending byte address.
        address: u32,
        /// The access width in bytes.
        width: u32,
    },
    /// The simulation exceeded the configured cycle budget without reaching
    /// the exit marker (`l.nop 1`).
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// The program image does not fit the configured instruction memory.
    ProgramTooLarge {
        /// Number of instructions in the program.
        words: usize,
        /// Instruction memory capacity in words.
        capacity: usize,
    },
    /// A store targeted a read-only MMIO register (timer state, pending
    /// lines). Reported as a structured error, never a panic.
    MmioReadOnly {
        /// Byte address of the read-only register.
        address: u32,
    },
    /// The timer re-entered the interrupt handler in lockstep with its
    /// return: two timer-raised entries in a row at the same saved PC and
    /// timer count with no user instruction retired in between, so the run
    /// would burn its cycle budget without progress (see
    /// [`crate::InterruptController::accept`]).
    InterruptLivelock {
        /// The saved PC both entries would return to.
        pc: u32,
        /// The cycle of the entry that repeated the previous one.
        cycle: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::PcOutOfRange { pc } => {
                write!(f, "program counter {pc:#010x} is outside the program image")
            }
            PipelineError::DataAccessOutOfRange { address, size } => write!(
                f,
                "data access at {address:#010x} is outside the {size}-byte data memory"
            ),
            PipelineError::UnalignedAccess { address, width } => {
                write!(f, "unaligned {width}-byte access at {address:#010x}")
            }
            PipelineError::CycleLimitExceeded { limit } => {
                write!(f, "cycle limit of {limit} cycles exceeded before program exit")
            }
            PipelineError::ProgramTooLarge { words, capacity } => write!(
                f,
                "program of {words} instructions exceeds instruction memory capacity of {capacity} words"
            ),
            PipelineError::MmioReadOnly { address } => {
                write!(f, "store to read-only MMIO register at {address:#010x}")
            }
            PipelineError::InterruptLivelock { pc, cycle } => write!(
                f,
                "interrupt livelock at cycle {cycle}: the timer re-entered the handler at \
                 saved PC {pc:#010x} with no user instruction retired since the previous entry"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PipelineError>();
        let e = PipelineError::CycleLimitExceeded { limit: 10 };
        assert!(e.to_string().contains("10"));
    }
}
