use std::fmt;

/// Error type for every fallible operation of the ISA crate.
///
/// Covers instruction decoding, encoding range checks, assembly parsing and
/// program construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IsaError {
    /// A 32-bit word could not be decoded into a supported instruction.
    UnknownEncoding {
        /// The raw instruction word.
        word: u32,
    },
    /// An immediate operand does not fit the field of the target encoding.
    ImmediateOutOfRange {
        /// Mnemonic of the offending instruction.
        mnemonic: &'static str,
        /// The immediate value provided by the caller.
        value: i64,
        /// Number of bits available in the encoding.
        bits: u32,
        /// Whether the field is interpreted as a signed quantity.
        signed: bool,
    },
    /// A register index outside `r0..r31` was requested.
    InvalidRegister {
        /// The offending register index.
        index: u32,
    },
    /// A line of assembly could not be parsed.
    ParseError {
        /// One-based line number in the source text.
        line: usize,
        /// Human readable description of the problem.
        message: String,
    },
    /// A label was defined more than once.
    DuplicateLabel {
        /// Name of the duplicated label.
        label: String,
    },
    /// A branch or jump target is too far away for the offset field.
    BranchOutOfRange {
        /// Source instruction address (bytes).
        from: u32,
        /// Destination address (bytes).
        to: u32,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::UnknownEncoding { word } => {
                write!(f, "unknown instruction encoding {word:#010x}")
            }
            IsaError::ImmediateOutOfRange {
                mnemonic,
                value,
                bits,
                signed,
            } => write!(
                f,
                "immediate {value} does not fit {bits}-bit {} field of {mnemonic}",
                if *signed { "signed" } else { "unsigned" }
            ),
            IsaError::InvalidRegister { index } => {
                write!(f, "register index {index} is outside r0..r31")
            }
            IsaError::ParseError { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            IsaError::DuplicateLabel { label } => write!(f, "duplicate label `{label}`"),
            IsaError::BranchOutOfRange { from, to } => {
                write!(f, "branch from {from:#x} to {to:#x} is out of range")
            }
        }
    }
}

impl std::error::Error for IsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = IsaError::UnknownEncoding { word: 0xdead_beef };
        let text = err.to_string();
        assert!(text.contains("0xdeadbeef"));
        assert!(text.starts_with("unknown"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IsaError>();
    }

    #[test]
    fn immediate_error_mentions_signedness() {
        let err = IsaError::ImmediateOutOfRange {
            mnemonic: "l.addi",
            value: 70000,
            bits: 16,
            signed: true,
        };
        assert!(err.to_string().contains("signed"));
        let err = IsaError::ImmediateOutOfRange {
            mnemonic: "l.andi",
            value: -1,
            bits: 16,
            signed: false,
        };
        assert!(err.to_string().contains("unsigned"));
    }
}
