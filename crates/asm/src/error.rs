use std::fmt;

/// Errors produced while assembling or disassembling PyTFHE binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// The binary length is not a multiple of 16 bytes (128-bit
    /// instructions).
    Misaligned {
        /// Byte length found.
        len: usize,
    },
    /// The binary is empty or missing its header instruction.
    MissingHeader,
    /// The header's gate count disagrees with the instruction stream.
    GateCountMismatch {
        /// Count declared in the header.
        declared: u64,
        /// Gates actually present.
        actual: u64,
    },
    /// An instruction's type nibble or field pattern is invalid.
    BadInstruction {
        /// Index of the offending instruction.
        position: usize,
        /// What was wrong.
        reason: &'static str,
    },
    /// A gate or output referenced an index that was not yet defined.
    DanglingReference {
        /// Index of the offending instruction.
        position: usize,
        /// The index referenced.
        index: u64,
    },
    /// The netlist is too large for this in-memory representation.
    TooLarge,
    /// The netlist rejected reconstruction (should not happen for valid
    /// binaries).
    Netlist(pytfhe_netlist::NetlistError),
    /// Formatting a listing failed (propagated from [`std::fmt::Write`]).
    Format,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::Misaligned { len } => {
                write!(f, "binary length {len} is not a multiple of 16 bytes")
            }
            AsmError::MissingHeader => write!(f, "binary is missing its header instruction"),
            AsmError::GateCountMismatch { declared, actual } => {
                write!(f, "header declares {declared} gates but binary contains {actual}")
            }
            AsmError::BadInstruction { position, reason } => {
                write!(f, "invalid instruction at position {position}: {reason}")
            }
            AsmError::DanglingReference { position, index } => {
                write!(f, "instruction {position} references undefined index {index}")
            }
            AsmError::TooLarge => write!(f, "program too large for in-memory netlist"),
            AsmError::Netlist(e) => write!(f, "netlist reconstruction failed: {e}"),
            AsmError::Format => write!(f, "formatting a listing failed"),
        }
    }
}

impl std::error::Error for AsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AsmError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pytfhe_netlist::NetlistError> for AsmError {
    fn from(e: pytfhe_netlist::NetlistError) -> Self {
        AsmError::Netlist(e)
    }
}

impl From<fmt::Error> for AsmError {
    fn from(_: fmt::Error) -> Self {
        AsmError::Format
    }
}
