use std::fmt;

/// Errors produced while executing a PyTFHE program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The number of provided input values does not match the program.
    InputCountMismatch {
        /// Inputs the program declares.
        expected: usize,
        /// Inputs provided.
        got: usize,
    },
    /// An input ciphertext is not of the evaluation key's LWE dimension.
    InputDimensionMismatch {
        /// Position of the offending input.
        index: usize,
        /// The key's LWE dimension.
        expected: usize,
        /// The input's dimension.
        got: usize,
    },
    /// The program failed validation before execution.
    InvalidProgram(pytfhe_netlist::NetlistError),
    /// A worker thread panicked (encrypted evaluation bugs surface here
    /// rather than poisoning results).
    WorkerPanicked,
    /// A chunk of a wave kept failing until its retry budget ran out.
    Exhausted {
        /// Wave the chunk belongs to.
        wave: usize,
        /// Index of the chunk within the wave's dispatch.
        chunk: u32,
        /// Attempts made (including the first).
        attempts: u32,
    },
    /// Every worker has been evicted; no one is left to run the wave.
    NoWorkers {
        /// Wave that could not be staffed.
        wave: usize,
    },
    /// A wave exceeded its wall-clock deadline across all retry rounds.
    WaveDeadlineExceeded {
        /// The offending wave.
        wave: usize,
    },
    /// A checkpoint could not be decoded or does not match the program.
    BadCheckpoint {
        /// What was wrong.
        reason: &'static str,
    },
    /// Persisting or reading a checkpoint failed at the I/O layer.
    CheckpointIo(String),
    /// A serialized kernel-graph plan could not be decoded, or a plan was
    /// replayed against a program it was not captured from.
    BadPlan {
        /// What was wrong.
        reason: &'static str,
    },
    /// The wire envelope around a persisted artifact failed validation
    /// (bad magic, checksum mismatch, version skew, torn framing).
    Wire(pytfhe_wire::WireError),
    /// A durable-store operation failed at the filesystem layer.
    StoreIo(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InputCountMismatch { expected, got } => {
                write!(f, "program expects {expected} inputs, got {got}")
            }
            ExecError::InputDimensionMismatch { index, expected, got } => {
                write!(f, "input {index} has LWE dimension {got}, the key expects {expected}")
            }
            ExecError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            ExecError::WorkerPanicked => write!(f, "a worker thread panicked"),
            ExecError::Exhausted { wave, chunk, attempts } => {
                write!(f, "chunk {chunk} of wave {wave} failed all {attempts} attempts")
            }
            ExecError::NoWorkers { wave } => {
                write!(f, "all workers evicted before wave {wave} completed")
            }
            ExecError::WaveDeadlineExceeded { wave } => {
                write!(f, "wave {wave} exceeded its deadline")
            }
            ExecError::BadCheckpoint { reason } => write!(f, "bad checkpoint: {reason}"),
            ExecError::CheckpointIo(e) => write!(f, "checkpoint i/o failed: {e}"),
            ExecError::BadPlan { reason } => write!(f, "bad kernel plan: {reason}"),
            ExecError::Wire(e) => write!(f, "wire envelope rejected: {e}"),
            ExecError::StoreIo(e) => write!(f, "durable store i/o failed: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::InvalidProgram(e) => Some(e),
            ExecError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pytfhe_netlist::NetlistError> for ExecError {
    fn from(e: pytfhe_netlist::NetlistError) -> Self {
        ExecError::InvalidProgram(e)
    }
}

impl From<pytfhe_wire::WireError> for ExecError {
    fn from(e: pytfhe_wire::WireError) -> Self {
        ExecError::Wire(e)
    }
}
