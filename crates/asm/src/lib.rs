//! The PyTFHE binary format — 128-bit instructions encoding a TFHE
//! program for fast DAG traversal (Section IV-C and Figure 5 of the
//! paper).
//!
//! Each instruction packs two 62-bit fields and a 4-bit type nibble:
//!
//! ```text
//! | 127 .. 66 (62b) | 65 .. 4 (62b)     | 3..0 |
//! | 0               | total # of gates  | 0x0  |  header
//! | all-ones        | assigned index    | 0xF  |  input
//! | input-0 index   | input-1 index     | type |  gate
//! | all-ones        | output gate index | 0x3  |  output
//! ```
//!
//! Indices are assigned sequentially ("naming" the gates), allowing up to
//! `2^62` gates; gate type nibbles are the opcodes of
//! [`pytfhe_netlist::GateKind`] (`XOR = 0b0110`, matching the worked
//! half-adder of the paper's Figure 6). The nibbles `0x3` and `0xF` are
//! reserved for output/input instructions, which is why no gate uses
//! them.
//!
//! [`assemble`] packs a netlist's instruction words into the binary and
//! [`fingerprint`] hashes the same words without building it;
//! [`disassemble`] validates and re-builds the netlist (ports are
//! compile-time metadata and are not part of the run-time binary, exactly
//! as Verilog port names do not survive synthesis to a bitstream).

mod binary;
mod error;
mod inst;

pub use binary::{assemble, disassemble, dump, fingerprint};
pub use error::AsmError;
pub use inst::{Instruction, FIELD_ONES, INSTRUCTION_BYTES};
