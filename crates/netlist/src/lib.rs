//! Gate-level netlist intermediate representation for the PyTFHE framework.
//!
//! A TFHE program is a directed acyclic graph (DAG) of two-input boolean
//! gates (plus inverters and constants). This crate provides:
//!
//! * [`GateKind`] — the eleven bootstrapped TFHE gates of the paper plus
//!   `CONST0`/`CONST1`/`BUF` pseudo-gates (Section IV-C of the paper),
//! * [`Netlist`] — the DAG itself with named input/output ports,
//! * topological analysis ([`topo`]) used by the backend schedulers
//!   (Algorithm 1 of the paper),
//! * the Yosys-substitute optimization passes ([`opt`]): constant folding,
//!   dead-gate elimination, common-subexpression elimination and inverter
//!   absorption,
//! * netlist statistics ([`stats`]) used to regenerate Figure 14.
//!
//! # Example
//!
//! Build the half adder of Figure 6 of the paper:
//!
//! ```
//! use pytfhe_netlist::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), pytfhe_netlist::NetlistError> {
//! let mut nl = Netlist::new();
//! let a = nl.add_input();
//! let b = nl.add_input();
//! let sum = nl.add_gate(GateKind::Xor, a, b)?;
//! let carry = nl.add_gate(GateKind::And, a, b)?;
//! nl.mark_output(sum)?;
//! nl.mark_output(carry)?;
//! assert_eq!(nl.num_gates(), 2);
//! # Ok(())
//! # }
//! ```

mod error;
mod gate;
mod graph;
pub mod opt;
pub mod stats;
pub mod topo;

pub use error::NetlistError;
pub use gate::{GateKind, ALL_GATE_KINDS};
pub use graph::{Netlist, Node, NodeId, Port};
pub use stats::{GateHistogram, NetlistStats};
pub use topo::{LevelSchedule, Levels};
