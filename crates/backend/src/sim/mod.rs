//! Discrete-event performance simulators of the paper's distributed CPU
//! and GPU backends.
//!
//! The simulators cost a captured [`crate::KernelPlan`] — the same waves
//! the replay executes — under the calibrated [`crate::cost`] models, and
//! predict execution time the way the respective scheduler would spend
//! it; the GPU simulator cuts the waves into CUDA-graph batches itself.
//! See DESIGN.md ("Substitutions") for why these stand in for a physical
//! Ray cluster and CUDA devices, and which figure each simulator
//! regenerates.

mod cluster;
mod gpu;
mod timeline;

pub use cluster::{ClusterConfig, ClusterReport, ClusterSim};
pub use gpu::{GpuPolicy, GpuReport, GpuSim};
pub use timeline::{Segment, Timeline};

use crate::graph::WavePlan;

/// The device slots of `wave`: its gates that [`GateKind::is_costed`]
/// (constants and buffers are free; `Not`, which the device model
/// schedules even though it is bootstrap-free, takes one). What a
/// simulated wave costs, and what the CUDA-graph cut accumulates.
///
/// [`GateKind::is_costed`]: pytfhe_netlist::GateKind::is_costed
pub(crate) fn bootstrapped(wave: &WavePlan) -> u64 {
    wave.gates.iter().filter(|t| t.kind.is_costed()).count() as u64
}
