//! Discrete-event performance simulators of the paper's distributed CPU
//! and GPU backends.
//!
//! The simulators consume a [`ProgramProfile`] — the wave-by-wave
//! structure of a real compiled netlist — and the calibrated
//! [`crate::cost`] models, and predict execution time the way the
//! respective scheduler would spend it. See DESIGN.md ("Substitutions")
//! for why these stand in for a physical Ray cluster and CUDA devices,
//! and which figure each simulator regenerates.

mod cluster;
mod gpu;
mod profile;
mod timeline;

pub use cluster::{ClusterConfig, ClusterReport, ClusterSim};
pub(crate) use gpu::cut_batches;
pub use gpu::{graph_batch_waves, GpuPolicy, GpuReport, GpuSim};
pub use profile::{ProgramProfile, WaveProfile};
pub use timeline::{Segment, Timeline};
