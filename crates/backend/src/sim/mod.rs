//! Discrete-event performance simulators of the paper's distributed CPU
//! and GPU backends.
//!
//! The simulators cost a captured [`crate::KernelPlan`] — the same waves
//! and sub-graph batches the replay executes — under the calibrated
//! [`crate::cost`] models, and predict execution time the way the
//! respective scheduler would spend it. See DESIGN.md ("Substitutions")
//! for why these stand in for a physical Ray cluster and CUDA devices,
//! and which figure each simulator regenerates.

mod cluster;
mod gpu;
mod timeline;

pub use cluster::{ClusterConfig, ClusterReport, ClusterSim};
pub use gpu::{GpuPolicy, GpuReport, GpuSim};
pub use timeline::{Segment, Timeline};
