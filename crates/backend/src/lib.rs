//! Execution backends for PyTFHE programs (Sections IV-D and IV-E of the
//! paper).
//!
//! A compiled TFHE program is a DAG of bootstrapped gates; executing it
//! means traversing the DAG in dependency order (the BFS wavefront of the
//! paper's Algorithm 1) and evaluating each gate. Algorithm 1 exists
//! here once, as [`capture`] (form the waves) + [`graph::run_wave`] (run
//! one on the worker pool; [`replay`] is the loop). This crate provides:
//!
//! * [`engine`] — the pluggable gate evaluator: [`engine::TfheEngine`]
//!   computes on real LWE ciphertexts via `pytfhe-tfhe`;
//!   [`engine::PlainEngine`] computes on plaintext bits (the functional
//!   mode used to validate programs and drive the performance
//!   simulators);
//! * [`exec`] — a single-threaded reference executor (the oracle),
//!   [`exec::execute_parallel`] (capture + replay in one call, the
//!   single-node form of the paper's distributed CPU backend), and the
//!   resilient executor ([`exec::execute_resilient`]): capture + the
//!   same wave dispatch, re-running failed chunks, evicting crashed
//!   workers, and checkpointing at wave barriers;
//! * [`fault`] — deterministic seeded fault injection ([`SeededFaults`])
//!   and the [`RetryPolicy`] (capped exponential backoff + jitter,
//!   per-task and per-wave deadlines) driving the resilient executor;
//! * [`checkpoint`] — wave-granular snapshot/resume: the frontier values
//!   at a wave barrier serialize to a [`CheckpointStore`] (in-memory or
//!   file-backed) so interrupted runs restart from the last barrier;
//! * [`graph`] — the kernel-graph backend: a netlist is *captured* once
//!   into a serializable [`KernelPlan`] (one list of waves, each one gate
//!   list batched across gate kinds on replay; the CUDA-graph batch cut is
//!   the GPU simulator's), cached by fingerprint, and *replayed* against
//!   fresh inputs with zero per-gate allocation;
//! * [`pool`] — the shared work-stealing worker pool (per-lane deques,
//!   LIFO-local/FIFO-steal, caller participation). The workspace has
//!   one dispatch onto it, [`graph::run_wave`], which replay calls with
//!   one launch per wave, the serving scheduler with one per job, and
//!   the resilient executor with a retry policy; no other code in the
//!   crate starts a thread;
//! * [`cost`] — the calibrated cost model (Figure 7: one bootstrapped
//!   gate ≈ 13 ms on one CPU core; ciphertext = 2.46 KB; per-task
//!   communication ≈ 0.094 % of runtime);
//! * [`sim`] — discrete-event simulators of the paper's distributed CPU
//!   cluster (Ray, Section IV-D) and GPU backends (cuFHE vs CUDA-Graphs
//!   batching, Section IV-E), which regenerate Figures 7-13 and Table IV.
//!
//! See DESIGN.md for why the cluster and GPU are simulated rather than
//! driven natively, and how the simulators were calibrated.

pub mod checkpoint;
pub mod cost;
pub mod engine;
mod error;
pub mod exec;
pub mod fault;
pub mod graph;
pub mod pool;
pub mod sim;
pub mod store;

pub use checkpoint::{
    Checkpoint, CheckpointStore, Checkpointable, FileCheckpointStore, MemoryCheckpointStore,
};
pub use cost::{CpuCostModel, GpuCostModel};
pub use engine::{GateEngine, PlainEngine, TfheEngine};
pub use error::ExecError;
pub use exec::{
    execute, execute_parallel, execute_resilient, netlist_bootstraps, ExecStats, ResilientConfig,
};
pub use fault::{
    FaultInjector, NoFaults, RetryPolicy, SeededFaults, SeededStorageFaults, StorageFault, TaskFate,
};
pub use graph::{capture, replay, CaptureConfig, KernelGraph, KernelPlan, ReplayLanes};
pub use pool::WorkerPool;
pub use store::{DiskStore, KeyBlob};
