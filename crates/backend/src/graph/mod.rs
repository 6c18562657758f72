//! The kernel-graph backend: capture once, replay batched execution
//! plans.
//!
//! This is the real-execution counterpart of the CUDA-Graphs scheduling
//! the paper's GPU backend uses (Section IV-E, Figure 9) and the
//! [`crate::sim::GpuPolicy::CudaGraphs`] simulator models:
//!
//! 1. **Capture** ([`capture`]): one pass over the netlist produces a
//!    [`KernelPlan`] — topological waves, each one gate list that a
//!    replay batches across gate kinds, cut into sub-graph batches of
//!    about [`CaptureConfig::batch_cut_nodes`] bootstrapped gates. The
//!    simulators in [`crate::sim`] cost this plan as it is.
//! 2. **Cache**: [`KernelGraph`] keys captured plans by netlist
//!    fingerprint, so the second and later executions of a program skip
//!    capture entirely (`ExecStats::plan_cached`).
//! 3. **Replay** ([`replay`]): the plan executes against fresh inputs
//!    with preallocated [`ReplayLanes`], wave by wave through
//!    [`run_wave`]; the hot path performs zero per-gate buffer
//!    allocations and is bit-exact with [`crate::execute`].
//!
//! Plans are plain data: [`KernelPlan::to_bytes`] /
//! [`KernelPlan::from_bytes`] round-trip them for shipping or on-disk
//! caching.

mod batch;
mod capture;
mod plan;
mod replay;

#[cfg(test)]
pub(crate) use capture::ladder;
pub use capture::{capture, CaptureConfig};
pub use plan::{counts_toward_batch, GateTask, KernelPlan, LutGroup, LutTask, SubGraph, WavePlan};
pub use replay::{replay, run_wave, Launch, ReplayLanes};
pub(crate) use replay::{run_wave_with, Retry};

use crate::checkpoint::netlist_fingerprint;
use crate::engine::{check_inputs, GateEngine};
use crate::error::ExecError;
use crate::exec::ExecStats;
use pytfhe_netlist::Netlist;
use pytfhe_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The capture-once / replay-many executor: a plan cache plus the
/// capture and replay machinery behind one entry point.
#[derive(Debug, Default)]
pub struct KernelGraph {
    cfg: CaptureConfig,
    cache: Mutex<HashMap<u64, Arc<KernelPlan>>>,
}

impl KernelGraph {
    /// An executor with the default batch-cut budget.
    pub fn new() -> Self {
        Self::with_config(CaptureConfig::default())
    }

    /// An executor with an explicit capture configuration.
    pub fn with_config(cfg: CaptureConfig) -> Self {
        KernelGraph { cfg, cache: Mutex::new(HashMap::new()) }
    }

    /// The capture configuration.
    pub fn config(&self) -> &CaptureConfig {
        &self.cfg
    }

    /// Plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.lock().expect("plan cache poisoned").len()
    }

    /// Returns the plan for `nl`, capturing it on first sight. The
    /// returned tuple is `(plan, came_from_cache, capture_seconds)`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidProgram`] if capture rejects the
    /// netlist.
    pub fn plan_for(&self, nl: &Netlist) -> Result<(Arc<KernelPlan>, bool, f64), ExecError> {
        let fp = netlist_fingerprint(nl);
        if let Some(plan) = self.cache.lock().expect("plan cache poisoned").get(&fp) {
            return Ok((Arc::clone(plan), true, 0.0));
        }
        let capture_span =
            telemetry::span_with("graph", || format!("capture plan: {} gates", nl.num_gates()));
        let start = Instant::now();
        let plan = Arc::new(capture(nl, &self.cfg)?);
        let capture_s = start.elapsed().as_secs_f64();
        capture_span.end();
        self.cache.lock().expect("plan cache poisoned").insert(fp, Arc::clone(&plan));
        Ok((plan, false, capture_s))
    }

    /// Adopts an externally captured (e.g. deserialized) plan into the
    /// cache, keyed by its own fingerprint.
    pub fn adopt(&self, plan: KernelPlan) -> Arc<KernelPlan> {
        let plan = Arc::new(plan);
        self.cache.lock().expect("plan cache poisoned").insert(plan.fingerprint, Arc::clone(&plan));
        plan
    }

    /// Captures (or fetches) the plan for `nl` and replays it on
    /// `inputs`, allocating fresh [`ReplayLanes`]. For allocation-free
    /// repeat runs, hold lanes yourself and call
    /// [`KernelGraph::execute_with_lanes`].
    ///
    /// # Errors
    ///
    /// Propagates capture and replay errors.
    pub fn execute<E: GateEngine>(
        &self,
        engine: &E,
        nl: &Netlist,
        inputs: &[E::Value],
        workers: usize,
    ) -> Result<(Vec<E::Value>, ExecStats), ExecError> {
        let mut lanes = ReplayLanes::new(workers);
        self.execute_with_lanes(engine, nl, inputs, &mut lanes)
    }

    /// Like [`KernelGraph::execute`], but reuses caller-held lanes so
    /// repeat executions touch no fresh buffers.
    ///
    /// # Errors
    ///
    /// Refuses inputs as [`ReplayLanes::load`] does before capturing, so a
    /// refused call caches no plan; propagates capture and replay errors.
    pub fn execute_with_lanes<E: GateEngine>(
        &self,
        engine: &E,
        nl: &Netlist,
        inputs: &[E::Value],
        lanes: &mut ReplayLanes<E::Value, E::Scratch>,
    ) -> Result<(Vec<E::Value>, ExecStats), ExecError> {
        check_inputs(engine, nl.num_inputs(), inputs)?;
        let start = Instant::now();
        let (plan, cached, capture_s) = self.plan_for(nl)?;
        let replay_span = telemetry::span_with("graph", || {
            format!(
                "replay: {} gates, {} batches{}",
                plan.num_gates(),
                plan.batches.len(),
                if cached { " (cached plan)" } else { "" }
            )
        });
        let (out, mut stats) = replay(engine, &plan, inputs, lanes)?;
        replay_span.end();
        stats.plan_cached = cached;
        stats.capture_s = capture_s;
        stats.wall_s = start.elapsed().as_secs_f64();
        stats.record_metrics();
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PlainEngine;
    use pytfhe_netlist::GateKind;

    fn xor_tree() -> Netlist {
        let mut nl = Netlist::new();
        let ins: Vec<_> = (0..8).map(|_| nl.add_input()).collect();
        let mut layer = ins;
        while layer.len() > 1 {
            layer =
                layer.chunks(2).map(|p| nl.add_gate(GateKind::Xor, p[0], p[1]).unwrap()).collect();
        }
        nl.mark_output(layer[0]).unwrap();
        nl
    }

    #[test]
    fn second_execution_hits_the_plan_cache() {
        let nl = xor_tree();
        let graph = KernelGraph::new();
        let engine = PlainEngine::new();
        let bits = vec![true, false, true, true, false, false, true, false];
        let (out1, s1) = graph.execute(&engine, &nl, &bits, 1).unwrap();
        assert!(!s1.plan_cached, "first run must capture");
        assert!(s1.capture_s >= 0.0);
        let (out2, s2) = graph.execute(&engine, &nl, &bits, 1).unwrap();
        assert!(s2.plan_cached, "second run must reuse the cached plan");
        assert_eq!(s2.capture_s, 0.0);
        assert_eq!(out1, out2);
        assert_eq!(graph.cached_plans(), 1);
    }

    #[test]
    fn adopted_plans_serve_executions() {
        let nl = xor_tree();
        let graph = KernelGraph::new();
        let plan = capture(&nl, graph.config()).unwrap();
        let restored = KernelPlan::from_bytes(&plan.to_bytes()).unwrap();
        graph.adopt(restored);
        let engine = PlainEngine::new();
        let bits = vec![true; 8];
        let (_, stats) = graph.execute(&engine, &nl, &bits, 1).unwrap();
        assert!(stats.plan_cached, "adopted plan must short-circuit capture");
    }
}
