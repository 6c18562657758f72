//! Plan capture: one pass over a validated netlist produces a
//! [`KernelPlan`] — the compile-once half of the kernel-graph backend.

use crate::checkpoint::netlist_fingerprint;
use crate::error::ExecError;
use crate::graph::batch::group_wave;
use crate::graph::plan::{KernelPlan, SubGraph, WavePlan};
use crate::sim::cut_batches;
use pytfhe_netlist::{LevelSchedule, Netlist};

/// Capture tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Batch-cut budget: a sub-graph closes once it holds at least this
    /// many bootstrapped gates. The default matches the device model's
    /// `graph_batch_nodes` (~100 k nodes per CUDA graph, Section IV-E).
    pub batch_cut_nodes: u64,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig { batch_cut_nodes: 100_000 }
    }
}

/// Captures `nl` into a replayable plan.
///
/// Waves come from [`LevelSchedule`]; within each wave gates are grouped
/// by kind into batched kernels; consecutive waves accumulate into
/// sub-graph batches under the cut rule
/// [`crate::sim::graph_batch_waves`] applies (bootstrap-free waves never
/// trigger a cut but still ride along in the open batch so their gates
/// execute).
///
/// # Errors
///
/// Returns [`ExecError::InvalidProgram`] when the netlist fails
/// validation.
pub fn capture(nl: &Netlist, cfg: &CaptureConfig) -> Result<KernelPlan, ExecError> {
    nl.validate()?;
    let sched = LevelSchedule::compute(nl);
    let waves = sched
        .waves
        .iter()
        .map(|wave| group_wave(nl, wave))
        .filter(|plan| !(plan.groups.is_empty() && plan.lut_groups.is_empty()));
    let batches = cut_batches(waves, WavePlan::bootstrapped, cfg.batch_cut_nodes)
        .into_iter()
        .map(|waves| SubGraph { waves })
        .collect();
    Ok(KernelPlan {
        fingerprint: netlist_fingerprint(nl),
        num_nodes: nl.num_nodes(),
        inputs: nl.inputs().iter().map(|id| id.0).collect(),
        outputs: nl.outputs().iter().map(|id| id.0).collect(),
        batches,
        message_precision: nl.lut_precision().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::GateKind;

    fn ladder(waves: usize, width: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let mut prev = vec![a; width];
        for _ in 0..waves {
            prev = prev.iter().map(|&p| nl.add_gate(GateKind::Nand, p, b).unwrap()).collect();
        }
        for g in &prev {
            nl.mark_output(*g).unwrap();
        }
        nl
    }

    #[test]
    fn capture_covers_every_gate_exactly_once() {
        let nl = ladder(5, 4);
        let plan = capture(&nl, &CaptureConfig::default()).unwrap();
        assert_eq!(plan.num_gates(), nl.num_gates());
        assert_eq!(plan.num_nodes, nl.num_nodes());
        assert_eq!(plan.inputs.len(), 2);
        assert_eq!(plan.outputs.len(), 4);
        let mut outs: Vec<u32> = plan
            .batches
            .iter()
            .flat_map(|b| &b.waves)
            .flat_map(|w| &w.groups)
            .flat_map(|g| &g.tasks)
            .map(|t| t.out)
            .collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), nl.num_gates(), "no slot written twice");
    }

    #[test]
    fn small_cut_budget_splits_batches() {
        let nl = ladder(6, 3); // waves of 3 bootstrapped gates each
        let one = capture(&nl, &CaptureConfig::default()).unwrap();
        assert_eq!(one.batches.len(), 1, "default budget holds the whole program");
        let cut = capture(&nl, &CaptureConfig { batch_cut_nodes: 5 }).unwrap();
        // 3 gates/wave, cut at >= 5: every two waves close a batch.
        assert_eq!(cut.batches.len(), 3);
        for batch in &cut.batches {
            assert_eq!(batch.waves.len(), 2);
            assert_eq!(batch.bootstrapped(), 6);
        }
        assert_eq!(cut.num_gates(), one.num_gates());
    }

    #[test]
    fn fingerprint_tracks_the_program() {
        let nl1 = ladder(2, 2);
        let nl2 = ladder(3, 2);
        let p1 = capture(&nl1, &CaptureConfig::default()).unwrap();
        let p2 = capture(&nl2, &CaptureConfig::default()).unwrap();
        assert_ne!(p1.fingerprint, p2.fingerprint);
        assert_eq!(p1.fingerprint, capture(&nl1, &CaptureConfig::default()).unwrap().fingerprint);
    }
}
