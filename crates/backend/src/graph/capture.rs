//! Plan capture: one pass over a validated netlist produces a
//! [`KernelPlan`] — the compile-once half of the kernel-graph backend.

use crate::checkpoint::netlist_fingerprint;
use crate::error::ExecError;
use crate::graph::batch::group_wave;
use crate::graph::plan::{KernelPlan, SubGraph};
use pytfhe_netlist::{LevelSchedule, Netlist};

/// Capture tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Batch-cut budget: a sub-graph closes once it holds at least this
    /// many bootstrapped gates. The default is ~100 k nodes per CUDA
    /// graph (Section IV-E); the simulators cost whatever batches the
    /// plan was cut into.
    pub batch_cut_nodes: u64,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig { batch_cut_nodes: 100_000 }
    }
}

/// Captures `nl` into a replayable plan.
///
/// Waves come from [`LevelSchedule`]; each wave's gates are listed in
/// (opcode, node id) order; consecutive waves accumulate into a
/// sub-graph batch until it holds at least `batch_cut_nodes`
/// bootstrapped gates ([`crate::graph::WavePlan::bootstrapped`]), then
/// the batch closes. Bootstrap-free waves never trigger a cut but ride
/// along in the open batch so their gates execute; a trailing partial
/// batch survives.
///
/// # Errors
///
/// Returns [`ExecError::InvalidProgram`] when the netlist fails
/// validation.
pub fn capture(nl: &Netlist, cfg: &CaptureConfig) -> Result<KernelPlan, ExecError> {
    nl.validate()?;
    let sched = LevelSchedule::compute(nl);
    let mut batches = Vec::new();
    let mut open = SubGraph::default();
    let mut open_bootstrapped = 0;
    for wave in sched.waves.iter().map(|wave| group_wave(nl, wave)) {
        if wave.gates.is_empty() && wave.lut_groups.is_empty() {
            continue;
        }
        open_bootstrapped += wave.bootstrapped();
        open.waves.push(wave);
        if open_bootstrapped >= cfg.batch_cut_nodes {
            batches.push(std::mem::take(&mut open));
            open_bootstrapped = 0;
        }
    }
    if !open.waves.is_empty() {
        batches.push(open);
    }
    Ok(KernelPlan {
        fingerprint: netlist_fingerprint(nl),
        num_nodes: nl.num_nodes(),
        inputs: nl.inputs().iter().map(|id| id.0).collect(),
        outputs: nl.outputs().iter().map(|id| id.0).collect(),
        batches,
        message_precision: nl.lut_precision().unwrap_or(0),
    })
}

/// The test programs of the backend, captured: `waves` dependent waves
/// of `width` NAND gates over two inputs (width 1 is a serial chain).
#[cfg(test)]
pub(crate) fn ladder(waves: usize, width: usize, cfg: &CaptureConfig) -> KernelPlan {
    use pytfhe_netlist::GateKind;
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
    capture(&nl, cfg).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::GateKind;

    #[test]
    fn capture_covers_every_gate_exactly_once() {
        let plan = ladder(5, 4, &CaptureConfig::default());
        assert_eq!(plan.num_gates(), 5 * 4);
        assert_eq!(plan.num_nodes, 2 + 5 * 4);
        assert_eq!(plan.inputs.len(), 2);
        assert_eq!(plan.outputs.len(), 4);
        let mut outs: Vec<u32> = plan.waves().flat_map(|w| &w.gates).map(|t| t.out).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 5 * 4, "no slot written twice");
    }

    #[test]
    fn small_cut_budget_splits_batches() {
        // Waves of 3 bootstrapped gates each.
        let one = ladder(6, 3, &CaptureConfig::default());
        assert_eq!(one.batches.len(), 1, "default budget holds the whole program");
        let cut = ladder(6, 3, &CaptureConfig { batch_cut_nodes: 5 });
        // 3 gates/wave, cut at >= 5: every two waves close a batch.
        assert_eq!(cut.batches.len(), 3);
        for batch in &cut.batches {
            assert_eq!(batch.waves.len(), 2);
            assert_eq!(batch.bootstrapped(), 6);
        }
        assert_eq!(cut.num_gates(), one.num_gates());
    }

    #[test]
    fn bootstrap_free_waves_ride_in_the_open_batch() {
        // Waves of 3, 3, then a `Buf` wave with nothing to bootstrap:
        // the cut at 6 closes the first batch, the `Buf` wave trails
        // alone.
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let mut prev = vec![a; 3];
        for _ in 0..2 {
            prev = prev.iter().map(|&p| nl.add_gate(GateKind::Nand, p, b).unwrap()).collect();
        }
        let buf = nl.add_gate(GateKind::Buf, prev[0], prev[0]).unwrap();
        nl.mark_output(buf).unwrap();
        let plan = capture(&nl, &CaptureConfig { batch_cut_nodes: 6 }).unwrap();
        let cuts: Vec<u64> = plan.batches.iter().map(|b| b.bootstrapped()).collect();
        assert_eq!(cuts, [6, 0]);
        assert_eq!(plan.num_gates(), 7);
    }

    #[test]
    fn fingerprint_tracks_the_program() {
        let cfg = CaptureConfig::default();
        let p1 = ladder(2, 2, &cfg);
        let p2 = ladder(3, 2, &cfg);
        assert_ne!(p1.fingerprint, p2.fingerprint);
        assert_eq!(p1.fingerprint, ladder(2, 2, &cfg).fingerprint);
    }
}
