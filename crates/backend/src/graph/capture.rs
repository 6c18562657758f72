//! Plan capture: one pass over a validated netlist produces a [`KernelPlan`],
//! one uncut list of waves — the compile-once half of the kernel graph.

use crate::checkpoint::netlist_fingerprint;
use crate::error::ExecError;
use crate::graph::batch::group_wave;
use crate::graph::plan::KernelPlan;
use pytfhe_netlist::{LevelSchedule, Netlist};

/// The second argument of [`capture`], with no settings: the CUDA-graph
/// batch cut it used to carry is the GPU simulator's own policy
/// ([`crate::sim::GpuSim`]). It stays only so that callers written
/// against it still compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CaptureConfig {}

/// Captures `nl` into a replayable plan.
///
/// Waves come from [`LevelSchedule`], empty ones dropped; each wave's
/// gates are listed in (opcode, node id) order.
///
/// # Errors
///
/// Returns [`ExecError::InvalidProgram`] when the netlist fails
/// validation.
pub fn capture(nl: &Netlist, _cfg: &CaptureConfig) -> Result<KernelPlan, ExecError> {
    nl.validate()?;
    let sched = LevelSchedule::compute(nl);
    let waves = sched.waves.iter().map(|wave| group_wave(nl, wave)).filter(|w| !w.gates.is_empty());
    Ok(KernelPlan {
        fingerprint: netlist_fingerprint(nl),
        num_nodes: nl.num_nodes(),
        inputs: nl.inputs().iter().map(|id| id.0).collect(),
        outputs: nl.outputs().iter().map(|id| id.0).collect(),
        waves: waves.collect(),
    })
}

/// The test programs of the backend, captured: `waves` dependent waves
/// of `width` NAND gates over two inputs (width 1 is a serial chain).
#[cfg(test)]
pub(crate) fn ladder(waves: usize, width: usize) -> KernelPlan {
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
    capture(&nl, &CaptureConfig::default()).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_covers_every_gate_exactly_once() {
        let plan = ladder(5, 4);
        assert_eq!(plan.num_gates(), 5 * 4);
        assert_eq!(plan.num_nodes, 2 + 5 * 4);
        assert_eq!(plan.inputs.len(), 2);
        assert_eq!(plan.outputs.len(), 4);
        let mut outs: Vec<u32> = plan.waves.iter().flat_map(|w| &w.gates).map(|t| t.out).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 5 * 4, "no slot written twice");
    }

    #[test]
    fn fingerprint_tracks_the_program() {
        let p1 = ladder(2, 2);
        let p2 = ladder(3, 2);
        assert_ne!(p1.fingerprint, p2.fingerprint);
        assert_eq!(p1.fingerprint, ladder(2, 2).fingerprint);
    }
}
