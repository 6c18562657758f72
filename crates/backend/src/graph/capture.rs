//! Plan capture: one counting pass over a validated netlist produces a
//! [`KernelPlan`], one uncut list of waves — the compile-once half of the
//! kernel graph.

use crate::error::ExecError;
use crate::graph::plan::{GateTask, KernelPlan, WavePlan};
use pytfhe_netlist::{GateKind, Levels, Netlist, Node};

/// The second argument of [`capture`], with no settings: the CUDA-graph
/// batch cut it used to carry is the GPU simulator's own policy
/// ([`crate::sim::GpuSim`]). It stays only so that callers written
/// against it still compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CaptureConfig {}

/// Captures `nl` into a replayable plan.
///
/// Waves are the topological levels of [`Levels`], empty ones dropped;
/// each wave's gates are listed in (opcode, node id) order, so the
/// bootstrapping opcodes precede the linear ones.
///
/// # Errors
///
/// Returns [`ExecError::InvalidProgram`] when the netlist fails
/// validation.
pub fn capture(nl: &Netlist, _cfg: &CaptureConfig) -> Result<KernelPlan, ExecError> {
    capture_keyed(nl, pytfhe_asm::fingerprint(nl))
}

/// [`capture`] for a caller that already holds `nl`'s fingerprint.
///
/// Over the levels of [`Levels::compute`], one pass counts gates per
/// (level, opcode); prefix sums turn the counts into each group's first
/// slot in its wave, and a second pass writes every gate, in node order,
/// straight into its slot.
pub(super) fn capture_keyed(nl: &Netlist, fingerprint: u64) -> Result<KernelPlan, ExecError> {
    nl.validate()?;
    let Levels { level, sizes } = Levels::compute(nl);
    let mut slots = vec![[0u32; 16]; sizes.len()];
    for (node, &l) in nl.nodes().iter().zip(&level) {
        let Node::Gate { kind, .. } = node else { continue };
        slots[l as usize][kind.opcode() as usize] += 1;
    }
    let mut waves: Vec<WavePlan> = slots
        .iter_mut()
        .map(|counts| {
            // Each count becomes the first slot of its opcode's group.
            let mut len = 0;
            for slot in counts.iter_mut() {
                (len, *slot) = (len + *slot, len);
            }
            let unset = GateTask { kind: GateKind::Const0, out: 0, a: 0, b: 0 };
            WavePlan { gates: vec![unset; len as usize] }
        })
        .collect();
    for (i, (node, &l)) in nl.nodes().iter().zip(&level).enumerate() {
        let Node::Gate { kind, a, b } = *node else { continue };
        let slot = &mut slots[l as usize][kind.opcode() as usize];
        waves[l as usize].gates[*slot as usize] = GateTask { kind, out: i as u32, a: a.0, b: b.0 };
        *slot += 1;
    }
    waves.retain(|wave| !wave.gates.is_empty());
    Ok(KernelPlan {
        fingerprint,
        num_nodes: nl.num_nodes(),
        inputs: nl.inputs().iter().map(|id| id.0).collect(),
        outputs: nl.outputs().iter().map(|id| id.0).collect(),
        waves,
    })
}

/// The test programs of the backend, captured: `waves` dependent waves
/// of `width` NAND gates over two inputs (width 1 is a serial chain).
#[cfg(test)]
pub(crate) fn ladder(waves: usize, width: usize) -> KernelPlan {
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
