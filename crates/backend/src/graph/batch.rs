//! Wave layout: turns a topological wave of netlist nodes into a
//! [`WavePlan`] — one gate list in (opcode, node id) order.

use crate::graph::plan::{GateTask, WavePlan};
use pytfhe_netlist::{Netlist, Node};

/// Orders one wave's gate nodes by opcode (one linear bucket pass),
/// preserving node order within each opcode. The order follows the
/// opcode table, so captures are deterministic regardless of netlist
/// construction order, and the bootstrapping opcodes precede the linear
/// ones.
pub(crate) fn group_wave(nl: &Netlist, wave: &[u32]) -> WavePlan {
    // Bucket by opcode: 16 possible kinds, most waves use a handful.
    let mut buckets: [Vec<GateTask>; 16] = Default::default();
    for &id in wave {
        // Inputs are fed by the caller, not evaluated.
        if let Node::Gate { kind, a, b } = nl.node(pytfhe_netlist::NodeId(id)) {
            buckets[kind.opcode() as usize].push(GateTask { kind, out: id, a: a.0, b: b.0 });
        }
    }
    WavePlan { gates: buckets.concat() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::{GateKind, LevelSchedule};

    #[test]
    fn gates_are_ordered_by_opcode_then_node() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let g1 = nl.add_gate(GateKind::Xor, a, b).unwrap();
        let g2 = nl.add_gate(GateKind::Nand, a, b).unwrap();
        let g3 = nl.add_gate(GateKind::Xor, b, a).unwrap();
        nl.mark_output(g1).unwrap();
        nl.mark_output(g2).unwrap();
        nl.mark_output(g3).unwrap();
        let sched = LevelSchedule::compute(&nl);
        // Wave 0 is constants-only (empty here); the gates sit in wave 1.
        let plan = group_wave(&nl, &sched.waves[1]);
        let (x, y) = (a.0, b.0);
        let want = [
            GateTask { kind: GateKind::Nand, out: g2.0, a: x, b: y }, // opcode 0x0
            GateTask { kind: GateKind::Xor, out: g1.0, a: x, b: y },
            GateTask { kind: GateKind::Xor, out: g3.0, a: y, b: x },
        ];
        assert_eq!(plan.gates, want);
    }
}
