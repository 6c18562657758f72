//! Wave layout: turns a topological wave of netlist nodes into a
//! [`WavePlan`] — one gate list in (opcode, node id) order, and fused
//! LUTs grouped into the batched-PBS kernels a replay launches.

use crate::graph::plan::{GateTask, LutGroup, LutTask, WavePlan};
use pytfhe_netlist::{Netlist, Node};
use std::collections::BTreeMap;

/// Orders one wave's gate nodes by opcode (one linear bucket pass) and
/// groups its fused LUT nodes by `(width, precision, bootstrapping)`,
/// preserving node order within each opcode and group. The orders
/// follow the opcode table and the bucket key, so captures are
/// deterministic regardless of netlist construction order, and the
/// bootstrapping opcodes precede the linear ones. Splitting affine LUTs
/// (width-1 constants, buffers, negations) from bootstrapping ones keeps
/// every [`LutGroup`] homogeneous, so a replay picks the batched-PBS or
/// linear path per group.
pub(crate) fn group_wave(nl: &Netlist, wave: &[u32]) -> WavePlan {
    // Bucket by opcode: 16 possible kinds, most waves use a handful.
    let mut buckets: [Vec<GateTask>; 16] = Default::default();
    let mut lut_buckets: BTreeMap<(u8, u8, bool), Vec<LutTask>> = BTreeMap::new();
    for &id in wave {
        match nl.node(pytfhe_netlist::NodeId(id)) {
            Node::Gate { kind, a, b } => {
                buckets[kind.opcode() as usize].push(GateTask { kind, out: id, a: a.0, b: b.0 });
            }
            Node::Lut { spec, ins } => {
                let key = (spec.width, spec.precision, spec.bootstraps() > 0);
                lut_buckets.entry(key).or_default().push(LutTask {
                    out: id,
                    table: spec.table,
                    ins: [ins[0].0, ins[1].0, ins[2].0, ins[3].0],
                });
            }
            Node::Input => {} // inputs are fed by the caller, not evaluated
        }
    }
    let gates = buckets.concat();
    let lut_groups = lut_buckets
        .into_iter()
        .map(|((width, precision, _), tasks)| LutGroup { width, precision, tasks })
        .collect();
    WavePlan { gates, lut_groups }
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
