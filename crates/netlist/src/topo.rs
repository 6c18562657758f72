//! Topological analysis of netlists.
//!
//! Backends schedule TFHE programs with the BFS wavefront of the paper's
//! Algorithm 1: a gate becomes *ready* once both operands are computed, and
//! all ready gates of a wave can run in parallel. Because netlists are
//! topologically ordered by construction, the wave (*level*) of every node
//! can be computed in one linear scan.

use crate::{Netlist, Node};

/// Per-node level assignment plus aggregate shape information.
///
/// The level of an input is `0`; the level of a gate is one plus the maximum
/// level of its operands (constants sit at level 0 as they have no real
/// dependencies). Level `k` therefore contains exactly the gates computable
/// in wave `k` of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    /// `level[i]` is the wave index of node `i`.
    pub level: Vec<u32>,
    /// `sizes[k]` is the number of *gates* in wave `k` (inputs excluded).
    pub sizes: Vec<u64>,
}

impl Levels {
    /// Computes the level assignment of `nl` in one linear pass.
    pub fn compute(nl: &Netlist) -> Self {
        let mut level = vec![0u32; nl.num_nodes()];
        let mut max_level = 0u32;
        for (i, node) in nl.nodes().iter().enumerate() {
            let l = match *node {
                Node::Input => continue,
                Node::Gate { kind, a, b } => {
                    if kind.is_const() {
                        0
                    } else if kind.is_unary() {
                        level[a.index()] + 1
                    } else {
                        level[a.index()].max(level[b.index()]) + 1
                    }
                }
            };
            level[i] = l;
            max_level = max_level.max(l);
        }
        let mut sizes = vec![0u64; max_level as usize + 1];
        for (i, node) in nl.nodes().iter().enumerate() {
            if !matches!(node, Node::Input) {
                sizes[level[i] as usize] += 1;
            }
        }
        Levels { level, sizes }
    }

    /// The critical-path depth of the circuit: the highest wave index, i.e.
    /// the number of dependent gate evaluations on the longest path.
    pub fn depth(&self) -> u32 {
        (self.sizes.len() as u32).saturating_sub(1)
    }

    /// The widest wave: the maximum number of gates that can execute in
    /// parallel. This bounds the useful worker count of any backend.
    pub fn max_width(&self) -> u64 {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Average wave width (gates / waves); the paper's small "mostly serial"
    /// benchmarks such as NR-Solver have an average width close to 1.
    pub fn avg_width(&self) -> f64 {
        let gates: u64 = self.sizes.iter().sum();
        let waves = self.sizes.iter().filter(|&&s| s > 0).count();
        if waves == 0 {
            0.0
        } else {
            gates as f64 / waves as f64
        }
    }
}

/// A full wave-by-wave schedule: for every wave, the node ids of the gates
/// it contains, in id order. This is the data structure the multithreaded
/// executor and both simulators consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSchedule {
    /// `waves[k]` lists the gate node ids of wave `k` (wave 0 holds
    /// constants only; real gates start at wave 1 unless the circuit is
    /// trivial).
    pub waves: Vec<Vec<u32>>,
}

impl LevelSchedule {
    /// Builds the schedule from a level assignment.
    pub fn from_levels(nl: &Netlist, levels: &Levels) -> Self {
        let mut waves: Vec<Vec<u32>> = vec![Vec::new(); levels.sizes.len()];
        for (i, node) in nl.nodes().iter().enumerate() {
            if !matches!(node, Node::Input) {
                waves[levels.level[i] as usize].push(i as u32);
            }
        }
        LevelSchedule { waves }
    }

    /// Convenience: compute levels and schedule in one call.
    pub fn compute(nl: &Netlist) -> Self {
        Self::from_levels(nl, &Levels::compute(nl))
    }

    /// Total number of scheduled gates.
    pub fn num_gates(&self) -> usize {
        self.waves.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn chain(n: usize) -> Netlist {
        let mut nl = Netlist::new();
        let mut prev = nl.add_input();
        let other = nl.add_input();
        for _ in 0..n {
            prev = nl.add_gate(GateKind::Nand, prev, other).unwrap();
        }
        nl.mark_output(prev).unwrap();
        nl
    }

    #[test]
    fn chain_is_serial() {
        let nl = chain(10);
        let levels = Levels::compute(&nl);
        assert_eq!(levels.sizes.len(), 11); // waves 0..=10, wave 0 empty
        assert_eq!(levels.max_width(), 1);
        let sched = LevelSchedule::from_levels(&nl, &levels);
        assert_eq!(sched.num_gates(), 10);
        assert!(sched.waves[0].is_empty());
    }

    #[test]
    fn wide_layer_is_parallel() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let mut gates = Vec::new();
        for _ in 0..8 {
            gates.push(nl.add_gate(GateKind::Xor, a, b).unwrap());
        }
        let mut acc = gates[0];
        for &g in &gates[1..] {
            acc = nl.add_gate(GateKind::And, acc, g).unwrap();
        }
        nl.mark_output(acc).unwrap();
        let levels = Levels::compute(&nl);
        assert_eq!(levels.max_width(), 8);
        assert!(levels.avg_width() > 1.0);
    }

    #[test]
    fn constants_at_level_zero() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let c = nl.add_gate(GateKind::Const1, a, a).unwrap();
        let g = nl.add_gate(GateKind::And, a, c).unwrap();
        nl.mark_output(g).unwrap();
        let levels = Levels::compute(&nl);
        assert_eq!(levels.level[c.index()], 0);
        assert_eq!(levels.level[g.index()], 1);
    }

    #[test]
    fn schedule_covers_every_gate_once() {
        let nl = chain(5);
        let sched = LevelSchedule::compute(&nl);
        let mut seen = std::collections::HashSet::new();
        for wave in &sched.waves {
            for &g in wave {
                assert!(seen.insert(g));
            }
        }
        assert_eq!(seen.len(), nl.num_gates());
    }
}
