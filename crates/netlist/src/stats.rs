//! Netlist statistics: gate histograms and shape summaries.
//!
//! These are the numbers behind Figure 14 of the paper (gate distribution of
//! the MNIST network across frameworks) and the x-axis ordering of Figure 10
//! (benchmarks sorted by gate count).

use crate::gate::ALL_GATE_KINDS;
use crate::topo::Levels;
use crate::{GateKind, Netlist, Node};
use std::fmt;

/// Gate counts per [`GateKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateHistogram {
    counts: [u64; 16],
}

impl GateHistogram {
    /// Counts the gates of `nl`.
    pub fn of(nl: &Netlist) -> Self {
        let mut h = GateHistogram::default();
        for node in nl.nodes() {
            if let Node::Gate { kind, .. } = node {
                h.counts[kind.opcode() as usize] += 1;
            }
        }
        h
    }

    /// The count of one gate kind.
    #[inline]
    pub fn count(&self, kind: GateKind) -> u64 {
        self.counts[kind.opcode() as usize]
    }

    /// Total gate count across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total count of [`GateKind::is_costed`] gates (all but constants and buffers).
    pub fn total_bootstrapped(&self) -> u64 {
        ALL_GATE_KINDS.iter().filter(|k| k.is_costed()).map(|k| self.count(*k)).sum()
    }

    /// Iterates over `(kind, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (GateKind, u64)> + '_ {
        ALL_GATE_KINDS.iter().map(|&k| (k, self.count(k))).filter(|(_, c)| *c > 0)
    }
}

impl fmt::Display for GateHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (kind, count) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{kind}: {count}")?;
            first = false;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

/// A one-struct summary of a netlist's size and shape.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Total gates (including constants and buffers).
    pub gates: usize,
    /// Gates costing a bootstrap at run time.
    pub bootstrapped_gates: usize,
    /// Critical-path depth in waves.
    pub depth: u32,
    /// Widest wave.
    pub max_width: u64,
    /// Average wave width.
    pub avg_width: f64,
    /// Per-kind histogram.
    pub histogram: GateHistogram,
}

impl NetlistStats {
    /// Computes all statistics of `nl`.
    pub fn of(nl: &Netlist) -> Self {
        let levels = Levels::compute(nl);
        NetlistStats {
            inputs: nl.num_inputs(),
            outputs: nl.outputs().len(),
            gates: nl.num_gates(),
            bootstrapped_gates: nl.num_bootstrapped_gates(),
            depth: levels.depth(),
            max_width: levels.max_width(),
            avg_width: levels.avg_width(),
            histogram: GateHistogram::of(nl),
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates ({} bootstrapped), {} inputs, {} outputs, depth {}, width max {} avg {:.1}",
            self.gates,
            self.bootstrapped_gates,
            self.inputs,
            self.outputs,
            self.depth,
            self.max_width,
            self.avg_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let x = nl.add_gate(GateKind::Xor, a, b).unwrap();
        let y = nl.add_gate(GateKind::Xor, a, x).unwrap();
        let z = nl.add_gate(GateKind::And, x, y).unwrap();
        let w = nl.add_gate(GateKind::Buf, z, z).unwrap();
        nl.mark_output(w).unwrap();
        let h = GateHistogram::of(&nl);
        assert_eq!(h.count(GateKind::Xor), 2);
        assert_eq!(h.count(GateKind::And), 1);
        assert_eq!(h.count(GateKind::Buf), 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.total_bootstrapped(), 3);
        assert_eq!(h.iter().count(), 3);
    }

    #[test]
    fn stats_summary() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let x = nl.add_gate(GateKind::Nand, a, b).unwrap();
        let y = nl.add_gate(GateKind::Nand, x, b).unwrap();
        nl.mark_output(y).unwrap();
        let s = NetlistStats::of(&nl);
        assert_eq!(s.gates, 2);
        assert_eq!(s.depth, 2);
        assert_eq!(s.max_width, 1);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        let text = s.to_string();
        assert!(text.contains("2 gates"));
    }

    #[test]
    fn empty_histogram_display() {
        let h = GateHistogram::default();
        assert_eq!(h.to_string(), "(empty)");
    }
}
