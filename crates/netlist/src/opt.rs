//! Netlist optimization passes — the Yosys-`opt`/ABC substitute of the
//! PyTFHE compilation flow (Step 2 of Figure 2).
//!
//! Every TFHE gate costs a bootstrapping (around 13 ms on one CPU core,
//! Figure 7), so gate-count reduction translates one-for-one into runtime
//! reduction. The passes here are semantics-preserving rewrites of the DAG:
//!
//! * [`constant_fold`] — propagates `CONST0`/`CONST1` (baked-in plaintext
//!   model weights produce many), simplifies trivial identities
//!   (`XOR(x, x) = 0`, `AND(x, x) = x`, …) and removes buffers,
//! * [`absorb_inverters`] — folds `NOT` gates into their consumers using
//!   the negated-input gate kinds (`AND(!a, b) → ANDNY(a, b)`),
//! * [`cse`] — structural common-subexpression elimination,
//! * [`dce`] — dead-gate elimination by backward reachability,
//! * [`optimize`] — all four at once: one forward sweep that absorbs,
//!   folds and hash-conses each gate as it copies it, then one [`dce`].
//!
//! The first three are that same sweep with one rule each. Each rule reads
//! only operands the sweep has already rewritten, so one sweep reaches the
//! fixpoint that iterating the four passes approaches (DESIGN.md §17).
//!
//! All passes preserve the number and order of primary inputs and outputs,
//! so an optimized netlist is a drop-in replacement for the original.

//! One analysis rewrites nothing and runs separately from [`optimize`]:
//!
//! * [`lut_cover`] — enumerates the fanout-free multi-gate cones of up to
//!   `max_width` leaves whose evaluation as one lookup table would save
//!   bootstraps, and counts what such a lowering would cost.

use crate::{GateKind, Netlist, NetlistError, Node, NodeId};
use std::fmt;

/// Result of resolving an old node through a rewrite: either a known
/// constant or a node in the new netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lit {
    Const(bool),
    Id(NodeId),
}

impl Lit {
    /// The node of a literal the pass never folds to a constant.
    fn id(self) -> NodeId {
        match self {
            Lit::Id(id) => id,
            Lit::Const(_) => unreachable!("an operand read by the pass folded to a constant"),
        }
    }
}

/// Hash-consing over the gates of the netlist being built, filed under
/// their higher operand `b`. The first [`CHAIN`] gates under a node form a
/// list threaded through `links`, newest first: a netlist built in
/// topological order reads mostly recent nodes, so the lists it walks stay
/// in cache. The gates under a node with a full list spill to an
/// open-addressing table. Either way an entry is a node id and the key
/// `(kind, a, b)` is read back from the node, so no key is stored twice.
#[derive(Default)]
struct GateTable {
    /// Per node of the new netlist: the newest gate in its list, and the
    /// next older gate of the list the node itself is in.
    links: Vec<[u32; 2]>,
    /// The spilled gates' ids, or [`EMPTY`], at load at most one half.
    slots: Vec<u32>,
    spilled: usize,
}

/// The longest list [`GateTable`] walks before it spills.
const CHAIN: usize = 16;

const EMPTY: u32 = u32::MAX;

impl GateTable {
    /// The node of `out` computing `kind(a, b)`, appended if none does yet.
    /// The gate must be in the form [`canonical_gate`] gives.
    fn intern(&mut self, out: &mut Netlist, kind: GateKind, a: NodeId, b: NodeId) -> NodeId {
        self.links.resize(out.num_nodes(), [EMPTY; 2]);
        let want = Node::Gate { kind, a, b };
        // Only a constant in an empty netlist names a node not there yet.
        let head = self.links.get(b.index()).map_or(EMPTY, |l| l[0]);
        let (mut i, mut filed) = (head, 0);
        while i != EMPTY {
            if out.nodes()[i as usize] == want {
                return NodeId(i);
            }
            (i, filed) = (self.links[i as usize][1], filed + 1);
        }
        if filed < CHAIN {
            let id = out.add_gate(kind, a, b).expect("operands exist in the new netlist");
            self.links.push([EMPTY, head]);
            self.links[b.index()][0] = id.0;
            return id;
        }
        if 2 * (self.spilled + 1) > self.slots.len() {
            // Double the slots and re-place every id by its node's key.
            let grown = vec![EMPTY; 2 * self.slots.len().max(512)];
            let old = std::mem::replace(&mut self.slots, grown);
            for id in old.into_iter().filter(|&s| s != EMPTY) {
                let slot = self.slot(out, out.nodes()[id as usize]);
                self.slots[slot] = id;
            }
        }
        let slot = self.slot(out, want);
        if self.slots[slot] == EMPTY {
            self.slots[slot] =
                out.add_gate(kind, a, b).expect("operands exist in the new netlist").0;
            self.spilled += 1;
        }
        NodeId(self.slots[slot])
    }

    /// The slot holding `gate`, or the empty slot it belongs in.
    fn slot(&self, out: &Netlist, gate: Node) -> usize {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let Node::Gate { kind, a, b } = gate else { unreachable!("the table holds gates only") };
        let key = u64::from(a.0) | u64::from(b.0) << 32;
        let hash = (key.wrapping_mul(K) ^ u64::from(kind.opcode())).wrapping_mul(K);
        let mask = self.slots.len() - 1;
        let mut i = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        while self.slots[i] != EMPTY && out.nodes()[self.slots[i] as usize] != gate {
            i = (i + 1) & mask;
        }
        i
    }
}

/// Bookkeeping shared by all passes: maps old node ids to new literals and
/// rebuilds ports/outputs at the end.
struct Rewriter {
    out: Netlist,
    map: Vec<Lit>,
    /// Present when the rewrite shares structurally equal gates: every gate
    /// is then emitted in canonical form, through this table.
    table: Option<GateTable>,
    /// The `CONST0` and `CONST1` nodes materialized so far: every output
    /// that folds to a constant reads one shared node.
    consts: [Option<NodeId>; 2],
}

impl Rewriter {
    fn new(nl: &Netlist, share: bool) -> Self {
        Rewriter {
            out: Netlist::with_capacity(nl.num_nodes()),
            map: Vec::with_capacity(nl.num_nodes()),
            table: share.then(GateTable::default),
            consts: [None; 2],
        }
    }

    /// Emits `kind(a, b)` into the new netlist, or finds it there when the
    /// rewrite shares gates.
    fn emit(&mut self, kind: GateKind, a: NodeId, b: NodeId) -> NodeId {
        match &mut self.table {
            Some(table) => {
                let (kind, a, b) = canonical_gate(kind, a, b);
                table.intern(&mut self.out, kind, a, b)
            }
            None => self.out.add_gate(kind, a, b).expect("operands exist in the new netlist"),
        }
    }

    /// What a literal negates, if it is a `NOT` gate of the new netlist.
    fn negand(&self, lit: Lit) -> Option<NodeId> {
        let Lit::Id(id) = lit else { return None };
        match self.out.node(id) {
            Node::Gate { kind: GateKind::Not, a, .. } => Some(a),
            _ => None,
        }
    }

    /// Materializes a literal as a node id in the new netlist (constants
    /// become `CONST` gates). Needed for outputs, which must be node ids.
    fn materialize(&mut self, lit: Lit) -> NodeId {
        match lit {
            Lit::Id(id) => id,
            Lit::Const(c) => match self.consts[usize::from(c)] {
                Some(id) => id,
                None => {
                    let kind = if c { GateKind::Const1 } else { GateKind::Const0 };
                    let id = self.emit(kind, NodeId(0), NodeId(0));
                    *self.consts[usize::from(c)].insert(id)
                }
            },
        }
    }

    /// Finishes the rewrite: rebuilds outputs and ports of `src` in the new
    /// netlist.
    fn finish(mut self, src: &Netlist) -> (Netlist, PassStats) {
        debug_assert_eq!(self.map.len(), src.num_nodes());
        // The flat output list keeps its order; port metadata is recorded
        // without marking the outputs again.
        for &o in src.outputs() {
            let id = self.materialize(self.map[o.index()]);
            self.out.mark_output(id).expect("materialized output exists");
        }
        for p in src.input_ports() {
            let bits = p.bits.iter().map(|&b| self.map[b.index()].id()).collect();
            self.out.declare_input_port(p.name.clone(), bits).expect("rewritten port stays valid");
        }
        for p in src.output_ports() {
            let bits = p.bits.iter().map(|&b| self.materialize(self.map[b.index()])).collect();
            self.out.push_output_port_raw(p.name.clone(), bits);
        }
        let stats = PassStats { gates_before: src.num_gates(), gates_after: self.out.num_gates() };
        (self.out, stats)
    }
}

/// Statistics of one optimization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Gates before the pass.
    pub gates_before: usize,
    /// Gates after the pass.
    pub gates_after: usize,
}

impl PassStats {
    /// Gates removed by the pass.
    pub fn removed(&self) -> usize {
        self.gates_before.saturating_sub(self.gates_after)
    }
}

/// The rules a [`sweep`] applies to each gate as it copies it.
#[derive(Clone, Copy)]
struct Rules {
    /// Turn a `NOT` operand into the gate's negated-input kind.
    absorb: bool,
    /// Propagate constants and apply the identities of [`fold_gate`].
    fold: bool,
    /// Share structurally equal gates through a [`GateTable`].
    share: bool,
}

/// Copies `nl` in node order, rewriting each gate by `rules` after its
/// operands have been rewritten.
fn sweep(nl: &Netlist, rules: Rules) -> (Netlist, PassStats) {
    let mut rw = Rewriter::new(nl, rules.share);
    for node in nl.nodes() {
        let lit = match *node {
            Node::Input => Lit::Id(rw.out.add_input()),
            Node::Gate { kind, .. } if kind.is_const() && rules.fold => {
                Lit::Const(kind == GateKind::Const1)
            }
            // A constant's operands are placeholders that need not exist.
            Node::Gate { kind, .. } if kind.is_const() => {
                Lit::Id(rw.emit(kind, NodeId(0), NodeId(0)))
            }
            Node::Gate { mut kind, a, b } => {
                let (mut la, mut lb) = (rw.map[a.index()], rw.map[b.index()]);
                if rules.absorb {
                    if let (Some(y), Some(k)) = (rw.negand(la), kind.absorb_not_a()) {
                        (kind, la) = (k, Lit::Id(y));
                        if kind.is_unary() {
                            lb = la;
                        }
                    }
                    if let (Some(y), Some(k)) = (rw.negand(lb), kind.absorb_not_b()) {
                        (kind, lb) = (k, Lit::Id(y));
                    }
                }
                if rules.fold {
                    fold_gate(&mut rw, kind, la, lb)
                } else {
                    Lit::Id(rw.emit(kind, la.id(), lb.id()))
                }
            }
        };
        rw.map.push(lit);
    }
    rw.finish(nl)
}

/// Propagates constants, simplifies same-operand identities, and removes
/// buffers and double negations.
pub fn constant_fold(nl: &Netlist) -> (Netlist, PassStats) {
    sweep(nl, Rules { absorb: false, fold: true, share: false })
}

/// Core folding rules for a single non-constant gate; emits a gate only
/// when no rule applies.
fn fold_gate(rw: &mut Rewriter, kind: GateKind, la: Lit, lb: Lit) -> Lit {
    use GateKind::*;
    // Rule 1: both operands constant.
    if let (Lit::Const(ca), Lit::Const(cb)) = (la, lb) {
        return Lit::Const(kind.eval(ca, cb));
    }
    // Rule 2: unary gates.
    if kind == Buf {
        return la;
    }
    if kind == Not {
        return match la {
            Lit::Const(c) => Lit::Const(!c),
            Lit::Id(id) => emit_not(rw, id),
        };
    }
    // Rule 3: one constant operand — specialize to a unary function of the
    // other operand.
    if let Lit::Const(c) = la {
        return specialize(rw, kind, c, lb, true);
    }
    if let Lit::Const(c) = lb {
        return specialize(rw, kind, c, la, false);
    }
    let (ia, ib) = (la.id(), lb.id());
    // Rule 4: same-operand identities.
    if ia == ib {
        return match kind {
            And | Or => Lit::Id(ia),
            Xor | Andny | Andyn => Lit::Const(false),
            Xnor | Orny | Oryn => Lit::Const(true),
            Nand | Nor => emit_not(rw, ia),
            Not | Buf | Const0 | Const1 => unreachable!("handled above"),
        };
    }
    Lit::Id(rw.emit(kind, ia, ib))
}

/// Emits (or folds) a NOT of an existing new-netlist node.
fn emit_not(rw: &mut Rewriter, id: NodeId) -> Lit {
    // Collapse double negation: NOT(NOT(x)) = x.
    Lit::Id(rw.negand(Lit::Id(id)).unwrap_or_else(|| rw.emit(GateKind::Not, id, id)))
}

/// Specializes a binary gate with one constant operand. `c` is the constant;
/// `other` the remaining operand; `const_is_a` says which side it was on.
fn specialize(rw: &mut Rewriter, kind: GateKind, c: bool, other: Lit, const_is_a: bool) -> Lit {
    // Evaluate the gate's restriction to the free variable: f(c, x) (or
    // f(x, c)) is one of {0, 1, x, !x}.
    let f = |x: bool| if const_is_a { kind.eval(c, x) } else { kind.eval(x, c) };
    match (f(false), f(true)) {
        (false, false) => Lit::Const(false),
        (true, true) => Lit::Const(true),
        (false, true) => other, // identity
        (true, false) => match other {
            Lit::Const(cc) => Lit::Const(!cc),
            Lit::Id(id) => emit_not(rw, id),
        },
    }
}

/// Folds `NOT` gates into their consumers (`AND(!a, b) → ANDNY(a, b)` and
/// friends). The freed `NOT` gates become dead and are removed by a
/// subsequent [`dce`] pass.
pub fn absorb_inverters(nl: &Netlist) -> (Netlist, PassStats) {
    sweep(nl, Rules { absorb: true, fold: false, share: false })
}

/// Structural common-subexpression elimination: two gates with the same
/// function and operands (up to commutativity) are merged. The first gate
/// of each class in node order is kept, and every gate is emitted with its
/// lower operand first.
pub fn cse(nl: &Netlist) -> (Netlist, PassStats) {
    sweep(nl, Rules { absorb: false, fold: false, share: true })
}

/// The form [`cse`] compares gates in: unary gates read `a` twice, and the
/// lower operand goes first (a non-commutative gate swaps its kind with
/// them). Constants are always emitted reading node 0 twice.
fn canonical_gate(kind: GateKind, a: NodeId, b: NodeId) -> (GateKind, NodeId, NodeId) {
    if kind.is_unary() {
        (kind, a, a)
    } else if a <= b {
        (kind, a, b)
    } else if kind.is_commutative() {
        (kind, b, a)
    } else {
        (kind.swapped(), b, a)
    }
}

/// Dead-gate elimination: removes gates that no output transitively depends
/// on. Primary inputs are always preserved (the program interface is part of
/// the contract).
pub fn dce(nl: &Netlist) -> (Netlist, PassStats) {
    let mut live = vec![false; nl.num_nodes()];
    for &out in nl.outputs() {
        live[out.index()] = true;
    }
    for i in (0..nl.num_nodes()).rev() {
        // A unary gate's `b` is its `a`.
        if let (true, Node::Gate { kind, a, b }) = (live[i], nl.nodes()[i]) {
            if !kind.is_const() {
                live[a.index()] = true;
                live[b.index()] = true;
            }
        }
    }
    let mut rw = Rewriter::new(nl, false);
    for (i, node) in nl.nodes().iter().enumerate() {
        let lit = match *node {
            Node::Input => Lit::Id(rw.out.add_input()),
            // A placeholder nothing live reads.
            Node::Gate { .. } if !live[i] => Lit::Const(false),
            Node::Gate { kind, .. } if kind.is_const() => {
                Lit::Id(rw.emit(kind, NodeId(0), NodeId(0)))
            }
            Node::Gate { kind, a, b } => {
                Lit::Id(rw.emit(kind, rw.map[a.index()].id(), rw.map[b.index()].id()))
            }
        };
        rw.map.push(lit);
    }
    rw.finish(nl)
}

/// Report of a full [`optimize`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Gates before optimization.
    pub gates_before: usize,
    /// Gates after optimization.
    pub gates_after: usize,
}

/// Runs constant folding, inverter absorption and CSE as one sweep, then
/// [`dce`]: the netlist every one of the four passes leaves unchanged.
///
/// # Errors
///
/// Returns an error if the input netlist fails validation.
pub fn optimize(nl: &Netlist) -> Result<(Netlist, OptReport), NetlistError> {
    nl.validate()?;
    let (out, _) = dce(&sweep(nl, Rules { absorb: true, fold: true, share: true }).0);
    let report = OptReport { gates_before: nl.num_gates(), gates_after: out.num_gates() };
    Ok((out, report))
}

/// The widest cone [`lut_cover`] enumerates: a cone's truth table is a
/// `u16`, one bit per leaf pattern.
const MAX_CONE_WIDTH: usize = 4;

/// Configuration of the [`lut_cover`] analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutCoverConfig {
    /// Maximum cone width (leaves), `2..=4`.
    pub max_width: usize,
}

impl Default for LutCoverConfig {
    fn default() -> Self {
        LutCoverConfig { max_width: MAX_CONE_WIDTH }
    }
}

/// One cone chosen by [`lut_cover`]: `root` and the fanout-free gates
/// under it compute `table` from the values of `leaves`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cone {
    /// The gate whose value the cone computes.
    pub root: NodeId,
    /// The nodes the cone reads, in truth-table bit order.
    pub leaves: Vec<NodeId>,
    /// Bit `j` is the root's value when leaf `i` carries bit `i` of `j`.
    pub table: u16,
}

/// Report of a [`lut_cover`] run: what lowering the netlist to one lookup
/// table per chosen cone and per leftover gate would cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LutCoverReport {
    /// Multi-gate cones chosen.
    pub cones_fused: usize,
    /// Gates inside some cone below its root.
    pub gates_absorbed: usize,
    /// Lookup tables of the lowering: one per cone and per leftover
    /// non-constant gate.
    pub luts_emitted: usize,
    /// Bootstrapped gates of the netlist.
    pub bootstraps_before: usize,
    /// Bootstraps of the lowering. A table that is constant, a buffer or
    /// an inverter is affine on a message encoding and free, so leftover
    /// `NOT` and `BUF` gates and one-leaf cones cost nothing.
    pub bootstraps_after: usize,
}

impl LutCoverReport {
    /// Bootstraps the lowering would save.
    pub fn bootstraps_saved(&self) -> usize {
        self.bootstraps_before.saturating_sub(self.bootstraps_after)
    }
}

impl fmt::Display for LutCoverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cones fused, {} gates absorbed, {} LUTs emitted, {} -> {} bootstraps ({} saved)",
            self.cones_fused,
            self.gates_absorbed,
            self.luts_emitted,
            self.bootstraps_before,
            self.bootstraps_after,
            self.bootstraps_saved()
        )
    }
}

/// Covers the netlist with lookup-table cones, without rewriting it:
/// grows a fanout-free cone of up to `max_width` leaves under every
/// bootstrapped gate, latest roots first, and keeps the cones that absorb
/// at least two bootstrapped gates. Returns the chosen cones in ascending
/// root order and the bootstrap count of a netlist that evaluated each
/// cone, and each leftover gate, as one lookup table.
///
/// # Errors
///
/// Returns an error if the input netlist fails validation.
///
/// # Panics
///
/// Panics if `max_width` is outside `2..=4`.
pub fn lut_cover(
    nl: &Netlist,
    config: &LutCoverConfig,
) -> Result<(Vec<Cone>, LutCoverReport), NetlistError> {
    nl.validate()?;
    assert!(
        (2..=MAX_CONE_WIDTH).contains(&config.max_width),
        "max_width {} out of range",
        config.max_width
    );

    // Reference counts (gate operand reads + output marks) and output
    // flags: a gate is absorbable only when its sole consumer is inside
    // the cone being grown.
    let n = nl.num_nodes();
    let mut fanout = vec![0usize; n];
    let mut is_output = vec![false; n];
    for node in nl.nodes() {
        if let Node::Gate { kind, a, b } = *node {
            if kind.is_const() {
                continue;
            }
            fanout[a.index()] += 1;
            if !kind.is_unary() {
                fanout[b.index()] += 1;
            }
        }
    }
    for &out in nl.outputs() {
        fanout[out.index()] += 1;
        is_output[out.index()] = true;
    }

    // Is this node a gate a cone may swallow (anything but inputs and
    // constants)?
    let expandable =
        |id: NodeId| matches!(nl.node(id), Node::Gate { kind, .. } if !kind.is_const());
    let costs_bootstrap =
        |id: NodeId| matches!(nl.node(id), Node::Gate { kind, .. } if kind.is_costed());

    // Truth table of a cone: evaluate its members (ascending id = topo
    // order) over all leaf patterns. Values live at their leaf position,
    // then at the leaf count plus their member position; the root is last.
    let cone_table = |leaves: &[NodeId], members: &[NodeId]| -> u16 {
        let slot = |op: NodeId| match leaves.iter().position(|&leaf| leaf == op) {
            Some(j) => j,
            None => leaves.len() + members.binary_search(&op).expect("a member reads its cone"),
        };
        let reads: Vec<(GateKind, usize, usize)> = members
            .iter()
            .map(|&m| {
                let Node::Gate { kind, a, b } = nl.node(m) else { unreachable!() };
                (kind, slot(a), slot(b))
            })
            .collect();
        let mut values = vec![false; leaves.len() + reads.len()];
        let mut table = 0u16;
        for pattern in 0..1usize << leaves.len() {
            for (bit, value) in values[..leaves.len()].iter_mut().enumerate() {
                *value = (pattern >> bit) & 1 == 1;
            }
            for (k, &(kind, a, b)) in reads.iter().enumerate() {
                values[leaves.len() + k] = kind.eval(values[a], values[b]);
            }
            table |= u16::from(values[values.len() - 1]) << pattern;
        }
        table
    };

    // Grow a cone per root, most-recent roots first so deep cones get
    // first claim on shared structure.
    let mut absorbed = vec![false; n];
    let mut cones = Vec::new();
    for i in (0..n).rev() {
        let root = NodeId(i as u32);
        if absorbed[i] || !costs_bootstrap(root) {
            continue;
        }
        let Node::Gate { kind, a, b } = nl.node(root) else { unreachable!() };
        let mut leaves: Vec<NodeId> = vec![a];
        if !kind.is_unary() && b != a {
            leaves.push(b);
        }
        let mut members = vec![root];
        loop {
            // Find a leaf gate whose only consumer is this cone and whose
            // expansion keeps the leaf set within `max_width`.
            let candidate = leaves.iter().position(|&u| {
                if !expandable(u) || absorbed[u.index()] || is_output[u.index()] {
                    return false;
                }
                if fanout[u.index()] != 1 {
                    return false;
                }
                let Node::Gate { kind, a, b } = nl.node(u) else { unreachable!() };
                let mut grown = leaves.len() - 1;
                if !leaves.contains(&a) {
                    grown += 1;
                }
                if !kind.is_unary() && b != a && !leaves.contains(&b) {
                    grown += 1;
                }
                grown <= config.max_width
            });
            let Some(pos) = candidate else { break };
            let u = leaves.swap_remove(pos);
            let Node::Gate { kind, a, b } = nl.node(u) else { unreachable!() };
            if !leaves.contains(&a) {
                leaves.push(a);
            }
            if !kind.is_unary() && !leaves.contains(&b) {
                leaves.push(b);
            }
            members.push(u);
        }
        // Two bootstrapped gates under one table save one bootstrap.
        if members.iter().filter(|&&m| costs_bootstrap(m)).count() < 2 {
            continue;
        }
        for &m in &members[1..] {
            absorbed[m.index()] = true;
        }
        members.sort_unstable();
        let table = cone_table(&leaves, &members);
        cones.push(Cone { root, leaves, table });
    }
    cones.reverse();

    // A cone's table bootstraps unless it has one leaf (a buffer, an
    // inverter or a constant) or ignores its leaves; a leftover gate
    // bootstraps if it is binary.
    let constant =
        |c: &Cone| c.table == 0 || u32::from(c.table) == (1 << (1 << c.leaves.len())) - 1;
    let cone_bootstraps = cones.iter().filter(|c| c.leaves.len() > 1 && !constant(c)).count();
    let mut report = LutCoverReport {
        cones_fused: cones.len(),
        gates_absorbed: absorbed.iter().filter(|&&a| a).count(),
        luts_emitted: cones.len(),
        bootstraps_before: nl.num_bootstrapped_gates(),
        bootstraps_after: cone_bootstraps,
    };
    let mut roots = cones.iter().map(|c| c.root).peekable();
    for (i, node) in nl.nodes().iter().enumerate() {
        let Node::Gate { kind, .. } = *node else { continue };
        if roots.next_if_eq(&NodeId(i as u32)).is_some() || absorbed[i] || kind.is_const() {
            continue;
        }
        report.luts_emitted += 1;
        report.bootstraps_after += usize::from(!kind.is_unary());
    }
    debug_assert!(report.bootstraps_after <= report.bootstraps_before);
    Ok((cones, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks that `opt` preserves semantics of `nl` for every
    /// input combination (requires few inputs).
    fn assert_equivalent(nl: &Netlist, opt: &Netlist) {
        assert_eq!(nl.num_inputs(), opt.num_inputs());
        assert_eq!(nl.outputs().len(), opt.outputs().len());
        let n = nl.num_inputs();
        assert!(n <= 16, "too many inputs for exhaustive check");
        for bits in 0u32..(1 << n) {
            let input: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(nl.eval_plain(&input), opt.eval_plain(&input), "inputs {input:?}");
        }
    }

    #[test]
    fn fold_removes_constants() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let one = nl.add_gate(GateKind::Const1, a, a).unwrap();
        let g = nl.add_gate(GateKind::And, a, one).unwrap(); // = a
        let h = nl.add_gate(GateKind::Xor, g, a).unwrap(); // = 0
        let i = nl.add_gate(GateKind::Or, h, a).unwrap(); // = a
        nl.mark_output(i).unwrap();
        let (opt, stats) = constant_fold(&nl);
        assert_equivalent(&nl, &opt);
        assert_eq!(opt.num_gates(), 0, "everything folds to the input");
        assert_eq!(stats.removed(), 4);
    }

    #[test]
    fn fold_materializes_constant_outputs() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let x = nl.add_gate(GateKind::Xor, a, a).unwrap(); // = 0
        nl.mark_output(x).unwrap();
        let (opt, _) = constant_fold(&nl);
        assert_equivalent(&nl, &opt);
        assert_eq!(opt.num_gates(), 1); // one CONST0
    }

    #[test]
    fn fold_collapses_double_negation() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let n1 = nl.add_gate(GateKind::Not, a, a).unwrap();
        let n2 = nl.add_gate(GateKind::Not, n1, n1).unwrap();
        nl.mark_output(n2).unwrap();
        let (opt, _) = constant_fold(&nl);
        assert_equivalent(&nl, &opt);
        // n2 folds to `a`; n1 stays but is dead until DCE.
        let (opt, _) = dce(&opt);
        assert_eq!(opt.num_gates(), 0);
    }

    #[test]
    fn absorb_then_dce_removes_inverters() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let na = nl.add_gate(GateKind::Not, a, a).unwrap();
        let g = nl.add_gate(GateKind::And, na, b).unwrap(); // = ANDNY(a, b)
        nl.mark_output(g).unwrap();
        let (step, _) = absorb_inverters(&nl);
        assert_equivalent(&nl, &step);
        let (opt, _) = dce(&step);
        assert_equivalent(&nl, &opt);
        assert_eq!(opt.num_gates(), 1);
        assert!(matches!(opt.node(opt.outputs()[0]), Node::Gate { kind: GateKind::Andny, .. }));
    }

    #[test]
    fn cse_merges_duplicates_including_commuted() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let g1 = nl.add_gate(GateKind::Xor, a, b).unwrap();
        let g2 = nl.add_gate(GateKind::Xor, b, a).unwrap();
        let g3 = nl.add_gate(GateKind::Andyn, a, b).unwrap();
        let g4 = nl.add_gate(GateKind::Andny, b, a).unwrap(); // same fn as g3
        let h = nl.add_gate(GateKind::Or, g1, g2).unwrap();
        let i = nl.add_gate(GateKind::Or, g3, g4).unwrap();
        let j = nl.add_gate(GateKind::And, h, i).unwrap();
        nl.mark_output(j).unwrap();
        let (opt, _) = cse(&nl);
        assert_equivalent(&nl, &opt);
        let (opt, _) = dce(&opt);
        // g2 and g4 merged away; OR(x, x) shapes remain until folding.
        assert_eq!(opt.num_gates(), 5);
    }

    #[test]
    fn dce_removes_unreachable() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let live = nl.add_gate(GateKind::And, a, b).unwrap();
        let _dead = nl.add_gate(GateKind::Xor, a, b).unwrap();
        let _deader = nl.add_gate(GateKind::Or, _dead, b).unwrap();
        nl.mark_output(live).unwrap();
        let (opt, stats) = dce(&nl);
        assert_equivalent(&nl, &opt);
        assert_eq!(opt.num_gates(), 1);
        assert_eq!(stats.removed(), 2);
    }

    #[test]
    fn pipeline_reaches_fixpoint() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let one = nl.add_gate(GateKind::Const1, a, a).unwrap();
        let na = nl.add_gate(GateKind::Not, a, a).unwrap();
        let g1 = nl.add_gate(GateKind::And, na, one).unwrap(); // = !a
        let g2 = nl.add_gate(GateKind::Or, g1, b).unwrap(); // = ORNY(a, b)
        let g3 = nl.add_gate(GateKind::Or, g1, b).unwrap(); // duplicate
        let g4 = nl.add_gate(GateKind::And, g2, g3).unwrap(); // = g2
        nl.mark_output(g4).unwrap();
        let (opt, report) = optimize(&nl).unwrap();
        assert_equivalent(&nl, &opt);
        assert_eq!(opt.num_gates(), 1);
        assert_eq!(report.gates_before, 6);
        assert_eq!(report.gates_after, 1);
    }

    #[test]
    fn optimize_rejects_invalid() {
        let nl = Netlist::new();
        assert!(optimize(&nl).is_err());
    }

    /// A constant at node 0 has placeholder operands that name itself.
    #[test]
    fn passes_accept_a_constant_at_node_zero() {
        let mut nl = Netlist::new();
        let one = nl.add_gate(GateKind::Const1, NodeId(0), NodeId(0)).unwrap();
        let also = nl.add_gate(GateKind::Const1, NodeId(0), NodeId(0)).unwrap();
        nl.mark_output(one).unwrap();
        nl.mark_output(also).unwrap();
        let (deduped, stats) = cse(&nl);
        assert_eq!(deduped.num_gates(), 1);
        assert_eq!(stats.removed(), 1);
        assert_eq!(deduped.eval_plain(&[]), vec![true, true]);
        let (opt, _) = optimize(&nl).unwrap();
        assert_eq!(opt.eval_plain(&[]), vec![true, true]);
        let (cones, report) = lut_cover(&opt, &LutCoverConfig::default()).unwrap();
        assert!(cones.is_empty());
        assert_eq!(report.bootstraps_after, 0);
    }

    /// A 2-bit ripple-carry adder: classic multi-gate cones (sum and
    /// carry trees) with reconvergent fanout at the carry.
    fn two_bit_adder() -> Netlist {
        let mut nl = Netlist::new();
        let a0 = nl.add_input();
        let a1 = nl.add_input();
        let b0 = nl.add_input();
        let b1 = nl.add_input();
        let s0 = nl.add_gate(GateKind::Xor, a0, b0).unwrap();
        let c0 = nl.add_gate(GateKind::And, a0, b0).unwrap();
        let x1 = nl.add_gate(GateKind::Xor, a1, b1).unwrap();
        let s1 = nl.add_gate(GateKind::Xor, x1, c0).unwrap();
        let t1 = nl.add_gate(GateKind::And, x1, c0).unwrap();
        let t2 = nl.add_gate(GateKind::And, a1, b1).unwrap();
        let c1 = nl.add_gate(GateKind::Or, t1, t2).unwrap();
        nl.mark_output(s0).unwrap();
        nl.mark_output(s1).unwrap();
        nl.mark_output(c1).unwrap();
        nl
    }

    /// Checks every cone against the whole netlist: on every input
    /// pattern, the root's value is the table bit its leaves' values pick.
    fn assert_tables_hold(nl: &Netlist, cones: &[Cone]) {
        let mut all = nl.clone();
        for i in 0..all.num_nodes() {
            all.mark_output(NodeId(i as u32)).unwrap();
        }
        for pattern in 0..1u32 << nl.num_inputs() {
            let bits: Vec<bool> = (0..nl.num_inputs()).map(|i| (pattern >> i) & 1 == 1).collect();
            let values = all.eval_plain(&bits);
            let values = &values[nl.outputs().len()..];
            for cone in cones {
                let j = cone
                    .leaves
                    .iter()
                    .enumerate()
                    .fold(0, |j, (bit, leaf)| j | usize::from(values[leaf.index()]) << bit);
                assert_eq!((cone.table >> j) & 1 == 1, values[cone.root.index()], "{cone:?}");
            }
        }
    }

    #[test]
    fn lut_cover_chooses_cones_that_save_bootstraps() {
        let nl = two_bit_adder();
        let (cones, report) = lut_cover(&nl, &LutCoverConfig::default()).unwrap();
        assert_tables_hold(&nl, &cones);
        // The carry's two ANDs fold under its OR; every other gate is
        // shared or an output.
        let leaves: Vec<NodeId> = [5, 6, 1, 3].map(NodeId).to_vec();
        assert_eq!(
            cones.iter().map(|c| (c.root, &c.leaves)).collect::<Vec<_>>(),
            [(NodeId(10), &leaves)]
        );
        let want = LutCoverReport {
            cones_fused: 1,
            gates_absorbed: 2,
            luts_emitted: 5,
            bootstraps_before: 7,
            bootstraps_after: 5,
        };
        assert_eq!(report, want);
    }

    #[test]
    fn lut_cover_respects_width_limit() {
        let nl = two_bit_adder();
        for max_width in 2..=4 {
            let (cones, _) = lut_cover(&nl, &LutCoverConfig { max_width }).unwrap();
            assert_tables_hold(&nl, &cones);
            assert!(cones.iter().all(|c| c.leaves.len() <= max_width), "{cones:?}");
        }
    }

    #[test]
    fn lut_cover_keeps_shared_gates_unfused() {
        // `shared` has fanout 2 (both consumers), so no cone swallows it.
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let c = nl.add_input();
        let shared = nl.add_gate(GateKind::And, a, b).unwrap();
        let u = nl.add_gate(GateKind::Xor, shared, c).unwrap();
        let v = nl.add_gate(GateKind::Or, shared, c).unwrap();
        nl.mark_output(u).unwrap();
        nl.mark_output(v).unwrap();
        let (cones, report) = lut_cover(&nl, &LutCoverConfig::default()).unwrap();
        // No single-consumer interior gates exist, so nothing fuses and
        // the bootstrap count carries over 1:1.
        assert!(cones.is_empty());
        assert_eq!(report.cones_fused, 0);
        assert_eq!(report.bootstraps_after, report.bootstraps_before);
    }

    #[test]
    fn lut_cover_absorbs_inverter_chains() {
        // NOT(AND(NOT a, b)) collapses into one width-2 table.
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let na = nl.add_gate(GateKind::Not, a, a).unwrap();
        let g = nl.add_gate(GateKind::And, na, b).unwrap();
        let out = nl.add_gate(GateKind::Not, g, g).unwrap();
        nl.mark_output(out).unwrap();
        let (cones, report) = lut_cover(&nl, &LutCoverConfig::default()).unwrap();
        assert_tables_hold(&nl, &cones);
        assert_eq!(cones, [Cone { root: out, leaves: vec![b, a], table: 0b1101 }]);
        assert_eq!(report.cones_fused, 1);
        assert_eq!(report.bootstraps_after, 1);
    }

    #[test]
    fn ports_survive_optimization() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        nl.declare_input_port("x", vec![a, b]).unwrap();
        let one = nl.add_gate(GateKind::Const1, a, a).unwrap();
        let g = nl.add_gate(GateKind::And, a, one).unwrap();
        let h = nl.add_gate(GateKind::Xor, g, b).unwrap();
        nl.declare_output_port("y", vec![h]).unwrap();
        let (opt, _) = optimize(&nl).unwrap();
        assert_eq!(opt.input_ports().len(), 1);
        assert_eq!(opt.input_ports()[0].bits.len(), 2);
        assert_eq!(opt.output_ports().len(), 1);
        assert_eq!(opt.outputs().len(), 1);
        assert_equivalent(&nl, &opt);
    }
}
