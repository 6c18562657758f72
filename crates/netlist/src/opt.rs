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
//! * [`optimize`] — runs the full pipeline to a fixpoint.
//!
//! All passes preserve the number and order of primary inputs and outputs,
//! so an optimized netlist is a drop-in replacement for the original.

//! A fifth pass changes the *execution model* rather than the gate count
//! and therefore runs separately from [`optimize`]:
//!
//! * [`lut_cover`] — extracts fanout-free multi-gate cones of up to
//!   `max_width` inputs and fuses each into a single [`Node::Lut`]
//!   evaluated by one programmable bootstrap, then lowers every
//!   remaining gate to an equivalent width-≤2 LUT so the whole netlist
//!   runs on one message encoding. Cones are fused only when they
//!   strictly reduce the bootstrap count.

use crate::{GateKind, LevelSchedule, LutSpec, Netlist, NetlistError, Node, NodeId, Port};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher in the style of rustc's `FxHasher`: one rotate,
/// xor and multiply per word. [`cse`] keys its tables by gate kinds and
/// node ids of netlists the caller built (the serve protocol never runs
/// the optimizer on a received program), so SipHash's resistance to
/// chosen keys buys nothing.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Result of resolving an old node through a rewrite: either a known
/// constant or a node in the new netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Lit {
    Const(bool),
    Id(NodeId),
}

/// Bookkeeping shared by all passes: maps old node ids to new literals and
/// rebuilds ports/outputs at the end.
struct Rewriter {
    out: Netlist,
    map: Vec<Lit>,
}

impl Rewriter {
    fn new(nl: &Netlist) -> Self {
        Rewriter {
            out: Netlist::with_capacity(nl.num_nodes()),
            map: Vec::with_capacity(nl.num_nodes()),
        }
    }

    /// Copies a primary input (inputs are always preserved).
    fn copy_input(&mut self) {
        let id = self.out.add_input();
        self.map.push(Lit::Id(id));
    }

    fn resolve(&self, old: NodeId) -> Lit {
        self.map[old.index()]
    }

    /// The new node of `old`, for passes that never fold to a constant.
    fn id(&self, old: NodeId) -> NodeId {
        match self.resolve(old) {
            Lit::Id(id) => id,
            Lit::Const(_) => unreachable!("an operand read by the pass folded to a constant"),
        }
    }

    /// Materializes a literal as a node id in the new netlist (constants
    /// become `CONST` gates). Needed for outputs, which must be node ids.
    fn materialize(&mut self, lit: Lit) -> NodeId {
        match lit {
            Lit::Id(id) => id,
            Lit::Const(b) => {
                let kind = if b { GateKind::Const1 } else { GateKind::Const0 };
                let zero = NodeId(0);
                self.out
                    .add_gate(kind, zero, zero)
                    .expect("materializing a constant cannot fail: node 0 exists")
            }
        }
    }

    /// Finishes the rewrite: rebuilds outputs and ports of `src` in the new
    /// netlist.
    fn finish(mut self, src: &Netlist) -> Netlist {
        debug_assert_eq!(self.map.len(), src.num_nodes());
        let outputs: Vec<Lit> = src.outputs().iter().map(|&o| self.resolve(o)).collect();
        // Output ports first (they mark their own outputs); plain outputs
        // that belong to no port are re-marked individually. To preserve
        // output *order* exactly we bypass declare_output_port and rebuild
        // both lists manually.
        for lit in outputs {
            let id = self.materialize(lit);
            self.out.mark_output(id).expect("materialized output exists");
        }
        let in_ports: Vec<Port> = src
            .input_ports()
            .iter()
            .map(|p| Port {
                name: p.name.clone(),
                bits: p
                    .bits
                    .iter()
                    .map(|&b| match self.resolve(b) {
                        Lit::Id(id) => id,
                        Lit::Const(_) => unreachable!("primary inputs never fold to constants"),
                    })
                    .collect(),
            })
            .collect();
        for p in in_ports {
            self.out.declare_input_port(p.name, p.bits).expect("rewritten input port stays valid");
        }
        let out_ports: Vec<(String, Vec<Lit>)> = src
            .output_ports()
            .iter()
            .map(|p| (p.name.clone(), p.bits.iter().map(|&b| self.resolve(b)).collect()))
            .collect();
        for (name, lits) in out_ports {
            let bits: Vec<NodeId> = lits.into_iter().map(|l| self.materialize(l)).collect();
            // Port bits were already marked as outputs above (output ports
            // contribute to `outputs()`), so only record the port metadata.
            self.out.push_output_port_raw(name, bits);
        }
        self.out
    }
}

impl Netlist {
    /// Records output-port metadata without re-marking outputs; used by the
    /// rewriter, which reconstructs the flat output list itself to preserve
    /// ordering exactly.
    pub(crate) fn push_output_port_raw(&mut self, name: String, bits: Vec<NodeId>) {
        // Reuse declare_output_port's validation but drop the extra marks it
        // added: it appends `bits.len()` entries at the tail.
        let before = self.outputs().len();
        self.declare_output_port(name, bits).expect("rewritten output port stays valid");
        self.truncate_outputs(before);
    }

    pub(crate) fn truncate_outputs(&mut self, len: usize) {
        self.truncate_outputs_impl(len);
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

/// Propagates constants, simplifies same-operand identities, and removes
/// buffers and double negations.
pub fn constant_fold(nl: &Netlist) -> (Netlist, PassStats) {
    let before = nl.num_gates();
    let mut rw = Rewriter::new(nl);
    for node in nl.nodes() {
        match *node {
            Node::Input => rw.copy_input(),
            Node::Gate { kind, a, b } => {
                let lit = if kind.is_const() {
                    Lit::Const(kind == GateKind::Const1)
                } else {
                    let la = rw.resolve(a);
                    let lb = rw.resolve(b);
                    fold_gate(&mut rw, kind, la, lb)
                };
                rw.map.push(lit);
            }
            Node::Lut { spec, ins } => {
                let lit = fold_lut(&mut rw, spec, &ins);
                rw.map.push(lit);
            }
        }
    }
    let out = rw.finish(nl);
    let stats = PassStats { gates_before: before, gates_after: out.num_gates() };
    (out, stats)
}

/// Folds a LUT node: constant inputs specialize the table to a narrower
/// LUT; fully-constant and passthrough tables disappear. The result stays
/// in LUT form (never a two-input [`GateKind`]), preserving the lowered
/// netlist's single-encoding invariant.
fn fold_lut(rw: &mut Rewriter, spec: LutSpec, ins: &[NodeId]) -> Lit {
    let mut width = spec.width;
    let mut table = spec.table;
    let mut ops: Vec<NodeId> = Vec::with_capacity(width as usize);
    for &input in ins.iter().take(spec.width as usize) {
        match rw.resolve(input) {
            Lit::Id(id) => ops.push(id),
            Lit::Const(c) => {
                // Fix the input currently at position `ops.len()` to `c`:
                // keep the table entries whose bit at that position is `c`.
                let pos = ops.len();
                let mut narrowed = 0u16;
                for j in 0..1usize << (width - 1) {
                    let low = j & ((1 << pos) - 1);
                    let high = j >> pos;
                    let full = low | (usize::from(c) << pos) | (high << (pos + 1));
                    narrowed |= ((table >> full) & 1) << j;
                }
                table = narrowed;
                width -= 1;
            }
        }
    }
    if width == 0 {
        return Lit::Const(table & 1 == 1);
    }
    let folded = LutSpec::new(width, spec.precision, table);
    if let Some(c) = folded.as_const() {
        return Lit::Const(c);
    }
    if folded.is_passthrough() {
        return Lit::Id(ops[0]);
    }
    Lit::Id(rw.out.add_lut(folded, &ops).expect("operands exist in rewritten netlist"))
}

/// Core folding rules for a single gate; emits a gate only when no rule
/// applies.
fn fold_gate(rw: &mut Rewriter, kind: GateKind, la: Lit, lb: Lit) -> Lit {
    use GateKind::*;
    // Rule 0: constants evaluate immediately.
    if kind == Const0 {
        return Lit::Const(false);
    }
    if kind == Const1 {
        return Lit::Const(true);
    }
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
    // Rule 4: same-operand identities.
    if la == lb {
        let (Lit::Id(id),) = (la,) else { unreachable!() };
        return match kind {
            And | Or => Lit::Id(id),
            Xor => Lit::Const(false),
            Xnor | Orny | Oryn => Lit::Const(true),
            Andny | Andyn => Lit::Const(false),
            Nand | Nor => emit_not(rw, id),
            Not | Buf | Const0 | Const1 => unreachable!("handled above"),
        };
    }
    let (Lit::Id(ia), Lit::Id(ib)) = (la, lb) else { unreachable!() };
    Lit::Id(rw.out.add_gate(kind, ia, ib).expect("operands exist in rewritten netlist"))
}

/// Emits (or folds) a NOT of an existing new-netlist node.
fn emit_not(rw: &mut Rewriter, id: NodeId) -> Lit {
    // Collapse double negation: NOT(NOT(x)) = x.
    if let Node::Gate { kind: GateKind::Not, a, .. } = rw.out.node(id) {
        return Lit::Id(a);
    }
    Lit::Id(rw.out.add_gate(GateKind::Not, id, id).expect("operand exists"))
}

/// Specializes a binary gate with one constant operand. `c` is the constant;
/// `other` the remaining operand; `const_is_a` says which side it was on.
fn specialize(rw: &mut Rewriter, kind: GateKind, c: bool, other: Lit, const_is_a: bool) -> Lit {
    // Evaluate the gate's restriction to the free variable: f(c, x) (or
    // f(x, c)) is one of {0, 1, x, !x}.
    let f = |x: bool| if const_is_a { kind.eval(c, x) } else { kind.eval(x, c) };
    let f0 = f(false);
    let f1 = f(true);
    match (f0, f1) {
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
    let before = nl.num_gates();
    // Which old nodes are inverters (NOT gates or negation LUTs), and
    // what do they negate?
    let negand: Vec<Option<NodeId>> = nl
        .nodes()
        .iter()
        .map(|n| match n {
            Node::Gate { kind: GateKind::Not, a, .. } => Some(*a),
            Node::Lut { spec, ins } if spec.is_negation() => Some(ins[0]),
            _ => None,
        })
        .collect();
    let mut rw = Rewriter::new(nl);
    for node in nl.nodes() {
        match *node {
            Node::Input => rw.copy_input(),
            Node::Gate { mut kind, mut a, mut b } => {
                if kind.is_const() {
                    let id = rw.out.add_gate(kind, NodeId(0), NodeId(0)).expect("const gate");
                    rw.map.push(Lit::Id(id));
                    continue;
                }
                if let (Some(na), Some(k)) = (negand[a.index()], kind.absorb_not_a()) {
                    kind = k;
                    a = na;
                    if kind.is_unary() {
                        b = a;
                    }
                }
                if !kind.is_unary() && !kind.is_const() {
                    if let (Some(nb), Some(k)) = (negand[b.index()], kind.absorb_not_b()) {
                        kind = k;
                        b = nb;
                    }
                }
                let id = rw.out.add_gate(kind, rw.id(a), rw.id(b)).expect("operands exist");
                rw.map.push(Lit::Id(id));
            }
            Node::Lut { spec, mut ins } => {
                // An inverter feeding input `i` folds into the table by
                // flipping the table along that axis.
                let mut table = spec.table;
                for i in 0..spec.width as usize {
                    if let Some(n) = negand[ins[i].index()] {
                        ins[i] = n;
                        let mut flipped = 0u16;
                        for j in 0..spec.entries() {
                            flipped |= ((table >> (j ^ (1 << i))) & 1) << j;
                        }
                        table = flipped;
                    }
                }
                let folded = LutSpec::new(spec.width, spec.precision, table);
                let id = rw.out.add_lut(folded, &ins.map(|op| rw.id(op))).expect("operands exist");
                rw.map.push(Lit::Id(id));
            }
        }
    }
    let out = rw.finish(nl);
    let stats = PassStats { gates_before: before, gates_after: out.num_gates() };
    (out, stats)
}

/// Structural common-subexpression elimination: two gates with the same
/// function and operands (up to commutativity) are merged, and so are two
/// LUTs with the same spec and operands.
///
/// Structurally equal nodes share a topological level: their operands have
/// the same representatives, which by induction sit at the same levels. So
/// the pass deduplicates one [`LevelSchedule`] wave at a time, with tables
/// the size of a wave, and takes the smallest old id of each class as its
/// representative. A second pass in node order emits the representatives;
/// they keep their relative order, so operands canonicalised by old
/// representative id come out in the order their new ids have.
pub fn cse(nl: &Netlist) -> (Netlist, PassStats) {
    let before = nl.num_gates();
    let nodes = nl.nodes();
    let mut rep: Vec<NodeId> = (0..nodes.len() as u32).map(NodeId).collect();
    let mut gates: FxHashMap<(GateKind, NodeId, NodeId), NodeId> = FxHashMap::default();
    let mut luts: FxHashMap<(LutSpec, [NodeId; crate::MAX_LUT_INPUTS]), NodeId> =
        FxHashMap::default();
    for wave in &LevelSchedule::compute(nl).waves {
        gates.clear();
        luts.clear();
        for &i in wave {
            let id = NodeId(i);
            rep[id.index()] = match nodes[id.index()] {
                Node::Input => unreachable!("waves hold gates only"),
                Node::Gate { kind, a, b } => {
                    *gates.entry(canonical_gate(kind, rep[a.index()], rep[b.index()])).or_insert(id)
                }
                Node::Lut { spec, ins } => {
                    *luts.entry((spec, ins.map(|op| rep[op.index()]))).or_insert(id)
                }
            };
        }
    }
    let mut rw = Rewriter::new(nl);
    for (i, node) in nodes.iter().enumerate() {
        if rep[i].index() != i {
            rw.map.push(rw.resolve(rep[i]));
            continue;
        }
        let id = match *node {
            Node::Input => {
                rw.copy_input();
                continue;
            }
            // A constant's operands are placeholders that need not exist.
            Node::Gate { kind, .. } if kind.is_const() => {
                rw.out.add_gate(kind, NodeId(0), NodeId(0))
            }
            Node::Gate { kind, a, b } => {
                let (k, a, b) = canonical_gate(kind, rw.id(a), rw.id(b));
                rw.out.add_gate(k, a, b)
            }
            Node::Lut { spec, ins } => rw.out.add_lut(spec, &ins.map(|op| rw.id(op))),
        };
        rw.map.push(Lit::Id(id.expect("operands exist")));
    }
    let out = rw.finish(nl);
    let stats = PassStats { gates_before: before, gates_after: out.num_gates() };
    (out, stats)
}

/// The form [`cse`] compares gates in: constants drop their operands, unary
/// gates read `a` twice, and the lower operand goes first (a non-commutative
/// gate swaps its kind with them).
fn canonical_gate(kind: GateKind, a: NodeId, b: NodeId) -> (GateKind, NodeId, NodeId) {
    if kind.is_const() {
        (kind, NodeId(0), NodeId(0))
    } else if kind.is_unary() {
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
    let before = nl.num_gates();
    let mut live = vec![false; nl.num_nodes()];
    for &out in nl.outputs() {
        live[out.index()] = true;
    }
    for i in (0..nl.num_nodes()).rev() {
        if !live[i] {
            continue;
        }
        match nl.nodes()[i] {
            Node::Gate { kind, a, b } => {
                if !kind.is_const() {
                    live[a.index()] = true;
                    if !kind.is_unary() {
                        live[b.index()] = true;
                    }
                }
            }
            Node::Lut { spec, ins } => {
                for op in &ins[..spec.width as usize] {
                    live[op.index()] = true;
                }
            }
            Node::Input => {}
        }
    }
    let mut rw = Rewriter::new(nl);
    for (i, node) in nl.nodes().iter().enumerate() {
        match *node {
            Node::Input => rw.copy_input(),
            Node::Lut { spec, ins } => {
                if live[i] {
                    let id =
                        rw.out.add_lut(spec, &ins.map(|op| rw.id(op))).expect("operands exist");
                    rw.map.push(Lit::Id(id));
                } else {
                    rw.map.push(Lit::Const(false));
                }
            }
            Node::Gate { kind, a, b } => {
                if live[i] {
                    if kind.is_const() {
                        let id = rw.out.add_gate(kind, NodeId(0), NodeId(0)).expect("const");
                        rw.map.push(Lit::Id(id));
                        continue;
                    }
                    let id = rw.out.add_gate(kind, rw.id(a), rw.id(b)).expect("operands exist");
                    rw.map.push(Lit::Id(id));
                } else {
                    // Dead; map to an arbitrary placeholder that nothing will
                    // read. Use the gate's own (live-mapped or not) first
                    // operand id 0 sentinel via a constant literal.
                    rw.map.push(Lit::Const(false));
                }
            }
        }
    }
    let out = rw.finish(nl);
    let stats = PassStats { gates_before: before, gates_after: out.num_gates() };
    (out, stats)
}

/// Configuration of the full optimization pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Run constant folding.
    pub fold: bool,
    /// Run inverter absorption.
    pub absorb: bool,
    /// Run common-subexpression elimination.
    pub cse: bool,
    /// Run dead-code elimination.
    pub dce: bool,
    /// Maximum number of pipeline iterations before giving up on reaching a
    /// fixpoint.
    pub max_iterations: usize,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig { fold: true, absorb: true, cse: true, dce: true, max_iterations: 8 }
    }
}

impl OptConfig {
    /// Everything disabled — the configuration the Cingulata/E3-style
    /// baselines run with (Section III-B: "Both Cingulata and E3 do not
    /// provide any gate-level or boolean optimizations").
    pub fn none() -> Self {
        OptConfig { fold: false, absorb: false, cse: false, dce: false, max_iterations: 0 }
    }
}

/// Report of a full [`optimize`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Gates before optimization.
    pub gates_before: usize,
    /// Gates after optimization.
    pub gates_after: usize,
    /// Pipeline iterations executed.
    pub iterations: usize,
}

/// Runs the configured passes to a fixpoint (or `max_iterations`).
///
/// # Errors
///
/// Returns an error if the input netlist fails validation.
pub fn optimize(nl: &Netlist, config: &OptConfig) -> Result<(Netlist, OptReport), NetlistError> {
    nl.validate()?;
    let mut report =
        OptReport { gates_before: nl.num_gates(), gates_after: nl.num_gates(), iterations: 0 };
    type Pass = fn(&Netlist) -> (Netlist, PassStats);
    let passes: [(bool, Pass); 4] = [
        (config.fold, constant_fold),
        (config.absorb, absorb_inverters),
        (config.cse, cse),
        (config.dce, dce),
    ];
    // The first enabled pass reads `nl` itself.
    let mut current = Cow::Borrowed(nl);
    for _ in 0..config.max_iterations {
        let gates_at_start = current.num_gates();
        for &(enabled, pass) in &passes {
            if enabled {
                current = Cow::Owned(pass(&current).0);
            }
        }
        report.iterations += 1;
        if current.num_gates() == gates_at_start {
            break;
        }
    }
    report.gates_after = current.num_gates();
    Ok((current.into_owned(), report))
}

/// Configuration of the [`lut_cover`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutCoverConfig {
    /// Maximum cone width (LUT inputs), `2..=MAX_LUT_INPUTS`. Callers
    /// should clamp this to what the target parameter set can decode
    /// (`NoiseModel::max_lut_width` in `pytfhe-tfhe`).
    pub max_width: usize,
    /// Minimum number of bootstrapped gates a cone must absorb to be
    /// fused. The default of 2 fuses only cones that strictly reduce the
    /// bootstrap count (2 gates → 1 programmable bootstrap).
    pub min_absorbed: usize,
}

impl Default for LutCoverConfig {
    fn default() -> Self {
        LutCoverConfig { max_width: crate::MAX_LUT_INPUTS, min_absorbed: 2 }
    }
}

/// Report of a [`lut_cover`] run — the LUT-cone coverage numbers
/// surfaced by `netlist::stats` consumers and the shortint benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LutCoverReport {
    /// Multi-gate cones fused into LUT nodes.
    pub cones_fused: usize,
    /// Gates absorbed into some cone (removed from the netlist).
    pub gates_absorbed: usize,
    /// LUT nodes in the lowered netlist (fused cones plus 1:1-lowered
    /// leftover gates).
    pub luts_emitted: usize,
    /// Bootstrapped gates before lowering.
    pub bootstraps_before: usize,
    /// Bootstrapping programmable LUT evaluations after lowering.
    pub bootstraps_after: usize,
}

impl LutCoverReport {
    /// Bootstraps eliminated by the pass.
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

/// Covers the netlist with fused LUT cones and lowers it to the message
/// encoding: fanout-free cones of up to `max_width` inputs whose fusion
/// strictly reduces the bootstrap count become single [`Node::Lut`]
/// nodes, and every remaining gate is converted to the equivalent
/// width-≤2 LUT so all wires share one message encoding. Constants stay
/// as [`GateKind::Const0`]/[`GateKind::Const1`] gates (executed as
/// trivial message-encoded samples).
///
/// The lowered netlist computes the same function — `eval_plain` results
/// are bit-identical — but executes each fused cone with one
/// programmable bootstrap instead of one bootstrap per gate.
///
/// A netlist that already contains LUT nodes is returned unchanged with
/// an identity report (the pass is not re-entrant: the cone-growth cost
/// model reasons about two-input gates).
///
/// # Errors
///
/// Returns an error if the input netlist fails validation.
pub fn lut_cover(
    nl: &Netlist,
    config: &LutCoverConfig,
) -> Result<(Netlist, LutCoverReport), NetlistError> {
    nl.validate()?;
    assert!(
        (2..=crate::MAX_LUT_INPUTS).contains(&config.max_width),
        "max_width {} out of range",
        config.max_width
    );
    let identity = LutCoverReport {
        bootstraps_before: nl.num_bootstrapped_gates(),
        bootstraps_after: nl.num_bootstrapped_gates(),
        luts_emitted: nl.num_luts(),
        ..LutCoverReport::default()
    };
    if nl.num_luts() > 0 {
        return Ok((nl.clone(), identity));
    }

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
    let expandable = |id: NodeId| match nl.node(id) {
        Node::Gate { kind, .. } => !kind.is_const(),
        _ => false,
    };
    let costs_bootstrap = |id: NodeId| match nl.node(id) {
        Node::Gate { kind, .. } => !kind.is_const() && kind != GateKind::Buf,
        _ => false,
    };

    // Grow a cone per root, most-recent roots first so deep cones get
    // first claim on shared structure.
    let mut absorbed = vec![false; n];
    struct Cone {
        leaves: Vec<NodeId>,
        members: Vec<NodeId>, // ascending id order, root included
    }
    let mut cones: Vec<Option<Cone>> = Vec::new();
    cones.resize_with(n, || None);
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
        let absorbed_bootstraps = members.iter().filter(|&&m| costs_bootstrap(m)).count();
        if members.len() < 2 || absorbed_bootstraps < config.min_absorbed {
            continue;
        }
        for &m in &members {
            if m != root {
                absorbed[m.index()] = true;
            }
        }
        members.sort_unstable();
        cones[i] = Some(Cone { leaves, members });
    }

    // One netlist-global wire precision: the widest fused cone (and at
    // least 2, the width of 1:1-lowered binary gates).
    let q = cones.iter().flatten().map(|c| c.leaves.len()).max().unwrap_or(0).max(2) as u8;

    // Truth table of a cone: evaluate its members (ascending id = topo
    // order) over all leaf patterns. Values live at their leaf position,
    // then at the leaf count plus their member position; the root is last.
    let cone_table = |cone: &Cone| -> u16 {
        let leaves = cone.leaves.len();
        let slot = |op: NodeId| match cone.leaves.iter().position(|&leaf| leaf == op) {
            Some(j) => j,
            None => leaves + cone.members.binary_search(&op).expect("a member reads its cone"),
        };
        let reads: Vec<(GateKind, usize, usize)> = cone
            .members
            .iter()
            .map(|&m| {
                let Node::Gate { kind, a, b } = nl.node(m) else { unreachable!() };
                (kind, slot(a), slot(b))
            })
            .collect();
        let mut values = vec![false; leaves + reads.len()];
        let mut table = 0u16;
        for pattern in 0..1usize << leaves {
            for (bit, value) in values[..leaves].iter_mut().enumerate() {
                *value = (pattern >> bit) & 1 == 1;
            }
            for (k, &(kind, a, b)) in reads.iter().enumerate() {
                values[leaves + k] = kind.eval(values[a], values[b]);
            }
            table |= u16::from(values[values.len() - 1]) << pattern;
        }
        table
    };

    // Rebuild: fused roots become wide LUTs, leftover gates lower 1:1.
    let mut rw = Rewriter::new(nl);
    let mut report = LutCoverReport {
        cones_fused: cones.iter().flatten().count(),
        bootstraps_before: nl.num_bootstrapped_gates(),
        ..LutCoverReport::default()
    };
    for (i, node) in nl.nodes().iter().enumerate() {
        match *node {
            Node::Input => rw.copy_input(),
            Node::Lut { .. } => unreachable!("handled by the early return"),
            Node::Gate { kind, a, b } => {
                if absorbed[i] {
                    // Swallowed by some cone; nothing reads this slot.
                    rw.map.push(Lit::Const(false));
                    report.gates_absorbed += 1;
                    continue;
                }
                if let Some(cone) = &cones[i] {
                    let table = cone_table(cone);
                    let ops: Vec<NodeId> = cone.leaves.iter().map(|&l| rw.id(l)).collect();
                    let spec = LutSpec::new(cone.leaves.len() as u8, q, table);
                    rw.map.push(Lit::Id(rw.out.add_lut(spec, &ops).expect("leaves exist")));
                    continue;
                }
                if kind.is_const() {
                    let id = rw.out.add_gate(kind, NodeId(0), NodeId(0)).expect("const gate");
                    rw.map.push(Lit::Id(id));
                    continue;
                }
                let (ia, ib) = (rw.id(a), rw.id(b));
                let lit = if kind.is_unary() {
                    let table = if kind == GateKind::Not { 0b01 } else { 0b10 };
                    Lit::Id(rw.out.add_lut(LutSpec::new(1, q, table), &[ia]).expect("operand"))
                } else {
                    let mut table = 0u16;
                    for j in 0..4usize {
                        table |= u16::from(kind.eval(j & 1 == 1, j >> 1 == 1)) << j;
                    }
                    Lit::Id(
                        rw.out
                            .add_lut(LutSpec::new(2, q, table), &[ia, ib])
                            .expect("operands exist"),
                    )
                };
                rw.map.push(lit);
            }
        }
    }
    let out = rw.finish(nl);
    report.luts_emitted = out.num_luts();
    report.bootstraps_after = out.num_bootstrapped_gates();
    debug_assert!(report.bootstraps_after <= report.bootstraps_before);
    Ok((out, report))
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
        let (opt, report) = optimize(&nl, &OptConfig::default()).unwrap();
        assert_equivalent(&nl, &opt);
        assert_eq!(opt.num_gates(), 1);
        assert!(report.iterations >= 1);
        assert_eq!(report.gates_before, 6);
        assert_eq!(report.gates_after, 1);
    }

    #[test]
    fn optimize_none_is_identity() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let g = nl.add_gate(GateKind::Buf, a, a).unwrap();
        nl.mark_output(g).unwrap();
        let (opt, report) = optimize(&nl, &OptConfig::none()).unwrap();
        assert_eq!(opt.num_gates(), 1);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn optimize_rejects_invalid() {
        let nl = Netlist::new();
        assert!(optimize(&nl, &OptConfig::default()).is_err());
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
        let (opt, _) = optimize(&nl, &OptConfig::default()).unwrap();
        assert_eq!(opt.eval_plain(&[]), vec![true, true]);
        let (covered, _) = lut_cover(&opt, &LutCoverConfig::default()).unwrap();
        assert_eq!(covered.eval_plain(&[]), vec![true, true]);
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

    #[test]
    fn lut_cover_fuses_cones_and_preserves_semantics() {
        let nl = two_bit_adder();
        let (lowered, report) = lut_cover(&nl, &LutCoverConfig::default()).unwrap();
        assert_equivalent(&nl, &lowered);
        lowered.validate().unwrap();
        // Lowered netlists hold only Input/Lut/Const nodes.
        for node in lowered.nodes() {
            match node {
                Node::Input | Node::Lut { .. } => {}
                Node::Gate { kind, .. } => assert!(kind.is_const(), "leftover gate {kind}"),
            }
        }
        assert!(report.cones_fused >= 1, "{report}");
        assert!(report.gates_absorbed >= 1, "{report}");
        assert!(
            report.bootstraps_after < report.bootstraps_before,
            "fusion must strictly reduce bootstraps: {report}"
        );
        assert_eq!(report.luts_emitted, lowered.num_luts());
        // All LUTs share the netlist-global precision.
        let q = lowered.lut_precision().unwrap();
        for node in lowered.nodes() {
            if let Node::Lut { spec, .. } = node {
                assert_eq!(spec.precision, q);
                assert!(spec.width <= q);
            }
        }
    }

    #[test]
    fn lut_cover_respects_width_limit() {
        let nl = two_bit_adder();
        for max_width in 2..=4 {
            let cfg = LutCoverConfig { max_width, ..LutCoverConfig::default() };
            let (lowered, _) = lut_cover(&nl, &cfg).unwrap();
            assert_equivalent(&nl, &lowered);
            for node in lowered.nodes() {
                if let Node::Lut { spec, .. } = node {
                    assert!((spec.width as usize) <= max_width);
                }
            }
        }
    }

    #[test]
    fn lut_cover_keeps_shared_gates_unfused() {
        // c0 has fanout 2 (both consumers), so it must stay its own LUT.
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let c = nl.add_input();
        let shared = nl.add_gate(GateKind::And, a, b).unwrap();
        let u = nl.add_gate(GateKind::Xor, shared, c).unwrap();
        let v = nl.add_gate(GateKind::Or, shared, c).unwrap();
        nl.mark_output(u).unwrap();
        nl.mark_output(v).unwrap();
        let (lowered, report) = lut_cover(&nl, &LutCoverConfig::default()).unwrap();
        assert_equivalent(&nl, &lowered);
        // No single-consumer interior gates exist, so nothing fuses and
        // the bootstrap count carries over 1:1.
        assert_eq!(report.cones_fused, 0);
        assert_eq!(report.bootstraps_after, report.bootstraps_before);
    }

    #[test]
    fn lut_cover_absorbs_inverter_chains() {
        // NOT(AND(NOT a, b)) collapses into one width-2 LUT.
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let na = nl.add_gate(GateKind::Not, a, a).unwrap();
        let g = nl.add_gate(GateKind::And, na, b).unwrap();
        let out = nl.add_gate(GateKind::Not, g, g).unwrap();
        nl.mark_output(out).unwrap();
        let (lowered, report) = lut_cover(&nl, &LutCoverConfig::default()).unwrap();
        assert_equivalent(&nl, &lowered);
        assert_eq!(report.cones_fused, 1);
        assert_eq!(lowered.num_bootstrapped_gates(), 1);
    }

    #[test]
    fn lowered_netlists_survive_the_optimizer() {
        let nl = two_bit_adder();
        let (lowered, _) = lut_cover(&nl, &LutCoverConfig::default()).unwrap();
        let (opt, _) = optimize(&lowered, &OptConfig::default()).unwrap();
        assert_equivalent(&nl, &opt);
        // The optimizer must not resurrect two-input boolean gates.
        for node in opt.nodes() {
            if let Node::Gate { kind, .. } = node {
                assert!(kind.is_const(), "optimizer reintroduced gate {kind}");
            }
        }
    }

    #[test]
    fn fold_specializes_constant_lut_inputs() {
        use crate::LutSpec;
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let one = nl.add_gate(GateKind::Const1, a, a).unwrap();
        // maj(a, b, 1) = a | b.
        let maj: u16 = (0..8).fold(0, |t, j: u16| t | (u16::from(j.count_ones() >= 2) << j));
        let g = nl.add_lut(LutSpec::new(3, 3, maj), &[a, b, one]).unwrap();
        nl.mark_output(g).unwrap();
        let (opt, _) = constant_fold(&nl);
        assert_equivalent(&nl, &opt);
        let Node::Lut { spec, .. } = opt.node(opt.outputs()[0]) else {
            panic!("expected a narrowed LUT")
        };
        assert_eq!(spec.width, 2);
        assert_eq!(spec.table, 0b1110); // OR truth table
    }

    #[test]
    fn cse_merges_identical_luts() {
        use crate::LutSpec;
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let spec = LutSpec::new(2, 2, 0b0110);
        let g1 = nl.add_lut(spec, &[a, b]).unwrap();
        let g2 = nl.add_lut(spec, &[a, b]).unwrap();
        let h = nl.add_lut(LutSpec::new(2, 2, 0b1000), &[g1, g2]).unwrap();
        nl.mark_output(h).unwrap();
        let (opt, _) = cse(&nl);
        let (opt, _) = dce(&opt);
        assert_equivalent(&nl, &opt);
        assert_eq!(opt.num_luts(), 2);
    }

    #[test]
    fn absorb_folds_inverters_into_lut_tables() {
        use crate::LutSpec;
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let na = nl.add_lut(LutSpec::new(1, 2, 0b01), &[a]).unwrap();
        let g = nl.add_lut(LutSpec::new(2, 2, 0b1000), &[na, b]).unwrap(); // AND(na, b)
        nl.mark_output(g).unwrap();
        let (step, _) = absorb_inverters(&nl);
        assert_equivalent(&nl, &step);
        let (opt, _) = dce(&step);
        assert_equivalent(&nl, &opt);
        assert_eq!(opt.num_luts(), 1);
        let Node::Lut { spec, .. } = opt.node(opt.outputs()[0]) else { panic!("lut expected") };
        assert_eq!(spec.table, 0b0100); // ANDNY truth table: !a & b
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
        let (opt, _) = optimize(&nl, &OptConfig::default()).unwrap();
        assert_eq!(opt.input_ports().len(), 1);
        assert_eq!(opt.input_ports()[0].bits.len(), 2);
        assert_eq!(opt.output_ports().len(), 1);
        assert_eq!(opt.outputs().len(), 1);
        assert_equivalent(&nl, &opt);
    }
}
