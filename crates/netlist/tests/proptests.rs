//! Property-based tests of the netlist IR and its optimization passes.

use proptest::prelude::*;
use pytfhe_netlist::opt::{
    absorb_inverters, constant_fold, cse, dce, lut_cover, optimize, LutCoverConfig,
};
use pytfhe_netlist::topo::{LevelSchedule, Levels};
use pytfhe_netlist::{GateKind, Netlist, Node, NodeId, ALL_GATE_KINDS};
use std::collections::BTreeMap;

fn random_netlist(inputs: usize, max_gates: usize) -> impl Strategy<Value = Netlist> {
    prop::collection::vec(
        (0usize..ALL_GATE_KINDS.len(), any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        1..max_gates,
    )
    .prop_map(move |choices| {
        let mut nl = Netlist::new();
        let mut pool: Vec<NodeId> = (0..inputs).map(|_| nl.add_input()).collect();
        for (k, ia, ib) in choices {
            let kind = ALL_GATE_KINDS[k];
            let a = pool[ia.index(pool.len())];
            let b = pool[ib.index(pool.len())];
            pool.push(nl.add_gate(kind, a, b).expect("valid refs"));
        }
        let n = pool.len();
        nl.mark_output(pool[n - 1]).expect("exists");
        nl.mark_output(pool[n / 2]).expect("exists");
        nl
    })
}

/// Random netlists of every gate kind and late inputs, in which two steps in nine restate an earlier node through its
/// operands' known twins (swapping the operands of binary gates), so CSE
/// has classes to merge at every depth. Starts with up to `max_inputs`
/// inputs; with none, node 0 is a constant. At most
/// `max_inputs + max_steps - 1` inputs.
fn random_mixed_netlist(max_inputs: usize, max_steps: usize) -> impl Strategy<Value = Netlist> {
    let pick = any::<prop::sample::Index>;
    let steps = prop::collection::vec((0u8..9, any::<u16>(), (pick(), pick())), 1..max_steps);
    (0..max_inputs + 1, steps).prop_map(move |(inputs, steps)| {
        let mut nl = Netlist::new();
        // `twin[i]`: a node known to be structurally equal to node `i`.
        let mut twin: Vec<NodeId> = (0..inputs).map(|_| nl.add_input()).collect();
        for (op, bits, (p0, p1)) in steps {
            let picks = [p0, p1];
            let pick = |k: usize| NodeId(picks[k].index(twin.len()) as u32);
            let (id, equal) = match op {
                _ if twin.is_empty() => {
                    let kind = if bits & 1 == 0 { GateKind::Const0 } else { GateKind::Const1 };
                    (nl.add_gate(kind, NodeId(0), NodeId(0)), None)
                }
                0..=5 => {
                    let kind = ALL_GATE_KINDS[usize::from(bits) % ALL_GATE_KINDS.len()];
                    (nl.add_gate(kind, pick(0), pick(1)), None)
                }
                6 => (Ok(nl.add_input()), None),
                _ => {
                    let old = pick(0);
                    let id = match nl.node(old) {
                        Node::Input => nl.add_gate(GateKind::Buf, old, old),
                        Node::Gate { kind, a, b } => {
                            let (a, b) = (twin[a.index()], twin[b.index()]);
                            if kind.is_commutative() {
                                nl.add_gate(kind, b, a)
                            } else if kind.is_unary() || kind.is_const() {
                                nl.add_gate(kind, a, b)
                            } else {
                                nl.add_gate(kind.swapped(), b, a)
                            }
                        }
                    };
                    (id, Some(old).filter(|&o| !matches!(nl.node(o), Node::Input)))
                }
            };
            let id = id.expect("valid refs");
            twin.push(equal.unwrap_or(id));
        }
        let n = twin.len();
        nl.mark_output(NodeId(n as u32 - 1)).expect("exists");
        nl.mark_output(NodeId(n as u32 / 2)).expect("exists");
        nl
    })
}

/// CSE as one table over the whole netlist, probed in node order, here
/// over ordered maps: the oracle for the hash-consing [`cse`]. Port-free
/// netlists only.
fn reference_cse(nl: &Netlist) -> Netlist {
    assert!(nl.input_ports().is_empty() && nl.output_ports().is_empty());
    let mut out = Netlist::with_capacity(nl.num_nodes());
    let mut map: Vec<NodeId> = Vec::with_capacity(nl.num_nodes());
    let mut gates = BTreeMap::new();
    for node in nl.nodes() {
        let id = match *node {
            Node::Input => out.add_input(),
            Node::Gate { kind, a, b } => {
                // A constant's operands are placeholders and are not mapped.
                let (k, a, b) = if kind.is_const() {
                    (kind, NodeId(0), NodeId(0))
                } else {
                    let (a, b) = (map[a.index()], map[b.index()]);
                    if kind.is_unary() {
                        (kind, a, a)
                    } else if a <= b {
                        (kind, a, b)
                    } else if kind.is_commutative() {
                        (kind, b, a)
                    } else {
                        (kind.swapped(), b, a)
                    }
                };
                *gates.entry((k, a, b)).or_insert_with(|| out.add_gate(k, a, b).expect("exists"))
            }
        };
        map.push(id);
    }
    for &o in nl.outputs() {
        out.mark_output(map[o.index()]).expect("exists");
    }
    out
}

/// The four passes iterated until a round leaves the netlist's bytes
/// unchanged, with no cap on the rounds: the oracle for [`optimize`].
fn reference_optimize(nl: &Netlist) -> Netlist {
    let mut current = nl.clone();
    for _ in 0..=nl.num_nodes() + 1 {
        let next = [constant_fold, absorb_inverters, cse, dce]
            .iter()
            .fold(current.clone(), |n, p| p(&n).0);
        if next == current {
            return current;
        }
        current = next;
    }
    panic!("the pass loop did not settle in {} rounds", nl.num_nodes() + 2)
}

/// A ladder whose fold and CSE opportunities unlock one another one rung
/// at a time, so the pass loop needs a round per rung: more than the eight
/// rounds the optimizer once stopped at. Rung `i` computes `v = AND(t, b)`
/// and `u = AND(OR(s, t), b)`, where `s` is the previous rung's
/// `XOR(u, v)`: `u` and `v` become one gate only once `s` folds to 0, and
/// the next `s` folds only once they are one gate. One sweep reaches the
/// end: one AND per rung.
#[test]
fn optimize_climbs_a_fold_cse_ladder_in_one_sweep() {
    let (mut nl, rungs) = (Netlist::new(), 12);
    let (a, b) = (nl.add_input(), nl.add_input());
    let (mut t, mut s) = (a, nl.add_gate(GateKind::Xor, a, a).expect("exists"));
    for _ in 0..rungs {
        let v = nl.add_gate(GateKind::And, t, b).expect("exists");
        let or = nl.add_gate(GateKind::Or, s, t).expect("exists");
        let u = nl.add_gate(GateKind::And, or, b).expect("exists");
        (s, t) = (nl.add_gate(GateKind::Xor, u, v).expect("exists"), v);
    }
    let out = nl.add_gate(GateKind::Or, s, t).expect("exists");
    nl.mark_output(out).expect("exists");
    let (opt, _) = optimize(&nl).expect("valid");
    assert_eq!(opt.num_gates(), rungs);
    assert_eq!(opt, reference_optimize(&nl));
    for bits in [[false, false], [false, true], [true, false], [true, true]] {
        assert_eq!(opt.eval_plain(&bits), nl.eval_plain(&bits));
    }
}

/// One node is the higher operand of 1 100 gates, each built twice: past
/// the first few, the sharing table files them in its spill slots, which
/// grow twice, and every copy still merges.
#[test]
fn cse_merges_gates_past_a_full_list() {
    let mut nl = Netlist::new();
    let xs: Vec<NodeId> = (0..1100).map(|_| nl.add_input()).collect();
    let b = nl.add_input();
    for &x in xs.iter().chain(&xs) {
        let g = nl.add_gate(GateKind::And, b, x).expect("exists");
        nl.mark_output(g).expect("exists");
    }
    let (got, stats) = cse(&nl);
    assert_eq!(stats.gates_after, xs.len());
    assert_eq!(got, reference_cse(&nl));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The hash-consing CSE emits exactly the netlist of one
    /// whole-netlist table probed in node order, and preserves semantics.
    #[test]
    fn cse_matches_the_whole_netlist_reference(
        nl in random_mixed_netlist(4, 160),
        bits in prop::collection::vec(any::<bool>(), 163),
    ) {
        let (got, stats) = cse(&nl);
        prop_assert_eq!(&got, &reference_cse(&nl));
        prop_assert_eq!(stats.gates_after, got.num_gates());
        let bits = &bits[..nl.num_inputs()];
        prop_assert_eq!(got.eval_plain(bits), nl.eval_plain(bits));
        let (opt, _) = optimize(&nl).expect("valid");
        prop_assert_eq!(opt.eval_plain(bits), nl.eval_plain(bits));
    }

    /// Each individual pass preserves semantics (not just the pipeline).
    #[test]
    fn each_pass_preserves_semantics(
        nl in random_netlist(5, 100),
        bits in prop::collection::vec(any::<bool>(), 5),
    ) {
        let want = nl.eval_plain(&bits);
        prop_assert_eq!(&constant_fold(&nl).0.eval_plain(&bits), &want, "fold");
        prop_assert_eq!(&absorb_inverters(&nl).0.eval_plain(&bits), &want, "absorb");
        prop_assert_eq!(&cse(&nl).0.eval_plain(&bits), &want, "cse");
        prop_assert_eq!(&dce(&nl).0.eval_plain(&bits), &want, "dce");
    }

    /// The optimizer is idempotent at its fixpoint.
    #[test]
    fn optimizer_is_idempotent(nl in random_netlist(5, 80)) {
        let (once, _) = optimize(&nl).expect("valid");
        let (twice, report) = optimize(&once).expect("valid");
        prop_assert_eq!(once.num_gates(), twice.num_gates());
        prop_assert!(report.gates_after == report.gates_before);
    }

    /// The optimizer's output is a byte fixpoint of every standalone pass,
    /// with the bootstrap count and outputs of the four passes iterated
    /// with no cap.
    #[test]
    fn optimize_reaches_the_fixpoint_of_every_pass(
        mixed in random_mixed_netlist(4, 160),
        plain in random_netlist(5, 100),
        bits in prop::collection::vec(any::<bool>(), 163),
    ) {
        for nl in [mixed, plain] {
            let (opt, _) = optimize(&nl).expect("valid");
            prop_assert_eq!(&constant_fold(&opt).0, &opt, "fold");
            prop_assert_eq!(&absorb_inverters(&opt).0, &opt, "absorb");
            prop_assert_eq!(&cse(&opt).0, &opt, "cse");
            prop_assert_eq!(&dce(&opt).0, &opt, "dce");
            let want = reference_optimize(&nl);
            prop_assert_eq!(opt.num_bootstrapped_gates(), want.num_bootstrapped_gates());
            let bits = &bits[..nl.num_inputs()];
            prop_assert_eq!(opt.eval_plain(bits), want.eval_plain(bits));
        }
    }

    /// Level assignments respect dependencies and schedules cover every
    /// gate exactly once.
    #[test]
    fn levels_respect_dependencies(nl in random_netlist(4, 120)) {
        let levels = Levels::compute(&nl);
        for (i, node) in nl.nodes().iter().enumerate() {
            if let pytfhe_netlist::Node::Gate { kind, a, b } = *node {
                if kind.is_const() {
                    continue;
                }
                prop_assert!(levels.level[i] > levels.level[a.index()]);
                if !kind.is_unary() {
                    prop_assert!(levels.level[i] > levels.level[b.index()]);
                }
            }
        }
        let sched = LevelSchedule::from_levels(&nl, &levels);
        prop_assert_eq!(sched.num_gates(), nl.num_gates());
    }

    /// Optimized netlists never have more bootstrapped gates, and the
    /// optimizer's validation accepts its own output.
    #[test]
    fn optimizer_monotone_and_valid(nl in random_netlist(5, 100)) {
        let before = nl.num_bootstrapped_gates();
        let (opt, _) = optimize(&nl).expect("valid input");
        prop_assert!(opt.num_bootstrapped_gates() <= before);
        prop_assert!(opt.validate().is_ok());
        prop_assert_eq!(opt.num_inputs(), nl.num_inputs());
        prop_assert_eq!(opt.outputs().len(), nl.outputs().len());
    }

    /// Every cone `lut_cover` chooses computes its root: on random inputs,
    /// with every node marked as an output, the root's value is the table
    /// bit its leaves' values select. Cones respect the width limit and
    /// the lowering never costs more bootstraps than the gates.
    #[test]
    fn lut_cover_tables_match_their_roots(
        nl in random_netlist(5, 100),
        max_width in 2usize..5,
        bits in prop::collection::vec(any::<bool>(), 5),
    ) {
        let (cones, report) = lut_cover(&nl, &LutCoverConfig { max_width }).expect("valid input");
        prop_assert_eq!(report.cones_fused, cones.len());
        prop_assert!(report.bootstraps_after <= report.bootstraps_before, "{}", report);
        let mut all = nl.clone();
        for i in 0..all.num_nodes() {
            all.mark_output(NodeId(i as u32)).expect("exists");
        }
        let values = all.eval_plain(&bits);
        let values = &values[nl.outputs().len()..];
        for cone in &cones {
            prop_assert!((1..=max_width).contains(&cone.leaves.len()), "{:?}", cone);
            let j = cone.leaves.iter().enumerate().fold(0, |j, (bit, leaf)| {
                j | usize::from(values[leaf.index()]) << bit
            });
            prop_assert_eq!((cone.table >> j) & 1 == 1, values[cone.root.index()], "{:?}", cone);
        }
    }

    /// Gate histograms and stats are consistent with direct counts.
    #[test]
    fn stats_are_consistent(nl in random_netlist(4, 60)) {
        let stats = pytfhe_netlist::NetlistStats::of(&nl);
        prop_assert_eq!(stats.gates, nl.num_gates());
        prop_assert_eq!(stats.histogram.total() as usize, nl.num_gates());
        prop_assert_eq!(
            stats.histogram.total_bootstrapped() as usize,
            nl.num_bootstrapped_gates()
        );
        let buf_and_const: u64 = stats.histogram.count(GateKind::Buf)
            + stats.histogram.count(GateKind::Const0)
            + stats.histogram.count(GateKind::Const1);
        prop_assert_eq!(stats.histogram.total() - buf_and_const, stats.histogram.total_bootstrapped());
    }
}
