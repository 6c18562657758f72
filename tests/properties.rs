//! Property-based integration tests (proptest): randomized programs and
//! data flowing through the whole stack.

use proptest::prelude::*;
use pytfhe::prelude::*;
use pytfhe::pytfhe_backend::execute;
use pytfhe::pytfhe_hdl::Circuit;
use pytfhe::pytfhe_netlist::opt::optimize;
use pytfhe::pytfhe_netlist::ALL_GATE_KINDS;

/// Strategy: a random DAG with `inputs` inputs and up to `max_gates`
/// gates (operands always reference earlier nodes).
fn random_netlist(inputs: usize, max_gates: usize) -> impl Strategy<Value = Netlist> {
    let gate_choices = prop::collection::vec(
        (0usize..ALL_GATE_KINDS.len(), any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        1..max_gates,
    );
    gate_choices.prop_map(move |choices| {
        let mut nl = Netlist::new();
        let mut pool: Vec<pytfhe::pytfhe_netlist::NodeId> =
            (0..inputs).map(|_| nl.add_input()).collect();
        for (k, ia, ib) in choices {
            let kind = ALL_GATE_KINDS[k];
            let a = pool[ia.index(pool.len())];
            let b = pool[ib.index(pool.len())];
            pool.push(nl.add_gate(kind, a, b).expect("valid refs"));
        }
        // Mark a handful of outputs, including the last node.
        let n = pool.len();
        nl.mark_output(pool[n - 1]).expect("exists");
        nl.mark_output(pool[n / 2]).expect("exists");
        nl.mark_output(pool[n / 3]).expect("exists");
        nl
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The binary format is lossless for arbitrary programs.
    #[test]
    fn assemble_disassemble_round_trip(
        nl in random_netlist(6, 120),
        bits in prop::collection::vec(any::<bool>(), 6),
    ) {
        let binary = pytfhe_asm::assemble(&nl);
        let back = pytfhe_asm::disassemble(&binary).expect("own binaries are valid");
        prop_assert_eq!(back.eval_plain(&bits), nl.eval_plain(&bits));
        prop_assert_eq!(back.num_gates(), nl.num_gates());
    }

    /// The optimizer never changes program semantics.
    #[test]
    fn optimizer_preserves_semantics(
        nl in random_netlist(6, 120),
        bits in prop::collection::vec(any::<bool>(), 6),
    ) {
        let (opt, report) = optimize(&nl).expect("valid");
        prop_assert!(report.gates_after <= report.gates_before);
        prop_assert_eq!(opt.eval_plain(&bits), nl.eval_plain(&bits));
    }

    /// Reference and wavefront executors agree on arbitrary programs.
    #[test]
    fn executors_agree(
        nl in random_netlist(5, 80),
        bits in prop::collection::vec(any::<bool>(), 5),
        workers in 1usize..6,
    ) {
        let engine = PlainEngine::new();
        let (seq, _) = execute(&engine, &nl, &bits).expect("reference");
        let (par, _) = execute_parallel(&engine, &nl, &bits, workers).expect("parallel");
        prop_assert_eq!(seq, par);
    }

    /// Word arithmetic matches u64 semantics for random widths/operands.
    #[test]
    fn adders_and_multipliers_match_integers(
        w in 1usize..10,
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
        let (x, y) = (x & mask, y & mask);
        let mut c = Circuit::new();
        let a = c.input_word("a", w);
        let b = c.input_word("b", w);
        let sum = c.add(&a, &b);
        let prod = c.mul_unsigned(&a, &b);
        let lt = c.lt_unsigned(&a, &b).expect("widths");
        c.output_word("sum", &sum);
        c.output_word("prod", &prod);
        c.output_word("lt", &pytfhe::pytfhe_hdl::Word::from_bits(vec![lt]));
        let nl = c.finish().expect("netlist");
        let mut input: Vec<bool> = (0..w).map(|i| (x >> i) & 1 == 1).collect();
        input.extend((0..w).map(|i| (y >> i) & 1 == 1));
        let out = nl.eval_plain(&input);
        let from = |bits: &[bool]| bits.iter().enumerate().fold(0u128, |acc, (i, &bb)| acc | (u128::from(bb) << i));
        prop_assert_eq!(from(&out[..w]) as u64, (x + y) & mask);
        prop_assert_eq!(from(&out[w..3 * w]), u128::from(x) * u128::from(y));
        prop_assert_eq!(out[3 * w], x < y);
    }

    /// DType codecs round-trip within one resolution step.
    #[test]
    fn dtype_codec_round_trips(v in -100.0f64..100.0) {
        for dtype in [
            DType::SInt(10),
            DType::Fixed { width: 16, frac: 6 },
            DType::Float { exp: 8, man: 10 },
        ] {
            let back = dtype.decode_f64(&dtype.encode_f64(v));
            let tol = dtype.resolution().max(v.abs() * dtype.resolution()) + 1e-12;
            prop_assert!((back - v).abs() <= tol, "{dtype}: {v} -> {back}");
        }
    }
}
