//! Integration tests of the kernel-graph backend: captured plans must
//! replay bit-exactly against the reference executor (plain and
//! encrypted), cache across input sets, cut batches exactly where the
//! CUDA-Graphs simulator cuts them, and replay without per-gate buffer
//! allocations once warm.

use proptest::prelude::*;
use pytfhe_backend::sim::{graph_batch_waves, ProgramProfile};
use pytfhe_backend::{
    capture, execute, replay, CaptureConfig, ExecError, KernelGraph, KernelPlan, PlainEngine,
    ReplayLanes, TfheEngine,
};
use pytfhe_netlist::{Netlist, ALL_GATE_KINDS};
use pytfhe_tfhe::{thread_buffer_allocs, ClientKey, Params, SecureRng};
use pytfhe_vipbench::Scale;

/// A deterministic random DAG over every gate kind: each gate draws its
/// operands from the pool of inputs and earlier gates.
fn random_netlist(seed: u64, inputs: usize, gates: usize) -> Netlist {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        // xorshift64* — deterministic across platforms, no dependencies.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
    };
    let mut nl = Netlist::new();
    let mut pool: Vec<_> = (0..inputs).map(|_| nl.add_input()).collect();
    for _ in 0..gates {
        let kind = ALL_GATE_KINDS[next(ALL_GATE_KINDS.len())];
        let a = pool[next(pool.len())];
        let b = pool[next(pool.len())];
        pool.push(nl.add_gate(kind, a, b).expect("valid refs"));
    }
    nl.mark_output(*pool.last().unwrap()).unwrap();
    nl.mark_output(pool[pool.len() / 2]).unwrap();
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay is bit-exact with the reference executor on arbitrary
    /// programs, input sets, and batch-cut budgets.
    #[test]
    fn replay_matches_execute_on_random_netlists(
        seed in any::<u64>(),
        bits in prop::collection::vec(any::<bool>(), 6),
        cut in 1u64..64,
    ) {
        let nl = random_netlist(seed, 6, 60);
        let engine = PlainEngine::new();
        let (want, _) = execute(&engine, &nl, &bits).expect("execute");
        let plan = capture(&nl, &CaptureConfig { batch_cut_nodes: cut }).expect("capture");
        let mut lanes = ReplayLanes::new(2);
        let (got, report) = replay(&engine, &plan, &bits, &mut lanes).expect("replay");
        prop_assert_eq!(got, want);
        prop_assert_eq!(report.gates, nl.num_gates());
    }

    /// Replay is bit-exact and deterministic across every worker count
    /// on the plaintext engine: pooled per-chunk dispatch (forced by
    /// grain 1) must never change results, whatever the lane count.
    #[test]
    fn replay_is_deterministic_across_worker_counts(
        seed in any::<u64>(),
        bits in prop::collection::vec(any::<bool>(), 6),
    ) {
        let nl = random_netlist(seed, 6, 48);
        let engine = PlainEngine::with_parallel_grain(1);
        let (want, _) = execute(&engine, &nl, &bits).expect("execute");
        let plan = capture(&nl, &CaptureConfig::default()).expect("capture");
        for workers in [1usize, 2, 4, 8] {
            let mut lanes = ReplayLanes::new(workers);
            let (got, _) = replay(&engine, &plan, &bits, &mut lanes).expect("replay");
            prop_assert_eq!(&got, &want, "workers={}", workers);
            // Replaying again on the same lanes stays deterministic.
            let (again, _) = replay(&engine, &plan, &bits, &mut lanes).expect("re-replay");
            prop_assert_eq!(&again, &want, "workers={} second replay", workers);
        }
    }

    /// The real capture cuts sub-graph batches exactly where the
    /// CUDA-Graphs simulator's cut rule predicts.
    #[test]
    fn batch_cuts_match_the_gpu_simulator(
        seed in any::<u64>(),
        cut in 1u64..40,
    ) {
        let nl = random_netlist(seed, 5, 80);
        let plan = capture(&nl, &CaptureConfig { batch_cut_nodes: cut }).expect("capture");
        let plan_cuts: Vec<u64> = plan
            .batches
            .iter()
            .map(|b| b.bootstrapped())
            .filter(|&n| n > 0)
            .collect();
        let profile = ProgramProfile::of(&nl);
        let sim_cuts: Vec<u64> = graph_batch_waves(&profile, cut)
            .iter()
            .map(|waves| waves.iter().sum())
            .collect();
        prop_assert_eq!(plan_cuts, sim_cuts);
    }

    /// Serialization round-trips arbitrary captured plans.
    #[test]
    fn plans_round_trip_through_bytes(seed in any::<u64>()) {
        let nl = random_netlist(seed, 4, 40);
        let plan = capture(&nl, &CaptureConfig { batch_cut_nodes: 7 }).expect("capture");
        let restored = KernelPlan::from_bytes(&plan.to_bytes()).expect("decode");
        prop_assert_eq!(restored, plan);
    }
}

#[test]
fn encrypted_replay_is_bit_exact_with_execute() {
    let mut rng = SecureRng::seed_from_u64(41);
    let client = ClientKey::generate(Params::testing(), &mut rng);
    let server = client.server_key(&mut rng);
    let engine = TfheEngine::new(&server);
    let nl = random_netlist(0xFEED_5EED, 4, 24);
    let bits = [true, false, false, true];
    let cts: Vec<_> = bits.iter().map(|&b| client.encrypt_bit(b, &mut rng)).collect();

    let (want, _) = execute(&engine, &nl, &cts).expect("execute");
    let plan = capture(&nl, &CaptureConfig { batch_cut_nodes: 8 }).expect("capture");
    let mut lanes = ReplayLanes::new(1);
    let (got, _) = replay(&engine, &plan, &cts, &mut lanes).expect("replay");
    assert_eq!(got, want, "replay must equal execute ciphertext-for-ciphertext");

    let plain: Vec<bool> = nl.eval_plain(&bits);
    let decrypted: Vec<bool> = got.iter().map(|ct| client.decrypt_bit(ct)).collect();
    assert_eq!(decrypted, plain, "and decrypt to the functional result");
}

#[test]
fn encrypted_replay_is_bit_exact_at_every_worker_count() {
    let mut rng = SecureRng::seed_from_u64(53);
    let client = ClientKey::generate(Params::testing(), &mut rng);
    let server = client.server_key(&mut rng);
    let engine = TfheEngine::new(&server);
    let nl = random_netlist(0xBEEF_CAFE, 4, 20);
    let bits = [true, true, false, true];
    let cts: Vec<_> = bits.iter().map(|&b| client.encrypt_bit(b, &mut rng)).collect();
    let (want, _) = execute(&engine, &nl, &cts).expect("execute");
    let plain = nl.eval_plain(&bits);
    let plan = capture(&nl, &CaptureConfig { batch_cut_nodes: 8 }).expect("capture");
    for workers in [1usize, 2, 4, 8] {
        let mut lanes = ReplayLanes::new(workers);
        let (got, _) = replay(&engine, &plan, &cts, &mut lanes).expect("replay");
        assert_eq!(got, want, "workers={workers}: ciphertext-for-ciphertext");
        let decrypted: Vec<bool> = got.iter().map(|ct| client.decrypt_bit(ct)).collect();
        assert_eq!(decrypted, plain, "workers={workers}: functional result");
    }
}

#[test]
fn one_cached_plan_serves_many_encrypted_input_sets() {
    let mut rng = SecureRng::seed_from_u64(43);
    let client = ClientKey::generate(Params::testing(), &mut rng);
    let server = client.server_key(&mut rng);
    let engine = TfheEngine::new(&server);
    let nl = random_netlist(0xABCD, 3, 16);
    let graph = KernelGraph::with_config(CaptureConfig { batch_cut_nodes: 6 });
    let mut lanes = ReplayLanes::new(2);
    for (round, bits) in
        [[true, false, true], [false, false, true], [true, true, true]].iter().enumerate()
    {
        let cts: Vec<_> = bits.iter().map(|&b| client.encrypt_bit(b, &mut rng)).collect();
        let (want, _) = execute(&engine, &nl, &cts).expect("execute");
        let (got, stats) =
            graph.execute_with_lanes(&engine, &nl, &cts, &mut lanes).expect("graph execute");
        assert_eq!(got, want, "round {round}");
        assert_eq!(stats.plan_cached, round > 0, "capture only on round 0");
        assert!(stats.batches >= 1);
        assert!(stats.kernel_launches >= stats.batches as u64);
    }
    assert_eq!(graph.cached_plans(), 1);
}

#[test]
fn warm_replay_performs_zero_buffer_allocations() {
    let mut rng = SecureRng::seed_from_u64(47);
    let client = ClientKey::generate(Params::testing(), &mut rng);
    let server = client.server_key(&mut rng);
    let engine = TfheEngine::new(&server);
    let nl = random_netlist(0xC0FFEE, 3, 20);
    let plan = capture(&nl, &CaptureConfig::default()).expect("capture");
    // One worker lane: the whole replay runs inline on this thread, so
    // the thread-local constructor counter sees every buffer it creates.
    let mut lanes = ReplayLanes::new(1);
    let cts: Vec<_> =
        [true, false, true].iter().map(|&b| client.encrypt_bit(b, &mut rng)).collect();
    let (warm, _) = replay(&engine, &plan, &cts, &mut lanes).expect("warmup replay");

    let before = thread_buffer_allocs();
    let (hot, _) = replay(&engine, &plan, &cts, &mut lanes).expect("hot replay");
    let after = thread_buffer_allocs();
    assert_eq!(after - before, 0, "warm replay must not allocate ciphertext/FFT buffers");
    assert_eq!(hot, warm, "identical inputs must replay to identical ciphertexts");
}

#[test]
fn vipbench_workload_replays_bit_exactly_and_matches_its_oracle() {
    let bench = pytfhe_vipbench::find("Hamming", Scale::Test)
        .unwrap_or_else(|| pytfhe_vipbench::hamming_distance(Scale::Test));
    let nl = bench.netlist().clone();
    let engine = PlainEngine::new();
    let graph = KernelGraph::new();
    let mut lanes = ReplayLanes::new(2);
    for seed in 0..3u64 {
        let input = bench.sample_input(seed);
        let bits = bench.encode_input(&input);
        let (want, _) = execute(&engine, &nl, &bits).expect("execute");
        let (got, stats) =
            graph.execute_with_lanes(&engine, &nl, &bits, &mut lanes).expect("graph");
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(stats.plan_cached, seed > 0);
        let decoded = bench.decode_output(&got);
        assert_eq!(decoded, bench.oracle(&input), "seed {seed}: oracle mismatch");
    }
}

#[test]
fn replay_surfaces_input_mismatch() {
    let nl = random_netlist(7, 4, 10);
    let engine = PlainEngine::new();
    let plan = capture(&nl, &CaptureConfig::default()).expect("capture");
    let mut lanes = ReplayLanes::new(1);
    assert!(matches!(
        replay(&engine, &plan, &[true, false], &mut lanes),
        Err(ExecError::InputCountMismatch { expected: 4, got: 2 })
    ));
}
