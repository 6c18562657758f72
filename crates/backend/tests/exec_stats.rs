//! End-to-end coverage of the [`ExecStats`] counters: the fault-path
//! counters under the resilient executor with seeded faults, the
//! batching counters under the kernel-graph executor (and their
//! identity with one-shot `execute_parallel`, which is the same capture
//! and replay), and the flow of both into the telemetry metrics
//! registry.

use pytfhe_backend::{
    execute, execute_parallel, execute_resilient, ExecError, KernelGraph, MemoryCheckpointStore,
    PlainEngine, ResilientConfig, RetryPolicy, SeededFaults,
};
use pytfhe_hdl::Circuit;
use pytfhe_netlist::topo::LevelSchedule;
use pytfhe_netlist::{GateKind, Netlist};
use pytfhe_telemetry as telemetry;

fn to_bits(x: u64, w: usize) -> Vec<bool> {
    (0..w).map(|i| (x >> i) & 1 == 1).collect()
}

/// A `w`-bit widening ripple-carry adder.
fn adder(w: usize) -> Netlist {
    let mut c = Circuit::new();
    let a = c.input_word_anon(w);
    let b = c.input_word_anon(w);
    let sum = c.add_wide_unsigned(&a, &b);
    c.output_word("sum", &sum);
    c.finish().expect("netlist")
}

/// A maximally wide one-wave circuit: `n` independent gates.
fn wide(n: usize) -> Netlist {
    let mut c = Circuit::new();
    let a = c.input_word_anon(1);
    let b = c.input_word_anon(1);
    let bits: Vec<_> = (0..n).map(|_| c.nand(a.bit(0), b.bit(0))).collect();
    c.output_word("out", &bits.into_iter().collect());
    c.finish().expect("netlist")
}

fn cfg(workers: usize) -> ResilientConfig {
    ResilientConfig { workers, retry: RetryPolicy::fast() }
}

#[test]
fn resilient_stats_count_retries_and_checkpoints_under_seeded_faults() {
    let engine = PlainEngine::new();
    let nl = adder(8);
    let nonempty_waves = LevelSchedule::compute(&nl).waves.iter().filter(|w| !w.is_empty()).count();
    let mut input = to_bits(173, 8);
    input.extend(to_bits(91, 8));
    let (want, _) = execute(&engine, &nl, &input).expect("sequential");
    let mut total_retries = 0u64;
    for seed in 1..=8u64 {
        let faults = SeededFaults::new(seed).with_fail_prob(0.25);
        let mut store = MemoryCheckpointStore::new();
        let (got, stats) =
            execute_resilient(&engine, &nl, &input, &cfg(4), &faults, Some(&mut store))
                .expect("retries absorb the injected failures");
        assert_eq!(got, want, "seed {seed}: faults must not change the result");
        assert_eq!(stats.gates, nl.num_gates());
        assert_eq!(stats.checkpoints, nonempty_waves, "a supplied store snapshots every wave");
        assert_eq!(stats.resumed_from_wave, None, "fresh store never resumes");
        assert_eq!(stats.evicted_workers, 0, "fail_prob faults retry, they do not crash");
        total_retries += stats.retries;
    }
    assert!(total_retries > 0, "25% task failure over 8 seeds must retry at least once");
}

#[test]
fn resilient_stats_count_evicted_workers() {
    let engine = PlainEngine::new();
    let nl = wide(64);
    let wave =
        LevelSchedule::compute(&nl).waves.iter().position(|w| !w.is_empty()).expect("gate wave");
    let input = vec![true, true];
    let (want, _) = execute(&engine, &nl, &input).expect("sequential");
    let faults = SeededFaults::new(3).with_worker_crash(1, wave).with_worker_crash(3, wave);
    let (got, stats) =
        execute_resilient(&engine, &nl, &input, &cfg(4), &faults, None).expect("survivors finish");
    assert_eq!(got, want);
    assert_eq!(stats.evicted_workers, 2);
    assert_eq!(stats.gates, nl.num_gates());
}

#[test]
fn graph_stats_count_waves_launches_and_plan_cache() {
    let engine = PlainEngine::new();
    let nl = adder(6);
    let graph = KernelGraph::new();
    let mut input = to_bits(21, 6);
    input.extend(to_bits(42, 6));
    let (want, _) = execute(&engine, &nl, &input).expect("sequential");

    let (got, first) = graph.execute(&engine, &nl, &input, 2).expect("first run");
    assert_eq!(got, want);
    assert!(!first.plan_cached, "first run captures");
    assert!(first.waves > 0, "plan must contain at least one wave");
    assert!(first.kernel_launches > 0, "batched kernels must launch");

    let (got, second) = graph.execute(&engine, &nl, &input, 2).expect("cached run");
    assert_eq!(got, want);
    assert!(second.plan_cached, "second run reuses the plan");
    assert_eq!(second.capture_s, 0.0, "cache hits never pay capture");
    assert_eq!(second.waves, first.waves, "same plan, same waves");
    assert_eq!(second.kernel_launches, first.kernel_launches);
}

#[test]
fn execute_parallel_is_one_shot_capture_and_replay() {
    // Grain 1 forces the plaintext waves through the pooled dispatch, so
    // workers = 4 exercises chunking and workers = 1 the serial path.
    let engine = PlainEngine::with_parallel_grain(1);
    let nl = adder(6);
    let mut input = to_bits(37, 6);
    input.extend(to_bits(58, 6));
    let (want, _) = execute(&engine, &nl, &input).expect("sequential");
    for workers in [1, 4] {
        let (one_shot, a) = execute_parallel(&engine, &nl, &input, workers).expect("one-shot");
        let (graphed, b) = KernelGraph::new().execute(&engine, &nl, &input, workers).unwrap();
        assert_eq!(one_shot, want, "workers={workers}");
        assert_eq!(graphed, want, "workers={workers}");
        assert!(a.waves > 0 && a.kernel_launches > 0);
        assert_eq!(
            (a.waves, a.kernel_launches, a.bootstraps),
            (b.waves, b.kernel_launches, b.bootstraps),
            "workers={workers}"
        );
        assert!(!a.plan_cached, "a one-shot run never finds a cached plan");
    }
}

#[test]
fn execute_parallel_checks_the_input_count_before_the_program() {
    // No outputs: capture rejects the program — but the arity error of
    // the call must still win when both apply.
    let mut nl = Netlist::new();
    let a = nl.add_input();
    let b = nl.add_input();
    nl.add_gate(GateKind::And, a, b).expect("gate");
    let engine = PlainEngine::new();
    assert_eq!(
        execute_parallel(&engine, &nl, &[true], 2).unwrap_err(),
        ExecError::InputCountMismatch { expected: 2, got: 1 }
    );
    assert!(matches!(
        execute_parallel(&engine, &nl, &[true, false], 2),
        Err(ExecError::InvalidProgram(_))
    ));
}

#[test]
fn stats_flow_into_the_metrics_registry_when_enabled() {
    let engine = PlainEngine::new();
    let nl = adder(5);
    let mut input = to_bits(9, 5);
    input.extend(to_bits(22, 5));

    telemetry::set_enabled(true);
    telemetry::metrics().reset();
    let (_, wavefront) = execute_parallel(&engine, &nl, &input, 2).expect("wavefront");
    let graph = KernelGraph::new();
    let (_, graphed) = graph.execute(&engine, &nl, &input, 2).expect("graph");
    let snapshot = telemetry::metrics().snapshot();
    telemetry::set_enabled(false);

    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    assert!(
        counter("exec_gates_total") >= (wavefront.gates + graphed.gates) as u64,
        "both executors must report their gates"
    );
    assert!(counter("exec_waves_total") >= (wavefront.waves + graphed.waves) as u64);
    assert!(counter("exec_kernel_launches_total") >= graphed.kernel_launches);
}
