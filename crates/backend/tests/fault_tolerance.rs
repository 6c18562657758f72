//! Integration tests of the fault-tolerant wavefront executor: injected
//! failures must never change results (only the path taken to them), an
//! interrupted run must resume from its last wave-barrier checkpoint, and
//! every failure mode must surface as its typed error.

use proptest::prelude::*;
use pytfhe_backend::{
    execute, execute_parallel, execute_resilient, CheckpointStore, ExecError, FileCheckpointStore,
    GateEngine, MemoryCheckpointStore, NoFaults, PlainEngine, ResilientConfig, RetryPolicy,
    SeededFaults, TfheEngine,
};
use pytfhe_hdl::Circuit;
use pytfhe_netlist::topo::LevelSchedule;
use pytfhe_netlist::{GateKind, Netlist, NodeId};
use pytfhe_tfhe::{ClientKey, Params, SecureRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn to_bits(x: u64, w: usize) -> Vec<bool> {
    (0..w).map(|i| (x >> i) & 1 == 1).collect()
}

fn from_bits(bits: &[bool]) -> u64 {
    bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

/// A `w`-bit widening ripple-carry adder from the HDL generators.
fn adder(w: usize) -> Netlist {
    let mut c = Circuit::new();
    let a = c.input_word_anon(w);
    let b = c.input_word_anon(w);
    let sum = c.add_wide_unsigned(&a, &b);
    c.output_word("sum", &sum);
    c.finish().expect("netlist")
}

/// A `w`-bit schoolbook multiplier (deeper and wider than the adder).
fn multiplier(w: usize) -> Netlist {
    let mut c = Circuit::new();
    let a = c.input_word_anon(w);
    let b = c.input_word_anon(w);
    let prod = c.mul_unsigned(&a, &b);
    c.output_word("prod", &prod);
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

/// `nl` with a constant XORed into one more output: the constant is the
/// only node of level 0, so the schedule's wave 0 is no longer empty.
fn with_constant(mut nl: Netlist) -> Netlist {
    let one = nl.add_gate(GateKind::Const1, NodeId(0), NodeId(0)).expect("constant");
    let flipped = nl.add_gate(GateKind::Xor, nl.outputs()[0], one).expect("gate");
    nl.mark_output(flipped).expect("output");
    nl
}

fn resilient_cfg(workers: usize) -> ResilientConfig {
    ResilientConfig { workers, retry: RetryPolicy::fast(), checkpoint_every: 1 }
}

/// The schedule's non-empty wave indices, in order (the coordinates the
/// fault injector scripts crashes against).
fn nonempty_waves(nl: &Netlist) -> Vec<usize> {
    LevelSchedule::compute(nl)
        .waves
        .iter()
        .enumerate()
        .filter_map(|(i, w)| (!w.is_empty()).then_some(i))
        .collect()
}

#[test]
fn faulty_runs_are_bit_identical_to_sequential() {
    let engine = PlainEngine::new();
    let mut total_retries = 0u64;
    for (nl, width) in [(adder(8), 8), (multiplier(5), 5)] {
        for seed in [1u64, 7, 42] {
            for fail in [0.0, 0.05, 0.25] {
                for workers in [2usize, 4] {
                    let x = seed.wrapping_mul(0x9E37) % (1 << width);
                    let y = (seed.wrapping_mul(0x85EB) >> 3) % (1 << width);
                    let mut input = to_bits(x, width);
                    input.extend(to_bits(y, width));
                    let (want, _) = execute(&engine, &nl, &input).expect("sequential");
                    let faults = SeededFaults::new(seed).with_fail_prob(fail);
                    let (got, stats) = execute_resilient(
                        &engine,
                        &nl,
                        &input,
                        &resilient_cfg(workers),
                        &faults,
                        None,
                    )
                    .expect("resilient");
                    assert_eq!(got, want, "seed={seed} fail={fail} workers={workers} x={x} y={y}");
                    if fail == 0.0 {
                        assert_eq!(stats.retries, 0);
                    }
                    total_retries += stats.retries;
                }
            }
        }
    }
    // Across 25 % fail-rate runs the injector must actually have fired.
    assert!(total_retries > 0, "fault injection never triggered a retry");
}

proptest! {
    #[test]
    fn resilient_adder_property(
        x in 0u64..256,
        y in 0u64..256,
        seed in any::<u64>(),
    ) {
        let engine = PlainEngine::new();
        let nl = adder(8);
        let mut input = to_bits(x, 8);
        input.extend(to_bits(y, 8));
        let faults = SeededFaults::new(seed).with_fail_prob(0.2);
        let (out, _) = execute_resilient(
            &engine, &nl, &input, &resilient_cfg(3), &faults, None,
        ).expect("resilient");
        prop_assert_eq!(from_bits(&out), x + y);
    }
}

#[test]
fn crash_of_all_workers_resumes_from_checkpoint() {
    // Waves are numbered by level whether or not level 0 holds a constant.
    for (nl, constant) in [(multiplier(5), false), (with_constant(multiplier(5)), true)] {
        crash_all_workers_and_resume(&nl);
        assert_eq!(nonempty_waves(&nl)[0] == 0, constant);
    }
}

fn crash_all_workers_and_resume(nl: &Netlist) {
    let engine = PlainEngine::new();
    let waves = nonempty_waves(nl);
    assert!(waves.len() >= 2, "need at least two non-empty waves");
    let crash_wave = *waves.last().unwrap();
    let (x, y) = (21u64, 19u64);
    let mut input = to_bits(x, 5);
    input.extend(to_bits(y, 5));
    let (want, _) = execute(&engine, nl, &input).expect("sequential");

    let workers = 3;
    let mut faults = SeededFaults::new(4).with_fail_prob(0.1);
    for w in 0..workers {
        faults = faults.with_worker_crash(w, crash_wave);
    }
    let mut store = MemoryCheckpointStore::new();
    let err =
        execute_resilient(&engine, nl, &input, &resilient_cfg(workers), &faults, Some(&mut store))
            .expect_err("every worker crashed");
    assert_eq!(err, ExecError::NoWorkers { wave: crash_wave });

    // The store holds the barrier snapshot of the last *completed* wave.
    let prev_wave = waves[waves.len() - 2];
    let ckpt = store.latest().expect("checkpoint written before the crash");
    assert_eq!(ckpt.wave(), prev_wave);
    assert!(ckpt.num_values() > 0);

    // A healthy rerun against the same store resumes past the snapshot
    // and produces bit-identical outputs.
    let (got, stats) = execute_resilient(
        &engine,
        nl,
        &input,
        &resilient_cfg(workers),
        &NoFaults,
        Some(&mut store),
    )
    .expect("resumed run");
    assert_eq!(got, want);
    assert_eq!(stats.resumed_from_wave, Some(prev_wave));
    assert_eq!(stats.waves, 1, "only the crashed wave should re-run");
}

#[test]
fn encrypted_crash_recovery_end_to_end() {
    // The full paper pipeline under failure: encrypt, crash mid-run,
    // resume from the ciphertext checkpoint, decrypt — bit-identical.
    let mut rng = SecureRng::seed_from_u64(31);
    let client = ClientKey::generate(Params::testing(), &mut rng);
    let server = client.server_key(&mut rng);
    let engine = TfheEngine::new(&server);
    let nl = adder(4);
    let waves = nonempty_waves(&nl);
    let crash_wave = *waves.last().unwrap();
    let (x, y) = (11u64, 6u64);
    let mut bits = to_bits(x, 4);
    bits.extend(to_bits(y, 4));
    let cts = client.encrypt_bits(&bits, &mut rng);
    let (want, _) = execute(&engine, &nl, &cts).expect("sequential");
    // Without faults the run is `execute_parallel`'s, byte for byte.
    let (parallel, _) = execute_parallel(&engine, &nl, &cts, 2).expect("parallel");
    let (clean, _) = execute_resilient(&engine, &nl, &cts, &resilient_cfg(2), &NoFaults, None)
        .expect("fault-free run");
    assert_eq!(clean, parallel);

    let workers = 2;
    let mut faults = SeededFaults::new(2);
    for w in 0..workers {
        faults = faults.with_worker_crash(w, crash_wave);
    }
    let mut store = MemoryCheckpointStore::new();
    let err =
        execute_resilient(&engine, &nl, &cts, &resilient_cfg(workers), &faults, Some(&mut store))
            .expect_err("every worker crashed");
    assert_eq!(err, ExecError::NoWorkers { wave: crash_wave });

    let (got, stats) =
        execute_resilient(&engine, &nl, &cts, &resilient_cfg(workers), &NoFaults, Some(&mut store))
            .expect("resumed run");
    assert!(stats.resumed_from_wave.is_some());
    assert_eq!(got, want, "resumed ciphertexts must be bit-identical");
    assert_eq!(from_bits(&client.decrypt_bits(&got)), x + y);
}

#[test]
fn checkpoint_refuses_a_different_program() {
    let engine = PlainEngine::new();
    let mut store = MemoryCheckpointStore::new();
    let nl = adder(4);
    let input = vec![false; 8];
    execute_resilient(&engine, &nl, &input, &resilient_cfg(2), &NoFaults, Some(&mut store))
        .expect("first program");
    let other = multiplier(3);
    let err = execute_resilient(
        &engine,
        &other,
        &[false; 6],
        &resilient_cfg(2),
        &NoFaults,
        Some(&mut store),
    )
    .expect_err("fingerprint mismatch");
    assert!(matches!(err, ExecError::BadCheckpoint { .. }));
}

#[test]
fn file_store_survives_a_process_restart() {
    let engine = PlainEngine::new();
    let nl = multiplier(4);
    let waves = nonempty_waves(&nl);
    let crash_wave = *waves.last().unwrap();
    let mut input = to_bits(9, 4);
    input.extend(to_bits(13, 4));
    let (want, _) = execute(&engine, &nl, &input).expect("sequential");

    let path =
        std::env::temp_dir().join(format!("pytfhe-fault-tolerance-{}.ckpt", std::process::id()));
    let prev = FileCheckpointStore::new(&path).prev_path();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);
    {
        // "Process one": crashes after checkpointing earlier waves.
        let workers = 2;
        let mut faults = SeededFaults::new(6);
        for w in 0..workers {
            faults = faults.with_worker_crash(w, crash_wave);
        }
        let mut store = FileCheckpointStore::new(&path);
        execute_resilient(&engine, &nl, &input, &resilient_cfg(workers), &faults, Some(&mut store))
            .expect_err("crash");
    }
    {
        // "Process two": a fresh store handle on the same path resumes.
        let mut store = FileCheckpointStore::new(&path);
        assert!(store.load().expect("readable").is_some());
        let (got, stats) =
            execute_resilient(&engine, &nl, &input, &resilient_cfg(2), &NoFaults, Some(&mut store))
                .expect("resumed");
        assert_eq!(got, want);
        assert!(stats.resumed_from_wave.is_some());
    }
    std::fs::remove_file(&path).expect("cleanup");
    let _ = std::fs::remove_file(&prev);
}

#[test]
fn partial_crash_degrades_but_completes() {
    let engine = PlainEngine::new();
    let nl = wide(64);
    let wave = *nonempty_waves(&nl).first().unwrap();
    let input = vec![true, true];
    let (want, _) = execute(&engine, &nl, &input).expect("sequential");
    let faults = SeededFaults::new(3).with_worker_crash(1, wave).with_worker_crash(3, wave);
    let (got, stats) = execute_resilient(&engine, &nl, &input, &resilient_cfg(4), &faults, None)
        .expect("survivors finish the wave");
    assert_eq!(got, want);
    assert_eq!(stats.evicted_workers, 2);
}

#[test]
fn stragglers_past_their_deadline_are_retried() {
    let engine = PlainEngine::new();
    let nl = adder(8);
    let mut input = to_bits(100, 8);
    input.extend(to_bits(55, 8));
    let (want, _) = execute(&engine, &nl, &input).expect("sequential");
    // Every injected straggler stalls far past the task deadline, so each
    // one is abandoned and retried rather than awaited.
    let faults = SeededFaults::new(5).with_straggler(0.3, Duration::from_secs(60));
    let cfg = ResilientConfig {
        workers: 2,
        retry: RetryPolicy { task_deadline: Some(Duration::from_millis(1)), ..RetryPolicy::fast() },
        checkpoint_every: 0,
    };
    let (got, stats) =
        execute_resilient(&engine, &nl, &input, &cfg, &faults, None).expect("finishes");
    assert_eq!(got, want);
    assert!(stats.retries > 0, "stragglers should have been abandoned and retried");
}

#[test]
fn exhausted_retry_budget_is_a_typed_error() {
    let engine = PlainEngine::new();
    let nl = adder(4);
    let input = vec![false; 8];
    let faults = SeededFaults::new(8).with_fail_prob(1.0);
    let err = execute_resilient(&engine, &nl, &input, &resilient_cfg(2), &faults, None)
        .expect_err("nothing can succeed");
    match err {
        ExecError::Exhausted { attempts, .. } => {
            assert_eq!(attempts, RetryPolicy::fast().max_attempts);
        }
        other => panic!("expected Exhausted, got {other:?}"),
    }
}

#[test]
fn wave_deadline_is_enforced() {
    let engine = PlainEngine::new();
    let nl = adder(4);
    let input = vec![false; 8];
    let cfg = ResilientConfig {
        workers: 2,
        retry: RetryPolicy { wave_deadline: Some(Duration::ZERO), ..RetryPolicy::fast() },
        checkpoint_every: 0,
    };
    let err =
        execute_resilient(&engine, &nl, &input, &cfg, &NoFaults, None).expect_err("zero budget");
    assert!(matches!(err, ExecError::WaveDeadlineExceeded { .. }));
}

/// Counts gate evaluations and panics on evaluation number `panic_at`.
struct Flaky {
    evals: AtomicUsize,
    panic_at: usize,
}

impl GateEngine for Flaky {
    type Value = bool;
    type Scratch = ();
    fn scratch(&self) {}
    fn eval_batch(&self, items: &[(GateKind, &bool, &bool)], outs: &mut [bool], _: &mut ()) {
        for (&(kind, a, b), out) in items.iter().zip(outs) {
            let n = self.evals.fetch_add(1, Ordering::Relaxed);
            assert_ne!(n, self.panic_at, "injected panic");
            *out = kind.eval(*a, *b);
        }
    }
    fn constant(&self, bit: bool) -> bool {
        bit
    }
    fn parallel_grain(&self) -> usize {
        1
    }
}

#[test]
fn only_failed_chunks_run_again() {
    let nl = wide(64);
    let input = vec![true, true];
    let (want, _) = execute(&PlainEngine::new(), &nl, &input).expect("sequential");
    let flaky = |panic_at| Flaky { evals: AtomicUsize::new(0), panic_at };

    // An injected failure refuses a chunk before it runs, and finished
    // chunks stand: every gate is evaluated exactly once.
    let engine = flaky(usize::MAX);
    let faults = SeededFaults::new(9).with_fail_prob(0.5);
    let (got, stats) = execute_resilient(&engine, &nl, &input, &resilient_cfg(4), &faults, None)
        .expect("retries absorb the failures");
    assert_eq!(got, want);
    assert!(stats.retries > 0, "half the chunk attempts fail");
    assert_eq!(engine.evals.load(Ordering::Relaxed), nl.num_gates());

    // A panic fails its chunk like an injected failure, and that chunk
    // alone runs again: the panicking evaluation is the one extra.
    let engine = flaky(0);
    let (got, stats) = execute_resilient(&engine, &nl, &input, &resilient_cfg(4), &NoFaults, None)
        .expect("the panicked chunk is retried");
    assert_eq!(got, want);
    assert_eq!(stats.retries, 1);
    assert_eq!(engine.evals.load(Ordering::Relaxed), nl.num_gates() + 1);

    // `execute_parallel` runs the same dispatch without retries.
    let err = execute_parallel(&flaky(0), &nl, &input, 4).expect_err("the panic fails the wave");
    assert_eq!(err, ExecError::WorkerPanicked);
}
