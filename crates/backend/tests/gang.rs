//! A wave with a single bootstrap runs on a gang of lanes that split it
//! by TLWE polynomial: its ciphertexts must be the bytes one lane computes,
//! at every worker count, and a gang must fail, fall back and retry
//! without deadlocking.

use pytfhe_backend::pool::Job;
use pytfhe_backend::{
    capture, execute, execute_resilient, replay, CaptureConfig, ExecError, FaultInjector,
    GateEngine, ReplayLanes, ResilientConfig, RetryPolicy, TaskFate, TfheEngine, WorkerPool,
};
use pytfhe_netlist::{GateKind, Netlist};
use pytfhe_tfhe::{ClientKey, GateScratch, LweCiphertext, Params, SecureRng, ServerKey};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A dependent chain with one bootstrap per wave; every other wave also
/// holds a free `NOT`, which only the gang's first member evaluates.
fn chain(links: usize) -> Netlist {
    let mut nl = Netlist::new();
    let (mut x, y) = (nl.add_input(), nl.add_input());
    let kinds = [GateKind::Nand, GateKind::Xor, GateKind::Andny, GateKind::Or];
    for (i, &kind) in kinds.iter().cycle().take(links).enumerate() {
        let g = nl.add_gate(kind, x, y).unwrap();
        x = if i % 2 == 0 {
            let not = nl.add_gate(GateKind::Not, x, x).unwrap();
            nl.add_gate(GateKind::Xnor, g, not).unwrap()
        } else {
            g
        };
    }
    nl.mark_output(x).unwrap();
    nl
}

fn setup() -> (ClientKey, ServerKey, Vec<LweCiphertext>) {
    let mut rng = SecureRng::seed_from_u64(48);
    let client = ClientKey::generate(Params::testing(), &mut rng);
    let server = client.server_key(&mut rng);
    let cts = [true, false].iter().map(|&b| client.encrypt_bit(b, &mut rng)).collect();
    (client, server, cts)
}

#[test]
fn one_bootstrap_waves_replay_bit_exactly_at_every_worker_count() {
    let (_, server, cts) = setup();
    let engine = TfheEngine::new(&server);
    let nl = chain(10);
    let (want, _) = execute(&engine, &nl, &cts).expect("execute");
    let plan = capture(&nl, &CaptureConfig::default()).expect("capture");
    for workers in [1, 2, 4] {
        let mut lanes = ReplayLanes::new(workers);
        for round in 0..2 {
            let (got, _) = replay(&engine, &plan, &cts, &mut lanes).expect("replay");
            assert_eq!(got, want, "workers {workers}, round {round}");
        }
    }
    // Inside a pool task a gang cannot be placed: the waves run on one
    // lane instead of deadlocking.
    let plan = &plan;
    let job = |_| {
        let (got, _) = replay(&engine, plan, &cts, &mut ReplayLanes::new(2)).expect("nested");
        assert_eq!(got, want);
    };
    let jobs: Vec<Job> = vec![Box::new(job), Box::new(job)];
    WorkerPool::new(2).run(2, jobs).expect("both nested replays finish");
}

/// TFHE gates whose first `panics` bootstrapping calls panic.
struct Faulty<'k> {
    inner: TfheEngine<'k>,
    panics: AtomicUsize,
}

impl GateEngine for Faulty<'_> {
    type Value = LweCiphertext;
    type Scratch = GateScratch;
    fn scratch(&self) -> GateScratch {
        self.inner.scratch()
    }
    fn constant(&self, bit: bool) -> Self::Value {
        self.inner.constant(bit)
    }
    fn gang_width(&self) -> usize {
        self.inner.gang_width()
    }
    fn band(&self, scratches: &mut [GateScratch]) {
        self.inner.band(scratches);
    }
    fn release(&self, scratch: &mut GateScratch) {
        self.inner.release(scratch);
    }
    fn eval_batch(
        &self,
        items: &[(GateKind, &Self::Value, &Self::Value)],
        outs: &mut [Self::Value],
        scratch: &mut GateScratch,
    ) {
        let take = |n: usize| n.checked_sub(1);
        let fail = items.iter().any(|&(kind, ..)| kind != GateKind::Not)
            && self.panics.fetch_update(Ordering::Relaxed, Ordering::Relaxed, take).is_ok();
        assert!(!fail, "injected panic");
        self.inner.eval_batch(items, outs, scratch);
    }
}

/// Counts the admissions it is asked for and refuses none.
struct Counting(AtomicUsize);

impl FaultInjector for Counting {
    fn task_fate(&self, _: usize, _: u32, _: u32) -> TaskFate {
        self.0.fetch_add(1, Ordering::Relaxed);
        TaskFate::Success
    }
}

#[test]
fn a_panicking_member_aborts_its_gang_which_is_retried_whole() {
    let (_, server, cts) = setup();
    let faulty =
        |panics| Faulty { inner: TfheEngine::new(&server), panics: AtomicUsize::new(panics) };
    let nl = chain(6);
    let (want, _) = execute(&TfheEngine::new(&server), &nl, &cts).expect("execute");
    let plan = capture(&nl, &CaptureConfig::default()).expect("capture");

    // One member panics, its partner is released from the barrier, and
    // the wave reports the panic; the same lanes then replay cleanly.
    let engine = faulty(1);
    let mut lanes = ReplayLanes::new(2);
    let err = replay(&engine, &plan, &cts, &mut lanes).expect_err("a member panicked");
    assert!(matches!(err, ExecError::WorkerPanicked));
    let (got, _) = replay(&engine, &plan, &cts, &mut lanes).expect("the pool and gang survive");
    assert_eq!(got, want);

    // Under the resilient executor a gang is one chunk: admitted once per
    // wave, and the failed one runs again whole.
    let cfg = ResilientConfig { workers: 2, retry: RetryPolicy::fast() };
    let admits = Counting(AtomicUsize::new(0));
    let (got, stats) =
        execute_resilient(&faulty(1), &nl, &cts, &cfg, &admits, None).expect("retried");
    assert_eq!(got, want);
    assert_eq!(stats.retries, 1);
    assert_eq!(admits.0.load(Ordering::Relaxed), plan.num_waves() + 1);
}
