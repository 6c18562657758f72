//! Program executors: the reference sequential interpreter (the serial
//! oracle every suite compares against), [`execute_parallel`] — the
//! one-shot form of the paper's Algorithm 1, which this crate implements
//! as [`capture`] + [`replay`] — and the fault-tolerant
//! [`execute_resilient`], which is capture plus the same wave dispatch
//! with failed chunks retried.
//!
//! All are generic over a [`GateEngine`], so the identical scheduling
//! code serves plaintext validation and real homomorphic evaluation.

use crate::checkpoint::{Checkpoint, CheckpointStore, Checkpointable};
use crate::engine::{boot_gate, check_inputs, GateEngine};
use crate::error::ExecError;
use crate::fault::{FaultInjector, RetryPolicy, TaskFate};
use crate::graph::{capture, replay, run_wave_with, CaptureConfig, Launch, ReplayLanes, Retry};
use pytfhe_netlist::{Netlist, Node};
use pytfhe_telemetry as telemetry;
use std::time::Instant;

/// Execution statistics.
///
/// All executors report the same type — [`replay`] fills it directly —
/// and the fault-tolerance counters stay zero outside
/// [`execute_resilient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecStats {
    /// Gates evaluated.
    pub gates: usize,
    /// Scheduling waves executed (0 for the reference executor).
    pub waves: usize,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Failed chunk attempts that were retried.
    pub retries: u64,
    /// Workers permanently evicted after a crash.
    pub evicted_workers: usize,
    /// Wave-barrier checkpoints written.
    pub checkpoints: usize,
    /// The wave a resumed run restarted after, if it resumed at all.
    pub resumed_from_wave: Option<usize>,
    /// Seconds spent capturing the kernel plan (0 when the plan came from
    /// the cache, and for the reference executor).
    pub capture_s: f64,
    /// Seconds spent replaying the captured plan (`wall_s` additionally
    /// covers capture and cache lookup; 0 for the reference executor).
    pub replay_s: f64,
    /// Whether the kernel-graph executor reused a cached plan instead of
    /// capturing one.
    pub plan_cached: bool,
    /// Batched gate kernel launches issued: one per worker chunk of a wave's
    /// bootstrapping gates and one per chunk of its linear gates.
    pub kernel_launches: u64,
    /// Worker-pool tasks executed by a lane other than the one they
    /// were queued on (work-stealing activity; 0 on serial runs).
    pub steals: u64,
    /// Bootstraps the TFHE engine executes for this program: one per
    /// binary gate. `Not`, `Buf` and constants are linear and cost none.
    /// The plaintext engine, which runs the same schedule, reports the
    /// same count.
    pub bootstraps: u64,
    /// Name of the SIMD kernel path the TFHE layer dispatched to
    /// (`"scalar"` or `"avx2"`; see `pytfhe_tfhe::simd`).
    pub simd_path: &'static str,
}

impl ExecStats {
    /// Statistics of a run yet to start: the program's size (see
    /// [`netlist_bootstraps`] for `bootstraps`), every run counter zero.
    pub fn new(gates: usize, bootstraps: u64) -> Self {
        ExecStats {
            gates,
            waves: 0,
            wall_s: 0.0,
            retries: 0,
            evicted_workers: 0,
            checkpoints: 0,
            resumed_from_wave: None,
            capture_s: 0.0,
            replay_s: 0.0,
            plan_cached: false,
            kernel_launches: 0,
            steals: 0,
            bootstraps,
            simd_path: pytfhe_tfhe::simd::active_path().name(),
        }
    }

    /// Publishes the run's counters into the global telemetry metrics
    /// registry (the Prometheus and summary exporters read from there).
    /// No-op when telemetry is disabled.
    pub fn record_metrics(&self) {
        if !telemetry::enabled() {
            return;
        }
        let m = telemetry::metrics();
        m.counter_add("exec_gates_total", self.gates as u64);
        m.counter_add("exec_waves_total", self.waves as u64);
        m.counter_add("exec_retries_total", self.retries);
        m.counter_add("exec_evicted_workers_total", self.evicted_workers as u64);
        m.counter_add("exec_checkpoints_total", self.checkpoints as u64);
        m.counter_add("exec_kernel_launches_total", self.kernel_launches);
        m.counter_add("exec_steals_total", self.steals);
        m.counter_add("exec_bootstraps_total", self.bootstraps);
        m.observe_seconds("exec_wall_seconds", self.wall_s);
    }
}

impl std::fmt::Display for ExecStats {
    /// Human-readable counter block. Fault-tolerance and kernel-graph
    /// lines only appear on runs where those paths were exercised.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gates             {}\nwaves             {}\nwall time         {:.3} s\nsimd path         {}",
            self.gates, self.waves, self.wall_s, self.simd_path
        )?;
        if let Some(w) = self.resumed_from_wave {
            write!(f, "\nresumed from wave {w}")?;
        }
        if self.retries > 0 || self.evicted_workers > 0 || self.checkpoints > 0 {
            write!(
                f,
                "\nretries           {}\nevicted workers   {}\ncheckpoints       {}",
                self.retries, self.evicted_workers, self.checkpoints
            )?;
        }
        if self.plan_cached || self.capture_s > 0.0 || self.replay_s > 0.0 {
            write!(
                f,
                "\nplan              {}\ncapture           {:.3} s\nreplay            {:.3} s\nkernel launches   {}",
                if self.plan_cached { "cached" } else { "captured" },
                self.capture_s,
                self.replay_s,
                self.kernel_launches
            )?;
        }
        Ok(())
    }
}

/// Smallest wave size worth a pool dispatch — the floor under every
/// engine's [`GateEngine::parallel_grain`] in [`replay`]: below this,
/// even the cheap hand-off to the persistent [`crate::WorkerPool`]
/// outweighs the gate work itself (most circuits have long tails of
/// 1–2-gate waves), so those waves run inline on the caller's thread.
/// The plaintext engine raises its grain to thousands of gates (a plain
/// gate is a couple of table lookups), while the TFHE engine keeps it
/// here (a bootstrap costs milliseconds, so any splittable wave is
/// worth dispatching).
pub const PARALLEL_WAVE_MIN: usize = 2;

/// Bootstraps the TFHE engine executes for `nl`: one per binary gate.
/// `Not`, `Buf` and constants are linear. All executors report this
/// through [`ExecStats::bootstraps`].
pub fn netlist_bootstraps(nl: &Netlist) -> u64 {
    let bootstraps = |node: &Node| match *node {
        Node::Gate { kind, .. } => boot_gate(kind).is_some(),
        Node::Input => false,
    };
    nl.nodes().iter().filter(|node| bootstraps(node)).count() as u64
}

/// Runs `nl` on `inputs` with a single thread, in node order (valid
/// because netlists are topologically ordered by construction).
///
/// # Errors
///
/// Returns [`ExecError::InputCountMismatch`] or
/// [`ExecError::InputDimensionMismatch`] before a validation error.
pub fn execute<E: GateEngine>(
    engine: &E,
    nl: &Netlist,
    inputs: &[E::Value],
) -> Result<(Vec<E::Value>, ExecStats), ExecError> {
    check_inputs(engine, nl.num_inputs(), inputs)?;
    nl.validate()?;
    let _span =
        telemetry::span_with("exec", || format!("reference execute: {} gates", nl.num_gates()));
    let start = Instant::now();
    let mut values: Vec<E::Value> = vec![engine.constant(false); nl.num_nodes()];
    let mut scratch = engine.scratch();
    let mut inputs = inputs.iter();
    for (i, node) in nl.nodes().iter().enumerate() {
        values[i] = match *node {
            Node::Input => inputs.next().expect("input count checked").clone(),
            Node::Gate { kind, a, b } => {
                let mut out = engine.constant(false);
                let item = (kind, &values[a.index()], &values[b.index()]);
                engine.eval_batch(&[item], std::slice::from_mut(&mut out), &mut scratch);
                out
            }
        };
    }
    let outputs = nl.outputs().iter().map(|o| values[o.index()].clone()).collect();
    let mut stats = ExecStats::new(nl.num_gates(), netlist_bootstraps(nl));
    stats.wall_s = start.elapsed().as_secs_f64();
    stats.record_metrics();
    Ok((outputs, stats))
}

/// Runs `nl` once across `workers` lanes of the shared worker pool: the
/// one-shot form of the paper's Algorithm 1, which this crate implements
/// as [`capture`] (the BFS wavefront: waves of ready gates, grouped into
/// batched kernels) followed by [`replay`] (one pool dispatch per wide
/// wave, a barrier between waves — the algorithm's
/// `Compute(C - finished)` step). The plan is captured on every call and
/// dropped on return; hold a [`crate::KernelGraph`] to capture once and
/// replay many times.
///
/// # Errors
///
/// Returns [`ExecError::InputCountMismatch`] or
/// [`ExecError::InputDimensionMismatch`] before any validation error,
/// [`ExecError::InvalidProgram`] when capture rejects the netlist, and
/// [`ExecError::WorkerPanicked`] when a pool lane dies.
pub fn execute_parallel<E: GateEngine>(
    engine: &E,
    nl: &Netlist,
    inputs: &[E::Value],
    workers: usize,
) -> Result<(Vec<E::Value>, ExecStats), ExecError> {
    check_inputs(engine, nl.num_inputs(), inputs)?;
    let _span = telemetry::span_with("exec", || {
        format!("one-shot execute: {} gates, {workers} workers", nl.num_gates())
    });
    let start = Instant::now();
    let plan = capture(nl, &CaptureConfig::default())?;
    let capture_s = start.elapsed().as_secs_f64();
    let mut lanes = ReplayLanes::new(workers);
    let (outputs, mut stats) = replay(engine, &plan, inputs, &mut lanes)?;
    stats.capture_s = capture_s;
    stats.wall_s = start.elapsed().as_secs_f64();
    stats.record_metrics();
    Ok((outputs, stats))
}

/// Configuration of [`execute_resilient`].
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// Initial worker count (crashed workers are evicted, so the
    /// effective pool can shrink down to 1 before the run fails).
    pub workers: usize,
    /// Retry/backoff/deadline policy for failed chunks.
    pub retry: RetryPolicy,
    /// Completed waves between checkpoints (1 = snapshot at every
    /// barrier, 0 = never snapshot even when a store is supplied).
    pub checkpoint_every: usize,
}

impl ResilientConfig {
    /// `workers` workers, default retry policy, checkpoint every wave.
    pub fn new(workers: usize) -> Self {
        ResilientConfig { workers, retry: RetryPolicy::default(), checkpoint_every: 1 }
    }
}

/// Runs `nl` like [`execute_parallel`] — [`capture`], then the plan's
/// waves through the one wave dispatcher — under a fault model: a chunk
/// whose attempt fails (or panics) is re-run with capped exponential
/// backoff while the wave's finished chunks stand, stragglers past their
/// deadline are abandoned and retried, a crashed worker takes its lane
/// away for the rest of the run, and — when a [`CheckpointStore`] is
/// supplied — the live values are snapshotted after each completed wave
/// so an interrupted run resumes from the last barrier instead of gate
/// zero.
///
/// Waves are numbered as in [`LevelSchedule`] (the topological level of
/// their gates), which is what [`FaultInjector`] coordinates,
/// [`Checkpoint::wave`] and the wave errors refer to.
///
/// With [`crate::fault::NoFaults`] this produces the bytes
/// [`execute_parallel`] does; faults never change results, only the path
/// taken to them.
///
/// # Errors
///
/// Returns the usual validation errors, plus [`ExecError::Exhausted`]
/// when a chunk's retry budget runs out, [`ExecError::NoWorkers`] when
/// every worker has been evicted, [`ExecError::WaveDeadlineExceeded`]
/// when a wave blows its deadline, and checkpoint errors when a supplied
/// store cannot round-trip a snapshot (including
/// [`ExecError::BadCheckpoint`] if the store holds a snapshot of a
/// *different* program).
///
/// [`LevelSchedule`]: pytfhe_netlist::LevelSchedule
pub fn execute_resilient<E, F>(
    engine: &E,
    nl: &Netlist,
    inputs: &[E::Value],
    cfg: &ResilientConfig,
    faults: &F,
    mut store: Option<&mut dyn CheckpointStore>,
) -> Result<(Vec<E::Value>, ExecStats), ExecError>
where
    E: GateEngine,
    E::Value: Checkpointable,
    F: FaultInjector + ?Sized,
{
    check_inputs(engine, nl.num_inputs(), inputs)?;
    let _span = telemetry::span_with("exec", || {
        format!("resilient execute: {} gates, {} workers", nl.num_gates(), cfg.workers)
    });
    let start = Instant::now();
    let plan = capture(nl, &CaptureConfig::default())?;
    let capture_s = start.elapsed().as_secs_f64();
    let mut lanes = ReplayLanes::new(cfg.workers);
    lanes.load(engine, &plan, inputs)?;
    let mut stats = ExecStats::new(plan.num_gates(), plan.bootstraps());
    stats.capture_s = capture_s;
    // The plan's waves are the schedule's non-empty levels in order, and
    // only level 0, which holds nothing but constants, can be empty.
    let level_0_empty =
        !plan.waves.first().is_some_and(|w| w.gates.iter().all(|t| t.kind.is_const()));
    let first_level = usize::from(level_0_empty);

    let mut skip = 0;
    if let Some(store) = store.as_deref_mut() {
        if let Some(ckpt) = store.load()? {
            if ckpt.fingerprint() != plan.fingerprint {
                return Err(ExecError::BadCheckpoint {
                    reason: "checkpoint belongs to a different program",
                });
            }
            ckpt.restore_into(&mut lanes.values)?;
            skip = (ckpt.wave() + 1).saturating_sub(first_level);
            stats.resumed_from_wave = Some(ckpt.wave());
        }
    }
    let snapshots = cfg.checkpoint_every > 0 && store.is_some();
    let live = if snapshots { plan.live_ranges() } else { Vec::new() };

    let mut alive: Vec<usize> = (0..cfg.workers.max(1)).collect();
    for (index, wave) in plan.waves.iter().enumerate().skip(skip) {
        let level = index + first_level;
        alive.retain(|&worker| {
            let crashed = faults.worker_crashes(level, worker);
            if crashed {
                stats.evicted_workers += 1;
                telemetry::instant("exec", format!("worker {worker} evicted (wave {level})"));
            }
            !crashed
        });
        if alive.is_empty() {
            return Err(ExecError::NoWorkers { wave: level });
        }
        let mut retry = WaveRetry {
            faults,
            policy: &cfg.retry,
            wave: level,
            attempt: 1,
            start: Instant::now(),
            retries: 0,
        };
        let launch = Launch { engine, wave, lanes: &mut lanes };
        let ran = run_wave_with(&mut [launch], alive.len(), &mut stats, &mut retry);
        stats.retries += retry.retries;
        ran?;
        retry.within_deadline()?;
        stats.waves += 1;
        let due = snapshots && stats.waves.is_multiple_of(cfg.checkpoint_every);
        if let Some(store) = store.as_deref_mut().filter(|_| due) {
            let k = index as u32;
            let frontier =
                live.iter().enumerate().filter(|(_, &(written, read))| written <= k && k < read);
            let frontier = frontier.map(|(slot, _)| (slot as u32, &lanes.values[slot]));
            let ckpt_span =
                telemetry::span_with("exec", || format!("checkpoint after wave {level}"));
            store.save(&Checkpoint::capture(level, plan.fingerprint, frontier))?;
            ckpt_span.end();
            stats.checkpoints += 1;
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats.replay_s = stats.wall_s - capture_s;
    stats.record_metrics();
    Ok((lanes.outputs(&plan), stats))
}

/// The resilient executor's [`Retry`] policy for one wave: consults the
/// injector per (wave, chunk, attempt), and between rounds counts the
/// failed chunks, gives up past the attempt or wall-clock budget, and
/// backs off.
struct WaveRetry<'a, F: ?Sized> {
    faults: &'a F,
    policy: &'a RetryPolicy,
    wave: usize,
    /// The attempt every chunk of the round under way is on: each round
    /// re-runs all the chunks that have not finished.
    attempt: u32,
    start: Instant,
    retries: u64,
}

impl<F: FaultInjector + ?Sized> WaveRetry<'_, F> {
    fn within_deadline(&self) -> Result<(), ExecError> {
        match self.policy.wave_deadline {
            Some(deadline) if self.start.elapsed() > deadline => {
                Err(ExecError::WaveDeadlineExceeded { wave: self.wave })
            }
            _ => Ok(()),
        }
    }
}

impl<F: FaultInjector + ?Sized> Retry for WaveRetry<'_, F> {
    fn admit(&self, chunk: usize) -> bool {
        match self.faults.task_fate(self.wave, chunk as u32, self.attempt) {
            TaskFate::Success => true,
            TaskFate::Fail => false,
            // Past the task deadline the attempt is abandoned at once (a
            // driver stops waiting); within it, the straggler stalls its
            // lane for real.
            TaskFate::Slow(latency) => {
                let abandoned = self.policy.task_deadline.is_some_and(|d| latency > d);
                if !abandoned {
                    std::thread::sleep(latency);
                }
                !abandoned
            }
        }
    }

    fn retry(&mut self, failed: &[usize]) -> Result<(), ExecError> {
        self.retries += failed.len() as u64;
        let n = failed.len();
        telemetry::instant("exec", format!("retry {n} chunks (attempt {})", self.attempt));
        if self.attempt >= self.policy.max_attempts.max(1) {
            let (chunk, attempts) = (failed[0] as u32, self.attempt);
            return Err(ExecError::Exhausted { wave: self.wave, chunk, attempts });
        }
        self.within_deadline()?;
        let backoff = failed.iter().map(|&c| self.policy.backoff(c as u32, self.attempt)).max();
        std::thread::sleep(backoff.unwrap_or_default());
        self.attempt += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PlainEngine, TfheEngine};
    use pytfhe_netlist::GateKind;
    use pytfhe_tfhe::{ClientKey, Params, SecureRng};

    fn adder4() -> Netlist {
        // A 4-bit ripple adder netlist, built by hand.
        let mut nl = Netlist::new();
        let a: Vec<_> = (0..4).map(|_| nl.add_input()).collect();
        let b: Vec<_> = (0..4).map(|_| nl.add_input()).collect();
        let mut carry: Option<pytfhe_netlist::NodeId> = None;
        for i in 0..4 {
            let axb = nl.add_gate(GateKind::Xor, a[i], b[i]).unwrap();
            let sum = match carry {
                None => axb,
                Some(c) => nl.add_gate(GateKind::Xor, axb, c).unwrap(),
            };
            let ab = nl.add_gate(GateKind::And, a[i], b[i]).unwrap();
            carry = Some(match carry {
                None => ab,
                Some(c) => {
                    let t = nl.add_gate(GateKind::And, axb, c).unwrap();
                    nl.add_gate(GateKind::Or, ab, t).unwrap()
                }
            });
            nl.mark_output(sum).unwrap();
        }
        nl.mark_output(carry.unwrap()).unwrap();
        nl
    }

    fn to_bits(x: u64, w: usize) -> Vec<bool> {
        (0..w).map(|i| (x >> i) & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    #[test]
    fn reference_executor_matches_eval_plain() {
        let nl = adder4();
        let engine = PlainEngine::new();
        for x in 0u64..16 {
            for y in [0u64, 3, 9, 15] {
                let mut input = to_bits(x, 4);
                input.extend(to_bits(y, 4));
                let (out, stats) = execute(&engine, &nl, &input).unwrap();
                assert_eq!(from_bits(&out), x + y);
                assert_eq!(out, nl.eval_plain(&input));
                assert_eq!(stats.gates, nl.num_gates());
            }
        }
    }

    #[test]
    fn parallel_executor_agrees_with_reference() {
        let nl = adder4();
        let engine = PlainEngine::new();
        for workers in [1, 2, 4, 16] {
            for x in [0u64, 7, 12] {
                let mut input = to_bits(x, 4);
                input.extend(to_bits(13, 4));
                let (seq, _) = execute(&engine, &nl, &input).unwrap();
                let (par, stats) = execute_parallel(&engine, &nl, &input, workers).unwrap();
                assert_eq!(seq, par, "workers={workers}");
                assert!(stats.waves > 0);
            }
        }
    }

    #[test]
    fn narrow_waves_skip_the_pool() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Counts scratch() allocations: the serial fast path takes exactly
        // one scratch for the whole run, while the pooled path takes one
        // per worker chunk — so the count exposes which path ran.
        struct CountingEngine {
            scratches: AtomicUsize,
        }
        impl GateEngine for CountingEngine {
            type Value = bool;
            type Scratch = ();
            fn scratch(&self) {
                self.scratches.fetch_add(1, Ordering::Relaxed);
            }
            fn eval_batch(&self, g: &[(GateKind, &bool, &bool)], o: &mut [bool], s: &mut ()) {
                PlainEngine::new().eval_batch(g, o, s);
            }
            fn constant(&self, bit: bool) -> bool {
                bit
            }
        }

        // One wave of `width` independent gates.
        let wave_of = |width: usize| {
            let mut nl = Netlist::new();
            let a = nl.add_input();
            let b = nl.add_input();
            for _ in 0..width {
                let g = nl.add_gate(GateKind::Nand, a, b).unwrap();
                nl.mark_output(g).unwrap();
            }
            nl
        };
        let workers = 2;

        // Just below the threshold: serial (one scratch for the wave).
        let engine = CountingEngine { scratches: AtomicUsize::new(0) };
        let nl = wave_of(PARALLEL_WAVE_MIN - 1);
        let (out, _) = execute_parallel(&engine, &nl, &[true, true], workers).unwrap();
        assert!(out.iter().all(|&v| !v));
        assert_eq!(engine.scratches.load(Ordering::Relaxed), 1, "narrow wave must stay serial");

        // At the threshold: the pool runs one chunk per worker.
        let engine = CountingEngine { scratches: AtomicUsize::new(0) };
        let nl = wave_of(PARALLEL_WAVE_MIN);
        let (out, _) = execute_parallel(&engine, &nl, &[true, true], workers).unwrap();
        assert!(out.iter().all(|&v| !v));
        assert_eq!(
            engine.scratches.load(Ordering::Relaxed),
            workers,
            "wide wave must fan out across workers"
        );
    }

    #[test]
    fn stats_report_the_dispatched_simd_path() {
        let nl = adder4();
        let engine = PlainEngine::new();
        let mut input = to_bits(3, 4);
        input.extend(to_bits(5, 4));
        let (_, stats) = execute(&engine, &nl, &input).unwrap();
        assert_eq!(stats.simd_path, pytfhe_tfhe::simd::active_path().name());
        assert!(["scalar", "avx2"].contains(&stats.simd_path));
    }

    #[test]
    fn exec_stats_display_sections_are_conditional() {
        let mut stats = ExecStats::new(7, 0);
        stats.waves = 3;
        stats.wall_s = 0.25;
        let plain = stats.to_string();
        assert!(plain.contains("gates"));
        assert!(plain.contains("simd path"));
        assert!(!plain.contains("retries"), "fault lines hidden on clean runs:\n{plain}");
        assert!(
            !plain.contains("kernel launches"),
            "graph lines hidden off the graph path:\n{plain}"
        );

        stats.retries = 2;
        stats.plan_cached = true;
        stats.resumed_from_wave = Some(4);
        let full = stats.to_string();
        assert!(full.contains("retries           2"));
        assert!(full.contains("resumed from wave 4"));
        assert!(full.contains("plan              cached"));
    }

    #[test]
    fn input_count_is_checked() {
        let nl = adder4();
        let engine = PlainEngine::new();
        let err = execute(&engine, &nl, &[true; 3]).unwrap_err();
        assert_eq!(err, ExecError::InputCountMismatch { expected: 8, got: 3 });
        let err = execute_parallel(&engine, &nl, &[true; 9], 2).unwrap_err();
        assert_eq!(err, ExecError::InputCountMismatch { expected: 8, got: 9 });
    }

    #[test]
    fn encrypted_end_to_end_both_executors() {
        let mut rng = SecureRng::seed_from_u64(11);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let engine = TfheEngine::new(&server);
        let nl = adder4();
        let (x, y) = (11u64, 6u64);
        let mut bits = to_bits(x, 4);
        bits.extend(to_bits(y, 4));
        let cts = client.encrypt_bits(&bits, &mut rng);
        let (out, _) = execute(&engine, &nl, &cts).unwrap();
        assert_eq!(from_bits(&client.decrypt_bits(&out)), x + y);
        let (out, stats) = execute_parallel(&engine, &nl, &cts, 4).unwrap();
        assert_eq!(from_bits(&client.decrypt_bits(&out)), x + y);
        assert!(stats.wall_s > 0.0);
    }

    #[test]
    fn parallel_speedup_on_wide_circuits() {
        // A wide, embarrassingly parallel wave of encrypted gates should
        // actually go faster with more workers (smoke-check, generous
        // threshold to stay robust on loaded CI machines).
        let mut rng = SecureRng::seed_from_u64(12);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let engine = TfheEngine::new(&server);
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let gates: Vec<_> = (0..64).map(|_| nl.add_gate(GateKind::Nand, a, b).unwrap()).collect();
        for g in gates {
            nl.mark_output(g).unwrap();
        }
        let cts = client.encrypt_bits(&[true, true], &mut rng);
        let (_, s1) = execute_parallel(&engine, &nl, &cts, 1).unwrap();
        let (out, s4) = execute_parallel(&engine, &nl, &cts, 4).unwrap();
        assert!(out.iter().all(|ct| !client.decrypt_bit(ct)));
        // Wall-clock improvement is only observable with real cores.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 4 {
            assert!(
                s4.wall_s < s1.wall_s,
                "4 workers ({:.3}s) should beat 1 worker ({:.3}s)",
                s4.wall_s,
                s1.wall_s
            );
        }
    }
}
