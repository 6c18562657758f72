//! The cross-session batching scheduler.
//!
//! A submitted job is a captured [`KernelPlan`] with a wave cursor and
//! an arena of its own: [`Scheduler::submit`] refuses what it must,
//! captures the program, re-cuts waves too wide for a round, loads the
//! inputs and drops the netlist. A single scheduler thread then works in
//! *rounds*. Under the lock it runs every job's bootstrap-free waves
//! (`Not`, `Buf`, constants) on the spot, publishes finished jobs, and
//! picks whole next waves from the tenants' queues; outside the lock it
//! hands them — one [`Launch`] per job, each over its tenant's key — to
//! [`run_wave`], the workspace's one wave dispatcher: all their per-lane
//! chunks are one [`WorkerPool`] run, so tenants bootstrap concurrently
//! and idle lanes steal loaded tenants' chunks.
//!
//! Fairness: each round visits tenants round-robin starting one past the
//! tenant that led the previous round, never holds more than `max_wave`
//! bootstraps, and lets no tenant add a wave past
//! `max(1, max_wave / live_tenants)` bootstraps. Waves are picked whole,
//! so a tenant's first wave of a round may overshoot that share by less
//! than one wave — at most `max_wave / 2` bootstraps, which with two live
//! tenants *is* the share. A greedy tenant with a deep queue therefore
//! shares every round instead of monopolizing the engine.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use pytfhe_backend::graph::{
    capture, run_wave, CaptureConfig, KernelPlan, Launch, ReplayLanes, WavePlan,
};
use pytfhe_backend::{ExecStats, TfheEngine, WorkerPool};
use pytfhe_netlist::Netlist;
use pytfhe_telemetry as telemetry;
use pytfhe_tfhe::{GateScratch, LweCiphertext, Params, ServerKey};

use crate::error::ServeError;

/// Histogram buckets for round occupancy (bootstraps per dispatch).
const OCCUPANCY_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Safety ceiling on a blocking fetch, so a lost job surfaces as an
/// error instead of a hung connection.
const FETCH_TIMEOUT: Duration = Duration::from_secs(300);

/// A job's value arena, stage and per-lane bootstrap scratch.
type Lanes = ReplayLanes<LweCiphertext, GateScratch>;

/// One job: a captured plan and how far it has run.
struct JobState {
    id: u64,
    /// The tenant's parameter set, carried through to the completed
    /// result so reply frames can serialize outputs without a key
    /// lookup.
    params: Params,
    /// The captured program, no wave over half a round's bootstraps.
    plan: Arc<KernelPlan>,
    /// The next wave of `plan` to run.
    cursor: usize,
    /// Everything the job has computed so far. Empty while the job's
    /// next wave runs outside the lock, which holds the real ones.
    lanes: Lanes,
}

impl JobState {
    fn next_wave(&self) -> Option<&WavePlan> {
        self.plan.waves.get(self.cursor)
    }
}

struct TenantQueue {
    key: Arc<ServerKey>,
    jobs: Vec<JobState>,
}

/// One job's share of a round, moved out of the lock while it runs.
struct Picked {
    tenant: u64,
    job: u64,
    plan: Arc<KernelPlan>,
    wave: usize,
    lanes: Lanes,
}

struct SchedState {
    /// Tenants with queued or running jobs, and nothing else: an entry
    /// goes with its last job, so a key evicted from the cache is not
    /// kept alive here.
    tenants: BTreeMap<u64, TenantQueue>,
    /// Finished jobs awaiting fetch: id → outputs with the tenant's
    /// parameter set.
    completed: HashMap<u64, (Vec<LweCiphertext>, Params)>,
    /// Fingerprint of the tenant that led the previous round.
    rr_cursor: u64,
    next_job: u64,
    shutdown: bool,
}

/// A lock on [`Shared::state`] (or a wait on it), poisoned or not: a
/// panic under the lock leaves the queues and the completed map usable,
/// so it stops no later `in_flight`, `submit`, `fetch` or round.
fn recover<T>(locked: LockResult<T>) -> T {
    locked.unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    state: Mutex<SchedState>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Signalled when a job completes.
    done: Condvar,
    max_wave: usize,
}

/// Handle to the scheduler thread. Dropping without [`Scheduler::shutdown`]
/// detaches the worker; it exits once its queues drain and the handle's
/// shared state is released.
pub struct Scheduler {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts the scheduler thread. `max_wave` bounds the bootstraps
    /// one round dispatches across all tenants (clamped ≥ 1).
    pub fn start(max_wave: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                tenants: BTreeMap::new(),
                completed: HashMap::new(),
                rr_cursor: 0,
                next_job: 1,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            max_wave: max_wave.max(1),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("pytfhe-serve-sched".into())
            .spawn(move || run_scheduler(&worker_shared))
            .expect("spawn scheduler thread");
        Scheduler { shared, worker: Some(worker) }
    }

    /// Jobs a tenant currently has queued or running.
    pub fn in_flight(&self, tenant: u64) -> usize {
        let state = recover(self.shared.state.lock());
        state.tenants.get(&tenant).map_or(0, |q| q.jobs.len())
    }

    /// Enqueues a job for `tenant` under `key`, enforcing the tenant's
    /// in-flight `quota`. Returns the job id to fetch results with.
    ///
    /// # Errors
    ///
    /// [`ServeError::QuotaExceeded`] at the quota ceiling,
    /// [`ServeError::Exec`] when the program does not validate or
    /// [`ReplayLanes::load`] refuses the inputs (so a bad input never
    /// reaches the shared scheduler thread), and [`ServeError::Shutdown`]
    /// after shutdown began.
    pub fn submit(
        &self,
        tenant: u64,
        key: Arc<ServerKey>,
        nl: Netlist,
        inputs: Vec<LweCiphertext>,
        quota: usize,
    ) -> Result<u64, ServeError> {
        // Captured per job, never cached: capturing a job-sized program
        // takes microseconds, and a cache keyed by program fingerprint
        // would grow with whatever tenants choose to send.
        let mut plan = capture(&nl, &CaptureConfig::default())?;
        // A wave wider than a round could never be picked whole. Half a
        // round, so that two tenants' widest waves still share one.
        let unit = (self.shared.max_wave / 2).max(1);
        plan.waves =
            std::mem::take(&mut plan.waves).into_iter().flat_map(|w| w.split(unit)).collect();
        let mut lanes = Lanes::new(WorkerPool::global().width());
        lanes.load(&TfheEngine::new(&key), &plan, &inputs)?;
        let params = *key.params();

        let mut state = recover(self.shared.state.lock());
        if state.shutdown {
            return Err(ServeError::Shutdown);
        }
        let in_flight = state.tenants.get(&tenant).map_or(0, |q| q.jobs.len());
        if in_flight >= quota {
            telemetry::metrics().counter_add("serve_jobs_rejected_quota_total", 1);
            return Err(ServeError::QuotaExceeded { in_flight, quota });
        }
        let id = state.next_job;
        state.next_job += 1;
        let queue =
            state.tenants.entry(tenant).or_insert_with(|| TenantQueue { key, jobs: Vec::new() });
        queue.jobs.push(JobState { id, params, plan: Arc::new(plan), cursor: 0, lanes });
        telemetry::metrics().counter_add("serve_jobs_submitted_total", 1);
        telemetry::metrics()
            .counter_add(&format!("serve_tenant_{tenant:016x}_jobs_submitted_total"), 1);
        telemetry::metrics()
            .gauge_set(&format!("serve_tenant_{tenant:016x}_queue_depth"), queue.jobs.len() as f64);
        drop(state);
        self.shared.work.notify_one();
        Ok(id)
    }

    /// Blocks until job `id` finishes, returning its output ciphertexts
    /// and the tenant's parameter set. A result is delivered once.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id that was never issued or
    /// whose result was already fetched, and [`ServeError::Protocol`] if
    /// the safety timeout expired.
    pub fn fetch(&self, id: u64) -> Result<(Vec<LweCiphertext>, Params), ServeError> {
        let mut state = recover(self.shared.state.lock());
        loop {
            if let Some(result) = state.completed.remove(&id) {
                return Ok(result);
            }
            // A job is queued from submit until its result is published
            // under this same lock, so an id found in neither place was
            // never issued or has been delivered: nothing to wait for.
            if !state.tenants.values().any(|q| q.jobs.iter().any(|j| j.id == id)) {
                return Err(ServeError::UnknownJob(id));
            }
            let (next, timed_out) = recover(self.shared.done.wait_timeout(state, FETCH_TIMEOUT));
            state = next;
            if timed_out.timed_out() {
                return Err(ServeError::Protocol(format!(
                    "job {id} did not complete within {FETCH_TIMEOUT:?}"
                )));
            }
        }
    }

    /// Stops the scheduler after draining queued jobs, then joins the
    /// worker thread — what dropping the handle does.
    pub fn shutdown(self) {}
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        recover(self.shared.state.lock()).shutdown = true;
        self.shared.work.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Forms one round under the lock: runs every job through its
/// bootstrap-free waves, publishes the jobs that finished, then picks
/// whole next waves — each with its tenant's key — round-robin and
/// fair-share bounded. Empty only when no job is queued.
fn next_round(
    state: &mut SchedState,
    shared: &Shared,
    stats: &mut ExecStats,
) -> Vec<(Arc<ServerKey>, Picked)> {
    for queue in state.tenants.values_mut() {
        let engine = TfheEngine::new(&queue.key);
        for job in &mut queue.jobs {
            while let Some(wave) = job.plan.waves.get(job.cursor).filter(|w| w.bootstraps() == 0) {
                let lanes = &mut job.lanes;
                let launch = Launch { engine: &engine, wave, lanes };
                run_wave(&mut [launch], 1, stats).expect("one lane runs on this thread");
                job.cursor += 1;
            }
        }
    }
    finish_complete_jobs(state, shared);

    // Every queue left holds jobs, and every job's next wave bootstraps.
    let live: Vec<u64> = state.tenants.keys().copied().collect();
    if live.is_empty() {
        return Vec::new();
    }
    let fair_share = (shared.max_wave / live.len()).max(1);
    let start = live.iter().position(|&fp| fp > state.rr_cursor).unwrap_or(0);
    state.rr_cursor = live[start];
    let mut round = Vec::new();
    let mut total = 0;
    for offset in 0..live.len() {
        let tenant = live[(start + offset) % live.len()];
        let queue = state.tenants.get_mut(&tenant).expect("live tenant");
        let mut taken = 0;
        for job in &mut queue.jobs {
            let cost = job.next_wave().map_or(0, |w| w.bootstraps() as usize);
            // A wave is never cut here, so a tenant's first may overshoot
            // its share; nothing overshoots the round. The leader's first
            // wave always fits, so a round is never empty.
            if total + cost > shared.max_wave || (taken > 0 && taken + cost > fair_share) {
                continue;
            }
            taken += cost;
            total += cost;
            let (plan, lanes) =
                (Arc::clone(&job.plan), std::mem::replace(&mut job.lanes, Lanes::new(1)));
            let picked = Picked { tenant, job: job.id, plan, wave: job.cursor, lanes };
            round.push((Arc::clone(&queue.key), picked));
        }
    }
    let metrics = telemetry::metrics();
    metrics.counter_add("serve_waves_total", 1);
    metrics.counter_add("serve_gates_batched_total", total as u64);
    metrics.observe("serve_batch_occupancy", total as f64, &OCCUPANCY_BUCKETS);
    round
}

fn run_scheduler(shared: &Shared) {
    let width = WorkerPool::global().width();
    let mut stats = ExecStats::new(0, 0);
    loop {
        let round = {
            let mut state = recover(shared.state.lock());
            loop {
                let round = next_round(&mut state, shared, &mut stats);
                if !round.is_empty() {
                    break round;
                }
                if state.shutdown {
                    return;
                }
                state = recover(shared.work.wait(state));
            }
        };

        // Run it outside the lock: one launch per picked job, all of
        // them one pool run. The keys go before the results are written
        // back, so a finished tenant's key is not held past its last job.
        let (keys, mut round): (Vec<_>, Vec<_>) = round.into_iter().unzip();
        {
            let engines: Vec<_> = keys.iter().map(|key| TfheEngine::new(key)).collect();
            let mut launches: Vec<_> = round
                .iter_mut()
                .zip(&engines)
                .map(|(p, engine)| {
                    let wave = &p.plan.waves[p.wave];
                    Launch { engine, wave, lanes: &mut p.lanes }
                })
                .collect();
            // A panicking bootstrap has always taken the scheduler
            // thread down with it; keep that contract.
            run_wave(&mut launches, width, &mut stats).expect("serve wave worker panicked");
        }
        drop(keys);
        stats.waves += 1;
        telemetry::metrics()
            .counter_add("serve_wave_steals_total", std::mem::take(&mut stats.steals));

        let mut state = recover(shared.state.lock());
        for p in round {
            let queue = state.tenants.get_mut(&p.tenant).expect("a tenant outlives its jobs");
            let job = queue.jobs.iter_mut().find(|j| j.id == p.job).expect("a running job stays");
            job.lanes = p.lanes;
            job.cursor += 1;
        }
        // The next `next_round` publishes what this round finished and
        // picks the waves it unblocked, without waiting.
    }
}

/// Moves finished jobs from their queues into the completed map, drops
/// the queues (and keys) of tenants left with none, and wakes fetchers.
fn finish_complete_jobs(state: &mut SchedState, shared: &Shared) {
    let SchedState { tenants, completed, .. } = state;
    let metrics = telemetry::metrics();
    let mut finished = false;
    tenants.retain(|&tenant, queue| {
        let queued = queue.jobs.len();
        queue.jobs.retain(|job| {
            if job.next_wave().is_some() {
                return true;
            }
            completed.insert(job.id, (job.lanes.outputs(&job.plan), job.params));
            metrics.counter_add("serve_jobs_completed_total", 1);
            metrics.counter_add(&format!("serve_tenant_{tenant:016x}_jobs_completed_total"), 1);
            false
        });
        if queue.jobs.len() < queued {
            finished = true;
            let depth = queue.jobs.len() as f64;
            metrics.gauge_set(&format!("serve_tenant_{tenant:016x}_queue_depth"), depth);
        }
        !queue.jobs.is_empty()
    });
    if finished {
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::GateKind;
    use pytfhe_tfhe::{ClientKey, Params, SecureRng};
    use std::time::Instant;

    fn setup() -> (ClientKey, Arc<ServerKey>, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(11);
        let ck = ClientKey::generate(Params::testing(), &mut rng);
        let sk = Arc::new(ck.server_key(&mut rng));
        (ck, sk, rng)
    }

    fn xor_chain(bits: usize) -> Netlist {
        let mut nl = Netlist::new();
        let inputs: Vec<_> = (0..bits).map(|_| nl.add_input()).collect();
        let mut acc = inputs[0];
        for &next in &inputs[1..] {
            acc = nl.add_gate(GateKind::Xor, acc, next).unwrap();
        }
        nl.mark_output(acc).unwrap();
        nl
    }

    #[test]
    fn single_job_matches_plaintext() {
        let (ck, sk, mut rng) = setup();
        let sched = Scheduler::start(16);
        let nl = xor_chain(5);
        let bits = [true, false, true, true, false];
        let cts = ck.encrypt_bits(&bits, &mut rng);
        let id = sched.submit(1, sk, nl.clone(), cts, 8).unwrap();
        let (out, _) = sched.fetch(id).unwrap();
        assert_eq!(ck.decrypt_bits(&out), nl.eval_plain(&bits));
        sched.shutdown();
    }

    #[test]
    fn quota_rejects_the_excess_job() {
        let (ck, sk, mut rng) = setup();
        let sched = Scheduler::start(4);
        // Quota 1: the first job is admitted, an immediate second is not.
        // Both inputs exist before the first submit, and the first job is
        // 255 dependent bootstraps, one scheduler round each, so it is
        // still in flight when the second submit takes the lock.
        let long = xor_chain(256);
        let bits = vec![true; 256];
        let (first, second) = (ck.encrypt_bits(&bits, &mut rng), ck.encrypt_bits(&bits, &mut rng));
        let id = sched.submit(7, Arc::clone(&sk), long.clone(), first, 1).unwrap();
        match sched.submit(7, Arc::clone(&sk), long, second, 1) {
            Err(ServeError::QuotaExceeded { in_flight: 1, quota: 1 }) => {}
            other => panic!("expected quota rejection, got {other:?}"),
        }
        sched.fetch(id).unwrap();
        // The slot freed; the tenant may submit again.
        sched.submit(7, sk, xor_chain(2), ck.encrypt_bits(&[true; 2], &mut rng), 1).unwrap();
        sched.shutdown();
    }

    #[test]
    fn a_panic_under_the_state_lock_stops_no_later_call() {
        let (ck, sk, mut rng) = setup();
        let sched = Scheduler::start(4);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = sched.shared.state.lock();
                panic!("a caller panics while it holds the lock");
            })
            .join()
        });
        assert!(panicked.is_err() && sched.shared.state.is_poisoned());
        assert_eq!(sched.in_flight(9), 0);
        let (nl, bits) = (xor_chain(3), [true, false, true]);
        let id = sched.submit(9, sk, nl.clone(), ck.encrypt_bits(&bits, &mut rng), 4).unwrap();
        let (out, _) = sched.fetch(id).unwrap();
        assert_eq!(ck.decrypt_bits(&out), nl.eval_plain(&bits));
        sched.shutdown();
    }

    #[test]
    fn unknown_job_is_a_typed_error() {
        let sched = Scheduler::start(4);
        assert!(matches!(sched.fetch(999), Err(ServeError::UnknownJob(999))));
        sched.shutdown();
    }

    #[test]
    fn cheap_only_programs_complete_without_a_wave() {
        let (ck, sk, mut rng) = setup();
        let sched = Scheduler::start(4);
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let n = nl.add_gate(GateKind::Not, a, a).unwrap();
        nl.mark_output(n).unwrap();
        let id = sched.submit(3, sk, nl, ck.encrypt_bits(&[true], &mut rng), 4).unwrap();
        let (out, _) = sched.fetch(id).unwrap();
        assert_eq!(ck.decrypt_bits(&out), vec![false]);
        sched.shutdown();
    }

    #[test]
    fn two_tenants_share_waves_and_both_finish_correctly() {
        let mut rng = SecureRng::seed_from_u64(21);
        let ck1 = ClientKey::generate(Params::testing(), &mut rng);
        let sk1 = Arc::new(ck1.server_key(&mut rng));
        let ck2 = ClientKey::generate(Params::testing(), &mut rng);
        let sk2 = Arc::new(ck2.server_key(&mut rng));
        let sched = Scheduler::start(8);
        let nl = xor_chain(6);
        let bits1 = [true, true, false, true, false, false];
        let bits2 = [false, true, true, true, true, false];
        let id1 = sched.submit(1, sk1, nl.clone(), ck1.encrypt_bits(&bits1, &mut rng), 4).unwrap();
        let id2 = sched.submit(2, sk2, nl.clone(), ck2.encrypt_bits(&bits2, &mut rng), 4).unwrap();
        assert_eq!(ck1.decrypt_bits(&sched.fetch(id1).unwrap().0), nl.eval_plain(&bits1));
        assert_eq!(ck2.decrypt_bits(&sched.fetch(id2).unwrap().0), nl.eval_plain(&bits2));
        sched.shutdown();
    }

    #[test]
    fn a_delivered_result_is_unknown_at_once_on_the_second_fetch() {
        let (ck, sk, mut rng) = setup();
        let sched = Scheduler::start(4);
        let inputs = ck.encrypt_bits(&[true; 3], &mut rng);
        let id = sched.submit(5, sk, xor_chain(3), inputs, 4).unwrap();
        sched.fetch(id).unwrap();
        let start = Instant::now();
        assert!(matches!(sched.fetch(id), Err(ServeError::UnknownJob(again)) if again == id));
        assert!(start.elapsed() < Duration::from_secs(1), "a delivered id must not be waited on");
        sched.shutdown();
    }

    /// `levels` levels of `width` bootstrapped gates each.
    fn ladder(levels: usize, width: usize) -> Netlist {
        let mut nl = Netlist::new();
        let mut row: Vec<_> = (0..width).map(|_| nl.add_input()).collect();
        for _ in 0..levels {
            let gate = |i| nl.add_gate(GateKind::Nand, row[i], row[(i + 1) % width]).unwrap();
            row = (0..width).map(gate).collect();
        }
        row.iter().for_each(|&g| nl.mark_output(g).unwrap());
        nl
    }

    /// `serve_batch_occupancy` observations above 8. The registry is
    /// process-wide, so callers compare before and after; no other test
    /// of this binary runs a round that wide.
    fn rounds_over_eight() -> u64 {
        let snapshot = telemetry::metrics().snapshot();
        let Some(h) = snapshot.histograms.get("serve_batch_occupancy") else { return 0 };
        h.count() - h.cumulative_buckets().iter().find(|b| b.0 == 8.0).expect("bucket 8").1
    }

    #[test]
    fn rounds_stay_within_max_wave_and_a_late_tenant_overtakes_a_greedy_queue() {
        let (ck_g, sk_g, mut rng) = setup();
        let ck_l = ClientKey::generate(Params::testing(), &mut rng);
        let sk_l = Arc::new(ck_l.server_key(&mut rng));
        let before = rounds_over_eight();
        let sched = Scheduler::start(8);
        // Four deep jobs whose every level is wider than a round.
        let deep = ladder(4, 12);
        let bits = [true, false, false, true, true, true, false, true, false, false, true, false];
        let greedy: Vec<u64> = (0..4)
            .map(|_| {
                let inputs = ck_g.encrypt_bits(&bits, &mut rng);
                sched.submit(1, Arc::clone(&sk_g), deep.clone(), inputs, 8).unwrap()
            })
            .collect();
        let small = ladder(1, 3);
        let bits_l = [true, true, false];
        let late = sched.submit(2, sk_l, small.clone(), ck_l.encrypt_bits(&bits_l, &mut rng), 8);
        let (out, _) = sched.fetch(late.unwrap()).unwrap();
        assert!(sched.in_flight(1) > 0, "the late job must finish before the greedy queue");
        assert_eq!(ck_l.decrypt_bits(&out), small.eval_plain(&bits_l));
        for id in greedy {
            assert_eq!(ck_g.decrypt_bits(&sched.fetch(id).unwrap().0), deep.eval_plain(&bits));
        }
        sched.shutdown();
        assert_eq!(rounds_over_eight(), before, "a round held more than max_wave bootstraps");
    }
}
