//! The cross-session batching scheduler.
//!
//! Every live session's submitted jobs land in per-tenant queues; a
//! single scheduler thread repeatedly drains *ready* bootstrapped gates
//! from all queues into one shared wave, groups the wave by server key,
//! and executes each group through [`ServerKey::batch_bootstrap_mixed`]
//! launches — the SoA staging pass that amortizes per-launch overhead
//! across every tenant's gates at once. Each tenant's launch is split
//! into per-lane chunks dispatched on the shared
//! [`pytfhe_backend::pool::WorkerPool`], so the wave's bootstraps run
//! concurrently across lanes (with work stealing between tenants)
//! rather than serially on the scheduler thread. Cheap
//! non-bootstrapped gates (`Not`, `Buf`, constants) are folded inline
//! while scanning, so waves contain only bootstrap work.
//!
//! Fairness: each wave visits tenants round-robin starting one past the
//! tenant that led the previous wave, and no tenant may occupy more
//! than `max(1, max_wave / live_tenants)` slots of a wave while another
//! tenant still has ready gates. A greedy tenant with a deep queue
//! therefore shares every wave instead of monopolizing the engine.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pytfhe_backend::engine::boot_gate;
use pytfhe_backend::pool::{Job, SlotCells, WorkerPool};
use pytfhe_netlist::{GateKind, Netlist, Node};
use pytfhe_telemetry as telemetry;
use pytfhe_tfhe::{BootGate, GateScratch, LweCiphertext, Params, ServerKey};

use crate::error::ServeError;

/// Histogram buckets for wave occupancy (gates per batched launch).
const OCCUPANCY_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Safety ceiling on a blocking fetch, so a lost job surfaces as an
/// error instead of a hung connection.
const FETCH_TIMEOUT: Duration = Duration::from_secs(300);

/// One job's incremental execution state.
struct JobState {
    id: u64,
    /// The tenant's parameter set, carried through to the completed
    /// result so reply frames can serialize outputs without a key
    /// lookup.
    params: Params,
    nl: Netlist,
    /// Per-node computed ciphertexts; `None` until evaluated (or while
    /// staged in an in-flight wave).
    values: Vec<Option<LweCiphertext>>,
    /// First node not yet evaluated *or staged*. Netlists are
    /// topologically ordered by construction, so scanning forward from
    /// here visits gates whose operands are either computed or staged
    /// earlier in the same wave.
    next_node: usize,
    /// Nodes staged in the current wave, awaiting write-back.
    staged: usize,
}

impl JobState {
    fn complete(&self) -> bool {
        self.next_node == self.nl.num_nodes() && self.staged == 0
    }
}

struct TenantQueue {
    key: Arc<ServerKey>,
    jobs: Vec<JobState>,
}

/// One staged bootstrapped gate: operands cloned out of the job state
/// so the wave executes without holding the scheduler lock.
struct WaveSlot {
    tenant: u64,
    job: u64,
    node: usize,
    gate: BootGate,
    a: LweCiphertext,
    b: LweCiphertext,
}

struct SchedState {
    tenants: BTreeMap<u64, TenantQueue>,
    /// Finished jobs awaiting fetch: id → outputs (with the tenant's
    /// parameter set) or error text.
    completed: HashMap<u64, Result<(Vec<LweCiphertext>, Params), String>>,
    /// Queued-or-running job count per tenant (quota accounting).
    in_flight: HashMap<u64, usize>,
    /// Every job id ever issued, so fetch can distinguish "pending"
    /// from "never existed".
    known: HashSet<u64>,
    /// Fingerprint of the tenant that led the previous wave.
    rr_cursor: u64,
    next_job: u64,
    shutdown: bool,
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
    /// Starts the scheduler thread. `max_wave` bounds the bootstrapped
    /// gates drained into one wave across all tenants (clamped ≥ 1).
    pub fn start(max_wave: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                tenants: BTreeMap::new(),
                completed: HashMap::new(),
                in_flight: HashMap::new(),
                known: HashSet::new(),
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
        let state = self.shared.state.lock().expect("scheduler poisoned");
        state.in_flight.get(&tenant).copied().unwrap_or(0)
    }

    /// Enqueues a job for `tenant` under `key`, enforcing the tenant's
    /// in-flight `quota`. Returns the job id to fetch results with.
    ///
    /// # Errors
    ///
    /// [`ServeError::QuotaExceeded`] at the quota ceiling,
    /// [`ServeError::Protocol`] when inputs mismatch the netlist or the
    /// key's LWE dimension, and [`ServeError::Shutdown`] after shutdown
    /// began.
    pub fn submit(
        &self,
        tenant: u64,
        key: Arc<ServerKey>,
        nl: Netlist,
        inputs: Vec<LweCiphertext>,
        quota: usize,
    ) -> Result<u64, ServeError> {
        if inputs.len() != nl.num_inputs() {
            return Err(ServeError::Protocol(format!(
                "program declares {} inputs, request carries {}",
                nl.num_inputs(),
                inputs.len()
            )));
        }
        // A decoded ciphertext can have any length. One of the wrong
        // length must stop here, as the submitter's typed error: past
        // this point it would meet the kernel's own dimension check as a
        // panic on the scheduler thread, which every tenant shares.
        let dim = key.params().lwe_dim;
        if let Some(ct) = inputs.iter().find(|ct| ct.dim() != dim) {
            return Err(ServeError::Protocol(format!(
                "input ciphertext has dimension {}, the key expects {dim}",
                ct.dim()
            )));
        }
        // The wire program format cannot encode fused LUT nodes, so a
        // LUT-bearing netlist here means a caller bypassed assembly;
        // the cross-tenant wave drainer only batches boolean gates.
        if nl.num_luts() > 0 {
            return Err(ServeError::Protocol(format!(
                "program carries {} fused LUT nodes; serving requires boolean gate programs",
                nl.num_luts()
            )));
        }
        let mut values: Vec<Option<LweCiphertext>> = vec![None; nl.num_nodes()];
        for (node, ct) in nl.inputs().to_vec().into_iter().zip(inputs) {
            values[node.index()] = Some(ct);
        }
        let mut state = self.shared.state.lock().expect("scheduler poisoned");
        if state.shutdown {
            return Err(ServeError::Shutdown);
        }
        let in_flight = state.in_flight.get(&tenant).copied().unwrap_or(0);
        if in_flight >= quota {
            telemetry::metrics().counter_add("serve_jobs_rejected_quota_total", 1);
            return Err(ServeError::QuotaExceeded { in_flight, quota });
        }
        let id = state.next_job;
        state.next_job += 1;
        state.known.insert(id);
        *state.in_flight.entry(tenant).or_insert(0) += 1;
        let params = *key.params();
        let queue = state
            .tenants
            .entry(tenant)
            .or_insert_with(|| TenantQueue { key: Arc::clone(&key), jobs: Vec::new() });
        queue.jobs.push(JobState { id, params, nl, values, next_node: 0, staged: 0 });
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
    /// and the tenant's parameter set.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id never issued, and
    /// [`ServeError::Protocol`] if the job errored or the safety
    /// timeout expired.
    pub fn fetch(&self, id: u64) -> Result<(Vec<LweCiphertext>, Params), ServeError> {
        let mut state = self.shared.state.lock().expect("scheduler poisoned");
        if !state.known.contains(&id) {
            return Err(ServeError::UnknownJob(id));
        }
        loop {
            if let Some(result) = state.completed.remove(&id) {
                return result.map_err(ServeError::Protocol);
            }
            let (next, timed_out) =
                self.shared.done.wait_timeout(state, FETCH_TIMEOUT).expect("scheduler poisoned");
            state = next;
            if timed_out.timed_out() {
                return Err(ServeError::Protocol(format!(
                    "job {id} did not complete within {FETCH_TIMEOUT:?}"
                )));
            }
        }
    }

    /// Stops the scheduler after draining queued jobs, then joins the
    /// worker thread.
    pub fn shutdown(mut self) {
        {
            let mut state = self.shared.state.lock().expect("scheduler poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("scheduler poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Folds the cheap non-bootstrapped node kinds inline. Returns `true`
/// when the node was handled without a wave slot.
fn fold_cheap(key: &ServerKey, job: &mut JobState, node_idx: usize) -> bool {
    let Node::Gate { kind, a, b: _ } = job.nl.node(pytfhe_netlist::NodeId(node_idx as u32)) else {
        return true; // inputs were seeded at submit
    };
    match kind {
        GateKind::Not => {
            let Some(src) = job.values[a.index()].clone() else { return false };
            job.values[node_idx] = Some(key.not(&src));
            true
        }
        GateKind::Buf => {
            let Some(src) = job.values[a.index()].clone() else { return false };
            job.values[node_idx] = Some(src);
            true
        }
        GateKind::Const0 => {
            job.values[node_idx] = Some(key.constant(false));
            true
        }
        GateKind::Const1 => {
            job.values[node_idx] = Some(key.constant(true));
            true
        }
        _ => false,
    }
}

/// Drains one wave of ready bootstrapped gates from all tenants,
/// fair-share bounded, folding cheap gates along the way.
fn collect_wave(state: &mut SchedState, max_wave: usize) -> Vec<WaveSlot> {
    let live: Vec<u64> =
        state.tenants.iter().filter(|(_, q)| !q.jobs.is_empty()).map(|(&fp, _)| fp).collect();
    if live.is_empty() {
        return Vec::new();
    }
    let fair_share = (max_wave / live.len()).max(1);
    let start = live.iter().position(|&fp| fp > state.rr_cursor).unwrap_or(0);
    let mut wave = Vec::new();
    for offset in 0..live.len() {
        let tenant = live[(start + offset) % live.len()];
        let queue = state.tenants.get_mut(&tenant).expect("live tenant");
        let mut share = fair_share.min(max_wave.saturating_sub(wave.len()));
        for job in &mut queue.jobs {
            while share > 0 && job.next_node < job.nl.num_nodes() {
                let node_idx = job.next_node;
                if job.values[node_idx].is_some() {
                    job.next_node += 1;
                    continue;
                }
                let Node::Gate { kind, a, b } =
                    job.nl.node(pytfhe_netlist::NodeId(node_idx as u32))
                else {
                    unreachable!("inputs are always seeded");
                };
                let Some(gate) = boot_gate(kind) else {
                    // Cheap gate: fold inline, or stall on an operand
                    // still in flight from this same wave.
                    if fold_cheap(&queue.key, job, node_idx) {
                        job.next_node += 1;
                        continue;
                    }
                    break;
                };
                // Operands still in flight from this same wave stall the
                // job until write-back.
                let (Some(ca), Some(cb)) =
                    (job.values[a.index()].clone(), job.values[b.index()].clone())
                else {
                    break;
                };
                wave.push(WaveSlot { tenant, job: job.id, node: node_idx, gate, a: ca, b: cb });
                job.staged += 1;
                job.next_node += 1;
                share -= 1;
            }
            if share == 0 {
                break;
            }
        }
        if wave.len() >= max_wave {
            break;
        }
    }
    if !wave.is_empty() {
        state.rr_cursor = live[start];
    }
    wave
}

/// Executes one wave outside the lock on the shared [`WorkerPool`]:
/// each tenant's slots are grouped by key, split into per-lane chunks,
/// and every chunk across every tenant is dispatched as one pool run —
/// so tenants bootstrap concurrently *and* a single tenant's wide wave
/// splits across lanes (idle lanes steal loaded tenants' chunks),
/// instead of one serial `batch_bootstrap_mixed` per tenant on the
/// scheduler thread. Bootstrap scratch (FFT buffers, SoA staging) is
/// pooled per tenant per chunk slot across waves — allocating it fresh
/// every wave measurably dominates small-job workloads.
fn execute_wave(
    keys: &HashMap<u64, Arc<ServerKey>>,
    wave: &[WaveSlot],
    scratch_pool: &mut HashMap<u64, Vec<GateScratch>>,
) -> Vec<(u64, u64, usize, LweCiphertext)> {
    let mut by_tenant: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, slot) in wave.iter().enumerate() {
        by_tenant.entry(slot.tenant).or_default().push(i);
    }
    let pool = WorkerPool::global();
    let width = pool.width();

    /// One tenant's staged share of the wave: wave indices, gate kinds,
    /// output buffers, and the chunk geometry splitting it across lanes.
    struct TenantWork {
        slots: Vec<usize>,
        gates: Vec<BootGate>,
        outs: Vec<LweCiphertext>,
        chunk: usize,
        scratch_base: usize,
    }
    let mut flat_scratches: Vec<GateScratch> = Vec::new();
    let mut scratch_owners: Vec<(u64, usize)> = Vec::new();
    let mut works: Vec<(u64, TenantWork)> = Vec::new();
    for (tenant, slots) in by_tenant {
        let key = &keys[&tenant];
        let chunk = slots.len().div_ceil(width).max(1);
        let n_chunks = slots.len().div_ceil(chunk);
        let mut scratches = scratch_pool.remove(&tenant).unwrap_or_default();
        while scratches.len() < n_chunks {
            scratches.push(key.gate_scratch());
        }
        let scratch_base = flat_scratches.len();
        scratch_owners.push((tenant, scratches.len()));
        flat_scratches.append(&mut scratches);
        let gates = slots.iter().map(|&i| wave[i].gate).collect();
        let outs = (0..slots.len()).map(|_| key.constant(false)).collect();
        works.push((tenant, TenantWork { slots, gates, outs, chunk, scratch_base }));
    }

    // Scratch hand-out is keyed by flat chunk index — unique per job —
    // so lanes can steal chunks without sharing buffers.
    let cells = SlotCells::new(std::mem::take(&mut flat_scratches));
    let run = {
        let cells_ref = &cells;
        let mut jobs: Vec<Job<'_>> = Vec::new();
        for (tenant, work) in works.iter_mut() {
            let key = &keys[tenant];
            let chunk = work.chunk;
            let scratch_base = work.scratch_base;
            for (c, ((slot_chunk, gate_chunk), out_chunk)) in work
                .slots
                .chunks(chunk)
                .zip(work.gates.chunks(chunk))
                .zip(work.outs.chunks_mut(chunk))
                .enumerate()
            {
                let scratch_idx = scratch_base + c;
                jobs.push(Box::new(move |lane| {
                    let _span = telemetry::worker_span_with(
                        "serve",
                        || format!("wave chunk: {} gates", slot_chunk.len()),
                        lane as u32,
                    );
                    // SAFETY: `scratch_idx` is unique per job (one
                    // chunk, one slot), so no two jobs share a scratch.
                    let scratch = unsafe { cells_ref.slot(scratch_idx) };
                    let pairs: Vec<(&LweCiphertext, &LweCiphertext)> =
                        slot_chunk.iter().map(|&i| (&wave[i].a, &wave[i].b)).collect();
                    key.batch_bootstrap_mixed(gate_chunk, &pairs, out_chunk, scratch);
                }));
            }
        }
        // A panicked bootstrap crashed the scheduler thread before the
        // pool existed too; keep that contract.
        pool.run(width, jobs).expect("serve wave worker panicked")
    };
    let mut flat = cells.into_inner();
    for &(tenant, count) in scratch_owners.iter().rev() {
        let rest = flat.split_off(flat.len() - count);
        scratch_pool.insert(tenant, rest);
    }
    telemetry::metrics().counter_add("serve_wave_steals_total", run.steals);

    let mut results = Vec::with_capacity(wave.len());
    for (_, work) in works {
        for (&i, out) in work.slots.iter().zip(work.outs) {
            results.push((wave[i].tenant, wave[i].job, wave[i].node, out));
        }
    }
    results
}

fn run_scheduler(shared: &Shared) {
    let mut scratch_pool: HashMap<u64, Vec<GateScratch>> = HashMap::new();
    loop {
        // Collect a wave (or exit) under the lock.
        let (wave, keys) = {
            let mut state = shared.state.lock().expect("scheduler poisoned");
            loop {
                let wave = collect_wave(&mut state, shared.max_wave);
                if !wave.is_empty() {
                    let keys: HashMap<u64, Arc<ServerKey>> = wave
                        .iter()
                        .map(|s| (s.tenant, Arc::clone(&state.tenants[&s.tenant].key)))
                        .collect();
                    break (wave, keys);
                }
                // Cheap-only jobs (no bootstrapped gates) finish during
                // collection; publish them before sleeping.
                finish_complete_jobs(&mut state, shared);
                let queued: usize = state.tenants.values().map(|q| q.jobs.len()).sum();
                if state.shutdown && queued == 0 {
                    return;
                }
                state = shared.work.wait(state).expect("scheduler poisoned");
            }
        };

        let occupancy = wave.len();
        let results = execute_wave(&keys, &wave, &mut scratch_pool);

        let mut state = shared.state.lock().expect("scheduler poisoned");
        // Drop scratch for tenants that no longer have live queues so the
        // pool stays bounded by the set of active tenants.
        scratch_pool.retain(|fp, _| state.tenants.contains_key(fp));
        for (tenant, job_id, node, ct) in results {
            if let Some(queue) = state.tenants.get_mut(&tenant) {
                if let Some(job) = queue.jobs.iter_mut().find(|j| j.id == job_id) {
                    job.values[node] = Some(ct);
                    job.staged -= 1;
                }
            }
        }
        let metrics = telemetry::metrics();
        metrics.counter_add("serve_waves_total", 1);
        metrics.counter_add("serve_gates_batched_total", occupancy as u64);
        metrics.observe("serve_batch_occupancy", occupancy as f64, &OCCUPANCY_BUCKETS);
        finish_complete_jobs(&mut state, shared);
        // Dependent gates unblocked by this wave are picked up by the
        // next collect_wave call without waiting.
    }
}

/// Moves finished jobs from their queues into the completed map and
/// wakes fetchers.
fn finish_complete_jobs(state: &mut SchedState, shared: &Shared) {
    let mut finished = Vec::new();
    for (&tenant, queue) in &mut state.tenants {
        let mut i = 0;
        while i < queue.jobs.len() {
            if queue.jobs[i].complete() {
                let job = queue.jobs.remove(i);
                let outputs: Result<(Vec<LweCiphertext>, Params), String> = job
                    .nl
                    .outputs()
                    .iter()
                    .map(|&n| {
                        job.values[n.index()]
                            .clone()
                            .ok_or_else(|| format!("output node {} never computed", n.index()))
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(|cts| (cts, job.params));
                finished.push((tenant, job.id, outputs, queue.jobs.len()));
            } else {
                i += 1;
            }
        }
    }
    if finished.is_empty() {
        return;
    }
    let metrics = telemetry::metrics();
    for (tenant, id, outputs, depth) in finished {
        state.completed.insert(id, outputs);
        if let Some(count) = state.in_flight.get_mut(&tenant) {
            *count = count.saturating_sub(1);
        }
        metrics.counter_add("serve_jobs_completed_total", 1);
        metrics.counter_add(&format!("serve_tenant_{tenant:016x}_jobs_completed_total"), 1);
        metrics.gauge_set(&format!("serve_tenant_{tenant:016x}_queue_depth"), depth as f64);
    }
    shared.done.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_tfhe::{ClientKey, Params, SecureRng};

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
        let nl = xor_chain(8);
        let bits = vec![true; 8];
        let id = sched
            .submit(7, Arc::clone(&sk), nl.clone(), ck.encrypt_bits(&bits, &mut rng), 1)
            .unwrap();
        match sched.submit(7, Arc::clone(&sk), nl.clone(), ck.encrypt_bits(&bits, &mut rng), 1) {
            Err(ServeError::QuotaExceeded { in_flight: 1, quota: 1 }) => {}
            other => panic!("expected quota rejection, got {other:?}"),
        }
        sched.fetch(id).unwrap();
        // The slot freed; the tenant may submit again.
        sched.submit(7, sk, nl, ck.encrypt_bits(&bits, &mut rng), 1).unwrap();
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
}
