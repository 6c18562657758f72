//! `serve`: two tenants with distinct keys drive one serving front over
//! in-memory duplex transports, closed loop, one job in flight each.
//!
//! Every job is one of three 4-bit `pytfhe-hdl` circuits on fresh
//! inputs, taken from a seeded shuffle per round of three so the mix
//! stays balanced; the tenants start each round together. The scheduler merges both tenants' ready gates into
//! narrow mixed-kind waves — the batch widths where the kernels are
//! slowest — and the two keys double the working set.

use super::{alternate, measure, record_overhead, setup_passes, timed};
use crate::gen::{Rng, ServeCircuit};
use crate::stats::tail;
use crate::{report, trace, Ctx};
use pytfhe::Client;
use pytfhe_backend::netlist_bootstraps;
use pytfhe_netlist::Netlist;
use pytfhe_serve::{duplex, PipeEnd, ServeClient, ServeConfig, ServeError, ServeHandle};
use pytfhe_tfhe::io::server_key_to_bytes;
use pytfhe_tfhe::{Params, ServerKey};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tenants, each with its own key.
pub const TENANTS: u64 = 2;
/// Fewest timed rounds of an untraced run.
const MIN_ROUNDS: usize = 2;

/// One tenant: its keys and its session on the front.
pub struct Tenant {
    index: u64,
    pub client: Client,
    serve: ServeClient<PipeEnd>,
    fingerprint: u64,
    session: JoinHandle<()>,
    pub install_s: f64,
}

impl Tenant {
    /// One full set-up pass: key generation, key encode, attach and
    /// `install_key` (compress, transfer, checksum, decode, cache).
    /// Returns the tenant and the evaluation key it installed.
    pub fn set_up(
        ctx: &Ctx,
        front: &ServeHandle,
        index: u64,
    ) -> Result<(Tenant, ServerKey), ServeError> {
        let _setup = trace::span("setup", index);
        let (mut client, key) = {
            let _span = trace::span("keygen", index);
            let mut client = Client::new(ctx.params, ctx.seed.wrapping_mul(1000) + index);
            let key = client.make_server_key();
            (client, key)
        };
        let key_bytes = {
            let _span = trace::span("key_encode", index);
            server_key_to_bytes(&key)
        };
        let (near, far) = duplex();
        let session = {
            let _span = trace::span("attach", index);
            front.attach(far)?
        };
        let mut serve = ServeClient::new(near);
        let (fingerprint, install_s) = {
            let _span = trace::span("install", index);
            timed(|| serve.install_key(&key_bytes))
        };
        // Encrypt once so the first job does not pay the client's lazy set-up.
        client.encrypt_bits(&[false]);
        let fingerprint = fingerprint?;
        Ok((Tenant { index, client, serve, fingerprint, session, install_s }, key))
    }

    pub fn close(self) -> Result<(), ServeError> {
        let closed = self.serve.close();
        self.session.join().expect("serve session thread");
        closed
    }
}

/// The three job programs, indexed by `ServeCircuit as usize`.
pub fn programs() -> [Netlist; 3] {
    ServeCircuit::ALL.map(ServeCircuit::netlist)
}

/// One finished (or failed) job.
pub struct JobResult {
    circuit: ServeCircuit,
    latency_s: f64,
    submit_s: f64,
    /// Decrypted and expected output bits, or the typed error.
    outcome: Result<(Vec<bool>, Vec<bool>), ServeError>,
}

/// Runs one job: fresh inputs, submit, fetch, decrypt.
fn run_job(
    t: &mut Tenant,
    params: &Params,
    programs: &[Netlist; 3],
    circuit: ServeCircuit,
    rng: &mut Rng,
    id: u64,
) -> JobResult {
    let nl = &programs[circuit as usize];
    let _eval = trace::span("eval", id);
    let bits = rng.bits(nl.num_inputs());
    let want = nl.eval_plain(&bits);
    let inputs = {
        let _span = trace::span("encrypt", id);
        t.client.encrypt_bits(&bits)
    };
    let t0 = Instant::now();
    let execute = trace::span("execute", id);
    let job = {
        let _span = trace::span("submit", id);
        t.serve.submit(t.fingerprint, nl, &inputs, params)
    };
    let submit_s = t0.elapsed().as_secs_f64();
    let outputs = job.and_then(|job| {
        let _span = trace::span("fetch", id);
        t.serve.fetch(job)
    });
    execute.end();
    let latency_s = t0.elapsed().as_secs_f64();
    let outcome = outputs.map(|out| {
        let _span = trace::span("decrypt", id);
        (t.client.decrypt_bits(&out), want)
    });
    JobResult { circuit, latency_s, submit_s, outcome }
}

/// One round: every tenant, on its own thread, runs the three circuits
/// once each, back to back, in a seeded order — so every round is the same
/// work, and because the threads are joined at its end the tenants start
/// the next one together and their waves keep merging. Returns the jobs
/// (grouped by tenant, in order) and the round's wall seconds from start
/// to last completion.
pub fn round(
    tenants: &mut [Tenant],
    params: &Params,
    programs: &[Netlist; 3],
    seed: u64,
    round_id: u64,
) -> (Vec<Vec<JobResult>>, f64) {
    let start = Instant::now();
    let jobs = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter_mut()
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = Rng::fork(seed, 100 * round_id + 10 + t.index);
                    let mut order = ServeCircuit::ALL;
                    Rng::fork(seed, 100 * round_id + 20 + t.index).shuffle(&mut order);
                    let id = 10_000 * round_id + 1000 * t.index;
                    (1u64..)
                        .zip(order)
                        .map(|(n, circuit)| run_job(t, params, programs, circuit, &mut rng, id + n))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });
    (jobs, start.elapsed().as_secs_f64())
}

/// Checked rounds: what the metrics are computed from.
#[derive(Default)]
pub struct Checked {
    /// Latency of every completed job, with its circuit.
    pub jobs: Vec<(ServeCircuit, f64)>,
    /// Seconds each complete round took its tenant (three job latencies).
    pub rounds: Vec<f64>,
    pub submit_ms: Vec<f64>,
    /// Jobs refused or failed with a typed error.
    pub rejected: u64,
}

impl Checked {
    pub fn latencies(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.1).collect()
    }
}

/// Checks every job of a round against the oracle and adds it to `into`.
/// Returns whether every job completed.
pub fn check(ctx: &mut Ctx, what: &str, by_tenant: &[Vec<JobResult>], into: &mut Checked) -> bool {
    let rejected = into.rejected;
    for (tenant, jobs) in by_tenant.iter().enumerate() {
        for (i, job) in jobs.iter().enumerate() {
            let name = format!("{what}, tenant {tenant} job {i} ({})", job.circuit.name());
            match &job.outcome {
                Ok((got, want)) => {
                    ctx.report.gate.check(&name, got, want);
                    into.jobs.push((job.circuit, job.latency_s));
                    into.submit_ms.push(job.submit_s * 1e3);
                }
                Err(e) => {
                    ctx.report.gate.error(&name, e);
                    into.rejected += 1;
                }
            }
        }
        if jobs.iter().all(|j| j.outcome.is_ok()) {
            into.rounds.push(jobs.iter().map(|j| j.latency_s).sum());
        }
    }
    into.rejected == rejected
}

/// The warm-up round and the timed (or traced) rounds of a run.
fn rounds(ctx: &mut Ctx, tenants: &mut [Tenant], setup_s: &[f64]) {
    let programs = programs();
    let bootstraps = programs.each_ref().map(|nl| netlist_bootstraps(nl) as f64);
    let binary_bytes: usize = programs.iter().map(|nl| pytfhe_asm::assemble(nl).len()).sum();
    let params = ctx.params;
    let seed = ctx.seed;

    // Warm-up: the first round of both tenants, concurrently, on a cold
    // front. Checked like any job, never timed.
    let (first, _) = round(tenants, &params, &programs, seed, 0);
    if !check(ctx, "first round", &first, &mut Checked::default()) {
        return;
    }
    if ctx.traced {
        let (mut untraced, mut traced) = (Checked::default(), Checked::default());
        alternate(ctx, |ctx, id, recording| {
            let (jobs, _) = round(tenants, &params, &programs, seed, id);
            let into = if recording { &mut traced } else { &mut untraced };
            check(ctx, &format!("round {id}"), &jobs, into)
        });
        trace::finish(&mut ctx.report);
        return record_overhead(ctx, &untraced.latencies(), &traced.latencies());
    }

    // The measured closed loop.
    let mut measured = Checked::default();
    let mut wall_s = 0.0;
    measure(ctx, MIN_ROUNDS, |ctx, id| {
        let (jobs, secs) = round(tenants, &params, &programs, seed, id);
        wall_s += secs;
        check(ctx, &format!("round {id}"), &jobs, &mut measured)
    });
    if measured.rejected > 0 || measured.rounds.is_empty() {
        return;
    }
    let latencies = measured.latencies();
    let done_bootstraps: f64 = measured.jobs.iter().map(|j| bootstraps[j.0 as usize]).sum();
    // One job's latency, averaged over a round so that every sample is the
    // same mix of the three circuits.
    let per_job = ServeCircuit::ALL.len() as f64;
    let round_mean_s: Vec<f64> = measured.rounds.iter().map(|s| s / per_job).collect();
    let r = &mut ctx.report;
    r.samples("setup_s", "s", setup_s);
    r.samples("eval_s", "s", &round_mean_s);
    r.value("work_per_s", "1/s", done_bootstraps / wall_s);
    r.value("program_bootstraps", "count", bootstraps.iter().sum());
    r.value("program_bytes", "bytes", binary_bytes as f64);
    r.samples("job_p50_s", "s", &latencies);
    r.value("jobs_per_s", "1/s", latencies.len() as f64 / wall_s);
    if let Some((pct, value)) = tail(&latencies).filter(|t| t.0 > 50.0) {
        r.value(&format!("job_p{pct:.0}_s"), "s", value);
    }
}

pub fn run(ctx: &mut Ctx) {
    // Set-up: one pass per tenant. An untraced run takes a third sample
    // first, from a tenant on a front of its own that is gone before the
    // measured front starts.
    let mut setup_s = Vec::new();
    if setup_passes(ctx.traced) > TENANTS as usize {
        let front = ServeHandle::start(ServeConfig::default(), None);
        let (tenant, secs) = timed(|| Tenant::set_up(ctx, &front, TENANTS));
        setup_s.push(secs);
        if let Err(e) = tenant.and_then(|(tenant, _key)| tenant.close()) {
            return ctx.report.gate.error("set-up of the spare tenant", &e);
        }
    }
    let front = ServeHandle::start(ServeConfig::default(), None);
    let mut tenants = Vec::new();
    for index in 0..TENANTS {
        let (tenant, secs) = timed(|| Tenant::set_up(ctx, &front, index));
        setup_s.push(secs);
        match tenant {
            Ok((tenant, _key)) => tenants.push(tenant),
            Err(e) => return ctx.report.gate.error(&format!("set-up of tenant {index}"), &e),
        }
    }
    trace::set_recording(false);

    rounds(ctx, &mut tenants, &setup_s);
    for t in tenants {
        if let Err(e) = t.close() {
            ctx.report.gate.error("closing a tenant session", &e);
        }
    }
    drop(front);
    if !ctx.traced {
        ctx.report.value("peak_rss_mb", "MB", report::peak_rss_mb());
    }
}
