//! `chain` and `wide`: one program, one key, evaluated repeatedly with
//! `Server::execute_graph(.., 2)` on fresh encrypted inputs.
//!
//! `chain` is a seeded chain of dependent gates (every wave one
//! single-gate bootstrap); `wide` is VIP-Bench Distinctness (waves up to
//! 120 gates, served by width-8 batches on two lanes). Same harness, so
//! a difference between them is a difference in the layers they stress.

use super::{alternate, measure, record_overhead, setup_passes, timed};
use crate::gen::{self, Rng};
use crate::spec::Workload;
use crate::{report, trace, Ctx, WORKERS};
use pytfhe::{Client, Server};
use pytfhe_backend::{capture, netlist_bootstraps, CaptureConfig, ExecStats};
use pytfhe_netlist::Netlist;
use pytfhe_tfhe::io::{server_key_from_bytes, server_key_to_bytes};
use pytfhe_tfhe::{LweCiphertext, TfheError};
use pytfhe_vipbench::{distinctness, Benchmark, Scale};

/// Fewest timed evaluations of an untraced run, however slow the host.
const MIN_EVALS: usize = 3;

/// Both sides' keys: the client, and the server around the evaluation
/// key as it arrived over the wire.
pub struct Keys {
    pub client: Client,
    pub server: Server,
    pub keygen_s: f64,
    pub key_encode_s: f64,
    pub key_decode_s: f64,
    pub key_bytes: usize,
}

impl Keys {
    /// Client and evaluation key generation, `server_key_to_bytes` →
    /// `server_key_from_bytes`, `Server::new`. `pass` picks the key seed
    /// and tags the spans.
    pub fn generate(ctx: &Ctx, pass: u64) -> Result<Keys, TfheError> {
        let ((mut client, key), keygen_s) = timed(|| {
            let _span = trace::span("keygen", pass);
            let mut client = Client::new(ctx.params, ctx.seed.wrapping_mul(1000) + pass);
            let key = client.make_server_key();
            (client, key)
        });
        let (bytes, key_encode_s) = timed(|| {
            let _span = trace::span("key_encode", pass);
            server_key_to_bytes(&key)
        });
        drop(key);
        let (decoded, key_decode_s) = timed(|| {
            let _span = trace::span("key_decode", pass);
            server_key_from_bytes(&bytes)
        });
        let server = {
            let _span = trace::span("server_new", pass);
            Server::new(decoded?)
        };
        // Encrypt once so the first evaluation does not pay the client's
        // lazy set-up.
        client.encrypt_bits(&[false]);
        Ok(Keys { client, server, keygen_s, key_encode_s, key_decode_s, key_bytes: bytes.len() })
    }
}

/// A program as the server sees it, and the plaintext side the oracle
/// works from.
pub struct Program {
    /// The program after assemble → disassemble: what is executed.
    pub netlist: Netlist,
    /// The generated netlist the oracle evaluates (`chain`).
    source: Netlist,
    /// The VIP-Bench kernel with its semantic oracle (`wide`).
    vip: Option<Benchmark>,
    pub binary_len: usize,
}

impl Program {
    /// Builds, assembles, disassembles and captures the program: a seeded
    /// chain of `gates` gates, or Distinctness when `gates` is `None`.
    pub fn build(ctx: &Ctx, gates: Option<usize>, pass: u64) -> Program {
        let (source, vip) = {
            let _span = trace::span("build", pass);
            match gates {
                Some(gates) => (gen::chain(ctx.seed, gates), None),
                None => {
                    let bench = distinctness(Scale::Test);
                    (bench.netlist().clone(), Some(bench))
                }
            }
        };
        let binary = {
            let _span = trace::span("assemble", pass);
            pytfhe_asm::assemble(&source)
        };
        let netlist = {
            let _span = trace::span("disassemble", pass);
            pytfhe_asm::disassemble(&binary).expect("own binary disassembles")
        };
        // The server captures its own plan on the first `execute_graph`;
        // capturing here puts that cost into set-up, where a user meets it.
        {
            let _span = trace::span("capture", pass);
            capture(&netlist, &CaptureConfig::default()).expect("program captures");
        }
        Program { netlist, source, vip, binary_len: binary.len() }
    }

    fn of(ctx: &Ctx, workload: Workload, pass: u64) -> Program {
        Program::build(ctx, (workload == Workload::Chain).then_some(gen::CHAIN_GATES), pass)
    }

    /// Fresh plaintext input bits and the oracle's output bits for them.
    /// The oracle is `Benchmark::oracle` (`wide`) or `Netlist::eval_plain`
    /// on the generated netlist (`chain`) — never an executor under test.
    fn fresh_case(&self, rng: &mut Rng) -> (Vec<bool>, Vec<bool>) {
        match &self.vip {
            Some(bench) => {
                let input = bench.sample_input(rng.next_u64());
                let want = bench
                    .oracle(&input)
                    .iter()
                    .flat_map(|&v| bench.dtype_out().encode_f64(v))
                    .collect();
                (bench.encode_input(&input), want)
            }
            None => {
                let bits = rng.bits(self.source.num_inputs());
                let want = self.source.eval_plain(&bits);
                (bits, want)
            }
        }
    }
}

/// The outcome of one evaluation.
pub struct Eval {
    pub execute_s: f64,
    pub stats: ExecStats,
    pub inputs: Vec<LweCiphertext>,
    pub outputs: Vec<LweCiphertext>,
    pub want: Vec<bool>,
}

/// Encrypts a fresh case, executes it with `workers` lanes, decrypts and
/// checks it against the oracle. Only `execute_graph` is timed.
pub fn evaluate(
    ctx: &mut Ctx,
    keys: &mut Keys,
    program: &Program,
    rng: &mut Rng,
    id: u64,
    workers: usize,
) -> Option<Eval> {
    let _eval = trace::span("eval", id);
    let (bits, want) = program.fresh_case(rng);
    let inputs = {
        let _span = trace::span("encrypt", id);
        keys.client.encrypt_bits(&bits)
    };
    let (result, execute_s) = {
        let _span = trace::span("execute", id);
        timed(|| keys.server.execute_graph(&program.netlist, &inputs, workers))
    };
    let (outputs, stats) = match result {
        Ok(ok) => ok,
        Err(e) => {
            ctx.report.gate.error(&format!("evaluation {id}"), &e);
            return None;
        }
    };
    let got = {
        let _span = trace::span("decrypt", id);
        keys.client.decrypt_bits(&outputs)
    };
    ctx.report.gate.check(&format!("evaluation {id}"), &got, &want);
    Some(Eval { execute_s, stats, inputs, outputs, want })
}

pub fn run(ctx: &mut Ctx, workload: Workload) {
    // Set-up, several times over; the last session is the one measured.
    let mut setup_s = Vec::new();
    let mut session = None;
    for pass in 0..setup_passes(ctx.traced) as u64 {
        drop(session.take()); // one key resident at a time
        let (s, secs) = timed(|| {
            let _span = trace::span("setup", pass);
            Keys::generate(ctx, pass).map(|keys| (keys, Program::of(ctx, workload, pass)))
        });
        match s {
            Ok(s) => session = Some(s),
            Err(e) => return ctx.report.gate.error(&format!("set-up pass {pass}"), &e),
        }
        setup_s.push(secs);
    }
    trace::set_recording(false);
    let (mut keys, program) = session.expect("at least one set-up pass");
    let bootstraps = netlist_bootstraps(&program.netlist) as f64;
    let mut rng = Rng::fork(ctx.seed, 2);

    // Warm-up: the server captures the plan and every first-use cost is
    // paid. Checked like any evaluation, never timed.
    let Some(first) = evaluate(ctx, &mut keys, &program, &mut rng, 0, WORKERS) else { return };
    assert!(!first.stats.plan_cached, "the first evaluation captures the plan");

    let mut warm = |ctx: &mut Ctx, id: u64| {
        let eval = evaluate(ctx, &mut keys, &program, &mut rng, id, WORKERS)?;
        assert!(eval.stats.plan_cached, "warm evaluations replay the cached plan");
        Some(eval.execute_s)
    };
    if ctx.traced {
        let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
        alternate(ctx, |ctx, id, traced| {
            let secs = warm(ctx, id);
            if traced { &mut traced_s } else { &mut untraced_s }.extend(secs);
            secs.is_some()
        });
        trace::finish(&mut ctx.report);
        record_overhead(ctx, &untraced_s, &traced_s);
        return;
    }

    let mut eval_s = Vec::new();
    measure(ctx, MIN_EVALS, |ctx, id| {
        let secs = warm(ctx, id);
        eval_s.extend(secs);
        secs.is_some()
    });
    if ctx.report.gate.failed > 0 || eval_s.is_empty() {
        return;
    }
    let r = &mut ctx.report;
    r.samples("setup_s", "s", &setup_s);
    let eval_median = r.samples("eval_s", "s", &eval_s);
    r.value("work_per_s", "1/s", bootstraps / eval_median);
    r.value("program_bootstraps", "count", bootstraps);
    r.value("program_bytes", "bytes", program.binary_len as f64);
    r.value("peak_rss_mb", "MB", report::peak_rss_mb());
    r.value("ms_per_bootstrap", "ms", 1e3 * eval_median / bootstraps);
    if workload == Workload::Chain {
        println!(
            "chain: {:.2} ms per bootstrap at {WORKERS} workers; the paper's single-core TFHE library: 13 ms",
            1e3 * eval_median / bootstraps
        );
    }
}
