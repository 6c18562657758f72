//! The layer suite: outside-in timings of single layers through their
//! public functions, and four small fixed scenarios that isolate what the
//! backend and the serving front add on top of the kernels. It is one
//! step, the same in every traced run whatever the workload, under a key
//! of its own — so every `tfhe.*`, `backend.*`, `serve.*` and compiler
//! metric has one definition. Each timing calls its function for
//! `PROBE_SECONDS` (at least three blocks) and reports the median per
//! call; the scenarios report single evaluations.

use crate::gen::Rng;
use crate::workloads::compile::Models;
use crate::workloads::graph::{evaluate, Keys, Program};
use crate::workloads::serve::{self, Checked, Tenant, TENANTS};
use crate::workloads::timed;
use crate::{Ctx, WORKERS};
use pytfhe_backend::pool::Job;
use pytfhe_backend::{
    capture, execute_parallel, CaptureConfig, KernelGraph, KernelPlan, PlainEngine, TfheEngine,
    WorkerPool,
};
use pytfhe_netlist::opt::{lut_cover, LutCoverConfig};
use pytfhe_netlist::{Levels, Netlist};
use pytfhe_serve::{ServeConfig, ServeHandle};
use pytfhe_telemetry as telemetry;
use pytfhe_tfhe::poly::{IntPoly, TorusPoly};
use pytfhe_tfhe::tgsw::{Gadget, TgswCiphertext};
use pytfhe_tfhe::tlwe::{TlweCiphertext, TlweKey};
use pytfhe_tfhe::{BootGate, LweCiphertext, SecureRng, ServerKey, Torus32};
use pytfhe_vipbench::Benchmark;
use std::hint::black_box;
use std::time::Instant;

/// Seconds each timing runs for (`--quick`: a fiftieth).
const PROBE_SECONDS: f64 = 1.0;
/// Gates of the suite's short chain: `backend.replay_overhead_ms_per_wave`
/// is per wave, so it does not need the workload's 96.
const SHORT_CHAIN: usize = 24;
/// Key-seed offset of the suite, clear of the workloads' passes.
const SUITE_PASS: u64 = 900;

/// Fewest blocks a probe times, whatever its budget.
const MIN_BLOCKS: usize = 3;

/// Calls `f` in blocks of `inner` calls until `budget_s` is spent and
/// `MIN_BLOCKS` blocks ran; returns each block's seconds per call.
fn sample(budget_s: f64, inner: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < MIN_BLOCKS || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        per_call.push(t0.elapsed().as_secs_f64() / inner as f64);
    }
    per_call
}

fn scaled(samples: &[f64], factor: f64) -> Vec<f64> {
    samples.iter().map(|s| s * factor).collect()
}

fn budget(ctx: &Ctx) -> f64 {
    if ctx.quick {
        PROBE_SECONDS / 50.0
    } else {
        PROBE_SECONDS
    }
}

/// The whole suite, in the one order it runs in.
pub fn run(ctx: &mut Ctx) {
    let mut keys = match Keys::generate(ctx, SUITE_PASS) {
        Ok(keys) => keys,
        Err(e) => return ctx.report.gate.error("layer suite: key round trip", &e),
    };
    let r = &mut ctx.report;
    r.value("tfhe.keygen_s", "s", keys.keygen_s);
    r.value("tfhe.key_encode_s", "s", keys.key_encode_s);
    r.value("tfhe.key_decode_s", "s", keys.key_decode_s);
    r.value("tfhe.key_bytes", "bytes", keys.key_bytes as f64);
    kernels(ctx, &mut keys);
    host(ctx, keys.server.key());
    let mismatches = chain_scenario(ctx, &mut keys) + wide_scenario(ctx, &mut keys);
    ctx.report.value("check.path_mismatches", "count", mismatches as f64);
    drop(keys);
    compiler(ctx);
    serve_scenario(ctx);
}

/// `tfhe.*` kernel timings: single and batched bootstraps, key switch,
/// transforms, external product, decomposition, encrypt and decrypt.
fn kernels(ctx: &mut Ctx, keys: &mut Keys) {
    let budget = budget(ctx);
    let (client, key) = (&mut keys.client, keys.server.key());
    let params = *key.params();
    let n = params.poly_size;
    let mut bit_rng = Rng::fork(ctx.seed, 3);
    let cts = client.encrypt_bits(&bit_rng.bits(2 * pytfhe_tfhe::FUSE_CHUNK));
    let mut scratch = key.gate_scratch();
    let r = &mut ctx.report;

    // One gate on dependent inputs: each output is the next first operand.
    let mut x = cts[0].clone();
    let mut y = key.constant(false);
    let gate = sample(budget, 1, || {
        key.gate_into(BootGate::Nand, &x, &cts[1], &mut scratch, &mut y);
        std::mem::swap(&mut x, &mut y);
    });
    r.samples("tfhe.gate_single_ms", "ms", &scaled(&gate, 1e3));

    // The same gate with the recorder on fills the per-gate rotate / switch
    // histograms: the Figure 7 split. Spans the crates record meanwhile
    // are discarded.
    telemetry::metrics().reset();
    telemetry::set_enabled(true);
    for _ in 0..8 {
        key.gate_into(BootGate::Nand, &x, &cts[1], &mut scratch, &mut y);
        std::mem::swap(&mut x, &mut y);
    }
    telemetry::set_enabled(false);
    telemetry::drain();
    let snapshot = telemetry::metrics().snapshot();
    let sum = |prefix: &str| -> f64 {
        let named = snapshot.histograms.iter().filter(|(name, _)| name.starts_with(prefix));
        named.map(|(_, h)| h.sum()).sum()
    };
    let (rotate_s, switch_s) = (sum("tfhe_blind_rotate_seconds"), sum("tfhe_key_switch_seconds"));
    r.value("tfhe.blind_rotate_share", "ratio", rotate_s / (rotate_s + switch_s));

    let bk = key.bootstrapping_key();
    let mu = Torus32::from_fraction(1, 3);
    let mut boot = bk.boot_scratch();
    let mut raw = LweCiphertext::trivial(Torus32::ZERO, params.extracted_lwe_dim());
    let bootstrap = sample(budget, 1, || bk.bootstrap_raw_into(&cts[0], mu, &mut boot, &mut raw));
    r.samples("tfhe.bootstrap_single_ms", "ms", &scaled(&bootstrap, 1e3));

    let mut out = key.constant(false);
    let switch = sample(budget, 1, || key.keyswitch_key().switch_into(&raw, &mut out));
    r.samples("tfhe.keyswitch_ms", "ms", &scaled(&switch, 1e3));

    // Batched kernels, per gate. The same-kind batch is what kernel-graph
    // replay launches; the mixed batch is what the serve scheduler does.
    let pairs: Vec<(&LweCiphertext, &LweCiphertext)> =
        cts.chunks(2).map(|p| (&p[0], &p[1])).collect();
    let mut outs = vec![key.constant(false); pairs.len()];
    for (width, name) in [
        (2, "tfhe.batch2_ms_per_gate"),
        (4, "tfhe.batch4_ms_per_gate"),
        (8, "tfhe.batch8_ms_per_gate"),
    ] {
        let t = sample(budget, 1, || {
            key.batch_bootstrap_fused(
                BootGate::Nand,
                &pairs[..width],
                &mut outs[..width],
                &mut scratch,
            );
        });
        r.samples(name, "ms", &scaled(&t, 1e3 / width as f64));
    }
    let kinds = &BootGate::ALL[..pairs.len()];
    let mixed =
        sample(budget, 1, || key.batch_bootstrap_mixed(kinds, &pairs, &mut outs, &mut scratch));
    r.samples("tfhe.mixed8_ms_per_gate", "ms", &scaled(&mixed, 1e3 / pairs.len() as f64));

    // The pieces of one external product, on fixtures of the key's shape.
    let mut rng = SecureRng::seed_from_u64(ctx.seed ^ 0x70726f6265);
    let plan = bk.plan();
    let gadget = Gadget { levels: params.decomp_levels, base_log: params.decomp_base_log };
    let digit = IntPoly::binary(n, &mut rng);
    let mut freq = plan.forward_int(&digit);
    let forward = sample(budget, 200, || plan.forward_int_into(black_box(&digit), &mut freq));
    r.samples("tfhe.fft_forward_us", "us", &scaled(&forward, 1e6));
    let spectrum = freq.clone();
    let mut coeffs = TorusPoly::zero(n);
    let inverse = sample(budget, 200, || {
        // The inverse transform consumes its input; restore it (a 2 x 4 KB
        // copy, counted in) so every call transforms the same spectrum.
        freq.clone_from(&spectrum);
        plan.inverse_torus_destructive(&mut freq, &mut coeffs);
    });
    r.samples("tfhe.fft_inverse_us", "us", &scaled(&inverse, 1e6));
    let poly = TorusPoly::uniform(n, &mut rng);
    let mut digits: Vec<IntPoly> = (0..gadget.levels).map(|_| IntPoly::zero(n)).collect();
    let decompose =
        sample(budget, 200, || gadget.decompose_poly_into(black_box(&poly), &mut digits));
    r.samples("tfhe.decompose_us", "us", &scaled(&decompose, 1e6));
    let tlwe_key = TlweKey::generate(params.glwe_dim, n, &mut rng);
    let tgsw = TgswCiphertext::encrypt(&tlwe_key, 1, gadget, params.glwe_noise_stdev, &mut rng)
        .to_fft(plan);
    let tlwe = tlwe_key.encrypt_poly(&poly, params.glwe_noise_stdev, &mut rng);
    let mut ep_scratch = bk.scratch();
    let mut ep_out = TlweCiphertext::trivial(TorusPoly::zero(n), params.glwe_dim);
    let product = sample(budget, 20, || {
        tgsw.external_product_into(black_box(&tlwe), plan, &mut ep_scratch, &mut ep_out);
    });
    r.samples("tfhe.external_product_us", "us", &scaled(&product, 1e6));

    let bits = bit_rng.bits(64);
    let mut fresh = Vec::new();
    let encrypt = sample(budget, 1, || fresh = client.encrypt_bits(black_box(&bits)));
    r.samples("tfhe.encrypt_us_per_bit", "us", &scaled(&encrypt, 1e6 / bits.len() as f64));
    let decrypt = sample(budget, 1, || {
        black_box(client.decrypt_bits(black_box(&fresh)));
    });
    r.samples("tfhe.decrypt_us_per_bit", "us", &scaled(&decrypt, 1e6 / bits.len() as f64));
}

/// The largest cache of cpu0 in bytes, from sysfs (0 when unreadable).
fn last_level_cache_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, unit) = text.split_at(text.find(|c: char| !c.is_ascii_digit())?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                _ => return None,
            };
            digits.parse::<usize>().ok().map(|v| v * scale)
        })
        .max()
        .unwrap_or(0)
}

/// Host memory bandwidth, the CRC rate, an empty pool dispatch, and the
/// bootstrapping-key streaming floor they imply.
fn host(ctx: &mut Ctx, key: &ServerKey) {
    let budget = budget(ctx);
    let llc = last_level_cache_bytes();
    // Arrays at least four times the last-level cache, so the copy streams
    // from memory: the regime one bootstrap's key traffic is in.
    let len = (4 * llc).clamp(64 << 20, 512 << 20);
    let src = vec![0x5au8; len];
    let mut dst = vec![0u8; len];
    let copy = sample(budget, 1, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    let crc = sample(budget, 1, || {
        black_box(pytfhe_wire::crc32c(black_box(&src[..len / 4])));
    });
    println!(
        "host: last-level cache {} KiB; memcpy over 2 x {} MiB arrays, crc32c over {} MiB",
        llc >> 10,
        len >> 20,
        len >> 22
    );
    drop((src, dst));
    let pool = WorkerPool::global();
    let dispatch = sample(budget, 200, || {
        let jobs: Vec<Job<'_>> =
            (0..WORKERS).map(|_| Box::new(|_lane: usize| {}) as Job<'_>).collect();
        pool.run(WORKERS, jobs).expect("empty jobs do not panic");
    });

    // Computed, not measured: every bootstrap reads the whole FFT-domain
    // bootstrapping key once — n TGSW samples of (k+1)·l rows by (k+1)
    // columns of N/2 complex f64 points.
    let p = key.params();
    let bsk_bytes =
        p.lwe_dim * (p.glwe_dim + 1) * p.decomp_levels * (p.glwe_dim + 1) * (p.poly_size / 2) * 16;
    let r = &mut ctx.report;
    let rate = |bytes: usize, secs: &[f64]| -> Vec<f64> {
        secs.iter().map(|s| bytes as f64 / s / 1e9).collect()
    };
    let gb_per_s = r.samples("host.memcpy_gb_per_s", "GB/s", &rate(len, &copy));
    r.samples("wire.crc32c_gb_per_s", "GB/s", &rate(len / 4, &crc));
    r.samples("backend.pool_dispatch_us", "us", &scaled(&dispatch, 1e6));
    r.value("tfhe.bsk_bytes_per_bootstrap", "bytes", bsk_bytes as f64);
    r.value("tfhe.bsk_stream_floor_ms", "ms", bsk_bytes as f64 / (gb_per_s * 1e9) * 1e3);
}

/// The second execution path on an evaluation's own ciphertexts: the
/// wavefront executor must return the ciphertexts kernel-graph replay
/// returned. Returns its wall seconds and the number of mismatches.
fn wavefront_parity(
    ctx: &mut Ctx,
    keys: &Keys,
    program: &Program,
    eval: &crate::workloads::graph::Eval,
) -> (f64, u64) {
    let (out, secs) = timed(|| keys.server.execute(&program.netlist, &eval.inputs, WORKERS));
    let mismatches = match out {
        Ok(out) => {
            ctx.report.gate.check(
                "wavefront executor",
                &keys.client.decrypt_bits(&out),
                &eval.want,
            );
            let differs = out != eval.outputs;
            if differs {
                ctx.report.gate.error("path parity", &"execute_graph and execute disagree");
            }
            u64::from(differs)
        }
        Err(e) => {
            ctx.report.gate.error("wavefront executor", &e);
            1
        }
    };
    (secs, mismatches)
}

/// A short chain of dependent gates through `execute_graph`: what replay
/// adds per wave on top of the single-gate kernel. Returns the path
/// mismatches it found.
fn chain_scenario(ctx: &mut Ctx, keys: &mut Keys) -> u64 {
    let program = Program::build(ctx, Some(SHORT_CHAIN), SUITE_PASS);
    let mut rng = Rng::fork(ctx.seed, 5);
    let mut eval_s = Vec::new();
    let mut last = None;
    for id in 0..4 {
        let Some(eval) = evaluate(ctx, keys, &program, &mut rng, 9000 + id, WORKERS) else {
            return 1;
        };
        if eval.stats.plan_cached {
            eval_s.push(eval.execute_s);
        }
        last = Some(eval);
    }
    let last = last.expect("four evaluations ran");
    let (_, mismatches) = wavefront_parity(ctx, keys, &program, &last);
    let waves = last.stats.waves as f64;
    let r = &mut ctx.report;
    let per_gate_ms =
        r.samples("backend.chain_eval_ms_per_gate", "ms", &scaled(&eval_s, 1e3 / waves));
    r.value(
        "backend.replay_overhead_ms_per_wave",
        "ms",
        per_gate_ms - r.need("tfhe.gate_single_ms"),
    );
    mismatches
}

/// Distinctness, the `wide` program, once on one lane (which captures
/// the plan), once on two, once through the wavefront executor: scaling,
/// kernel efficiency, launch counts and path parity; then the plan's
/// capture and wire round trip. Returns the path mismatches it found.
fn wide_scenario(ctx: &mut Ctx, keys: &mut Keys) -> u64 {
    let program = Program::build(ctx, None, SUITE_PASS);
    let mut rng = Rng::fork(ctx.seed, 6);
    let Some(one) = evaluate(ctx, keys, &program, &mut rng, 9100, 1) else { return 1 };
    let Some(two) = evaluate(ctx, keys, &program, &mut rng, 9101, WORKERS) else { return 1 };
    let (wavefront_s, mismatches) = wavefront_parity(ctx, keys, &program, &two);
    let bootstraps = two.stats.bootstraps as f64;
    let r = &mut ctx.report;
    r.value("backend.replay_eval_s", "s", two.execute_s);
    r.value("backend.wavefront_eval_s", "s", wavefront_s);
    r.value(
        "backend.scaling_w2_over_w1",
        "ratio",
        (one.execute_s - one.stats.capture_s) / two.execute_s,
    );
    // What the kernels alone would take: width-8 batches split evenly
    // over the lanes.
    let kernel_s = bootstraps * r.need("tfhe.batch8_ms_per_gate") * 1e-3 / WORKERS as f64;
    r.value("backend.kernel_efficiency", "ratio", kernel_s / two.execute_s);
    r.value("backend.waves", "count", two.stats.waves as f64);
    r.value("backend.kernel_launches", "count", two.stats.kernel_launches as f64);
    r.value("backend.steals", "count", two.stats.steals as f64);
    plan(ctx, &program.netlist);
    mismatches
}

/// Plan capture and the plan's wire round trip.
fn plan(ctx: &mut Ctx, program: &Netlist) {
    let budget = budget(ctx);
    let cfg = CaptureConfig::default();
    let captured = capture(program, &cfg).expect("program captures");
    let bytes = captured.to_bytes();
    let capture_s = sample(budget, 1, || {
        black_box(capture(black_box(program), &cfg).expect("program captures"));
    });
    let encode_s = sample(budget, 1, || {
        black_box(captured.to_bytes());
    });
    let decode_s = sample(budget, 1, || {
        black_box(KernelPlan::from_bytes(black_box(&bytes)).expect("own plan decodes"));
    });
    let r = &mut ctx.report;
    r.samples("backend.capture_ms", "ms", &scaled(&capture_s, 1e3));
    r.samples("backend.plan_encode_ms", "ms", &scaled(&encode_s, 1e3));
    r.samples("backend.plan_decode_ms", "ms", &scaled(&decode_s, 1e3));
    r.value("backend.plan_bytes", "bytes", bytes.len() as f64);
}

/// Compiler-side timings on one build of the `compile` workload's
/// models: per-model build, netlist shape, LUT covering (as counts: no
/// 128-bit parameter set admits multi-bit LUTs at benchmark cost),
/// assemble / disassemble and the plain-engine schedulers.
fn compiler(ctx: &mut Ctx) {
    let budget = budget(ctx);
    let models = Models::build(ctx);
    let r = &mut ctx.report;
    for (name, secs) in [
        "chiseltorch.compile_mnist_s_s",
        "chiseltorch.compile_mnist_m_s",
        "chiseltorch.compile_mnist_l_s",
    ]
    .into_iter()
    .zip(models.build_s)
    {
        r.value(name, "s", secs);
    }
    let netlists: Vec<&Netlist> = models.benches.iter().map(Benchmark::netlist).collect();
    let gates: usize = netlists.iter().map(|nl| nl.num_gates()).sum();
    let depth = netlists.iter().map(|nl| Levels::compute(nl).depth()).max().unwrap_or(0);
    r.value("netlist.gates_after", "count", gates as f64);
    r.value("netlist.depth", "count", f64::from(depth));

    // The smallest model stands in for the per-program costs.
    let small = netlists[0];
    let (covered, cover_s) = timed(|| lut_cover(small, &LutCoverConfig::default()));
    let (_, cover) = covered.expect("a valid netlist covers");
    r.value("netlist.lut_cover_s", "s", cover_s);
    r.value("netlist.lut_cover_bootstraps_after", "count", cover.bootstraps_after as f64);
    let binary = pytfhe_asm::assemble(small);
    let assemble = sample(budget, 1, || {
        black_box(pytfhe_asm::assemble(black_box(small)));
    });
    let disassemble = sample(budget, 1, || {
        black_box(pytfhe_asm::disassemble(black_box(&binary)).expect("own binary disassembles"));
    });
    r.samples("asm.assemble_ms", "ms", &scaled(&assemble, 1e3));
    r.samples("asm.disassemble_ms", "ms", &scaled(&disassemble, 1e3));

    // Scheduler overhead alone: both executors on the plain engine.
    let engine = PlainEngine::new();
    let bits = models.benches[0].encode_input(&models.benches[0].sample_input(ctx.seed));
    let graph = KernelGraph::new();
    graph.execute(&engine, small, &bits, WORKERS).expect("plain replay");
    let per_gate = 1e9 / small.num_gates() as f64;
    let replay = sample(budget, 1, || {
        black_box(graph.execute(&engine, small, &bits, WORKERS).expect("plain replay"));
    });
    let wavefront = sample(budget, 1, || {
        black_box(execute_parallel(&engine, small, &bits, WORKERS).expect("plain wavefront"));
    });
    r.samples("backend.plain_replay_ns_per_gate", "ns", &scaled(&replay, per_gate));
    r.samples("backend.plain_wavefront_ns_per_gate", "ns", &scaled(&wavefront, per_gate));
}

/// A counter of the process-wide telemetry registry.
fn counter(name: &str) -> u64 {
    telemetry::metrics().snapshot().counters.get(name).copied().unwrap_or(0)
}

/// The `serve` workload in miniature: two tenants with keys of their
/// own, one round each on a fresh front, then every job's program alone
/// under tenant 0's key through kernel-graph replay — what a job costs
/// without a scheduler or a neighbour.
fn serve_scenario(ctx: &mut Ctx) {
    let programs = serve::programs();
    let front = ServeHandle::start(ServeConfig::default(), None);
    let mut tenants = Vec::new();
    let mut solo_key = None;
    for index in 0..TENANTS {
        match Tenant::set_up(ctx, &front, SUITE_PASS + 10 + index) {
            Ok((tenant, key)) => {
                tenants.push(tenant);
                solo_key.get_or_insert(key);
            }
            Err(e) => return ctx.report.gate.error("serve scenario: set-up", &e),
        }
    }
    let counters = || ["serve_waves_total", "serve_gates_batched_total"].map(counter);
    let before = counters();
    let (jobs, wall_s) = serve::round(&mut tenants, &ctx.params, &programs, ctx.seed, 9);
    let after = counters();
    let mut checked = Checked::default();
    serve::check(ctx, "serve scenario", &jobs, &mut checked);

    let key = solo_key.expect("tenant 0 was set up");
    let engine = TfheEngine::new(&key);
    let graph = KernelGraph::new();
    let mut solo_s = [0.0; 3];
    for (nl, solo) in programs.iter().zip(&mut solo_s) {
        let inputs = tenants[0].client.encrypt_bits(&vec![false; nl.num_inputs()]);
        let replayed = graph.execute(&engine, nl, &inputs, WORKERS).and_then(|_| {
            let (out, secs) = timed(|| graph.execute(&engine, nl, &inputs, WORKERS));
            out.map(|_| secs)
        });
        match replayed {
            Ok(secs) => *solo = secs,
            Err(e) => return ctx.report.gate.error("serve scenario: solo run", &e),
        }
    }
    let install_s: Vec<f64> = tenants.iter().map(|t| t.install_s).collect();
    for t in tenants {
        if let Err(e) = t.close() {
            ctx.report.gate.error("serve scenario: closing a session", &e);
        }
    }
    let latencies = checked.latencies();
    if latencies.is_empty() {
        return;
    }
    let ratios: Vec<f64> =
        checked.jobs.iter().map(|&(c, secs)| secs / solo_s[c as usize]).collect();
    let [waves, batched] = [0, 1].map(|i| (after[i] - before[i]) as f64);
    let r = &mut ctx.report;
    r.samples("serve.install_key_s", "s", &install_s);
    r.samples("serve.submit_ms", "ms", &checked.submit_ms);
    r.samples("serve.job_p50_s", "s", &latencies);
    r.value("serve.jobs_per_s", "1/s", latencies.len() as f64 / wall_s);
    r.samples("serve.job_over_solo_ratio", "ratio", &ratios);
    r.value("serve.waves", "count", waves);
    r.value("serve.gates_batched", "count", batched);
    r.value("serve.batch_occupancy_mean", "count", batched / waves.max(1.0));
    r.value("serve.rejected_jobs", "count", checked.rejected as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_times_at_least_the_minimum_blocks() {
        let mut calls = 0;
        let per_call = sample(0.0, 4, || calls += 1);
        assert_eq!(per_call.len(), MIN_BLOCKS);
        assert_eq!(calls, 4 * MIN_BLOCKS);
        assert!(per_call.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn sample_keeps_going_until_the_budget_is_spent() {
        let start = Instant::now();
        let per_call = sample(0.05, 1, || std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(start.elapsed().as_secs_f64() >= 0.05);
        assert!(per_call.len() >= 5);
    }
}
