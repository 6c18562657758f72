//! `compile`: no keys. One repetition builds MNIST_S, MNIST_M and
//! MNIST_L with chiseltorch (elaborate + netlist optimise), assembles and
//! disassembles each, captures the kernel plan and replays it on the
//! plain engine. TFHE kernel work must leave this workload unchanged;
//! compiler and IR work shows here as time or as `program_bootstraps`.

use super::{alternate, measure, record_overhead, setup_passes, timed};
use crate::{report, trace, Ctx, WORKERS};
use pytfhe_backend::{netlist_bootstraps, KernelGraph, PlainEngine};
use pytfhe_vipbench::{mnist_l, mnist_m, mnist_s, Benchmark, Scale};

/// Fewest timed repetitions of an untraced run.
const MIN_REPS: usize = 3;

/// The three MNIST models, built once each.
pub struct Models {
    pub benches: [Benchmark; 3],
    pub build_s: [f64; 3],
}

impl Models {
    /// Builds MNIST_S, MNIST_M and MNIST_L (chiseltorch elaboration plus
    /// netlist optimisation), timing each: at paper scale, or at the
    /// miniature test scale under `--quick`.
    pub fn build(ctx: &Ctx) -> Models {
        let scale = if ctx.quick { Scale::Test } else { Scale::Paper };
        let (s, s_s) = timed(|| mnist_s(scale));
        let (m, m_s) = timed(|| mnist_m(scale));
        let (l, l_s) = timed(|| mnist_l(scale));
        Models { benches: [s, m, l], build_s: [s_s, m_s, l_s] }
    }
}

/// One repetition's timings and products.
struct Rep {
    /// Build + assemble + disassemble + capture + replay, all models.
    total_s: f64,
    /// Build + assemble only: what producing the binaries costs.
    compile_s: f64,
    bootstraps: u64,
    binary_bytes: usize,
}

/// Runs one repetition and checks every model's replay against the oracle.
fn repetition(ctx: &mut Ctx, id: u64) -> Option<Rep> {
    let _eval = trace::span("eval", id);
    let engine = PlainEngine::new();
    let models = {
        let _span = trace::span("build", id);
        Models::build(ctx)
    };
    let build_s: f64 = models.build_s.iter().sum();
    let mut rep = Rep { total_s: build_s, compile_s: build_s, bootstraps: 0, binary_bytes: 0 };
    for (m, bench) in models.benches.iter().enumerate() {
        let input = bench.sample_input(ctx.seed.wrapping_mul(31) + id * 3 + m as u64);
        let bits = {
            let _span = trace::span("encode_input", id);
            bench.encode_input(&input)
        };
        let (binary, assemble_s) = {
            let _span = trace::span("assemble", id);
            timed(|| pytfhe_asm::assemble(bench.netlist()))
        };
        let (program, disassemble_s) = {
            let _span = trace::span("disassemble", id);
            timed(|| pytfhe_asm::disassemble(&binary).expect("own binary disassembles"))
        };
        let graph = KernelGraph::new();
        let (captured, capture_s) = {
            let _span = trace::span("capture", id);
            timed(|| graph.execute(&engine, &program, &bits, WORKERS))
        };
        let (replayed, replay_s) = {
            let _span = trace::span("execute", id);
            timed(|| graph.execute(&engine, &program, &bits, WORKERS))
        };
        rep.total_s += assemble_s + disassemble_s + capture_s + replay_s;
        rep.compile_s += assemble_s;
        rep.bootstraps += netlist_bootstraps(&program);
        rep.binary_bytes += binary.len();

        // Outside the timings: the replayed bits must be the ones the
        // netlist computes, and those must decode to the model's own
        // plaintext forward pass within the workload's tolerance.
        let _span = trace::span("check", id);
        let name = format!("repetition {id} {}", bench.name());
        match captured.and(replayed) {
            Ok((out, stats)) => {
                assert!(stats.plan_cached, "the second run replays the cached plan");
                ctx.report.gate.check(&name, &out, &bench.netlist().eval_plain(&bits));
            }
            Err(e) => {
                ctx.report.gate.error(&name, &e);
                return None;
            }
        }
        if let Err(e) = bench.check_detailed(&input) {
            ctx.report.gate.error(&format!("{name} against Benchmark::oracle"), &e);
        }
    }
    Some(rep)
}

pub fn run(ctx: &mut Ctx) {
    // Set-up: what must exist before the first repetition can be checked —
    // the models with their oracles, built like any user would build them.
    let setup_s: Vec<f64> = (0..setup_passes(ctx.traced) as u64)
        .map(|pass| {
            let _span = trace::span("setup", pass);
            timed(|| Models::build(ctx)).1
        })
        .collect();
    trace::set_recording(false);

    // Warm-up repetition: checked, never timed. Each repetition drops its
    // models when it ends, so peak RSS does not grow with the number of
    // repetitions that fit into the run.
    if repetition(ctx, 0).is_none() {
        return;
    }
    if ctx.traced {
        let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
        alternate(ctx, |ctx, id, traced| {
            let secs = repetition(ctx, id).map(|rep| rep.total_s);
            if traced { &mut traced_s } else { &mut untraced_s }.extend(secs);
            secs.is_some()
        });
        trace::finish(&mut ctx.report);
        record_overhead(ctx, &untraced_s, &traced_s);
        return;
    }

    let mut reps = Vec::new();
    measure(ctx, MIN_REPS, |ctx, id| {
        let rep = repetition(ctx, id);
        let ok = rep.is_some();
        reps.extend(rep);
        ok
    });
    let Some(last) = reps.last() else { return };
    if ctx.report.gate.failed > 0 {
        return;
    }
    let (bootstraps, binary_bytes) = (last.bootstraps as f64, last.binary_bytes as f64);
    let r = &mut ctx.report;
    r.samples("setup_s", "s", &setup_s);
    let eval_median =
        r.samples("eval_s", "s", &reps.iter().map(|rep| rep.total_s).collect::<Vec<_>>());
    r.value("work_per_s", "1/s", bootstraps / eval_median);
    r.value("program_bootstraps", "count", bootstraps);
    r.value("program_bytes", "bytes", binary_bytes);
    r.value("peak_rss_mb", "MB", report::peak_rss_mb());
    r.samples("compile_s", "s", &reps.iter().map(|rep| rep.compile_s).collect::<Vec<_>>());
}
