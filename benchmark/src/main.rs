//! The repo benchmark: encrypted `default_128` runs of four workloads
//! through the production path, with per-layer attribution. See
//! README.md for the workloads, the metrics and how they interact.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload chain --seed 1 --seconds 12 --trace 0
//! ```

mod gen;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use pytfhe_tfhe::Params;
use report::{Provenance, Report};
use spec::Workload;
use std::process::ExitCode;

/// Worker lanes of every encrypted run (`execute_graph(.., 2)`, and the
/// width of the shared pool the serve scheduler dispatches onto).
pub const WORKERS: usize = 2;

/// The seed used when `--seed` is not given. Seed 777 is held out: run
/// it to validate a claim made while iterating on the default seed.
pub const DEFAULT_SEED: u64 = 1;

/// One run's settings and the report it fills in.
pub struct Ctx {
    pub seed: u64,
    /// Seconds the measured phase lasts; it ends with the first whole
    /// evaluation that finishes past this mark.
    pub seconds: f64,
    pub traced: bool,
    /// `--quick`: insecure `Params::testing()` and miniature models, to
    /// exercise the plumbing in seconds. Never a number to quote.
    pub quick: bool,
    pub params: Params,
    pub report: Report,
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    corrupt_oracle: bool,
}

const USAGE: &str = "usage: pytfhe-benchmark [--workload chain|wide|serve|compile] [--seed N] \
[--seconds S] [--trace 0|1] [--quick] [--corrupt-oracle] [--print-spec]
without --workload, runs every workload untraced and then traced";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
        quick: false,
        corrupt_oracle: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--corrupt-oracle" => args.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-spec") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&argv);
    };

    // The serve scheduler dispatches onto the process-wide pool, whose
    // width is read from the environment on first use; pin it so every
    // workload runs at the same two lanes on any host. Nothing else has
    // started a thread yet.
    std::env::set_var("PYTFHE_WORKERS", WORKERS.to_string());

    let (params, params_name) = if args.quick {
        (Params::testing(), "testing (INSECURE, --quick plumbing mode)")
    } else {
        (Params::default_128(), "default_128")
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        params,
        report: Report::new(workload, args.traced),
    };
    ctx.report.gate.corrupt_next = args.corrupt_oracle;

    println!(
        "# pytfhe benchmark: workload={} trace={} — {}",
        workload.name(),
        u8::from(args.traced),
        workload.why()
    );
    let provenance = Provenance::collect(args.seed, args.seconds, params_name, WORKERS);
    print!("{}", provenance.render());

    // A traced run records from its set-up on; the workload switches the
    // recorder off and on around its evaluations and writes the trace.
    if args.traced {
        trace::start();
    }
    match workload {
        Workload::Chain | Workload::Wide => workloads::graph::run(&mut ctx, workload),
        Workload::Serve => workloads::serve::run(&mut ctx),
        Workload::Compile => workloads::compile::run(&mut ctx),
    }
    if args.traced && ctx.report.gate.failed == 0 {
        layers::run(&mut ctx);
        if workload == Workload::Chain && ctx.report.gate.failed == 0 {
            print_chain_identity(&ctx.report);
        }
    }

    let gate = &ctx.report.gate;
    let (evaluations, wrong_bits, errors) = (gate.attempted, gate.wrong_bits, gate.errors);
    ctx.report.value("check.evaluations", "count", evaluations as f64);
    ctx.report.value("check.wrong_outputs", "count", wrong_bits as f64);
    ctx.report.value("check.rejected", "count", errors as f64);
    // A run that failed says why above; one that did not must be complete.
    if ctx.report.gate.failed == 0 {
        for name in ctx.report.missing() {
            ctx.report.gate.error("report", &format!("metric {name} was not recorded"));
        }
    }
    print!("{}", ctx.report.render());
    let out = trace::out_dir();
    let file = out.join(format!("report-{}-trace{}.json", workload.name(), u8::from(args.traced)));
    if let Err(e) = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&file, ctx.report.to_json(&provenance)))
    {
        eprintln!("cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{}", ctx.report.result_line());
    if ctx.report.gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The identity the `chain` workload exists for, from a traced run: one
/// evaluation is its bootstraps through the single-gate kernel plus what
/// replay adds per wave. Both terms come from the layer suite (its own
/// key, a 24-gate chain), so the residual is a measurement, not zero by
/// construction.
fn print_chain_identity(r: &Report) {
    let gates = gen::CHAIN_GATES as f64;
    let eval_s = r.need("trace.untraced_eval_s");
    let kernel_s = gates * r.need("tfhe.gate_single_ms") * 1e-3;
    let overhead_s = gates * r.need("backend.replay_overhead_ms_per_wave") * 1e-3;
    println!(
        "chain identity: eval_s {eval_s:.3} s = {gates:.0} bootstraps x tfhe.gate_single_ms \
         ({kernel_s:.3} s) + {gates:.0} waves x backend.replay_overhead_ms_per_wave \
         ({overhead_s:.3} s) + residual {:.3} s; an empty 2-lane pool dispatch costs {:.2} us",
        eval_s - kernel_s - overhead_s,
        r.need("backend.pool_dispatch_us"),
    );
}

/// Runs every workload as a child process of this executable — untraced
/// first, then traced — so each has its own peak RSS and pool. Children
/// inherit stdout; `status()` waits for each to end.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for trace in ["0", "1"] {
        for workload in Workload::ALL {
            let status = std::process::Command::new(&exe)
                .args(argv)
                .args(["--workload", workload.name(), "--trace", trace])
                .status();
            if !status.is_ok_and(|s| s.success()) {
                failed.push(format!("{} (trace {trace})", workload.name()));
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload serve --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::Serve));
        assert_eq!((a.seed, a.seconds, a.traced, a.quick), (42, 10.0, true, false));
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.traced), (None, DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in ["--workload nope", "--seed x", "--trace 2", "--seconds 0", "--seed", "--what"] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} should be rejected");
        }
    }
}
