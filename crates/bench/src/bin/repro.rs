//! `repro` — regenerate the tables and figures of the PyTFHE paper.
//!
//! ```text
//! repro <target> [--quick]
//!
//! targets: fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 table4
//!          ablation all
//!
//! --quick: use the miniature Test/Small workload scales (fast; same
//!          qualitative shapes). Without it the Paper scales are built,
//!          which compiles multi-million-gate netlists and takes a few
//!          minutes.
//! ```
//!
//! Measured performance of this implementation is not a `repro` target:
//! it is the repo benchmark in `benchmark/` (see `benchmark/README.md`).

use pytfhe_baselines::MnistScale;
use pytfhe_bench::figures;
use pytfhe_vipbench::Scale;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let target = args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_default();
    let scale = if quick { Scale::Test } else { Scale::Paper };
    let mscale = if quick { MnistScale::Small } else { MnistScale::Paper };
    let run = |name: &str| -> Option<String> {
        Some(match name {
            "fig6" => figures::fig6(),
            "fig7" => figures::fig7(),
            "fig8" => figures::fig8(),
            "fig9" => figures::fig9(),
            "fig10" => figures::fig10(scale),
            "fig11" => figures::fig11(scale),
            "fig12" => figures::fig12(mscale),
            "fig13" => figures::fig13(mscale),
            "fig14" => figures::fig14(mscale),
            "table4" => figures::table4(mscale),
            "ablation" => figures::ablation(),
            _ => return None,
        })
    };
    let all = [
        "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "table4",
        "ablation",
    ];
    match target.as_str() {
        "all" => {
            for name in all {
                println!("{}", run(name).expect("known target"));
                println!("{}\n", "=".repeat(78));
            }
            ExitCode::SUCCESS
        }
        name => match run(name) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("usage: repro <{}|all> [--quick]", all.join("|"));
                ExitCode::FAILURE
            }
        },
    }
}
