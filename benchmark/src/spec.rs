//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `../BENCHMARK.json` is this module rendered by
//! `--print-spec`; a unit test keeps the committed file identical.

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Chain,
    Wide,
    Serve,
    Compile,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Chain, Workload::Wide, Workload::Serve, Workload::Compile];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Chain => "chain",
            Workload::Wide => "wide",
            Workload::Serve => "serve",
            Workload::Compile => "compile",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists: which layers it stresses and which it
    /// bypasses (one line, <= 200 characters, copied into BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Chain => {
                "96 dependent gates: every wave is one single-gate bootstrap, the paper's 13 ms/gate number; batching and parallelism must not move it"
            }
            Workload::Wide => {
                "VIP-Bench Distinctness, 239 bootstraps in waves up to 120 wide: width-8 batch kernel, work splitting over 2 lanes and wave barriers dominate"
            }
            Workload::Serve => {
                "2 tenants with distinct keys, closed loop over the serve front: narrow mixed-gate scheduler waves and a doubled key working set, not plan replay"
            }
            Workload::Compile => {
                "no keys: chiseltorch build, optimise, assemble, capture and plain replay of MNIST_S/M/L; TFHE kernel work must leave it unchanged"
            }
        }
    }
}

/// Seconds one run measures (`run_seconds` of BENCHMARK.json).
pub const RUN_SECONDS: u32 = 12;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// Bound of the metrics that must repeat exactly: any increase trips it.
const EXACT: f64 = 0.000001;

/// End-to-end metrics `(name, unit, better, bound)`: what a user of the
/// system sees. The driver wants one list that every workload reports,
/// so each metric is defined per workload in README.md. `bound` is the
/// share of the parent's median a later change may lose before it is
/// rejected.
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Lower, 0.25),
    ("eval_s", "s", Lower, 0.25),
    ("work_per_s", "1/s", Higher, 0.25),
    ("program_bootstraps", "count", Lower, EXACT),
    ("program_bytes", "bytes", Lower, EXACT),
    ("peak_rss_mb", "MB", Lower, 0.10),
];

/// Per-layer metrics `(name, unit, better)`, named `<crate>.<what>`. The
/// `trace.*` group describes the traced workload; everything else comes
/// from the layer suite (`layers.rs`), which is the same in every traced
/// run, so a name means one thing whatever `--workload` says. No bounds:
/// they explain a move of an end-to-end metric, they do not gate.
pub const PER_LAYER: [(&str, &str, Better); 67] = [
    // tfhe: the bootstrap kernels, single and batched.
    ("tfhe.gate_single_ms", "ms", Lower),
    ("tfhe.bootstrap_single_ms", "ms", Lower),
    ("tfhe.batch2_ms_per_gate", "ms", Lower),
    ("tfhe.batch4_ms_per_gate", "ms", Lower),
    ("tfhe.batch8_ms_per_gate", "ms", Lower),
    ("tfhe.mixed8_ms_per_gate", "ms", Lower),
    ("tfhe.keyswitch_ms", "ms", Lower),
    ("tfhe.fft_forward_us", "us", Lower),
    ("tfhe.fft_inverse_us", "us", Lower),
    ("tfhe.external_product_us", "us", Lower),
    ("tfhe.decompose_us", "us", Lower),
    ("tfhe.blind_rotate_share", "ratio", Lower),
    // tfhe: keys and ciphertexts.
    ("tfhe.keygen_s", "s", Lower),
    ("tfhe.key_encode_s", "s", Lower),
    ("tfhe.key_decode_s", "s", Lower),
    ("tfhe.key_bytes", "bytes", Lower),
    ("tfhe.encrypt_us_per_bit", "us", Lower),
    ("tfhe.decrypt_us_per_bit", "us", Lower),
    // The bootstrapping-key streaming floor (MATCHA's bound).
    ("tfhe.bsk_bytes_per_bootstrap", "bytes", Lower),
    ("host.memcpy_gb_per_s", "GB/s", Higher),
    ("tfhe.bsk_stream_floor_ms", "ms", Lower),
    // backend: pool, kernel-graph replay, wavefront executor.
    ("backend.pool_dispatch_us", "us", Lower),
    ("backend.chain_eval_ms_per_gate", "ms", Lower),
    ("backend.replay_overhead_ms_per_wave", "ms", Lower),
    ("backend.replay_eval_s", "s", Lower),
    ("backend.wavefront_eval_s", "s", Lower),
    ("backend.scaling_w2_over_w1", "ratio", Higher),
    ("backend.kernel_efficiency", "ratio", Higher),
    ("backend.waves", "count", Lower),
    ("backend.kernel_launches", "count", Lower),
    ("backend.steals", "count", Lower),
    ("backend.capture_ms", "ms", Lower),
    ("backend.plan_bytes", "bytes", Lower),
    ("backend.plan_encode_ms", "ms", Lower),
    ("backend.plan_decode_ms", "ms", Lower),
    ("backend.plain_replay_ns_per_gate", "ns", Lower),
    ("backend.plain_wavefront_ns_per_gate", "ns", Lower),
    // serve: front, scheduler, key cache.
    ("serve.install_key_s", "s", Lower),
    ("serve.submit_ms", "ms", Lower),
    ("serve.job_p50_s", "s", Lower),
    ("serve.jobs_per_s", "1/s", Higher),
    ("serve.job_over_solo_ratio", "ratio", Lower),
    ("serve.batch_occupancy_mean", "count", Higher),
    ("serve.waves", "count", Lower),
    ("serve.gates_batched", "count", Lower),
    ("serve.rejected_jobs", "count", Lower),
    // compiler: chiseltorch, netlist, asm, wire.
    ("chiseltorch.compile_mnist_s_s", "s", Lower),
    ("chiseltorch.compile_mnist_m_s", "s", Lower),
    ("chiseltorch.compile_mnist_l_s", "s", Lower),
    ("netlist.gates_after", "count", Lower),
    ("netlist.depth", "count", Lower),
    ("netlist.lut_cover_s", "s", Lower),
    ("netlist.lut_cover_bootstraps_after", "count", Lower),
    ("asm.assemble_ms", "ms", Lower),
    ("asm.disassemble_ms", "ms", Lower),
    ("wire.crc32c_gb_per_s", "GB/s", Higher),
    // The traced workload: the benchmark's own spans, median per span.
    ("trace.setup_s", "s", Lower),
    ("trace.eval_s", "s", Lower),
    ("trace.execute_s", "s", Lower),
    ("trace.eval_self_s", "s", Lower),
    ("trace.spans", "count", Lower),
    ("trace.untraced_eval_s", "s", Lower),
    ("telemetry.trace_overhead_pct", "%", Lower),
    // The oracle gate and the parity of the two execution paths.
    ("check.evaluations", "count", Higher),
    ("check.wrong_outputs", "count", Lower),
    ("check.rejected", "count", Lower),
    ("check.path_mismatches", "count", Lower),
];

/// Renders BENCHMARK.json.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
                better.name()
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.name()
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
            "\"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
            "  \"paths\": [\"benchmark\"],\n",
            "  \"run_seconds\": {run_seconds},\n",
            "  \"workloads\": [\n{workloads}\n  ],\n",
            "  \"end_to_end\": [\n{end_to_end}\n  ],\n",
            "  \"per_layer\": [\n{per_layer}\n  ]\n",
            "}}\n"
        ),
        run_seconds = RUN_SECONDS,
        workloads = workloads.join(",\n"),
        end_to_end = end_to_end.join(",\n"),
        per_layer = per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(well_formed(name), "malformed name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
    }

    #[test]
    fn units_bounds_and_reasons_fit_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for (name, unit, _, bound) in END_TO_END {
            assert!(unit_ok(unit), "{name}: unit {unit:?}");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
        for (name, unit, _) in PER_LAYER {
            assert!(unit_ok(unit), "{name}: unit {unit:?}");
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").expect("setup_s is required");
        assert_eq!((setup.1, setup.2), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3), "setup_s carries the largest bound");
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}: why", w.name());
        }
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_spec() {
        let rendered = benchmark_json();
        pytfhe_telemetry::json::validate(&rendered).expect("rendered spec is JSON");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, rendered, "regenerate with `--print-spec > BENCHMARK.json`");
    }
}
