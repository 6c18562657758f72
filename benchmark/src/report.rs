//! Metric collection, the oracle gate, provenance and the two outputs of
//! a run: the human-readable report (every metric by name with unit and
//! sample statistics) and the one-line JSON result the driver parses.

use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use pytfhe_telemetry::export::{escape_json, json_f64};
use std::process::Command;

/// One named measurement: the reported value plus the samples behind it
/// (a single sample for counts and derived values).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub summary: Summary,
}

/// Counts evaluations against the independent oracle. An evaluation
/// whose decrypted bits differ from the oracle, or that ended in a typed
/// error or a refused job, is a failed evaluation.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub wrong_bits: u64,
    /// Evaluations that ended in a typed error or a refused job.
    pub errors: u64,
    /// Flip the first expected bit of the next check (`--corrupt-oracle`):
    /// proves the gate trips and the process exits non-zero.
    pub corrupt_next: bool,
}

impl Gate {
    /// Compares decrypted `got` with the oracle's `want`; returns whether
    /// they agree.
    pub fn check(&mut self, what: &str, got: &[bool], want: &[bool]) -> bool {
        let mut want = want.to_vec();
        if std::mem::take(&mut self.corrupt_next) {
            want[0] = !want[0];
        }
        self.attempted += 1;
        let wrong = if got.len() == want.len() {
            got.iter().zip(&want).filter(|(g, w)| g != w).count()
        } else {
            got.len().max(want.len())
        };
        if wrong > 0 {
            self.failed += 1;
            self.wrong_bits += wrong as u64;
            println!("WRONG {what}: {wrong} of {} output bits differ from the oracle", want.len());
        }
        wrong == 0
    }

    /// Records an evaluation that produced no outputs at all.
    pub fn error(&mut self, what: &str, err: &dyn std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        self.errors += 1;
        println!("FAILED {what}: {err}");
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub gate: Gate,
}

impl Report {
    pub fn new(workload: Workload, traced: bool) -> Self {
        Report { workload, traced, metrics: Vec::new(), gate: Gate::default() }
    }

    /// Records a sampled metric; the reported value is the median.
    pub fn samples(&mut self, name: &str, unit: &str, samples: &[f64]) -> f64 {
        let summary = Summary::of(samples);
        self.push(name, unit, summary.median, summary)
    }

    /// Records a count or a derived value.
    pub fn value(&mut self, name: &str, unit: &str, value: f64) -> f64 {
        self.push(name, unit, value, Summary::of(&[value]))
    }

    fn push(&mut self, name: &str, unit: &str, value: f64, summary: Summary) -> f64 {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.metrics.push(Metric { name: name.into(), unit: unit.into(), value, summary });
        value
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metric, which the workload must have recorded by now.
    pub fn need(&self, name: &str) -> f64 {
        self.get(name).unwrap_or_else(|| panic!("metric {name} was not recorded"))
    }

    /// The lines of the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let s = m.summary;
            out.push_str(&format!(
                "metric {:<40} {:>16} {:<6} n={} min={} median={} max={}\n",
                m.name,
                fmt_value(m.value),
                m.unit,
                s.n,
                fmt_value(s.min),
                fmt_value(s.median),
                fmt_value(s.max)
            ));
        }
        out.push_str(&format!(
            "oracle: {} evaluations checked, {} failed, {} wrong output bits\n",
            self.gate.attempted, self.gate.failed, self.gate.wrong_bits
        ));
        out
    }

    /// The metrics the driver expects of this run: every end-to-end
    /// metric of an untraced run, every per-layer metric of a traced one.
    fn expected(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1)).collect()
        }
    }

    /// Expected metrics that were not recorded. A run that ends with
    /// some missing has failed, whatever else it measured.
    pub fn missing(&self) -> Vec<&'static str> {
        self.expected().into_iter().map(|m| m.0).filter(|name| self.get(name).is_none()).collect()
    }

    /// The driver's result line, holding the expected metrics that were
    /// recorded: all of them after a good run, fewer after a failed one
    /// (which says `"correct": false`).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .expected()
            .into_iter()
            .filter_map(|(name, unit)| {
                let m = self.metrics.iter().find(|m| m.name == name)?;
                assert_eq!(m.unit, unit, "{name}: unit differs from the spec");
                Some(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_f64(m.value)
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate.failed == 0,
            self.gate.attempted,
            self.gate.failed,
            metrics.join(", ")
        )
    }

    /// The full report as one JSON document: provenance, every metric
    /// with min / median / max and sample count, and the oracle tally.
    pub fn to_json(&self, provenance: &Provenance) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"n\": {}, \"min\": {}, \"median\": {}, \"max\": {}}}",
                    escape_json(&m.name),
                    escape_json(&m.unit),
                    json_f64(m.value),
                    m.summary.n,
                    json_f64(m.summary.min),
                    json_f64(m.summary.median),
                    json_f64(m.summary.max)
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"traced\": {},\n  \"provenance\": {},\n  \"evaluations\": {},\n  \"failed\": {},\n  \"wrong_outputs\": {},\n  \"metrics\": [\n{}\n  ]\n}}\n",
            self.workload.name(),
            self.traced,
            provenance.to_json(),
            self.gate.attempted,
            self.gate.failed,
            self.gate.wrong_bits,
            metrics.join(",\n")
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Where and how a run was taken: the fields the `results/BENCH_*.json`
/// files never recorded.
#[derive(Debug)]
pub struct Provenance(Vec<(&'static str, String)>);

impl Provenance {
    pub fn collect(seed: u64, seconds: f64, params: &str, workers: usize) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown".to_string(), |s| s.trim().to_string());
        let logical = cpuinfo.lines().filter(|l| l.starts_with("processor")).count();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let env: Vec<String> = std::env::vars()
            .filter(|(k, _)| k.starts_with("PYTFHE_"))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        Provenance(vec![
            ("cpu_model", cpu_model),
            ("logical_cores", logical.to_string()),
            ("nproc", nproc.to_string()),
            ("os", std::env::consts::OS.to_string()),
            ("arch", std::env::consts::ARCH.to_string()),
            ("git_revision", command_line("git", &["rev-parse", "HEAD"])),
            ("rustc", command_line("rustc", &["--version"])),
            ("simd_path", pytfhe_tfhe::simd::active_path().name().to_string()),
            ("transform", pytfhe_tfhe::ntt::active_transform().name().to_string()),
            ("params", params.to_string()),
            ("workers", workers.to_string()),
            ("pytfhe_env", env.join(" ")),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
        ])
    }

    pub fn render(&self) -> String {
        self.0.iter().map(|(k, v)| format!("provenance {k:<14} {v}\n")).collect()
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", escape_json(v))).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// First line of a command's output, or "unknown" (the driver's checkout
/// is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_trips_on_a_flipped_bit() {
        let mut gate = Gate::default();
        assert!(gate.check("same", &[true, false], &[true, false]));
        assert!(!gate.check("flipped", &[true, false], &[true, true]));
        assert!(!gate.check("short", &[true], &[true, true]));
        assert_eq!((gate.attempted, gate.failed, gate.wrong_bits), (3, 2, 3));
        // --corrupt-oracle: the next check fails although the outputs are right.
        let mut gate = Gate { corrupt_next: true, ..Gate::default() };
        assert!(!gate.check("corrupted", &[true, false], &[true, false]));
        assert!(gate.check("next", &[true, false], &[true, false]));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }

    #[test]
    fn result_line_holds_exactly_the_spec_metrics_and_is_json() {
        let mut r = Report::new(Workload::Chain, false);
        for (i, (name, unit, _, _)) in END_TO_END.iter().enumerate() {
            r.samples(name, unit, &[9.0, 2.5 + i as f64, 1.0]);
        }
        r.value("extra.metric", "count", 7.0);
        r.gate.check("ok", &[true], &[true]);
        let line = r.result_line();
        pytfhe_telemetry::json::validate(&line).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"eval_s\": {\"value\": 3.5, \"unit\": \"s\"}"));
        assert!(!line.contains("extra.metric"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());

        assert!(r.missing().is_empty());
    }

    #[test]
    fn a_failed_run_still_prints_its_result_line() {
        // A workload that returns early on a typed error has recorded no
        // metric: the line says so instead of panicking.
        let mut r = Report::new(Workload::Serve, false);
        r.gate.error("set-up of tenant 0", &"refused");
        assert_eq!(r.missing().len(), END_TO_END.len());
        let line = r.result_line();
        pytfhe_telemetry::json::validate(&line).unwrap();
        assert_eq!(line, "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}");

        // A traced run that recorded one per-layer metric lists that one.
        let mut r = Report::new(Workload::Compile, true);
        r.value("backend.waves", "count", 19.0);
        let line = r.result_line();
        pytfhe_telemetry::json::validate(&line).unwrap();
        assert_eq!(line.matches("\"value\"").count(), 1);
        assert!(line.contains("\"backend.waves\": {\"value\": 19.0, \"unit\": \"count\"}"));
        assert_eq!(r.missing().len(), PER_LAYER.len() - 1);
    }

    #[test]
    fn failed_evaluations_make_the_run_incorrect() {
        let mut r = Report::new(Workload::Compile, true);
        r.gate.error("job", &"refused");
        assert!(r
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }

    #[test]
    fn full_report_is_json_with_provenance_and_statistics() {
        let mut r = Report::new(Workload::Wide, false);
        r.samples("eval_s", "s", &[4.0, 4.2, 4.1]);
        let p = Provenance::collect(1, 12.0, "testing (insecure)", 2);
        let doc = r.to_json(&p);
        pytfhe_telemetry::json::validate(&doc).unwrap();
        for field in ["cpu_model", "git_revision", "rustc", "simd_path", "seed", "\"n\": 3"] {
            assert!(doc.contains(field), "{field} missing");
        }
        assert!(p.render().contains("provenance workers"));
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metric_names_are_a_bug() {
        let mut r = Report::new(Workload::Wide, false);
        r.value("a", "s", 1.0);
        r.value("a", "s", 2.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
