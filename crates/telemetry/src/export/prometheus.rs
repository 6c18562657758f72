//! Prometheus text exposition (version 0.0.4) exporter for the
//! metrics registry.

use crate::MetricsSnapshot;

/// Renders a snapshot in Prometheus text exposition format. Histograms
/// expand to `_bucket{le=...}` / `_sum` / `_count` series; labels
/// already carried in a metric name (e.g.
/// `tfhe_blind_rotate_seconds{gate="nand"}`) are preserved and the `le`
/// label is spliced into the existing set.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let base = base_name(name);
        out.push_str(&format!("# TYPE {base} counter\n{name} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let base = base_name(name);
        out.push_str(&format!("# TYPE {base} gauge\n{name} {}\n", fmt_value(*value)));
    }
    for (name, hist) in &snapshot.histograms {
        let base = base_name(name);
        out.push_str(&format!("# TYPE {base} histogram\n"));
        for (upper, cumulative) in hist.cumulative_buckets() {
            out.push_str(&format!("{} {cumulative}\n", with_label(name, "le", &fmt_value(upper))));
        }
        out.push_str(&format!("{} {}\n", with_label(name, "le", "+Inf"), hist.count()));
        out.push_str(&format!("{} {}\n", suffixed(name, "_sum"), fmt_value(hist.sum())));
        out.push_str(&format!("{} {}\n", suffixed(name, "_count"), hist.count()));
    }
    out
}

/// Metric name with any `{...}` label set stripped.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Appends `_bucket` (or `_sum`/`_count`) before any label set.
fn suffixed(name: &str, suffix: &str) -> String {
    match name.split_once('{') {
        Some((base, labels)) => format!("{base}{suffix}{{{labels}"),
        None => format!("{name}{suffix}"),
    }
}

/// `name_bucket{...existing...,key="value"}`.
fn with_label(name: &str, key: &str, value: &str) -> String {
    match name.split_once('{') {
        Some((base, labels)) => {
            let labels = labels.trim_end_matches('}');
            format!("{base}_bucket{{{labels},{key}=\"{value}\"}}")
        }
        None => format!("{name}_bucket{{{key}=\"{value}\"}}"),
    }
}

fn fmt_value(v: f64) -> String {
    // f64 Display never prints exponents or locale separators, which is
    // exactly the exposition-format number syntax.
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    #[test]
    fn counters_and_gauges_expose() {
        let m = Metrics::default();
        m.counter_add("exec_gates_total", 64);
        m.gauge_set("tfhe_noise_budget_bits", 12.5);
        let text = prometheus_text(&m.snapshot());
        assert!(text.contains("# TYPE exec_gates_total counter"));
        assert!(text.contains("exec_gates_total 64"));
        assert!(text.contains("# TYPE tfhe_noise_budget_bits gauge"));
        assert!(text.contains("tfhe_noise_budget_bits 12.5"));
    }

    #[test]
    fn histogram_expands_with_le_buckets() {
        let m = Metrics::default();
        m.observe("lat_seconds", 0.5, &[1.0, 2.0]);
        m.observe("lat_seconds", 5.0, &[1.0, 2.0]);
        let text = prometheus_text(&m.snapshot());
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"2\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_sum 5.5"));
        assert!(text.contains("lat_seconds_count 2"));
    }

    #[test]
    fn labelled_name_splices_le() {
        let m = Metrics::default();
        m.observe("boot_seconds{gate=\"nand\"}", 0.01, &[0.1]);
        let text = prometheus_text(&m.snapshot());
        assert!(text.contains("# TYPE boot_seconds histogram"));
        assert!(text.contains("boot_seconds_bucket{gate=\"nand\",le=\"0.1\"} 1"), "text: {text}");
        assert!(text.contains("boot_seconds_sum{gate=\"nand\"} 0.01"));
        assert!(text.contains("boot_seconds_count{gate=\"nand\"} 1"));
    }
}
