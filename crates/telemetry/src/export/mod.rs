//! Exporters: Chrome trace JSON, Prometheus text exposition, and a
//! compact summary table.

mod chrome;
mod prometheus;
mod summary;

pub use chrome::{chrome_trace, write_chrome_trace};
pub use prometheus::prometheus_text;
pub use summary::summary_table;

/// Escapes a string for inclusion in a JSON string literal.
///
/// Public because downstream emitters (e.g. the bench harness's
/// `BENCH_*.json` writer) reuse it to stay serde-free.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` so it is valid JSON (no `inf`/`NaN` literals) and
/// round-trips cleanly.
///
/// Public for the same reason as [`escape_json`].
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on an f64 never prints exponents for typical magnitudes,
        // but guarantee a JSON number shape either way.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else if v.is_nan() {
        "0.0".to_string()
    } else if v > 0.0 {
        "1e308".to_string()
    } else {
        "-1e308".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_f64_is_always_a_number() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
        assert_eq!(json_f64(f64::NEG_INFINITY), "-1e308");
    }
}
