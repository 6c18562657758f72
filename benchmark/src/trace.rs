//! The traced pass: spans opened by the benchmark around each public call
//! it makes, kept in memory by `pytfhe-telemetry` and written as one
//! Chrome trace per workload when the pass ends. Spans inside the crates
//! are recorded by the crates themselves and land in the same file.
//!
//! A traced run turns the recorder on before its set-up pass, so set-up
//! spans are recorded too, and then switches it off and on around
//! alternating evaluations: the untraced ones are the baseline of
//! `telemetry.trace_overhead_pct`.

use crate::report::Report;
use pytfhe_telemetry::{self as telemetry, Event, EventKind, Span};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Category of the benchmark's own spans.
const CAT: &str = "bench";

/// Opens the span `<kind> #<id>`; all spans of one set-up pass,
/// evaluation or job share `id`. Inert (one atomic load) while the
/// recorder is off.
pub fn span(kind: &str, id: u64) -> Span {
    telemetry::span_with(CAT, || format!("{kind} #{id}"))
}

/// Directory for the run's artifacts: `benchmark/out`.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

/// Starts a traced run: clears the metrics registry and turns the
/// recorder on.
pub fn start() {
    telemetry::metrics().reset();
    telemetry::set_enabled(true);
}

/// Switches the recorder on or off between evaluations. A span records
/// if the recorder was on when it was opened.
pub fn set_recording(on: bool) {
    telemetry::set_enabled(on);
}

/// Per-kind span statistics of a traced pass.
#[derive(Debug, Default)]
pub struct SpanTimes {
    /// Durations in seconds by span kind, one per occurrence.
    pub by_kind: BTreeMap<String, Vec<f64>>,
    /// Self time of each `eval` span: its duration minus the part of it
    /// that the benchmark's other spans of the same id cover.
    pub eval_self_s: Vec<f64>,
    /// All events recorded, the crates' own included.
    pub events: usize,
}

/// Total length of the union of `[start, end)` intervals, in the units
/// of the input.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Groups the benchmark's spans by kind and computes `eval` self times.
pub fn span_times(events: &[Event]) -> SpanTimes {
    let mut times = SpanTimes { events: events.len(), ..SpanTimes::default() };
    let mut evals: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.cat == CAT) {
        let EventKind::Span { dur_ns } = e.kind else { continue };
        let Some((kind, id)) = e.name.split_once(" #") else { continue };
        let Ok(id) = id.parse::<u64>() else { continue };
        times.by_kind.entry(kind.to_string()).or_default().push(dur_ns as f64 * 1e-9);
        let interval = (e.ts_ns, e.ts_ns + dur_ns);
        if kind == "eval" {
            evals.insert(id, interval);
        } else {
            children.entry(id).or_default().push(interval);
        }
    }
    times.eval_self_s = evals
        .iter()
        .map(|(id, &(start, end))| {
            // Children nest (`execute` holds `submit` and `fetch`), so the
            // union of their intervals, clipped to the parent, is what
            // they cover.
            let inside = children.get(id).map_or_else(Vec::new, |c| {
                c.iter().map(|&(s, e)| (s.max(start), e.min(end))).collect()
            });
            (end - start).saturating_sub(covered(inside)) as f64 * 1e-9
        })
        .collect();
    times
}

/// Ends the traced pass: switches the recorder off, drains it, writes
/// `benchmark/out/trace-<workload>.json` with the Chrome-trace exporter
/// and records the `trace.*` metrics. A trace that cannot be written, or
/// that lacks the spans every workload opens, fails the run.
pub fn finish(report: &mut Report) {
    telemetry::set_enabled(false);
    let events = telemetry::drain();
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", report.workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| telemetry::export::write_chrome_trace(&path, &events));
    if let Err(e) = written {
        report.gate.error("trace export", &e);
    }
    let times = span_times(&events);
    for kind in ["setup", "eval", "execute"] {
        match times.by_kind.get(kind) {
            Some(durations) => {
                report.samples(&format!("trace.{kind}_s"), "s", durations);
            }
            None => report.gate.error("traced pass", &format!("no `{kind}` span was recorded")),
        }
    }
    if !times.eval_self_s.is_empty() {
        report.samples("trace.eval_self_s", "s", &times.eval_self_s);
    }
    report.value("trace.spans", "count", times.events as f64);
    let kinds: Vec<String> =
        times.by_kind.iter().map(|(kind, d)| format!("{kind} x{}", d.len())).collect();
    println!("trace: {} ({})", path.display(), kinds.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_telemetry::Lane;

    fn ev(name: &str, cat: &'static str, ts_ns: u64, dur_ns: u64) -> Event {
        Event {
            kind: EventKind::Span { dur_ns },
            cat,
            name: name.to_string(),
            lane: Lane::Thread(0),
            ts_ns,
        }
    }

    #[test]
    fn union_of_intervals_counts_overlaps_once() {
        assert_eq!(covered(vec![]), 0);
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(covered(vec![(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        const MS: u64 = 1_000_000;
        let events = [
            ev("encrypt #1", CAT, 0, 100 * MS),
            // `execute` holds `submit` and `fetch`: counted once.
            ev("submit #1", CAT, 100 * MS, 50 * MS),
            ev("fetch #1", CAT, 150 * MS, 650 * MS),
            ev("execute #1", CAT, 100 * MS, 700 * MS),
            ev("eval #1", CAT, 0, 1000 * MS),
            ev("execute #2", CAT, 2000 * MS, 500 * MS),
            ev("eval #2", CAT, 2000 * MS, 500 * MS),
            ev("execute_graph: 96 gates", "session", 100 * MS, 650 * MS),
        ];
        let t = span_times(&events);
        assert_eq!(t.events, 8);
        assert_eq!(t.by_kind["execute"].len(), 2);
        assert!((t.by_kind["execute"][0] - 0.7).abs() < 1e-9);
        assert!((t.eval_self_s[0] - 0.2).abs() < 1e-9);
        assert_eq!(t.eval_self_s[1], 0.0);
    }
}
