//! Chrome trace-event JSON exporter.
//!
//! Produces the `{"traceEvents": [...]}` object format understood by
//! `chrome://tracing`, `about:tracing`, and <https://ui.perfetto.dev>.
//! Real events live under pid 1 (`pytfhe`), one tid per OS thread.
//! Each simulated process ([`Lane::Sim`]) gets its own pid starting at
//! [`SIM_PID_BASE`], so virtual Fig. 8/9 schedules render alongside the
//! real execution without their (virtual) timestamps colliding.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use super::{escape_json, json_f64};
use crate::{Event, EventKind, Lane};

/// pid of the real process in the exported trace.
pub const REAL_PID: u32 = 1;
/// First pid handed to simulated processes.
pub const SIM_PID_BASE: u32 = 2;

/// Renders events as a Chrome trace-event JSON document.
pub fn chrome_trace(events: &[Event]) -> String {
    // Assign pids to simulated processes and tids to their lanes, in
    // first-appearance order so output is deterministic for a given
    // event sequence.
    let mut sim_pids: BTreeMap<&'static str, u32> = BTreeMap::new();
    let mut sim_tids: BTreeMap<(u32, String), u32> = BTreeMap::new();
    let mut threads_seen: BTreeMap<u32, ()> = BTreeMap::new();
    for e in events {
        match &e.lane {
            Lane::Thread(t) => {
                threads_seen.insert(*t, ());
            }
            Lane::Sim { process, lane } => {
                let next_pid = SIM_PID_BASE + sim_pids.len() as u32;
                let pid = *sim_pids.entry(process).or_insert(next_pid);
                let next_tid = sim_tids.iter().filter(|((p, _), _)| *p == pid).count() as u32;
                sim_tids.entry((pid, lane.clone())).or_insert(next_tid);
            }
        }
    }

    let mut entries: Vec<String> = Vec::with_capacity(events.len() + 8);

    // Metadata: process and thread names.
    entries.push(meta_process(REAL_PID, "pytfhe"));
    for (&t, ()) in &threads_seen {
        entries.push(meta_thread(REAL_PID, t, &format!("thread {t}")));
    }
    for (process, &pid) in &sim_pids {
        entries.push(meta_process(pid, &format!("{process} (virtual time)")));
    }
    for ((pid, lane), &tid) in &sim_tids {
        entries.push(meta_thread(*pid, tid, lane));
    }

    for e in events {
        let (pid, tid) = match &e.lane {
            Lane::Thread(t) => (REAL_PID, *t),
            Lane::Sim { process, lane } => {
                let pid = sim_pids[process];
                (pid, sim_tids[&(pid, lane.clone())])
            }
        };
        let ts_us = json_f64(e.ts_ns as f64 / 1000.0);
        let name = escape_json(&e.name);
        let cat = escape_json(e.cat);
        entries.push(match e.kind {
            EventKind::Span { dur_ns } => format!(
                "{{\"ph\":\"X\",\"name\":\"{name}\",\"cat\":\"{cat}\",\
                 \"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\"dur\":{dur}}}",
                dur = json_f64(dur_ns as f64 / 1000.0),
            ),
            EventKind::Instant => format!(
                "{{\"ph\":\"i\",\"name\":\"{name}\",\"cat\":\"{cat}\",\
                 \"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\"s\":\"t\"}}"
            ),
            EventKind::Counter { value } => format!(
                "{{\"ph\":\"C\",\"name\":\"{name}\",\"cat\":\"{cat}\",\
                 \"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\
                 \"args\":{{\"value\":{v}}}}}",
                v = json_f64(value),
            ),
        });
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn meta_process(pid: u32, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(name)
    )
}

fn meta_thread(pid: u32, tid: u32, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(name)
    )
}

/// Renders `events` with [`chrome_trace`] and writes the document to
/// `path`, creating parent directories as needed.
pub fn write_chrome_trace(path: impl AsRef<Path>, events: &[Event]) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(chrome_trace(events).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                kind: EventKind::Span { dur_ns: 2_500 },
                cat: "exec",
                name: "wave 0".into(),
                lane: Lane::Thread(0),
                ts_ns: 1_000,
            },
            Event {
                kind: EventKind::Span { dur_ns: 1_000 },
                cat: "exec",
                name: "chunk".into(),
                lane: Lane::Thread(2),
                ts_ns: 1_500,
            },
            Event {
                kind: EventKind::Instant,
                cat: "exec",
                name: "retry gate=7 \"quoted\"".into(),
                lane: Lane::Thread(2),
                ts_ns: 2_000,
            },
            Event {
                kind: EventKind::Counter { value: 3.0 },
                cat: "exec",
                name: "queue_depth".into(),
                lane: Lane::Thread(0),
                ts_ns: 2_100,
            },
            Event {
                kind: EventKind::Span { dur_ns: 500_000_000 },
                cat: "sim",
                name: "wave 1".into(),
                lane: Lane::Sim { process: "cluster-sim", lane: "node0/core3".into() },
                ts_ns: 0,
            },
        ]
    }

    #[test]
    fn output_is_valid_json() {
        let doc = chrome_trace(&sample_events());
        json::validate(&doc).expect("chrome trace must be valid JSON");
    }

    #[test]
    fn lanes_map_to_pids_and_tids() {
        let doc = chrome_trace(&sample_events());
        // Thread 2 → tid 2 under the real pid, named after its thread.
        assert!(doc.contains("\"pid\":1,\"tid\":2,\"args\":{\"name\":\"thread 2\"}"));
        // Sim process gets its own pid with a named lane.
        assert!(doc.contains("cluster-sim (virtual time)"));
        assert!(doc.contains("node0/core3"));
        // Metadata names present.
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("\"thread_name\""));
        // Phases all present.
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"ph\":\"C\""));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let doc = chrome_trace(&sample_events());
        // 1_000 ns start → 1 µs; 2_500 ns dur → 2.5 µs.
        assert!(doc.contains("\"ts\":1.0,\"dur\":2.5"), "doc: {doc}");
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let doc = chrome_trace(&[]);
        json::validate(&doc).expect("empty trace must be valid JSON");
        assert!(doc.contains("traceEvents"));
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir =
            std::env::temp_dir().join(format!("pytfhe-telemetry-test-{}", std::process::id()));
        let path = dir.join("nested").join("trace.json");
        write_chrome_trace(&path, &sample_events()).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        json::validate(&body).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
