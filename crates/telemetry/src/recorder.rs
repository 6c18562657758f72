//! The global event recorder: spans, instants, and counter samples.
//!
//! All recording free functions ([`span`], [`instant`], …) check
//! [`crate::enabled`] first and are no-ops when tracing is off, so call
//! sites never need their own gate for correctness — only to skip the
//! cost of *preparing* arguments (e.g. `format!` names, extra `Instant`
//! reads) on hot paths.

use std::sync::Mutex;

use crate::{enabled, now_ns, thread_lane};

/// Where an event is drawn in the trace viewer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lane {
    /// An OS thread, identified by its stable [`thread_lane`] id.
    Thread(u32),
    /// A virtual lane inside a simulated process; timestamps on such
    /// events are *simulated* nanoseconds, not wall clock.
    Sim {
        /// Simulated process name (e.g. `"cluster-sim"`, `"gpu-sim"`).
        process: &'static str,
        /// Lane label within the process (e.g. `"node0/core3"`).
        lane: String,
    },
}

/// What kind of event was recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A duration: `[ts_ns, ts_ns + dur_ns)`.
    Span {
        /// Length of the span in nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time marker (retry, eviction, checkpoint, …).
    Instant,
    /// A sampled counter value (queue depth, wave width, …).
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span / instant / counter payload.
    pub kind: EventKind,
    /// Category: the subsystem that emitted it (`"session"`, `"exec"`,
    /// `"graph"`, `"tfhe"`, `"sim"`).
    pub cat: &'static str,
    /// Human-readable name shown in the viewer.
    pub name: String,
    /// Which lane the event belongs to.
    pub lane: Lane,
    /// Start time in nanoseconds (monotonic since process start for
    /// real lanes, simulated time for [`Lane::Sim`]).
    pub ts_ns: u64,
}

static RECORDER: Mutex<Vec<Event>> = Mutex::new(Vec::new());

fn push(event: Event) {
    RECORDER.lock().expect("telemetry recorder poisoned").push(event);
}

/// RAII span guard: records a [`EventKind::Span`] covering its
/// lifetime when dropped. Obtained from [`span`] / [`span_with`]; a
/// guard created while tracing is disabled is inert (and records
/// nothing even if tracing is enabled before it drops).
#[must_use = "a span records on drop; binding it to `_` ends it immediately"]
#[derive(Debug)]
pub struct Span(Option<SpanInner>);

#[derive(Debug)]
struct SpanInner {
    cat: &'static str,
    name: String,
    lane: Lane,
    start_ns: u64,
}

impl Span {
    /// An inert span that records nothing (the disabled path).
    pub const fn disabled() -> Self {
        Span(None)
    }

    /// Ends the span now (explicit alternative to letting it drop).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let end_ns = now_ns();
            push(Event {
                kind: EventKind::Span { dur_ns: end_ns.saturating_sub(inner.start_ns) },
                cat: inner.cat,
                name: inner.name,
                lane: inner.lane,
                ts_ns: inner.start_ns,
            });
        }
    }
}

/// Starts a span on the current thread's lane.
pub fn span(cat: &'static str, name: impl Into<String>) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    Span(Some(SpanInner {
        cat,
        name: name.into(),
        lane: Lane::Thread(thread_lane()),
        start_ns: now_ns(),
    }))
}

/// Like [`span`], but the name closure only runs when tracing is
/// enabled — use on hot paths where building the name (`format!`)
/// would otherwise cost even while disabled.
pub fn span_with(cat: &'static str, name: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    span(cat, name())
}

/// Records a point-in-time marker on the current thread's lane.
pub fn instant(cat: &'static str, name: impl Into<String>) {
    if !enabled() {
        return;
    }
    push(Event {
        kind: EventKind::Instant,
        cat,
        name: name.into(),
        lane: Lane::Thread(thread_lane()),
        ts_ns: now_ns(),
    });
}

/// Samples a counter series (rendered as a stacked area chart by the
/// Chrome viewer).
pub fn counter_sample(cat: &'static str, name: impl Into<String>, value: f64) {
    if !enabled() {
        return;
    }
    push(Event {
        kind: EventKind::Counter { value },
        cat,
        name: name.into(),
        lane: Lane::Thread(thread_lane()),
        ts_ns: now_ns(),
    });
}

/// Records a *virtual-time* span from a simulator: `start_s..end_s`
/// are simulated seconds, drawn under their own process in the viewer.
pub fn sim_span(
    process: &'static str,
    lane: impl Into<String>,
    name: impl Into<String>,
    start_s: f64,
    end_s: f64,
) {
    if !enabled() {
        return;
    }
    let start_ns = (start_s.max(0.0) * 1e9) as u64;
    let end_ns = (end_s.max(0.0) * 1e9) as u64;
    push(Event {
        kind: EventKind::Span { dur_ns: end_ns.saturating_sub(start_ns) },
        cat: "sim",
        name: name.into(),
        lane: Lane::Sim { process, lane: lane.into() },
        ts_ns: start_ns,
    });
}

/// Takes all recorded events out of the recorder, leaving it empty.
pub fn drain() -> Vec<Event> {
    std::mem::take(&mut *RECORDER.lock().expect("telemetry recorder poisoned"))
}

/// A snapshot of all recorded events (the recorder keeps them).
pub fn events() -> Vec<Event> {
    RECORDER.lock().expect("telemetry recorder poisoned").clone()
}

/// Number of `Span` events currently in the recorder — the overhead
/// gate the integration tests assert on (must be 0 when disabled).
pub fn span_count() -> usize {
    RECORDER
        .lock()
        .expect("telemetry recorder poisoned")
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;
    use std::sync::{Mutex, MutexGuard};

    /// Tests in this binary mutate the global gate + recorder; hold
    /// this while doing so.
    static GATE: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        set_enabled(false);
        drain();
        {
            let _s = span("test", "invisible");
            instant("test", "invisible");
            counter_sample("test", "invisible", 1.0);
            sim_span("simproc", "lane", "invisible", 0.0, 1.0);
        }
        assert_eq!(events().len(), 0);
        assert_eq!(span_count(), 0);
    }

    #[test]
    fn span_records_on_drop_with_duration() {
        let _g = lock();
        set_enabled(true);
        drain();
        {
            let _s = span("test", "work");
            std::hint::black_box(0u64);
        }
        set_enabled(false);
        let evts = drain();
        assert_eq!(evts.len(), 1);
        let e = &evts[0];
        assert_eq!(e.name, "work");
        assert_eq!(e.cat, "test");
        assert!(matches!(e.kind, EventKind::Span { .. }));
        assert!(matches!(e.lane, Lane::Thread(_)));
    }

    #[test]
    fn instant_and_sim_lanes_round_trip() {
        let _g = lock();
        set_enabled(true);
        drain();
        span("exec", "chunk").end();
        instant("exec", "retry");
        sim_span("cluster-sim", "node0/core1", "wave 0", 0.5, 1.25);
        set_enabled(false);
        let evts = drain();
        assert_eq!(evts.len(), 3);
        assert_eq!(evts[0].lane, Lane::Thread(thread_lane()));
        assert_eq!((&evts[1].kind, &evts[1].lane), (&EventKind::Instant, &evts[0].lane));
        let Lane::Sim { process, lane } = &evts[2].lane else {
            panic!("expected sim lane, got {:?}", evts[2].lane);
        };
        assert_eq!(*process, "cluster-sim");
        assert_eq!(lane, "node0/core1");
        assert_eq!(evts[2].ts_ns, 500_000_000);
        assert_eq!(evts[2].kind, EventKind::Span { dur_ns: 750_000_000 });
    }

    #[test]
    fn counter_samples_record_values() {
        let _g = lock();
        set_enabled(true);
        drain();
        counter_sample("exec", "wave_width", 17.0);
        set_enabled(false);
        let evts = drain();
        assert_eq!(evts.len(), 1);
        assert_eq!(evts[0].kind, EventKind::Counter { value: 17.0 });
    }

    #[test]
    fn recorder_is_thread_safe() {
        let _g = lock();
        set_enabled(true);
        drain();
        std::thread::scope(|s| {
            for w in 0..4u32 {
                s.spawn(move || {
                    for i in 0..8 {
                        span("exec", format!("w{w} item {i}")).end();
                    }
                });
            }
        });
        set_enabled(false);
        assert_eq!(drain().len(), 32);
    }
}
