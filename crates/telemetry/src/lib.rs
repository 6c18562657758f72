//! **pytfhe-telemetry** — tracing, metrics, and profiling for the PyTFHE
//! pipeline.
//!
//! The paper's entire evaluation hangs on *where time goes*: Figure 7's
//! per-gate blind-rotation/key-switch split, Figures 8/9's launch and
//! transfer accounting, Figure 10's scaling curves. This crate is the
//! one observability layer behind all of it:
//!
//! * a low-overhead **span/event tracer** ([`span`], [`instant`],
//!   [`counter_sample`]) — thread-safe recorder, RAII span guards,
//!   monotonic timestamps. Instrumentation is compiled in everywhere but
//!   runtime-gated: with `PYTFHE_TRACE` unset the entire hot path is a
//!   single relaxed atomic load ([`enabled`]);
//! * a **metrics registry** ([`metrics`]) with counters, gauges, and
//!   fixed-bucket histograms (per-gate-kind bootstrap latency, wave
//!   width, retry counts, noise budget);
//! * **exporters** ([`export`]): Chrome `chrome://tracing` /
//!   `about:tracing` JSON, Prometheus text exposition, and a compact
//!   summary table.
//!
//! # Gating
//!
//! The recorder is off by default. Set `PYTFHE_TRACE=1` (or call
//! [`set_enabled`]`(true)` from a harness) to record. The first call to
//! [`enabled`] latches the environment variable into an atomic; every
//! later call is exactly one `Relaxed` load, so instrumented code costs
//! nothing measurable when tracing is off.
//!
//! # Example
//!
//! ```
//! use pytfhe_telemetry as telemetry;
//! telemetry::set_enabled(true);
//! {
//!     let _span = telemetry::span("demo", "outer work");
//!     telemetry::metrics().counter_add("demo_items_total", 3);
//! } // span records on drop
//! let trace = telemetry::export::chrome_trace(&telemetry::drain());
//! assert!(trace.contains("outer work"));
//! # telemetry::set_enabled(false);
//! ```
//!
//! Two time domains coexist: real spans stamp monotonic nanoseconds
//! since process start, while the performance simulators record
//! *virtual-time* spans ([`sim_span`]) whose timestamps are simulated
//! seconds — the Chrome exporter gives each simulated process its own
//! `pid`, so a simulated Figure 8/9 schedule renders in the same trace
//! viewer next to the real execution that produced it.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod export;
pub mod json;
mod metrics;
mod recorder;

pub use metrics::{metrics, Histogram, Metrics, MetricsSnapshot, SECONDS_BUCKETS};
pub use recorder::{
    counter_sample, drain, events, instant, instant_on_worker, sim_span, span, span_count,
    span_with, worker_span, Event, EventKind, Lane, Span,
};

/// Tri-state gate: 0 = not yet initialized from the environment.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);
const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Whether the recorder is on. This is the *only* cost instrumentation
/// pays when tracing is disabled: one relaxed atomic load (after the
/// first call latches `PYTFHE_TRACE`).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Cold path of [`enabled`]: latch `PYTFHE_TRACE` into the atomic.
#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("PYTFHE_TRACE").is_ok_and(|v| {
        let v = v.trim();
        !(v.is_empty()
            || v == "0"
            || v.eq_ignore_ascii_case("false")
            || v.eq_ignore_ascii_case("off"))
    });
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Turns the recorder on or off, overriding `PYTFHE_TRACE` (harnesses
/// and tests; production code should let the environment decide).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// The process epoch all real-time spans are measured from.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first telemetry call of the process.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sequential ids handed to threads on their first recording.
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_LANE: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

/// This thread's stable lane id (assigned on first use, in call order —
/// the main thread is almost always 0).
pub fn thread_lane() -> u32 {
    THREAD_LANE.with(|c| {
        let mut id = c.get();
        if id == u32::MAX {
            id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(id);
        }
        id
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn thread_lanes_are_stable_and_distinct() {
        let here = thread_lane();
        assert_eq!(here, thread_lane(), "lane id must be stable per thread");
        let other = std::thread::spawn(thread_lane).join().unwrap();
        assert_ne!(here, other, "distinct threads get distinct lanes");
    }

    #[test]
    fn set_enabled_overrides() {
        // Other tests in this binary also toggle the global gate; this
        // only checks that the override round-trips.
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }
}
