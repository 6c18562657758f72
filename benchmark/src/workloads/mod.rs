//! The four workloads. Each fills in the run's [`crate::report::Report`]:
//! the end-to-end metrics in an untraced run, the `trace.*` metrics in a
//! traced one. All of them have the same shape — set-up passes, one
//! warm-up unit, then timed units — so the loops live here.

pub mod compile;
pub mod graph;
pub mod serve;

use crate::{trace, Ctx};
use std::time::Instant;

/// Wall seconds of `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Set-up passes of an untraced run; the reported `setup_s` is their
/// median. A traced run sets up once, with the recorder on.
pub fn setup_passes(traced: bool) -> usize {
    if traced {
        1
    } else {
        3
    }
}

/// Untraced / traced pairs of units in a traced run.
const TRACED_PAIRS: u64 = 2;

/// The measured phase of an untraced run: calls `unit(ctx, id)` until
/// `--seconds` have passed and `floor` units are done, always finishing
/// the unit in flight. Stops early when a unit fails.
pub fn measure(ctx: &mut Ctx, floor: usize, mut unit: impl FnMut(&mut Ctx, u64) -> bool) {
    let phase = Instant::now();
    let mut done = 0;
    while done < floor || phase.elapsed().as_secs_f64() < ctx.seconds {
        done += 1;
        if !unit(ctx, done as u64) {
            return;
        }
    }
}

/// The measured phase of a traced run: `TRACED_PAIRS` times one unit
/// with the recorder off and one with it on, alternating so that host
/// drift hits both sides alike. `unit(ctx, id, traced)`.
pub fn alternate(ctx: &mut Ctx, mut unit: impl FnMut(&mut Ctx, u64, bool) -> bool) {
    for id in 1..=2 * TRACED_PAIRS {
        let traced = id % 2 == 0;
        trace::set_recording(traced);
        let ok = unit(ctx, id, traced);
        trace::set_recording(false);
        if !ok {
            return;
        }
    }
}

/// Records what the two sides of [`alternate`] took and the overhead of
/// tracing they imply.
pub fn record_overhead(ctx: &mut Ctx, untraced_s: &[f64], traced_s: &[f64]) {
    if untraced_s.is_empty() || traced_s.is_empty() {
        return;
    }
    let r = &mut ctx.report;
    let untraced = r.samples("trace.untraced_eval_s", "s", untraced_s);
    let traced = crate::stats::median(traced_s);
    r.value("telemetry.trace_overhead_pct", "%", 100.0 * (traced / untraced - 1.0));
}
