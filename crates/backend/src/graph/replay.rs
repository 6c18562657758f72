//! Plan replay: executes a captured [`KernelPlan`] against fresh inputs
//! with preallocated per-lane buffers — the execute-many half of the
//! kernel-graph backend.
//!
//! All value and scratch storage lives in [`ReplayLanes`], which is
//! created once and reused across replays. After the first (warming)
//! replay, the hot path performs **zero per-gate buffer allocations**:
//! gate results are staged into a reusable arena by the engine's
//! `*_into` kernels and scattered back by pointer swaps. (Small
//! per-kernel-launch bookkeeping, like the operand-pointer list handed
//! to [`GateEngine::eval_batch`], still comes from the ordinary heap.)
//!
//! [`run_wave`] is the crate's one wave walker — the only code that
//! turns a wave of ready nodes into [`WorkerPool`] jobs. Wide waves
//! dispatch onto the shared pool: every group of the wave is split into
//! per-lane chunks and all chunks are submitted as one run, so lanes
//! steal across group boundaries — one fat AND group no longer idles the
//! workers that finished their XORs. Narrow waves (below
//! [`GateEngine::parallel_grain`]) run inline with a single scratch, and
//! scratch buffers are only allocated for the lanes a replay actually
//! engages.

use crate::engine::GateEngine;
use crate::error::ExecError;
use crate::exec::{ExecStats, PARALLEL_WAVE_MIN};
use crate::graph::plan::{KernelPlan, LutTask, WavePlan};
use crate::pool::{Job, SlotCells, WorkerPool};
use pytfhe_netlist::{GateKind, LutSpec};
use pytfhe_telemetry as telemetry;
use std::time::Instant;

/// Reusable replay storage: the value arena (one slot per netlist
/// node), the wave staging arena, and scratch buffers for the worker
/// lanes a replay engages (grown lazily: serial replays hold one
/// scratch; a parallel dispatch grows to the lane count, never past
/// it — large-key scratch memory is never allocated unused).
#[derive(Debug)]
pub struct ReplayLanes<E: GateEngine> {
    values: Vec<E::Value>,
    stage: Vec<E::Value>,
    scratches: Vec<E::Scratch>,
    workers: usize,
}

impl<E: GateEngine> ReplayLanes<E> {
    /// Creates empty lanes for `workers` parallel lanes (clamped to at
    /// least 1). Buffers grow on first use and persist across replays.
    pub fn new(engine: &E, workers: usize) -> Self {
        let _ = engine;
        ReplayLanes {
            values: Vec::new(),
            stage: Vec::new(),
            scratches: Vec::new(),
            workers: workers.max(1),
        }
    }

    /// Lanes sized to the global pool's width — the right default when
    /// the caller has no explicit worker count.
    pub fn auto(engine: &E) -> Self {
        ReplayLanes::new(engine, WorkerPool::global().width())
    }

    /// Worker lanes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Scratch buffers allocated so far (grows with the widest dispatch
    /// actually executed, bounded by [`ReplayLanes::workers`]).
    pub fn allocated_scratches(&self) -> usize {
        self.scratches.len()
    }

    /// Grows the arenas to fit `plan` (no-op once warmed up).
    fn warm(&mut self, engine: &E, plan: &KernelPlan) {
        if self.values.len() < plan.num_nodes {
            self.values.resize_with(plan.num_nodes, || engine.constant(false));
        }
        // The whole wave is staged before any result scatters back, so
        // the stage arena spans the widest wave, not just the widest
        // group.
        let stage_len = plan.max_wave_len();
        if self.stage.len() < stage_len {
            self.stage.resize_with(stage_len, || engine.constant(false));
        }
    }

    /// Ensures at least `n` scratch buffers exist.
    fn ensure_scratches(&mut self, engine: &E, n: usize) {
        while self.scratches.len() < n {
            self.scratches.push(engine.scratch());
        }
    }
}

/// Replays `plan` on `inputs`, reusing `lanes` for all storage.
///
/// Bit-exact with [`crate::execute`] on the captured netlist: batching
/// regroups independent gates but every gate still runs the identical
/// kernel on identical operands, and chunk boundaries never change
/// per-gate arithmetic — outputs are identical at every worker count.
/// The returned [`ExecStats`] carry the replay's counters with
/// `replay_s == wall_s`; callers that also captured add their own
/// `capture_s` / `plan_cached` and publish via
/// [`ExecStats::record_metrics`].
///
/// # Errors
///
/// Returns [`ExecError::InputCountMismatch`] on arity mismatch and
/// [`ExecError::WorkerPanicked`] when a parallel lane dies.
pub fn replay<E: GateEngine>(
    engine: &E,
    plan: &KernelPlan,
    inputs: &[E::Value],
    lanes: &mut ReplayLanes<E>,
) -> Result<(Vec<E::Value>, ExecStats), ExecError> {
    if inputs.len() != plan.inputs.len() {
        return Err(ExecError::InputCountMismatch {
            expected: plan.inputs.len(),
            got: inputs.len(),
        });
    }
    let start = Instant::now();
    lanes.warm(engine, plan);
    let mut stats = ExecStats::new(plan.num_gates(), plan.num_luts(), plan.bootstraps());
    let msg_precision = (plan.message_precision > 0).then_some(plan.message_precision);
    for (&slot, input) in plan.inputs.iter().zip(inputs) {
        lanes.values[slot as usize].clone_from(input);
    }
    for (batch_idx, batch) in plan.batches.iter().enumerate() {
        stats.batches += 1;
        let _batch_span = telemetry::span_with("graph", || {
            format!("batch {batch_idx}: {} waves", batch.waves.len())
        });
        for wave in &batch.waves {
            run_wave(engine, wave, msg_precision, lanes, &mut stats)?;
            stats.waves += 1;
        }
    }
    let outputs = plan.outputs.iter().map(|&s| lanes.values[s as usize].clone()).collect();
    stats.replay_s = start.elapsed().as_secs_f64();
    stats.wall_s = stats.replay_s;
    Ok((outputs, stats))
}

/// The four operand references of a LUT task (unused slots alias the
/// first, mirroring the netlist's padding).
fn lut_refs<'v, V>(values: &'v [V], t: &LutTask) -> [&'v V; 4] {
    [
        &values[t.ins[0] as usize],
        &values[t.ins[1] as usize],
        &values[t.ins[2] as usize],
        &values[t.ins[3] as usize],
    ]
}

/// Executes one wave: every group's results are staged (the wave's other
/// groups may still read any slot), then swapped into the value arena.
/// Wide waves split each group into per-lane chunks and run all chunks
/// of all groups as a single pool dispatch with intra-wave stealing;
/// narrow waves run inline on one scratch.
///
/// When the plan carries a message precision (LUT-lowered netlists),
/// constant gate groups are filled via [`GateEngine::constant_message`]
/// so constants land on the same encoding the packed LUT windows
/// expect. Bootstrapping LUT groups dispatch through
/// [`GateEngine::eval_lut_batch`]; affine groups (width-1 tables) run
/// linearly through [`GateEngine::eval_lut_into`].
fn run_wave<E: GateEngine>(
    engine: &E,
    wave: &WavePlan,
    msg_precision: Option<u8>,
    lanes: &mut ReplayLanes<E>,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    let total = wave.num_tasks();
    if total == 0 {
        return Ok(());
    }
    let _wave_span =
        telemetry::span_with("exec", || format!("wave {}: {total} gates", stats.waves));
    telemetry::counter_sample("exec", "wave_width", total as f64);
    let workers = lanes.workers;
    let grain = engine.parallel_grain().max(PARALLEL_WAVE_MIN);
    if workers == 1 || total < grain {
        lanes.ensure_scratches(engine, 1);
        let values = &lanes.values;
        let mut staged = 0;
        for group in &wave.groups {
            let stage = &mut lanes.stage[staged..staged + group.tasks.len()];
            staged += group.tasks.len();
            if let Some(p) = msg_precision.filter(|_| group.kind.is_const()) {
                let bit = group.kind == GateKind::Const1;
                for out in stage.iter_mut() {
                    *out = engine.constant_message(bit, p);
                }
                record_launches(stats, group.kind, 1);
                continue;
            }
            let pairs: Vec<(&E::Value, &E::Value)> = group
                .tasks
                .iter()
                .map(|t| (&values[t.a as usize], &values[t.b as usize]))
                .collect();
            engine.eval_batch(group.kind, &pairs, stage, &mut lanes.scratches[0]);
            record_launches(stats, group.kind, 1);
        }
        for group in &wave.lut_groups {
            let stage = &mut lanes.stage[staged..staged + group.tasks.len()];
            staged += group.tasks.len();
            if group.is_affine() {
                for (t, out) in group.tasks.iter().zip(stage.iter_mut()) {
                    let ins = lut_refs(values, t);
                    engine.eval_lut_into(group.spec_of(t), &ins, &mut lanes.scratches[0], out);
                }
            } else {
                let items: Vec<(u16, [&E::Value; 4])> =
                    group.tasks.iter().map(|t| (t.table, lut_refs(values, t))).collect();
                engine.eval_lut_batch(
                    group.width,
                    group.precision,
                    &items,
                    stage,
                    &mut lanes.scratches[0],
                );
                stats.lut_launches += 1;
            }
        }
    } else {
        lanes.ensure_scratches(engine, workers);
        let ReplayLanes { values, stage, scratches, .. } = lanes;
        let values = &*values;
        // Chunks target one per lane across the whole wave; group
        // boundaries may add a few more, and stealing evens them out.
        let chunk = total.div_ceil(workers).max(1);
        let scratch_cells = SlotCells::new(std::mem::take(scratches));
        let cells = &scratch_cells;
        let mut jobs: Vec<Job> = Vec::new();
        let mut stage_rest: &mut [E::Value] = &mut stage[..total];
        for group in &wave.groups {
            let (group_stage, rest) = stage_rest.split_at_mut(group.tasks.len());
            stage_rest = rest;
            let kind = group.kind;
            if let Some(p) = msg_precision.filter(|_| kind.is_const()) {
                // Constants are allocation-free encodes: filling them
                // inline is cheaper than a pool round-trip.
                let bit = kind == GateKind::Const1;
                for out in group_stage.iter_mut() {
                    *out = engine.constant_message(bit, p);
                }
                record_launches(stats, kind, 1);
                continue;
            }
            let n_chunks = group.tasks.len().div_ceil(chunk) as u64;
            record_launches(stats, kind, n_chunks);
            for (task_chunk, stage_chunk) in
                group.tasks.chunks(chunk).zip(group_stage.chunks_mut(chunk))
            {
                jobs.push(Box::new(move |lane: usize| {
                    // SAFETY: the pool runs at most one task per lane at
                    // a time, and `lane < workers == cells.len()`.
                    let scratch = unsafe { cells.slot(lane) };
                    let pairs: Vec<(&E::Value, &E::Value)> = task_chunk
                        .iter()
                        .map(|t| (&values[t.a as usize], &values[t.b as usize]))
                        .collect();
                    engine.eval_batch(kind, &pairs, stage_chunk, scratch);
                }));
            }
        }
        for group in &wave.lut_groups {
            let (group_stage, rest) = stage_rest.split_at_mut(group.tasks.len());
            stage_rest = rest;
            let (width, precision) = (group.width, group.precision);
            let affine = group.is_affine();
            if !affine {
                stats.lut_launches += group.tasks.len().div_ceil(chunk) as u64;
            }
            for (task_chunk, stage_chunk) in
                group.tasks.chunks(chunk).zip(group_stage.chunks_mut(chunk))
            {
                jobs.push(Box::new(move |lane: usize| {
                    // SAFETY: the pool runs at most one task per lane at
                    // a time, and `lane < workers == cells.len()`.
                    let scratch = unsafe { cells.slot(lane) };
                    if affine {
                        for (t, out) in task_chunk.iter().zip(stage_chunk.iter_mut()) {
                            let ins = lut_refs(values, t);
                            let spec = LutSpec::new(width, precision, t.table);
                            engine.eval_lut_into(spec, &ins, scratch, out);
                        }
                    } else {
                        let items: Vec<(u16, [&E::Value; 4])> =
                            task_chunk.iter().map(|t| (t.table, lut_refs(values, t))).collect();
                        engine.eval_lut_batch(width, precision, &items, stage_chunk, scratch);
                    }
                }));
            }
        }
        let run = WorkerPool::global().run(workers, jobs);
        *scratches = scratch_cells.into_inner();
        stats.steals += run?.steals;
    }
    let mut staged = 0;
    for group in &wave.groups {
        for t in &group.tasks {
            std::mem::swap(&mut lanes.values[t.out as usize], &mut lanes.stage[staged]);
            staged += 1;
        }
    }
    for group in &wave.lut_groups {
        for t in &group.tasks {
            std::mem::swap(&mut lanes.values[t.out as usize], &mut lanes.stage[staged]);
            staged += 1;
        }
    }
    Ok(())
}

/// Bumps the per-kind and total launch counters.
fn record_launches(stats: &mut ExecStats, kind: GateKind, launches: u64) {
    stats.kernel_launches += launches;
    stats.kernels_by_kind[kind.opcode() as usize] += launches;
    if telemetry::enabled() {
        telemetry::metrics()
            .counter_add(&format!("graph_kernel_launches_total{{kind=\"{kind}\"}}"), launches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PlainEngine;
    use crate::exec::execute;
    use crate::graph::capture::{capture, CaptureConfig};
    use pytfhe_netlist::{GateKind, Netlist};

    fn adder4() -> Netlist {
        let mut nl = Netlist::new();
        let a: Vec<_> = (0..4).map(|_| nl.add_input()).collect();
        let b: Vec<_> = (0..4).map(|_| nl.add_input()).collect();
        let mut carry = nl.add_gate(GateKind::Const0, a[0], a[0]).unwrap();
        for i in 0..4 {
            let axb = nl.add_gate(GateKind::Xor, a[i], b[i]).unwrap();
            let sum = nl.add_gate(GateKind::Xor, axb, carry).unwrap();
            let c1 = nl.add_gate(GateKind::And, a[i], b[i]).unwrap();
            let c2 = nl.add_gate(GateKind::And, axb, carry).unwrap();
            carry = nl.add_gate(GateKind::Or, c1, c2).unwrap();
            nl.mark_output(sum).unwrap();
        }
        nl.mark_output(carry).unwrap();
        nl
    }

    #[test]
    fn plain_replay_matches_execute_for_all_adder_inputs() {
        let nl = adder4();
        let engine = PlainEngine::new();
        let plan = capture(&nl, &CaptureConfig::default()).unwrap();
        let mut lanes = ReplayLanes::new(&engine, 1);
        for x in 0..16u32 {
            for y in 0..16u32 {
                let bits: Vec<bool> = (0..4)
                    .map(|i| x >> i & 1 == 1)
                    .chain((0..4).map(|i| y >> i & 1 == 1))
                    .collect();
                let (want, _) = execute(&engine, &nl, &bits).unwrap();
                let (got, report) = replay(&engine, &plan, &bits, &mut lanes).unwrap();
                assert_eq!(got, want, "{x}+{y}");
                assert_eq!(report.gates, nl.num_gates());
            }
        }
    }

    #[test]
    fn parallel_replay_matches_serial_replay() {
        let nl = adder4();
        // Grain 1 forces even these tiny plaintext waves through the
        // pooled dispatch so the parallel path is actually exercised.
        let engine = PlainEngine::with_parallel_grain(1);
        let plan = capture(&nl, &CaptureConfig { batch_cut_nodes: 4 }).unwrap();
        let mut serial = ReplayLanes::new(&engine, 1);
        let mut parallel = ReplayLanes::new(&engine, 4);
        let bits = vec![true, false, true, true, false, true, true, false];
        let (a, ra) = replay(&engine, &plan, &bits, &mut serial).unwrap();
        let (b, rb) = replay(&engine, &plan, &bits, &mut parallel).unwrap();
        assert_eq!(a, b);
        assert_eq!(ra.gates, rb.gates);
        assert_eq!(ra.batches, rb.batches);
        assert!(rb.kernel_launches >= ra.kernel_launches);
    }

    #[test]
    fn scratches_grow_lazily_to_the_engaged_lanes() {
        let nl = adder4();
        let plan = capture(&nl, &CaptureConfig::default()).unwrap();
        let bits = vec![true; 8];

        // Serial replay allocates exactly one scratch even when the
        // lanes were sized for more workers.
        let engine = PlainEngine::new(); // default grain: waves stay serial
        let mut lanes = ReplayLanes::new(&engine, 8);
        assert_eq!(lanes.allocated_scratches(), 0, "construction allocates nothing");
        replay(&engine, &plan, &bits, &mut lanes).unwrap();
        assert_eq!(lanes.allocated_scratches(), 1, "serial replay needs one scratch");

        // A parallel dispatch grows to the lane width, never past it.
        let engine = PlainEngine::with_parallel_grain(1);
        let mut lanes = ReplayLanes::new(&engine, 3);
        replay(&engine, &plan, &bits, &mut lanes).unwrap();
        assert!(
            lanes.allocated_scratches() <= 3,
            "scratches bounded by workers, got {}",
            lanes.allocated_scratches()
        );
    }

    #[test]
    fn replay_rejects_wrong_input_count() {
        let nl = adder4();
        let engine = PlainEngine::new();
        let plan = capture(&nl, &CaptureConfig::default()).unwrap();
        let mut lanes = ReplayLanes::new(&engine, 1);
        assert!(matches!(
            replay(&engine, &plan, &[true], &mut lanes),
            Err(ExecError::InputCountMismatch { expected: 8, got: 1 })
        ));
    }
}
