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
//! [`run_wave`] is the workspace's one wave dispatcher — the only code
//! that turns waves of ready nodes into [`WorkerPool`] jobs. It takes a
//! slice of [`Launch`]es: [`replay`] passes one (the next wave of its
//! plan), the serving scheduler one per picked job, each over that
//! tenant's key. All chunks of all launches are one pool run, so lanes
//! steal across group and launch boundaries — one fat AND group no
//! longer idles the workers that finished their XORs.

use crate::engine::{check_inputs, GateEngine};
use crate::error::ExecError;
use crate::exec::{ExecStats, PARALLEL_WAVE_MIN};
use crate::graph::plan::{GateTask, KernelPlan, LutGroup, LutTask, WavePlan};
use crate::pool::{Job, RunStats, SlotCells, WorkerPool};
use pytfhe_netlist::GateKind;
use pytfhe_telemetry as telemetry;
use std::time::Instant;

/// Reusable replay storage for values of type `V`: the value arena (one
/// slot per netlist node), the wave staging arena, and scratch buffers
/// `S` for the worker lanes a replay engages (grown lazily: serial
/// replays hold one scratch; a parallel dispatch grows to the lane
/// count, never past it — large-key scratch memory is never allocated
/// unused). Named by value and scratch type, not by engine, so a holder
/// of many arenas (the serving scheduler) need not name a key lifetime.
#[derive(Debug)]
pub struct ReplayLanes<V, S> {
    values: Vec<V>,
    stage: Vec<V>,
    scratches: Vec<S>,
    workers: usize,
}

impl<V: Clone, S> ReplayLanes<V, S> {
    /// Creates empty lanes for `workers` parallel lanes (clamped to at
    /// least 1). Buffers grow on first use and persist across replays.
    pub fn new(workers: usize) -> Self {
        ReplayLanes {
            values: Vec::new(),
            stage: Vec::new(),
            scratches: Vec::new(),
            workers: workers.max(1),
        }
    }

    /// Scratch buffers allocated so far (grows with the widest dispatch
    /// actually executed, bounded by the lane count).
    pub fn allocated_scratches(&self) -> usize {
        self.scratches.len()
    }

    /// Checks `inputs`, grows the value arena to fit `plan` (no-op once
    /// warmed up) and copies `inputs` into the plan's input slots.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InputCountMismatch`] on arity mismatch and
    /// the refusal of [`GateEngine::check_input`]; nothing is loaded then.
    pub fn load<E: GateEngine<Value = V, Scratch = S>>(
        &mut self,
        engine: &E,
        plan: &KernelPlan,
        inputs: &[V],
    ) -> Result<(), ExecError> {
        check_inputs(engine, plan.inputs.len(), inputs)?;
        if self.values.len() < plan.num_nodes {
            self.values.resize_with(plan.num_nodes, || engine.constant(false));
        }
        for (&slot, input) in plan.inputs.iter().zip(inputs) {
            self.values[slot as usize].clone_from(input);
        }
        Ok(())
    }

    /// The values in the plan's output slots, in program order — the
    /// program's result once every wave has run.
    pub fn outputs(&self, plan: &KernelPlan) -> Vec<V> {
        plan.outputs.iter().map(|&s| self.values[s as usize].clone()).collect()
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
/// Returns the input errors of [`ReplayLanes::load`] and
/// [`ExecError::WorkerPanicked`] when a parallel lane dies.
pub fn replay<E: GateEngine>(
    engine: &E,
    plan: &KernelPlan,
    inputs: &[E::Value],
    lanes: &mut ReplayLanes<E::Value, E::Scratch>,
) -> Result<(Vec<E::Value>, ExecStats), ExecError> {
    let start = Instant::now();
    lanes.load(engine, plan, inputs)?;
    let mut stats = ExecStats::new(plan.num_gates(), plan.num_luts(), plan.bootstraps());
    let msg_precision = plan.message_precision;
    let workers = lanes.workers;
    for (batch_idx, batch) in plan.batches.iter().enumerate() {
        stats.batches += 1;
        let _batch_span = telemetry::span_with("graph", || {
            format!("batch {batch_idx}: {} waves", batch.waves.len())
        });
        for wave in &batch.waves {
            let launch = Launch { engine, wave, msg_precision, lanes: &mut *lanes };
            run_wave(&mut [launch], workers, &mut stats)?;
            stats.waves += 1;
        }
    }
    stats.replay_s = start.elapsed().as_secs_f64();
    stats.wall_s = stats.replay_s;
    Ok((lanes.outputs(plan), stats))
}

/// One wave of one plan, ready to run: what [`run_wave`] executes. The
/// lanes must have been [`ReplayLanes::load`]ed with the plan `wave`
/// belongs to, and every earlier wave of that plan must have run.
pub struct Launch<'a, E: GateEngine> {
    /// Evaluates the wave's gates (for ciphertexts: under one key).
    pub engine: &'a E,
    /// The wave.
    pub wave: &'a WavePlan,
    /// [`KernelPlan::message_precision`]. Where it is nonzero, constant
    /// gate groups are filled via [`GateEngine::constant_message`] so
    /// constants land on the encoding the packed LUT windows expect.
    pub msg_precision: u8,
    /// The plan's value arena, staging arena and per-lane scratch.
    pub lanes: &'a mut ReplayLanes<E::Value, E::Scratch>,
}

/// The tasks of one chunk: a run of a gate group, or of a LUT group (and whether it is affine).
enum Tasks<'a> {
    Gates(GateKind, &'a [GateTask]),
    Luts(&'a LutGroup, bool, &'a [LutTask]),
}

/// One per-lane chunk of one group of launch number `launch`: the unit a
/// lane executes, reading the launch's value arena and writing its own
/// slice of the launch's stage.
struct Chunk<'a, E: GateEngine> {
    engine: &'a E,
    launch: usize,
    values: &'a [E::Value],
    tasks: Tasks<'a>,
    stage: &'a mut [E::Value],
}

impl<E: GateEngine> Chunk<'_, E> {
    /// Bootstrapping LUT groups dispatch through
    /// [`GateEngine::eval_lut_batch`]; affine groups (width-1 tables)
    /// run linearly through [`GateEngine::eval_lut_into`].
    fn run(self, scratch: &mut E::Scratch) {
        let Chunk { engine, values, stage, .. } = self;
        // The operand references of a LUT task (unused slots alias the
        // first, mirroring the netlist's padding).
        let refs = |t: &LutTask| t.ins.map(|slot| &values[slot as usize]);
        match self.tasks {
            Tasks::Gates(kind, tasks) => {
                let pairs: Vec<(&E::Value, &E::Value)> =
                    tasks.iter().map(|t| (&values[t.a as usize], &values[t.b as usize])).collect();
                engine.eval_batch(kind, &pairs, stage, scratch);
            }
            Tasks::Luts(group, true, tasks) => {
                for (t, out) in tasks.iter().zip(stage) {
                    engine.eval_lut_into(group.spec_of(t), &refs(t), scratch, out);
                }
            }
            Tasks::Luts(group, false, tasks) => {
                let items: Vec<(u16, [&E::Value; 4])> =
                    tasks.iter().map(|t| (t.table, refs(t))).collect();
                engine.eval_lut_batch(group.width, group.precision, &items, stage, scratch);
            }
        }
    }
}

/// Executes one wave of each launch as a single dispatch: every group's
/// results are staged (the wave's other groups may still read any slot),
/// then swapped into the launch's value arena. The groups of all
/// launches are split into chunks targeting one per lane; a dispatch of
/// at least [`GateEngine::parallel_grain`] tasks submits them as one
/// pool run over `workers` lanes with stealing across groups and
/// launches, a narrower one runs them in order on the calling thread.
/// The launches must be mutually independent — different plans, or
/// plans over disjoint arenas.
///
/// # Errors
///
/// Returns [`ExecError::WorkerPanicked`] when a pool lane dies.
pub fn run_wave<E: GateEngine>(
    launches: &mut [Launch<'_, E>],
    workers: usize,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    let total: usize = launches.iter().map(|l| l.wave.num_tasks()).sum();
    let Some(first) = launches.first().filter(|_| total > 0) else {
        return Ok(());
    };
    let _wave_span =
        telemetry::span_with("exec", || format!("wave {}: {total} gates", stats.waves));
    telemetry::counter_sample("exec", "wave_width", total as f64);
    let grain = first.engine.parallel_grain().max(PARALLEL_WAVE_MIN);
    let lanes = if total < grain { 1 } else { workers.max(1) };
    // Chunks target one per lane across the whole dispatch; group
    // boundaries may add a few more, and stealing evens them out.
    let chunk = total.div_ceil(lanes);
    let mut cells: Vec<SlotCells<E::Scratch>> = Vec::with_capacity(launches.len());
    let mut chunks: Vec<Chunk<'_, E>> = Vec::new();
    for (launch, l) in launches.iter_mut().enumerate() {
        let (engine, wave) = (l.engine, l.wave);
        let ReplayLanes { values, stage, scratches, .. } = &mut *l.lanes;
        scratches.resize_with(lanes.max(scratches.len()), || engine.scratch());
        cells.push(SlotCells::new(std::mem::take(scratches)));
        // The whole wave is staged before any result scatters back, so
        // the stage arena spans the wave, not just its widest group.
        if stage.len() < wave.num_tasks() {
            stage.resize_with(wave.num_tasks(), || engine.constant(false));
        }
        let values = &values[..];
        let mut stage_rest = &mut stage[..wave.num_tasks()];
        for group in &wave.groups {
            let (group_stage, rest) = stage_rest.split_at_mut(group.tasks.len());
            stage_rest = rest;
            let (kind, p) = (group.kind, l.msg_precision);
            if p > 0 && kind.is_const() {
                // Constants are allocation-free encodes: filling them
                // here is cheaper than a chunk of their own.
                group_stage.fill_with(|| engine.constant_message(kind == GateKind::Const1, p));
                record_launches(stats, kind, 1);
                continue;
            }
            record_launches(stats, kind, group.tasks.len().div_ceil(chunk) as u64);
            for (tasks, stage) in group.tasks.chunks(chunk).zip(group_stage.chunks_mut(chunk)) {
                let tasks = Tasks::Gates(kind, tasks);
                chunks.push(Chunk { engine, launch, values, tasks, stage });
            }
        }
        for group in &wave.lut_groups {
            let (group_stage, rest) = stage_rest.split_at_mut(group.tasks.len());
            stage_rest = rest;
            let affine = group.is_affine();
            if !affine {
                stats.lut_launches += group.tasks.len().div_ceil(chunk) as u64;
            }
            for (tasks, stage) in group.tasks.chunks(chunk).zip(group_stage.chunks_mut(chunk)) {
                let tasks = Tasks::Luts(group, affine, tasks);
                chunks.push(Chunk { engine, launch, values, tasks, stage });
            }
        }
    }
    let run_on = |lane: usize, chunk: Chunk<'_, E>| {
        // SAFETY: every launch holds `lanes` scratches and `lane < lanes`.
        // The pool runs at most one task per lane at a time, and the
        // inline path runs every chunk on lane 0 one after another, so
        // no two live borrows share a slot.
        let scratch = unsafe { cells[chunk.launch].slot(lane) };
        chunk.run(scratch);
    };
    let run = if lanes == 1 {
        chunks.into_iter().for_each(|chunk| run_on(0, chunk));
        Ok(RunStats::default())
    } else {
        let jobs = chunks.into_iter().map(|c| Box::new(move |lane| run_on(lane, c)) as Job);
        WorkerPool::global().run(lanes, jobs.collect())
    };
    for (l, cells) in launches.iter_mut().zip(cells) {
        l.lanes.scratches = cells.into_inner();
    }
    stats.steals += run?.steals;
    for l in launches {
        let ReplayLanes { values, stage, .. } = &mut *l.lanes;
        let outs = l.wave.groups.iter().flat_map(|g| g.tasks.iter().map(|t| t.out));
        let lut_outs = l.wave.lut_groups.iter().flat_map(|g| g.tasks.iter().map(|t| t.out));
        for (out, staged) in outs.chain(lut_outs).zip(stage) {
            std::mem::swap(&mut values[out as usize], staged);
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
        let mut lanes = ReplayLanes::new(1);
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
        let mut serial = ReplayLanes::new(1);
        let mut parallel = ReplayLanes::new(4);
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
        let mut lanes = ReplayLanes::new(8);
        assert_eq!(lanes.allocated_scratches(), 0, "construction allocates nothing");
        replay(&engine, &plan, &bits, &mut lanes).unwrap();
        assert_eq!(lanes.allocated_scratches(), 1, "serial replay needs one scratch");

        // A parallel dispatch grows to the lane width, never past it.
        let engine = PlainEngine::with_parallel_grain(1);
        let mut lanes = ReplayLanes::new(3);
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
        let mut lanes = ReplayLanes::new(1);
        assert!(matches!(
            replay(&engine, &plan, &[true], &mut lanes),
            Err(ExecError::InputCountMismatch { expected: 8, got: 1 })
        ));
    }
}
