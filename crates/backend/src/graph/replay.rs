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
//! to [`GateEngine::eval_batch`], still comes from the dispatcher's heap.)
//!
//! [`run_wave`] is the workspace's one wave dispatcher — the only code
//! that turns waves of ready nodes into [`WorkerPool`] jobs. It takes a
//! slice of [`Launch`]es: [`replay`] passes one (the next wave of its
//! plan), the serving scheduler one per picked job, each over that
//! tenant's key. A launch's gates are one list whatever their kinds, so
//! a chunk is a run of bootstrapping gates or of linear gates, and all
//! chunks of all launches are one pool run: lanes steal across run and
//! launch boundaries. The resilient executor dispatches through the same
//! code with a [`Retry`] policy that re-runs the chunks that failed.

use crate::engine::{boot_gate, check_inputs, GateEngine};
use crate::error::ExecError;
use crate::exec::{ExecStats, PARALLEL_WAVE_MIN};
use crate::graph::plan::{GateTask, KernelPlan, WavePlan};
use crate::pool::{Job, WorkerPool};
use pytfhe_netlist::GateKind;
use pytfhe_telemetry as telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
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
    /// The value arena, indexed by netlist node id.
    pub(crate) values: Vec<V>,
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
/// The returned [`ExecStats`] carry the replay's counters, `wall_s` being
/// the replay's alone; callers that also captured add their own
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
    let mut stats = ExecStats::new(plan.num_gates(), plan.bootstraps());
    let workers = lanes.workers;
    for wave in &plan.waves {
        let launch = Launch { engine, wave, lanes: &mut *lanes };
        run_wave(&mut [launch], workers, &mut stats)?;
        stats.waves += 1;
    }
    stats.wall_s = start.elapsed().as_secs_f64();
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
    /// The plan's value arena, staging arena and per-lane scratch.
    pub lanes: &'a mut ReplayLanes<E::Value, E::Scratch>,
}

/// One per-lane chunk of launch number `launch`: the unit a
/// lane executes, reading the launch's value arena and writing its own
/// slice of the launch's stage. Its gates all bootstrap or are all
/// linear.
struct Chunk<'a, E: GateEngine> {
    engine: &'a E,
    launch: usize,
    /// Kind and operands of each gate, gathered on the dispatching thread.
    items: Vec<(GateKind, &'a E::Value, &'a E::Value)>,
    stage: &'a mut [E::Value],
}

impl<E: GateEngine> Chunk<'_, E> {
    /// Whether the chunk's gates bootstrap.
    fn bootstraps(&self) -> bool {
        boot_gate(self.items[0].0).is_some()
    }

    /// Runs the chunk through [`GateEngine::eval_batch`]. Only the
    /// chunk's stage is written, so running it again is harmless.
    fn run(&mut self, scratch: &mut E::Scratch) {
        self.engine.eval_batch(&self.items, self.stage, scratch);
    }
}

/// What a dispatch does with chunks that do not finish. A chunk fails
/// when [`Retry::admit`] refuses it or when it panics; either way it
/// wrote nothing but its own stage, so it can simply run again.
pub(crate) trait Retry: Sync {
    /// Whether chunk `chunk` (numbered within the dispatch) runs in the
    /// current round. Called on the lane about to run it; `false` fails
    /// the attempt.
    fn admit(&self, chunk: usize) -> bool;

    /// Called after a round in which the `failed` chunks did not finish:
    /// `Ok` runs them again, an error abandons the wave.
    fn retry(&mut self, failed: &[usize]) -> Result<(), ExecError>;
}

/// [`run_wave`]'s policy: every chunk runs once, and a panic fails the
/// wave.
struct FailFast;

impl Retry for FailFast {
    fn admit(&self, _: usize) -> bool {
        true
    }

    fn retry(&mut self, _: &[usize]) -> Result<(), ExecError> {
        Err(ExecError::WorkerPanicked)
    }
}

/// Executes one wave of each launch as a single dispatch: every task's
/// result is staged (the wave's other tasks may still read any slot),
/// then swapped into the launch's value arena. Each launch's gates are
/// split into a bootstrapping run and a linear run (more where a decoded
/// plan interleaves the two), whatever their kinds, and those runs are
/// cut into chunks targeting one per lane. A dispatch of at least
/// [`GateEngine::parallel_grain`] gates submits them as one pool run over
/// `workers` lanes with stealing across runs and launches, a narrower one
/// runs them in order on the calling thread.
/// The launches must be mutually independent — different plans, or
/// plans over disjoint arenas.
///
/// # Errors
///
/// Returns [`ExecError::WorkerPanicked`] when a chunk panics; no result
/// of the wave is swapped in then.
pub fn run_wave<E: GateEngine>(
    launches: &mut [Launch<'_, E>],
    workers: usize,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    run_wave_with(launches, workers, stats, &mut FailFast)
}

/// [`run_wave`] under a [`Retry`] policy: the chunks that fail a round
/// run again, on the same lanes, until none fails or the policy gives
/// up. Results swap in only once every chunk has finished, so until then
/// the wave's operands are untouched and a re-run reads what the first
/// attempt read.
pub(crate) fn run_wave_with<E: GateEngine>(
    launches: &mut [Launch<'_, E>],
    workers: usize,
    stats: &mut ExecStats,
    retry: &mut impl Retry,
) -> Result<(), ExecError> {
    let total: usize = launches.iter().map(|l| l.wave.num_gates()).sum();
    let Some(first) = launches.first().filter(|_| total > 0) else {
        return Ok(());
    };
    // A lone bootstrap would leave every other lane idle: a gang splits
    // it instead, and the wave runs as one unit.
    let bootstraps: u64 = launches.iter().map(|l| l.wave.bootstraps()).sum();
    let gang = match &launches[..] {
        [l] if bootstraps == 1 && workers > 1 => l.engine.gang_width().min(workers),
        _ => 1,
    };
    let _wave_span = telemetry::span_with("exec", || match gang {
        1 => format!("wave {}: {total} gates", stats.waves),
        _ => format!("wave {}: {total} gates, {gang} lanes", stats.waves),
    });
    telemetry::counter_sample("exec", "wave_width", total as f64);
    let grain = first.engine.parallel_grain().max(PARALLEL_WAVE_MIN);
    let lanes = if gang > 1 || total < grain { 1 } else { workers.max(1) };
    // Chunks target one per lane across the whole dispatch; run and
    // launch boundaries may add a few more, and stealing evens them out.
    let chunk = total.div_ceil(lanes);
    let mut cells: Vec<Vec<Mutex<E::Scratch>>> = Vec::with_capacity(launches.len());
    let mut chunks: Vec<Chunk<'_, E>> = Vec::new();
    let mut gang_lanes: (&mut [E::Scratch], &mut [E::Value]) = (&mut [], &mut []);
    for (launch, l) in launches.iter_mut().enumerate() {
        let (engine, wave) = (l.engine, l.wave);
        let ReplayLanes { values, stage, scratches, .. } = &mut *l.lanes;
        scratches.resize_with(lanes.max(gang).max(scratches.len()), || engine.scratch());
        // The whole wave is staged before any result scatters back, so
        // the stage arena spans the wave, not just its widest run; a
        // gang's other members write their copies of its one bootstrap
        // past it.
        let n = wave.num_gates();
        if stage.len() < n + gang - 1 {
            stage.resize_with(n + gang - 1, || engine.constant(false));
        }
        let (mut stage_rest, echoes) = stage.split_at_mut(n);
        if gang > 1 {
            gang_lanes = (&mut scratches[..gang], &mut echoes[..gang - 1]);
        } else {
            cells.push(std::mem::take(scratches).into_iter().map(Mutex::new).collect());
        }
        let values = &values[..];
        let boots = |t: &GateTask| boot_gate(t.kind).is_some();
        for run in wave.gates.chunk_by(|x, y| boots(x) == boots(y)) {
            let (run_stage, rest) = stage_rest.split_at_mut(run.len());
            stage_rest = rest;
            stats.kernel_launches += run.len().div_ceil(chunk) as u64;
            for (tasks, stage) in run.chunks(chunk).zip(run_stage.chunks_mut(chunk)) {
                // Gathered here, not on the lane that runs the chunk: see
                // `WorkerPool::run_each`.
                let item = |t: &GateTask| (t.kind, &values[t.a as usize], &values[t.b as usize]);
                chunks.push(Chunk {
                    engine,
                    launch,
                    items: tasks.iter().map(item).collect(),
                    stage,
                });
            }
        }
    }
    // `pending[i]`: chunk `i` has not finished; `failed[i]`: not in this
    // round (Relaxed: the pool's latch orders the stores before the reads).
    let mut pending = vec![true; chunks.len()];
    let failed: Vec<AtomicBool> = chunks.iter().map(|_| AtomicBool::new(false)).collect();
    let outcome = loop {
        if gang > 1 {
            // The gang is one chunk: admitted once, retried whole.
            telemetry::counter_sample("exec", "gang_lanes", gang as f64);
            let (scratches, echoes) = &mut gang_lanes;
            if retry.admit(0) && run_gang(&mut chunks, echoes, scratches) {
                break Ok(());
            }
            if let Err(e) = retry.retry(&[0]) {
                break Err(e);
            }
            continue;
        }
        let run_on = |lane: usize, i: usize, chunk: &mut Chunk<'_, E>| {
            // Every launch holds `lanes` scratches and a lane runs one
            // task at a time, so the lock is never contended.
            let mut scratch = cells[chunk.launch][lane].lock().expect("scratch lock poisoned");
            let ran = catch_unwind(AssertUnwindSafe(|| {
                retry.admit(i) && {
                    chunk.run(&mut scratch);
                    true
                }
            }));
            failed[i].store(!matches!(ran, Ok(true)), Ordering::Relaxed);
        };
        let todo = chunks.iter_mut().enumerate().filter(|(i, _)| pending[*i]);
        if lanes == 1 {
            todo.for_each(|(i, chunk)| run_on(0, i, chunk));
        } else {
            let todo: Vec<_> = todo.map(Mutex::new).collect();
            let body = |lane: usize, task: usize| {
                let (i, chunk) = &mut *todo[task].lock().expect("chunk lock poisoned");
                run_on(lane, *i, chunk);
            };
            // Every task catches its own panic, so the run cannot fail.
            let run = WorkerPool::global().run_each(lanes, todo.len(), &body);
            stats.steals += run.unwrap_or(0);
        }
        for (p, f) in pending.iter_mut().zip(&failed) {
            *p = *p && f.load(Ordering::Relaxed);
        }
        let again: Vec<usize> = (0..pending.len()).filter(|&i| pending[i]).collect();
        if again.is_empty() {
            break Ok(());
        }
        if let Err(e) = retry.retry(&again) {
            break Err(e);
        }
    };
    for (l, cells) in launches.iter_mut().zip(cells) {
        l.lanes.scratches = cells.into_iter().map(|s| s.into_inner().expect("poisoned")).collect();
    }
    outcome?;
    for l in launches {
        let ReplayLanes { values, stage, .. } = &mut *l.lanes;
        for (t, staged) in l.wave.gates.iter().zip(stage) {
            std::mem::swap(&mut values[t.out as usize], staged);
        }
    }
    Ok(())
}

/// Runs every chunk of a one-bootstrap wave as one unit, on a gang of
/// `scratches.len()` lanes that split the bootstrap between them
/// ([`GateEngine::band`]): member 0 runs every chunk, the others a copy of
/// the bootstrapping chunk each, into an echo slot. Where the pool cannot
/// place the gang (a nested dispatch) the chunks run on the first scratch
/// alone. Returns whether every chunk finished; a member that fails
/// releases its scratch, which aborts its partners.
fn run_gang<E: GateEngine>(
    chunks: &mut [Chunk<'_, E>],
    echoes: &mut [E::Value],
    scratches: &mut [E::Scratch],
) -> bool {
    let engine = chunks[0].engine;
    let boot = chunks.iter().position(Chunk::bootstraps).expect("a gang wave bootstraps");
    let mut copies: Vec<Chunk<'_, E>> = echoes
        .chunks_mut(1)
        .map(|stage| Chunk { stage, items: chunks[boot].items.clone(), ..chunks[boot] })
        .collect();
    // Relaxed: the pool's latch orders the stores before the read.
    let failed = AtomicBool::new(false);
    let member = |scratch: &mut E::Scratch, work: &mut dyn FnMut(&mut E::Scratch)| {
        let ran = catch_unwind(AssertUnwindSafe(|| work(scratch)));
        engine.release(scratch);
        failed.fetch_or(ran.is_err(), Ordering::Relaxed);
    };
    engine.band(scratches);
    let (lead, rest) = scratches.split_first_mut().expect("a gang has members");
    let mut jobs: Vec<Job> =
        vec![Box::new(|_| member(lead, &mut |s| chunks.iter_mut().for_each(|c| c.run(s))))];
    for (scratch, copy) in rest.iter_mut().zip(&mut copies) {
        jobs.push(Box::new(move |_| member(scratch, &mut |s| copy.run(s))));
    }
    if WorkerPool::global().gang(jobs).is_none() {
        scratches.iter_mut().for_each(|s| engine.release(s));
        member(&mut scratches[0], &mut |s| chunks.iter_mut().for_each(|c| c.run(s)));
    }
    !failed.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PlainEngine, TfheEngine};
    use crate::exec::execute;
    use crate::graph::capture::{capture, CaptureConfig};
    use pytfhe_netlist::{GateKind, Netlist, Node};
    use pytfhe_tfhe::{ClientKey, Params, SecureRng};

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
        let plan = capture(&nl, &CaptureConfig::default()).unwrap();
        let mut serial = ReplayLanes::new(1);
        let mut parallel = ReplayLanes::new(4);
        let bits = vec![true, false, true, true, false, true, true, false];
        let (a, ra) = replay(&engine, &plan, &bits, &mut serial).unwrap();
        let (b, rb) = replay(&engine, &plan, &bits, &mut parallel).unwrap();
        assert_eq!(a, b);
        assert_eq!(ra.gates, rb.gates);
        assert_eq!(ra.waves, rb.waves);
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

    /// One wave: 2 gates of each of 4 bootstrapping kinds over 2 inputs.
    fn mixed_wave() -> Netlist {
        let mut nl = Netlist::new();
        let (a, b) = (nl.add_input(), nl.add_input());
        for kind in [GateKind::Xor, GateKind::Nand, GateKind::Orny, GateKind::And] {
            for (x, y) in [(a, b), (b, a)] {
                let g = nl.add_gate(kind, x, y).unwrap();
                nl.mark_output(g).unwrap();
            }
        }
        nl
    }

    #[test]
    fn a_wave_of_mixed_kinds_is_one_launch_per_lane() {
        let plan = capture(&mixed_wave(), &CaptureConfig::default()).unwrap();
        assert_eq!(plan.num_waves(), 1);
        let mut lanes = ReplayLanes::new(1);
        let (_, stats) = replay(&PlainEngine::new(), &plan, &[true, false], &mut lanes).unwrap();
        assert_eq!(stats.kernel_launches, 1);
    }

    #[test]
    fn a_wave_of_mixed_kinds_replays_the_bytes_of_every_gate_alone() {
        let mut rng = SecureRng::seed_from_u64(37);
        let client = ClientKey::generate(Params::testing(), &mut rng);
        let server = client.server_key(&mut rng);
        let engine = TfheEngine::new(&server);
        let nl = mixed_wave();
        let cts = client.encrypt_bits(&[true, false], &mut rng);
        let (want, _) = execute(&engine, &nl, &cts).unwrap();
        assert_eq!(client.decrypt_bits(&want), nl.eval_plain(&[true, false]));
        let mut scratch = server.gate_scratch();
        for (&o, want) in nl.outputs().iter().zip(&want) {
            let Node::Gate { kind, a, b } = nl.node(o) else { unreachable!("a gate") };
            let mut out = server.constant(false);
            let gate = boot_gate(kind).unwrap();
            server.gate_into(gate, &cts[a.index()], &cts[b.index()], &mut scratch, &mut out);
            assert_eq!(&out, want, "{kind}");
        }
        let plan = capture(&nl, &CaptureConfig::default()).unwrap();
        for workers in [1, 2] {
            let mut lanes = ReplayLanes::new(workers);
            let (got, stats) = replay(&engine, &plan, &cts, &mut lanes).unwrap();
            assert_eq!(got, want, "workers {workers}");
            assert_eq!(stats.kernel_launches, workers as u64);
        }
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
