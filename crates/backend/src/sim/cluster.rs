//! Discrete-event simulation of the distributed CPU backend
//! (Section IV-D: Algorithm 1 over a Ray cluster) — the engine behind the
//! Figure 10 and Table IV reproductions.
//!
//! The model follows the paper's execution structure exactly: the driver
//! walks the DAG wave by wave; each ready gate becomes one task
//! (the paper: "we choose to submit each gate as a separate Ray task");
//! tasks run on `nodes × cores` workers; a barrier ends each wave.
//! Per-wave time is `max(driver submission, worker computation)` plus the
//! barrier: submission is serialized on the driver while workers of the
//! previous chunk compute, which is what caps scaling at high worker
//! counts (the paper's 60.5× out of an ideal 72×).

use crate::cost::CpuCostModel;
use crate::sim::profile::ProgramProfile;

/// Cluster shape: the paper's testbed is 18 usable cores per node
/// (Table II, 2× Xeon Gold 5215; ideal speedups quoted as 18 and 72), in
/// 1- or 4-node configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of server nodes.
    pub nodes: usize,
    /// Worker cores per node.
    pub cores_per_node: usize,
}

impl ClusterConfig {
    /// One node of the paper's testbed (ideal speedup 18).
    pub fn one_node() -> Self {
        ClusterConfig { nodes: 1, cores_per_node: 18 }
    }

    /// The paper's four-node cluster (ideal speedup 72).
    pub fn four_nodes() -> Self {
        ClusterConfig { nodes: 4, cores_per_node: 18 }
    }

    /// Total workers.
    pub fn workers(&self) -> usize {
        self.nodes * self.cores_per_node
    }
}

/// The simulation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterReport {
    /// Predicted wall-clock seconds on the cluster.
    pub cluster_s: f64,
    /// Predicted wall-clock seconds on a single core (no scheduler).
    pub single_core_s: f64,
    /// Waves executed.
    pub waves: usize,
    /// Bootstrapped gates executed.
    pub gates: u64,
}

impl ClusterReport {
    /// Speedup over the single-core backend (the y-axis of Figure 10).
    pub fn speedup(&self) -> f64 {
        if self.cluster_s > 0.0 {
            self.single_core_s / self.cluster_s
        } else {
            1.0
        }
    }
}

/// Failure behaviour of the simulated cluster: nodes fail independently
/// with exponentially distributed time-between-failures and come back
/// after a fixed recovery latency.
///
/// Failures are sampled deterministically from `seed` (the same splitmix
/// scheme as [`crate::fault::SeededFaults`]), so a speedup-under-failure
/// curve is exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFaultModel {
    /// Mean time between failures of one node, in seconds. Non-positive
    /// or non-finite disables failures.
    pub node_mtbf_s: f64,
    /// Time from a node failing until it rejoins the pool (Ray restarts
    /// the raylet and re-registers the workers).
    pub recovery_s: f64,
    /// Cost of writing one wave checkpoint (frontier ciphertexts to the
    /// object store), paid at every barrier by the resilient variant.
    pub checkpoint_write_s: f64,
    /// Seed of the deterministic failure-time sampling.
    pub seed: u64,
}

impl SimFaultModel {
    /// A fault model with the given node MTBF and recovery latency, a
    /// small default checkpoint-write cost, and seed 1.
    pub fn new(node_mtbf_s: f64, recovery_s: f64) -> Self {
        SimFaultModel { node_mtbf_s, recovery_s, checkpoint_write_s: 0.05, seed: 1 }
    }

    /// Overrides the per-barrier checkpoint-write cost.
    #[must_use]
    pub fn with_checkpoint_write(mut self, s: f64) -> Self {
        self.checkpoint_write_s = s;
        self
    }

    /// Overrides the sampling seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Outcome of a [`ClusterSim::simulate_faulty`] run: the same program
/// under three regimes — no failures, failures with wave-granular
/// checkpoint/resume, and failures with restart-from-scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyClusterReport {
    /// Wall-clock seconds with no failures (and no checkpoint cost):
    /// [`ClusterSim::simulate`]'s prediction.
    pub fault_free_s: f64,
    /// Wall-clock seconds under the fault model with wave-granular
    /// checkpointing: a failure only loses the wave in flight.
    pub resilient_s: f64,
    /// Wall-clock seconds under the same failure sequence when a failure
    /// restarts the whole program (no checkpoints, no checkpoint cost).
    pub restart_s: f64,
    /// Single-core baseline seconds (denominator of speedup curves).
    pub single_core_s: f64,
    /// Node failures the resilient run absorbed.
    pub failures_resilient: u64,
    /// Node failures the restarting run absorbed before finishing (or
    /// before hitting the restart cap).
    pub failures_restart: u64,
    /// Non-empty waves in the program.
    pub waves: usize,
    /// Bootstrapped gates executed.
    pub gates: u64,
}

impl FaultyClusterReport {
    /// Speedup over one core under failures, with checkpoint/resume —
    /// the Figure-10-style y-axis degraded by the fault model.
    pub fn resilient_speedup(&self) -> f64 {
        if self.resilient_s > 0.0 {
            self.single_core_s / self.resilient_s
        } else {
            1.0
        }
    }
}

/// The distributed-CPU simulator.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSim {
    cost: CpuCostModel,
    config: ClusterConfig,
}

impl ClusterSim {
    /// Creates a simulator with the given cost model and cluster shape.
    pub fn new(cost: CpuCostModel, config: ClusterConfig) -> Self {
        ClusterSim { cost, config }
    }

    /// The cluster shape.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Predicted duration of one wave of `n` bootstrapped gates on
    /// `workers` workers: the driver submits `n` tasks serially while
    /// workers drain them in `ceil(n / workers)` rounds — the wave costs
    /// whichever pipeline stage is longer, plus the barrier.
    fn wave_s(&self, n: u64, workers: u64) -> f64 {
        let task_s = self.cost.gate_s() + self.cost.task_overhead_s + self.cost.comm_s_per_gate();
        let submit = n as f64 * self.cost.task_submit_s;
        let compute = n.div_ceil(workers.max(1)) as f64 * task_s;
        submit.max(compute) + self.cost.wave_barrier_s
    }

    /// Simulates the wavefront execution of `profile`.
    pub fn simulate(&self, profile: &ProgramProfile) -> ClusterReport {
        let workers = self.config.workers().max(1) as u64;
        let telemetry_on = pytfhe_telemetry::enabled();
        let mut cluster_s = 0.0;
        let mut waves = 0;
        let mut gates = 0u64;
        for wave in &profile.waves {
            let n = wave.bootstrapped();
            if n == 0 {
                continue;
            }
            waves += 1;
            gates += n;
            let dur = self.wave_s(n, workers);
            if telemetry_on {
                // Virtual-time span: simulated seconds, one lane per
                // cluster shape, rendered next to real execution.
                pytfhe_telemetry::sim_span(
                    "cluster-sim",
                    format!("{}x{} workers", self.config.nodes, self.config.cores_per_node),
                    format!("wave {}: {n} gates", waves - 1),
                    cluster_s,
                    cluster_s + dur,
                );
            }
            cluster_s += dur;
        }
        let single_core_s = gates as f64 * self.cost.gate_s();
        ClusterReport { cluster_s, single_core_s, waves, gates }
    }

    /// Simulates `profile` under `fault`, in two recovery regimes over
    /// the *same* deterministic failure process: wave-granular
    /// checkpoint/resume (a node failure mid-wave re-runs only that wave
    /// on the surviving nodes, paying [`SimFaultModel::checkpoint_write_s`]
    /// at every barrier) versus restart-from-scratch (a failure rewinds
    /// the whole program). The pair quantifies what checkpointing buys —
    /// the degraded Figure-10 speedup curves under failure.
    ///
    /// Unlike [`crate::exec::execute_resilient`]'s permanent worker
    /// eviction, the simulated cluster heals: a failed node rejoins after
    /// [`SimFaultModel::recovery_s`] (Ray restarts the raylet), because
    /// over cluster-scale horizons nodes reboot rather than vanish.
    pub fn simulate_faulty(
        &self,
        profile: &ProgramProfile,
        fault: &SimFaultModel,
    ) -> FaultyClusterReport {
        let base = self.simulate(profile);
        let wave_sizes: Vec<u64> =
            profile.waves.iter().map(|w| w.bootstrapped()).filter(|&n| n > 0).collect();
        let (resilient_s, failures_resilient) = self.faulty_run(&wave_sizes, fault, true);
        let (restart_s, failures_restart) = self.faulty_run(&wave_sizes, fault, false);
        FaultyClusterReport {
            fault_free_s: base.cluster_s,
            resilient_s,
            restart_s,
            single_core_s: base.single_core_s,
            failures_resilient,
            failures_restart,
            waves: base.waves,
            gates: base.gates,
        }
    }

    /// One faulty timeline: walks the waves advancing a wall clock while
    /// nodes fail (exponential inter-failure times) and recover. With
    /// `checkpointed`, a failure re-runs the in-flight wave on the
    /// survivors; without, it rewinds to wave zero. Returns `(wall_s,
    /// failures)`; a run that cannot make progress within the failure cap
    /// reports infinite time.
    fn faulty_run(
        &self,
        wave_sizes: &[u64],
        fault: &SimFaultModel,
        checkpointed: bool,
    ) -> (f64, u64) {
        // Runaway guard: with MTBF far below the wave length not even a
        // wave can commit; report "never finishes" instead of looping.
        const MAX_FAILURES: u64 = 100_000;

        let nodes = self.config.nodes.max(1);
        let cores = self.config.cores_per_node.max(1);
        let enabled = fault.node_mtbf_s.is_finite() && fault.node_mtbf_s > 0.0;
        let mut draws = vec![0u64; nodes];
        let sample = |node: usize, draws: &mut [u64]| -> f64 {
            if !enabled {
                return f64::INFINITY;
            }
            let u = crate::fault::unit(fault.seed, node as u64, draws[node], 0xFA11);
            draws[node] += 1;
            // Inverse-CDF exponential sample; 1-u is in (0, 1].
            -fault.node_mtbf_s * (1.0 - u).ln()
        };
        let mut next_fail: Vec<f64> = (0..nodes).map(|i| sample(i, &mut draws)).collect();
        let mut down_until = vec![0.0f64; nodes];
        let mut failures = 0u64;
        let mut t = 0.0f64;
        let mut wave_idx = 0usize;
        while wave_idx < wave_sizes.len() {
            let up: Vec<usize> = (0..nodes).filter(|&i| down_until[i] <= t).collect();
            if up.is_empty() {
                // Whole cluster down: wait for the first node to recover.
                t = down_until.iter().copied().fold(f64::INFINITY, f64::min);
                continue;
            }
            let dur = self.wave_s(wave_sizes[wave_idx], (up.len() * cores) as u64);
            // Earliest failure among live nodes that lands inside this
            // wave attempt, if any.
            let failing = up
                .iter()
                .copied()
                .filter(|&i| next_fail[i] < t + dur)
                .min_by(|&a, &b| next_fail[a].total_cmp(&next_fail[b]));
            match failing {
                None => {
                    t += dur;
                    if checkpointed {
                        t += fault.checkpoint_write_s;
                    }
                    wave_idx += 1;
                }
                Some(i) => {
                    failures += 1;
                    if failures >= MAX_FAILURES {
                        return (f64::INFINITY, failures);
                    }
                    t = next_fail[i].max(t);
                    down_until[i] = next_fail[i] + fault.recovery_s;
                    next_fail[i] = down_until[i] + sample(i, &mut draws);
                    if !checkpointed {
                        wave_idx = 0;
                    }
                }
            }
        }
        (t, failures)
    }

    /// The ideal throughput ceiling of this cluster: gates per second if
    /// every worker stayed busy with zero overhead — the paper's "ideal
    /// throughput of the CPU server platform" obtained from independent
    /// single-threaded dummy programs (Section V-A).
    pub fn ideal_gates_per_s(&self) -> f64 {
        self.config.workers() as f64 / self.cost.gate_s()
    }

    /// Ablation variant: greedy *list scheduling* without the per-wave
    /// barrier of Algorithm 1 — every gate starts as soon as its operands
    /// are done and a worker is free. Needs the full DAG rather than the
    /// wave profile. Comparing this against [`ClusterSim::simulate`]
    /// quantifies what the BFS barrier costs (DESIGN.md design-choice
    /// ablation).
    pub fn simulate_list(&self, nl: &pytfhe_netlist::Netlist) -> ClusterReport {
        use pytfhe_netlist::{GateKind, Node};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Work in integer nanoseconds so times can live in ordered heaps.
        let to_ns = |s: f64| (s * 1e9).round() as u64;
        let task_ns =
            to_ns(self.cost.gate_s() + self.cost.task_overhead_s + self.cost.comm_s_per_gate());
        let submit_ns = to_ns(self.cost.task_submit_s);
        let workers = self.config.workers().max(1);

        // Dependency counts and successor lists over *costly* tasks
        // (bootstrapped gates and non-affine fused LUTs); constants,
        // buffers, and affine LUTs are free and resolve transparently.
        let n = nl.num_nodes();
        let mut deps = vec![0u32; n];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let is_free_gate = |kind: GateKind| kind.is_const() || kind == GateKind::Buf;
        // Free nodes always have at most one costly operand, so the
        // chain-on-first-finish rule in `resolve` stays correct.
        let node_free = |node: &Node| match node {
            Node::Gate { kind, .. } => is_free_gate(*kind),
            Node::Lut { spec, .. } => spec.bootstraps() == 0,
            Node::Input => true,
        };
        let operands = |node: &Node| -> Vec<usize> {
            match node {
                Node::Gate { kind, .. } if kind.is_const() => Vec::new(),
                Node::Gate { kind, a, b } => {
                    if kind.is_unary() {
                        vec![a.index()]
                    } else {
                        vec![a.index(), b.index()]
                    }
                }
                Node::Lut { spec, ins } => {
                    ins[..spec.width as usize].iter().map(|id| id.index()).collect()
                }
                Node::Input => Vec::new(),
            }
        };
        for (i, node) in nl.nodes().iter().enumerate() {
            if matches!(node, Node::Input) {
                continue;
            }
            for op in operands(node) {
                if !node_free(&nl.nodes()[op]) {
                    deps[i] += 1;
                    succs[op].push(i as u32);
                }
            }
        }
        // `finish[i]` for free nodes propagates the operand's finish.
        let mut finish = vec![0u64; n];
        let mut ready_heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        for (i, node) in nl.nodes().iter().enumerate() {
            if !matches!(node, Node::Input) && !node_free(node) && deps[i] == 0 {
                ready_heap.push(Reverse((0, i as u32)));
            }
        }
        let mut free: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(0)).collect();
        let mut driver = 0u64; // serial task submission, in readiness order
        let mut makespan = 0u64;
        let mut gates = 0u64;
        let resolve = |i: usize,
                       end: u64,
                       finish: &mut Vec<u64>,
                       deps: &mut Vec<u32>,
                       heap: &mut BinaryHeap<Reverse<(u64, u32)>>| {
            // Mark node i finished at `end`; release successors (free
            // nodes chain through immediately).
            let mut stack = vec![(i, end)];
            while let Some((node, t)) = stack.pop() {
                finish[node] = t;
                for &s in &succs[node] {
                    let s = s as usize;
                    let succ = &nl.nodes()[s];
                    if node_free(succ) {
                        stack.push((s, t));
                    } else {
                        deps[s] -= 1;
                        if deps[s] == 0 {
                            let ready =
                                operands(succ).iter().map(|&op| finish[op]).fold(0u64, u64::max);
                            heap.push(Reverse((ready, s as u32)));
                        }
                    }
                }
            }
        };
        // Free nodes with no costly dependencies finish at time 0 and
        // must release their successors up front.
        for (i, node) in nl.nodes().iter().enumerate() {
            if !matches!(node, Node::Input) && node_free(node) && deps[i] == 0 {
                resolve(i, 0, &mut finish, &mut deps, &mut ready_heap);
            }
        }
        while let Some(Reverse((ready, i))) = ready_heap.pop() {
            gates += 1;
            driver = driver.max(ready) + submit_ns;
            let Reverse(worker_free) = free.pop().expect("nonempty pool");
            let start = driver.max(worker_free);
            let end = start + task_ns;
            makespan = makespan.max(end);
            free.push(Reverse(end));
            resolve(i as usize, end, &mut finish, &mut deps, &mut ready_heap);
        }
        ClusterReport {
            cluster_s: makespan as f64 / 1e9,
            single_core_s: gates as f64 * self.cost.gate_s(),
            waves: 0,
            gates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::{GateKind, Netlist};

    /// A wide, parallel program: `waves` waves of `width` NAND gates.
    fn wide_program(width: usize, waves: usize) -> ProgramProfile {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let mut prev = vec![a; width];
        for _ in 0..waves {
            let mut next = Vec::with_capacity(width);
            for &p in &prev {
                next.push(nl.add_gate(GateKind::Nand, p, b).unwrap());
            }
            prev = next;
        }
        for g in &prev {
            nl.mark_output(*g).unwrap();
        }
        ProgramProfile::of(&nl)
    }

    /// A serial chain.
    fn chain_program(len: usize) -> ProgramProfile {
        let mut nl = Netlist::new();
        let mut prev = nl.add_input();
        let b = nl.add_input();
        for _ in 0..len {
            prev = nl.add_gate(GateKind::Nand, prev, b).unwrap();
        }
        nl.mark_output(prev).unwrap();
        ProgramProfile::of(&nl)
    }

    #[test]
    fn wide_programs_scale_near_ideally_on_one_node() {
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::one_node());
        let report = sim.simulate(&wide_program(4096, 30));
        let speedup = report.speedup();
        // The paper: 17.4 out of an ideal 18 on one node.
        assert!(speedup > 16.0 && speedup < 18.0, "one-node speedup {speedup}");
    }

    #[test]
    fn four_nodes_reach_paper_scaling() {
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::four_nodes());
        let report = sim.simulate(&wide_program(4096, 30));
        let speedup = report.speedup();
        // The paper: 60.5 out of an ideal 72 on four nodes — submission
        // overhead keeps it clearly below ideal.
        assert!(speedup > 52.0 && speedup < 68.0, "four-node speedup {speedup}");
    }

    #[test]
    fn serial_chains_do_not_benefit() {
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::four_nodes());
        let report = sim.simulate(&chain_program(100));
        let speedup = report.speedup();
        // Mostly-serial workloads (the paper's NR-Solver) cannot use the
        // cluster; overheads even make them slightly slower.
        assert!(speedup < 1.1, "serial speedup {speedup}");
        assert_eq!(report.waves, 100);
    }

    #[test]
    fn single_core_time_is_gate_count_times_gate_cost() {
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::one_node());
        let profile = wide_program(10, 3);
        let report = sim.simulate(&profile);
        let expect = 30.0 * CpuCostModel::paper().gate_s();
        assert!((report.single_core_s - expect).abs() < 1e-9);
        assert_eq!(report.gates, 30);
    }

    #[test]
    fn list_scheduling_never_loses_to_the_barrier() {
        // Without the per-wave barrier, ragged DAGs finish at least as
        // fast; on clean rectangular DAGs the two converge.
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::one_node());
        // Ragged: alternating wide and narrow waves.
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let mut bottleneck = a;
        for _ in 0..6 {
            let wide: Vec<_> =
                (0..40).map(|_| nl.add_gate(GateKind::Nand, bottleneck, b).unwrap()).collect();
            bottleneck =
                wide.iter().fold(wide[0], |acc, &g| nl.add_gate(GateKind::And, acc, g).unwrap());
        }
        nl.mark_output(bottleneck).unwrap();
        let barrier = sim.simulate(&ProgramProfile::of(&nl));
        let list = sim.simulate_list(&nl);
        assert_eq!(barrier.gates, list.gates);
        assert!(
            list.cluster_s <= barrier.cluster_s * 1.02,
            "list {:.3}s vs barrier {:.3}s",
            list.cluster_s,
            barrier.cluster_s
        );
    }

    #[test]
    fn no_failures_costs_only_checkpoint_writes() {
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::one_node());
        let profile = wide_program(256, 10);
        let fault = SimFaultModel::new(0.0, 30.0).with_checkpoint_write(0.1);
        let report = sim.simulate_faulty(&profile, &fault);
        assert_eq!(report.failures_resilient, 0);
        assert_eq!(report.failures_restart, 0);
        assert!((report.restart_s - report.fault_free_s).abs() < 1e-9);
        let expect = report.fault_free_s + report.waves as f64 * 0.1;
        assert!((report.resilient_s - expect).abs() < 1e-9);
    }

    #[test]
    fn checkpointing_beats_restart_on_one_node_under_failures() {
        // Table II single-node config. Fault-free runtime is ~90 s; with
        // a 60 s node MTBF the restart regime rewinds over and over while
        // the checkpointed regime only ever loses the wave in flight.
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::one_node());
        let profile = wide_program(4096, 30);
        let fault = SimFaultModel::new(60.0, 10.0);
        let report = sim.simulate_faulty(&profile, &fault);
        assert!(report.failures_resilient > 0, "fault model injected nothing");
        assert!(report.resilient_s.is_finite());
        assert!(
            report.resilient_s < report.restart_s,
            "resilient {} vs restart {}",
            report.resilient_s,
            report.restart_s
        );
        // Recovery is not free: the degraded curve sits below fault-free.
        assert!(report.resilient_s > report.fault_free_s);
        assert!(report.resilient_speedup() < sim.simulate(&profile).speedup());
    }

    #[test]
    fn checkpointing_beats_restart_on_four_nodes_under_failures() {
        // Table II four-node config: four times the failure exposure.
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::four_nodes());
        let profile = wide_program(4096, 30);
        let fault = SimFaultModel::new(60.0, 10.0);
        let report = sim.simulate_faulty(&profile, &fault);
        assert!(report.failures_resilient > 0);
        assert!(report.resilient_s.is_finite());
        assert!(report.resilient_s < report.restart_s);
        // Even degraded, the four-node cluster should still beat one core
        // by a wide margin on an embarrassingly wide program.
        assert!(report.resilient_speedup() > 10.0, "speedup {}", report.resilient_speedup());
    }

    #[test]
    fn faulty_simulation_is_deterministic_per_seed() {
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::four_nodes());
        let profile = wide_program(1024, 12);
        let fault = SimFaultModel::new(45.0, 5.0).with_seed(7);
        let a = sim.simulate_faulty(&profile, &fault);
        let b = sim.simulate_faulty(&profile, &fault);
        assert_eq!(a, b);
        let c = sim.simulate_faulty(&profile, &fault.with_seed(8));
        assert_ne!(a.resilient_s, c.resilient_s, "different seeds, same timeline");
    }

    #[test]
    fn hopeless_mtbf_reports_never_finishing() {
        // MTBF far below a single wave: restart-from-scratch cannot make
        // progress and the guard reports infinite time rather than
        // spinning.
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::one_node());
        let profile = wide_program(4096, 30);
        let fault = SimFaultModel::new(0.5, 10.0);
        let report = sim.simulate_faulty(&profile, &fault);
        assert!(report.restart_s.is_infinite());
    }

    #[test]
    fn ideal_throughput_matches_workers() {
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::four_nodes());
        let per_core = 1.0 / CpuCostModel::paper().gate_s();
        assert!((sim.ideal_gates_per_s() - 72.0 * per_core).abs() < 1e-6);
    }
}
