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
    fn ideal_throughput_matches_workers() {
        let sim = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::four_nodes());
        let per_core = 1.0 / CpuCostModel::paper().gate_s();
        assert!((sim.ideal_gates_per_s() - 72.0 * per_core).abs() < 1e-6);
    }
}
