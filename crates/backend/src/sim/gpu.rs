//! Discrete-event simulation of the GPU backends (Section IV-E) — the
//! engine behind the Figure 8, 9, 11 and Table IV reproductions.
//!
//! Two scheduling policies over the same device model:
//!
//! * [`GpuPolicy::CuFhe`] — the baseline library's gate-level API
//!   (Figure 8): each gate evaluation is a blocking sequence of
//!   host-to-device copies, a kernel launch, the kernel, a
//!   device-to-host copy and a synchronization, with the CPU thread
//!   blocked throughout. Interdependent or mixed-type gates cannot be
//!   batched, so real programs dispatch gate by gate.
//! * [`GpuPolicy::CudaGraphs`] — PyTFHE's backend (Figure 9): each of
//!   the plan's sub-graph batches (~100 k nodes under the default
//!   [`crate::CaptureConfig`]) is defined as one CUDA graph; per-gate
//!   launch overhead collapses to a per-node graph cost, transfers
//!   happen once per batch, and graph *construction* of batch `i+1` on
//!   the CPU overlaps graph *execution* of batch `i` on the GPU.

use crate::cost::{CpuCostModel, GpuCostModel};
use crate::graph::{counts_toward_batch, KernelPlan, LutGroup, SubGraph, WavePlan};
use crate::sim::timeline::Timeline;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuPolicy {
    /// Per-gate blocking dispatch through the cuFHE gate API.
    CuFhe,
    /// cuFHE's vectorized batching: independent *same-type* gates of one
    /// wave share a launch (the paper: "this type of batching does not
    /// allow interdependent ciphertexts or mixed types of gates to be
    /// batched", and the CPU still blocks between batches).
    CuFheBatched,
    /// PyTFHE's CUDA-Graphs batch scheduling.
    CudaGraphs,
}

/// The simulation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuReport {
    /// Predicted wall-clock seconds.
    pub total_s: f64,
    /// Seconds the GPU spent computing kernels.
    pub kernel_busy_s: f64,
    /// Seconds spent on host-device transfers.
    pub transfer_s: f64,
    /// Seconds of launch/sync/graph overheads.
    pub overhead_s: f64,
    /// Bootstrapped gates executed.
    pub gates: u64,
}

/// The GPU backend simulator.
#[derive(Debug, Clone, Copy)]
pub struct GpuSim {
    gpu: GpuCostModel,
    cpu: CpuCostModel,
}

impl GpuSim {
    /// Creates a simulator for the given device (the CPU model supplies
    /// the ciphertext size and the single-core reference time).
    pub fn new(gpu: GpuCostModel, cpu: CpuCostModel) -> Self {
        GpuSim { gpu, cpu }
    }

    /// The device model.
    pub fn gpu(&self) -> &GpuCostModel {
        &self.gpu
    }

    /// Simulates `plan` under `policy`.
    pub fn simulate(&self, plan: &KernelPlan, policy: GpuPolicy) -> GpuReport {
        match policy {
            GpuPolicy::CuFhe => self.simulate_cufhe(plan),
            GpuPolicy::CuFheBatched => self.simulate_cufhe_batched(plan),
            GpuPolicy::CudaGraphs => self.simulate_graphs(plan),
        }
    }

    /// The batched cuFHE policy: within each wave, gates of one kind —
    /// bucketed here by ascending opcode, since the plan's gate list
    /// mixes kinds — and fused LUTs of one bootstrapping group form
    /// vector batches of up to `SM` lanes. Every batch still pays full
    /// transfers, a launch and a blocking sync, and batches are
    /// serialized on the CPU thread — mixed gate kinds and
    /// inter-dependencies cannot share a batch.
    fn simulate_cufhe_batched(&self, plan: &KernelPlan) -> GpuReport {
        let ct = self.cpu.ciphertext_bytes;
        let sm = self.gpu.sm_count as u64;
        let mut total = 0.0;
        let mut kernel_busy = 0.0;
        let mut transfer = 0.0;
        let mut overhead = 0.0;
        let mut gates = 0u64;
        for wave in plan.waves() {
            let mut kinds = [0u64; 16];
            for t in wave.gates.iter().filter(|t| counts_toward_batch(t.kind)) {
                kinds[t.kind.opcode() as usize] += 1;
            }
            let luts = wave.lut_groups.iter().map(LutGroup::bootstraps);
            for count in kinds.into_iter().filter(|&n| n > 0).chain(luts) {
                gates += count;
                let mut left = count;
                while left > 0 {
                    let batch = left.min(sm);
                    left -= batch;
                    let t = self.gpu.transfer_s(3 * batch as usize, ct);
                    let o = self.gpu.launch_s + self.gpu.sync_s;
                    transfer += t;
                    overhead += o;
                    kernel_busy += self.gpu.kernel_s;
                    total += t + o + self.gpu.kernel_s;
                }
            }
        }
        GpuReport {
            total_s: total,
            kernel_busy_s: kernel_busy,
            transfer_s: transfer,
            overhead_s: overhead,
            gates,
        }
    }

    /// The cuFHE policy: per-gate blocking dispatch. Every gate pays two
    /// input uploads, a launch, the kernel, one output download and a
    /// sync — all serialized on the blocked CPU thread (Figure 8).
    fn simulate_cufhe(&self, plan: &KernelPlan) -> GpuReport {
        let gates: u64 = plan.batches.iter().map(SubGraph::bootstrapped).sum();
        let ct = self.cpu.ciphertext_bytes;
        let per_gate_transfer = self.gpu.transfer_s(3, ct);
        let per_gate_overhead = self.gpu.launch_s + self.gpu.sync_s;
        let total_s = gates as f64 * (per_gate_transfer + per_gate_overhead + self.gpu.kernel_s);
        GpuReport {
            total_s,
            kernel_busy_s: gates as f64 * self.gpu.kernel_s,
            transfer_s: gates as f64 * per_gate_transfer,
            overhead_s: gates as f64 * per_gate_overhead,
            gates,
        }
    }

    /// The CUDA-Graphs policy: the plan's batches as cut, kernels packed
    /// `SM`-wide per wave, build/execute overlap across batches
    /// (Figure 9). A batch with nothing to bootstrap — only a trailing
    /// one can be — builds no graph.
    fn simulate_graphs(&self, plan: &KernelPlan) -> GpuReport {
        let ct = self.cpu.ciphertext_bytes;
        let sm = self.gpu.sm_count as u64;
        // (gates, exec_s) per batch.
        let batches: Vec<(u64, f64)> = plan
            .batches
            .iter()
            .map(|batch| {
                let exec: f64 = batch
                    .waves
                    .iter()
                    .map(WavePlan::bootstrapped)
                    .filter(|&n| n > 0)
                    .map(|n| {
                        n.div_ceil(sm) as f64 * self.gpu.kernel_s
                            + n as f64 * self.gpu.graph_exec_node_s
                    })
                    .sum();
                (batch.bootstrapped(), exec)
            })
            .filter(|&(gates, _)| gates > 0)
            .collect();
        // Pipeline: build(0), then step i = max(exec(i), build(i+1)),
        // finally exec(last).
        let build: Vec<f64> =
            batches.iter().map(|(g, _)| *g as f64 * self.gpu.graph_build_node_s).collect();
        let (inputs, outputs) = (plan.inputs.len(), plan.outputs.len());
        let mut total = self.gpu.transfer_s(inputs, ct);
        if let Some(first) = build.first() {
            total += first + self.gpu.launch_s;
        }
        for (i, &(_, exec)) in batches.iter().enumerate() {
            let next_build = build.get(i + 1).copied().unwrap_or(0.0);
            total += exec.max(next_build);
        }
        total += self.gpu.transfer_s(outputs, ct);
        GpuReport {
            total_s: total,
            kernel_busy_s: batches.iter().map(|(_, e)| *e).sum(),
            transfer_s: self.gpu.transfer_s(inputs + outputs, ct),
            overhead_s: build.iter().sum::<f64>() + self.gpu.launch_s,
            gates: batches.iter().map(|(g, _)| g).sum(),
        }
    }

    /// Timeline of `n` gates under the cuFHE policy — the Figure 8
    /// reproduction.
    pub fn cufhe_timeline(&self, n: usize) -> Timeline {
        let ct = self.cpu.ciphertext_bytes;
        let mut t = Timeline::new();
        let mut now = 0.0;
        for i in 0..n {
            let h2d = self.gpu.transfer_s(2, ct).max(1e-4); // visible width
            t.push("PCIe", format!("H2D #{i}"), now, now + h2d);
            now += h2d;
            t.push("CPU", format!("launch #{i}"), now, now + self.gpu.launch_s);
            now += self.gpu.launch_s;
            t.push("GPU", format!("kernel #{i}"), now, now + self.gpu.kernel_s);
            now += self.gpu.kernel_s;
            let d2h = self.gpu.transfer_s(1, ct).max(1e-4);
            t.push("PCIe", format!("D2H #{i}"), now, now + d2h);
            now += d2h + self.gpu.sync_s;
        }
        t.record_telemetry("gpu-sim cuFHE");
        t
    }

    /// Timeline of `n` equal batches under the CUDA-Graphs policy — the
    /// Figure 9 reproduction (build of batch `i+1` overlapping execution
    /// of batch `i`).
    pub fn graphs_timeline(&self, n: usize, gates_per_batch: u64) -> Timeline {
        let sm = self.gpu.sm_count as u64;
        let build_s = gates_per_batch as f64 * self.gpu.graph_build_node_s;
        let exec_s = gates_per_batch.div_ceil(sm) as f64 * self.gpu.kernel_s
            + gates_per_batch as f64 * self.gpu.graph_exec_node_s;
        let mut t = Timeline::new();
        let mut build_done = build_s;
        t.push("CPU", "build #0", 0.0, build_done);
        let mut exec_done = build_done;
        for i in 0..n {
            let start = exec_done.max(build_done);
            t.push("GPU", format!("exec #{i}"), start, start + exec_s);
            exec_done = start + exec_s;
            if i + 1 < n {
                t.push("CPU", format!("build #{}", i + 1), build_done, build_done + build_s);
                build_done += build_s;
            }
        }
        t.record_telemetry("gpu-sim CUDA-graphs");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{capture, ladder, CaptureConfig};
    use crate::sim::{ClusterConfig, ClusterSim};
    use pytfhe_netlist::{GateKind, LutSpec, Netlist};

    #[test]
    fn pytfhe_beats_cufhe_by_paper_margin_on_wide_programs() {
        let sim = GpuSim::new(GpuCostModel::a5000(), CpuCostModel::paper());
        let plan = ladder(20, 2048, &CaptureConfig::default());
        let cufhe = sim.simulate(&plan, GpuPolicy::CuFhe);
        let pytfhe = sim.simulate(&plan, GpuPolicy::CudaGraphs);
        let ratio = cufhe.total_s / pytfhe.total_s;
        // The paper: "up to 61.5× better performance compared to the
        // baseline implemented with cuFHE".
        assert!(ratio > 40.0 && ratio < 90.0, "GPU speedup over cuFHE: {ratio}");
    }

    #[test]
    fn serial_programs_see_little_gpu_benefit() {
        let sim = GpuSim::new(GpuCostModel::a5000(), CpuCostModel::paper());
        let plan = ladder(200, 1, &CaptureConfig::default());
        let cufhe = sim.simulate(&plan, GpuPolicy::CuFhe);
        let pytfhe = sim.simulate(&plan, GpuPolicy::CudaGraphs);
        let ratio = cufhe.total_s / pytfhe.total_s;
        // Mostly-serial workloads (the paper's NR-Solver / Parrando
        // analysis with Nsight, Section V-A) cannot fill the SMs.
        assert!(ratio < 2.0, "serial GPU ratio {ratio}");
    }

    #[test]
    fn batched_cufhe_sits_between_per_gate_and_graphs() {
        // Same-type vector batching recovers some throughput on wide
        // same-kind waves, but launches/syncs/transfers per batch keep it
        // well short of the CUDA-Graphs backend.
        let sim = GpuSim::new(GpuCostModel::a5000(), CpuCostModel::paper());
        let plan = ladder(20, 2048, &CaptureConfig::default()); // all-NAND waves: best case
        let per_gate = sim.simulate(&plan, GpuPolicy::CuFhe).total_s;
        let batched = sim.simulate(&plan, GpuPolicy::CuFheBatched).total_s;
        let graphs = sim.simulate(&plan, GpuPolicy::CudaGraphs).total_s;
        assert!(batched < per_gate, "batching must help");
        assert!(graphs < batched, "CUDA graphs must beat blocking batches");
    }

    #[test]
    fn rtx4090_is_about_twice_a5000_on_wide_programs() {
        let cpu = CpuCostModel::paper();
        let a5000 = GpuSim::new(GpuCostModel::a5000(), cpu);
        let rtx = GpuSim::new(GpuCostModel::rtx4090(), cpu);
        let plan = ladder(20, 4096, &CaptureConfig::default());
        let a = a5000.simulate(&plan, GpuPolicy::CudaGraphs).total_s;
        let b = rtx.simulate(&plan, GpuPolicy::CudaGraphs).total_s;
        let ratio = a / b;
        // Table IV: 218.9 / 108.7 ≈ 2.0.
        assert!(ratio > 1.6 && ratio < 2.4, "4090/A5000 ratio {ratio}");
    }

    #[test]
    fn gpu_beats_single_core_by_paper_margin() {
        let cpu = CpuCostModel::paper();
        let sim = GpuSim::new(GpuCostModel::a5000(), cpu);
        let plan = ladder(20, 4096, &CaptureConfig::default());
        let gpu = sim.simulate(&plan, GpuPolicy::CudaGraphs);
        let single = (20 * 4096) as f64 * cpu.gate_s();
        let ratio = single / gpu.total_s;
        // Table IV implies A5000 ≈ 72× one CPU core (108.7 / 1.5).
        assert!(ratio > 45.0 && ratio < 90.0, "A5000 over single core: {ratio}");
    }

    #[test]
    fn a_fused_lut_costs_one_bootstrap_unless_affine() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let c = nl.add_input();
        // Majority cone: one programmable bootstrap.
        let maj = nl.add_lut(LutSpec::new(3, 3, 0b1110_1000), &[a, b, c]).unwrap();
        // Width-1 negation: affine, free.
        let inv = nl.add_lut(LutSpec::new(1, 3, 0b01), &[maj]).unwrap();
        nl.mark_output(inv).unwrap();
        let plan = capture(&nl, &CaptureConfig::default()).unwrap();
        assert_eq!((plan.num_luts(), plan.bootstraps()), (2, 1), "both LUT nodes are tasks");
        let waves: Vec<_> = plan.waves().collect();
        assert!(!waves[0].lut_groups[0].is_affine() && waves[1].lut_groups[0].is_affine());
        assert_eq!(waves.iter().map(|w| w.bootstrapped()).collect::<Vec<_>>(), [1, 0]);
        let cluster = ClusterSim::new(CpuCostModel::paper(), ClusterConfig::one_node());
        let report = cluster.simulate(&plan);
        assert_eq!((report.waves, report.gates), (1, 1));
        let gpu = GpuSim::new(GpuCostModel::a5000(), CpuCostModel::paper());
        for policy in [GpuPolicy::CuFhe, GpuPolicy::CuFheBatched, GpuPolicy::CudaGraphs] {
            assert_eq!(gpu.simulate(&plan, policy).gates, 1, "{policy:?}");
        }
    }

    #[test]
    fn every_policy_charges_the_fused_luts_of_a_covered_netlist() {
        use pytfhe_netlist::opt::{lut_cover, LutCoverConfig};
        // A 6-bit ripple-carry adder: each full adder's sum and carry
        // cones fuse into programmable bootstraps.
        let mut nl = Netlist::new();
        let (xs, ys): (Vec<_>, Vec<_>) = (0..6).map(|_| (nl.add_input(), nl.add_input())).unzip();
        let mut carry = nl.add_gate(GateKind::And, xs[0], ys[0]).unwrap();
        let sum = nl.add_gate(GateKind::Xor, xs[0], ys[0]).unwrap();
        nl.mark_output(sum).unwrap();
        for (&x, &y) in xs.iter().zip(&ys).skip(1) {
            let half = nl.add_gate(GateKind::Xor, x, y).unwrap();
            let sum = nl.add_gate(GateKind::Xor, half, carry).unwrap();
            let both = nl.add_gate(GateKind::And, x, y).unwrap();
            let carried = nl.add_gate(GateKind::And, half, carry).unwrap();
            carry = nl.add_gate(GateKind::Or, both, carried).unwrap();
            nl.mark_output(sum).unwrap();
        }
        nl.mark_output(carry).unwrap();
        let (lowered, _) = lut_cover(&nl, &LutCoverConfig::default()).unwrap();
        let plan = capture(&lowered, &CaptureConfig::default()).unwrap();
        assert!(plan.num_luts() > 0, "the cover fused no cone");
        let sim = GpuSim::new(GpuCostModel::a5000(), CpuCostModel::paper());
        let [per_gate, batched, graphs] =
            [GpuPolicy::CuFhe, GpuPolicy::CuFheBatched, GpuPolicy::CudaGraphs]
                .map(|policy| sim.simulate(&plan, policy));
        let costed: u64 = plan.waves().map(WavePlan::bootstrapped).sum();
        assert_eq!([per_gate.gates, batched.gates, graphs.gates], [costed; 3]);
        assert!(graphs.total_s < batched.total_s && batched.total_s <= per_gate.total_s);
    }

    #[test]
    fn cufhe_timeline_is_serialized() {
        let sim = GpuSim::new(GpuCostModel::a5000(), CpuCostModel::paper());
        let t = sim.cufhe_timeline(4);
        // Segments never overlap: every start is at or after the previous
        // segment's end... within each lane trivially; globally because
        // the CPU blocks.
        let mut prev_end = 0.0f64;
        for s in t.segments() {
            assert!(s.start_s >= prev_end - 1e-12, "{s:?} overlaps");
            prev_end = prev_end.max(s.end_s);
        }
        assert_eq!(t.segments().len(), 4 * 4 - 1 + 1);
    }

    #[test]
    fn graphs_timeline_overlaps_build_and_exec() {
        let sim = GpuSim::new(GpuCostModel::a5000(), CpuCostModel::paper());
        let t = sim.graphs_timeline(3, 100_000);
        let cpu_busy = t.lane_busy_s("CPU");
        let gpu_busy = t.lane_busy_s("GPU");
        assert!(t.makespan_s() < cpu_busy + gpu_busy, "pipeline must overlap");
    }
}
