//! The calibrated cost model behind the performance simulators.
//!
//! All constants trace to measurements reported in the paper (see each
//! field's documentation); DESIGN.md records the calibration reasoning.
//! The simulators use these to predict wall-clock time from program
//! *structure* (wave sizes, gate mixes) — absolute times are only as good
//! as the calibration, but the paper's comparisons are ratios of exactly
//! these structural quantities.

/// Cost model of the CPU backends (single-core and the Ray-style
/// distributed cluster of Section IV-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCostModel {
    /// Seconds of blind rotation per bootstrapped gate (the dominant
    /// segment of Figure 7).
    pub blind_rotation_s: f64,
    /// Seconds of key switching per gate (second segment of Figure 7).
    pub key_switching_s: f64,
    /// Seconds of linear/other work per gate.
    pub other_s: f64,
    /// Serialized ciphertext size (the paper: "only 2.46 KB").
    pub ciphertext_bytes: usize,
    /// Driver-side cost of submitting one task to the cluster scheduler
    /// (Ray task submission; bounds scaling at high worker counts).
    pub task_submit_s: f64,
    /// Worker-side per-task overhead: deserialization, scheduling, and
    /// the ciphertext communication the paper measures at 0.094 % of
    /// runtime.
    pub task_overhead_s: f64,
    /// Per-wave synchronization cost (the barrier between Algorithm 1
    /// waves).
    pub wave_barrier_s: f64,
}

impl CpuCostModel {
    /// Constants calibrated to the paper's testbed (2× Xeon Gold 5215,
    /// Table II; Figure 7 gate profile; Figure 10 scaling).
    pub fn paper() -> Self {
        CpuCostModel {
            blind_rotation_s: 10.5e-3,
            key_switching_s: 2.4e-3,
            other_s: 0.1e-3,
            ciphertext_bytes: 2460,
            task_submit_s: 0.21e-3,
            task_overhead_s: 0.40e-3,
            wave_barrier_s: 1.0e-3,
        }
    }

    /// Total single-core seconds per bootstrapped gate (~13 ms).
    pub fn gate_s(&self) -> f64 {
        self.blind_rotation_s + self.key_switching_s + self.other_s
    }

    /// The communication seconds per gate task (3 ciphertexts: two
    /// inputs in, one output back). Calibrated so that communication is
    /// ~0.094 % of a gate evaluation, as profiled in Figure 7.
    pub fn comm_s_per_gate(&self) -> f64 {
        self.gate_s() * 0.00094
    }
}

impl Default for CpuCostModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Cost model of a GPU backend (Section IV-E).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCostModel {
    /// Human-readable device name.
    pub name: &'static str,
    /// Streaming multiprocessors: independent gates evaluable
    /// concurrently.
    pub sm_count: usize,
    /// Seconds of one bootstrapped-gate kernel (cuFHE-generation kernels;
    /// gates on distinct SMs overlap fully).
    pub kernel_s: f64,
    /// Seconds per kernel launch from the CPU (paid per cuFHE call; CUDA
    /// Graphs amortize it across a whole batch).
    pub launch_s: f64,
    /// Seconds for the CPU-blocking synchronization ending a cuFHE call.
    pub sync_s: f64,
    /// Host-device bandwidth in bytes/second (PCIe).
    pub pcie_bytes_per_s: f64,
    /// CPU-side cost of adding one node while *building* a CUDA graph.
    pub graph_build_node_s: f64,
    /// GPU-side per-node overhead when *executing* a CUDA graph.
    pub graph_exec_node_s: f64,
}

impl GpuCostModel {
    /// NVIDIA RTX A5000 (Table III), calibrated so PyTFHE's batched
    /// backend lands at the paper's ~60× advantage over per-gate cuFHE
    /// dispatch and ~72× over one CPU core on wide programs.
    pub fn a5000() -> Self {
        GpuCostModel {
            name: "A5000",
            sm_count: 64,
            kernel_s: 10.0e-3,
            launch_s: 0.20e-3,
            sync_s: 0.10e-3,
            pcie_bytes_per_s: 12.0e9,
            graph_build_node_s: 2.0e-6,
            graph_exec_node_s: 1.0e-6,
        }
    }

    /// NVIDIA RTX 4090 (Table III): twice the SMs of the A5000 in this
    /// model, reproducing the paper's ~2× gap between the two GPUs
    /// (Table IV: 218.9 / 108.7).
    pub fn rtx4090() -> Self {
        GpuCostModel {
            name: "4090",
            sm_count: 128,
            kernel_s: 10.0e-3,
            launch_s: 0.15e-3,
            sync_s: 0.08e-3,
            pcie_bytes_per_s: 25.0e9,
            graph_build_node_s: 2.0e-6,
            graph_exec_node_s: 0.5e-6,
        }
    }

    /// Seconds to move `n` ciphertexts of `ct_bytes` across PCIe.
    pub fn transfer_s(&self, n: usize, ct_bytes: usize) -> f64 {
        (n * ct_bytes) as f64 / self.pcie_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cpu_gate_cost_is_about_13ms() {
        let m = CpuCostModel::paper();
        assert!((m.gate_s() - 13.0e-3).abs() < 0.5e-3, "{}", m.gate_s());
        assert!(m.blind_rotation_s > m.key_switching_s);
        assert_eq!(m.ciphertext_bytes, 2460);
    }

    #[test]
    fn communication_fraction_matches_figure_7() {
        let m = CpuCostModel::paper();
        let frac = m.comm_s_per_gate() / m.gate_s();
        assert!((frac - 0.00094).abs() < 1e-6, "comm fraction {frac}");
    }

    #[test]
    fn gpu_models_are_ordered() {
        let a = GpuCostModel::a5000();
        let b = GpuCostModel::rtx4090();
        assert_eq!(b.sm_count, 2 * a.sm_count);
        assert!(b.pcie_bytes_per_s > a.pcie_bytes_per_s);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let g = GpuCostModel::a5000();
        let one = g.transfer_s(1, 2460);
        let ten = g.transfer_s(10, 2460);
        assert!((ten - 10.0 * one).abs() < 1e-12);
    }
}
