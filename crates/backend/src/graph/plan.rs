//! The captured execution plan: a netlist flattened into sub-graph
//! batches of waves, each wave one gate list (every task carrying its
//! own gate kind) plus its fused-LUT groups, and a byte-level codec so
//! plans can be shipped to (or cached by) a remote evaluator exactly
//! like the paper's serialized CUDA graphs.

use crate::engine::boot_gate;
use crate::error::ExecError;
use pytfhe_netlist::{GateKind, LutSpec};
use pytfhe_wire as wire;

/// One gate instance: evaluate `kind` on value slots `a` and `b`,
/// writing slot `out`. Unary gates read only `a`; constants read neither
/// (both operands still carry valid slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateTask {
    /// The gate function.
    pub kind: GateKind,
    /// Destination value slot (the netlist node id).
    pub out: u32,
    /// First operand slot.
    pub a: u32,
    /// Second operand slot.
    pub b: u32,
}

impl GateTask {
    /// Operand slots the task reads: none for constants, only `a` for
    /// unary gates, both otherwise.
    pub(crate) fn reads(&self) -> usize {
        if self.kind.is_const() {
            0
        } else {
            2 - usize::from(self.kind.is_unary())
        }
    }
}

/// One fused LUT instance inside a batched programmable-bootstrap
/// kernel: look up `table` on the message-encoded leaves in `ins` (only
/// the group width's prefix is read; unused slots repeat a valid slot,
/// exactly as [`pytfhe_netlist::Node::Lut`] pads them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutTask {
    /// Destination value slot (the netlist node id).
    pub out: u32,
    /// Truth table: bit `j` is the output for leaf pattern `j`.
    pub table: u16,
    /// Leaf value slots, LSB-first.
    pub ins: [u32; 4],
}

/// All fused LUTs of one width and precision within one wave — replayed
/// as a single batched programmable-bootstrap launch. Capture keeps
/// groups *homogeneous*: either every task bootstraps or every task is
/// affine (width-1 constants, buffers, negations), so a replay picks the
/// batched-PBS or linear path per group, never per task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutGroup {
    /// Leaves read by every task.
    pub width: u8,
    /// Message precision (bits) of the wire encoding.
    pub precision: u8,
    /// The independent LUT instances.
    pub tasks: Vec<LutTask>,
}

impl LutGroup {
    /// The [`LutSpec`] of one task in this group.
    pub fn spec_of(&self, task: &LutTask) -> LutSpec {
        LutSpec::new(self.width, self.precision, task.table)
    }

    /// Programmable bootstraps this group launches.
    pub fn bootstraps(&self) -> u64 {
        self.tasks.iter().map(|t| self.spec_of(t).bootstraps()).sum()
    }

    /// Whether every task is affine (evaluated without a bootstrap).
    pub fn is_affine(&self) -> bool {
        self.bootstraps() == 0
    }
}

/// One topological wave: its tasks are mutually independent (they only
/// read slots written by earlier waves), so a replay may run them in any
/// order or in parallel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WavePlan {
    /// The wave's gates, in (opcode, node id) order as captured; a
    /// replay batches gates of different kinds into one launch.
    pub gates: Vec<GateTask>,
    /// Same-width fused-LUT kernel groups (empty on boolean-decomposed
    /// programs).
    pub lut_groups: Vec<LutGroup>,
}

impl WavePlan {
    /// Gates in the wave (fused LUTs not included; see
    /// [`WavePlan::num_luts`]).
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Fused LUT tasks across all LUT groups.
    pub fn num_luts(&self) -> usize {
        self.lut_groups.iter().map(|g| g.tasks.len()).sum()
    }

    /// Every task the wave stages: gates plus fused LUTs.
    pub fn num_tasks(&self) -> usize {
        self.num_gates() + self.num_luts()
    }

    /// Tasks the simulators charge a device slot for (gates but
    /// constants and buffers, see [`counts_toward_batch`], plus the
    /// programmable bootstraps of the wave's fused LUTs): the count the
    /// batch-cut rule accumulates.
    pub fn bootstrapped(&self) -> u64 {
        self.gates.iter().filter(|t| counts_toward_batch(t.kind)).count() as u64
            + self.lut_groups.iter().map(LutGroup::bootstraps).sum::<u64>()
    }

    /// Bootstraps the wave executes: binary gates plus non-affine LUT
    /// cones (`Not`, `Buf`, constants, and affine LUTs are linear).
    pub fn bootstraps(&self) -> u64 {
        self.gates.iter().filter(|t| boot_gate(t.kind).is_some()).count() as u64
            + self.lut_groups.iter().map(LutGroup::bootstraps).sum::<u64>()
    }

    /// Re-cuts the wave into sub-waves of at most `bound` bootstraps
    /// each (clamped to at least 1), every task in exactly one of them,
    /// task order kept: the wave's `i`-th bootstrapping task, counted
    /// over its gates and then its LUT groups, lands in sub-wave
    /// `i / bound`, linear tasks cost nothing and stay in the first.
    /// Tasks of one wave are independent, so the sub-waves may run in any
    /// order, one after another or together. A wave within the bound
    /// comes back as it is.
    pub fn split(self, bound: usize) -> Vec<WavePlan> {
        let bound = bound.max(1);
        let parts = (self.bootstraps() as usize).div_ceil(bound);
        if parts <= 1 {
            return vec![self];
        }
        let mut out = vec![WavePlan::default(); parts];
        let mut dealt = 0;
        for task in self.gates {
            let mut part = 0;
            if boot_gate(task.kind).is_some() {
                part = dealt / bound;
                dealt += 1;
            }
            out[part].gates.push(task);
        }
        // Where a LUT group of `len` tasks lands: (sub-wave, run of tasks).
        let mut runs = |len: usize, boots: bool| -> Vec<(usize, std::ops::Range<usize>)> {
            if !boots {
                return vec![(0, 0..len)];
            }
            let (start, end) = (dealt, dealt + len);
            dealt = end;
            (start / bound..end.div_ceil(bound))
                .map(|j| (j, (j * bound).max(start) - start..((j + 1) * bound).min(end) - start))
                .collect()
        };
        for group in self.lut_groups {
            let (width, precision) = (group.width, group.precision);
            for (part, run) in runs(group.tasks.len(), !group.is_affine()) {
                let tasks = group.tasks[run].to_vec();
                out[part].lut_groups.push(LutGroup { width, precision, tasks });
            }
        }
        out
    }
}

/// Whether `kind` counts toward the batch-cut budget and occupies a
/// device slot in the simulators ([`crate::sim`]): constants and buffers
/// are free; everything else (including `Not`, which the device model
/// schedules even though it is bootstrap-free) is counted.
pub fn counts_toward_batch(kind: GateKind) -> bool {
    !kind.is_const() && kind != GateKind::Buf
}

/// A contiguous run of waves executed as one batch — the unit the
/// CUDA-Graphs backend defines as a single device graph (paper
/// Figure 9).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubGraph {
    /// The member waves in topological order.
    pub waves: Vec<WavePlan>,
}

impl SubGraph {
    /// Bootstrapped gates in the batch.
    pub fn bootstrapped(&self) -> u64 {
        self.waves.iter().map(WavePlan::bootstrapped).sum()
    }
}

/// A complete captured plan for one netlist. Replaying it against fresh
/// inputs reproduces `execute` bit for bit without touching the netlist
/// again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPlan {
    /// Fingerprint of the source netlist
    /// ([`crate::checkpoint::netlist_fingerprint`]); replays refuse a
    /// mismatched program and the plan cache keys on it.
    pub fingerprint: u64,
    /// Value slots the replay arena must hold (netlist node count).
    pub num_nodes: usize,
    /// Slots fed by the primary inputs, in program order.
    pub inputs: Vec<u32>,
    /// Slots read out as primary outputs, in program order.
    pub outputs: Vec<u32>,
    /// The sub-graph batches in execution order.
    pub batches: Vec<SubGraph>,
    /// Message precision (bits) of every wire on a LUT-lowered program,
    /// or 0 for boolean-decomposed programs. Nonzero precision switches
    /// constants to the message encoding and marks the plan for the v3
    /// wire layout.
    pub message_precision: u8,
}

impl KernelPlan {
    /// Every wave of every batch, in execution order.
    pub fn waves(&self) -> impl Iterator<Item = &WavePlan> {
        self.batches.iter().flat_map(|b| &b.waves)
    }

    /// Total gates across all batches.
    pub fn num_gates(&self) -> usize {
        self.waves().map(WavePlan::num_gates).sum()
    }

    /// Total fused LUT tasks across all batches.
    pub fn num_luts(&self) -> usize {
        self.waves().map(WavePlan::num_luts).sum()
    }

    /// Whether any wave carries fused LUT groups.
    pub fn has_luts(&self) -> bool {
        self.waves().any(|w| !w.lut_groups.is_empty())
    }

    /// Bootstraps a replay executes: binary gates plus non-affine LUT
    /// cones (`Not`, `Buf`, constants, and affine LUTs are linear).
    pub fn bootstraps(&self) -> u64 {
        self.waves().map(WavePlan::bootstraps).sum()
    }

    /// Scheduling waves across all batches.
    pub fn num_waves(&self) -> usize {
        self.batches.iter().map(|b| b.waves.len()).sum()
    }

    /// The live range of every value slot, as `(written, last_read)`
    /// indices into [`KernelPlan::waves`]: the wave that computes the
    /// slot (`u32::MAX` for inputs, which no wave writes) and the last
    /// wave that reads it (0 if none; `u32::MAX` for outputs, which are
    /// read after every wave). After wave `k`, the values a later wave
    /// or the result still needs are exactly the slots with
    /// `written <= k < last_read`.
    pub fn live_ranges(&self) -> Vec<(u32, u32)> {
        let mut ranges = vec![(u32::MAX, 0); self.num_nodes];
        for (w, wave) in self.waves().enumerate() {
            let w = w as u32;
            for t in &wave.gates {
                ranges[t.out as usize].0 = w;
                for &slot in &[t.a, t.b][..t.reads()] {
                    ranges[slot as usize].1 = w;
                }
            }
            for group in &wave.lut_groups {
                for t in &group.tasks {
                    ranges[t.out as usize].0 = w;
                    for &slot in &t.ins[..usize::from(group.width)] {
                        ranges[slot as usize].1 = w;
                    }
                }
            }
        }
        for &slot in &self.outputs {
            ranges[slot as usize].1 = u32::MAX;
        }
        ranges
    }
}

/// Plan body version inside the wire envelope for boolean-decomposed
/// plans (v1 was the pre-envelope `PTKG` layout, no longer read).
const PLAN_WIRE_VERSION: u16 = 2;
/// Plan body version for LUT-lowered plans: v2 plus a message-precision
/// byte after the node count and a fused-LUT group section per wave.
/// LUT-free plans keep encoding as v2, byte for byte, so existing
/// cached artifacts and golden fixtures are untouched.
const PLAN_WIRE_VERSION_LUT: u16 = 3;

impl KernelPlan {
    /// Serializes the plan into a checksummed
    /// [`wire envelope`](pytfhe_wire): magic, format id, version,
    /// payload length, CRC32C over header and payload. Plans without
    /// fused LUTs use the v2 body; LUT-lowered plans the v3 body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let with_luts = self.has_luts() || self.message_precision != 0;
        let version = if with_luts { PLAN_WIRE_VERSION_LUT } else { PLAN_WIRE_VERSION };
        wire::encode(wire::Format::KernelPlan, version, &self.body_bytes(with_luts))
    }

    /// The envelope payload (`with_luts` selects the v3 extensions).
    fn body_bytes(&self, with_luts: bool) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.fingerprint);
        put_u64(&mut out, self.num_nodes as u64);
        if with_luts {
            out.push(self.message_precision);
        }
        put_u32_list(&mut out, &self.inputs);
        put_u32_list(&mut out, &self.outputs);
        put_u32(&mut out, self.batches.len() as u32);
        for batch in &self.batches {
            put_u32(&mut out, batch.waves.len() as u32);
            for wave in &batch.waves {
                // Each run of one kind is a group record: a captured
                // wave, ordered by opcode, writes one per kind.
                let runs = || wave.gates.chunk_by(|x, y| x.kind == y.kind);
                put_u32(&mut out, runs().count() as u32);
                for run in runs() {
                    out.push(run[0].kind.opcode());
                    put_u32(&mut out, run.len() as u32);
                    for t in run {
                        put_u32(&mut out, t.out);
                        put_u32(&mut out, t.a);
                        put_u32(&mut out, t.b);
                    }
                }
                if with_luts {
                    put_u32(&mut out, wave.lut_groups.len() as u32);
                    for group in &wave.lut_groups {
                        out.push(group.width);
                        out.push(group.precision);
                        put_u32(&mut out, group.tasks.len() as u32);
                        for t in &group.tasks {
                            put_u32(&mut out, t.out);
                            out.extend_from_slice(&t.table.to_le_bytes());
                            for slot in t.ins {
                                put_u32(&mut out, slot);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Decodes a plan produced by [`KernelPlan::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Wire`] when the bytes are not a valid
    /// kernel-plan envelope (no envelope magic, checksum mismatch,
    /// truncation, version skew) and [`ExecError::BadPlan`] on
    /// body-level corruption: truncation, unknown opcodes, or slot ids
    /// outside the declared arena.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ExecError> {
        let env = wire::decode_expecting(
            bytes,
            wire::Format::KernelPlan,
            PLAN_WIRE_VERSION..=PLAN_WIRE_VERSION_LUT,
        )?;
        Self::parse_body(env.payload, env.version == PLAN_WIRE_VERSION_LUT)
    }

    /// Parses the envelope payload (`with_luts` for the v3 extensions).
    fn parse_body(bytes: &[u8], with_luts: bool) -> Result<Self, ExecError> {
        let mut r = Reader { bytes, pos: 0 };
        let fingerprint = r.u64()?;
        let num_nodes = usize::try_from(r.u64()?).map_err(|_| bad("node count overflow"))?;
        let message_precision = if with_luts { r.u8()? } else { 0 };
        if message_precision > 4 {
            return Err(bad("message precision out of range"));
        }
        let inputs = r.u32_list()?;
        let outputs = r.u32_list()?;
        let num_batches = r.u32()? as usize;
        let mut batches = Vec::with_capacity(num_batches.min(1024));
        for _ in 0..num_batches {
            let num_waves = r.u32()? as usize;
            let mut waves = Vec::with_capacity(num_waves.min(1024));
            for _ in 0..num_waves {
                let num_groups = r.u32()? as usize;
                let mut gates = Vec::new();
                for _ in 0..num_groups {
                    let kind = GateKind::from_opcode(r.u8()?).map_err(|_| bad("unknown opcode"))?;
                    let num_tasks = r.u32()? as usize;
                    gates.reserve(num_tasks.min(65_536));
                    for _ in 0..num_tasks {
                        gates.push(GateTask { kind, out: r.u32()?, a: r.u32()?, b: r.u32()? });
                    }
                }
                let mut lut_groups = Vec::new();
                if with_luts {
                    let num_lut_groups = r.u32()? as usize;
                    lut_groups.reserve(num_lut_groups.min(1024));
                    for _ in 0..num_lut_groups {
                        let width = r.u8()?;
                        let precision = r.u8()?;
                        if !(1..=4).contains(&width) || precision < width || precision > 4 {
                            return Err(bad("bad LUT group shape"));
                        }
                        let num_tasks = r.u32()? as usize;
                        let mut tasks = Vec::with_capacity(num_tasks.min(65_536));
                        for _ in 0..num_tasks {
                            let out = r.u32()?;
                            let table = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
                            let ins = [r.u32()?, r.u32()?, r.u32()?, r.u32()?];
                            tasks.push(LutTask { out, table, ins });
                        }
                        lut_groups.push(LutGroup { width, precision, tasks });
                    }
                }
                waves.push(WavePlan { gates, lut_groups });
            }
            batches.push(SubGraph { waves });
        }
        if r.pos != bytes.len() {
            return Err(bad("trailing bytes"));
        }
        let plan =
            KernelPlan { fingerprint, num_nodes, inputs, outputs, batches, message_precision };
        plan.check_slots()?;
        Ok(plan)
    }

    /// Verifies every referenced slot fits the declared arena.
    fn check_slots(&self) -> Result<(), ExecError> {
        let n = self.num_nodes as u64;
        let ok = |slot: u32| u64::from(slot) < n;
        let wires = self.inputs.iter().chain(&self.outputs).all(|&s| ok(s));
        let gates = self.waves().flat_map(|w| &w.gates).all(|t| ok(t.out) && ok(t.a) && ok(t.b));
        let luts = self
            .waves()
            .flat_map(|w| &w.lut_groups)
            .flat_map(|g| &g.tasks)
            .all(|t| ok(t.out) && t.ins.iter().all(|&s| ok(s)));
        if wires && gates && luts {
            Ok(())
        } else {
            Err(bad("slot out of range"))
        }
    }
}

fn bad(reason: &'static str) -> ExecError {
    ExecError::BadPlan { reason }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32_list(out: &mut Vec<u8>, list: &[u32]) {
    put_u32(out, list.len() as u32);
    for &v in list {
        put_u32(out, v);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ExecError> {
        let end = self.pos.checked_add(n).ok_or_else(|| bad("length overflow"))?;
        if end > self.bytes.len() {
            return Err(bad("truncated"));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ExecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ExecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ExecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u32_list(&mut self) -> Result<Vec<u32>, ExecError> {
        let n = self.u32()? as usize;
        let mut list = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            list.push(self.u32()?);
        }
        Ok(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> KernelPlan {
        KernelPlan {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            num_nodes: 7,
            inputs: vec![0, 1],
            outputs: vec![6, 5],
            batches: vec![
                SubGraph {
                    waves: vec![WavePlan {
                        gates: vec![
                            GateTask { kind: GateKind::Nand, out: 2, a: 0, b: 1 },
                            GateTask { kind: GateKind::Nand, out: 3, a: 1, b: 0 },
                            GateTask { kind: GateKind::Not, out: 4, a: 0, b: 0 },
                        ],
                        lut_groups: vec![],
                    }],
                },
                SubGraph {
                    waves: vec![WavePlan {
                        gates: vec![
                            GateTask { kind: GateKind::Xor, out: 5, a: 2, b: 3 },
                            GateTask { kind: GateKind::Xor, out: 6, a: 3, b: 4 },
                        ],
                        lut_groups: vec![],
                    }],
                },
            ],
            message_precision: 0,
        }
    }

    fn sample_lut_plan() -> KernelPlan {
        KernelPlan {
            fingerprint: 0x1234_5678_9ABC_DEF0,
            num_nodes: 6,
            inputs: vec![0, 1, 2],
            outputs: vec![5],
            batches: vec![SubGraph {
                waves: vec![
                    WavePlan {
                        gates: vec![],
                        lut_groups: vec![LutGroup {
                            width: 3,
                            precision: 3,
                            tasks: vec![
                                LutTask { out: 3, table: 0b1001_0110, ins: [0, 1, 2, 0] },
                                LutTask { out: 4, table: 0b1110_1000, ins: [0, 1, 2, 0] },
                            ],
                        }],
                    },
                    WavePlan {
                        gates: vec![],
                        lut_groups: vec![LutGroup {
                            width: 1,
                            precision: 3,
                            tasks: vec![LutTask { out: 5, table: 0b01, ins: [3, 3, 3, 3] }],
                        }],
                    },
                ],
            }],
            message_precision: 3,
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let plan = sample_plan();
        let bytes = plan.to_bytes();
        assert_eq!(KernelPlan::from_bytes(&bytes).unwrap(), plan);
    }

    #[test]
    fn lut_free_plans_stay_on_the_v2_layout() {
        // A LUT-free plan's bytes must not change when the encoder
        // learns the v3 extensions: cached artifacts written before the
        // LUT era stay valid, and v2-only readers keep working.
        let plan = sample_plan();
        let bytes = plan.to_bytes();
        let env = pytfhe_wire::decode(&bytes).unwrap();
        assert_eq!(env.version, PLAN_WIRE_VERSION);
    }

    #[test]
    fn lut_plans_round_trip_on_the_v3_layout() {
        let plan = sample_lut_plan();
        assert!(plan.has_luts());
        let bytes = plan.to_bytes();
        let env = pytfhe_wire::decode(&bytes).unwrap();
        assert_eq!(env.version, PLAN_WIRE_VERSION_LUT);
        assert_eq!(KernelPlan::from_bytes(&bytes).unwrap(), plan);
    }

    #[test]
    fn lut_accounting_distinguishes_affine_cones() {
        let plan = sample_lut_plan();
        assert_eq!(plan.num_luts(), 3);
        // Two width-3 cones bootstrap; the width-1 negation is affine.
        assert_eq!(plan.bootstraps(), 2);
        let wave1 = &plan.batches[0].waves[1];
        assert!(wave1.lut_groups[0].is_affine());
        assert_eq!(wave1.bootstrapped(), 0);
    }

    #[test]
    fn split_keeps_every_task_once_and_every_sub_wave_within_its_bound() {
        let gates = |kind, outs: std::ops::Range<u32>| {
            outs.map(move |out| GateTask { kind, out, a: 0, b: 1 })
        };
        let luts = |width, table, outs: std::ops::Range<u32>| LutGroup {
            width,
            precision: 3,
            tasks: outs.map(|out| LutTask { out, table, ins: [0, 1, 2, 0] }).collect(),
        };
        let wave = WavePlan {
            gates: gates(GateKind::Nand, 10..15)
                .chain(gates(GateKind::Not, 15..18))
                .chain(gates(GateKind::Xor, 18..25))
                .collect(),
            lut_groups: vec![luts(3, 0b1001_0110, 25..29), luts(1, 0b01, 29..31)],
        };
        assert_eq!(wave.bootstraps(), 16);
        // Every task with its kernel: (slot, opcode, 0) or (slot, 16 + width, table).
        let tasks_of = |waves: &[WavePlan]| {
            let gates = waves.iter().flat_map(|w| &w.gates);
            let luts = waves.iter().flat_map(|w| &w.lut_groups);
            let mut all: Vec<_> = gates
                .map(|t| (t.out, t.kind.opcode(), 0))
                .chain(
                    luts.flat_map(|g| g.tasks.iter().map(move |t| (t.out, 16 + g.width, t.table))),
                )
                .collect();
            all.sort_unstable();
            all
        };
        for bound in 0..=17 {
            let parts = wave.clone().split(bound);
            assert_eq!(tasks_of(&parts), tasks_of(std::slice::from_ref(&wave)), "bound {bound}");
            assert_eq!(parts.len(), 16usize.div_ceil(bound.max(1)), "bound {bound}");
            for part in &parts {
                assert!(part.bootstraps() <= bound.max(1) as u64, "bound {bound}");
                assert!(part.num_tasks() > 0, "bound {bound}");
            }
        }
        assert_eq!(wave.clone().split(16), vec![wave]);
    }

    #[test]
    fn rejects_malformed_lut_groups() {
        let mut plan = sample_lut_plan();
        plan.batches[0].waves[0].lut_groups[0].tasks[0].ins[1] = 99;
        assert!(matches!(
            KernelPlan::from_bytes(&plan.to_bytes()),
            Err(ExecError::BadPlan { reason: "slot out of range" })
        ));
        let mut plan = sample_lut_plan();
        plan.batches[0].waves[0].lut_groups[0].width = 5;
        assert!(matches!(
            KernelPlan::from_bytes(&plan.to_bytes()),
            Err(ExecError::BadPlan { reason: "bad LUT group shape" })
        ));
    }

    #[test]
    fn rejects_corruption() {
        let plan = sample_plan();
        let good = plan.to_bytes();

        // Envelope-level failures: magic, truncation, trailing bytes,
        // and any payload bit flip (caught by the CRC32C).
        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            KernelPlan::from_bytes(&wrong_magic),
            Err(ExecError::Wire(pytfhe_wire::WireError::BadMagic))
        ));

        assert!(matches!(
            KernelPlan::from_bytes(&good[..good.len() - 1]),
            Err(ExecError::Wire(pytfhe_wire::WireError::LengthMismatch { .. }))
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            KernelPlan::from_bytes(&trailing),
            Err(ExecError::Wire(pytfhe_wire::WireError::LengthMismatch { .. }))
        ));

        for i in (0..good.len()).step_by(3) {
            let mut flipped = good.clone();
            flipped[i] ^= 0x20;
            assert!(KernelPlan::from_bytes(&flipped).is_err(), "flip at byte {i} accepted");
        }

        // Body-level failures behind a valid checksum keep their reasons.
        let body = plan.body_bytes(false);
        let enveloped =
            |body: &[u8]| wire::encode(wire::Format::KernelPlan, PLAN_WIRE_VERSION, body);
        assert!(matches!(
            KernelPlan::from_bytes(&enveloped(&body[..body.len() - 1])),
            Err(ExecError::BadPlan { reason: "truncated" })
        ));
        let body_trailing = [body.as_slice(), &[0]].concat();
        assert!(matches!(
            KernelPlan::from_bytes(&enveloped(&body_trailing)),
            Err(ExecError::BadPlan { reason: "trailing bytes" })
        ));
    }

    #[test]
    fn rejects_out_of_range_slots() {
        let mut plan = sample_plan();
        plan.batches[1].waves[0].gates[0].a = 99;
        assert!(matches!(
            KernelPlan::from_bytes(&plan.to_bytes()),
            Err(ExecError::BadPlan { reason: "slot out of range" })
        ));
    }

    #[test]
    fn accounting_helpers_agree() {
        let plan = sample_plan();
        assert_eq!(plan.num_gates(), 5);
        assert_eq!(plan.num_waves(), 2);
        // Slot 4 is written by a `Not`, which reads only its `a`.
        let m = u32::MAX;
        let live = vec![(m, 0), (m, 0), (0, 1), (0, 1), (0, 1), (1, m), (1, m)];
        assert_eq!(plan.live_ranges(), live);
        // Not counts toward the cut budget; Buf and constants would not.
        assert_eq!(plan.batches[0].bootstrapped(), 3);
        assert!(counts_toward_batch(GateKind::Not));
        assert!(!counts_toward_batch(GateKind::Buf));
        assert!(!counts_toward_batch(GateKind::Const0));
    }
}
