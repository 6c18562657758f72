//! The captured execution plan: a netlist flattened into one list of
//! topological waves, each wave one gate list (every task carrying its
//! own gate kind), and a byte-level codec so plans can be shipped to (or
//! cached by) a remote evaluator exactly like the paper's serialized CUDA
//! graphs.

use crate::engine::boot_gate;
use crate::error::ExecError;
use pytfhe_netlist::GateKind;
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

/// One topological wave: its tasks are mutually independent (they only
/// read slots written by earlier waves), so a replay may run them in any
/// order or in parallel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WavePlan {
    /// The wave's gates, in (opcode, node id) order as captured; a
    /// replay batches gates of different kinds into one launch.
    pub gates: Vec<GateTask>,
}

impl WavePlan {
    /// Gates in the wave.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Bootstraps the wave executes: its binary gates (`Not`, `Buf` and
    /// constants are linear).
    pub fn bootstraps(&self) -> u64 {
        self.gates.iter().filter(|t| boot_gate(t.kind).is_some()).count() as u64
    }

    /// Re-cuts the wave into sub-waves of at most `bound` bootstraps
    /// each (clamped to at least 1), every gate in exactly one of them,
    /// gate order kept: the wave's `i`-th bootstrapping gate lands in
    /// sub-wave `i / bound`, linear gates cost nothing and stay in the
    /// first. Gates of one wave are independent, so the sub-waves may run
    /// in any order, one after another or together. A wave within the
    /// bound comes back as it is.
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
        out
    }
}

/// A complete captured plan for one netlist. Replaying it against fresh
/// inputs reproduces `execute` bit for bit without touching the netlist
/// again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPlan {
    /// Fingerprint of the source netlist ([`pytfhe_asm::fingerprint`]);
    /// replays refuse a mismatched program and the plan cache keys on it.
    pub fingerprint: u64,
    /// Value slots the replay arena must hold (netlist node count).
    pub num_nodes: usize,
    /// Slots fed by the primary inputs, in program order.
    pub inputs: Vec<u32>,
    /// Slots read out as primary outputs, in program order.
    pub outputs: Vec<u32>,
    /// The topological waves in execution order.
    pub waves: Vec<WavePlan>,
}

impl KernelPlan {
    /// Total gates across all waves.
    pub fn num_gates(&self) -> usize {
        self.waves.iter().map(WavePlan::num_gates).sum()
    }

    /// Bootstraps a replay executes: binary gates (`Not`, `Buf` and
    /// constants are linear).
    pub fn bootstraps(&self) -> u64 {
        self.waves.iter().map(WavePlan::bootstraps).sum()
    }

    /// Scheduling waves.
    pub fn num_waves(&self) -> usize {
        self.waves.len()
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
        for (w, wave) in self.waves.iter().enumerate() {
            let w = w as u32;
            for t in &wave.gates {
                ranges[t.out as usize].0 = w;
                for &slot in &[t.a, t.b][..t.reads()] {
                    ranges[slot as usize].1 = w;
                }
            }
        }
        for &slot in &self.outputs {
            ranges[slot as usize].1 = u32::MAX;
        }
        ranges
    }
}

/// Plan body version inside the wire envelope (v1 was the pre-envelope
/// `PTKG` layout, v3 the retired layout of plans with lookup-table
/// groups; neither is read).
const PLAN_WIRE_VERSION: u16 = 2;

impl KernelPlan {
    /// Serializes the plan into a checksummed
    /// [`wire envelope`](pytfhe_wire): magic, format id, version,
    /// payload length, CRC32C over header and payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::encode(wire::Format::KernelPlan, PLAN_WIRE_VERSION, &self.body_bytes())
    }

    /// The envelope payload.
    fn body_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.fingerprint);
        put_u64(&mut out, self.num_nodes as u64);
        put_u32_list(&mut out, &self.inputs);
        put_u32_list(&mut out, &self.outputs);
        // The body still opens with a batch count, from when capture cut
        // the waves into sub-graph batches: one batch holds them all.
        put_u32(&mut out, 1);
        put_u32(&mut out, self.waves.len() as u32);
        for wave in &self.waves {
            // Each run of one kind is a group record: a captured wave,
            // ordered by opcode, writes one per kind.
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
            PLAN_WIRE_VERSION..=PLAN_WIRE_VERSION,
        )?;
        Self::parse_body(env.payload)
    }

    /// Parses the envelope payload. The waves of every batch it lists
    /// are concatenated, so plans written while capture still cut
    /// batches decode to the same schedule.
    fn parse_body(bytes: &[u8]) -> Result<Self, ExecError> {
        let mut r = Reader { bytes, pos: 0 };
        let fingerprint = r.u64()?;
        let num_nodes = usize::try_from(r.u64()?).map_err(|_| bad("node count overflow"))?;
        let inputs = r.u32_list()?;
        let outputs = r.u32_list()?;
        let num_batches = r.u32()?;
        let mut waves = Vec::new();
        for _ in 0..num_batches {
            let num_waves = r.u32()? as usize;
            waves.reserve(num_waves.min(1024));
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
                waves.push(WavePlan { gates });
            }
        }
        if r.pos != bytes.len() {
            return Err(bad("trailing bytes"));
        }
        let plan = KernelPlan { fingerprint, num_nodes, inputs, outputs, waves };
        plan.check_slots()?;
        Ok(plan)
    }

    /// Verifies every referenced slot fits the declared arena.
    fn check_slots(&self) -> Result<(), ExecError> {
        let n = self.num_nodes as u64;
        let ok = |slot: u32| u64::from(slot) < n;
        let wires = self.inputs.iter().chain(&self.outputs).all(|&s| ok(s));
        let gates =
            self.waves.iter().flat_map(|w| &w.gates).all(|t| ok(t.out) && ok(t.a) && ok(t.b));
        if wires && gates {
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
            waves: vec![
                WavePlan {
                    gates: vec![
                        GateTask { kind: GateKind::Nand, out: 2, a: 0, b: 1 },
                        GateTask { kind: GateKind::Nand, out: 3, a: 1, b: 0 },
                        GateTask { kind: GateKind::Not, out: 4, a: 0, b: 0 },
                    ],
                },
                WavePlan {
                    gates: vec![
                        GateTask { kind: GateKind::Xor, out: 5, a: 2, b: 3 },
                        GateTask { kind: GateKind::Xor, out: 6, a: 3, b: 4 },
                    ],
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let plan = sample_plan();
        let bytes = plan.to_bytes();
        assert_eq!(KernelPlan::from_bytes(&bytes).unwrap(), plan);
    }

    #[test]
    fn plans_encode_as_v2_and_a_v3_body_is_refused_with_the_version_error() {
        let bytes = sample_plan().to_bytes();
        assert_eq!(pytfhe_wire::decode(&bytes).unwrap().version, PLAN_WIRE_VERSION);
        // v3 carried lookup-table groups; its bodies are no longer read.
        let body = sample_plan().body_bytes();
        let v3 = wire::encode(wire::Format::KernelPlan, 3, &body);
        assert!(matches!(
            KernelPlan::from_bytes(&v3),
            Err(ExecError::Wire(pytfhe_wire::WireError::UnsupportedVersion { version: 3, .. }))
        ));
    }

    #[test]
    fn split_keeps_every_task_once_and_every_sub_wave_within_its_bound() {
        let gates = |kind, outs: std::ops::Range<u32>| {
            outs.map(move |out| GateTask { kind, out, a: 0, b: 1 })
        };
        let wave = WavePlan {
            gates: gates(GateKind::Nand, 10..15)
                .chain(gates(GateKind::Not, 15..18))
                .chain(gates(GateKind::Xor, 18..29))
                .collect(),
        };
        assert_eq!(wave.bootstraps(), 16);
        // Every gate with its kernel: (slot, opcode).
        let tasks_of = |waves: &[WavePlan]| {
            let mut all: Vec<_> =
                waves.iter().flat_map(|w| &w.gates).map(|t| (t.out, t.kind.opcode())).collect();
            all.sort_unstable();
            all
        };
        for bound in 0..=17 {
            let parts = wave.clone().split(bound);
            assert_eq!(tasks_of(&parts), tasks_of(std::slice::from_ref(&wave)), "bound {bound}");
            assert_eq!(parts.len(), 16usize.div_ceil(bound.max(1)), "bound {bound}");
            for part in &parts {
                assert!(part.bootstraps() <= bound.max(1) as u64, "bound {bound}");
                assert!(part.num_gates() > 0, "bound {bound}");
            }
        }
        assert_eq!(wave.clone().split(16), vec![wave]);
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
        let body = plan.body_bytes();
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
        plan.waves[1].gates[0].a = 99;
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
        // The simulators' device slots: `Not` takes one like the NANDs.
        assert_eq!(crate::sim::bootstrapped(&plan.waves[0]), 3);
    }
}
