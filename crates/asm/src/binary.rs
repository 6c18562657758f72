use crate::error::AsmError;
use crate::inst::{Instruction, FIELD_ONES, INSTRUCTION_BYTES};
use bytes::{BufMut, Bytes, BytesMut};
use pytfhe_netlist::{Netlist, Node, NodeId};
use std::fmt::Write as _;

/// Iterates the 128-bit words of a binary after alignment has been
/// checked. `chunks_exact` guarantees every chunk is 16 bytes, so this
/// cannot panic on truncated input regardless of what callers checked.
fn words(binary: &[u8]) -> impl Iterator<Item = u128> + '_ {
    binary
        .chunks_exact(INSTRUCTION_BYTES)
        .map(|chunk| u128::from_le_bytes(chunk.try_into().expect("chunks_exact yields 16 bytes")))
}

/// Assembles a netlist into the PyTFHE binary format.
///
/// Node `i` of the netlist is assigned index `i + 1` (index 0 is never
/// used, matching the paper's Figure 6 where inputs start at index 1).
/// Instruction order is: header, then one instruction per node in id
/// order (inputs and gates interleaved exactly as built — the netlist is
/// topologically ordered by construction), then one output instruction
/// per declared output.
pub fn assemble(nl: &Netlist) -> Bytes {
    let _span = pytfhe_telemetry::span_with("asm", || {
        format!("assemble: {} nodes, {} outputs", nl.num_nodes(), nl.outputs().len())
    });
    let mut buf =
        BytesMut::with_capacity((1 + nl.num_nodes() + nl.outputs().len()) * INSTRUCTION_BYTES);
    let mut put = |inst: Instruction| buf.put_u128_le(inst.encode());
    put(Instruction::Header { total_gates: nl.num_gates() as u64 });
    for (i, node) in nl.nodes().iter().enumerate() {
        let index = i as u64 + 1;
        match *node {
            Node::Input => put(Instruction::Input { index }),
            Node::Gate { kind, a, b } => {
                let (input0, input1) = if kind.is_const() {
                    (FIELD_ONES, FIELD_ONES)
                } else {
                    (u64::from(a.0) + 1, u64::from(b.0) + 1)
                };
                put(Instruction::Gate { kind, input0, input1 });
            }
        }
    }
    for out in nl.outputs() {
        put(Instruction::Output { index: u64::from(out.0) + 1 });
    }
    buf.freeze()
}

/// Disassembles and validates a PyTFHE binary back into a netlist.
///
/// Validation covers alignment, the mandatory header, the header's gate
/// count, reserved field patterns, backward-only references, and the
/// 4-bit opcode space — everything an untrusted binary could get wrong.
///
/// # Errors
///
/// Returns the specific [`AsmError`] for the first violation found.
pub fn disassemble(binary: &[u8]) -> Result<Netlist, AsmError> {
    let _span =
        pytfhe_telemetry::span_with("asm", || format!("disassemble: {} bytes", binary.len()));
    if !binary.len().is_multiple_of(INSTRUCTION_BYTES) {
        return Err(AsmError::Misaligned { len: binary.len() });
    }
    let count = binary.len() / INSTRUCTION_BYTES;
    if count == 0 {
        return Err(AsmError::MissingHeader);
    }
    // Node ids are u32; a stream with more instructions than that cannot
    // be reconstructed (and at 64 GiB could not be honest anyway).
    if count - 1 > u32::MAX as usize {
        return Err(AsmError::TooLarge);
    }
    let mut nl = Netlist::with_capacity(count - 1);
    // index (1-based, instruction order) -> netlist node id
    let mut index_of: Vec<NodeId> = Vec::with_capacity(count);
    let mut declared_gates = 0u64;
    let mut actual_gates = 0u64;
    for (position, word) in words(binary).enumerate() {
        let inst = Instruction::decode(word, position)?;
        match inst {
            Instruction::Header { total_gates } => {
                if total_gates > u64::from(u32::MAX) {
                    return Err(AsmError::TooLarge);
                }
                declared_gates = total_gates;
            }
            Instruction::Input { index } => {
                expect_next_index(index, index_of.len(), position)?;
                index_of.push(nl.add_input());
            }
            Instruction::Gate { kind, input0, input1 } => {
                actual_gates += 1;
                let id = if kind.is_const() {
                    nl.add_gate(kind, NodeId(0), NodeId(0)).map_err(AsmError::from)?
                } else {
                    let a = resolve(&index_of, input0, position)?;
                    let b = if kind.is_unary() { a } else { resolve(&index_of, input1, position)? };
                    nl.add_gate(kind, a, b).map_err(AsmError::from)?
                };
                index_of.push(id);
            }
            Instruction::Output { index } => {
                let id = resolve(&index_of, index, position)?;
                nl.mark_output(id).map_err(AsmError::from)?;
            }
        }
    }
    if declared_gates != actual_gates {
        return Err(AsmError::GateCountMismatch { declared: declared_gates, actual: actual_gates });
    }
    nl.validate()?;
    Ok(nl)
}

/// Indices are assigned sequentially; an input/gate instruction at stream
/// slot `n` must carry index `n + 1`.
fn expect_next_index(index: u64, defined: usize, position: usize) -> Result<(), AsmError> {
    if index != defined as u64 + 1 {
        return Err(AsmError::BadInstruction {
            position,
            reason: "indices must be assigned sequentially",
        });
    }
    Ok(())
}

fn resolve(index_of: &[NodeId], index: u64, position: usize) -> Result<NodeId, AsmError> {
    if index == 0 || index > index_of.len() as u64 {
        return Err(AsmError::DanglingReference { position, index });
    }
    Ok(index_of[(index - 1) as usize])
}

/// Renders a human-readable disassembly listing (for debugging and for
/// the worked Figure 6 reproduction in the benchmark harness).
///
/// # Errors
///
/// Returns [`AsmError`] if the binary is malformed.
pub fn dump(binary: &[u8]) -> Result<String, AsmError> {
    if !binary.len().is_multiple_of(INSTRUCTION_BYTES) {
        return Err(AsmError::Misaligned { len: binary.len() });
    }
    let mut out = String::new();
    for (position, word) in words(binary).enumerate() {
        let inst = Instruction::decode(word, position)?;
        let desc = match inst {
            Instruction::Header { total_gates } => format!("header  gates={total_gates}"),
            Instruction::Input { index } => format!("input   %{index}"),
            Instruction::Gate { kind, input0: _, input1: _ } if kind.is_const() => {
                format!("gate    {kind}")
            }
            Instruction::Gate { kind, input0, input1 } => {
                format!("gate    {kind} %{input0} %{input1}")
            }
            Instruction::Output { index } => format!("output  %{index}"),
        };
        writeln!(out, "{position:6}: {word:032x}  {desc}")?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::GateKind;

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let sum = nl.add_gate(GateKind::Xor, a, b).unwrap();
        let carry = nl.add_gate(GateKind::And, a, b).unwrap();
        nl.mark_output(sum).unwrap();
        nl.mark_output(carry).unwrap();
        nl
    }

    #[test]
    fn half_adder_binary_matches_figure_6() {
        let nl = half_adder();
        let bin = assemble(&nl);
        // 1 header + 2 inputs + 2 gates + 2 outputs = 7 instructions.
        assert_eq!(bin.len(), 7 * INSTRUCTION_BYTES);
        let insts: Vec<Instruction> =
            words(&bin).enumerate().map(|(p, w)| Instruction::decode(w, p).unwrap()).collect();
        assert_eq!(insts[0], Instruction::Header { total_gates: 2 });
        assert_eq!(insts[1], Instruction::Input { index: 1 });
        assert_eq!(insts[2], Instruction::Input { index: 2 });
        assert_eq!(insts[3], Instruction::Gate { kind: GateKind::Xor, input0: 1, input1: 2 });
        assert_eq!(insts[4], Instruction::Gate { kind: GateKind::And, input0: 1, input1: 2 });
        assert_eq!(insts[5], Instruction::Output { index: 3 });
        assert_eq!(insts[6], Instruction::Output { index: 4 });
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let nl = half_adder();
        let bin = assemble(&nl);
        let back = disassemble(&bin).unwrap();
        for bits in 0..4u32 {
            let input = vec![bits & 1 == 1, bits & 2 == 2];
            assert_eq!(nl.eval_plain(&input), back.eval_plain(&input));
        }
        assert_eq!(back.num_gates(), 2);
        assert_eq!(back.num_inputs(), 2);
    }

    #[test]
    fn round_trip_with_constants_and_unary() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let one = nl.add_gate(GateKind::Const1, a, a).unwrap();
        let not = nl.add_gate(GateKind::Not, a, a).unwrap();
        let g = nl.add_gate(GateKind::Andyn, one, not).unwrap();
        nl.mark_output(g).unwrap();
        let back = disassemble(&assemble(&nl)).unwrap();
        for x in [false, true] {
            assert_eq!(nl.eval_plain(&[x]), back.eval_plain(&[x]));
        }
    }

    #[test]
    fn corrupted_binaries_are_rejected() {
        let bin = assemble(&half_adder()).to_vec();
        // Truncated tail.
        assert!(matches!(disassemble(&bin[..bin.len() - 3]), Err(AsmError::Misaligned { .. })));
        // Empty.
        assert!(matches!(disassemble(&[]), Err(AsmError::MissingHeader)));
        // Flipped gate-count header.
        let mut bad = bin.clone();
        bad[1] ^= 0x01; // second byte of the LE count field
        assert!(matches!(disassemble(&bad), Err(AsmError::GateCountMismatch { .. })));
        // Forward reference: rewrite the first gate's input to index 5.
        let mut bad = bin.clone();
        let mut word = u128::from_le_bytes(bad[3 * 16..4 * 16].try_into().unwrap());
        word = (word & !(u128::from(FIELD_ONES) << 66)) | (5u128 << 66);
        bad[3 * 16..4 * 16].copy_from_slice(&word.to_le_bytes());
        assert!(matches!(disassemble(&bad), Err(AsmError::DanglingReference { .. })));
    }

    /// Replaces instruction `position` of `bin` with `word`.
    fn patch(bin: &[u8], position: usize, word: u128) -> Vec<u8> {
        let mut out = bin.to_vec();
        out[position * 16..(position + 1) * 16].copy_from_slice(&word.to_le_bytes());
        out
    }

    #[test]
    fn corrupting_each_field_of_a_gate_word_is_detected() {
        let bin = assemble(&half_adder()).to_vec();
        let gate = u128::from_le_bytes(bin[3 * 16..4 * 16].try_into().unwrap());

        // Operand field 1 out of range (index 0 is never assigned).
        let zero_op = gate & !(u128::from(FIELD_ONES) << 66);
        assert!(matches!(
            disassemble(&patch(&bin, 3, zero_op)),
            Err(AsmError::DanglingReference { position: 3, index: 0 })
        ));
        // Operand field 2 far out of range.
        let wild_op = (gate & !(u128::from(FIELD_ONES) << 4)) | (999u128 << 4);
        assert!(matches!(
            disassemble(&patch(&bin, 3, wild_op)),
            Err(AsmError::DanglingReference { position: 3, index: 999 })
        ));
        // Type nibble flipped to the input marker without the all-ones
        // reserved pattern in field 1.
        let bad_input = (gate & !0xF) | 0xF;
        assert!(matches!(
            disassemble(&patch(&bin, 3, bad_input)),
            Err(AsmError::BadInstruction { position: 3, .. })
        ));
        // A header-shaped word (nibble 0, field 1 zero) mid-stream decodes
        // as a NAND whose zero operand is a dangling reference.
        assert!(matches!(
            disassemble(&patch(&bin, 3, 7u128 << 4)),
            Err(AsmError::DanglingReference { position: 3, index: 0 })
        ));
    }

    #[test]
    fn corrupted_const_gate_operands_rejected() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let one = nl.add_gate(GateKind::Const1, a, a).unwrap();
        nl.mark_output(one).unwrap();
        let bin = assemble(&nl).to_vec();
        // The const gate is instruction 2; scribble over its reserved
        // operand fields.
        let word = u128::from_le_bytes(bin[2 * 16..3 * 16].try_into().unwrap());
        let bad = (word & !(u128::from(FIELD_ONES) << 66)) | (1u128 << 66);
        assert!(matches!(
            disassemble(&patch(&bin, 2, bad)),
            Err(AsmError::BadInstruction { position: 2, .. })
        ));
        // Untouched, it still round-trips.
        assert!(disassemble(&bin).is_ok());
    }

    #[test]
    fn absurd_header_gate_count_is_too_large() {
        let bin = assemble(&half_adder()).to_vec();
        let huge_header = Instruction::Header { total_gates: u64::from(u32::MAX) + 1 }.encode();
        assert!(matches!(disassemble(&patch(&bin, 0, huge_header)), Err(AsmError::TooLarge)));
    }

    #[test]
    fn truncated_streams_yield_typed_errors_at_every_cut() {
        let bin = assemble(&half_adder()).to_vec();
        for cut in 0..bin.len() {
            // Every truncation must decode to a typed result — never a
            // panic. Unaligned cuts are Misaligned; aligned cuts that
            // only lose output instructions may still form a (smaller)
            // coherent netlist.
            match disassemble(&bin[..cut]) {
                Ok(nl) => assert!(nl.outputs().len() < 2, "cut {cut} lost nothing"),
                Err(e) => {
                    if !cut.is_multiple_of(INSTRUCTION_BYTES) {
                        assert!(matches!(e, AsmError::Misaligned { .. }), "cut {cut}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_sequential_indices_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u128_le(Instruction::Header { total_gates: 0 }.encode());
        buf.put_u128_le(Instruction::Input { index: 2 }.encode()); // should be 1
        assert!(matches!(
            disassemble(&buf.freeze()),
            Err(AsmError::BadInstruction { position: 1, .. })
        ));
    }

    #[test]
    fn dump_lists_instructions() {
        let bin = assemble(&half_adder());
        let listing = dump(&bin).unwrap();
        assert!(listing.contains("header  gates=2"));
        assert!(listing.contains("xor %1 %2"));
        assert!(listing.contains("output  %3"));
        assert_eq!(listing.lines().count(), 7);
        assert!(matches!(dump(&bin[..bin.len() - 3]), Err(AsmError::Misaligned { .. })));
    }

    #[test]
    fn large_random_round_trip() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut nl = Netlist::new();
        let inputs: Vec<_> = (0..8).map(|_| nl.add_input()).collect();
        let mut pool: Vec<_> = inputs.clone();
        let _ = &mut pool;
        for _ in 0..500 {
            let a = pool[rng.random_range(0..pool.len())];
            let b = pool[rng.random_range(0..pool.len())];
            let kinds = [
                GateKind::And,
                GateKind::Or,
                GateKind::Xor,
                GateKind::Nand,
                GateKind::Andny,
                GateKind::Not,
            ];
            let kind = kinds[rng.random_range(0..kinds.len())];
            pool.push(nl.add_gate(kind, a, b).unwrap());
        }
        nl.mark_output(*pool.last().unwrap()).unwrap();
        nl.mark_output(pool[pool.len() / 2]).unwrap();
        let back = disassemble(&assemble(&nl)).unwrap();
        let mut bits_rng = rand::rngs::StdRng::seed_from_u64(100);
        for _ in 0..20 {
            let input: Vec<bool> = (0..8).map(|_| bits_rng.random()).collect();
            assert_eq!(nl.eval_plain(&input), back.eval_plain(&input));
        }
    }
}
