use crate::NetlistError;
use std::fmt;

/// The kind of a two-input boolean gate in a TFHE program.
///
/// The first eleven variants are exactly the eleven bootstrapped gates the
/// paper's binary format supports (Section IV-C: "PyTFHE supports eleven
/// different gates"); their discriminants are the 4-bit opcodes of the
/// instruction encoding in Figure 5. `Xor` is `0b0110` to match the worked
/// half-adder example of Figure 6. Opcodes `0x3` and `0xF` are reserved by
/// the binary format for *output* and *input* instructions respectively and
/// are therefore skipped.
///
/// `Const0`, `Const1` and `Buf` are pseudo-gates: constants appear when a
/// compiler bakes plaintext model weights into the circuit, and `Buf`
/// (a one-input passthrough) is emitted by total-ordering compilers such as
/// the Google Transpiler baseline (Section V-C). All three are eliminated by
/// the optimization pipeline before execution, but remain representable so
/// that unoptimized baseline netlists can be measured and executed too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum GateKind {
    /// `!(a & b)` — the universal bootstrapped gate of the TFHE library.
    Nand = 0x0,
    /// `a & b`.
    And = 0x1,
    /// `a | b`.
    Or = 0x2,
    /// `!(a | b)`.
    Nor = 0x4,
    /// `!(a ^ b)`.
    Xnor = 0x5,
    /// `a ^ b`.
    Xor = 0x6,
    /// `!a & b` ("AND-not-yes").
    Andny = 0x7,
    /// `a & !b` ("AND-yes-not").
    Andyn = 0x8,
    /// `!a | b`.
    Orny = 0x9,
    /// `a | !b`.
    Oryn = 0xA,
    /// `!a` — unary; the second input is ignored (conventionally wired to
    /// the first).
    Not = 0xB,
    /// Constant `false`; both inputs are ignored.
    Const0 = 0xC,
    /// Constant `true`; both inputs are ignored.
    Const1 = 0xD,
    /// Unary passthrough (`a`); emitted by naive frontends, optimized away.
    Buf = 0xE,
}

/// All gate kinds, in opcode order.
pub const ALL_GATE_KINDS: [GateKind; 14] = [
    GateKind::Nand,
    GateKind::And,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xnor,
    GateKind::Xor,
    GateKind::Andny,
    GateKind::Andyn,
    GateKind::Orny,
    GateKind::Oryn,
    GateKind::Not,
    GateKind::Const0,
    GateKind::Const1,
    GateKind::Buf,
];

impl GateKind {
    /// The 4-bit opcode used in the PyTFHE binary format (Figure 5).
    #[inline]
    pub fn opcode(self) -> u8 {
        self as u8
    }

    /// Decodes a 4-bit opcode.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownOpcode`] for the reserved opcodes
    /// (`0x3`, `0xF`) and any value above `0xE`.
    pub fn from_opcode(opcode: u8) -> Result<Self, NetlistError> {
        Ok(match opcode {
            0x0 => GateKind::Nand,
            0x1 => GateKind::And,
            0x2 => GateKind::Or,
            0x4 => GateKind::Nor,
            0x5 => GateKind::Xnor,
            0x6 => GateKind::Xor,
            0x7 => GateKind::Andny,
            0x8 => GateKind::Andyn,
            0x9 => GateKind::Orny,
            0xA => GateKind::Oryn,
            0xB => GateKind::Not,
            0xC => GateKind::Const0,
            0xD => GateKind::Const1,
            0xE => GateKind::Buf,
            other => return Err(NetlistError::UnknownOpcode { opcode: other }),
        })
    }

    /// Evaluates the gate on plaintext bits.
    ///
    /// For unary gates (`Not`, `Buf`) the second operand is ignored; for
    /// constants both are ignored.
    #[inline]
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            GateKind::Nand => !(a & b),
            GateKind::And => a & b,
            GateKind::Or => a | b,
            GateKind::Nor => !(a | b),
            GateKind::Xnor => !(a ^ b),
            GateKind::Xor => a ^ b,
            GateKind::Andny => !a & b,
            GateKind::Andyn => a & !b,
            GateKind::Orny => !a | b,
            GateKind::Oryn => a | !b,
            GateKind::Not => !a,
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => a,
        }
    }

    /// Whether the gate reads only its first input.
    #[inline]
    pub fn is_unary(self) -> bool {
        matches!(self, GateKind::Not | GateKind::Buf)
    }

    /// Whether the gate reads no inputs at all.
    #[inline]
    pub fn is_const(self) -> bool {
        matches!(self, GateKind::Const0 | GateKind::Const1)
    }

    /// Whether the gate costs a run-time slot: all but the constants and `Buf` (`Not` counts).
    #[inline]
    pub fn is_costed(self) -> bool {
        !self.is_const() && self != GateKind::Buf
    }

    /// Whether swapping the two operands leaves the function unchanged.
    #[inline]
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            GateKind::Nand
                | GateKind::And
                | GateKind::Or
                | GateKind::Nor
                | GateKind::Xnor
                | GateKind::Xor
        )
    }

    /// Returns the gate kind computing the same function with the operands
    /// swapped (`f(b, a)`), used to normalize operand order during CSE.
    #[inline]
    pub fn swapped(self) -> Self {
        match self {
            GateKind::Andny => GateKind::Andyn,
            GateKind::Andyn => GateKind::Andny,
            GateKind::Orny => GateKind::Oryn,
            GateKind::Oryn => GateKind::Orny,
            other => other,
        }
    }

    /// Returns the gate kind computing the complement (`!f(a, b)`), if one
    /// exists among the supported gates.
    pub fn negated(self) -> Option<Self> {
        Some(match self {
            GateKind::Nand => GateKind::And,
            GateKind::And => GateKind::Nand,
            GateKind::Or => GateKind::Nor,
            GateKind::Nor => GateKind::Or,
            GateKind::Xnor => GateKind::Xor,
            GateKind::Xor => GateKind::Xnor,
            GateKind::Andny => GateKind::Oryn,
            GateKind::Andyn => GateKind::Orny,
            GateKind::Orny => GateKind::Andyn,
            GateKind::Oryn => GateKind::Andny,
            GateKind::Const0 => GateKind::Const1,
            GateKind::Const1 => GateKind::Const0,
            GateKind::Not => GateKind::Buf,
            GateKind::Buf => GateKind::Not,
        })
    }

    /// Returns the gate computing `f(!a, b)`, used by the inverter-absorption
    /// pass to fold a `NOT` on the first operand into the consumer.
    pub fn absorb_not_a(self) -> Option<Self> {
        Some(match self {
            GateKind::And => GateKind::Andny,
            GateKind::Andny => GateKind::And,
            GateKind::Andyn => GateKind::Nor,
            GateKind::Nand => GateKind::Oryn,
            GateKind::Or => GateKind::Orny,
            GateKind::Orny => GateKind::Or,
            GateKind::Oryn => GateKind::Nand,
            GateKind::Nor => GateKind::Andyn,
            GateKind::Xor => GateKind::Xnor,
            GateKind::Xnor => GateKind::Xor,
            GateKind::Not => GateKind::Buf,
            GateKind::Buf => GateKind::Not,
            GateKind::Const0 | GateKind::Const1 => return None,
        })
    }

    /// Returns the gate computing `f(a, !b)`, the mirror of
    /// [`GateKind::absorb_not_a`]. Unary gates and constants ignore their
    /// second operand, so there is nothing to absorb and `None` is returned.
    pub fn absorb_not_b(self) -> Option<Self> {
        if self.is_unary() || self.is_const() {
            return None;
        }
        let swapped = self.swapped();
        swapped.absorb_not_a().map(GateKind::swapped)
    }

    /// Short lowercase mnemonic (e.g. `"nand"`), used in reports and
    /// disassembly listings.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Nand => "nand",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nor => "nor",
            GateKind::Xnor => "xnor",
            GateKind::Xor => "xor",
            GateKind::Andny => "andny",
            GateKind::Andyn => "andyn",
            GateKind::Orny => "orny",
            GateKind::Oryn => "oryn",
            GateKind::Not => "not",
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
            GateKind::Buf => "buf",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_constants_and_buffers_are_free() {
        let free: Vec<GateKind> = ALL_GATE_KINDS.into_iter().filter(|k| !k.is_costed()).collect();
        assert_eq!(free, [GateKind::Const0, GateKind::Const1, GateKind::Buf], "`Not` is costed");
    }

    #[test]
    fn opcode_round_trip() {
        for &kind in &ALL_GATE_KINDS {
            assert_eq!(GateKind::from_opcode(kind.opcode()).unwrap(), kind);
        }
    }

    #[test]
    fn reserved_opcodes_rejected() {
        assert!(GateKind::from_opcode(0x3).is_err());
        assert!(GateKind::from_opcode(0xF).is_err());
        assert!(GateKind::from_opcode(0x10).is_err());
    }

    #[test]
    fn xor_opcode_matches_paper_figure_6() {
        assert_eq!(GateKind::Xor.opcode(), 0b0110);
    }

    #[test]
    fn truth_tables() {
        let cases = [(false, false), (false, true), (true, false), (true, true)];
        for (a, b) in cases {
            assert_eq!(GateKind::Nand.eval(a, b), !(a && b));
            assert_eq!(GateKind::And.eval(a, b), a && b);
            assert_eq!(GateKind::Or.eval(a, b), a || b);
            assert_eq!(GateKind::Nor.eval(a, b), !(a || b));
            assert_eq!(GateKind::Xor.eval(a, b), a ^ b);
            assert_eq!(GateKind::Xnor.eval(a, b), !(a ^ b));
            assert_eq!(GateKind::Andny.eval(a, b), !a && b);
            assert_eq!(GateKind::Andyn.eval(a, b), a && !b);
            assert_eq!(GateKind::Orny.eval(a, b), !a || b);
            assert_eq!(GateKind::Oryn.eval(a, b), a || !b);
            assert_eq!(GateKind::Not.eval(a, b), !a);
            assert_eq!(GateKind::Buf.eval(a, b), a);
            assert!(!GateKind::Const0.eval(a, b));
            assert!(GateKind::Const1.eval(a, b));
        }
    }

    #[test]
    fn swapped_is_consistent() {
        let cases = [(false, false), (false, true), (true, false), (true, true)];
        for &kind in &ALL_GATE_KINDS {
            if kind.is_unary() || kind.is_const() {
                continue;
            }
            for (a, b) in cases {
                assert_eq!(kind.eval(a, b), kind.swapped().eval(b, a), "{kind}");
            }
        }
    }

    #[test]
    fn negated_is_consistent() {
        let cases = [(false, false), (false, true), (true, false), (true, true)];
        for &kind in &ALL_GATE_KINDS {
            if let Some(neg) = kind.negated() {
                for (a, b) in cases {
                    assert_eq!(!kind.eval(a, b), neg.eval(a, b), "{kind}");
                }
            }
        }
    }

    #[test]
    fn absorb_not_is_consistent() {
        let cases = [(false, false), (false, true), (true, false), (true, true)];
        for &kind in &ALL_GATE_KINDS {
            if let Some(absorbed) = kind.absorb_not_a() {
                for (a, b) in cases {
                    assert_eq!(kind.eval(!a, b), absorbed.eval(a, b), "{kind} not-a");
                }
            }
            if kind.is_unary() || kind.is_const() {
                continue;
            }
            if let Some(absorbed) = kind.absorb_not_b() {
                for (a, b) in cases {
                    assert_eq!(kind.eval(a, !b), absorbed.eval(a, b), "{kind} not-b");
                }
            }
        }
    }

    #[test]
    fn commutativity_flag_is_sound() {
        let cases = [(false, true), (true, false)];
        for &kind in &ALL_GATE_KINDS {
            if kind.is_commutative() {
                for (a, b) in cases {
                    assert_eq!(kind.eval(a, b), kind.eval(b, a), "{kind}");
                }
            }
        }
    }
}
