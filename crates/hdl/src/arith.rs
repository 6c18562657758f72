//! Integer arithmetic generators: ripple-carry adders, subtractors,
//! negation, schoolbook multipliers, the signed-digit constant multiplier
//! and comparators.
//!
//! These are the workhorses behind every ChiselTorch tensor op. Gate-count
//! economy matters more than logic depth for TFHE (every gate is a
//! bootstrap, Figure 7), so the generators favour the minimal-gate
//! ripple-carry/Baugh-Wooley style structures over low-depth carry-save
//! trees; the wavefront backends still recover ample parallelism across
//! *independent* arithmetic units (e.g. the thousands of multipliers of a
//! convolution layer).

use crate::bit::Bit;
use crate::circuit::Circuit;
use crate::error::HdlError;
use crate::word::Word;

impl Circuit {
    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: Bit, b: Bit, cin: Bit) -> (Bit, Bit) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let ab = self.and(a, b);
        let c_axb = self.and(axb, cin);
        let carry = self.or(ab, c_axb);
        (sum, carry)
    }

    /// Ripple-carry addition with explicit carry-in; returns the sum
    /// (same width) and the carry-out.
    ///
    /// # Panics
    ///
    /// Panics if widths differ (use the checked word ops for fallible
    /// paths; generators treat width mismatches as construction bugs).
    pub fn add_with_carry(&mut self, a: &Word, b: &Word, cin: Bit) -> (Word, Bit) {
        assert_eq!(a.width(), b.width(), "add: width mismatch");
        let mut carry = cin;
        let mut bits = Vec::with_capacity(a.width());
        for (&x, &y) in a.bits().iter().zip(b.bits()) {
            let (s, c) = self.full_adder(x, y, carry);
            bits.push(s);
            carry = c;
        }
        (Word::from_bits(bits), carry)
    }

    /// Wrapping addition (two's complement), width preserved.
    pub fn add(&mut self, a: &Word, b: &Word) -> Word {
        self.add_with_carry(a, b, Bit::ZERO).0
    }

    /// Widening addition: result has one extra bit, never overflows
    /// (operands are treated as unsigned).
    pub fn add_wide_unsigned(&mut self, a: &Word, b: &Word) -> Word {
        let w = a.width().max(b.width());
        let (sum, carry) = self.add_with_carry(&a.zext(w), &b.zext(w), Bit::ZERO);
        let mut bits = sum.bits().to_vec();
        bits.push(carry);
        Word::from_bits(bits)
    }

    /// Widening signed addition: operands sign-extended one bit, wrap-free.
    pub fn add_wide_signed(&mut self, a: &Word, b: &Word) -> Word {
        let w = a.width().max(b.width()) + 1;
        self.add(&a.sext(w), &b.sext(w))
    }

    /// Wrapping subtraction `a - b` (two's complement), width preserved.
    pub fn sub(&mut self, a: &Word, b: &Word) -> Word {
        let nb = self.not_word(b);
        self.add_with_carry(a, &nb, Bit::ONE).0
    }

    /// Subtraction with borrow information: returns `(diff, no_borrow)`
    /// where `no_borrow` is the adder carry-out (1 when `a >= b`
    /// unsigned).
    pub fn sub_with_borrow(&mut self, a: &Word, b: &Word) -> (Word, Bit) {
        let nb = self.not_word(b);
        self.add_with_carry(a, &nb, Bit::ONE)
    }

    /// Two's-complement negation, width preserved.
    pub fn neg(&mut self, a: &Word) -> Word {
        let zero = Word::zeros(a.width());
        self.sub(&zero, a)
    }

    /// Increment by one, width preserved.
    pub fn inc(&mut self, a: &Word) -> Word {
        let zero = Word::zeros(a.width());
        self.add_with_carry(a, &zero, Bit::ONE).0
    }

    /// Absolute value of a signed word (width preserved; `i::MIN` wraps).
    pub fn abs(&mut self, a: &Word) -> Word {
        let neg = self.neg(a);
        self.mux_word(a.msb(), &neg, a).expect("same widths")
    }

    /// Unsigned schoolbook multiplication; the result is
    /// `a.width() + b.width()` bits and exact.
    pub fn mul_unsigned(&mut self, a: &Word, b: &Word) -> Word {
        let (wa, wb) = (a.width(), b.width());
        if wa == 0 || wb == 0 {
            return Word::zeros(wa + wb);
        }
        let mut acc = Word::zeros(wa + wb);
        for (i, &bi) in b.bits().iter().enumerate() {
            // Partial product a * b_i, shifted by i: only the wa bits
            // starting at position i can change, plus the running carry.
            let pp: Word = a.bits().iter().map(|&aj| self.and(aj, bi)).collect();
            let window = acc.slice(i, (i + wa + 1).min(wa + wb));
            let sum = self.add(&pp.zext(window.width()), &window);
            let mut bits = acc.bits().to_vec();
            for (k, &s) in sum.bits().iter().enumerate() {
                bits[i + k] = s;
            }
            acc = Word::from_bits(bits);
        }
        acc
    }

    /// Signed (two's complement) multiplication with exact
    /// `a.width() + b.width()`-bit result, using the Baugh–Wooley
    /// formulation: the sign rows' partial products are complemented and
    /// two correction ones are injected, so only `a.width() * b.width()`
    /// partial products are needed (the naive sign-extension scheme
    /// generates four times as many).
    pub fn mul_signed(&mut self, a: &Word, b: &Word) -> Word {
        let (wa, wb) = (a.width(), b.width());
        let w = wa + wb;
        if wa == 0 || wb == 0 {
            return Word::zeros(w);
        }
        if wa == 1 && wb == 1 {
            // Single-bit two's complement values are {0, -1}, so the
            // product is (+1) iff both bits are set: 0b01.
            let p = self.and(a.bit(0), b.bit(0));
            return Word::from_bits(vec![p, Bit::ZERO]);
        }
        // Rows of the Baugh-Wooley array: row j is the partial product of
        // b_j, with the sign-column entries complemented.
        let mut acc = Word::zeros(w);
        for j in 0..wb {
            let bj = b.bit(j);
            let row: Vec<Bit> = (0..wa)
                .map(|i| {
                    let sign_cell = (i == wa - 1) ^ (j == wb - 1);
                    let p = self.and(a.bit(i), bj);
                    if sign_cell {
                        self.not(p)
                    } else {
                        p
                    }
                })
                .collect();
            let shifted = {
                // Place the row at offset j.
                let mut bits = vec![Bit::ZERO; j];
                bits.extend_from_slice(&row);
                Word::from_bits(bits).zext(w)
            };
            acc = self.add(&acc, &shifted);
        }
        // Correction constant: +2^(wa-1) + 2^(wb-1) + 2^(w-1) (mod 2^w),
        // from rewriting the negative sign-row terms as complements.
        let mut correction = Word::zeros(w);
        for pos in [wa - 1, wb - 1, w - 1] {
            let mut bump = Word::zeros(w);
            let mut bits = bump.bits().to_vec();
            bits[pos] = Bit::ONE;
            bump = Word::from_bits(bits);
            correction = self.add(&correction, &bump);
        }
        self.add(&acc, &correction)
    }

    /// Signed multiplication via sign extension to the full output width
    /// — the textbook scheme, kept as the oracle for
    /// [`Circuit::mul_signed`] and for the multiplier-architecture
    /// ablation study.
    pub fn mul_signed_ext(&mut self, a: &Word, b: &Word) -> Word {
        let w = a.width() + b.width();
        if w == 0 {
            return Word::zeros(0);
        }
        let ax = a.sext(w);
        let bx = b.sext(w);
        // Product of the extended operands, truncated to w bits, equals the
        // exact signed product.
        self.mul_unsigned(&ax, &bx).slice(0, w)
    }

    /// `a × k mod 2^W` for a constant `k` (`W` = both widths): a
    /// shift-add over the non-adjacent (canonical signed-digit) form of
    /// `k`, read straight from its constant bits, so any width works.
    ///
    /// The accumulator starts as `a << p` at the lowest positive digit `p`,
    /// which is wiring. Every other digit `±1` at position `i` adds or
    /// subtracts `a` into the window `acc[i..W]` only: the low `i` bits
    /// are final and cost nothing. No two digits are adjacent, so a
    /// constant costs at most `⌈W / 2⌉` adders, and a power of two none.
    /// This is the ciphertext × plaintext product; the arrays of
    /// [`Circuit::mul_unsigned`] and [`Circuit::mul_signed`] stay the
    /// ciphertext × ciphertext path and this generator's oracle.
    ///
    /// # Panics
    ///
    /// Panics if widths differ or a bit of `k` is not a constant.
    pub fn mul_const(&mut self, a: &Word, k: &Word) -> Word {
        let w = a.width();
        assert_eq!(w, k.width(), "mul_const: width mismatch");
        let digits = non_adjacent_form(k);
        let start = digits.iter().position(|&(_, negative)| !negative);
        let mut acc = match start {
            Some(s) => a.shl_const(digits[s].0),
            None => Word::zeros(w),
        };
        for (n, &(i, negative)) in digits.iter().enumerate() {
            if Some(n) == start {
                continue;
            }
            let window = acc.slice(i, w);
            let addend = a.slice(0, w - i);
            let sum =
                if negative { self.sub(&window, &addend) } else { self.add(&window, &addend) };
            acc = acc.slice(0, i).concat(&sum);
        }
        acc
    }

    /// Equality comparison.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::WidthMismatch`] if widths differ.
    pub fn eq(&mut self, a: &Word, b: &Word) -> Result<Bit, HdlError> {
        let diff = self.bitwise(pytfhe_netlist::GateKind::Xnor, a, b)?;
        Ok(self.and_reduce(&diff))
    }

    /// Inequality comparison.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::WidthMismatch`] if widths differ.
    pub fn ne(&mut self, a: &Word, b: &Word) -> Result<Bit, HdlError> {
        let e = self.eq(a, b)?;
        Ok(self.not(e))
    }

    /// Unsigned `a < b`.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::WidthMismatch`] if widths differ.
    pub fn lt_unsigned(&mut self, a: &Word, b: &Word) -> Result<Bit, HdlError> {
        if a.width() != b.width() {
            return Err(HdlError::WidthMismatch { left: a.width(), right: b.width(), op: "lt" });
        }
        let (_, no_borrow) = self.sub_with_borrow(a, b);
        Ok(self.not(no_borrow))
    }

    /// Signed `a < b`: flip the sign bits and compare unsigned.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::WidthMismatch`] if widths differ.
    pub fn lt_signed(&mut self, a: &Word, b: &Word) -> Result<Bit, HdlError> {
        if a.width() != b.width() {
            return Err(HdlError::WidthMismatch { left: a.width(), right: b.width(), op: "lt" });
        }
        if a.is_empty() {
            return Ok(Bit::ZERO);
        }
        let w = a.width();
        let mut af = a.bits().to_vec();
        let mut bf = b.bits().to_vec();
        af[w - 1] = self.not(af[w - 1]);
        bf[w - 1] = self.not(bf[w - 1]);
        self.lt_unsigned(&Word::from_bits(af), &Word::from_bits(bf))
    }

    /// `a <= b` (signed flag selects interpretation).
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::WidthMismatch`] if widths differ.
    pub fn le(&mut self, a: &Word, b: &Word, signed: bool) -> Result<Bit, HdlError> {
        let gt = if signed { self.lt_signed(b, a)? } else { self.lt_unsigned(b, a)? };
        Ok(self.not(gt))
    }

    /// Elementwise maximum of two integers.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::WidthMismatch`] if widths differ.
    pub fn max_int(&mut self, a: &Word, b: &Word, signed: bool) -> Result<Word, HdlError> {
        let a_lt_b = if signed { self.lt_signed(a, b)? } else { self.lt_unsigned(a, b)? };
        self.mux_word(a_lt_b, b, a)
    }

    /// Elementwise minimum of two integers.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::WidthMismatch`] if widths differ.
    pub fn min_int(&mut self, a: &Word, b: &Word, signed: bool) -> Result<Word, HdlError> {
        let a_lt_b = if signed { self.lt_signed(a, b)? } else { self.lt_unsigned(a, b)? };
        self.mux_word(a_lt_b, a, b)
    }
}

/// The nonzero digits of the non-adjacent form of the constant word `k`
/// modulo `2^width`, lowest first: `(position, negative)`. A carry out of
/// the top bit is `2^width ≡ 0` and is dropped.
fn non_adjacent_form(k: &Word) -> Vec<(usize, bool)> {
    let bit = |i: usize| {
        i < k.width()
            && k.bit(i).as_const().expect("mul_const: the constant operand has a signal bit")
    };
    let mut digits = Vec::new();
    let mut carry = false;
    for i in 0..k.width() {
        // Bit plus carry is 0 or 2: digit 0, and the carry passes on. It
        // is 1: digit +1, or -1 with a carry when the next bit is set
        // (`…11` = `…(+1)0(-1)`), which keeps the digits non-adjacent.
        if bit(i) != carry {
            carry = bit(i + 1);
            digits.push((i, carry));
        }
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::Netlist;

    fn to_bits(x: u64, w: usize) -> Vec<bool> {
        (0..w).map(|i| (x >> i) & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    fn binop_circuit(w: usize, f: impl FnOnce(&mut Circuit, &Word, &Word) -> Word) -> Netlist {
        let mut c = Circuit::new();
        let a = c.input_word("a", w);
        let b = c.input_word("b", w);
        let out = f(&mut c, &a, &b);
        c.output_word("out", &out);
        c.finish().unwrap()
    }

    fn eval2(nl: &Netlist, w: usize, x: u64, y: u64) -> u64 {
        let mut input = to_bits(x, w);
        input.extend(to_bits(y, w));
        from_bits(&nl.eval_plain(&input))
    }

    #[test]
    fn add_exhaustive_5bit() {
        let nl = binop_circuit(5, |c, a, b| c.add(a, b));
        for x in 0u64..32 {
            for y in 0u64..32 {
                assert_eq!(eval2(&nl, 5, x, y), (x + y) % 32, "{x}+{y}");
            }
        }
    }

    #[test]
    fn sub_exhaustive_5bit() {
        let nl = binop_circuit(5, |c, a, b| c.sub(a, b));
        for x in 0u64..32 {
            for y in 0u64..32 {
                assert_eq!(eval2(&nl, 5, x, y), (32 + x - y) % 32, "{x}-{y}");
            }
        }
    }

    #[test]
    fn add_wide_never_wraps() {
        let nl = binop_circuit(4, |c, a, b| c.add_wide_unsigned(a, b));
        for x in 0u64..16 {
            for y in 0u64..16 {
                assert_eq!(eval2(&nl, 4, x, y), x + y);
            }
        }
    }

    #[test]
    fn add_wide_signed_never_wraps() {
        let nl = binop_circuit(4, |c, a, b| c.add_wide_signed(a, b));
        for x in -8i64..8 {
            for y in -8i64..8 {
                let got = eval2(&nl, 4, (x & 15) as u64, (y & 15) as u64);
                assert_eq!(got, ((x + y) & 31) as u64, "{x}+{y}");
            }
        }
    }

    #[test]
    fn mul_unsigned_exhaustive_4bit() {
        let nl = binop_circuit(4, |c, a, b| c.mul_unsigned(a, b));
        for x in 0u64..16 {
            for y in 0u64..16 {
                assert_eq!(eval2(&nl, 4, x, y), x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn mul_signed_exhaustive_4bit() {
        let nl = binop_circuit(4, |c, a, b| c.mul_signed(a, b));
        for x in -8i64..8 {
            for y in -8i64..8 {
                let got = eval2(&nl, 4, (x & 15) as u64, (y & 15) as u64);
                assert_eq!(got, ((x * y) & 255) as u64, "{x}*{y}");
            }
        }
    }

    #[test]
    fn mul_signed_ext_exhaustive_4bit() {
        let nl = binop_circuit(4, |c, a, b| c.mul_signed_ext(a, b));
        for x in -8i64..8 {
            for y in -8i64..8 {
                let got = eval2(&nl, 4, (x & 15) as u64, (y & 15) as u64);
                assert_eq!(got, ((x * y) & 255) as u64, "{x}*{y}");
            }
        }
    }

    #[test]
    fn mul_signed_rectangular_widths() {
        // 3-bit x 5-bit signed product, exhaustive.
        let mut c = Circuit::new();
        let a = c.input_word("a", 3);
        let b = c.input_word("b", 5);
        let p = c.mul_signed(&a, &b);
        assert_eq!(p.width(), 8);
        c.output_word("p", &p);
        let nl = c.finish().unwrap();
        for x in -4i64..4 {
            for y in -16i64..16 {
                let mut input = to_bits((x & 7) as u64, 3);
                input.extend(to_bits((y & 31) as u64, 5));
                let got = from_bits(&nl.eval_plain(&input));
                assert_eq!(got, ((x * y) & 255) as u64, "{x}*{y}");
            }
        }
    }

    #[test]
    fn mul_signed_one_bit_operands() {
        let mut c = Circuit::new();
        let a = c.input_word("a", 1);
        let b = c.input_word("b", 1);
        let p = c.mul_signed(&a, &b);
        c.output_word("p", &p);
        let nl = c.finish().unwrap();
        // 1-bit two's complement: 0 or -1; (-1)*(-1) = 1.
        assert_eq!(from_bits(&nl.eval_plain(&[false, false])), 0);
        assert_eq!(from_bits(&nl.eval_plain(&[true, false])), 0);
        assert_eq!(from_bits(&nl.eval_plain(&[true, true])), 1);
    }

    #[test]
    fn baugh_wooley_beats_sign_extension_on_gate_count() {
        let mut c1 = Circuit::new();
        let a = c1.input_word("a", 8);
        let b = c1.input_word("b", 8);
        let p = c1.mul_signed(&a, &b);
        c1.output_word("p", &p);
        let bw = c1.finish().unwrap().num_bootstrapped_gates();
        let mut c2 = Circuit::new();
        let a = c2.input_word("a", 8);
        let b = c2.input_word("b", 8);
        let p = c2.mul_signed_ext(&a, &b);
        c2.output_word("p", &p);
        let ext = c2.finish().unwrap().num_bootstrapped_gates();
        assert!(
            (bw as f64) < 0.7 * ext as f64,
            "Baugh-Wooley ({bw}) should clearly beat sign extension ({ext})"
        );
    }

    #[test]
    fn neg_inc_abs() {
        let w = 6;
        let mut c = Circuit::new();
        let a = c.input_word("a", w);
        let neg = c.neg(&a);
        let inc = c.inc(&a);
        let abs = c.abs(&a);
        let out = neg.concat(&inc).concat(&abs);
        c.output_word("out", &out);
        let nl = c.finish().unwrap();
        for x in -32i64..32 {
            let out = nl.eval_plain(&to_bits((x & 63) as u64, w));
            assert_eq!(from_bits(&out[0..w]), ((-x) & 63) as u64, "neg {x}");
            assert_eq!(from_bits(&out[w..2 * w]), ((x + 1) & 63) as u64, "inc {x}");
            assert_eq!(from_bits(&out[2 * w..]), (x.abs() & 63) as u64, "abs {x}");
        }
    }

    #[test]
    fn comparisons_exhaustive_4bit() {
        let mut c = Circuit::new();
        let a = c.input_word("a", 4);
        let b = c.input_word("b", 4);
        let eq = c.eq(&a, &b).unwrap();
        let ltu = c.lt_unsigned(&a, &b).unwrap();
        let lts = c.lt_signed(&a, &b).unwrap();
        let le_s = c.le(&a, &b, true).unwrap();
        c.output_word("o", &Word::from_bits(vec![eq, ltu, lts, le_s]));
        let nl = c.finish().unwrap();
        for x in 0u64..16 {
            for y in 0u64..16 {
                let mut input = to_bits(x, 4);
                input.extend(to_bits(y, 4));
                let out = nl.eval_plain(&input);
                let (sx, sy) = ((x as i64 ^ 8) - 8, (y as i64 ^ 8) - 8);
                assert_eq!(out[0], x == y, "eq {x} {y}");
                assert_eq!(out[1], x < y, "ltu {x} {y}");
                assert_eq!(out[2], sx < sy, "lts {sx} {sy}");
                assert_eq!(out[3], sx <= sy, "les {sx} {sy}");
            }
        }
    }

    #[test]
    fn min_max_int() {
        let nl = binop_circuit(4, |c, a, b| {
            let mx = c.max_int(a, b, true).unwrap();
            let mn = c.min_int(a, b, true).unwrap();
            mx.concat(&mn)
        });
        for x in -8i64..8 {
            for y in -8i64..8 {
                let got = eval2(&nl, 4, (x & 15) as u64, (y & 15) as u64);
                let want = ((x.max(y) & 15) | ((x.min(y) & 15) << 4)) as u64;
                assert_eq!(got, want, "{x} {y}");
            }
        }
    }

    #[test]
    fn multiply_by_constant_folds_partial_products() {
        let mut c = Circuit::new();
        let a = c.input_word("a", 8);
        let k = Word::constant(2, 8); // one set bit
        let p = c.mul_unsigned(&a, &k);
        // Multiplying by a power of two must cost no logic gates at all.
        assert_eq!(c.num_gates(), 0, "power-of-two multiply should fold to wiring");
        c.output_word("p", &p);
        // Emitting the output may materialize free CONST gates, never logic.
        let nl = c.finish().unwrap();
        assert_eq!(nl.num_bootstrapped_gates(), 0);
    }
}
