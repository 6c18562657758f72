//! Parameterizable floating-point circuits — ChiselTorch's `Float(e, m)`
//! data types (Section IV-B of the paper: "floating-point data types with
//! arbitrary bits of exponent and mantissa", e.g. `Float(8, 8)` for
//! bfloat16 or `Float(5, 11)` for half precision).
//!
//! # Number model
//!
//! A `Float(e, m)` value is stored LSB-first as `[mantissa, exponent,
//! sign]` and denotes `(-1)^s * 2^(exp - bias) * (1 + mant / 2^m)` with
//! `bias = 2^(e-1) - 1`. The model is deliberately simpler than IEEE 754,
//! as is typical for FHE circuits where every gate is a bootstrap:
//!
//! * `exp == 0` means zero (no subnormals; underflow flushes to zero),
//! * no NaN/infinity: overflow saturates to the largest finite value,
//! * rounding is truncation (toward zero).
//!
//! The software codec ([`FloatFormat::encode_f64`] /
//! [`FloatFormat::decode_f64`]) implements the same model bit-exactly and
//! is what the client uses to prepare tensors for encryption.

use crate::bit::Bit;
use crate::circuit::Circuit;
use crate::word::Word;
use std::fmt;

/// A floating-point format with `exp_bits` of exponent and `man_bits` of
/// mantissa (plus an implicit sign bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FloatFormat {
    /// Exponent width in bits (≥ 2).
    pub exp_bits: usize,
    /// Mantissa width in bits (≥ 1), excluding the hidden leading 1.
    pub man_bits: usize,
}

/// Guard bits carried through addition/division before truncation.
const GUARD: usize = 3;

impl FloatFormat {
    /// Creates a format; the paper's `Float(8, 8)` is
    /// `FloatFormat::new(8, 8)`.
    ///
    /// # Panics
    ///
    /// Panics if `exp_bits < 2` or `man_bits < 1`.
    pub fn new(exp_bits: usize, man_bits: usize) -> Self {
        assert!(exp_bits >= 2, "need at least 2 exponent bits");
        assert!(man_bits >= 1, "need at least 1 mantissa bit");
        assert!(exp_bits <= 11 && man_bits <= 32, "format too large for the f64 codec");
        FloatFormat { exp_bits, man_bits }
    }

    /// bfloat16-like `Float(8, 8)` (the paper's Figure 4 example).
    pub fn bf16() -> Self {
        FloatFormat::new(8, 8)
    }

    /// Half-precision-like `Float(5, 11)` (the paper's Section IV-B
    /// example; one mantissa bit more than IEEE half, hidden-bit counted).
    pub fn half() -> Self {
        FloatFormat::new(5, 11)
    }

    /// Total storage width: `1 + exp_bits + man_bits`.
    pub fn width(&self) -> usize {
        1 + self.exp_bits + self.man_bits
    }

    /// The exponent bias `2^(e-1) - 1`.
    pub fn bias(&self) -> i64 {
        (1i64 << (self.exp_bits - 1)) - 1
    }

    /// Encodes `x` into the format's bit pattern (LSB-first), applying the
    /// model's flush-to-zero, saturation and truncation rules.
    pub fn encode_f64(&self, x: f64) -> Vec<bool> {
        let w = self.width();
        let mut bits = vec![false; w];
        if x == 0.0 || !x.is_finite() && x.is_nan() {
            return bits;
        }
        let sign = x < 0.0;
        let mag = x.abs();
        let (mant_field, exp_field) = if mag.is_infinite() {
            ((1u64 << self.man_bits) - 1, (1u64 << self.exp_bits) - 1)
        } else {
            let e_unb = mag.log2().floor() as i64;
            let e_biased = e_unb + self.bias();
            if e_biased <= 0 {
                return bits; // underflow -> zero (sign dropped)
            }
            let emax = (1i64 << self.exp_bits) - 1;
            if e_biased >= emax {
                // saturate to the largest finite value
                ((1u64 << self.man_bits) - 1, emax as u64)
            } else {
                let frac = mag / (e_unb as f64).exp2() - 1.0; // in [0, 1)
                let mant = (frac * (1u64 << self.man_bits) as f64).floor() as u64;
                // Truncation cannot round up, so mant < 2^m always.
                (mant.min((1 << self.man_bits) - 1), e_biased as u64)
            }
        };
        for (i, bit) in bits.iter_mut().enumerate().take(self.man_bits) {
            *bit = (mant_field >> i) & 1 == 1;
        }
        for i in 0..self.exp_bits {
            bits[self.man_bits + i] = (exp_field >> i) & 1 == 1;
        }
        bits[w - 1] = sign;
        bits
    }

    /// Decodes a bit pattern back to `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from [`FloatFormat::width`].
    pub fn decode_f64(&self, bits: &[bool]) -> f64 {
        assert_eq!(bits.len(), self.width(), "float decode width mismatch");
        let mant: u64 = bits[..self.man_bits]
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | (u64::from(b) << i));
        let exp: u64 = bits[self.man_bits..self.man_bits + self.exp_bits]
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | (u64::from(b) << i));
        let sign = bits[self.width() - 1];
        if exp == 0 {
            return 0.0;
        }
        let value = (1.0 + mant as f64 / (1u64 << self.man_bits) as f64)
            * ((exp as i64 - self.bias()) as f64).exp2();
        if sign {
            -value
        } else {
            value
        }
    }

    /// Relative precision of one mantissa ULP, `2^-m`.
    pub fn ulp(&self) -> f64 {
        (-(self.man_bits as f64)).exp2()
    }
}

impl fmt::Display for FloatFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Float({}, {})", self.exp_bits, self.man_bits)
    }
}

/// The unpacked fields of a float word inside a circuit.
#[derive(Debug, Clone)]
struct Unpacked {
    sign: Bit,
    exp: Word,
    mant: Word,
    /// `exp != 0`.
    nonzero: Bit,
}

impl Circuit {
    fn unpack_float(&mut self, fmt: FloatFormat, x: &Word) -> Unpacked {
        assert_eq!(x.width(), fmt.width(), "float width mismatch");
        let mant = x.slice(0, fmt.man_bits);
        let exp = x.slice(fmt.man_bits, fmt.man_bits + fmt.exp_bits);
        let sign = x.bit(fmt.width() - 1);
        let nonzero = self.or_reduce(&exp);
        Unpacked { sign, exp, mant, nonzero }
    }

    fn pack_float(&mut self, fmt: FloatFormat, sign: Bit, exp: &Word, mant: &Word) -> Word {
        debug_assert_eq!(exp.width(), fmt.exp_bits);
        debug_assert_eq!(mant.width(), fmt.man_bits);
        let mut bits = mant.bits().to_vec();
        bits.extend_from_slice(exp.bits());
        bits.push(sign);
        Word::from_bits(bits)
    }

    /// The all-zero (positive zero) float constant.
    fn float_zero(&self, fmt: FloatFormat) -> Word {
        Word::zeros(fmt.width())
    }

    /// Clamps a signed extended exponent into the format, producing the
    /// packed result with underflow-to-zero and overflow saturation.
    ///
    /// `exp_ext`: signed, at least `exp_bits + 2` wide. `valid` gates the
    /// whole result (0 selects zero).
    fn finalize_float(
        &mut self,
        fmt: FloatFormat,
        sign: Bit,
        exp_ext: &Word,
        mant: &Word,
        valid: Bit,
    ) -> Word {
        let we = exp_ext.width();
        let emax = Word::constant((1i64 << fmt.exp_bits) - 1, we);
        let one = Word::constant(1, we);
        let underflow = self.lt_signed(exp_ext, &one).expect("same widths");
        let overflow = self.lt_signed(&emax, exp_ext).expect("same widths");
        let exp_clamped = self.mux_word(overflow, &emax, exp_ext).expect("same widths");
        let exp_field = exp_clamped.slice(0, fmt.exp_bits);
        let mant_sat = Word::constant(-1, fmt.man_bits);
        let mant_field = self.mux_word(overflow, &mant_sat, mant).expect("same widths");
        let packed = self.pack_float(fmt, sign, &exp_field, &mant_field);
        let zero = self.float_zero(fmt);
        let not_under = self.not(underflow);
        let keep = self.and(valid, not_under);
        self.mux_word(keep, &packed, &zero).expect("same widths")
    }

    /// Floating-point multiplication.
    pub fn fmul(&mut self, fmt: FloatFormat, a: &Word, b: &Word) -> Word {
        let ua = self.unpack_float(fmt, a);
        let ub = self.unpack_float(fmt, b);
        let m = fmt.man_bits;
        let sign = self.xor(ua.sign, ub.sign);
        // (1.ma) * (1.mb): (m+1) x (m+1) -> 2m+2 bits.
        let ma = {
            let mut bits = ua.mant.bits().to_vec();
            bits.push(Bit::ONE);
            Word::from_bits(bits)
        };
        let mb = {
            let mut bits = ub.mant.bits().to_vec();
            bits.push(Bit::ONE);
            Word::from_bits(bits)
        };
        let prod = self.mul_unsigned(&ma, &mb);
        let top = prod.bit(2 * m + 1); // product in [2, 4)
                                       // Truncated mantissa for both normalization cases.
        let hi = prod.slice(m + 1, 2 * m + 1);
        let lo = prod.slice(m, 2 * m);
        let mant = self.mux_word(top, &hi, &lo).expect("same widths");
        // exp = ea + eb - bias + top, in exp_bits + 2 signed bits.
        let we = fmt.exp_bits + 2;
        let ea = ua.exp.zext(we);
        let eb = ub.exp.zext(we);
        let esum = self.add(&ea, &eb);
        let bias = Word::constant(fmt.bias(), we);
        let ebiased = self.sub(&esum, &bias);
        let topw: Word = Word::from_bits(vec![top]).zext(we);
        let exp_ext = self.add(&ebiased, &topw);
        let valid = self.and(ua.nonzero, ub.nonzero);
        self.finalize_float(fmt, sign, &exp_ext, &mant, valid)
    }

    /// Floating-point addition (subtraction is `fadd` with
    /// [`Circuit::fneg`]).
    pub fn fadd(&mut self, fmt: FloatFormat, a: &Word, b: &Word) -> Word {
        let ua = self.unpack_float(fmt, a);
        let ub = self.unpack_float(fmt, b);
        let m = fmt.man_bits;
        // Canonical magnitude keys (zero -> all-zero key) for the swap.
        let mag_a = self.float_magnitude_key(&ua);
        let mag_b = self.float_magnitude_key(&ub);
        let a_smaller = self.lt_unsigned(&mag_a, &mag_b).expect("same widths");
        // x = larger magnitude, y = smaller.
        let sx = self.mux_bit(a_smaller, ub.sign, ua.sign);
        let sy = self.mux_bit(a_smaller, ua.sign, ub.sign);
        let ex = self.mux_word(a_smaller, &ub.exp, &ua.exp).expect("w");
        let ey = self.mux_word(a_smaller, &ua.exp, &ub.exp).expect("w");
        let mx_f = self.mux_word(a_smaller, &ub.mant, &ua.mant).expect("w");
        let my_f = self.mux_word(a_smaller, &ua.mant, &ub.mant).expect("w");
        let x_nonzero = self.mux_bit(a_smaller, ub.nonzero, ua.nonzero);
        let y_nonzero = self.mux_bit(a_smaller, ua.nonzero, ub.nonzero);
        // Extended significands with guard bits: [guard | mant | 1].
        let l = m + 1 + GUARD;
        let build_sig = |c: &mut Circuit, mant: &Word, nonzero: Bit| -> Word {
            let mut bits = vec![Bit::ZERO; GUARD];
            bits.extend_from_slice(mant.bits());
            bits.push(nonzero); // hidden bit only when the value is nonzero
            let sig = Word::from_bits(bits);
            // Zero values must contribute a zero significand.
            let masked: Vec<Bit> = sig.bits().iter().map(|&bb| c.and(bb, nonzero)).collect();
            Word::from_bits(masked)
        };
        let sig_x = build_sig(self, &mx_f, x_nonzero);
        let sig_y = build_sig(self, &my_f, y_nonzero);
        // Align y to x: shift right by (ex - ey), a non-negative amount.
        let d = self.sub(&ex, &ey);
        let sig_y_shifted = self.shr_barrel(&sig_y, &d);
        // Effective add or subtract.
        let same_sign = self.xnor(sx, sy);
        let sum = self.add_wide_unsigned(&sig_x, &sig_y_shifted); // l+1 bits
        let diff = self.sub(&sig_x, &sig_y_shifted).zext(l + 1); // never borrows
        let v = self.mux_word(same_sign, &sum, &diff).expect("w");
        // Normalize: find the leading one; position l means exp += 1,
        // position l-1 means exp += 0, each step lower subtracts one more.
        let lz = self.leading_zeros(&v);
        let v_norm = self.shl_barrel(&v, &lz); // leading one now at bit l
                                               // Mantissa = bits just below the leading one, truncated.
        let mant = v_norm.slice(l - m, l);
        // exp_ext = ex + 1 - lz (signed).
        let we = fmt.exp_bits + 2;
        let ex_w = ex.zext(we);
        let one = Word::constant(1, we);
        let lz_w = lz.zext(we);
        let t = self.add(&ex_w, &one);
        let exp_ext = self.sub(&t, &lz_w);
        // Result is zero iff v == 0 (covers x == y == 0 and exact
        // cancellation).
        let v_nonzero = self.or_reduce(&v);
        // Exact cancellation yields +0: gate the sign with v_nonzero.
        let sign = self.and(sx, v_nonzero);
        self.finalize_float(fmt, sign, &exp_ext, &mant, v_nonzero)
    }

    /// Floating-point subtraction `a - b`.
    pub fn fsub(&mut self, fmt: FloatFormat, a: &Word, b: &Word) -> Word {
        let nb = self.fneg(fmt, b);
        self.fadd(fmt, a, &nb)
    }

    /// Floating-point division `a / b`. Division by zero saturates to the
    /// largest finite value (no infinities in the model).
    pub fn fdiv(&mut self, fmt: FloatFormat, a: &Word, b: &Word) -> Word {
        let ua = self.unpack_float(fmt, a);
        let ub = self.unpack_float(fmt, b);
        let m = fmt.man_bits;
        let sign = self.xor(ua.sign, ub.sign);
        // Quotient of significands with m + GUARD extra bits of precision:
        // A = (1.ma) << (m + GUARD), B = (1.mb); Q in (2^(m+G-1), 2^(m+G+1)).
        let w = 2 * m + GUARD + 2;
        let ma = {
            let mut bits = ua.mant.bits().to_vec();
            bits.push(Bit::ONE);
            Word::from_bits(bits)
        };
        let mb = {
            let mut bits = ub.mant.bits().to_vec();
            bits.push(Bit::ONE);
            Word::from_bits(bits)
        };
        let num = ma.zext(w).shl_const(m + GUARD);
        let den = mb.zext(w);
        let (q, _) = self.div_unsigned(&num, &den);
        let top = q.bit(m + GUARD); // quotient in [1, 2)
        let hi = q.slice(GUARD, m + GUARD);
        let lo = q.slice(GUARD - 1, m + GUARD - 1);
        let mant = self.mux_word(top, &hi, &lo).expect("w");
        // exp = ea - eb + bias - (1 - top) = ea - eb + bias - 1 + top.
        let we = fmt.exp_bits + 2;
        let ea = ua.exp.zext(we);
        let eb = ub.exp.zext(we);
        let ediff = self.sub(&ea, &eb);
        let bias = Word::constant(fmt.bias() - 1, we);
        let ebiased = self.add(&ediff, &bias);
        let topw = Word::from_bits(vec![top]).zext(we);
        let exp_ext = self.add(&ebiased, &topw);
        // a == 0 -> zero; b == 0 -> saturate to max (force overflow path).
        let div_by_zero = self.not(ub.nonzero);
        let big = Word::constant((1i64 << fmt.exp_bits) + 1, we);
        let exp_ext = self.mux_word(div_by_zero, &big, &exp_ext).expect("w");
        self.finalize_float(fmt, sign, &exp_ext, &mant, ua.nonzero)
    }

    /// Floating-point negation (free: flips the sign bit).
    pub fn fneg(&mut self, fmt: FloatFormat, a: &Word) -> Word {
        let mut bits = a.bits().to_vec();
        let w = fmt.width();
        bits[w - 1] = self.not(bits[w - 1]);
        Word::from_bits(bits)
    }

    /// `ReLU(a) = max(a, 0)`: zero when the sign bit is set. Two gates per
    /// output bit — the cheapness of non-linearities is exactly the edge
    /// bit-level TFHE has over CKKS (Section II-C of the paper).
    pub fn frelu(&mut self, fmt: FloatFormat, a: &Word) -> Word {
        let sign = a.bit(fmt.width() - 1);
        let keep = self.not(sign);
        a.bits().iter().map(|&b| self.and(b, keep)).collect()
    }

    /// A canonical unsigned magnitude key: `[mant | exp]` with zeros
    /// mapped to the all-zero key, so unsigned comparison of keys orders
    /// absolute values.
    fn float_magnitude_key(&mut self, u: &Unpacked) -> Word {
        let raw = u.mant.concat(&u.exp);
        raw.bits().iter().map(|&b| self.and(b, u.nonzero)).collect()
    }

    /// Floating-point `a < b`.
    pub fn flt(&mut self, fmt: FloatFormat, a: &Word, b: &Word) -> Bit {
        let ua = self.unpack_float(fmt, a);
        let ub = self.unpack_float(fmt, b);
        let mag_a = self.float_magnitude_key(&ua);
        let mag_b = self.float_magnitude_key(&ub);
        // Canonical signs: -0 compares as +0.
        let sa = self.and(ua.sign, ua.nonzero);
        let sb = self.and(ub.sign, ub.nonzero);
        let mag_lt = self.lt_unsigned(&mag_a, &mag_b).expect("w");
        let mag_gt = self.lt_unsigned(&mag_b, &mag_a).expect("w");
        // Same sign: positive -> |a|<|b|; negative -> |a|>|b|.
        let same = self.xnor(sa, sb);
        let by_mag = self.mux_bit(sa, mag_gt, mag_lt);
        // Different sign: a < b iff a is the negative one.
        self.mux_bit(same, by_mag, sa)
    }

    /// Floating-point maximum.
    pub fn fmax(&mut self, fmt: FloatFormat, a: &Word, b: &Word) -> Word {
        let a_lt_b = self.flt(fmt, a, b);
        self.mux_word(a_lt_b, b, a).expect("same widths")
    }

    /// Floating-point minimum.
    pub fn fmin(&mut self, fmt: FloatFormat, a: &Word, b: &Word) -> Word {
        let a_lt_b = self.flt(fmt, a, b);
        self.mux_word(a_lt_b, a, b).expect("same widths")
    }

    /// `(max value, argmax index)` over float items; ties resolve to the
    /// lowest index.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HdlError::ZeroWidth`] if `items` is empty.
    pub fn argmax_float(
        &mut self,
        fmt: FloatFormat,
        items: &[Word],
    ) -> Result<(Word, Word), crate::HdlError> {
        if items.is_empty() {
            return Err(crate::HdlError::ZeroWidth);
        }
        let index_bits = (usize::BITS - (items.len() - 1).max(1).leading_zeros()) as usize;
        let mut best = items[0].clone();
        let mut best_idx = Word::zeros(index_bits.max(1));
        for (i, item) in items.iter().enumerate().skip(1) {
            let improves = self.flt(fmt, &best, item);
            best = self.mux_word(improves, item, &best)?;
            let idx = Word::constant_u64(i as u64, best_idx.width());
            best_idx = self.mux_word(improves, &idx, &best_idx)?;
        }
        Ok((best, best_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::Netlist;

    fn binfloat(fmt: FloatFormat, f: impl FnOnce(&mut Circuit, &Word, &Word) -> Word) -> Netlist {
        let mut c = Circuit::new();
        let a = c.input_word("a", fmt.width());
        let b = c.input_word("b", fmt.width());
        let out = f(&mut c, &a, &b);
        c.output_word("out", &out);
        c.finish().unwrap()
    }

    fn run2(nl: &Netlist, fmt: FloatFormat, x: f64, y: f64) -> f64 {
        let mut input = fmt.encode_f64(x);
        input.extend(fmt.encode_f64(y));
        fmt.decode_f64(&nl.eval_plain(&input))
    }

    /// Relative-error assertion with an absolute floor near zero.
    fn assert_close(fmt: FloatFormat, got: f64, want: f64, ctx: &str) {
        let tol = 8.0 * fmt.ulp();
        let scale = want.abs().max(1e-30);
        if want == 0.0 {
            // Truncation may leave a few-ulp residue around cancellation.
            assert!(got.abs() <= tol * 4.0, "{ctx}: got {got}, want 0");
        } else {
            assert!(
                ((got - want) / scale).abs() < tol,
                "{ctx}: got {got}, want {want} (rel err {})",
                ((got - want) / scale).abs()
            );
        }
    }

    #[test]
    fn codec_round_trips() {
        let fmt = FloatFormat::bf16();
        for x in [0.0, 1.0, -1.0, 0.5, 3.25, -17.0, 1e-3, 1234.5, -0.0078125] {
            let bits = fmt.encode_f64(x);
            let back = fmt.decode_f64(&bits);
            assert_close(fmt, back, x, "codec");
        }
        assert_eq!(fmt.decode_f64(&fmt.encode_f64(0.0)), 0.0);
    }

    #[test]
    fn codec_saturates_and_flushes() {
        let fmt = FloatFormat::new(4, 4); // tiny range
        let max = fmt.decode_f64(&fmt.encode_f64(1e30));
        assert!(max > 100.0 && max.is_finite());
        assert_eq!(fmt.decode_f64(&fmt.encode_f64(1e-30)), 0.0);
    }

    #[test]
    fn fmul_matches_oracle() {
        let fmt = FloatFormat::bf16();
        let nl = binfloat(fmt, |c, a, b| c.fmul(fmt, a, b));
        let cases = [
            (1.0, 1.0),
            (2.0, 3.0),
            (-2.5, 4.0),
            (0.125, -0.5),
            (std::f64::consts::PI, std::f64::consts::E),
            (1000.0, 0.001),
            (0.0, 5.0),
            (7.0, 0.0),
            (-1.5, -1.5),
        ];
        for (x, y) in cases {
            // Quantize operands first: the circuit sees encoded values.
            let xq = fmt.decode_f64(&fmt.encode_f64(x));
            let yq = fmt.decode_f64(&fmt.encode_f64(y));
            let got = run2(&nl, fmt, x, y);
            assert_close(fmt, got, xq * yq, &format!("{x} * {y}"));
        }
    }

    #[test]
    fn fadd_matches_oracle() {
        let fmt = FloatFormat::bf16();
        let nl = binfloat(fmt, |c, a, b| c.fadd(fmt, a, b));
        let cases = [
            (1.0, 1.0),
            (1.0, -1.0),
            (2.5, 0.125),
            (-3.0, 1.5),
            (100.0, -0.01),
            (0.0, 4.0),
            (-4.0, 0.0),
            (0.0, 0.0),
            (1e10, 1.0),
            (-2.0, 2.0),
            (3.75, -3.5),
        ];
        for (x, y) in cases {
            let xq = fmt.decode_f64(&fmt.encode_f64(x));
            let yq = fmt.decode_f64(&fmt.encode_f64(y));
            let got = run2(&nl, fmt, x, y);
            assert_close(fmt, got, xq + yq, &format!("{x} + {y}"));
        }
    }

    #[test]
    fn fadd_randomized_against_oracle() {
        let fmt = FloatFormat::half();
        let nl = binfloat(fmt, |c, a, b| c.fadd(fmt, a, b));
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 50.0
        };
        for i in 0..200 {
            let (x, y) = (next(), next());
            let xq = fmt.decode_f64(&fmt.encode_f64(x));
            let yq = fmt.decode_f64(&fmt.encode_f64(y));
            let got = run2(&nl, fmt, x, y);
            assert_close(fmt, got, xq + yq, &format!("case {i}: {x} + {y}"));
        }
    }

    #[test]
    fn fmul_randomized_against_oracle() {
        let fmt = FloatFormat::new(6, 6);
        let nl = binfloat(fmt, |c, a, b| c.fmul(fmt, a, b));
        let mut state = 0xDEADBEEFu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 8.0
        };
        for i in 0..200 {
            let (x, y) = (next(), next());
            let xq = fmt.decode_f64(&fmt.encode_f64(x));
            let yq = fmt.decode_f64(&fmt.encode_f64(y));
            let got = run2(&nl, fmt, x, y);
            assert_close(fmt, got, xq * yq, &format!("case {i}: {x} * {y}"));
        }
    }

    #[test]
    fn fdiv_matches_oracle() {
        let fmt = FloatFormat::bf16();
        let nl = binfloat(fmt, |c, a, b| c.fdiv(fmt, a, b));
        let cases = [(1.0, 2.0), (3.0, 1.5), (-8.0, 2.0), (1.0, 3.0), (0.0, 7.0), (5.0, -0.25)];
        for (x, y) in cases {
            let xq = fmt.decode_f64(&fmt.encode_f64(x));
            let yq = fmt.decode_f64(&fmt.encode_f64(y));
            let got = run2(&nl, fmt, x, y);
            assert_close(fmt, got, xq / yq, &format!("{x} / {y}"));
        }
    }

    #[test]
    fn fdiv_by_zero_saturates() {
        let fmt = FloatFormat::bf16();
        let nl = binfloat(fmt, |c, a, b| c.fdiv(fmt, a, b));
        let got = run2(&nl, fmt, 3.0, 0.0);
        assert!(got > 1e30, "expected saturation, got {got}");
    }

    #[test]
    fn relu_and_neg() {
        let fmt = FloatFormat::bf16();
        let mut c = Circuit::new();
        let a = c.input_word("a", fmt.width());
        let relu = c.frelu(fmt, &a);
        let neg = c.fneg(fmt, &a);
        c.output_word("out", &relu.concat(&neg));
        let nl = c.finish().unwrap();
        for x in [3.5, -3.5, 0.0, -0.125] {
            let out = nl.eval_plain(&fmt.encode_f64(x));
            let relu = fmt.decode_f64(&out[..fmt.width()]);
            let neg = fmt.decode_f64(&out[fmt.width()..]);
            let xq = fmt.decode_f64(&fmt.encode_f64(x));
            assert_eq!(relu, xq.max(0.0), "relu({x})");
            assert_eq!(neg, -xq, "neg({x})");
        }
    }

    #[test]
    fn comparisons_and_extrema() {
        let fmt = FloatFormat::bf16();
        let mut c = Circuit::new();
        let a = c.input_word("a", fmt.width());
        let b = c.input_word("b", fmt.width());
        let lt = c.flt(fmt, &a, &b);
        let mx = c.fmax(fmt, &a, &b);
        let mn = c.fmin(fmt, &a, &b);
        let lt_word = Word::from_bits(vec![lt]);
        c.output_word("out", &lt_word.concat(&mx).concat(&mn));
        let nl = c.finish().unwrap();
        let values = [-7.5, -1.0, -0.25, 0.0, 0.5, 2.0, 100.0];
        for &x in &values {
            for &y in &values {
                let mut input = fmt.encode_f64(x);
                input.extend(fmt.encode_f64(y));
                let out = nl.eval_plain(&input);
                assert_eq!(out[0], x < y, "{x} < {y}");
                let w = fmt.width();
                assert_eq!(fmt.decode_f64(&out[1..1 + w]), x.max(y), "max({x},{y})");
                assert_eq!(fmt.decode_f64(&out[1 + w..]), x.min(y), "min({x},{y})");
            }
        }
    }

    #[test]
    fn argmax_float_selects() {
        let fmt = FloatFormat::bf16();
        let mut c = Circuit::new();
        let items: Vec<Word> = (0..4).map(|i| c.input_word(format!("x{i}"), fmt.width())).collect();
        let (_, idx) = c.argmax_float(fmt, &items).unwrap();
        c.output_word("idx", &idx);
        let nl = c.finish().unwrap();
        let cases = [
            ([0.1, -0.5, 3.0, 2.9], 2u64),
            ([-1.0, -2.0, -3.0, -0.5], 3),
            ([5.0, 5.0, 1.0, 0.0], 0),
        ];
        for (vals, want) in cases {
            let mut input = Vec::new();
            for v in vals {
                input.extend(fmt.encode_f64(v));
            }
            let out = nl.eval_plain(&input);
            let got = out.iter().enumerate().fold(0u64, |a, (i, &b)| a | (u64::from(b) << i));
            assert_eq!(got, want, "{vals:?}");
        }
    }
}
