//! The ChiselTorch data-type system: `UInt(w)`, `SInt(w)`, `Fixed(w, f)`
//! and `Float(e, m)` of arbitrary widths (Section IV-B of the paper:
//! "data types are not limited to conventional byte or word alignment").
//!
//! [`DType`] carries the interpretation; [`Value`] pairs a [`Word`] with
//! its type; the typed operations on [`Circuit`] dispatch to the integer,
//! fixed-point or floating-point generators. The plaintext codec
//! ([`DType::encode_f64`] / [`DType::decode_f64`]) is what the client uses
//! to quantize tensors before encryption and to interpret decrypted
//! results — the "parameterizable data type selection" knob that trades
//! accuracy for gate count.

use crate::bit::Bit;
use crate::circuit::Circuit;
use crate::error::HdlError;
use crate::float::FloatFormat;
use crate::word::Word;
use std::fmt;

/// A ChiselTorch data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Unsigned integer of the given width.
    UInt(usize),
    /// Two's-complement signed integer, e.g. the paper's `SInt(7)`.
    SInt(usize),
    /// Signed fixed point: `width` total bits of which `frac` are
    /// fractional (value = raw / 2^frac).
    Fixed {
        /// Total width in bits.
        width: usize,
        /// Fractional bits.
        frac: usize,
    },
    /// Floating point with `e` exponent and `m` mantissa bits, e.g. the
    /// paper's `Float(8, 8)` bfloat16.
    Float {
        /// Exponent bits.
        exp: usize,
        /// Mantissa bits.
        man: usize,
    },
}

impl DType {
    /// Storage width in bits.
    pub fn width(&self) -> usize {
        match *self {
            DType::UInt(w) | DType::SInt(w) => w,
            DType::Fixed { width, .. } => width,
            DType::Float { exp, man } => 1 + exp + man,
        }
    }

    /// Whether values of this type carry a sign.
    pub fn is_signed(&self) -> bool {
        !matches!(self, DType::UInt(_))
    }

    /// The float format, when this is a float type.
    pub fn float_format(&self) -> Option<FloatFormat> {
        match *self {
            DType::Float { exp, man } => Some(FloatFormat::new(exp, man)),
            _ => None,
        }
    }

    /// Quantizes `x` to this type's bit pattern (LSB-first), clamping to
    /// the representable range.
    pub fn encode_f64(&self, x: f64) -> Vec<bool> {
        match *self {
            DType::UInt(w) => {
                let max = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                let v = x.round().clamp(0.0, max as f64) as u64;
                (0..w).map(|i| (v >> i.min(63)) & 1 == 1).collect()
            }
            DType::SInt(w) => {
                let max = (1i64 << (w - 1)) - 1;
                let min = -(1i64 << (w - 1));
                let v = x.round().clamp(min as f64, max as f64) as i64;
                (0..w).map(|i| (v >> i.min(63)) & 1 == 1).collect()
            }
            DType::Fixed { width, frac } => {
                let scaled = x * (frac as f64).exp2();
                let max = (1i64 << (width - 1)) - 1;
                let min = -(1i64 << (width - 1));
                let v = scaled.round().clamp(min as f64, max as f64) as i64;
                (0..width).map(|i| (v >> i.min(63)) & 1 == 1).collect()
            }
            DType::Float { exp, man } => FloatFormat::new(exp, man).encode_f64(x),
        }
    }

    /// Decodes a bit pattern of this type back to `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the type width.
    pub fn decode_f64(&self, bits: &[bool]) -> f64 {
        assert_eq!(bits.len(), self.width(), "dtype decode width mismatch");
        let raw: u64 =
            bits.iter().enumerate().fold(
                0,
                |acc, (i, &b)| {
                    if i < 64 {
                        acc | (u64::from(b) << i)
                    } else {
                        acc
                    }
                },
            );
        match *self {
            DType::UInt(_) => raw as f64,
            DType::SInt(w) => sign_extend(raw, w) as f64,
            DType::Fixed { width, frac } => sign_extend(raw, width) as f64 / (frac as f64).exp2(),
            DType::Float { exp, man } => FloatFormat::new(exp, man).decode_f64(bits),
        }
    }

    /// The quantization step near zero (used in accuracy analyses).
    pub fn resolution(&self) -> f64 {
        match *self {
            DType::UInt(_) | DType::SInt(_) => 1.0,
            DType::Fixed { frac, .. } => (-(frac as f64)).exp2(),
            DType::Float { man, .. } => (-(man as f64)).exp2(),
        }
    }
}

fn sign_extend(raw: u64, w: usize) -> i64 {
    if w == 0 || w >= 64 {
        return raw as i64;
    }
    let sign = (raw >> (w - 1)) & 1;
    if sign == 1 {
        (raw | !((1u64 << w) - 1)) as i64
    } else {
        raw as i64
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DType::UInt(w) => write!(f, "UInt({w})"),
            DType::SInt(w) => write!(f, "SInt({w})"),
            DType::Fixed { width, frac } => write!(f, "Fixed({width}, {frac})"),
            DType::Float { exp, man } => write!(f, "Float({exp}, {man})"),
        }
    }
}

/// A typed signal bundle: a [`Word`] plus its [`DType`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    /// The raw bits.
    pub word: Word,
    /// Their interpretation.
    pub dtype: DType,
}

impl Value {
    /// Wraps a word with its type.
    ///
    /// # Panics
    ///
    /// Panics if the word width does not match the type width.
    pub fn new(word: Word, dtype: DType) -> Self {
        assert_eq!(word.width(), dtype.width(), "value width mismatch");
        Value { word, dtype }
    }

    /// A compile-time constant of the given type.
    pub fn constant(c: &mut Circuit, x: f64, dtype: DType) -> Self {
        let _ = c;
        let bits = dtype.encode_f64(x).into_iter().map(Bit::Const).collect();
        Value { word: Word::from_bits(bits), dtype }
    }
}

macro_rules! check_same_dtype {
    ($a:expr, $b:expr, $op:literal) => {
        if $a.dtype != $b.dtype {
            return Err(HdlError::DTypeMismatch { left: $a.dtype, right: $b.dtype, op: $op });
        }
    };
}

impl Circuit {
    /// Typed addition (wrapping for integers/fixed, saturating-by-format
    /// for floats).
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::DTypeMismatch`] if types differ.
    pub fn v_add(&mut self, a: &Value, b: &Value) -> Result<Value, HdlError> {
        check_same_dtype!(a, b, "add");
        let word = match a.dtype {
            DType::UInt(_) | DType::SInt(_) | DType::Fixed { .. } => self.add(&a.word, &b.word),
            DType::Float { .. } => {
                let fmt = a.dtype.float_format().expect("float");
                self.fadd(fmt, &a.word, &b.word)
            }
        };
        Ok(Value::new(word, a.dtype))
    }

    /// Typed subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::DTypeMismatch`] if types differ.
    pub fn v_sub(&mut self, a: &Value, b: &Value) -> Result<Value, HdlError> {
        check_same_dtype!(a, b, "sub");
        let word = match a.dtype {
            DType::UInt(_) | DType::SInt(_) | DType::Fixed { .. } => self.sub(&a.word, &b.word),
            DType::Float { .. } => {
                let fmt = a.dtype.float_format().expect("float");
                self.fsub(fmt, &a.word, &b.word)
            }
        };
        Ok(Value::new(word, a.dtype))
    }

    /// Typed multiplication. Integer and fixed-point products are
    /// truncated back to the operand type (fixed point re-aligns the
    /// binary point first), floats follow the format's truncation.
    ///
    /// When either integer or fixed-point operand is all-constant (a
    /// plaintext weight), the product is [`Circuit::mul_const`] over
    /// exactly the bits the array would keep: the same output bits from a
    /// signed-digit shift-add.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::DTypeMismatch`] if types differ.
    pub fn v_mul(&mut self, a: &Value, b: &Value) -> Result<Value, HdlError> {
        check_same_dtype!(a, b, "mul");
        let constant = |v: &Value| v.word.bits().iter().all(|bit| bit.as_const().is_some());
        let by_constant = match (constant(a), constant(b)) {
            (_, true) => Some((&a.word, &b.word)),
            (true, false) => Some((&b.word, &a.word)),
            (false, false) => None,
        };
        let word = match (a.dtype, by_constant) {
            (DType::UInt(_) | DType::SInt(_), Some((x, k))) => self.mul_const(x, k),
            (DType::Fixed { width, frac }, Some((x, k))) => {
                // Bits frac..frac + width of the product, as below.
                let w = width + frac;
                self.mul_const(&x.sext(w), &k.sext(w)).slice(frac, frac + width)
            }
            (DType::UInt(w), _) => self.mul_unsigned(&a.word, &b.word).slice(0, w),
            (DType::SInt(w), _) => self.mul_signed(&a.word, &b.word).slice(0, w),
            (DType::Fixed { width, frac }, None) => {
                let wide = self.mul_signed(&a.word, &b.word);
                // Product has 2*frac fractional bits; shift back by frac.
                wide.asr_const(frac).slice(0, width)
            }
            (DType::Float { .. }, _) => {
                let fmt = a.dtype.float_format().expect("float");
                self.fmul(fmt, &a.word, &b.word)
            }
        };
        Ok(Value::new(word, a.dtype))
    }

    /// Typed division (truncating).
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::DTypeMismatch`] if types differ.
    pub fn v_div(&mut self, a: &Value, b: &Value) -> Result<Value, HdlError> {
        check_same_dtype!(a, b, "div");
        let word = match a.dtype {
            DType::UInt(_) => self.div_unsigned(&a.word, &b.word).0,
            DType::SInt(_) => self.div_signed(&a.word, &b.word).0,
            DType::Fixed { frac, .. } => self.div_fixed_signed(&a.word, &b.word, frac),
            DType::Float { .. } => {
                let fmt = a.dtype.float_format().expect("float");
                self.fdiv(fmt, &a.word, &b.word)
            }
        };
        Ok(Value::new(word, a.dtype))
    }

    /// Typed negation.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::Unsupported`] for unsigned types.
    pub fn v_neg(&mut self, a: &Value) -> Result<Value, HdlError> {
        let word = match a.dtype {
            DType::UInt(_) => {
                return Err(HdlError::Unsupported { dtype: a.dtype, op: "neg" });
            }
            DType::SInt(_) | DType::Fixed { .. } => self.neg(&a.word),
            DType::Float { .. } => {
                let fmt = a.dtype.float_format().expect("float");
                self.fneg(fmt, &a.word)
            }
        };
        Ok(Value::new(word, a.dtype))
    }

    /// `ReLU(a) = max(a, 0)` — two gates per bit for every type.
    pub fn v_relu(&mut self, a: &Value) -> Value {
        let word = match a.dtype {
            DType::UInt(_) => a.word.clone(),
            DType::SInt(_) | DType::Fixed { .. } => {
                let sign = a.word.msb();
                let keep = self.not(sign);
                a.word.bits().iter().map(|&b| self.and(b, keep)).collect()
            }
            DType::Float { .. } => {
                let fmt = a.dtype.float_format().expect("float");
                self.frelu(fmt, &a.word)
            }
        };
        Value::new(word, a.dtype)
    }

    /// Typed `a < b`.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::DTypeMismatch`] if types differ.
    pub fn v_lt(&mut self, a: &Value, b: &Value) -> Result<Bit, HdlError> {
        check_same_dtype!(a, b, "lt");
        Ok(match a.dtype {
            DType::UInt(_) => self.lt_unsigned(&a.word, &b.word)?,
            DType::SInt(_) | DType::Fixed { .. } => self.lt_signed(&a.word, &b.word)?,
            DType::Float { .. } => {
                let fmt = a.dtype.float_format().expect("float");
                self.flt(fmt, &a.word, &b.word)
            }
        })
    }

    /// Typed equality.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::DTypeMismatch`] if types differ.
    pub fn v_eq(&mut self, a: &Value, b: &Value) -> Result<Bit, HdlError> {
        check_same_dtype!(a, b, "eq");
        // Bit equality; floats additionally identify +0 with any zero
        // pattern, but the builders only ever produce canonical zeros.
        self.eq(&a.word, &b.word)
    }

    /// Typed maximum.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::DTypeMismatch`] if types differ.
    pub fn v_max(&mut self, a: &Value, b: &Value) -> Result<Value, HdlError> {
        check_same_dtype!(a, b, "max");
        let lt = self.v_lt(a, b)?;
        let word = self.mux_word(lt, &b.word, &a.word)?;
        Ok(Value::new(word, a.dtype))
    }

    /// Typed minimum.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::DTypeMismatch`] if types differ.
    pub fn v_min(&mut self, a: &Value, b: &Value) -> Result<Value, HdlError> {
        check_same_dtype!(a, b, "min");
        let lt = self.v_lt(a, b)?;
        let word = self.mux_word(lt, &a.word, &b.word)?;
        Ok(Value::new(word, a.dtype))
    }

    /// Typed mux: `s ? a : b`.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::DTypeMismatch`] if types differ.
    pub fn v_mux(&mut self, s: Bit, a: &Value, b: &Value) -> Result<Value, HdlError> {
        check_same_dtype!(a, b, "mux");
        let word = self.mux_word(s, &a.word, &b.word)?;
        Ok(Value::new(word, a.dtype))
    }

    /// `(max, argmax)` over typed items; ties resolve to the lowest index.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::ZeroWidth`] on empty input and
    /// [`HdlError::DTypeMismatch`] on mixed types.
    pub fn v_argmax(&mut self, items: &[Value]) -> Result<(Value, Word), HdlError> {
        let Some(first) = items.first() else {
            return Err(HdlError::ZeroWidth);
        };
        for it in items {
            check_same_dtype!(first, it, "argmax");
        }
        match first.dtype {
            DType::Float { .. } => {
                let fmt = first.dtype.float_format().expect("float");
                let words: Vec<Word> = items.iter().map(|v| v.word.clone()).collect();
                let (best, idx) = self.argmax_float(fmt, &words)?;
                Ok((Value::new(best, first.dtype), idx))
            }
            _ => {
                let words: Vec<Word> = items.iter().map(|v| v.word.clone()).collect();
                let (best, idx) = self.argmax_int(&words, first.dtype.is_signed())?;
                Ok((Value::new(best, first.dtype), idx))
            }
        }
    }

    /// `(min, argmin)` over typed items.
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::v_argmax`].
    pub fn v_argmin(&mut self, items: &[Value]) -> Result<(Value, Word), HdlError> {
        let Some(first) = items.first() else {
            return Err(HdlError::ZeroWidth);
        };
        for it in items {
            check_same_dtype!(first, it, "argmin");
        }
        match first.dtype {
            DType::Float { .. } => {
                // min(x) = -max(-x); negation is free for floats.
                let fmt = first.dtype.float_format().expect("float");
                let negs: Vec<Word> = items.iter().map(|v| self.fneg(fmt, &v.word)).collect();
                let (best, idx) = self.argmax_float(fmt, &negs)?;
                let best = self.fneg(fmt, &best);
                Ok((Value::new(best, first.dtype), idx))
            }
            _ => {
                let words: Vec<Word> = items.iter().map(|v| v.word.clone()).collect();
                let (best, idx) = self.argmin_int(&words, first.dtype.is_signed())?;
                Ok((Value::new(best, first.dtype), idx))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytfhe_netlist::Netlist;

    fn binval(dtype: DType, f: impl FnOnce(&mut Circuit, &Value, &Value) -> Value) -> Netlist {
        let mut c = Circuit::new();
        let a = Value::new(c.input_word("a", dtype.width()), dtype);
        let b = Value::new(c.input_word("b", dtype.width()), dtype);
        let out = f(&mut c, &a, &b);
        c.output_word("out", &out.word);
        c.finish().unwrap()
    }

    fn run2(nl: &Netlist, dtype: DType, x: f64, y: f64) -> f64 {
        let mut input = dtype.encode_f64(x);
        input.extend(dtype.encode_f64(y));
        dtype.decode_f64(&nl.eval_plain(&input))
    }

    #[test]
    fn codec_all_types() {
        for dtype in [
            DType::UInt(7),
            DType::SInt(9),
            DType::Fixed { width: 12, frac: 5 },
            DType::Float { exp: 6, man: 7 },
        ] {
            for x in [-3.0, 0.0, 1.0, 2.5, 17.0, -0.5] {
                let bits = dtype.encode_f64(x);
                assert_eq!(bits.len(), dtype.width());
                let back = dtype.decode_f64(&bits);
                let expect_err = dtype.resolution().max(x.abs() * dtype.resolution());
                if dtype == DType::UInt(7) && x < 0.0 {
                    assert_eq!(back, 0.0, "uint clamps at zero");
                } else {
                    assert!((back - x).abs() <= expect_err + 1e-12, "{dtype}: {x} -> {back}");
                }
            }
        }
    }

    #[test]
    fn codec_clamps_extremes() {
        assert_eq!(DType::SInt(4).decode_f64(&DType::SInt(4).encode_f64(100.0)), 7.0);
        assert_eq!(DType::SInt(4).decode_f64(&DType::SInt(4).encode_f64(-100.0)), -8.0);
        assert_eq!(DType::UInt(4).decode_f64(&DType::UInt(4).encode_f64(99.0)), 15.0);
        let fx = DType::Fixed { width: 6, frac: 2 };
        assert_eq!(fx.decode_f64(&fx.encode_f64(100.0)), 7.75);
    }

    #[test]
    fn fixed_point_mul_aligns_binary_point() {
        let dtype = DType::Fixed { width: 10, frac: 4 };
        let nl = binval(dtype, |c, a, b| c.v_mul(a, b).unwrap());
        for (x, y) in [(1.5, 2.0), (0.25, 0.5), (-3.0, 1.25), (2.0, -2.0)] {
            let got = run2(&nl, dtype, x, y);
            assert!((got - x * y).abs() <= 2.0 * dtype.resolution(), "{x}*{y} -> {got}");
        }
    }

    #[test]
    fn sint_arithmetic() {
        let dtype = DType::SInt(8);
        let nl = binval(dtype, |c, a, b| {
            let s = c.v_add(a, b).unwrap();
            let d = c.v_sub(&s, b).unwrap(); // back to a
            c.v_mul(&d, b).unwrap()
        });
        for (x, y) in [(3.0, 4.0), (-5.0, 6.0), (10.0, -11.0)] {
            assert_eq!(run2(&nl, dtype, x, y), x * y, "{x} {y}");
        }
    }

    #[test]
    fn div_all_int_types() {
        for dtype in [DType::UInt(8), DType::SInt(8), DType::Fixed { width: 10, frac: 3 }] {
            let nl = binval(dtype, |c, a, b| c.v_div(a, b).unwrap());
            for (x, y) in [(12.0, 4.0), (7.0, 2.0), (15.0, 5.0)] {
                let got = run2(&nl, dtype, x, y);
                assert!(
                    (got - x / y).abs() <= dtype.resolution() + 1e-12,
                    "{dtype}: {x}/{y} -> {got}"
                );
            }
        }
    }

    #[test]
    fn relu_all_types() {
        for dtype in
            [DType::SInt(6), DType::Fixed { width: 8, frac: 3 }, DType::Float { exp: 5, man: 6 }]
        {
            let mut c = Circuit::new();
            let a = Value::new(c.input_word("a", dtype.width()), dtype);
            let out = c.v_relu(&a);
            c.output_word("out", &out.word);
            let nl = c.finish().unwrap();
            for x in [-5.0, -0.5, 0.0, 0.5, 5.0] {
                let xq = dtype.decode_f64(&dtype.encode_f64(x));
                let got = dtype.decode_f64(&nl.eval_plain(&dtype.encode_f64(x)));
                assert_eq!(got, xq.max(0.0), "{dtype} relu({x})");
            }
        }
    }

    #[test]
    fn neg_unsupported_for_unsigned() {
        let mut c = Circuit::new();
        let a = Value::new(c.input_word("a", 4), DType::UInt(4));
        assert!(matches!(c.v_neg(&a), Err(HdlError::Unsupported { .. })));
    }

    #[test]
    fn dtype_mismatch_is_rejected() {
        let mut c = Circuit::new();
        let a = Value::new(c.input_word("a", 4), DType::UInt(4));
        let b = Value::new(c.input_word("b", 4), DType::SInt(4));
        assert!(matches!(c.v_add(&a, &b), Err(HdlError::DTypeMismatch { .. })));
    }

    #[test]
    fn argmax_typed() {
        let dtype = DType::Fixed { width: 8, frac: 2 };
        let mut c = Circuit::new();
        let items: Vec<Value> = (0..3)
            .map(|i| Value::new(c.input_word(format!("x{i}"), dtype.width()), dtype))
            .collect();
        let (_, idx) = c.v_argmax(&items).unwrap();
        c.output_word("idx", &idx);
        let nl = c.finish().unwrap();
        let mut input = Vec::new();
        for v in [1.5, -2.0, 3.25] {
            input.extend(dtype.encode_f64(v));
        }
        let out = nl.eval_plain(&input);
        let got = out.iter().enumerate().fold(0u64, |a, (i, &b)| a | (u64::from(b) << i));
        assert_eq!(got, 2);
    }

    #[test]
    fn argmin_typed_float() {
        let dtype = DType::Float { exp: 6, man: 6 };
        let mut c = Circuit::new();
        let items: Vec<Value> = (0..3)
            .map(|i| Value::new(c.input_word(format!("x{i}"), dtype.width()), dtype))
            .collect();
        let (best, idx) = c.v_argmin(&items).unwrap();
        c.output_word("best", &best.word);
        c.output_word("idx", &idx);
        let nl = c.finish().unwrap();
        let mut input = Vec::new();
        for v in [1.5, -2.0, 3.25] {
            input.extend(dtype.encode_f64(v));
        }
        let out = nl.eval_plain(&input);
        let w = dtype.width();
        assert_eq!(dtype.decode_f64(&out[..w]), -2.0);
        let got = out[w..].iter().enumerate().fold(0u64, |a, (i, &b)| a | (u64::from(b) << i));
        assert_eq!(got, 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(DType::Float { exp: 8, man: 8 }.to_string(), "Float(8, 8)");
        assert_eq!(DType::SInt(7).to_string(), "SInt(7)");
        assert_eq!(DType::Fixed { width: 8, frac: 4 }.to_string(), "Fixed(8, 4)");
    }
}
